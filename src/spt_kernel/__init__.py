"""Exact q-series kernel for overpartition spt2 crank statistics.

Coefficient rings, truncated power series, brute-force partition oracles,
the two-variable spt-crank series SB(z,q), and mechanical verification of
its dissection identities and congruences.
"""

from .rings import (
    CYCLO3,
    LAURENT,
    ZZ,
    CyclotomicInteger,
    CyclotomicRing,
    IntegerRing,
    LaurentPolynomial,
    LaurentRing,
    RingError,
    root_value,
)
from .series import (
    SeriesError,
    TruncatedSeries,
    poch_quotient,
    pochhammer_finite,
    pochhammer_inf,
)
from .partitions import (
    ag_crank,
    enumerate_overpartitions,
    m2_rank,
    m2_rank_distribution,
    residual_m2_crank_distribution,
    spt_family,
)
from .sptcrank import (
    SptCrankTable,
    at_zeta3,
    crank_series,
    partition_pair_oracle,
    rank_series,
    sb_at_root,
    sb_series,
    sptbar2_series,
    vector_partition_oracle,
)
from .verify import VerificationReport, run_all

__all__ = [
    "CYCLO3", "LAURENT", "ZZ",
    "CyclotomicInteger", "CyclotomicRing", "IntegerRing",
    "LaurentPolynomial", "LaurentRing", "RingError",
    "SeriesError", "TruncatedSeries",
    "poch_quotient", "pochhammer_finite", "pochhammer_inf",
    "root_value",
    "ag_crank", "enumerate_overpartitions",
    "m2_rank", "m2_rank_distribution",
    "residual_m2_crank_distribution", "spt_family",
    "SptCrankTable", "at_zeta3", "crank_series",
    "partition_pair_oracle", "rank_series", "sb_at_root", "sb_series",
    "sptbar2_series", "vector_partition_oracle",
    "VerificationReport", "run_all",
]

__version__ = "0.1.0"
