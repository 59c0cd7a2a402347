"""Per-layer tracing of one spt-kernel CLI invocation.

Run as a script, this module executes the CLI in process with spans around
the public functions of every layer, writes the CLI's stdout unchanged and
then writes one JSON line with the trace to stderr:

    PYTHONPATH=src python3 bench/tracer.py table --order 30 --t 3

The spans are installed from here, by replacing module attributes and
class operators, and removed again when the CLI returns; nothing under
``src/`` knows about them.  A span records its call count, its total time
(outermost calls only, so recursion is not counted twice) and its self time
(its duration minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _span_table(modules):
    """Span name -> list of (owner, attribute) to wrap.

    An owner is a module or a ring class.  A function is wrapped once and
    the wrapper replaces every reference to it (see ``Tracer.install``), so
    names bound by ``from .series import ...`` are traced too.
    """
    rings, series, partitions, sptcrank, verify, cli = modules
    table = {
        "rings.laurent_mul": [(rings.LaurentPolynomial, "__mul__")],
        # __sub__ of a Laurent polynomial is an __add__ of the negation, so
        # additions and subtractions both land in laurent_add.
        "rings.laurent_add": [(rings.LaurentPolynomial, "__add__")],
        "rings.cyclo_mul": [(rings.CyclotomicInteger, "__mul__")],
        "rings.cyclo_add": [(rings.CyclotomicInteger, "__add__"),
                            (rings.CyclotomicInteger, "__sub__")],
        "series.mul_lists": [(series, "mul_lists")],
        "series.invert_list": [(series, "invert_list")],
        "series.binomial_pass": [(series, "mul_binomial_list"),
                                 (series, "div_binomial_list")],
        "series.pochhammer": [(series, "pochhammer_inf"),
                              (series, "pochhammer_finite")],
        "sptcrank.sb_laurent": [(sptcrank, "sb_series")],
        "sptcrank.sb_cyclo": [(sptcrank, "sb_at_root")],
        "sptcrank.sptbar2": [(sptcrank, "sptbar2_series")],
        "sptcrank.rank_series": [(sptcrank, "rank_series")],
        "sptcrank.crank_series": [(sptcrank, "crank_series")],
        "partitions.m2_rank_distribution": [
            (partitions, "m2_rank_distribution")],
        "partitions.residual_crank_distribution": [
            (partitions, "residual_m2_crank_distribution")],
        "verify.eta_quotients": [
            (verify, name) for name in (
                "a2_formula", "rank_component", "crank_component",
                "gauss_psi", "jtp_psi_dissection", "bailey_beta")],
        "cli": [(cli, "main")],
    }
    for check in CHECKS:
        table[f"verify.{check}"] = [(verify, f"verify_{check}")]
    return table


CHECKS = ("bailey_limit", "bailey_pair", "congruences",
          "theorem1", "theorem2", "theorem3", "theorem4")

# Spans whose results are scanned for the largest coefficient and the
# longest Laurent polynomial: the series constructors, not the inner kernels,
# so the scan stays cheap.
_SCANNED_PREFIXES = ("sptcrank.", "verify.eta_quotients")


class Tracer:
    """Install spans on the spt_kernel layers, collect them, remove them."""

    def __init__(self):
        # name -> [calls, total_s, self_s, active depth]
        self.stats: dict[str, list] = {}
        self.overpartitions = 0
        self.max_coeff_bits = 0
        self.laurent_max_terms = 0
        self._stack: list[float] = []
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, scan):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        measure = self._measure

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stat[0] += 1
            stat[3] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stat[2] += d - stack.pop()
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += d
                if stack:
                    stack[-1] += d
            if scan:
                # The scan belongs to no layer: count it as a child of the
                # parent, so that it is in nobody's self time.
                s0 = clock()
                measure(result)
                if stack:
                    stack[-1] += clock() - s0
            return result

        return span

    def _wrap_leaf(self, name, fn):
        """Cheaper span for a binary ring operator, which calls no other
        span: self time equals total time and no stack frame is needed."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def leaf(a, b):
            t0 = clock()
            result = fn(a, b)
            d = clock() - t0
            stat[0] += 1
            stat[1] += d
            stat[2] += d
            if stack:
                stack[-1] += d
            return result

        return leaf

    def _count_overpartitions(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for op in fn(*args, **kwargs):
                self.overpartitions += 1
                yield op

        return counted

    def _measure(self, value):
        from spt_kernel.rings import CyclotomicInteger, LaurentPolynomial
        from spt_kernel.series import TruncatedSeries
        from spt_kernel.sptcrank import SptCrankTable

        if isinstance(value, SptCrankTable):
            items = value.rows
        elif isinstance(value, TruncatedSeries):
            items = value.coeffs
        else:
            return
        bits = self.max_coeff_bits
        terms = self.laurent_max_terms
        for c in items:
            if isinstance(c, int):
                bits = max(bits, c.bit_length())
            elif isinstance(c, LaurentPolynomial):
                if c.c:
                    terms = max(terms, len(c.c))
                    bits = max(bits, max(v.bit_length() for v in c.c.values()))
            elif isinstance(c, CyclotomicInteger):
                bits = max(bits, max(v.bit_length() for v in c.coeffs))
        self.max_coeff_bits = bits
        self.laurent_max_terms = terms

    # -- install / restore ---------------------------------------------------

    def install(self):
        """Wrap every span target; ``restore`` undoes it exactly."""
        from spt_kernel import cli, partitions, rings, series, sptcrank, verify

        owners = [m for n, m in sorted(sys.modules.items())
                  if n == "spt_kernel" or n.startswith("spt_kernel.")]
        owners += [rings.LaurentPolynomial, rings.CyclotomicInteger]
        table = _span_table((rings, series, partitions, sptcrank, verify, cli))
        for name, targets in table.items():
            scan = name.startswith(_SCANNED_PREFIXES)
            for owner, attr in targets:
                original = vars(owner)[attr]
                if name.startswith("rings."):
                    wrapper = self._wrap_leaf(name, original)
                else:
                    wrapper = self._wrap(name, original, scan)
                self._replace(owners, verify.CHECKS, original, wrapper)
        original = partitions.enumerate_overpartitions
        self._replace(owners, verify.CHECKS, original,
                      self._count_overpartitions(original))

    def _replace(self, owners, checks, original, wrapper):
        # Operator aliases (__radd__ = __add__), names bound by
        # ``from .x import y`` and the verify.CHECKS table all hold the same
        # function object; every one of them must see the wrapper.
        found = False
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
                    self._undo.append((setattr, owner, key, original))
                    found = True
        for key, value in list(checks.items()):
            if value is original:
                checks[key] = wrapper
                self._undo.append((dict.__setitem__, checks, key, original))
        if not found:
            raise RuntimeError(f"no reference to {original!r} to trace")

    def restore(self):
        while self._undo:
            op, owner, key, original = self._undo.pop()
            op(owner, key, original)

    def snapshot(self) -> dict:
        return {
            "spans": {name: s[:3] for name, s in sorted(self.stats.items())},
            "overpartitions": self.overpartitions,
            "max_coeff_bits": self.max_coeff_bits,
            "laurent_max_terms": self.laurent_max_terms,
        }


def main(argv) -> int:
    from spt_kernel import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()
    sys.stdout.flush()
    sys.stderr.write(json.dumps(tracer.snapshot()) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
