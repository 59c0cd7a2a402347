"""The package's public names, and the benchmark tracer's pins on them.

``bench/tracer.py`` wraps functions and operators of every layer by name
and refuses to start when one of them is gone.  The test below installs
and restores its ``Tracer`` in process around one CLI run, as the CI
"Benchmark tracer" step runs it as a script, so a rename or a deletion
that breaks a pin fails here too.  The tracer is read with ``runpy``,
which leaves ``bench/`` as it is.
"""

import runpy
from pathlib import Path

import spt_kernel
from spt_kernel import cli, partitions, rings, series, sptcrank, verify

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_public_name_resolves():
    assert len(set(spt_kernel.__all__)) == len(spt_kernel.__all__)
    for name in spt_kernel.__all__:
        assert getattr(spt_kernel, name, None) is not None, name


def refs():
    """Every module attribute and ring operator the tracer may replace."""
    owners = [spt_kernel, cli, partitions, rings, series, sptcrank, verify,
              rings.LaurentPolynomial, rings.CyclotomicInteger]
    return [dict(vars(owner)) for owner in owners] + [dict(verify.CHECKS)]


def test_tracer_installs_and_restores(capsys):
    argv = ["verify", "--order", "30", "--oracle-bound", "6"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    tracer = runpy.run_path(str(TRACER), run_name="tracer")["Tracer"]()
    before = refs()
    tracer.install()
    try:
        assert refs() != before
        assert cli.main(argv) == 0
    finally:
        tracer.restore()
    assert refs() == before
    assert capsys.readouterr().out == plain
    spans = tracer.snapshot()["spans"]
    assert spans["cli"][0] == 1
    assert all(spans[f"verify.{check}"][0] == 1 for check in verify.CHECKS)
