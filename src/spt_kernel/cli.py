"""Batch command-line front end.

    spt-kernel table  [--order N] [--t T] [--format ...] [--out PATH]
    spt-kernel verify [--order N] [--oracle-bound B] [--only CHECK] ...
    spt-kernel export --what TARGET [--order N] [--format ...] [--out PATH]

Exit codes: 0 success, 1 verification failure or output that could not be
written (including a reader that closed the pipe), 2 usage error.
All emitted numbers are exact decimal strings; there are no floats.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice

from . import verify as verify_mod
from .sptcrank import sb_residues, sb_rows, sptbar2_series
from .verify import (
    a2_formula,
    crank_component,
    rank_component,
    run_all,
)

_EXPORT_TARGETS = {
    "A2": lambda n: a2_formula(n),
    "N2rank0": lambda n: rank_component(0, n),
    "N2rank1": lambda n: rank_component(1, n),
    "N2rank2": lambda n: rank_component(2, n),
    "M2crank0": lambda n: crank_component(0, n),
    "M2crank1": lambda n: crank_component(1, n),
    "M2crank2": lambda n: crank_component(2, n),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spt-kernel",
        description="Exact q-series tables and identity verification for the "
                    "overpartition spt2 crank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--order", type=int, default=100,
                       help="truncation order N (default 100)")
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text")
        p.add_argument("--out", default=None,
                       help="output path (default stdout; relative paths "
                            "resolve under $SPT_KERNEL_OUT_DIR if set)")

    p_table = sub.add_parser("table", help="spt2bar values and residue-class rows")
    common(p_table)
    p_table.add_argument("--t", type=int, default=3,
                         help="residue-class modulus (default 3)")

    p_verify = sub.add_parser("verify", help="run the identity/congruence checks")
    common(p_verify)
    p_verify.add_argument("--oracle-bound", type=int,
                          default=verify_mod.ORACLE_BOUND,
                          help=f"enumeration cross-check bound (default "
                               f"{verify_mod.ORACLE_BOUND}, max "
                               f"{verify_mod.MAX_ORACLE_BOUND})")
    p_verify.add_argument("--only", default=None,
                          help="run a single named check")

    p_export = sub.add_parser("export", help="dump dissection components or the table")
    common(p_export)
    p_export.add_argument("--what", required=True,
                          choices=("spt2", "table", *sorted(_EXPORT_TARGETS)))
    return parser


def _out_path(path: str) -> str:
    if not os.path.isabs(path):
        path = os.path.join(os.environ.get("SPT_KERNEL_OUT_DIR", ""), path)
    return path


def _open_out(path: str, mode: str):
    try:
        return open(_out_path(path), mode)
    except OSError as exc:
        print(f"spt-kernel: cannot open output: {exc}", file=sys.stderr)
        return None


def _probe_out(path: str) -> bool:
    """Whether path opens for writing.  Mode "a" truncates no existing
    file, and a file the probe created is removed again."""
    full = _out_path(path)
    existed = os.path.lexists(full)
    fh = _open_out(path, "a")
    if fh is None:
        return False
    fh.close()
    if not existed:
        os.remove(full)
    return True


# One record per line.  Every field is an int or the decimal string of an
# int, so these f-strings print exactly what json.dumps does for the same
# dict (same key order, ", " and ": " separators, nothing to escape), at a
# fraction of its cost per record.
def _row_json(n: int, digits, o: int) -> list[str]:
    """The records of row n, one per nonzero digits[k], the count at
    m = k - o."""
    return [f'{{"n": {n}, "m": {k - o}, "coefficient": "{c}"}}'
            for k, c in enumerate(digits) if c]


def _spt2_json(n: int, v: int) -> str:
    return f'{{"n": {n}, "spt2": "{v}"}}'


def _table_json(n: int, v: int, t: int, classes) -> str:
    """Keys in sort_keys order."""
    quoted = ", ".join(f'"{c}"' for c in classes)
    return f'{{"classes": [{quoted}], "n": {n}, "spt2": "{v}", "t": {t}}}'


# Lines per write: one write call per block, not per line (a write call is
# a system call when stdout is unbuffered), and no copy of the whole output.
_BLOCK = 1024


def _emit(lines, out_path, block_lines: int = _BLOCK) -> int:
    """Write lines, any iterable of strings, in blocks of block_lines; a
    generator is consumed block by block, so the output is never held."""
    fh = sys.stdout if out_path is None else _open_out(out_path, "w")
    if fh is None:
        return 1
    lines = iter(lines)
    try:
        for block in iter(lambda: list(islice(lines, block_lines)), []):
            fh.write("\n".join(block) + "\n")
        fh.flush()
    except BrokenPipeError:
        # The reader is gone.  Point the descriptor at /dev/null, so that
        # neither close() nor the interpreter's final flush raises again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fh.fileno())
        os.close(devnull)
        return 1
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def cmd_table(args) -> int:
    """Rows n = 1..order: spt2bar(n) and the residue-class sums mod t of
    row n of SB.  SB(1, q) is the spt2bar series, so spt2 is the z = 1
    total of the classes, read off the one walk, and refused with them if
    negative (``sb_residues``); the ``congruences`` check and CI compare
    it with the separate ``sptbar2_series`` walk.  The lines are made as
    ``_emit`` writes them, as ``export`` makes its own, in blocks of about
    ``_BLOCK`` classes: a line holds t of them."""
    residues = sb_residues(args.order, args.t)
    rows = ((n, sum(residues[n]), residues[n])
            for n in range(1, args.order + 1))
    if args.format == "json":
        lines = (_table_json(n, v, args.t, classes) for n, v, classes in rows)
    elif args.format == "csv":
        lines = chain(
            ["n,spt2," + ",".join(f"class{k}" for k in range(args.t))],
            (f"{n},{v}," + ",".join(str(c) for c in classes)
             for n, v, classes in rows))
    else:
        lines = (f"n={n:<4d} spt2={v:<12d} classes(mod {args.t})={classes}"
                 for n, v, classes in rows)
    return _emit(lines, args.out, max(1, _BLOCK // args.t))


def cmd_verify(args) -> int:
    reports = run_all(args.order, oracle_bound=args.oracle_bound,
                      only=args.only)
    if args.format == "text":
        lines = [f"{r.check:<14s} order={r.order:<5d} {r.status}"
                 + (f"  first_failure={r.first_failure}" if r.first_failure else "")
                 for r in reports]
    else:
        lines = [r.to_json() for r in reports]
    rc = _emit(lines, args.out)
    if rc:
        return rc
    return 0 if all(r.passed for r in reports) else 1


def cmd_export(args) -> int:
    if args.what == "table":
        # the lines of each row as soon as ``sb_rows`` has it: one line per
        # nonzero count, in (n, m) order
        rows = enumerate(sb_rows(args.order))
        if args.format == "json":
            lines = chain.from_iterable(
                _row_json(n, digits, o) for n, (digits, o) in rows)
        elif args.format == "csv":
            lines = chain(["n,m,coefficient"], chain.from_iterable(
                [f"{n},{k - o},{c}" for k, c in enumerate(digits) if c]
                for n, (digits, o) in rows))
        else:
            lines = chain.from_iterable(
                [f"N_SB(m={k - o}, n={n}) = {c}"
                 for k, c in enumerate(digits) if c]
                for n, (digits, o) in rows)
        return _emit(lines, args.out)
    if args.what == "spt2":
        s2 = sptbar2_series(args.order)
        pairs = [(n, s2.coefficient(n)) for n in range(1, args.order + 1)]
        if args.format == "json":
            lines = [_spt2_json(n, v) for n, v in pairs]
        elif args.format == "csv":
            lines = ["n,spt2"] + [f"{n},{v}" for n, v in pairs]
        else:
            lines = [f"spt2({n}) = {v}" for n, v in pairs]
        return _emit(lines, args.out)
    series = _EXPORT_TARGETS[args.what](args.order)
    coeffs = [(n, series.coefficient(n)) for n in range(series.order + 1)]
    if args.format == "json":
        import json  # imported here: the text outputs never load it
        lines = [json.dumps({
            "target": args.what, "order": series.order,
            "coefficients": [str(c) for _, c in coeffs],
        })]
    elif args.format == "csv":
        lines = ["n,coefficient"] + [f"{n},{c}" for n, c in coeffs]
    else:
        lines = [f"[q^{n}] {args.what} = {c}" for n, c in coeffs]
    return _emit(lines, args.out)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.order < 1:
        parser.error("--order must be >= 1")
    # a coefficient list holds order + 1 references of 8 bytes, and no
    # object may exceed sys.maxsize bytes
    if args.order > sys.maxsize // 8:
        parser.error(f"--order must be at most {sys.maxsize // 8}")
    if args.command == "verify":
        if not 0 <= args.oracle_bound <= verify_mod.MAX_ORACLE_BOUND:
            parser.error(f"--oracle-bound must be between 0 and "
                         f"{verify_mod.MAX_ORACLE_BOUND}")
        if args.only is not None and args.only not in verify_mod.CHECKS:
            parser.error(f"unknown check {args.only!r}; choose from "
                         f"{sorted(verify_mod.CHECKS)}")
        try:
            verify_mod.selected_checks(args.order, args.only)
        except ValueError as exc:
            print(f"spt-kernel: {exc}", file=sys.stderr)
            return 2
    # Row n of SB has z-exponents in [-n/2, n/2] (see sb_rows), so a
    # modulus above N+1 only pads every row with zero classes; up to 2N+1
    # is accepted.
    if args.command == "table" and not 1 <= args.t <= 2 * args.order + 1:
        parser.error("--t must be between 1 and 2*order+1")
    # an unwritable --out fails before any work
    if args.out is not None and not _probe_out(args.out):
        return 1
    handler = {"table": cmd_table, "verify": cmd_verify, "export": cmd_export}
    return handler[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
