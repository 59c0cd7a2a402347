"""Batch command-line front end.

    spt-kernel table  [--order N] [--t T] [--format ...] [--out PATH]
    spt-kernel verify [--order N] [--oracle-bound B] [--only CHECK] ...
    spt-kernel export --what TARGET [--order N] [--format ...] [--out PATH]

An option takes its value as ``--opt value`` or ``--opt=value``, may be
shortened to any unique prefix of its name, and when repeated the last
occurrence wins; ``-h``/``--help`` prints the usage, before or after the
command.  The options of each command are one table, ``_COMMANDS``, which
the parser and the help text both read.

Exit codes: 0 success, 1 verification failure or output that could not be
written (a reader that closed the pipe, silently; any other write error
with one line ``spt-kernel: cannot write output: <error>`` on stderr),
2 usage error.
All emitted numbers are exact decimal strings; there are no floats.

A process, ``python -m spt_kernel.cli`` or the ``spt-kernel`` script,
enters through ``run``, which ends it at its last byte: the atexit
handlers run, stdout and stderr are flushed, and the interpreter's
teardown (its final GC passes and module teardown) is skipped.  ``main``
returns its code and never ends the interpreter; usage errors and
``--help`` exit the ordinary way.
"""

from __future__ import annotations

import os
import sys
from itertools import chain, compress, count
from types import SimpleNamespace

from . import verify as verify_mod
from .sptcrank import sb_residues, sb_rows, sptbar2_series
from .verify import (
    a2_formula,
    crank_component,
    json_string,
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


# The options of each command, one entry each: (name, destination, type,
# default, help).  The type is int, str or the tuple of accepted values; the
# default _REQUIRED makes the option required.  ``_parse`` and the --help
# text both read this table.
_REQUIRED = ...
_COMMON = (
    ("--order", "order", int, 100, "truncation order N (default 100)"),
    ("--format", "format", ("json", "csv", "text"), "text",
     "output format (default text)"),
    ("--out", "out", str, None,
     "output path (default stdout; relative paths resolve under "
     "$SPT_KERNEL_OUT_DIR if set)"),
)
_COMMANDS = {
    "table": ("spt2bar values and residue-class rows", _COMMON + (
        ("--t", "t", int, 3, "residue-class modulus (default 3)"),
    )),
    "verify": ("run the identity/congruence checks", _COMMON + (
        ("--oracle-bound", "oracle_bound", int, verify_mod.ORACLE_BOUND,
         f"enumeration cross-check bound (default {verify_mod.ORACLE_BOUND}"
         f", max {verify_mod.MAX_ORACLE_BOUND})"),
        ("--only", "only", str, None, "run a single named check"),
    )),
    "export": ("dump dissection components or the table", _COMMON + (
        ("--what", "what", ("spt2", "table", *sorted(_EXPORT_TARGETS)),
         _REQUIRED, "the series to dump"),
    )),
}
_DESCRIPTION = ("Exact q-series tables and identity verification for the "
                "overpartition spt2 crank.")


def _invocation(name: str, dest: str, kind) -> str:
    """How --help and the usage line show an option and its value."""
    if isinstance(kind, tuple):
        return f"{name} {{{','.join(kind)}}}"
    return f"{name} {dest.upper()}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: spt-kernel [-h] {{{','.join(_COMMANDS)}}} ..."
    words = [f"usage: spt-kernel {command} [-h]"]
    for name, dest, kind, default, _ in _COMMANDS[command][1]:
        shown = _invocation(name, dest, kind)
        words.append(shown if default is _REQUIRED else f"[{shown}]")
    return " ".join(words)


def _usage_error(command: str | None, message: str):
    """Exit 2 with the usage line and the message on stderr."""
    sys.stderr.write(f"{_usage(command)}\nspt-kernel: error: {message}\n")
    raise SystemExit(2)


def _help_line(invocation: str, text: str) -> str:
    if len(invocation) > 20:
        return f"  {invocation}\n{' ' * 24}{text}"
    return f"  {invocation:<20}  {text}"


def _print_help(command: str | None):
    """Print the usage and every command, or every option of command, and
    exit 0."""
    if command is None:
        about = [_DESCRIPTION, "", "commands:"] + [
            _help_line(name, text) for name, (text, _) in _COMMANDS.items()]
        options = []
    else:
        about = [_COMMANDS[command][0]]
        options = [_help_line(_invocation(name, dest, kind), text)
                   for name, dest, kind, _, text in _COMMANDS[command][1]]
    sys.stdout.write("\n".join([
        _usage(command), "", *about, "", "options:",
        _help_line("-h, --help", "show this help message and exit"),
        *options]) + "\n")
    raise SystemExit(0)


def _option(command: str | None, word: str, names) -> str:
    """The option name that word (without any "=value") stands for: an
    exact name, -h, or a unique prefix of a name, as argparse allows."""
    if word == "-h" or word in names:
        return "--help" if word == "-h" else word
    found = ([name for name in names if name.startswith(word)]
             if word.startswith("--") and word != "--" else [])
    if not found:
        _usage_error(command, f"unrecognized arguments: {word}")
    if len(found) > 1:
        _usage_error(command, f"ambiguous option: {word} could match "
                              f"{', '.join(found)}")
    return found[0]


def _is_value(word: str) -> bool:
    """Whether word, after an option that takes a value, is that value.
    As in argparse, a word that starts with "-" is the next option unless
    it is "-" alone, holds a space or reads as a negative number."""
    if not word.startswith("-") or word == "-" or " " in word:
        return True
    whole, dot, frac = word[1:].partition(".")
    if not dot:
        return whole.isdecimal()
    return frac.isdecimal() and (not whole or whole.isdecimal())


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command and its option values, or exit 2 with a usage error
    (0 after --help)."""
    if not argv:
        _usage_error(None, "the following arguments are required: command")
    command, *words = argv
    if command.startswith("-"):
        _option(None, command, ("--help",))
        _print_help(None)
    if command not in _COMMANDS:
        choices = ", ".join(repr(name) for name in _COMMANDS)
        _usage_error(None, f"argument command: invalid choice: {command!r} "
                           f"(choose from {choices})")
    options = {name: (dest, kind)
               for name, dest, kind, _, _ in _COMMANDS[command][1]}
    values = {dest: default
              for _, dest, _, default, _ in _COMMANDS[command][1]}
    words = iter(words)
    for word in words:
        word, inline, value = word.partition("=")
        if not word.startswith("--") and word != "-h":
            _usage_error(command, f"unrecognized arguments: {word}{inline}"
                                  f"{value}")
        name = _option(command, word, (*options, "--help"))
        if name == "--help":
            if inline:
                _usage_error(command, f"argument -h/--help: ignored explicit "
                                      f"argument {value!r}")
            _print_help(command)
        if not inline:
            value = next(words, None)
            if value is None or not _is_value(value):
                _usage_error(command, f"argument {name}: expected one "
                                      f"argument")
        dest, kind = options[name]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(command, f"argument {name}: invalid int value: "
                                      f"{value!r}")
        elif kind is not str and value not in kind:
            choices = ", ".join(repr(choice) for choice in kind)
            _usage_error(command, f"argument {name}: invalid choice: "
                                  f"{value!r} (choose from {choices})")
        values[dest] = value
    missing = [name for name, dest, _, default, _ in _COMMANDS[command][1]
               if values[dest] is _REQUIRED]
    if missing:
        _usage_error(command, f"the following arguments are required: "
                              f"{', '.join(missing)}")
    return SimpleNamespace(command=command, **values)


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
# int (the component target is quoted by ``json_string``), so these
# f-strings and templates print exactly what json.dumps does for the same
# dict (same key order, ", " and ": " separators, nothing to escape), at a
# fraction of its cost per record, and no CLI path loads json.
#
# The records of a row of ``export --what table``, one bytes template per
# format: n is filled in first, then one (m, count) pair per record.
_ROW_RECORDS = {
    "json": b'{"n": %d, "m": %%d, "coefficient": "%%d"}\n',
    "csv": b"%d,%%d,%%d\n",
    "text": b"N_SB(m=%%d, n=%d) = %%d\n",
}


def _row_records(template: bytes, n: int, digits, o: int) -> bytes:
    """The records of row n, one per nonzero digits[k], the count at
    m = k - o, in (n, m) order: one ``%`` of the template, repeated once
    a record, over the (m, count) pairs, with no Python step a record."""
    pairs = tuple(chain.from_iterable(
        compress(zip(count(-o), digits), digits)))
    return (template % n) * (len(pairs) // 2) % pairs


def _spt2_json(n: int, v: int) -> str:
    return f'{{"n": {n}, "spt2": "{v}"}}'


def _table_json(n: int, v: int, t: int, classes) -> str:
    """Keys in sort_keys order."""
    quoted = ", ".join(f'"{c}"' for c in classes)
    return f'{{"classes": [{quoted}], "n": {n}, "spt2": "{v}", "t": {t}}}'


def _component_json(target: str, order: int, coeffs) -> str:
    """Keys in insertion order, as json.dumps writes the dict."""
    quoted = ", ".join(f'"{c}"' for c in coeffs)
    return (f'{{"target": {json_string(target)}, "order": {order}, '
            f'"coefficients": [{quoted}]}}')


def _encoded(lines):
    """Each line as bytes, newline included."""
    return (f"{line}\n".encode() for line in lines)


# Bytes per write: a block is written once it holds this many (the last
# may hold fewer), so a write call, a system call when stdout is
# unbuffered, is made per block, not per line, and the output is never
# held whole.  Half a Linux pipe's 64 KiB: a reader that keeps what it
# reads, as bench/run.py does, ended a few hundred export-rows runs with
# a heap 0.9 MiB larger when the blocks were 40 KiB or more.
_BLOCK = 1 << 15


def _write_all(fh, data: bytes):
    """Write every byte of data: a raw stream, as stdout's binary layer is
    under PYTHONUNBUFFERED, may take fewer bytes a call than it is given."""
    view = memoryview(data)
    while view:
        view = view[fh.write(view):]


def _emit(chunks, out_path) -> int:
    """Write chunks, any iterable of ASCII bytes that each end on a line
    end, to stdout's binary layer or to the --out file opened binary,
    joined into blocks of ``_BLOCK`` bytes or a little more: a block ends
    where a chunk ends, so no line is split between writes, and a
    generator is consumed block by block."""
    if out_path is None:
        fh = sys.stdout
    else:
        fh = _open_out(out_path, "wb")
        if fh is None:
            return 1
    try:
        if out_path is None:
            fh.flush()  # what the text layer holds goes first
            fh = fh.buffer
        block, size = [], 0
        for chunk in chunks:
            block.append(chunk)
            size += len(chunk)
            if size >= _BLOCK:
                _write_all(fh, b"".join(block))
                block, size = [], 0
        _write_all(fh, b"".join(block))
        fh.flush()
    except OSError as exc:
        # A reader that closed the pipe is gone and told nothing; any other
        # error (a full disk) is one line.  Point the descriptor at
        # /dev/null, so that neither close() nor a final flush, ``run``'s
        # or the interpreter's, raises again and turns the exit code into
        # 120.
        if not isinstance(exc, BrokenPipeError):
            print(f"spt-kernel: cannot write output: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fh.fileno())
        os.close(devnull)
        return 1
    finally:
        if out_path is not None:
            fh.close()
    return 0


def cmd_table(args) -> int:
    """Rows n = 1..order: spt2bar(n) and the residue-class sums mod t of
    row n of SB, read off SB*D's walk in Z[w], the walk ``export`` reads
    (``sb_residues``).  SB(1, q) is the spt2bar series, so spt2 is the
    z = 1 total of the classes, refused with them if negative; the
    ``congruences`` check and CI compare it with the separate
    ``sptbar2_series`` walk.  The lines are made as ``_emit`` writes
    them, as ``export`` makes its own."""
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
    return _emit(_encoded(lines), args.out)


def cmd_verify(args) -> int:
    reports = run_all(args.order, oracle_bound=args.oracle_bound,
                      only=args.only)
    if args.format == "text":
        lines = [f"{r.check:<14s} order={r.order:<5d} {r.status}"
                 + (f"  first_failure={r.first_failure}" if r.first_failure else "")
                 for r in reports]
    else:
        lines = [r.to_json() for r in reports]
    rc = _emit(_encoded(lines), args.out)
    if rc:
        return rc
    return 0 if all(r.passed for r in reports) else 1


def cmd_export(args) -> int:
    if args.what == "table":
        # the records of each row as soon as ``sb_rows`` has it: one line
        # per nonzero count, in (n, m) order, one bytes chunk a row
        template = _ROW_RECORDS[args.format]
        chunks = (_row_records(template, n, digits, o)
                  for n, (digits, o) in enumerate(sb_rows(args.order)))
        if args.format == "csv":
            chunks = chain([b"n,m,coefficient\n"], chunks)
        return _emit(chunks, args.out)
    if args.what == "spt2":
        s2 = sptbar2_series(args.order)
        pairs = [(n, s2.coefficient(n)) for n in range(1, args.order + 1)]
        if args.format == "json":
            lines = [_spt2_json(n, v) for n, v in pairs]
        elif args.format == "csv":
            lines = ["n,spt2"] + [f"{n},{v}" for n, v in pairs]
        else:
            lines = [f"spt2({n}) = {v}" for n, v in pairs]
        return _emit(_encoded(lines), args.out)
    series = _EXPORT_TARGETS[args.what](args.order)
    coeffs = [(n, series.coefficient(n)) for n in range(series.order + 1)]
    if args.format == "json":
        lines = [_component_json(args.what, series.order,
                                 (c for _, c in coeffs))]
    elif args.format == "csv":
        lines = ["n,coefficient"] + [f"{n},{c}" for n, c in coeffs]
    else:
        lines = [f"[q^{n}] {args.what} = {c}" for n, c in coeffs]
    return _emit(_encoded(lines), args.out)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    command = args.command
    if args.order < 1:
        _usage_error(command, "--order must be >= 1")
    # a coefficient list holds order + 1 references of 8 bytes, and no
    # object may exceed sys.maxsize bytes
    if args.order > sys.maxsize // 8:
        _usage_error(command, f"--order must be at most {sys.maxsize // 8}")
    if command == "verify":
        if not 0 <= args.oracle_bound <= verify_mod.MAX_ORACLE_BOUND:
            _usage_error(command, f"--oracle-bound must be between 0 and "
                                  f"{verify_mod.MAX_ORACLE_BOUND}")
        if args.only is not None and args.only not in verify_mod.CHECKS:
            _usage_error(command, f"unknown check {args.only!r}; choose "
                                  f"from {sorted(verify_mod.CHECKS)}")
        try:
            verify_mod.selected_checks(args.order, args.only)
        except ValueError as exc:
            print(f"spt-kernel: {exc}", file=sys.stderr)
            return 2
    # Row n of SB has z-exponents in [-n/2, n/2] (see sb_rows), so a
    # modulus above N+1 only pads every row with zero classes; up to 2N+1
    # is accepted.
    if command == "table" and not 1 <= args.t <= 2 * args.order + 1:
        _usage_error(command, "--t must be between 1 and 2*order+1")
    # an unwritable --out fails before any work
    if args.out is not None and not _probe_out(args.out):
        return 1
    handler = {"table": cmd_table, "verify": cmd_verify, "export": cmd_export}
    return handler[command](args)


def _exit_now(code: int):
    """End the process with code once the interpreter reaches its atexit
    step: unregister this handler, run every other registered handler once,
    flush stdout and stderr, and ``os._exit(code)``, which skips the final
    GC passes and module teardown that would follow.  If a flush raises,
    or a stream is gone, return, and the process ends the ordinary way."""
    import atexit

    atexit.unregister(_exit_now)
    atexit._run_exitfuncs()
    if sys.stdout is None or sys.stderr is None:
        # set so by a runner whose reader went away (cProfile after a
        # closed pipe), which then exits with a code of its own
        return
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        return
    os._exit(code)


def run() -> int:
    """The process entry point of ``python -m spt_kernel.cli`` and the
    ``spt-kernel`` script: ``main``'s code, with ``_exit_now(code)``
    registered to end the process at the atexit step.  The exit goes
    through atexit, not ``os._exit`` here, so a tool that runs this module
    and reports after it returns (``python -m cProfile -m``, ``coverage
    run -m``) still reports, and handlers registered before it still run.
    A usage error, ``--help`` or an unexpected exception leaves ``main``
    by raising, registers nothing and exits the ordinary way."""
    code = main()
    import atexit

    atexit.register(_exit_now, code)
    return code


if __name__ == "__main__":
    raise SystemExit(run())
