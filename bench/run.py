#!/usr/bin/env python3
"""Benchmark of the spt-kernel CLI, run the way users run it.

    python3 bench/run.py --workload table-laurent --seed 1 --seconds 30 --trace 0

Every operation starts the CLI as a cold process (``python3 -m
spt_kernel.cli ...``), one at a time, and checks its exit code and the
sha256 of its stdout against ``bench/expected.json``.  With ``--trace 0``
the last line of stdout holds the end-to-end metrics of untraced
operations; with ``--trace 1`` it holds the per-layer metrics of operations
run under ``bench/tracer.py``, which alternate with untraced ones so that
the tracing overhead can be reported.  The line before it is a report with
the environment, the sample counts, the raw (uncalibrated) medians and
every traced span.  ``--workload all`` runs every workload both ways.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import CHECKS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# The CLI arguments of each invocation.  An operation runs all invocations
# of its workload; the seed only permutes their order.
WORKLOADS: dict[str, list[tuple[str, ...]]] = {
    "verify-suite": [
        ("verify", "--order", "100", "--oracle-bound", "20", "--format", "json"),
    ],
    "table-laurent": [
        ("table", "--order", "300", "--t", "3", "--format", "csv"),
    ],
    "roots-cyclo": [
        ("verify", "--order", "300", "--only", "theorem1"),
        ("verify", "--order", "300", "--only", "theorem3"),
        ("verify", "--order", "300", "--only", "theorem4"),
    ],
    "export-rows": [
        ("export", "--what", "table", "--order", "200", "--format", "json"),
    ],
}

# Cold imports timed before each step of the loop, so that the setup_s
# samples are spread over the whole run like the operations are.
SETUP_PER_STEP = 3
# The CPU time a process gets on a shared host drifts by up to 2x within
# seconds, with other tenants' load.  Every time the benchmark reports is
# therefore calibrated: multiplied by REF_NOMINAL_S / r, where r is the mean
# time of reference_seconds() just before and just after the process.  The
# value is the time the operation takes when the reference kernel takes
# REF_NOMINAL_S; raw medians are in the report.  (Sampling the kernel in a
# thread while the process runs tracks the speed better on long processes,
# but on 2 cores the samples contend with the process they measure.)
REF_NOMINAL_S = 0.030
_REF_POLY = {e: (e * 7919) % 1009 - 504 for e in range(-40, 41)}
# Spans reported by calls and self time; their self times also add up to
# the layer's (the part of the name before the dot).
SELF_TIMED = (
    "rings.laurent_mul", "rings.laurent_add",
    "rings.cyclo_mul", "rings.cyclo_add",
    "series.mul_lists", "series.invert_list",
    "series.binomial_pass", "series.pochhammer",
)
# Spans reported by total time.
TOTAL_TIMED = (
    "sptcrank.sb_laurent", "sptcrank.sb_cyclo", "sptcrank.sptbar2",
    "sptcrank.rank_series", "sptcrank.crank_series",
    "partitions.m2_rank_distribution",
    "partitions.residual_crank_distribution",
    *(f"verify.{c}" for c in CHECKS), "verify.eta_quotients",
)


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


# -- running one process -------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SPT_KERNEL_OUT_DIR", None)
    # Installed code runs from its bytecode cache; let the first import
    # (in check_checkout) write it under src/, whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str]) -> dict:
    """Run one process to exit; time it from spawn to reaping.

    Returns wall and CPU seconds, peak RSS in KiB, exit code, stdout and
    stderr.  Both pipes are drained together, so neither can fill and stall
    the child.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=child_env())
    chunks = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    # Reaped here, for its rusage; tell Popen so that it does not wait.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kib": usage.ru_maxrss,
        "code": proc.returncode,
        "stdout": b"".join(chunks[proc.stdout]),
        "stderr": b"".join(chunks[proc.stderr]),
    }


def check_checkout() -> None:
    """Fail unless the spt_kernel sources of this checkout are importable."""
    cli = SRC / "spt_kernel" / "cli.py"
    if not cli.is_file():
        raise BenchError(f"{cli} not found; run from a checkout of the repo")
    run = spawn([sys.executable, "-c",
                 "import spt_kernel.cli, sys; "
                 "sys.stdout.write(spt_kernel.cli.__file__)"])
    if run["code"] != 0:
        raise BenchError("cannot import spt_kernel.cli:\n"
                         + run["stderr"].decode(errors="replace"))
    if Path(run["stdout"].decode()).resolve() != cli.resolve():
        raise BenchError(f"spt_kernel imported from {run['stdout']!r}, "
                         f"not from {cli}")


def reference_seconds() -> float:
    """Time of a fixed pure-Python kernel, the yardstick of machine speed.

    It convolves two 81-term integer polynomials held in dicts, 40 times:
    the same kind of work as the Laurent ring's multiply, but code of the
    benchmark's own, so no change to the program can move it.
    """
    poly = _REF_POLY
    t0 = time.perf_counter()
    for _ in range(40):
        out = {}
        for e1, v1 in poly.items():
            for e2, v2 in poly.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + v1 * v2
    return time.perf_counter() - t0


class Calibrator:
    """Runs the reference kernel between timed processes and turns each
    process's times into calibrated ones (see REF_NOMINAL_S)."""

    def __init__(self):
        self.refs = [reference_seconds()]

    def spawn(self, argv: list[str]) -> tuple[dict, float]:
        """``spawn(argv)`` and the factor for its times: REF_NOMINAL_S over
        the mean of the reference times before and after it."""
        run = spawn(argv)
        self.refs.append(reference_seconds())
        return run, 2 * REF_NOMINAL_S / (self.refs[-2] + self.refs[-1])


def measure_setup(repeats: int, cal: Calibrator) -> list[float]:
    """Calibrated wall times of a cold interpreter importing
    spt_kernel.cli."""
    argv = [sys.executable, "-c", "import spt_kernel.cli"]
    times = []
    for _ in range(repeats):
        run, scale = cal.spawn(argv)
        if run["code"] != 0:
            raise BenchError("import of spt_kernel.cli failed")
        times.append(run["wall"] * scale)
    return times


# -- operations ----------------------------------------------------------------

def invocation_key(args: tuple[str, ...]) -> str:
    return " ".join(args)


def run_operation(invocations, expected, traced: bool, cal: Calibrator) -> dict:
    """Run each invocation as a cold process and check it against
    ``expected`` (invocation key -> {"exit", "sha256"}).

    ``wall`` and ``cpu`` are calibrated sums over the processes, the
    ``_raw`` ones are not; trace times are calibrated too.
    """
    op = {"wall": 0.0, "cpu": 0.0, "wall_raw": 0.0, "cpu_raw": 0.0,
          "rss_kib": 0, "out_bytes": 0, "ok": True, "traced": traced,
          "traces": [], "errors": []}
    for args in invocations:
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), *args]
        else:
            argv = [sys.executable, "-m", "spt_kernel.cli", *args]
        run, scale = cal.spawn(argv)
        op["wall"] += run["wall"] * scale
        op["cpu"] += run["cpu"] * scale
        op["wall_raw"] += run["wall"]
        op["cpu_raw"] += run["cpu"]
        op["rss_kib"] = max(op["rss_kib"], run["rss_kib"])
        op["out_bytes"] += len(run["stdout"])
        want = expected.get(invocation_key(args))
        digest = hashlib.sha256(run["stdout"]).hexdigest()
        if want is None or run["code"] != want["exit"] or digest != want["sha256"]:
            op["ok"] = False
            op["errors"].append({"args": invocation_key(args),
                                 "exit": run["code"], "sha256": digest,
                                 "stderr": run["stderr"].decode(errors="replace")[-400:]})
        elif traced:
            trace = json.loads(run["stderr"].decode().splitlines()[-1])
            for stat in trace["spans"].values():
                stat[1] *= scale
                stat[2] *= scale
            op["traces"].append(trace)
    return op


def run_loop(invocations, expected, seconds: float, rng, traced: bool):
    """Closed loop of single operations for about ``seconds``; returns the
    operations, the calibrated setup times and the calibrator.

    Untraced, each step times SETUP_PER_STEP cold imports and then runs one
    operation; traced, a step is an untraced then a traced operation.  No
    step starts that the previous one says would end past the deadline, but
    at least one step runs.
    """
    ops, setup_times = [], []
    start = time.perf_counter()
    cal = Calibrator()
    while True:
        step_start = time.perf_counter()
        if not traced:
            setup_times += measure_setup(SETUP_PER_STEP, cal)
        order = rng.sample(invocations, len(invocations))
        for mode in ((False, True) if traced else (False,)):
            ops.append(run_operation(order, expected, mode, cal))
        now = time.perf_counter()
        if now + (now - step_start) - start > seconds:
            return ops, setup_times, cal


# -- metrics -------------------------------------------------------------------

def load_expected() -> dict:
    with open(BENCH_DIR / "expected.json") as fh:
        return json.load(fh)


def load_metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def median_of(ops, value):
    """Median of ``value(op)`` over the successful operations, or over all
    of them when none succeeded (the run is then reported as incorrect)."""
    ok = [op for op in ops if op["ok"]] or ops
    return statistics.median(value(op) for op in ok)


def end_to_end(ops, setup_times) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": median_of(ops, lambda op: op["wall"]),
        "cpu_s": median_of(ops, lambda op: op["cpu"]),
        "peak_rss_mib": median_of(ops, lambda op: op["rss_kib"] / 1024),
    }


def raw_medians(ops, cal) -> dict:
    return {"wall_s": median_of(ops, lambda op: op["wall_raw"]),
            "cpu_s": median_of(ops, lambda op: op["cpu_raw"]),
            "reference_s": statistics.median(cal.refs)}


def merge_traces(traces) -> dict:
    """Sum the spans of an operation's invocations into one trace."""
    merged = {"spans": {}, "overpartitions": 0,
              "max_coeff_bits": 0, "laurent_max_terms": 0}
    for tr in traces:
        for name, (calls, total, self_s) in tr["spans"].items():
            acc = merged["spans"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        merged["overpartitions"] += tr["overpartitions"]
        merged["max_coeff_bits"] = max(merged["max_coeff_bits"],
                                       tr["max_coeff_bits"])
        merged["laurent_max_terms"] = max(merged["laurent_max_terms"],
                                          tr["laurent_max_terms"])
    return merged


def layer_metrics(trace, out_bytes) -> dict:
    """Every per-layer metric of one traced operation."""
    spans = trace["spans"]

    def span(name):
        return spans.get(name, [0, 0.0, 0.0])

    m = {}
    for name in SELF_TIMED:
        layer = name.split(".")[0]
        calls, _, self_s = span(name)
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
        m[f"{layer}.self_s"] = m.get(f"{layer}.self_s", 0.0) + self_s
    m["sptcrank.self_s"] = sum((s[2] for n, s in spans.items()
                                if n.startswith("sptcrank.")), 0.0)
    for name in TOTAL_TIMED:
        m[f"{name}.s"] = span(name)[1]
    m["rings.max_coeff_bits"] = trace["max_coeff_bits"]
    m["rings.laurent_max_terms"] = trace["laurent_max_terms"]
    m["partitions.overpartitions.count"] = trace["overpartitions"]
    m["cli.total_s"] = span("cli")[1]
    m["cli.render_s"] = span("cli")[2]
    m["cli.out_bytes"] = out_bytes
    return m


def per_layer(ops) -> tuple[dict, dict]:
    """Median per-layer metrics over the traced operations, plus the
    tracing overhead; also the counts that differed between operations."""
    traced = [op for op in ops if op["traced"] and op["ok"]]
    untraced = [op for op in ops if not op["traced"] and op["ok"]]
    if not traced or not untraced:
        raise BenchError("no traced and untraced operation succeeded")
    rows = [layer_metrics(merge_traces(op["traces"]), op["out_bytes"])
            for op in traced]
    metrics, unstable = {}, {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        if isinstance(values[0], int):
            metrics[key] = values[0]
            if len(set(values)) > 1:
                unstable[key] = values
        else:
            metrics[key] = statistics.median(values)
    metrics["trace.overhead_s"] = (
        statistics.median(op["wall"] for op in traced)
        - statistics.median(op["wall"] for op in untraced))
    return metrics, unstable


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "cli.out_bytes":
        return "B"
    if name == "rings.max_coeff_bits":
        return "bit"
    return "count"


def environment(seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "seed": seed,
    }


# -- command line --------------------------------------------------------------

def bench(workload: str, seed: int, seconds: float, trace: bool,
          expected: dict, specs: dict) -> tuple[dict, dict]:
    """One benchmark run: (report, result line)."""
    check_checkout()
    rng = random.Random(seed)
    ops, setup_times, cal = run_loop(WORKLOADS[workload], expected, seconds,
                                     rng, trace)
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    ok = attempted - failed
    report = {
        "workload": workload, "trace": int(trace), "seconds": seconds,
        "env": environment(seed),
        "operations": {"attempted": attempted, "failed": failed,
                       "fail_ratio": failed / attempted},
        "errors": [e for op in ops for e in op["errors"]][:5],
    }
    if trace:
        values, unstable = per_layer(ops)
        names = specs["per_layer"]
        report["layers"] = {k: {"value": v, "unit": unit_of(k)}
                            for k, v in values.items()}
        report["unstable_counts"] = unstable
        report["samples"] = {
            "traced_ops": sum(1 for op in ops if op["traced"] and op["ok"]),
            "untraced_ops": sum(1 for op in ops if not op["traced"] and op["ok"]),
        }
    else:
        values = end_to_end(ops, setup_times)
        names = specs["end_to_end"]
        report["raw"] = raw_medians(ops, cal)
        report["samples"] = {"setup_s": len(setup_times), "wall_s": ok,
                             "cpu_s": ok, "peak_rss_mib": ok}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names.items()},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        expected = load_expected()
        specs = load_metric_specs()
        if args.workload != "all":
            report, result = bench(args.workload, args.seed, args.seconds,
                                   bool(args.trace), expected, specs)
            print(json.dumps({"report": report}, sort_keys=True))
            print(json.dumps(result), flush=True)
            return 0
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (False, True):
                report, result = bench(workload, args.seed, args.seconds,
                                       trace, expected, specs)
                print(json.dumps({"report": report}, sort_keys=True))
                print(json.dumps(result), flush=True)
                summary["correct"] &= result["correct"]
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
                for name, metric in result["metrics"].items():
                    summary["metrics"][f"{workload}.{name}"] = metric
        print(json.dumps(summary), flush=True)
        return 0
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
