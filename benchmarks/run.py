#!/usr/bin/env python3
"""The sharplp benchmark: one workload and one seed per run.

    python3 benchmarks/run.py --workload double --seed 0 --seconds 55 --trace 0

Run from a source checkout; the program is imported from its ``src``
directory.  Each run is a closed loop with one caller and one thread: every
CLI invocation starts after the previous one ends, and BLAS is pinned to one
thread.  Workloads are defined in ``workloads.py``; outputs are checked by
``check.py`` against invariants and against the references frozen in
``reference/``.

A run keeps to ``--seconds`` from its start, fresh processes included: a
pass is started only while the previous one would still end in time, except
that a run makes at least MIN_PASSES passes.

With ``--trace 0`` the run measures the metrics below.  Times are scaled
to the host's full speed by the gauge of ``gauge.py``, because on a shared
host the raw times of the same code drift by up to 2x over minutes; the raw
times are printed with the run's facts.

* ``peak_rss_mb``: the peak resident memory of a fresh process running one
  pass, started before anything else;
* ``setup_s``: the median scaled time of SETUP_RUNS fresh interpreters that
  each import ``sharplp.cli`` and parse the workload's arguments.  They are
  started one at a time between the passes below, spread evenly over the
  run;
* ``wall_s``: the scaled time of one pass in this process: for each CLI
  invocation the median of its scaled times over the passes of the run,
  summed over the invocations of the pass.  ``checks_per_s`` is the pass's
  verified checks over ``wall_s``;
* ``ok_rate``: the share of CLI invocations that succeeded.  An invocation
  fails if it raises, exits non-zero, writes to stderr, breaks an invariant,
  differs from the frozen reference beyond tolerance, or is not
  byte-identical to the first pass of the run.

With ``--trace 1`` it alternates untraced and traced passes (at least one
pair) and reports the per-layer metrics of ``tracing.py``, each the median
over the traced passes, plus ``cli.output_bytes`` and
``trace.overhead_ratio`` (fastest traced pass over fastest untraced pass).
The spans are written to ``.bench_trace/`` once at the end.

The last line of stdout is the JSON result; the lines before it give the
metrics in words and the facts of the run.
"""
import os

# Set before numpy is first imported, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SHARPLP_PRECISION", None)

import argparse
import functools
import gc
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gauge
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
TRACE_DIR = ROOT / ".bench_trace"

SETUP_RUNS = 9
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150


def import_cli():
    sys.path.insert(0, str(SRC))
    from sharplp import cli

    if Path(cli.__file__).resolve().parent != SRC / "sharplp":
        raise RuntimeError(f"imported sharplp from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(invs) -> float:
    arg_lists = json.dumps([list(inv.args) for inv in invs])
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(SRC), "setup", arg_lists],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return seconds


def child_pass(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(SRC), "pass", workload, str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def checks_done(ops) -> int:
    """Verified checks of one pass, in the workload's unit of work."""
    total = 0
    for op in ops:
        cmd = op.invocation.args[0]
        if cmd == "contour":
            total += op.stdout.count("\n") - 1  # grid cells
            continue
        payload = json.loads(op.stdout)
        if cmd in ("verify", "schatten"):
            total += payload["instances_checked"]
        elif cmd == "audit":
            total += sum(len(r["patterns"]) + len(r["extras"]) for r in payload)
        elif cmd == "means":
            total += payload["trials"] * len(payload["ps"])
        elif cmd == "sharpness":
            total += len(payload)
    return total


class Ledger:
    """Attempted and failed invocations of a run, with the first problems."""

    def __init__(self, refs):
        self.refs = refs
        self.first = None  # (digest, problems) of each invocation of the first pass
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {'; '.join(problems)[:2000]}")

    def add_pass(self, ops) -> None:
        """Check a pass: fully the first time; later passes must repeat it byte
        for byte, and a repeat of a wrong output is wrong again."""
        if self.first is None:
            self.first = [(op.digest, problems)
                          for op, problems in zip(ops, check.check_pass(ops, self.refs))]
        for op, (d0, problems) in zip(ops, self.first):
            if op.digest != d0:
                problems = ["output not byte-identical to the first pass"]
            self.record(" ".join(op.invocation.args), problems)

    def add_child(self, invs, result: dict) -> None:
        for inv, op, (d0, problems) in zip(invs, result["ops"], self.first):
            if op["error"] or op["exit_code"] != 0:
                problems = [f"fresh process: exit {op['exit_code']} {op['error'] or ''}"]
            elif op["sha256"] != d0:
                problems = ["fresh-process output differs from the warm pass"]
            self.record("fresh " + " ".join(inv.args), problems)


def _facts(args, run_facts: dict, refs) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "sharplp").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **run_facts,
        "reference": "frozen" if refs is not None else "invariants only (seed not frozen)",
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "loop": "closed, one caller, one thread",
        "not_controlled": "CPU frequency, CPU pinning and the page cache",
    }


def time_left(start: float, args) -> float:
    return start + args.seconds - time.perf_counter()


def run_untraced(args, invs, refs, start) -> tuple[dict, Ledger, dict]:
    child = child_pass(args.workload, args.seed)
    cli = import_cli()
    meter = gauge.Gauge()
    ledger = Ledger(refs)
    setup, walls, raw, scaled, units = [], [], [], [], 0
    while len(walls) < MIN_PASSES or time_left(start, args) >= walls[-1]:
        while (len(setup) < SETUP_RUNS
               and time.perf_counter() - start >= len(setup) * args.seconds / SETUP_RUNS):
            setup += meter.run([lambda: measure_setup(invs)], ticking=False)
        gc.collect()
        t0 = time.perf_counter()
        timed = meter.run([functools.partial(workloads.run_invocation, cli, inv) for inv in invs])
        walls.append(time.perf_counter() - t0)
        ops = [op for op, _ in timed]
        raw.append([op.seconds for op in ops])
        scaled.append([seconds for _, seconds in timed])
        ledger.add_pass(ops)  # the first pass is checked in full
        if len(walls) == 1:
            ledger.add_child(invs, child)
            try:
                units = checks_done(ops)
            except (ValueError, KeyError, TypeError):
                pass
        del ops, timed
    setup += meter.run([lambda: measure_setup(invs)] * (SETUP_RUNS - len(setup)), ticking=False)
    wall = sum(statistics.median(times) for times in zip(*scaled))
    metrics = {
        "wall_s": (wall, "s"),
        "checks_per_s": (units / wall, "1/s"),
        "setup_s": (statistics.median(seconds for _, seconds in setup), "s"),
        "peak_rss_mb": (child["peak_rss_kb"] / 1024.0, "MB"),
        "ok_rate": ((ledger.attempted - ledger.failed) / ledger.attempted, "ratio"),
    }
    facts = {
        "passes": len(walls),
        "pass_walls_s": walls,
        "raw_wall_s": sum(min(times) for times in zip(*raw)),
        "raw_median_wall_s": sum(statistics.median(times) for times in zip(*raw)),
        "raw_setup_s": [seconds for seconds, _ in setup],
        "probe_median_s": statistics.median(meter.probes),
        "reference_probe_s": gauge.REFERENCE_PROBE_S,
    }
    return metrics, ledger, facts


def run_traced(args, invs, refs, start) -> tuple[dict, Ledger, dict]:
    cli = import_cli()
    ledger = Ledger(refs)
    ops, _ = workloads.run_pass(cli, invs)  # warm-up, checked in full
    ledger.add_pass(ops)
    del ops
    plain, traced, tracers, values, out_bytes = [], [], [], [], []
    while not traced or time_left(start, args) >= plain[-1] + traced[-1]:
        gc.collect()
        ops, wall = workloads.run_pass(cli, invs)
        plain.append(wall)
        ledger.add_pass(ops)
        gc.collect()
        tracer = tracing.Tracer()
        with tracer.installed():
            ops, wall = workloads.run_pass(cli, invs)
        traced.append(wall)
        ledger.add_pass(ops)
        out_bytes.append(sum(len(op.stdout.encode("utf-8")) for op in ops))
        del ops
        left = tracing.leftover_wrappers()
        if left:
            raise RuntimeError(f"tracer wrappers left behind: {left}")
        tracers.append(tracer)
        values.append(tracing.layer_values(tracer.summary()))
    if tracer.missing:
        print(f"# not traced, absent from the program: {tracer.missing}", file=sys.stderr)
    tracing.write_spans(TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz", tracers)

    metrics = {}
    for (span, stat), key in zip(tracing.LAYER_STATS, values[0]):
        series = [v[key] for v in values]
        if stat == "calls" and len(set(series)) != 1:
            ledger.record(f"traced {key}", [f"call counts differ across passes: {series}"])
        median = statistics.median_low if stat == "calls" else statistics.median
        metrics[key] = (median(series), tracing.STAT_UNITS[stat])
    metrics["cli.output_bytes"] = (statistics.median_low(out_bytes), "bytes")
    metrics["trace.overhead_ratio"] = (min(traced) / min(plain), "ratio")
    return metrics, ledger, {"passes": len(traced), "pass_walls_s": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    if not (SRC / "sharplp" / "cli.py").is_file():
        print(f"error: no sharplp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    invs = workloads.invocations(args.workload, args.seed)
    refs = check.reference_for(args.workload, args.seed)
    run = run_traced if args.trace else run_untraced
    metrics, ledger, run_facts = run(args, invs, refs, start)

    for name, (value, unit) in metrics.items():
        print(f"# {args.workload} seed {args.seed}: {name} = {value:.6g} {unit}")
    for problem in ledger.problems:
        print(f"# FAILED {problem}")
    print("# facts " + json.dumps(_facts(args, run_facts, refs)))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
