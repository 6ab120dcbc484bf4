#!/usr/bin/env python3
"""Freeze the reference outputs that check.py compares against.

    python3 benchmarks/freeze.py

Runs one pass of every workload for every seed in FROZEN_SEEDS and writes
``reference/<workload>.json.gz``.  Run it only on the commit whose outputs
are to become the reference: a later run overwrites what an earlier commit
froze.  A pass that fails its invariants is not frozen.
"""
import gzip
import json
import sys

import run  # first: it pins BLAS threads before numpy is imported
import check
import workloads

# Seeds 0-19 cover the seeds a measurement campaign uses; 9001 is held out:
# the benchmark's settings were chosen on seeds 0-9 without it.
FROZEN_SEEDS = tuple(range(20)) + (9001,)


def main() -> int:
    cli = run.import_cli()
    for workload in workloads.WORKLOADS:
        seeds = {}
        for seed in FROZEN_SEEDS:
            ops, _ = workloads.run_pass(cli, workloads.invocations(workload, seed))
            for op, problems in zip(ops, check.check_pass(ops, None)):
                if problems:
                    print(f"{workload} seed {seed} {op.invocation.args}: {problems}",
                          file=sys.stderr)
                    return 1
            seeds[str(seed)] = [check.op_reference(op) for op in ops]
            print(f"{workload} seed {seed}: frozen", file=sys.stderr)
        path = check.reference_path(workload)
        path.parent.mkdir(exist_ok=True)
        text = json.dumps({"rel_tol": check.REL_TOL, "abs_tol": check.ABS_TOL,
                           "seeds": seeds}, separators=(",", ":"))
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(text.encode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
