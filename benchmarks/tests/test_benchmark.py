"""Tests of the benchmark itself: python3 -m pytest benchmarks/tests"""
import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gauge  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

cli = run.import_cli()


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_of_every_workload_is_correct(workload):
    invs = workloads.invocations(workload, seed=1, tiny=True)
    ops, wall = workloads.run_pass(cli, invs)
    assert wall > 0.0
    assert check.check_pass(ops, None) == [[]] * len(ops)
    assert run.checks_done(ops) > 0


def test_seed_fixes_the_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.invocations(workload, 7) == workloads.invocations(workload, 7)
        assert workloads.invocations(workload, 7) != workloads.invocations(workload, 8)


def _perturb_verify(text):
    payload = json.loads(text)
    payload["max_violation"] += 1e-9
    return json.dumps(payload, indent=2) + "\n"


def _perturb_contour(text):
    lines = text.splitlines()
    alpha, p, value = lines[7].split(",")
    lines[7] = f"{alpha},{p},{float(value) * (1 + 1e-8):.17g}"
    return "\n".join(lines) + "\n"


def _tiny_op(command):
    """The result of one command of a tiny double pass."""
    (inv,) = [i for i in workloads.invocations("double", 2, tiny=True) if i.args[0] == command]
    return workloads.run_invocation(cli, inv)


@pytest.mark.parametrize("command, perturb", [
    ("verify", _perturb_verify),
    ("contour", _perturb_contour),
])
def test_perturbed_output_counts_as_failed(command, perturb):
    op = _tiny_op(command)
    refs = [check.op_reference(op)]
    bad = dataclasses.replace(op, stdout=perturb(op.stdout))
    assert check.check_pass([op], refs) == [[]]
    assert check.check_pass([bad], refs)[0]

    ledger = run.Ledger(refs)
    ledger.add_pass([bad])
    assert (ledger.attempted, ledger.failed) == (1, 1)


def _rewrite_contour(text, alpha_digits=None, value_format=".17g"):
    """The contour CSV with alpha labels rounded to ``alpha_digits`` decimals
    (then written as %.17g) and values written with ``value_format``."""
    lines = text.splitlines()
    for i, line in enumerate(lines[1:], 1):
        alpha, p, value = (float(tok) for tok in line.split(","))
        if alpha_digits is not None:
            alpha = round(alpha, alpha_digits)
        lines[i] = f"{alpha:.17g},{p:.17g},{value:{value_format}}"
    return "\n".join(lines) + "\n"


def test_contour_values_written_with_fewer_digits_count_as_failed():
    op = _tiny_op("contour")
    assert _rewrite_contour(op.stdout) == op.stdout
    bad = dataclasses.replace(op, stdout=_rewrite_contour(op.stdout, value_format=".9g"))
    # caught without a reference, by the %.17g rule
    assert check.check_pass([bad], None)[0]
    assert check.check_pass([bad], [check.op_reference(op)])[0]


def test_contour_with_rounded_alpha_labels_counts_as_failed():
    op = _tiny_op("contour")
    bad = dataclasses.replace(op, stdout=_rewrite_contour(op.stdout, alpha_digits=3))
    # well-formed, so only the element-by-element label comparison catches it
    assert check.check_pass([bad], None) == [[]]
    problems = check.check_pass([bad], [check.op_reference(op)])[0]
    assert problems and all(p.startswith("$.alphas[") for p in problems)


def test_every_repeat_of_a_wrong_output_counts_as_failed():
    op = _tiny_op("verify")
    refs = [check.op_reference(dataclasses.replace(op, stdout=_perturb_verify(op.stdout)))]
    ledger = run.Ledger(refs)
    ledger.add_pass([op])
    ledger.add_pass([op])
    ledger.add_child(
        [op.invocation], {"ops": [{"exit_code": 0, "sha256": op.digest, "error": None}]}
    )
    assert (ledger.attempted, ledger.failed) == (3, 3)


def test_output_within_tolerance_passes_and_repeat_must_be_identical():
    op = _tiny_op("verify")
    refs = [check.op_reference(op)]
    payload = json.loads(op.stdout)
    payload["max_violation"] += 0.1 * check.ABS_TOL
    close = dataclasses.replace(op, stdout=json.dumps(payload, indent=2) + "\n")
    assert check.check_pass([close], refs) == [[]]

    ledger = run.Ledger(refs)
    ledger.add_pass([op])
    ledger.add_pass([close])  # correct, but not byte-identical to the first pass
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_tracer_wrappers_are_removed_after_the_traced_run():
    import sharplp.campaigns
    import sharplp.inequality
    import sharplp.measure

    original = sharplp.inequality.main_sides
    tracer = tracing.Tracer()
    with tracer.installed():
        assert sharplp.campaigns.main_sides is not original
        assert tracing.leftover_wrappers()
        workloads.run_pass(cli, workloads.invocations("double", 3, tiny=True))
    assert tracing.leftover_wrappers() == []
    assert sharplp.campaigns.main_sides is original
    assert sharplp.inequality.main_sides is original
    assert tracer.missing == []
    values = tracing.layer_values(tracer.summary())
    assert values["inequality.main_sides.calls"] == 3 * 10 + 12
    assert values["measure.lp_functional.calls"] == 3 * values["inequality.main_sides.calls"]
    assert values["schatten.random_psd.calls"] == 2 * 4 * 5 * 2
    assert values["means.constant_factor.calls"] == 4 * 4
    assert values["precision.high_precision.calls"] > 0


def test_tracer_restores_bindings_when_the_pass_raises():
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    assert tracing.leftover_wrappers() == []


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


def _boom():
    raise RuntimeError("boom")


def test_gauge_scales_each_call_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    meter = gauge.Gauge()
    (result, scaled), (_, quick) = meter.run([lambda: _spin(5 * gauge.TICK_S), lambda: None])
    assert result == "done"
    # probes before, between and after the calls, and ticks during the first
    assert len(meter.probes) >= 3 + 3
    # the ticks' own time is taken out, so the spin counts for at most its length
    assert 0.0 < scaled <= 5 * gauge.TICK_S * gauge.REFERENCE_PROBE_S / min(meter.probes)
    assert 0.0 <= quick < scaled
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    with pytest.raises(RuntimeError):
        meter.run([_boom])
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_matches_the_metrics_reported():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {f"{s}.{t}": tracing.STAT_UNITS[t] for s, t in tracing.LAYER_STATS}
    reported.update({"cli.output_bytes": "bytes", "trace.overhead_ratio": "ratio"})
    assert per_layer == reported


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "oracle", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
