"""Golden outputs of the seeded campaigns and the contour grid.

``tests/golden/campaigns.json`` holds outputs frozen from the commit named in
its ``frozen_from`` field:

- ``verify_campaign`` summaries for seeds 0-3 at default sizes;
- ``schatten_campaign`` summaries for seeds 0-1 at default sizes;
- per exponent row, the exact (fsum) sum and the maximum of ``factor_grid``
  on the acceptance-test windows.

``tests/golden/cli.json`` holds the parsed stdout and the exit code of whole
command lines, run in both precision modes where the mode matters: ``audit``
on the default c grid, ``sharpness`` and ``means`` (seeds 0-1),
``verify --trials 20`` at 50 digits (seeds 0-1), and a 9 x 8 ``contour`` grid
at 50 digits (its CSV read back as numbers).

Numbers must agree within relative 1e-12, or absolute 1e-14 for fields near
zero such as ``max_violation``; counts, flags and keys must match exactly.
Any rewrite of the numeric core is judged against these files.

Refreeze one file (only from a commit whose outputs are trusted) with

    PYTHONPATH=src python tests/test_golden.py <commit> campaigns|cli
"""
import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from sharplp.campaigns import factor_grid, schatten_campaign, verify_campaign
from sharplp.cli import parse_config, run

GOLDEN = Path(__file__).resolve().parent / "golden" / "campaigns.json"
CLI_GOLDEN = GOLDEN.parent / "cli.json"
REL_TOL = 1e-12
ABS_TOL = 1e-14

VERIFY_SEEDS = (0, 1, 2, 3)
SCHATTEN_SEEDS = (0, 1)
# (alpha_min, alpha_max, p_min, p_max, n_alpha, n_p) of acceptance criteria
# 1-4; criterion 4's grid holds the alpha endpoints 0 and 1 and p = 1, 2.
GRID_WINDOWS = {
    "criterion_01": (0.5, 1.0, 2.0, 4.0, 400, 400),
    "criterion_02": (0.5, 1.0, 1.0, 2.0, 600, 600),
    "criterion_03": (0.001, 0.5, 0.01, 1.0, 600, 600),
    "criterion_04": (0.0, 1.0, 1.0, 4.0, 400, 400),
}

_MULTI_P = "-1.5,0.5,1.5,3,6"
# name: (SHARPLP_PRECISION, command line)
CLI_CASES = {
    "audit_default": ("double", ["audit"]),
    **{
        f"{name}_{mode}": (mode, argv)
        for mode in ("double", "high")
        for name, argv in {
            "sharpness_default": ["sharpness"],
            "sharpness_regions": ["sharpness", "--p-list=" + _MULTI_P, "--r", "0.9"],
            "means_seed0": ["means", "--seed", "0"],
            "means_seed1": ["means", "--seed", "1"],
            "means_seed0_regions": ["means", "--seed", "0", "--p-list=" + _MULTI_P],
        }.items()
    },
    "verify_seed0_high": ("high", ["verify", "--seed", "0", "--trials", "20"]),
    "verify_seed1_high": ("high", ["verify", "--seed", "1", "--trials", "20"]),
    "contour_9x8_high": ("high", [
        "contour", "--alpha-min", "0", "--alpha-max", "1",
        "--p-min", "0.25", "--p-max", "4", "--na", "9", "--np", "8",
    ]),
}


def _cli_output(mode: str, argv: list) -> dict:
    """Exit code and parsed stdout of one command line (CSV rows as numbers)."""
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"SHARPLP_PRECISION": mode}):
        with contextlib.redirect_stdout(out):
            code = run(parse_config(argv))
    text = out.getvalue()
    if argv[0] == "contour":
        lines = text.splitlines()
        payload = [lines[0]] + [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    else:
        payload = json.loads(text)
    return {"exit_code": code, "stdout": payload}


def _grid_summary(window) -> dict:
    _, _, values = factor_grid(*window)
    return {
        "window": list(window),
        "row_sum": [math.fsum(row) for row in values.tolist()],
        "row_max": values.max(axis=1).tolist(),
    }


def _diff(got, want, path="$") -> list[str]:
    if isinstance(want, float) and isinstance(got, float):
        if got == want or abs(got - want) <= max(REL_TOL * abs(want), ABS_TOL):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: type {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{path}: keys {list(got)} != {list(want)}"]
        return [d for k in want for d in _diff(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in _diff(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def _roundtrip(obj):
    """The value as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(obj))


@pytest.mark.parametrize("seed", VERIFY_SEEDS)
def test_verify_campaign_golden(seed):
    got = _roundtrip(verify_campaign(seed=seed))
    assert _diff(got, _golden()["verify"][str(seed)]) == []


@pytest.mark.parametrize("seed", SCHATTEN_SEEDS)
def test_schatten_campaign_golden(seed):
    got = _roundtrip(schatten_campaign(seed=seed))
    assert _diff(got, _golden()["schatten"][str(seed)]) == []


@pytest.mark.parametrize("name", sorted(GRID_WINDOWS))
def test_factor_grid_golden(name):
    got = _roundtrip(_grid_summary(GRID_WINDOWS[name]))
    assert _diff(got, _golden()["factor_grid"][name]) == []


# repr of the 50-digit `verify --trials 20` max_violation, frozen from commit
# 0fc502a.  The golden tolerance (absolute 1e-14) cannot see a change in the
# last bit, such as rounding max(|lhs|, |rhs|) to 53 bits before dividing.
HIGH_VERIFY_MAX_VIOLATION = {
    0: "2.561473848461974e-51",
    1: "2.1879252965891623e-51",
    2: "2.9555857153994695e-51",
    3: "4.2710054282360534e-51",
}


@pytest.mark.parametrize("seed", sorted(HIGH_VERIFY_MAX_VIOLATION))
def test_high_precision_max_violation_is_bit_exact(seed):
    with mock.patch.dict(os.environ, {"SHARPLP_PRECISION": "high"}):
        summary = verify_campaign(seed=seed, trials=20)
    assert repr(summary["max_violation"]) == HIGH_VERIFY_MAX_VIOLATION[seed]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_golden(name):
    with open(CLI_GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)["cases"][name]
    assert _diff(_cli_output(*CLI_CASES[name]), want) == []


def test_diff_tolerances():
    assert _diff({"a": 1.0, "n": 3}, {"a": 1.0 + 1e-13, "n": 3}) == []
    assert _diff({"a": 1.0}, {"a": 1.0 + 1e-11}) != []
    assert _diff({"v": 3e-15}, {"v": 0.0}) == []
    assert _diff({"v": 3e-14}, {"v": 0.0}) != []
    assert _diff({"n": 3}, {"n": 4}) != []
    assert _diff({"passed": True}, {"passed": 1}) != []
    assert _diff({"a": 1, "b": 2}, {"b": 2, "a": 1}) != []


def _freeze_campaigns(commit: str) -> dict:
    return {
        "frozen_from": commit,
        "verify": {str(s): verify_campaign(seed=s) for s in VERIFY_SEEDS},
        "schatten": {str(s): schatten_campaign(seed=s) for s in SCHATTEN_SEEDS},
        "factor_grid": {name: _grid_summary(w) for name, w in sorted(GRID_WINDOWS.items())},
    }


def _freeze_cli(commit: str) -> dict:
    return {
        "frozen_from": commit,
        "cases": {name: _cli_output(*case) for name, case in sorted(CLI_CASES.items())},
    }


def freeze(commit: str, which: str) -> None:
    path, build = {"campaigns": (GOLDEN, _freeze_campaigns), "cli": (CLI_GOLDEN, _freeze_cli)}[which]
    golden = build(commit)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    freeze(*sys.argv[1:3])
