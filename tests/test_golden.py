"""Golden outputs of the seeded campaigns and the contour grid.

``tests/golden/campaigns.json`` holds outputs frozen from the commit named in
its ``frozen_from`` field:

- ``verify_campaign`` summaries for seeds 0-3 at default sizes;
- ``schatten_campaign`` summaries for seeds 0-1 at default sizes;
- per exponent row, the exact (fsum) sum and the maximum of ``factor_grid``
  on the acceptance-test windows.

Numbers must agree within relative 1e-12, or absolute 1e-14 for fields near
zero such as ``max_violation``; counts, flags and keys must match exactly.
Any rewrite of the numeric core is judged against these files.

Refreeze (only from a commit whose outputs are trusted) with

    PYTHONPATH=src python tests/test_golden.py <commit>
"""
import json
import math
import sys
from pathlib import Path

import pytest

from sharplp.campaigns import factor_grid, schatten_campaign, verify_campaign

GOLDEN = Path(__file__).resolve().parent / "golden" / "campaigns.json"
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


def test_diff_tolerances():
    assert _diff({"a": 1.0, "n": 3}, {"a": 1.0 + 1e-13, "n": 3}) == []
    assert _diff({"a": 1.0}, {"a": 1.0 + 1e-11}) != []
    assert _diff({"v": 3e-15}, {"v": 0.0}) == []
    assert _diff({"v": 3e-14}, {"v": 0.0}) != []
    assert _diff({"n": 3}, {"n": 4}) != []
    assert _diff({"passed": True}, {"passed": 1}) != []
    assert _diff({"a": 1, "b": 2}, {"b": 2, "a": 1}) != []


def freeze(commit: str) -> None:
    golden = {
        "frozen_from": commit,
        "verify": {str(s): verify_campaign(seed=s) for s in VERIFY_SEEDS},
        "schatten": {str(s): schatten_campaign(seed=s) for s in SCHATTEN_SEEDS},
        "factor_grid": {name: _grid_summary(w) for name, w in sorted(GRID_WINDOWS.items())},
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    freeze(sys.argv[1])
