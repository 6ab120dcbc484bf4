"""Correctness checks for the outputs of one pass.

Every invocation is checked twice over:

* against invariants that hold for any seed: the exit code is 0 (every
  mathematical check of the command passed), stderr is empty, and the
  payload has the counts the arguments ask for;
* against the reference frozen for its seed, when there is one: numbers agree
  within ``REL_TOL`` relative, or ``ABS_TOL`` absolute for fields near zero
  such as ``max_violation``; every other field agrees exactly.

The contour CSV (9 MB) is compared through a summary: the alpha and p labels
in full, element by element, and per exponent row the sum, the index-weighted
sum and the maximum of the factor values.  Its invariants require every field
to be written as ``%.17g`` of the float it denotes, so that a writer that
drops digits fails even where the row sums would average the loss out.
"""
from __future__ import annotations

import gzip
import io
import json
import math
from pathlib import Path

import numpy as np

from workloads import OpResult

REL_TOL = 1e-10
ABS_TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    """{seed (str): [op reference, ...]} frozen for ``workload``."""
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)["seeds"]


def _contour_grid(text: str) -> tuple[str, np.ndarray]:
    """The header line and the (rows, 3) array of a contour CSV."""
    head, _, body = text.partition("\n")
    return head, np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def _contour_axes(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The alpha labels, the p labels and the (p, alpha) factor values of a
    grid written p-major, as ``sharplp contour`` writes it."""
    n_alpha = int(np.argmax(grid[:, 1] != grid[0, 1])) or grid.shape[0]
    alphas = grid[:n_alpha, 0]
    ps = grid[::n_alpha, 1]
    return alphas, ps, grid[:, 2].reshape(ps.size, n_alpha)


def contour_summary(text: str) -> dict:
    head, grid = _contour_grid(text)
    alphas, ps, values = _contour_axes(grid)
    index = np.arange(1, alphas.size + 1)
    return {
        "header": head,
        "rows": int(grid.shape[0]),
        "alphas": alphas.tolist(),
        "ps": ps.tolist(),
        "row_sum": [math.fsum(row) for row in values],
        "row_wsum": [math.fsum(index * row) for row in values],
        "row_max": values.max(axis=1).tolist(),
    }


def comparable(op: OpResult) -> object:
    """The part of an output that is compared with the reference."""
    if op.invocation.args[0] == "contour":
        return contour_summary(op.stdout)
    return json.loads(op.stdout)


def diff(got, want, path: str = "$") -> list[str]:
    """Differences between two parsed outputs, under the tolerance rule."""
    if isinstance(want, float) and type(got) is float:
        if got == want or (math.isnan(got) and math.isnan(want)):
            return []
        if abs(got - want) <= max(REL_TOL * abs(want), ABS_TOL):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: type {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{path}: keys {list(got)} != {list(want)}"]
        return [d for k in want for d in diff(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in diff(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _arg(args: tuple[str, ...], flag: str, default: str) -> str:
    for i, a in enumerate(args):
        if a == flag:
            return args[i + 1]
        if a.startswith(flag + "="):
            return a[len(flag) + 1:]
    return default


def _invariants(op: OpResult) -> list[str]:
    """Seed-independent checks of one successful invocation's payload."""
    args = op.invocation.args
    cmd = args[0]
    if cmd == "contour":
        head, grid = _contour_grid(op.stdout)
        n_alpha = int(_arg(args, "--na", "400"))
        n_p = int(_arg(args, "--np", "400"))
        problems = []
        if head != "alpha,p,value":
            problems.append(f"header {head!r}")
        if grid.shape != (n_alpha * n_p, 3):
            return problems + [f"grid shape {grid.shape}, expected ({n_alpha * n_p}, 3)"]
        alphas, ps, values = _contour_axes(grid)
        if (alphas.size != n_alpha
                or not np.array_equal(grid[:, 0], np.tile(alphas, n_p))
                or not np.array_equal(grid[:, 1], np.repeat(ps, n_alpha))):
            problems.append("grid is not p-major over one alpha axis")
        if not np.all(np.isfinite(grid)) or values.min() < 1.0 - 1e-12:
            # p >= 2 is the forward range, where the factor is at least 1
            problems.append("factor values not finite or below 1")
        lossy = next((tok for line in op.stdout.splitlines()[1:] for tok in line.split(",")
                      if f"{float(tok):.17g}" != tok), None)
        if lossy is not None:
            problems.append(f"field {lossy!r} is not written as %.17g")
        return problems
    payload = json.loads(op.stdout)
    if cmd == "verify":
        trials = int(_arg(args, "--trials", "2000"))
        expected = {
            "instances_checked": trials * 10 + 12,
            "passed": True,
            "precision_mode": op.invocation.precision,
            "seed": int(_arg(args, "--seed", "0")),
        }
        got = {k: payload.get(k) for k in expected}
        return [] if got == expected else [f"verify payload {got} != {expected}"]
    if cmd == "schatten":
        trials = int(_arg(args, "--trials", "500"))
        got = (payload.get("instances_checked"), payload.get("passed"))
        return [] if got == (trials * 20, True) else [f"schatten payload {got}"]
    if cmd == "audit":
        cs = [float(c) for c in _arg(args, "--c-grid", "").split(",")]
        got = [(r["c"], r["all_match"], r["fraction_ok"]) for r in payload]
        want = [(c, True, True) for c in cs]
        return [] if got == want else [f"audit verdicts {got} != {want}"]
    if cmd == "means":
        return [] if payload.get("passed") is True else ["means did not pass"]
    if cmd == "sharpness":
        ok = all(r["passed"] for r in payload)
        return [] if ok else ["sharpness did not pass"]
    return [f"no invariants for {cmd!r}"]


def op_reference(op: OpResult) -> dict:
    """The frozen form of one invocation's result."""
    return {
        "args": list(op.invocation.args),
        "precision": op.invocation.precision,
        "sha256": op.digest,
        "output": comparable(op),
    }


def check_op(op: OpResult, ref: dict | None) -> list[str]:
    """Every problem found in one invocation's result (empty when correct)."""
    if op.error is not None:
        return [f"raised:\n{op.error}"]
    if op.exit_code != 0:
        return [f"exit code {op.exit_code}: {op.stderr.strip()}"]
    if op.stderr:
        return [f"unexpected stderr: {op.stderr.strip()}"]
    try:
        problems = _invariants(op)
        if ref is not None:
            if ref["args"] != list(op.invocation.args) or ref["precision"] != op.invocation.precision:
                return [f"inputs {op.invocation} differ from the frozen {ref['args']}"]
            if ref["sha256"] != op.digest:
                problems += diff(comparable(op), ref["output"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
    return problems


def check_pass(ops: list[OpResult], refs: list[dict] | None) -> list[list[str]]:
    """Problems per invocation of one pass; ``refs`` is None for unfrozen seeds."""
    if refs is not None and len(refs) != len(ops):
        return [["pass has a different number of invocations than its reference"]] * len(ops)
    return [check_op(op, None if refs is None else refs[i]) for i, op in enumerate(ops)]


def reference_for(workload: str, seed: int) -> list[dict] | None:
    """The frozen op references for this seed, or None when none was frozen."""
    return load_reference(workload).get(str(seed))
