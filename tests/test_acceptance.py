"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 3 checks the Figure-3 landscape (alpha in [0.001, 0.5], p in
[0.01, 1], 600 x 600) against what the constant-ratio factor promises there,
not against the window [1.04, 1.08] read off the figure's contour range:

- p in (0, 1] is the forward region, so the factor is >= 1 on the whole grid;
- the column maximum M(alpha) = max_p factor falls as alpha grows, so the
  grid max sits on the alpha = alpha_min column;
- that grid max equals a 50-digit mpmath evaluation of the same formula
  (``oracle.factor``, written from the formula), at the same (alpha, p);
- an alpha = 1e-4 column already exceeds the alpha = 0.001 edge.

The last two points are why the window is not asserted: the grid max is the
value at the grid's first alpha column, and it grows toward 2 as that column
moves toward alpha = 0 (1.18 at 0.001, 1.26 at 1e-4). Whether the grid max
lands in [1.04, 1.08] depends only on where the grid starts, and the alpha
range the figure resolves is not recorded here. The grid max and M(0.02)
(about 1.064, near the figure's "about 1.06") are printed for comparison.
"""
import math
import time

import numpy as np

import oracle
from sharplp.audit import audit_chain, chain_eval, curvature
from sharplp.campaigns import factor_grid, schatten_campaign, verify_campaign
from sharplp.cli import parse_config, run
from sharplp.means import constant_factor, sharpness_probe
from sharplp.doubling import psi


def _report(criterion: int, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d}: {status}: {detail}")
    return ok


def test_criterion_01_figure1_window():
    t0 = time.perf_counter()
    alphas = 0.5 + 1e-4 * np.arange(5001)
    edge_vals = np.array([constant_factor(float(a), 4.0, 0.5) for a in alphas])
    edge_max = float(edge_vals.max())
    argmax_alpha = float(alphas[int(np.argmax(edge_vals))])

    _, _, values = factor_grid(0.5, 1.0, 2.0, 4.0, 400, 400)
    grid_max = float(values.max())
    boundary = values[-1, :].max()  # the p = 4 row of the same grid

    ok = (
        1.016 <= edge_max <= 1.020
        and 0.55 < argmax_alpha < 0.95
        and abs(grid_max - boundary) <= 1e-6
    )
    detail = (
        f"p=4 edge max {edge_max:.6f} at alpha={argmax_alpha:.4f}; "
        f"grid max {grid_max:.6f} ({time.perf_counter()-t0:.2f}s)"
    )
    assert _report(1, ok, detail)


def test_criterion_02_figure2_window():
    t0 = time.perf_counter()
    _, _, values = factor_grid(0.5, 1.0, 1.0, 2.0, 600, 600)
    grid_min = float(values.min())
    ok = 0.9955 <= grid_min <= 0.9965
    assert _report(
        2, ok, f"grid min {grid_min:.6f} ({time.perf_counter()-t0:.2f}s)"
    )


def test_criterion_03_figure3_window():
    t0 = time.perf_counter()
    alphas, ps, values = factor_grid(0.001, 0.5, 0.01, 1.0, 600, 600)
    grid_min = float(values.min())
    col_max = values.max(axis=0)  # M(alpha), one entry per alpha column
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    grid_max = float(values[i, j])
    exact = oracle.factor(float(alphas[j]), float(ps[i]))
    rel_err = abs(grid_max / float(exact) - 1.0)
    _, _, deeper = factor_grid(1e-4, 1e-4, 0.01, 1.0, 1, 600)
    deeper_max = float(deeper.max())
    m_002 = float(col_max[np.searchsorted(alphas, 0.02)])

    ok = (
        grid_min >= 1.0 - 1e-12
        and j == 0
        and bool(np.all(np.diff(col_max) <= 1e-12))
        and rel_err <= 1e-12
        and deeper_max > grid_max
    )
    detail = (
        f"grid min {grid_min:.15f}; grid max {grid_max:.6f} at "
        f"alpha={alphas[j]:.4f}, p={ps[i]:.4f} (50-digit {float(exact):.6f}, "
        f"rel err {rel_err:.1e}); M(0.02) {m_002:.6f}; alpha=1e-4 column max "
        f"{deeper_max:.6f} ({time.perf_counter()-t0:.2f}s)"
    )
    assert _report(3, ok, detail), (
        "the factor on the Figure-3 grid must be >= 1, peak on the alpha_min "
        "column with M(alpha) non-increasing, match its 50-digit value there, "
        "and be exceeded by the alpha = 1e-4 column (see module docstring)"
    )


def test_criterion_04_two_percent_band():
    t0 = time.perf_counter()
    _, _, values = factor_grid(0.0, 1.0, 1.0, 4.0, 400, 400)
    dev = float(np.abs(values - 1.0).max())
    ok = dev <= 0.02
    assert _report(
        4, ok, f"max |factor - 1| = {dev:.6f} ({time.perf_counter()-t0:.2f}s)"
    )


def test_criterion_05_region_law():
    t0 = time.perf_counter()
    alphas = np.arange(1, 1000) * 1e-3
    worst_fwd = math.inf
    for p in (0.25, 0.5, 0.75, 2.0, 2.5, 3.0, 4.0, 7.0, 12.0):
        q = 2.0 / p
        worst_fwd = min(
            worst_fwd, min(constant_factor(float(a), p, q) for a in alphas)
        )
    worst_rev = -math.inf
    for p in (-5.0, -2.0, -0.5, 1.2, 1.5, 1.9):
        q = 2.0 / p
        worst_rev = max(
            worst_rev, max(constant_factor(float(a), p, q) for a in alphas)
        )
    ok = worst_fwd >= 1.0 - 1e-10 and worst_rev <= 1.0 + 1e-10
    assert _report(
        5,
        ok,
        f"forward min {worst_fwd:.15f}, reverse max {worst_rev:.15f} "
        f"({time.perf_counter()-t0:.2f}s)",
    )


_CAMPAIGN = {}


def _campaign():
    if not _CAMPAIGN:
        t0 = time.perf_counter()
        _CAMPAIGN["summary"] = verify_campaign(seed=0, trials=2000)
        _CAMPAIGN["elapsed"] = time.perf_counter() - t0
    return _CAMPAIGN["summary"], _CAMPAIGN["elapsed"]


def test_criterion_06_main_campaign():
    summary, elapsed = _campaign()
    fails = summary["per_region_failures"]
    ok = (
        fails["forward"] == 0
        and fails["reverse"] == 0
        and fails["equality"] == 0
        and summary["instances_checked"] >= 2000 * 10
    )
    assert _report(
        6,
        ok,
        f"{summary['instances_checked']} instances, failures {fails}, "
        f"max violation {summary['max_violation']:.2e} ({elapsed:.2f}s)",
    )


def test_criterion_07_dominance():
    summary, elapsed = _campaign()
    ok = summary["per_region_failures"]["dominance"] == 0
    assert _report(
        7,
        ok,
        f"dominance failures {summary['per_region_failures']['dominance']} "
        f"(within campaign, {elapsed:.2f}s)",
    )


def test_criterion_08_sharpness():
    t0 = time.perf_counter()
    ok = True
    details = []
    for p, r in [(3.0, 1.1), (5.0, 1.5), (-2.0, 0.9), (0.5, 0.9)]:
        probe = sharpness_probe(p, r)
        slope_ok = abs(probe.slope_measured - probe.slope_predicted) <= 0.01 * abs(
            probe.slope_predicted
        )
        ok = ok and probe.witness_s is not None and slope_ok
        none_probe = sharpness_probe(p, 1.0)
        ok = ok and none_probe.witness_s is None
        details.append(f"({p},{r}): slope {probe.slope_measured:+.4f}")
    assert _report(
        8, ok, "; ".join(details) + f" ({time.perf_counter()-t0:.2f}s)"
    )


def test_criterion_09_chain_audit():
    t0 = time.perf_counter()
    cs = (-3.0, -1.0, -0.2, 0.05, 0.2, 0.35, 0.45, 0.55, 0.7, 0.9, 1.3, 2.0, 3.5, 8.0)
    mismatches = []
    for c in cs:
        rep = audit_chain(c, 10_000)
        if not (rep.all_match and rep.fraction_ok):
            mismatches.append(c)

    endpoint_ok = True
    for c in cs:
        endpoint_ok &= abs(chain_eval("v", c, 1.0)) <= 1e-10
        endpoint_ok &= abs(chain_eval("v_prime", c, 1.0)) <= 1e-10
        endpoint_ok &= abs(chain_eval("v_dprime", c, 1.0)) <= 1e-10
        want = 2.0 * c * (1.0 - 2.0 * c) * (c - 1.0) ** 2
        endpoint_ok &= abs(chain_eval("v_tprime", c, 1.0) - want) <= 1e-8 * abs(want)
        endpoint_ok &= chain_eval("h", c, 1.0) == 0.0
        endpoint_ok &= abs(chain_eval("w", c, 1.0) - (c - 1.0)) <= 1e-12 * max(
            1.0, abs(c - 1.0)
        )

    fact_ok = True
    for t in np.linspace(1e-3, 1.0, 1000):
        t = float(t)
        factored = (t - 1.0) * (5.0 * t * t - 16.0 * t + 8.0)
        fact_ok &= abs(chain_eval("q_factor", 2.0, t) - factored) <= 1e-12

    ok = not mismatches and endpoint_ok and fact_ok
    assert _report(
        9,
        ok,
        f"patterns matched for all {len(cs)} c values; endpoints "
        f"{'ok' if endpoint_ok else 'BAD'}; c=2 factorization "
        f"{'ok' if fact_ok else 'BAD'} ({time.perf_counter()-t0:.2f}s)",
    )


def test_criterion_10_curvature_signs():
    t0 = time.perf_counter()
    xs = np.linspace(0.01, 5.0, 200)
    ok = True
    for p in (2.5, 3.0, 7.0):
        ok = ok and all(curvature(float(x), p) > 0.0 for x in xs)
    for p in (-2.0, 0.5, 1.5):
        ok = ok and all(curvature(float(x), p) < 0.0 for x in xs)
    assert _report(
        10,
        ok,
        f"convex for p in {{2.5,3,7}}, concave for p in {{-2,0.5,1.5}} "
        f"({time.perf_counter()-t0:.2f}s)",
    )


def test_criterion_11_scalar_lemma():
    t0 = time.perf_counter()
    alphas = np.linspace(0.0, 10.0, 1001)
    scale = lambda t: (1.0 + alphas) ** (1.0 + t)

    def psi_vec(t):
        return (1.0 + alphas) ** (1.0 + t) - (1.0 + alphas ** 2) ** t - 2.0 ** t * alphas

    ok = True
    for t in np.linspace(0.0, 1.0, 101):
        t = float(t)
        ok = ok and bool(np.all(psi_vec(t) >= -1e-12 * scale(t)))
    for t in np.linspace(1.0, 3.0, 101)[1:]:
        t = float(t)
        ok = ok and bool(np.all(psi_vec(t) <= 1e-12 * scale(t)))
    # vectorized formula agrees with the scalar operation
    for t in (0.25, 0.75, 1.5):
        for a in (0.0, 0.5, 2.0, 10.0):
            ok = ok and abs(
                psi(t, a) - float(psi_vec(t)[np.searchsorted(alphas, a)])
            ) <= 1e-12 * (1.0 + a) ** (1.0 + t)

    a4 = np.linspace(0.0, 1.0, 10_000)
    gap = (1.0 + a4) ** 1.5 - math.sqrt(2.0) * a4 - np.sqrt(1.0 + a4 ** 2)
    ok = ok and bool(np.all(gap >= -1e-12))
    ok = ok and abs(gap[0]) <= 1e-10 and abs(gap[-1]) <= 1e-10
    assert _report(
        11,
        ok,
        f"scalar lemma grids clean; sqrt bound min gap {float(gap.min()):.2e} "
        f"({time.perf_counter()-t0:.2f}s)",
    )


def test_criterion_12_schatten_campaign():
    t0 = time.perf_counter()
    summary = schatten_campaign(seed=0, trials=500)
    ok = summary["passed"] and summary["instances_checked"] == 500 * 4 * 5
    assert _report(
        12,
        ok,
        f"{summary['instances_checked']} trials, failures {summary['failures']}, "
        f"max violation {summary['max_violation']:.2e} "
        f"({time.perf_counter()-t0:.2f}s)",
    )


def test_criterion_13_determinism(tmp_path):
    t0 = time.perf_counter()
    outs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        config = parse_config(["verify", "--seed", "0", "--out", str(out)])
        assert run(config) == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    assert _report(
        13, ok, f"two verify runs byte-identical ({time.perf_counter()-t0:.2f}s)"
    )
