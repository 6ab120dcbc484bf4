"""Deterministic randomized verification campaigns and grid sweeps.

All campaigns are seeded and reproducible: a fixed seed yields byte-identical
summaries.  Instances are small discrete spaces (up to 12 points, values and
weights in (0, 2]); forward and reverse exponent lists follow the regions of
the sharpened inequality.

Every exponent of ``verify_campaign``, ``means_campaign``,
``sharpness_campaign`` and ``factor_grid`` passes the exponent rule,
``measure.check_p_value``, before any work; the kernels accept every p != 0.

The campaigns are batched over stacked arrays, not one Python call per
instance: ``verify_campaign`` draws the instances of one exponent into
zero-padded (trials, max_points) arrays with a point mask and evaluates
them with one ``main_sides_batch`` call; ``schatten_campaign`` builds each
dimension's PSD pairs once, as (trials, d, d) stacks, and evaluates every
exponent on them; ``factor_grid`` is one array evaluation.
``means_campaign`` checks the pairs of each exponent as arrays, in blocks of
_MEANS_BLOCK trials, and the witness grid of ``sharpness_campaign``'s probe is
one array evaluation.

The draws are not made one numpy call per instance either, yet every seed
keeps its meaning: ``_draw_stack`` reads the PCG64 words that the calls of
``random_instance`` would read, by numpy's own rules, and leaves the
generator where they would leave it; ``random_psd_stack`` computes the PCG64
states of all its per-matrix generators at once.
"""
from __future__ import annotations

import numpy as np

from .inequality import main_sides_batch
from .means import (
    _agm_chain,
    _log_mean_gap,
    _power_mean,
    constant_factors,
    sharpness_probe,
)
from .measure import (
    SLACK, MeasureSpace, SimpleFunction, check_p_value, forward_region, relative_violation,
)
from .errors import InvalidDraw, NumericRange
from .precision import backend, require_finite
from .schatten import _SpectralPair, random_psd_stack

FORWARD_PS = (0.3, 0.7, 2.5, 3.0, 4.5, 9.0)
REVERSE_PS = (-3.0, -0.7, 1.2, 1.8)
DEFAULT_TRIALS = 2000
MAX_POINTS = 12

MEANS_TRIALS = 100
# Trials of one exponent that means_campaign evaluates as one set of arrays:
# enough to spread numpy's cost per call, few enough that a 50-digit block
# holds tens of thousands of mpf, not millions.
_MEANS_BLOCK = 1024

SCHATTEN_PS = (2.0, 4.0, 8.0, 16.0)
SCHATTEN_DIMS = (2, 3, 4, 5, 6)
SCHATTEN_TRIALS = 500

# Relative tolerances of the dominance check (p >= 2) and the trace identity
DOMINANCE_SLACK = 1e-12
IDENTITY_SLACK = 1e-12


def _check_draws(seed: int, trials: int) -> None:
    """A campaign needs a seed numpy accepts and at least one trial, so that
    it never passes on zero instances."""
    if seed < 0:
        raise InvalidDraw(f"seed must be non-negative, got {seed}")
    if trials < 1:
        raise InvalidDraw(f"trials must be positive, got {trials}")


def _positive_uniform(u: np.ndarray) -> np.ndarray:
    """Map uniforms on [0, 1) to (0, 2]."""
    return 2.0 * (1.0 - u)


def random_instance(
    rng: np.random.Generator, max_points: int = MAX_POINTS
) -> tuple[SimpleFunction, SimpleFunction, MeasureSpace]:
    """One random instance: the point count n in [1, max_points], then n
    values of f, n of g and n weights, each uniform on (0, 2]."""
    if max_points < 1:
        raise InvalidDraw(f"max_points must be at least 1, got {max_points}")
    n = int(rng.integers(1, max_points + 1))
    u = _positive_uniform(rng.random(3 * n))  # the same stream as three draws of n
    return SimpleFunction(u[:n]), SimpleFunction(u[n : 2 * n]), MeasureSpace(u[2 * n :])


_MASK32 = 0xFFFFFFFF


def _draw_stack(
    rng: np.random.Generator, trials: int, max_points: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(f, g, w, mask) of ``trials`` calls of ``random_instance``, zero-padded
    to max_points, leaving ``rng`` in the state those calls would leave.

    The draws are read from the PCG64 words themselves, as numpy reads them:
    ``integers(1, max_points + 1)`` takes a 32-bit half of a word, the low
    half first with the high half held for the next call, and rejects by
    Lemire's rule while (x * max_points) mod 2^32 < 2^32 mod max_points;
    ``random`` takes whole words as (word >> 11) * 2^-53.  Only the walk
    over the point counts is a Python loop; ``rng`` is then advanced by the
    words used and given back its held half.
    """
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, np.random.PCG64):
        raise InvalidDraw(
            f"stacked draws need a PCG64 generator, got {type(bit_generator).__name__}"
        )
    entry = bit_generator.state
    copy = np.random.PCG64(0)
    copy.state = entry
    words = copy.random_raw(trials * (1 + 3 * max_points))  # enough unless rejected
    has_half, half = entry["has_uint32"], entry["uinteger"]
    threshold = (1 << 32) % max_points
    counts, starts = [], []
    pos = 0
    for _ in range(trials):
        n = 1  # numpy takes no draw for max_points = 1
        while max_points > 1:  # next_uint32 until Lemire's rule accepts
            if has_half:
                x, has_half = half, 0
            else:
                if pos >= len(words):  # rejections used up the bound
                    words = np.concatenate([words, copy.random_raw(pos + 1 - len(words))])
                word = int(words[pos])
                pos += 1
                x, half, has_half = word & _MASK32, word >> 32, 1
            m = x * max_points
            if m & _MASK32 >= threshold:
                n = (m >> 32) + 1
                break
        counts.append(n)
        starts.append(pos)
        pos += 3 * n
    if pos > len(words):
        words = np.concatenate([words, copy.random_raw(pos - len(words))])
    bit_generator.advance(pos)  # clears the held half
    state = bit_generator.state
    state["has_uint32"], state["uinteger"] = has_half, half
    bit_generator.state = state

    counts = np.array(counts, dtype=np.intp)
    mask = np.arange(max_points) < counts[:, None]
    first = np.array(starts, dtype=np.intp)[:, None] + np.arange(max_points)
    f, g, w = np.zeros((3, trials, max_points))
    for k, arr in enumerate((f, g, w)):
        raw = words[(first + k * counts[:, None])[mask]]
        arr[mask] = _positive_uniform((raw >> np.uint64(11)) * 2.0**-53)
    return f, g, w, mask


def _equality_instances(
    rng: np.random.Generator, max_points: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, g, w) of shape (2, n): an equal pair and a disjoint pair on one space,
    for the exact-equality checks."""
    n = int(rng.integers(2, max_points + 1))
    vals = _positive_uniform(rng.random(n))
    w = _positive_uniform(rng.random(n))
    mask = rng.random(n) < 0.5
    mask[0], mask[-1] = True, False  # keep both supports nonempty
    f = np.stack([vals, np.where(mask, vals, 0.0)])
    g = np.stack([vals, np.where(mask, 0.0, vals)])
    return f, g, np.stack([w, w])


def verify_campaign(
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
    forward_ps=FORWARD_PS,
    reverse_ps=REVERSE_PS,
    max_points: int = MAX_POINTS,
) -> dict:
    """Randomized two-sided campaign over both exponent regions.

    Checks, per instance: the region-correct direction and the exact
    equality cases (equal pair, disjoint pair) at every forward exponent, by
    ``measure.relative_violation``; and domination of the classical bound for
    p >= 2 within relative DOMINANCE_SLACK.  Returns a JSON-ready summary.

    The ``trials`` instances of each exponent are drawn into one stack, in
    the order the random stream has always been consumed (the instances of
    each forward exponent, then of each reverse exponent, then one equality
    pair per forward exponent), and evaluated by one ``main_sides_batch``
    call.
    """
    _check_draws(seed, trials)
    if max_points < 2:
        # each equality pair has one point in each support
        raise InvalidDraw(f"max_points must be at least 2, got {max_points}")
    for p in (*forward_ps, *reverse_ps):
        check_p_value(p)
    rng = np.random.default_rng(seed)
    per_region_failures = {"forward": 0, "reverse": 0, "dominance": 0, "equality": 0}
    max_violation = 0.0
    checked = 0

    for region, ps in (("forward", forward_ps), ("reverse", reverse_ps)):
        for p in ps:
            f, g, w, mask = _draw_stack(rng, trials, max_points)
            sides = main_sides_batch(f, g, w, p, mask)
            checked += trials
            v = relative_violation(sides.lhs, sides.rhs, forward=region == "forward")
            max_violation = max(max_violation, float(v.max(initial=0.0)))
            per_region_failures[region] += int(np.count_nonzero(v > SLACK))
            if region == "forward" and p >= 2.0:
                # NaN where gamma is undefined compares False: no check there
                dominated = sides.rhs > sides.carbery_rhs * (1.0 + DOMINANCE_SLACK)
                per_region_failures["dominance"] += int(np.count_nonzero(dominated))

    for p in forward_ps:
        f, g, w = _equality_instances(rng, max_points)
        sides = main_sides_batch(f, g, w, p)
        checked += 2
        gap = np.abs(relative_violation(sides.lhs, sides.rhs, forward=True))
        max_violation = max(max_violation, float(gap.max(initial=0.0)))
        per_region_failures["equality"] += int(np.count_nonzero(gap > SLACK))

    return {
        "seed": seed,
        "trials": trials,
        "instances_checked": checked,
        "forward_ps": list(forward_ps),
        "reverse_ps": list(reverse_ps),
        "per_region_failures": per_region_failures,
        "max_violation": max_violation,
        "passed": all(v == 0 for v in per_region_failures.values()),
    }


def schatten_campaign(
    seed: int = 0,
    trials: int = SCHATTEN_TRIALS,
    ps=SCHATTEN_PS,
    dims=SCHATTEN_DIMS,
) -> dict:
    """Seeded trials of the trace bound and the rearrangement link.

    For every (p, dim) pair, random PSD pairs are drawn deterministically;
    the bound and the rearrangement inequality are checked by
    ``measure.relative_violation``, the p = 2 identity within IDENTITY_SLACK.

    Matrix seeds depend on (seed, dim, trial) only, so each dimension's
    ``trials`` pairs are built once, as (trials, dim, dim) stacks with their
    eigendecompositions, and every exponent is evaluated on those stacks.
    """
    _check_draws(seed, trials)
    failures = {"bound": 0, "rearrangement": 0, "identity_p2": 0}
    max_violation = 0.0
    checked = 0
    for dim in dims:
        base = seed * 1_000_003 + dim * 1_009
        pair = _SpectralPair(
            random_psd_stack(dim, [base + 2 * t for t in range(trials)]),
            random_psd_stack(dim, [base + 2 * t + 1 for t in range(trials)]),
        )
        for p in ps:
            rep = pair.verify(p)
            checked += trials
            v = relative_violation(rep.lhs, rep.rhs, forward=True)
            max_violation = max(max_violation, float(v.max(initial=0.0)))
            failures["bound"] += int(np.count_nonzero(v > SLACK))
            if p == 2.0:
                off = np.abs(v) > IDENTITY_SLACK
                failures["identity_p2"] += int(np.count_nonzero(off))
            lt_v = relative_violation(*pair.rearrangement(p), forward=True)
            max_violation = max(max_violation, float(lt_v.max(initial=0.0)))
            failures["rearrangement"] += int(np.count_nonzero(lt_v > SLACK))
    return {
        "seed": seed,
        "trials": trials,
        "ps": list(ps),
        "dims": list(dims),
        "instances_checked": checked,
        "failures": failures,
        "max_violation": max_violation,
        "passed": all(v == 0 for v in failures.values()),
    }


def factor_grid(
    alpha_min: float,
    alpha_max: float,
    p_min: float,
    p_max: float,
    n_alpha: int,
    n_p: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense evaluation of the constant-ratio factor at its natural power 2/p.

    Returns (alphas, ps, values) with values[i, j] = factor(alphas[j], ps[i]):
    one row per exponent, alpha varying fastest.  The whole grid is one
    log-domain array evaluation by ``constant_factors``; the endpoints
    alpha in {0, 1} give 1 for p > 0.
    """
    alphas = np.linspace(alpha_min, alpha_max, n_alpha)
    ps = np.linspace(p_min, p_max, n_p)
    for p in ps.tolist():
        check_p_value(p)
    col = ps[:, None]
    q = 2.0 / col
    values = np.asarray(constant_factors(alphas[None, :], col, q), dtype=float)
    return alphas, ps, values


def means_campaign(seed: int = 0, trials: int = MEANS_TRIALS, ps=(3.0,)) -> dict:
    """Seeded checks of the mean-chain ordering and the power-mean form.

    For each p, ``trials`` pairs (x, y) uniform on (0, 2] are drawn.  For
    p > 2 the four terms of ``_agm_chain`` must be non-increasing and
    nonnegative within 1e-12.  For every p the power-mean form
    M_1^p vs ((M_p + M_-p)/2)^(p-1) M_p must hold by the rule of
    ``measure.relative_violation``.  The mode of ``SHARPLP_PRECISION`` is read once,
    and under ``high`` every step, the checks included, runs at 50 digits.
    In doubles, a side that is not finite, or two sides that both underflow
    to 0, raise NumericRange.

    The pairs of one p are drawn and checked as arrays, _MEANS_BLOCK trials
    at a time, from the random stream that one draw of two per trial reads;
    the example fields are those of the first trial.
    """
    _check_draws(seed, trials)
    for p in ps:
        check_p_value(p)
    rng = np.random.default_rng(seed)
    failures, max_gap = 0, 0.0
    example = example_sides = None
    with backend() as xp, np.errstate(over="ignore"):  # a double overflows to inf
        for p in ps:
            # p - 1 is formed in the backend: in doubles p - 1.0 == p for |p| >= 2^53
            pv = xp.asarray(p)
            for start in range(0, trials, _MEANS_BLOCK):
                n = min(_MEANS_BLOCK, trials - start)
                x, y = _positive_uniform(rng.random((n, 2))).T
                logs = _log_mean_gap(xp, x, y)  # every mean below is formed from these
                if p > 2.0:
                    chain = _agm_chain(xp, x, y, p, logs)
                    t = chain.terms
                    ordered = (t[0] >= t[1] - 1e-12) & (t[1] >= t[2] - 1e-12)
                    ordered &= (t[2] >= t[3] - 1e-12) & (t[3] >= -1e-12)
                    failures += int(np.count_nonzero(~ordered))
                    if example is None:
                        example = {
                            "x": x[0], "y": y[0], "p": p,
                            "A": chain.A[0], "G": chain.G[0],
                            "Mp": chain.Mp[0], "Mp_dual": chain.Mp_dual[0],
                            "terms": [term[0] for term in t],
                        }
                m1 = _power_mean(xp, logs, 1.0)
                mp_ = chain.Mp if p > 2.0 else _power_mean(xp, logs, p)
                mmp = _power_mean(xp, logs, -p)
                lhs = m1 ** pv
                rhs = ((mp_ + mmp) / 2.0) ** (pv - 1.0) * mp_
                require_finite(p, lhs=lhs, rhs=rhs)
                if ((lhs == 0.0) & (rhs == 0.0)).any():
                    raise NumericRange(
                        f"both sides at exponent {p!r} underflow to 0 in double precision"
                    )
                if example_sides is None:
                    example_sides = {"x": x[0], "y": y[0], "p": p, "lhs": lhs[0], "rhs": rhs[0]}
                v = relative_violation(lhs, rhs, forward_region(p))
                max_gap = max(max_gap, float(v.max()))
                failures += int(np.count_nonzero(v > SLACK))
    return {
        "seed": seed,
        "trials": trials,
        "ps": list(ps),
        "failures": failures,
        "max_violation": max_gap,
        "example_chain": example,
        "example_mean_sides": example_sides,
        "passed": failures == 0,
    }


def sharpness_campaign(ps, r: float) -> list[dict]:
    """``sharpness_probe`` at each p with coupling power r times 2/p.

    A probe passes when its measured slope at s = 0 is within 1% of p(1-r)
    and a sign witness was found exactly where one is expected: r > 1 for
    p > 2, r < 1 for p < 0 and for 0 < p < 2.
    """
    for p in ps:
        check_p_value(p)
    results = []
    for p in ps:
        probe = sharpness_probe(p, r)
        witness_expected = (p > 2.0 and r > 1.0) or (
            r < 1.0 and (p < 0.0 or (0.0 < p < 2.0 and p != 1.0))
        )
        slope_error = abs(probe.slope_measured - probe.slope_predicted)
        slope_ok = slope_error <= 0.01 * max(abs(probe.slope_predicted), 1e-6)
        results.append({
            "p": p, "r": r,
            "slope_predicted": probe.slope_predicted,
            "slope_measured": probe.slope_measured,
            "witness_s": probe.witness_s,
            "witness_expected": witness_expected,
            "passed": slope_ok and (probe.witness_s is not None) == witness_expected,
        })
    return results
