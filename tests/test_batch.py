"""The batch kernels: agreement with the 50-digit path and with a loop over
instances, and every check of the scalar path applied to each row or member."""
import dataclasses
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from sharplp import campaigns
from sharplp import means as means_module
from sharplp.campaigns import (
    MAX_POINTS,
    _draw_stack,
    _equality_instances,
    _positive_uniform,
    factor_grid,
    means_campaign,
    random_instance,
    schatten_campaign,
    verify_campaign,
)
from sharplp.errors import (
    DimOutOfRange,
    EndpointWithNegativeP,
    ExponentOutOfRange,
    InvalidDraw,
    NegativeInput,
    NonpositiveValueForNegativeP,
    NotPSD,
    NumericRange,
    OutOfDomain,
    UnsupportedExponent,
    ZeroExponent,
    ZeroNorm,
)
from sharplp.inequality import main_sides, main_sides_batch
from sharplp.means import (
    _agm_chain,
    _g_rp,
    _log_mean_gap,
    _power_mean,
    constant_factor,
    constant_factors,
    sharpness_probe,
)
from sharplp.measure import (
    SLACK,
    MeasureSpace,
    SimpleFunction,
    forward_region,
    lp_functional_rows,
    lp_norm,
    lp_norm_rows,
    overlap_norm,
    overlap_norm_rows,
    overlap_rows,
    power_rows,
    relative_violation,
)
from sharplp.precision import backend, mp_workdps
from sharplp.schatten import (
    PSDStack,
    _SpectralPair,
    lieb_thirring_check,
    lieb_thirring_stack,
    random_psd,
    random_psd_stack,
    schatten_verify,
    schatten_verify_stack,
)

HIGH = {"SHARPLP_PRECISION": "high"}


def _rows(stack):
    """The unpadded rows of an (f, g, w, mask) stack as scalar objects."""
    f, g, w, mask = stack
    for i, row in enumerate(mask):
        yield SimpleFunction(f[i, row]), SimpleFunction(g[i, row]), MeasureSpace(w[i, row])


def _assert_rows_match_high_precision(stack, p):
    f, g, w, mask = stack
    sides = main_sides_batch(f, g, w, p, mask)
    with mock.patch.dict(os.environ, HIGH):
        reports = [main_sides(*row, p) for row in _rows(stack)]
    for i, rep in enumerate(reports):
        assert float(sides.lhs[i]) == pytest.approx(float(rep.lhs), rel=1e-12)
        assert float(sides.rhs[i]) == pytest.approx(float(rep.rhs), rel=1e-12)
        assert float(sides.gamma_tilde[i]) == pytest.approx(float(rep.gamma_tilde), rel=1e-12)


def _padded(rows, width):
    """Stack rows of (f, g, w) lists, zero-padded to ``width`` points."""
    shape = (len(rows), width)
    f, g, w = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    mask = np.zeros(shape, dtype=bool)
    for i, (fi, gi, wi) in enumerate(rows):
        n = len(fi)
        f[i, :n], g[i, :n], w[i, :n], mask[i, :n] = fi, gi, wi, True
    return f, g, w, mask


FIXED_ROWS = [
    ([0.7], [1.3], [0.4]),  # n = 1
    ([0.2, 1.9, 0.5, 1.1], [1.4, 0.3, 0.8, 0.6], [1.0, 0.5, 2.0, 0.7]),
    ([1.5, 0.05], [0.9, 1.2], [0.3, 1.6]),
]


@pytest.mark.parametrize("p", [-12.0, -3.0, -0.7, 0.3, 1.0, 1.5, 2.0, 3.0, 9.5, 14.0])
def test_batch_rows_match_high_precision(p):
    _assert_rows_match_high_precision(_padded(FIXED_ROWS, 6), p)


_value = st.floats(0.05, 2.0)
_exponent = st.one_of(
    st.floats(-14.0, -8.5),   # log domain, p < 0
    st.floats(-8.0, -0.05),
    st.floats(0.05, 0.95),
    st.floats(1.05, 1.95),    # reverse range 1 < p < 2
    st.floats(2.05, 8.0),
    st.floats(8.5, 14.0),     # log domain, p > 0
)


@st.composite
def _stacks(draw):
    width = draw(st.integers(1, 7))
    counts = draw(st.lists(st.integers(1, width), min_size=1, max_size=5))
    rows = [
        tuple(draw(st.lists(_value, min_size=n, max_size=n)) for _ in range(3))
        for n in counts + [1]  # always one n = 1 row
    ]
    return _padded(rows, width)


@settings(max_examples=60, deadline=None)
@given(stack=_stacks(), p=_exponent)
def test_batch_rows_match_high_precision_property(stack, p):
    _assert_rows_match_high_precision(stack, p)


def _assert_rows_equal_scalars(got, want, high):
    """Identical mpf at 50 digits; in doubles numpy's pairwise row sum may
    group a padded row differently from the unpadded one."""
    assert len(got) == len(want)
    if high:
        assert [x._mpf_ for x in got] == [x._mpf_ for x in want]
    else:
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


# p = 12 takes the log-domain branch of the doubles, and at p = -3 a padding
# 0 reaching 0^p would make its row infinite
@pytest.mark.parametrize("high", [False, True], ids=["double", "high"])
@pytest.mark.parametrize("p", [-3.0, 0.5, 3.0, 12.0])
def test_norm_rows_equal_the_scalar_norms(p, high):
    f, g, w, mask = _padded(FIXED_ROWS, 6)
    with mock.patch.dict(os.environ, HIGH if high else {}):
        norms = lp_norm_rows(f, w, p, mask)
        overlaps = overlap_norm_rows(f, g, w, p, mask)
        rows = list(_rows((f, g, w, mask)))
        want_norms = [lp_norm(fi, space, p) for fi, _, space in rows]
        want_overlaps = [overlap_norm(fi, gi, space, p) for fi, gi, space in rows]
    assert norms.dtype == (object if high else float)
    _assert_rows_equal_scalars(norms, want_norms, high)
    _assert_rows_equal_scalars(overlaps, want_overlaps, high)
    assert all(np.isfinite(float(x)) and x > 0 for x in list(norms) + list(overlaps))


def test_padding_is_never_read():
    f, g, w, mask = _padded(FIXED_ROWS, 5)
    clean = main_sides_batch(f, g, w, -3.0, mask)
    for arr in (f, g, w):
        arr[~mask] = np.nan
    dirty = main_sides_batch(f, g, w, -3.0, mask)
    np.testing.assert_array_equal(dirty.lhs, clean.lhs)
    np.testing.assert_array_equal(dirty.rhs, clean.rhs)


def test_batch_checks_every_row():
    f, g, w, mask = _padded(FIXED_ROWS, 4)
    with pytest.raises(ZeroExponent):
        main_sides_batch(f, g, w, 0.0, mask)
    with pytest.raises(ZeroExponent):
        lp_functional_rows(f, w, 0.0, mask)

    def spoiled(arr, value, row=2, col=1):
        out = arr.copy()
        out[row, col] = value
        return out

    with pytest.raises(ValueError, match="finite"):
        main_sides_batch(spoiled(f, np.inf), g, w, 3.0, mask)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="point masses"):
            main_sides_batch(f, g, spoiled(w, bad), 3.0, mask)
    with pytest.raises(NegativeInput):
        main_sides_batch(f, spoiled(g, -0.5), w, 3.0, mask)
    for p in (-2.0, 1.5):
        with pytest.raises(NonpositiveValueForNegativeP):
            main_sides_batch(spoiled(f, 0.0), g, w, p, mask)
    zero = f.copy(), g.copy()
    for arr in zero:
        arr[2] = 0.0
    with pytest.raises(ZeroNorm):
        main_sides_batch(*zero, w, 3.0, mask)
    empty = mask.copy()
    empty[1] = False
    with pytest.raises(ValueError, match="at least one point"):
        main_sides_batch(f, g, w, 3.0, empty)


@pytest.mark.parametrize("p", [700.0, 1100.0, -700.0, 1e-8])
def test_non_finite_sides_raise(p):
    # no side may come back as inf or NaN: NaN > slack is False and would pass
    f, g, w, mask = _padded(FIXED_ROWS + [([1.9, 0.2], [1.8, 0.3], [0.2, 0.3])], 4)
    with pytest.raises(NumericRange):
        main_sides_batch(f, g, w, p, mask)
    with pytest.raises(NumericRange):
        main_sides(*list(_rows((f, g, w, mask)))[-1], p)


def test_factor_grid_matches_high_precision():
    # against the independent 50-digit formula, not through SHARPLP_PRECISION
    for window in ((0.0, 1.0, 0.25, 4.0, 9, 8), (0.05, 0.95, -3.0, -0.4, 7, 5)):
        alphas, ps, values = factor_grid(*window)
        want = [[float(oracle.factor(a, p, 2.0 / p)) for a in alphas] for p in ps]
        np.testing.assert_allclose(values, want, rtol=1e-12, atol=0.0)
    _, _, values = factor_grid(0.0, 1.0, 0.25, 4.0, 9, 8)
    assert np.all(values[:, 0] == 1.0) and np.all(values[:, -1] == 1.0)


def test_factor_grid_raises_where_the_scalar_path_does():
    with pytest.raises(EndpointWithNegativeP):
        constant_factor(1.0, -2.0, -1.0)
    with pytest.raises(EndpointWithNegativeP):
        factor_grid(0.5, 1.0, -2.0, -1.0, 3, 3)
    with pytest.raises(OutOfDomain):
        constant_factor(-0.1, 2.0, 1.0)
    with pytest.raises(OutOfDomain):
        factor_grid(-0.1, 0.5, 2.0, 3.0, 3, 3)
    with pytest.raises(OutOfDomain):
        constant_factors(np.array([0.2, np.nan]), 2.0, 1.0)
    with pytest.raises(ZeroExponent):
        factor_grid(0.1, 0.5, -1.0, 1.0, 3, 3)  # the middle row is p = 0


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 9])
def test_stacked_psd_builder_matches_random_psd(dim):
    seeds = [0, 1, 17, 2 * 1_000_003 + dim * 1_009 + 5]
    stack = random_psd_stack(dim, seeds)
    for k, seed in enumerate(seeds):
        one = random_psd(dim, seed)
        np.testing.assert_array_equal(stack.entries[k], one.entries)
        np.testing.assert_array_equal(stack.eigvals[k], one.eigenvalues())
        # the construction every (dim, seed) has always meant
        rng = np.random.default_rng([dim, seed])
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        G /= math.sqrt(2.0)
        M = G @ G.conj().T
        np.testing.assert_array_equal(one.entries, (M + M.conj().T) / 2.0)


def _stack_with(member, k=3):
    entries = np.array(random_psd_stack(2, range(6)).entries)
    entries[k] = member
    return entries


def test_stack_rejects_one_bad_member():
    with pytest.raises(NotPSD, match="matrix 3 is not Hermitian"):
        PSDStack(_stack_with([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(NotPSD, match="matrix 3: minimum eigenvalue"):
        PSDStack(_stack_with([[1.0, 0.0], [0.0, -1.0]]))
    # within the clamp tolerance the eigenvalue is set to zero
    stack = PSDStack(_stack_with([[1.0, 0.0], [0.0, -1e-13]]))
    assert stack.eigvals[3].min() == 0.0
    with pytest.raises(DimOutOfRange):
        PSDStack(np.zeros((2, 0, 0)))
    for dim in (0, 65):
        with pytest.raises(DimOutOfRange):
            random_psd_stack(dim, [1])


def test_stack_trace_checks():
    A = random_psd_stack(3, [1, 2])
    B = random_psd_stack(3, [3, 4])
    # sums of non-negative terms: real, and exactly 0 for orthogonal ranges
    P = PSDStack(np.array([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])]))
    Q = PSDStack(np.array([np.diag([0.0, 2.0]), np.diag([3.0, 0.0])]))
    for a, b in ((A, B), (B, A), (P, Q)):
        for q in (0.25, 1.0, 2.0, 8.0):  # the mixed trace at p = 2q
            val = _SpectralPair(a, b).trace(q)
            assert val.dtype == np.float64 and val.shape == (2,)
            assert np.all(val >= 0.0)
    assert schatten_verify_stack(P, Q, 4.0).mixed[0] == 0.0


def test_stack_exponent_and_shape_checks():
    A = random_psd_stack(3, [1, 2])
    B = random_psd_stack(3, [3, 4])
    for p in (3.0, 6.0, 1.0):
        with pytest.raises(UnsupportedExponent):
            schatten_verify_stack(A, B, p)
    assert schatten_verify_stack(A, B, 3.0, allow_unproven=True).lhs.shape == (2,)
    with pytest.raises(ExponentOutOfRange):
        lieb_thirring_stack(A, B, 0.5)
    with pytest.raises(ValueError, match="dimension mismatch"):
        schatten_verify_stack(A, random_psd_stack(3, [5]), 4.0)
    with pytest.raises(NumericRange):
        schatten_verify_stack(A, B, 1024.0)


def _verify_loop(seed, trials, forward_ps, reverse_ps, slack=1e-9, dominance_slack=1e-12):
    """The campaign one instance at a time, as it was written before batching."""
    rng = np.random.default_rng(seed)
    failures = {"forward": 0, "reverse": 0, "dominance": 0, "equality": 0}
    max_violation = 0.0
    for region, ps in (("forward", forward_ps), ("reverse", reverse_ps)):
        for p in ps:
            for _ in range(trials):
                rep = main_sides(*random_instance(rng), p)
                diff = rep.lhs - rep.rhs if region == "forward" else rep.rhs - rep.lhs
                v = diff / max(abs(rep.lhs), abs(rep.rhs), 1e-300)
                max_violation = max(max_violation, v)
                failures[region] += int(v > slack)
                if region == "forward" and p >= 2.0 and rep.carbery_rhs is not None:
                    failures["dominance"] += int(
                        rep.rhs > rep.carbery_rhs * (1.0 + dominance_slack)
                    )
    for p in forward_ps:
        f, g, w = _equality_instances(rng, MAX_POINTS)
        for i in range(2):
            rep = main_sides(SimpleFunction(f[i]), SimpleFunction(g[i]), MeasureSpace(w[i]), p)
            gap = abs(rep.lhs - rep.rhs) / max(rep.lhs, rep.rhs)
            max_violation = max(max_violation, gap)
            failures["equality"] += int(gap > slack)
    return failures, max_violation


@pytest.mark.parametrize("seed", [5, 9001])
def test_verify_campaign_matches_instance_loop(seed):
    fwd, rev = (0.3, 3.0, 9.0), (-3.0, 1.2)
    summary = verify_campaign(seed=seed, trials=150, forward_ps=fwd, reverse_ps=rev)
    failures, max_violation = _verify_loop(seed, 150, fwd, rev)
    assert summary["per_region_failures"] == failures
    # rows padded to 12 points are summed in another order than unpadded ones
    assert summary["max_violation"] == pytest.approx(max_violation, rel=0.0, abs=1e-14)


def test_schatten_campaign_matches_pair_loop():
    trials, ps, dims = 12, (2.0, 4.0, 16.0), (1, 3, 6)
    summary = schatten_campaign(seed=4, trials=trials, ps=ps, dims=dims)
    max_violation = 0.0
    for p in ps:
        for dim in dims:
            base = 4 * 1_000_003 + dim * 1_009
            for t in range(trials):
                A, B = random_psd(dim, base + 2 * t), random_psd(dim, base + 2 * t + 1)
                rep = schatten_verify(A, B, p)
                lt_lhs, lt_rhs = lieb_thirring_check(A, B, p)
                max_violation = max(
                    max_violation,
                    (rep.lhs - rep.rhs) / max(rep.lhs, rep.rhs),
                    (lt_lhs - lt_rhs) / max(lt_lhs, lt_rhs, 1e-300),
                )
    assert summary["max_violation"] == max_violation
    assert summary["failures"] == {"bound": 0, "rearrangement": 0, "identity_p2": 0}
    assert summary["instances_checked"] == trials * len(ps) * len(dims)


@pytest.mark.parametrize(
    "ps", [(2.0,), (2.0, 4.0, 8.0, 16.0), (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)]
)
def test_schatten_campaign_solves_each_eigenproblem_once(monkeypatch, ps):
    # the spectra of A + B and B A^2 B do not depend on p
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(M, *args, **kwargs):
        calls.append(M.shape)
        return eigvalsh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    dims = (1, 3, 6)
    summary = schatten_campaign(seed=5, trials=4, ps=ps, dims=dims)
    assert summary["passed"]
    assert len(calls) <= 2 * len(dims)


def test_high_precision_verify_is_fifty_digits_throughout():
    # f + g, fg and the exponents p - 1 and -2/p are formed at 50 digits, so
    # the equality pairs agree far below double roundoff (2.7e-16 otherwise)
    with mock.patch.dict(os.environ, HIGH):
        summary = verify_campaign(seed=0, trials=20)
    assert summary["passed"]
    assert summary["max_violation"] < 1e-40


def test_campaigns_with_no_trials():
    # a campaign on zero instances would pass without checking anything
    for campaign in (verify_campaign, schatten_campaign, means_campaign):
        with pytest.raises(InvalidDraw):
            campaign(seed=2, trials=0)


def _two_pass_gamma(f, g, w, mask, p, both):
    """gamma as main_sides_batch formed it before it reused its functionals:
    two more power_rows passes, for the norms of f and g."""
    with backend() as xp:
        ov = overlap_rows(xp, f, g, w, p, mask)
        norm = lambda h: power_rows(xp, h[both], w[both], mask[both], p, root=True)
        return ov[both] / (norm(f) * norm(g))


def _gamma_rows(p):
    f, g, w, mask = _draw_stack(np.random.default_rng(7), 40, MAX_POINTS)
    if forward_region(p):
        f[0] = 0.0  # gamma is NaN on a row where f vanishes
    gamma = main_sides_batch(f, g, w, p, mask).gamma
    both = np.array([not math.isnan(x) for x in gamma])
    assert both.sum() == 40 - forward_region(p)
    return gamma[both], _two_pass_gamma(f, g, w, mask, p, both)


@pytest.mark.parametrize("p", [-8.0, -3.0, -0.7, 0.3, 0.7, 1.2, 1.8, 2.5, 3.0, 4.5, 8.0])
def test_gamma_equals_two_pass_norms_in_doubles(p):
    got, want = _gamma_rows(p)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("p", [-12.0, 9.0, 14.0])
def test_gamma_near_two_pass_norms_in_the_log_domain(p):
    # above |p| = 8 a root of the functional may move in the last bit
    got, want = _gamma_rows(p)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("p", [-12.0, -3.0, 0.7, 1.8, 3.0, 9.0])
def test_gamma_equals_two_pass_norms_at_fifty_digits(p):
    with mock.patch.dict(os.environ, HIGH):
        got, want = _gamma_rows(p)
    assert [x._mpf_ for x in got] == [x._mpf_ for x in want]


def _means_per_trial(rng, trials, ps):
    """The fields of ``means_campaign`` that depend on the draws, from one
    Python pass per trial with scalar kernels: the reference the blocked
    campaign is checked against.  ``rng`` is advanced as the campaign
    advances its own."""
    failures, max_gap = 0, 0.0
    example = example_sides = None
    with backend() as xp:
        for p in ps:
            pv = xp.asarray(p)
            for _ in range(trials):
                x, y = _positive_uniform(rng.random(2))
                logs = _log_mean_gap(xp, x, y)
                if p > 2.0:
                    chain = campaigns._agm_chain(xp, x, y, p, logs)
                    terms = chain.terms
                    ordered = all(terms[i] >= terms[i + 1] - 1e-12 for i in range(3))
                    failures += not (ordered and terms[3] >= -1e-12)
                    if example is None:
                        example = {
                            "x": x, "y": y, "p": p,
                            "A": chain.A, "G": chain.G,
                            "Mp": chain.Mp, "Mp_dual": chain.Mp_dual,
                            "terms": list(terms),
                        }
                m1 = _power_mean(xp, logs, 1.0)
                mp_ = chain.Mp if p > 2.0 else _power_mean(xp, logs, p)
                mmp = _power_mean(xp, logs, -p)
                lhs = xp.asarray(m1) ** pv
                rhs = xp.asarray((mp_ + mmp) / 2.0) ** (pv - 1.0) * mp_
                if example_sides is None:
                    example_sides = {"x": x, "y": y, "p": p, "lhs": lhs, "rhs": rhs}
                v = relative_violation(lhs, rhs, forward_region(p))
                max_gap = max(max_gap, v)
                failures += bool(v > SLACK)
    return {
        "failures": failures,
        "max_violation": max_gap,
        "example_chain": example,
        "example_mean_sides": example_sides,
    }


def _assert_same(got, want, high):
    """Equal by ``_mpf_`` at 50 digits; in doubles within the golden
    tolerances, relative 1e-12 or absolute 1e-14 near zero."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _assert_same(got[key], want[key], high)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w, high)
    elif high and hasattr(want, "_mpf_"):
        assert got._mpf_ == want._mpf_
    elif high or isinstance(want, (int, type(None))):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def _assert_means_matches_per_trial(seeds, trials, ps, monkeypatch):
    made = []
    default_rng = np.random.default_rng
    # the campaign's generator, kept to compare where it is left
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: made.append(default_rng(seed)) or made[-1]
    )
    high = os.environ.get("SHARPLP_PRECISION") == "high"
    failures = []
    for seed in seeds:
        made.clear()
        summary = means_campaign(seed=seed, trials=trials, ps=ps)
        rng = np.random.Generator(np.random.PCG64(seed))
        want = _means_per_trial(rng, trials, ps)
        _assert_same({key: summary[key] for key in want}, want, high)
        assert summary["passed"] == (want["failures"] == 0)
        assert made[0].bit_generator.state == rng.bit_generator.state
        failures.append(summary["failures"])
    return failures


@pytest.mark.parametrize("trials", [1, 7, 100, "block+1"])
@pytest.mark.parametrize("ps", [(3.0,), (0.5, -2.0, 1.5, 9.0)], ids=str)
@pytest.mark.parametrize("mode", ["double", "high"])
def test_means_campaign_matches_per_trial_reference(mode, ps, trials, monkeypatch):
    # the 50-digit reference takes about 0.25 ms a trial: there a block of 32
    # trials lets 100 trials and one block plus one cross block boundaries in
    # well under a second; the campaign's own block is checked below
    monkeypatch.setenv("SHARPLP_PRECISION", mode)
    if mode == "high":
        monkeypatch.setattr(campaigns, "_MEANS_BLOCK", 32)
    if trials == "block+1":
        trials = campaigns._MEANS_BLOCK + 1
    _assert_means_matches_per_trial(range(6), trials, ps, monkeypatch)


def test_means_campaign_matches_per_trial_reference_across_its_block_at_50_digits(monkeypatch):
    monkeypatch.setenv("SHARPLP_PRECISION", "high")
    _assert_means_matches_per_trial([0], campaigns._MEANS_BLOCK + 1, (3.0,), monkeypatch)


@pytest.mark.parametrize("term", range(4))
def test_means_campaign_counts_failed_orderings_like_the_reference(term, monkeypatch):
    # the true chain never fails; one term moved by (x - 1)/10 breaks the
    # ordering, or term 3's sign, on some trials and not on others
    def skewed(xp, x, y, p, logs):
        chain = _agm_chain(xp, x, y, p, logs)
        terms = list(chain.terms)
        terms[term] = terms[term] + (x - 1.0) * 0.1
        return dataclasses.replace(chain, terms=tuple(terms))

    monkeypatch.setenv("SHARPLP_PRECISION", "double")
    monkeypatch.setattr(campaigns, "_agm_chain", skewed)
    failures = _assert_means_matches_per_trial(range(3), 100, (3.0, 9.0), monkeypatch)
    assert all(0 < n < 200 for n in failures)


def test_means_campaign_memory_is_bounded_by_its_block(monkeypatch):
    # drawn and checked at once, 200,000 trials would hold 29 MB
    monkeypatch.setenv("SHARPLP_PRECISION", "double")
    means_campaign(seed=0, trials=1)  # first-call allocations are not the campaign's
    tracemalloc.start()
    try:
        means_campaign(seed=0, trials=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_block = campaigns._MEANS_BLOCK * 2 * 8  # the bytes of one block's draws
    assert peak < 32 * one_block


@pytest.mark.parametrize("p, r", [(3.0, 1.1), (-1.5, 0.9), (0.5, 0.9), (6.0, 1.0)])
def test_sharpness_grid_equals_scalar_g_rp_at_50_digits(p, r, monkeypatch):
    grids = []

    def spy(xp, s, r, p):
        g = _g_rp(xp, s, r, p)
        if isinstance(s, np.ndarray):
            grids.append((s, g))
        return g

    monkeypatch.setenv("SHARPLP_PRECISION", "high")
    monkeypatch.setattr(means_module, "_g_rp", spy)
    sharpness_probe(p, r)
    [(grid, values)] = grids
    assert grid.shape == (means_module._WITNESS_POINTS,)
    with mp_workdps() as xp:
        want = [_g_rp(xp, float(s), r, p) for s in grid]
    assert [v._mpf_ for v in values] == [w._mpf_ for w in want]


def test_fifty_digit_means_and_sharpness_format_no_object_array(monkeypatch):
    # an mpf left of an object array first fails to convert it, and the
    # failure formats every element: 50 calls for 50 elements
    calls = []
    monkeypatch.setenv("SHARPLP_PRECISION", "high")
    with np.printoptions(formatter={"object": lambda v: calls.append(v) or "?"}):
        with mp_workdps() as xp:
            column = xp.asarray(np.linspace(1.0, 2.0, 50))
            column * xp.asarray(2.0)
            assert calls == []
            xp.asarray(2.0) * column
            assert len(calls) == 50
        calls.clear()
        means_campaign(seed=0, trials=50, ps=(3.0, -2.0, 0.5))
        for p, r in ((3.0, 1.1), (-1.5, 0.9)):
            sharpness_probe(p, r)
    assert calls == []
