import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharplp.campaigns import (
    factor_grid,
    means_campaign,
    sharpness_campaign,
    verify_campaign,
)
from sharplp.errors import (
    ExponentOutOfRange,
    MisalignedFunction,
    NegativeInput,
    NonpositiveValueForNegativeP,
    ZeroExponent,
    ZeroSumPoint,
)
from sharplp.measure import (
    ExponentRegion,
    MeasureSpace,
    RegionKind,
    SimpleFunction,
    _log_functional_rows,
    check_p_value,
    lp_functional,
    lp_functional_rows,
    lp_norm,
    overlap_norm,
    reduce_to_probability,
)

W11 = MeasureSpace([1.0, 1.0])


def test_space_validation():
    with pytest.raises(ValueError):
        MeasureSpace([])
    with pytest.raises(ValueError):
        MeasureSpace([1.0, 0.0])
    with pytest.raises(ValueError):
        MeasureSpace([1.0, -2.0])
    with pytest.raises(ValueError):
        MeasureSpace([1.0, math.inf])
    assert len(MeasureSpace([0.5])) == 1


def test_function_validation():
    with pytest.raises(ValueError):
        SimpleFunction([1.0, math.nan])
    f = SimpleFunction([1.0, 2.0])
    with pytest.raises(ValueError):
        f.values[0] = 5.0  # immutable


def test_region_classification():
    assert ExponentRegion.from_p(0.5).region is RegionKind.FORWARD
    assert ExponentRegion.from_p(3.0).region is RegionKind.FORWARD
    assert ExponentRegion.from_p(-2.0).region is RegionKind.REVERSE
    assert ExponentRegion.from_p(1.5).region is RegionKind.REVERSE
    assert ExponentRegion.from_p(1.0).region is RegionKind.BOUNDARY_P1
    assert ExponentRegion.from_p(2.0).region is RegionKind.BOUNDARY_P2
    assert ExponentRegion.from_p(0.0).region is RegionKind.UNDEFINED_P0


def test_lp_functional_examples():
    assert lp_functional(SimpleFunction([3, 4]), W11, 2) == 25.0
    # constant function: c^p * total mass
    w = MeasureSpace([0.3, 1.7, 2.0])
    c = 1.7
    for p in (-3.0, 0.5, 4.0, 11.0):
        got = lp_functional(SimpleFunction([c, c, c]), w, p)
        assert got == pytest.approx(c ** p * w.total(), rel=1e-13)
    assert lp_functional(SimpleFunction([2, 1]), W11, 4) == pytest.approx(17.0)


def test_lp_norm_examples():
    assert lp_norm(SimpleFunction([3, 4]), W11, 2) == pytest.approx(5.0)
    assert lp_norm(SimpleFunction([2, 2]), W11, -2) == pytest.approx(math.sqrt(2.0))
    assert lp_norm(SimpleFunction([1, 2]), W11, -1) == pytest.approx(2.0 / 3.0)


def test_lp_errors():
    with pytest.raises(ZeroExponent):
        lp_functional(SimpleFunction([1, 2]), W11, 0.0)
    with pytest.raises(MisalignedFunction):
        lp_functional(SimpleFunction([1, 2, 3]), W11, 2.0)
    with pytest.raises(NonpositiveValueForNegativeP):
        lp_functional(SimpleFunction([1, 0]), W11, -1.0)


def test_zero_values_positive_p():
    assert lp_functional(SimpleFunction([0, 0]), W11, 3.0) == 0.0
    assert lp_norm(SimpleFunction([0, 0]), W11, 3.0) == 0.0
    assert lp_norm(SimpleFunction([0, 0]), W11, 12.0) == 0.0


def test_log_domain_survives_extreme_exponents():
    f = SimpleFunction([10.0, 9.0])
    # the functional overflows double, its 1/p-th root must not
    assert lp_norm(f, W11, 400.0) == pytest.approx(10.0 * 2 ** 0.0, rel=1e-2)
    assert lp_norm(f, W11, -400.0) == pytest.approx(9.0, rel=1e-2)


def test_log_domain_agrees_with_direct():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        vals = 0.1 + 1.9 * rng.random(n)
        w = 0.1 + 1.9 * rng.random(n)
        for p in (-7.0, -2.5, 0.7, 3.0, 7.9):
            direct = float(np.sum(w * vals ** p))
            one = (vals[None], w[None])
            logged = math.exp(_log_functional_rows(vals, w, np.ones((1, n), bool), p)[0])
            assert logged == pytest.approx(direct, rel=1e-12)
            assert lp_functional_rows(*one, p)[0] == pytest.approx(direct, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=6),
    lam=st.floats(1e-3, 1e3),
    p=st.floats(-8.0, 12.0).filter(lambda p: abs(p) > 0.05),
)
def test_scaling_invariance(values, lam, p):
    w = MeasureSpace([1.0] * len(values))
    f = SimpleFunction(values)
    scaled = SimpleFunction([lam * v for v in values])
    assert lp_norm(scaled, w, p) == pytest.approx(lam * lp_norm(f, w, p), rel=1e-12)


def test_overlap_examples():
    assert overlap_norm(SimpleFunction([1, 0]), SimpleFunction([0, 1]), W11, 4) == 0.0
    assert overlap_norm(
        SimpleFunction([1, 1]), SimpleFunction([1, 1]), W11, 4
    ) == pytest.approx(math.sqrt(2.0))
    assert overlap_norm(
        SimpleFunction([2, 1]), SimpleFunction([1, 2]), W11, 4
    ) == pytest.approx(2.8284271247461903, rel=1e-14)


def test_reduce_to_probability_examples():
    alpha, prob = reduce_to_probability(
        SimpleFunction([1, 1]), SimpleFunction([1, 1]), W11, 3
    )
    np.testing.assert_allclose(alpha.values, [0.5, 0.5])
    np.testing.assert_allclose(prob.weights, [0.5, 0.5])

    alpha, prob = reduce_to_probability(
        SimpleFunction([1, 0]), SimpleFunction([0, 1]), W11, 3
    )
    np.testing.assert_allclose(alpha.values, [1.0, 0.0])
    np.testing.assert_allclose(prob.weights, [0.5, 0.5])

    alpha, prob = reduce_to_probability(
        SimpleFunction([2, 1]), SimpleFunction([1, 2]), W11, 4
    )
    np.testing.assert_allclose(alpha.values, [2 / 3, 1 / 3], rtol=1e-15)
    np.testing.assert_allclose(prob.weights, [0.5, 0.5], rtol=1e-15)


def test_reduce_errors():
    with pytest.raises(ZeroSumPoint):
        reduce_to_probability(SimpleFunction([1, 0]), SimpleFunction([0, 0]), W11, 3)
    with pytest.raises(NegativeInput):
        reduce_to_probability(SimpleFunction([1, -1]), SimpleFunction([1, 2]), W11, 3)


def test_reduce_weights_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        f = SimpleFunction(2.0 * (1.0 - rng.random(n)))
        g = SimpleFunction(2.0 * (1.0 - rng.random(n)))
        w = MeasureSpace(2.0 * (1.0 - rng.random(n)))
        p = float(rng.uniform(-5, 9)) or 1.0
        alpha, prob = reduce_to_probability(f, g, w, p)
        assert abs(prob.weights.sum() - 1.0) <= 1e-14
        assert np.all(alpha.values >= 0.0) and np.all(alpha.values <= 1.0)


def test_high_precision_mode(monkeypatch):
    import mpmath

    monkeypatch.setenv("SHARPLP_PRECISION", "high")
    val = lp_functional(SimpleFunction([3, 4]), W11, 2)
    assert isinstance(val, mpmath.mpf)
    assert float(val) == 25.0
    norm = lp_norm(SimpleFunction([1, 2]), W11, -1)
    assert abs(float(norm) - 2.0 / 3.0) < 1e-15

    monkeypatch.setenv("SHARPLP_PRECISION", "nonsense")
    with pytest.raises(ValueError):
        lp_functional(SimpleFunction([3, 4]), W11, 2)


def test_reduce_log_domain_exponents():
    f = SimpleFunction([1.9, 0.3, 1.1])
    g = SimpleFunction([0.2, 1.7, 0.9])
    w = MeasureSpace([0.5, 1.5, 1.0])
    for p in (12.0, -12.0):
        alpha, prob = reduce_to_probability(f, g, w, p)
        assert abs(prob.weights.sum() - 1.0) <= 1e-14
        np.testing.assert_allclose(alpha.values, f.values / (f.values + g.values))


def test_exponent_rule():
    with pytest.raises(ZeroExponent):
        check_p_value(0.0)
    for p in (1.0, 2.0, -2e-9, 1.0 + 2e-9, 3.0):
        assert check_p_value(p) == p
    for p in (1e-10, -5e-10, 1.0 - 5e-10, 1.0 + 1e-10, 2.0 - 1e-10, 2.0 + 5e-10):
        with pytest.raises(ExponentOutOfRange, match="within 1e-9"):
            check_p_value(p)


@pytest.mark.parametrize(
    "campaign",
    [
        lambda p: verify_campaign(trials=1, forward_ps=(3.0,), reverse_ps=(p,)),
        lambda p: means_campaign(trials=1, ps=(3.0, p)),
        lambda p: sharpness_campaign((3.0, p), 1.1),
        lambda p: factor_grid(0.5, 1.0, p, p + 1.0, 2, 2),
    ],
    ids=["verify", "means", "sharpness", "factor_grid"],
)
def test_campaigns_apply_the_exponent_rule(campaign):
    with pytest.raises(ExponentOutOfRange, match="within 1e-9 of 1.0"):
        campaign(1.0 + 1e-10)
