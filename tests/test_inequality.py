import math

import mpmath
import numpy as np
import pytest

from sharplp.audit import JensenDirection, jensen_audit
from sharplp.errors import (
    MisalignedFunction,
    NonpositiveValueForNegativeP,
    NotProbabilitySpace,
    OutOfRangeAlpha,
    ZeroNorm,
)
from sharplp.inequality import (
    EqualityKind,
    detect_equality_case,
    gamma_pair,
    main_sides,
)
from sharplp.measure import (
    MeasureSpace,
    SimpleFunction,
    lp_functional,
    lp_norm,
    overlap_norm,
    reduce_to_probability,
)

W11 = MeasureSpace([1.0, 1.0])


def _random_instance(rng, n_max=12, positive=False):
    n = int(rng.integers(1, n_max + 1))
    lo = 1e-3 if positive else 0.0
    f = SimpleFunction(lo + (2.0 - lo) * (1.0 - rng.random(n)))
    g = SimpleFunction(lo + (2.0 - lo) * (1.0 - rng.random(n)))
    w = MeasureSpace(2.0 * (1.0 - rng.random(n)))
    return f, g, w


def test_gamma_pair_examples():
    f = SimpleFunction([0.7, 1.3, 0.2])
    w = MeasureSpace([1.0, 0.5, 2.0])
    for p in (0.5, 3.0, 9.0):
        gamma, gt = gamma_pair(f, f, w, p)
        assert gt == pytest.approx(1.0, rel=1e-12)
        assert gamma == pytest.approx(1.0, rel=1e-12)

    gamma, gt = gamma_pair(SimpleFunction([1, 0]), SimpleFunction([0, 1]), W11, 4.0)
    assert gamma == 0.0 and gt == 0.0

    gamma, gt = gamma_pair(SimpleFunction([2, 1]), SimpleFunction([1, 2]), W11, 4.0)
    assert gt == pytest.approx(0.6859943405700353, rel=1e-14)

    with pytest.raises(ZeroNorm):
        gamma_pair(SimpleFunction([0, 0]), SimpleFunction([1, 1]), W11, 4.0)


def test_gamma_tilde_below_gamma():
    rng = np.random.default_rng(3)
    for _ in range(300):
        f, g, w = _random_instance(rng, positive=True)
        for p in (0.5, 2.5, 4.0, 9.0):
            gamma, gt = gamma_pair(f, g, w, p)
            assert gt <= gamma * (1.0 + 1e-12)
            if p >= 2.0:
                assert -1e-12 <= gt <= 1.0 + 1e-12
                assert -1e-12 <= gamma <= 1.0 + 1e-12


def test_main_sides_examples():
    rep = main_sides(SimpleFunction([1, 1]), SimpleFunction([1, 1]), W11, 4.0)
    assert rep.lhs == pytest.approx(32.0, rel=1e-14)
    assert rep.rhs == pytest.approx(32.0, rel=1e-14)
    assert rep.satisfied

    rep = main_sides(SimpleFunction([1, 0]), SimpleFunction([0, 1]), W11, 4.0)
    assert rep.lhs == pytest.approx(2.0) and rep.rhs == pytest.approx(2.0)
    assert rep.satisfied
    assert math.isnan(rep.gamma) is False  # both norms are 1 here

    rep = main_sides(SimpleFunction([2, 1]), SimpleFunction([1, 2]), W11, 4.0)
    assert rep.lhs == pytest.approx(162.0, rel=1e-14)
    assert rep.rhs == pytest.approx(162.9473321872641712, rel=1e-13)
    assert rep.satisfied and rep.slack > 0.0


def test_main_sides_degenerate_norm():
    rep = main_sides(SimpleFunction([1, 2]), SimpleFunction([0, 0]), W11, 3.0)
    assert rep.carbery_rhs is None
    assert math.isnan(rep.gamma)
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-14)
    assert rep.satisfied


def test_main_sides_rejects_zeros_in_reverse_range():
    with pytest.raises(NonpositiveValueForNegativeP):
        main_sides(SimpleFunction([1, 0]), SimpleFunction([1, 1]), W11, 1.5)


def test_identity_exponents():
    rng = np.random.default_rng(7)
    for _ in range(200):
        f, g, w = _random_instance(rng, positive=True)
        rep1 = main_sides(f, g, w, 1.0)
        assert abs(rep1.lhs - rep1.rhs) <= 1e-12 * rep1.lhs
        rep2 = main_sides(f, g, w, 2.0)
        assert abs(rep2.lhs - rep2.rhs) <= 1e-12 * rep2.lhs


def test_region_correctness_sample():
    rng = np.random.default_rng(0)
    for p in (0.3, 0.7, 2.0, 2.5, 3.0, 4.5, 9.0):
        for _ in range(150):
            f, g, w = _random_instance(rng)
            rep = main_sides(f, g, w, p)
            assert rep.lhs <= rep.rhs * (1.0 + 1e-9)
    for p in (-3.0, -0.7, 1.2, 1.8):
        for _ in range(150):
            f, g, w = _random_instance(rng, positive=True)
            rep = main_sides(f, g, w, p)
            assert rep.lhs >= rep.rhs * (1.0 - 1e-9)


def test_dominance_over_interpolation_bound():
    rng = np.random.default_rng(13)
    for p in (2.0, 2.5, 4.5, 9.0):
        for _ in range(200):
            f, g, w = _random_instance(rng, positive=True)
            rep = main_sides(f, g, w, p)
            assert rep.carbery_rhs is not None
            assert rep.rhs <= rep.carbery_rhs * (1.0 + 1e-12)


def test_equality_detection_examples():
    w3 = MeasureSpace([1.0, 1.0, 1.0])
    case = detect_equality_case(
        SimpleFunction([1, 0, 2]), SimpleFunction([0, 3, 0]), w3
    )
    assert case.kind is EqualityKind.DISJOINT_SUPPORT

    case = detect_equality_case(SimpleFunction([2, 1]), SimpleFunction([1, 2]), W11)
    assert case.kind is EqualityKind.MAX_RATIO_CONSTANT
    assert case.constant == pytest.approx(2.0 / 3.0, rel=1e-12)

    case = detect_equality_case(SimpleFunction([1, 1]), SimpleFunction([1, 2]), W11)
    assert case.kind is EqualityKind.NONE

    case = detect_equality_case(
        SimpleFunction([1.5, 0.75]), SimpleFunction([1.5, 0.75]), W11
    )
    assert case.kind is EqualityKind.EQUAL_FUNCTIONS


def test_equality_detection_rejects_misaligned_inputs():
    w3 = MeasureSpace([1.0, 1.0, 1.0])
    with pytest.raises(MisalignedFunction):
        detect_equality_case(SimpleFunction([1, 2]), SimpleFunction([1, 2, 3]), w3)
    with pytest.raises(MisalignedFunction):
        detect_equality_case(SimpleFunction([1, 2]), SimpleFunction([1, 2]), w3)


def test_equality_cases_meet_equality():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        vals = 2.0 * (1.0 - rng.random(n))
        w = MeasureSpace(2.0 * (1.0 - rng.random(n)))
        mask = rng.random(n) < 0.5
        mask[0], mask[-1] = True, False
        f = SimpleFunction(np.where(mask, vals, 0.0))
        g = SimpleFunction(np.where(mask, 0.0, vals))
        for pair in ((f, g), (SimpleFunction(vals), SimpleFunction(vals.copy()))):
            kind = detect_equality_case(pair[0], pair[1], w).kind
            assert kind in (EqualityKind.DISJOINT_SUPPORT, EqualityKind.EQUAL_FUNCTIONS)
            for p in (0.5, 3.0, 4.0):
                rep = main_sides(pair[0], pair[1], w, p)
                assert abs(rep.lhs - rep.rhs) <= 1e-9 * max(rep.lhs, rep.rhs)


def test_reduction_consistency():
    rng = np.random.default_rng(17)
    for p in (0.5, 2.5, 4.0, -2.0, 1.5):
        for _ in range(60):
            f, g, w = _random_instance(rng, positive=True)
            rep = main_sides(f, g, w, p)
            alpha, prob = reduce_to_probability(f, g, w, p)
            one_minus = SimpleFunction(1.0 - alpha.values)
            rep_uno = main_sides(alpha, one_minus, prob, p)
            assert rep_uno.lhs == pytest.approx(1.0, rel=1e-12)
            assert rep.satisfied == rep_uno.satisfied
            assert rep.slack / rep.lhs == pytest.approx(
                rep_uno.slack / rep_uno.lhs, abs=1e-9
            )


def test_reduced_form_matches_explicit_formula():
    # the reduced inequality is 1 vs (1 + 2^(2/p)||a(1-a)||_{p/2} /
    # (||a||_p^p + ||1-a||_p^p)^(2/p))^(p-1) * (||a||_p^p + ||1-a||_p^p)
    rng = np.random.default_rng(19)
    f, g, w = _random_instance(rng, positive=True)
    p = 3.0
    alpha, prob = reduce_to_probability(f, g, w, p)
    one_minus = SimpleFunction(1.0 - alpha.values)
    S = lp_functional(alpha, prob, p) + lp_functional(one_minus, prob, p)
    ov = overlap_norm(alpha, one_minus, prob, p)
    rhs = (1.0 + 2.0 ** (2.0 / p) * ov / S ** (2.0 / p)) ** (p - 1.0) * S
    rep = main_sides(alpha, one_minus, prob, p)
    assert rep.rhs == pytest.approx(rhs, rel=1e-12)


def test_jensen_constant_alpha_equality():
    w = MeasureSpace([0.25, 0.25, 0.5])
    for p in (3.0, 1.5, -2.0, 7.0):
        alpha = SimpleFunction([0.3, 0.3, 0.3])
        rep = jensen_audit(alpha, w, p)
        assert rep.satisfied
        assert rep.mean_H == pytest.approx(rep.H_of_B, rel=1e-12)


def test_jensen_frozen_cases():
    w = MeasureSpace([0.5, 0.5])
    alpha = SimpleFunction([0.9, 0.5])

    rep = jensen_audit(alpha, w, 3.0)
    assert rep.direction_expected is JensenDirection.MEAN_AT_LEAST
    assert rep.B == pytest.approx(0.49, rel=1e-14)
    assert rep.mean_H == pytest.approx(0.076, rel=1e-13)
    assert rep.H_of_B == pytest.approx(0.07009279563550023, rel=1e-12)
    assert rep.satisfied and rep.mean_H >= rep.H_of_B

    rep = jensen_audit(alpha, w, 1.5)
    assert rep.direction_expected is JensenDirection.MEAN_AT_MOST
    assert rep.B == pytest.approx(0.7962722630168469, rel=1e-14)
    assert rep.mean_H == pytest.approx(0.2589350789224118, rel=1e-13)
    assert rep.H_of_B == pytest.approx(0.2621922706969648, rel=1e-12)
    assert rep.satisfied and rep.mean_H <= rep.H_of_B


def test_jensen_random_direction():
    rng = np.random.default_rng(29)
    for p in (2.5, 3.0, 7.0, -2.0, 0.5, 1.5):
        for _ in range(40):
            n = int(rng.integers(1, 9))
            a = 0.02 + 0.96 * rng.random(n)
            w = rng.random(n) + 0.05
            w /= w.sum()
            rep = jensen_audit(SimpleFunction(a), MeasureSpace(w), p)
            assert rep.satisfied


@pytest.mark.parametrize("p", [3.5, 1.5, 0.5, -2.0])
def test_jensen_audit_forms_its_sums_at_fifty_digits(p, monkeypatch):
    # B and mean_H against sums made here at 80 digits, beside the mpf H_of_B
    monkeypatch.setenv("SHARPLP_PRECISION", "high")
    a, w = [0.9, 0.5, 0.2], [0.25, 0.25, 0.5]
    rep = jensen_audit(SimpleFunction(a), MeasureSpace(w), p)
    with mpmath.workdps(80):
        a, w, q = [mpmath.mpf(x) for x in a], [mpmath.mpf(x) for x in w], mpmath.mpf(p)
        B = mpmath.fsum(wi * (ai ** q + (1 - ai) ** q) for ai, wi in zip(a, w))
        mean_H = mpmath.fsum(wi * (ai * (1 - ai)) ** (q / 2) for ai, wi in zip(a, w))
        assert abs(rep.B - B) <= 1e-45 * B
        assert abs(rep.mean_H - mean_H) <= 1e-45 * mean_H
    assert all(isinstance(x, mpmath.mpf) for x in (rep.B, rep.mean_H, rep.H_of_B))
    assert rep.satisfied


def test_jensen_errors():
    with pytest.raises(NotProbabilitySpace):
        jensen_audit(SimpleFunction([0.5, 0.5]), MeasureSpace([0.7, 0.7]), 3.0)
    w = MeasureSpace([0.5, 0.5])
    with pytest.raises(OutOfRangeAlpha):
        jensen_audit(SimpleFunction([1.2, 0.5]), w, 3.0)
    with pytest.raises(OutOfRangeAlpha):
        jensen_audit(SimpleFunction([1.0, 0.5]), w, -2.0)
    with pytest.raises(MisalignedFunction):
        jensen_audit(SimpleFunction([0.5, 0.5]), MeasureSpace([0.25, 0.25, 0.5]), 3.0)


def test_main_sides_log_path_with_zeros():
    # zeros are admissible in the forward ranges even on the log-domain path
    f = SimpleFunction([1.5, 0.0, 0.7])
    g = SimpleFunction([0.0, 1.2, 0.4])
    w = MeasureSpace([1.0, 2.0, 0.5])
    for p in (9.0, 12.0, 0.3):
        rep = main_sides(f, g, w, p)
        assert rep.satisfied
        assert rep.lhs <= rep.rhs * (1.0 + 1e-9)
