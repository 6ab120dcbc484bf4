import math

import numpy as np
import oracle
import pytest

from sharplp.campaigns import means_campaign
from sharplp.errors import (
    EndpointWithNegativeP,
    ExponentOutOfRange,
    OutOfDomain,
    ZeroExponent,
)
from sharplp.means import (
    _agm_chain,
    _g_rp,
    _log_eta,
    _log_mean_gap,
    _power_mean,
    constant_factor,
    sharpness_probe,
)
from sharplp.precision import FLOAT


def power_mean(x, y, q):
    return _power_mean(FLOAT, _log_mean_gap(FLOAT, x, y), q)


def agm_chain(x, y, p):
    return _agm_chain(FLOAT, x, y, p, _log_mean_gap(FLOAT, x, y))


def gap(s, p):
    """The gap of the sharpened bound: g_rp at r = 1."""
    return _g_rp(FLOAT, s, 1.0, p)


def test_power_mean_examples():
    for q in (-4.0, -1.0, 0.0, 0.5, 3.0, 40.0):
        assert power_mean(2.7, 2.7, q) == pytest.approx(2.7, rel=1e-14)
    assert power_mean(1, 4, 0) == pytest.approx(2.0)
    assert power_mean(3, 4, 2) == pytest.approx(3.5355339059327378, rel=1e-15)


def test_power_mean_monotone_in_q():
    qs = np.linspace(-12, 12, 97)
    for x, y in [(1.0, 4.0), (0.3, 0.7), (2.0, 2.5)]:
        vals = [power_mean(x, y, float(q)) for q in qs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_power_mean_extreme_q_limits():
    assert power_mean(1, 4, 1e6) == pytest.approx(4.0, rel=1e-5)
    assert power_mean(1, 4, -1e6) == pytest.approx(1.0, rel=1e-5)
    # tiny q approaches the geometric mean continuously
    assert power_mean(1, 4, 1e-12) == pytest.approx(2.0, rel=1e-10)


def test_constant_factor_examples():
    for p in (0.5, 1.0, 2.0, 3.0, -2.0):
        assert constant_factor(0.5, p, 2.0 / p) == pytest.approx(1.0, rel=1e-14)
    assert constant_factor(0.0, 3.0, 2.0 / 3.0) == 1.0
    assert constant_factor(1.0, 3.0, 2.0 / 3.0) == 1.0
    assert constant_factor(0.75, 4.0, 0.5) == pytest.approx(
        1.014412575842875015, rel=1e-15
    )
    with pytest.raises(EndpointWithNegativeP):
        constant_factor(0.0, -2.0, -1.0)
    with pytest.raises(ZeroExponent):
        constant_factor(0.3, 0.0, 1.0)
    with pytest.raises(OutOfDomain):
        constant_factor(1.5, 3.0, 2.0 / 3.0)


def test_constant_factor_identity_exponents():
    # p = 1 and p = 2 keep the factor pinned at 1 for the natural power
    for alpha in np.linspace(0.01, 0.99, 23):
        assert constant_factor(float(alpha), 1.0, 2.0) == pytest.approx(1.0, abs=1e-14)
        assert constant_factor(float(alpha), 2.0, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_region_law_small():
    alphas = np.linspace(0.001, 0.999, 200)
    for p in (0.25, 0.75, 2.5, 4.0, 12.0):
        assert all(
            constant_factor(float(a), p, 2.0 / p) >= 1.0 - 1e-10 for a in alphas
        )
    for p in (-5.0, -0.5, 1.2, 1.9):
        assert all(
            constant_factor(float(a), p, 2.0 / p) <= 1.0 + 1e-10 for a in alphas
        )


def test_q_monotonicity():
    qs = np.linspace(0.05, 3.0, 60)
    for alpha in (0.1, 0.35, 0.8):
        for p in (2.0, 3.0, 7.0):
            vals = [constant_factor(alpha, p, float(q)) for q in qs]
            assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))


def test_factor_matches_power_mean_form():
    # factor - 1 equals 2^p * (mean-form gap), so their signs agree exactly
    for alpha in (0.07, 0.3, 0.62, 0.9):
        for p in (-3.0, -0.5, 0.4, 1.5, 2.5, 6.0):
            factor_gap = constant_factor(alpha, p, 2.0 / p) - 1.0
            m1 = power_mean(alpha, 1 - alpha, 1.0)
            mp_ = power_mean(alpha, 1 - alpha, p)
            mmp = power_mean(alpha, 1 - alpha, -p)
            mean_gap = ((mp_ + mmp) / 2.0) ** (p - 1.0) * mp_ - m1 ** p
            assert factor_gap == pytest.approx(mean_gap * 2.0 ** p, abs=1e-12)


def test_agm_chain_examples():
    c = agm_chain(1.3, 1.3, 5.0)
    assert all(abs(t) < 1e-14 for t in c.terms)

    c = agm_chain(4.0, 1.0, 3.0)
    expected = (
        0.30662475471846359748,
        0.30361525234277207766,
        0.23079694921005338387,
        0.22839506172839506173,
    )
    for got, want in zip(c.terms, expected):
        assert got == pytest.approx(want, rel=1e-13)
    assert c.terms[0] >= c.terms[1] >= c.terms[2] >= c.terms[3] >= -1e-12

    c = agm_chain(1.0, 1.0 + 1e-8, 5.0)
    assert all(abs(t) <= 1e-12 for t in c.terms)


def test_agm_chain_ordering_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        x, y = 0.05 + 4.0 * rng.random(2)
        p = 2.0 + 8.0 * rng.random()
        c = agm_chain(float(x), float(y), float(p))
        t = c.terms
        assert t[0] >= t[1] - 1e-12 and t[1] >= t[2] - 1e-12 and t[2] >= t[3] - 1e-12
        assert t[3] >= -1e-12


def test_eta_family_examples():
    # p = 2: eta = 1 + s and the gap vanishes identically
    for s in np.linspace(0.0, 0.99, 34):
        assert math.exp(_log_eta(FLOAT, float(s), 2.0)) == pytest.approx(1.0 + s, rel=1e-14)
        assert abs(gap(float(s), 2.0)) <= 1e-13
    # p = -1 closed form
    for s in (0.1, 0.5, 0.9):
        assert math.exp(_log_eta(FLOAT, s, -1.0)) == pytest.approx(1.0 / (1.0 - s), rel=1e-13)
        want = math.sqrt(1.0 - s) + 1.0 / math.sqrt(1.0 - s) - 2.0
        assert gap(s, -1.0) == pytest.approx(want, rel=1e-12)
        assert gap(s, -1.0) >= 0.0
    assert _log_eta(FLOAT, 0.0, 7.3) == 0.0 and abs(gap(0.0, 7.3)) < 1e-15


def test_gap_sign_law():
    s_grid = np.concatenate(([0.0], np.linspace(1e-6, 1.0 - 1e-6, 400)))
    for p in (-3.0, -1.0, 3.0, 5.0, 9.0):
        assert all(gap(float(s), p) >= -1e-12 for s in s_grid)
    for p in (0.3, 0.8, 1.4, 1.9):
        assert all(gap(float(s), p) <= 1e-12 for s in s_grid)


def test_g_rp_examples():
    for s in (0.0, 0.2, 0.7):
        for p in (-2.0, 0.5, 3.0):
            assert gap(s, p) == pytest.approx(float(oracle.gap(s, p)), abs=1e-14)
    assert _g_rp(FLOAT, 0.0, 2.3, 5.0) == 0.0
    got = _g_rp(FLOAT, 1e-4, 1.2, 3.0)
    assert got == pytest.approx(-5.998170452981369e-5, rel=1e-10)
    assert got == pytest.approx(3.0 * (1.0 - 1.2) * 1e-4, rel=0.1)


def test_sharpness_probe_witnesses():
    for p, r in [(3.0, 1.1), (5.0, 1.5), (-2.0, 0.9), (0.5, 0.9)]:
        res = sharpness_probe(p, r)
        assert res.witness_s is not None
        assert res.slope_predicted == pytest.approx(p * (1.0 - r), rel=1e-12)
        assert res.slope_measured == pytest.approx(res.slope_predicted, rel=0.01)
        # the witness violates the claimed sign beyond threshold
        val = _g_rp(FLOAT, res.witness_s, r, p)
        if p > 2.0 or p < 0.0:
            assert val < -1e-12
        else:
            assert val > 1e-12


def test_sharpness_probe_no_witness_at_natural_power():
    for p in (3.0, 5.0, -2.0, 0.5):
        res = sharpness_probe(p, 1.0)
        assert res.witness_s is None
        assert abs(res.slope_measured) < 1e-6
    with pytest.raises(ExponentOutOfRange):
        sharpness_probe(2.0, 1.1)


def test_means_campaign_forms_p_minus_1_at_50_digits(monkeypatch):
    # in doubles p - 1.0 == p for |p| >= 2^53; with that exponent the second
    # draw of seed 0 at p = -1e20 failed its check with a gap of 0.48
    monkeypatch.setenv("SHARPLP_PRECISION", "high")
    summary = means_campaign(seed=0, trials=2, ps=(-1e20, -1e17))
    assert summary["passed"] and summary["failures"] == 0
