import gc
import math
import weakref

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharplp import audit
from sharplp.audit import (
    CHAIN_NAMES,
    Crossing,
    PatternKind,
    audit_chain,
    chain_eval,
    curvature,
    expected_pattern,
    h_of_a,
    hyperbolic_point,
    invert_b,
    sign_changes,
)
from sharplp.cli import DEFAULT_C_GRID
from sharplp.errors import (
    DomainError,
    EndpointWithNegativeP,
    ExponentOutOfRange,
    NameRequiresC,
    NumericRange,
    SingularPoint,
    TargetOutOfRange,
    TooCoarse,
)
from sharplp.precision import FLOAT, mp_workdps

A_STAR = 0.8535533905932737622  # (2 + sqrt 2)/4, where a(1-a) = 1/8


def b_of_a(a, p):
    """b(a) = a^p + (1-a)^p in doubles, for a in (0, 1)."""
    return audit._b(FLOAT, a, p)


def test_b_h_examples():
    assert b_of_a(0.5, 3.0) == pytest.approx(0.25, rel=1e-14)
    assert h_of_a(0.5, 3.0) == pytest.approx(0.125, rel=1e-14)
    assert h_of_a(1.0, 3.0) == 0.0
    assert b_of_a(A_STAR, 3.0) == pytest.approx(0.625, rel=1e-14)
    assert h_of_a(A_STAR, 3.0) == pytest.approx(0.125 ** 1.5, rel=1e-13)
    with pytest.raises(EndpointWithNegativeP):
        h_of_a(0.0, -1.0)


def test_invert_b_examples():
    for p in (0.5, 3.0, -2.0):
        assert invert_b(b_of_a(0.5, p), p) == pytest.approx(0.5, abs=1e-7)
    assert invert_b(0.625, 3.0) == pytest.approx(A_STAR, abs=1e-12)
    assert invert_b(1.0 - 1e-12, 3.0) == pytest.approx(1.0, abs=1e-3)
    assert invert_b(1.0, 3.0) == 1.0


def test_invert_b_roundtrip():
    # for p < 0 the draw stays at a <= 0.99: nearer 1, b is so steep that a
    # single ulp of a moves b past the roundtrip tolerance
    rng = np.random.default_rng(4)
    for p in (0.3, 0.5, 1.7, 3.0, 7.0, -1.0, -2.0):
        hi = 0.99 if p < 0 else 0.999
        for _ in range(40):
            a = float(0.5 + (hi - 0.5) * rng.random())
            b = b_of_a(a, p)
            got = invert_b(b, p)
            assert abs(b_of_a(got, p) - b) <= 1e-13 * max(1.0, b)
            assert got == pytest.approx(a, abs=1e-6)


def test_invert_b_errors():
    with pytest.raises(TargetOutOfRange):
        invert_b(1.5, 3.0)
    with pytest.raises(TargetOutOfRange):
        invert_b(0.2, 3.0)  # below 2^(1-p) = 0.25
    with pytest.raises(TargetOutOfRange):
        invert_b(7.9, -2.0)  # below 2^(1-p) = 8
    with pytest.raises(ExponentOutOfRange):
        invert_b(1.0, 1.0)


def test_hyperbolic_point_values():
    pt = hyperbolic_point(0.0, 3.0)
    assert pt.db_dx == 0.0 and pt.dh_dx == 0.0
    assert pt.dH_db is None and pt.d2H_db2 is None
    assert pt.a == pytest.approx(0.5)

    pt = hyperbolic_point(1.0, 3.0)
    assert pt.db_dx == pytest.approx(0.4797750063369184, rel=1e-13)
    assert pt.ddx_dH_db == pytest.approx(0.1233885868911433, rel=1e-13)
    assert pt.d2H_db2 == pytest.approx(0.2571801058025406, rel=1e-13)
    assert pt.d2H_db2 > 0.0

    # x -> 0+ limit of dH/db is -1/(2(p-1))
    for p in (3.0, 0.5, -2.0):
        pt = hyperbolic_point(1e-8, p)
        assert pt.dH_db == pytest.approx(-1.0 / (2.0 * (p - 1.0)), rel=1e-6)

    with pytest.raises(SingularPoint):
        hyperbolic_point(1.0, 1.0)
    with pytest.raises(SingularPoint):
        curvature(0.0, 3.0)


def test_curvature_where_db_dx_underflows():
    # at x = 400, db/dx underflows to 0 while d2H/db2 ~ e^400 is a double
    pt = hyperbolic_point(400.0, 3.0)
    assert pt.db_dx == 0.0
    want = oracle.hyperbolic_fields(400.0, 3.0)["d2H_db2"]
    assert pt.d2H_db2 == pytest.approx(float(want), rel=1e-12)
    assert curvature(400.0, 3.0) == pt.d2H_db2
    with pytest.raises(NumericRange):  # ~ e^1000 is not a double
        curvature(1000.0, 3.0)


def test_hyperbolic_consistency_with_direct():
    # for p < 0 the dominant (1-a)^p term amplifies the rounding of a by
    # 1/(1-a), so the 1e-12 comparison needs a kept away from 1
    for p in (-2.0, 0.5, 1.5, 2.5, 3.0, 7.0):
        xs = (0.01, 0.3, 1.0, 2.5, 5.0) if p > 0 else (0.01, 0.3, 1.0, 2.5)
        for x in xs:
            pt = hyperbolic_point(x, p)
            a = math.exp(2 * x) / (1.0 + math.exp(2 * x))
            assert b_of_a(a, p) == pytest.approx(pt.b, rel=1e-12)
            assert h_of_a(a, p) == pytest.approx(pt.h, rel=1e-12)


def test_curvature_signs():
    xs = np.linspace(0.01, 5.0, 60)
    for p in (2.5, 3.0, 7.0):
        assert all(curvature(float(x), p) > 0.0 for x in xs)
    for p in (-2.0, 0.5, 1.5):
        assert all(curvature(float(x), p) < 0.0 for x in xs)


def test_second_divided_differences_of_H():
    # convex for p > 2, concave for p < 2, sampled through the b -> H map
    def H(b, p):
        return h_of_a(invert_b(b, p), p)

    rng = np.random.default_rng(6)
    for p, sign in [(2.5, 1), (3.0, 1), (7.0, 1), (-2.0, -1), (0.5, -1), (1.5, -1)]:
        if p > 1.0:
            lo, hi = b_of_a(0.5, p) + 1e-3, 1.0 - 1e-3
        elif p > 0.0:
            lo, hi = 1.0 + 1e-3, b_of_a(0.5, p) - 1e-3
        else:
            lo, hi = b_of_a(0.5, p) + 1e-3, b_of_a(0.5, p) + 20.0
        for _ in range(40):
            b1, b2, b3 = np.sort(lo + (hi - lo) * rng.random(3))
            if b2 - b1 < 1e-4 or b3 - b2 < 1e-4:
                continue
            d2 = (
                (H(b3, p) - H(b2, p)) / (b3 - b2)
                - (H(b2, p) - H(b1, p)) / (b2 - b1)
            ) / (b3 - b1)
            assert sign * d2 >= -1e-10


def test_chain_endpoint_identities():
    for c in (-3.0, -0.2, 0.3, 0.7, 1.3, 2.0, 3.5, 8.0):
        assert abs(chain_eval("v", c, 1.0)) <= 1e-10
        assert abs(chain_eval("v_prime", c, 1.0)) <= 1e-10
        assert abs(chain_eval("v_dprime", c, 1.0)) <= 1e-10
        want = 2.0 * c * (1.0 - 2.0 * c) * (c - 1.0) ** 2
        assert chain_eval("v_tprime", c, 1.0) == pytest.approx(want, rel=1e-8)
        assert chain_eval("h", c, 1.0) == 0.0
        assert chain_eval("f", c, 1.0) == 0.0
        assert chain_eval("w", c, 1.0) == pytest.approx(c - 1.0, rel=1e-12)
        assert chain_eval("p_quad", c, 1.0) == pytest.approx(9.0 - 4.0 * c, rel=1e-12)
    assert chain_eval("m", 1.3, 1.0) == pytest.approx(1.0 - 1.3, rel=1e-12)
    assert chain_eval("b_factor", 3.5, 1.0) == pytest.approx(
        (3.5 + 6.0) * (3.5 - 1.0), rel=1e-12
    )


def test_chain_c2_factorization():
    c = 2.0
    assert chain_eval("q_factor", c, 0.5) == pytest.approx(-0.625, abs=1e-15)
    ts = np.linspace(1e-3, 1.0, 1000)
    for t in ts:
        t = float(t)
        factored = (t - 1.0) * (5.0 * t * t - 16.0 * t + 8.0)
        assert chain_eval("q_factor", c, t) == pytest.approx(factored, abs=1e-12)


def test_h0_values():
    assert chain_eval("h0", 0.3, 0.5) == pytest.approx(
        -0.05921336439723481, rel=1e-13
    )
    assert chain_eval("h0", 0.7, 0.5) == pytest.approx(
        0.23356675154201256, rel=1e-13
    )
    assert chain_eval("h0", -1.0, 0.5) == -math.inf
    assert chain_eval("h0", 1.5, 0.5) == math.inf


def test_h0_is_the_limit_of_h():
    # convergence rate is O(t^min(c,1-c)): slow, so compare along a sequence
    for c in (0.3, 0.7):
        h0 = chain_eval("h0", c, 0.5)
        gaps = [abs(chain_eval("h", c, t) - h0) for t in (1e-6, 1e-9, 1e-12)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 3e-4
    # divergence with the correct sign
    assert chain_eval("h", -1.0, 1e-9) < -10.0
    assert chain_eval("h", 1.5, 1e-9) > 5.0


def test_chain_eval_errors():
    c = 0.3
    with pytest.raises(DomainError):
        chain_eval("v", c, 0.0)
    with pytest.raises(DomainError):
        chain_eval("v", c, 1.5)
    with pytest.raises(NameRequiresC):
        chain_eval("nope", c, 0.5)
    with pytest.raises(NameRequiresC):
        chain_eval("h0", 1.0, 0.5)


def test_derivative_consistency():
    # central differences of f against the displayed derivative
    h = 1e-6
    for c in (-1.0, 0.3, 0.7, 3.0):
        for t in np.linspace(0.05, 0.95, 46):
            t = float(t)
            fd = (chain_eval("f", c, t + h) - chain_eval("f", c, t - h)) / (2 * h)
            fp = chain_eval("f_prime", c, t)
            assert fd == pytest.approx(fp, rel=1e-6, abs=1e-9)


def test_derivative_factorization():
    # f' = (1-c)(1-t)/(t(1+t)) * (1/(X^c+1) - 1/fraction)
    for c in (-1.0, 0.3, 0.7, 3.0):
        for t in np.linspace(0.05, 0.95, 19):
            t = float(t)
            x_big = (1.0 + t) ** 2 / (4.0 * t)
            fraction = audit._fraction_double(audit._Samples(FLOAT, c, np.array([t])))[0]
            bracket = 1.0 / (x_big ** c + 1.0) - 1.0 / fraction
            want = (1.0 - c) * (1.0 - t) / (t * (1.0 + t)) * bracket
            assert chain_eval("f_prime", c, t) == pytest.approx(want, rel=1e-10)


def test_fraction_lemma():
    t = np.linspace(1e-5, 1.0 - 1e-5, 200)
    for c in (-3.0, -0.2, 0.3, 0.7, 1.3, 2.0, 8.0):
        assert np.all(audit._fraction_double(audit._Samples(FLOAT, c, t)) > 1.0)


def test_fraction_bound_divides_through_where_t_to_the_c_overflows():
    # 0.5^-1e6 overflows; divided through by t^c the factor is (1-c)/2
    grid = audit._Samples(FLOAT, -1e6, np.array([0.5]))
    assert audit._fraction_double(grid)[0] == 500000.5
    assert np.isnan(grid.fraction[0])  # the grid's own F is left as it is


def test_sign_changes_rejects_coarse_grid():
    c = 0.3
    pattern = sign_changes("v_dprime", c, 2000)
    assert pattern.overall is PatternKind.PLUS_TO_MINUS
    lo, hi = pattern.crossings[0].bracket_lo, pattern.crossings[0].bracket_hi
    assert 0.0 < hi - lo <= 1e-10
    assert chain_eval("v_dprime", c, lo) > 0.0 > chain_eval("v_dprime", c, hi)

    with pytest.raises(TooCoarse):
        sign_changes("v_dprime", c, 500)


@pytest.mark.parametrize("c", [0.5, 1.0])
@pytest.mark.parametrize("name", [n for n in CHAIN_NAMES if n != "h0"])
def test_sign_changes_rejects_degenerate_c(name, c):
    # at c = 1/2 f', g and h vanish identically; at c = 1 they divide by 1 - c
    with pytest.raises(ExponentOutOfRange, match="degenerates"):
        sign_changes(name, c, 1000)


@pytest.mark.parametrize("mode", ["double", "high"])
@pytest.mark.parametrize("name", ["f_prime", "g", "h"])
def test_chain_eval_rejects_c_one(name, mode, monkeypatch):
    monkeypatch.setenv("SHARPLP_PRECISION", mode)
    for t in (1e-3, 0.5, 1.0):
        with pytest.raises(ExponentOutOfRange):
            chain_eval(name, 1.0, t)
    assert chain_eval("f", 1.0, 0.5) == 0.0


def test_sign_changes_chain_examples():
    pattern = sign_changes("f_prime", 0.3, 2000)
    assert pattern.overall is PatternKind.PLUS_TO_MINUS
    assert len(pattern.crossings) == 1

    pattern = sign_changes("f_prime", -1.0, 2000)
    assert pattern.overall is PatternKind.POSITIVE
    assert len(pattern.crossings) == 0


def test_sign_changes_finds_crossing_below_truncation():
    # for small c the g/h crossing falls below delta = 1e-6; the limit-sign
    # augmentation must still report it
    pattern = sign_changes("g", 0.05, 2000)
    assert pattern.overall is PatternKind.MINUS_TO_PLUS
    assert pattern.crossings[0].bracket_hi <= 1e-6


@pytest.mark.parametrize(
    "name, c, grid_size, kind",
    [("v", -1000.0, 2000, PatternKind.POSITIVE), ("w", -2000.0, 10_000, PatternKind.NEGATIVE)],
)
def test_sign_changes_escalates_non_finite_samples(name, c, grid_size, kind):
    # for c << 0 one term of an opposite-sign sum overflows first: the double
    # v at c = -1000 is -inf near t = 0.706, where its 50-digit value is +1.4e307
    pattern = sign_changes(name, c, grid_size)
    assert pattern.overall is kind and pattern.crossings == ()


@pytest.mark.parametrize("c", [1e7, 5e8])
def test_sign_changes_finds_crossing_above_truncation(c):
    # for large c the v'' crossing sits near t = 1 - 1.6/c, inside the
    # truncated band (1 - delta, 1); the t -> 1- limit sign must still report it
    pattern = sign_changes("v_dprime", c, 1000)
    assert pattern.overall is PatternKind.MINUS_TO_PLUS
    (crossing,) = pattern.crossings
    assert 1.0 - audit.DEFAULT_DELTA <= crossing.bracket_lo < crossing.bracket_hi <= 1.0
    assert 1.5 <= c * (1.0 - crossing.bracket_hi) <= 1.7
    assert audit._limit_signs("v_dprime", c)[1] == 1


@pytest.mark.parametrize(
    "name, c",
    [("m", 0.3), ("m", 0.7), ("m", 3.5), ("u", 0.3), ("b_factor", -1.0),
     ("b_factor", 0.3), ("b_factor", 0.7)],
)
def test_no_crossing_below_delta_from_a_wrong_left_limit(name, c):
    # outside the c ranges the audit covers, a t -> 0+ sign written per name
    # contradicted the function and made up a crossing at (0, 1e-18)
    pattern = sign_changes(name, c, 1000)
    assert all(x.bracket_hi > audit.DEFAULT_DELTA for x in pattern.crossings)


# c over [-8, 20] (the grid misses 0, 1/2 and 1), with exponent ties at c = 2
# and near-ties just beside 2 and 1
_LIMIT_CS = np.linspace(-8.0, 20.0, 121).tolist() + [
    -1.0, -0.5, 0.25, 1.5, 2.0, 2.0 + 1e-13, 1.0 + 1e-7
]


@pytest.mark.parametrize("name", list(audit._TABLES) + ["f_prime", "g", "h"])
def test_left_limit_signs_match_fifty_digits(name):
    t = np.array([1e-60])
    for c in _LIMIT_CS:
        want = audit._limit_signs(name, c)[0]
        if want != 0:
            assert want == audit._sign_of(audit._mp_chain(name, c, t)[0]), (name, c)


def test_right_limit_signs_match_fifty_digits():
    # the leading term in s = 1 - t of every table against its value just
    # below 1; every table has a known sign there at every c of the grid
    t = np.array([1.0 - 1e-12])
    for name in audit._TABLES:
        for c in _LIMIT_CS:
            want = audit._limit_signs(name, c)[1]
            assert want == audit._sign_of(audit._mp_chain(name, c, t)[0]) != 0, (name, c)
    # v is 0 identically at c in {1/2, 1}; g's t -> 1- sign is not derived
    assert audit._limit_signs("v_dprime", 1.0) == (0, 0)
    assert audit._limit_signs("v_dprime", 0.5) == (0, 0)
    assert audit._limit_signs("g", 3.0)[1] == 0


@pytest.mark.parametrize("c", [0.3, 3.5, -1.0])
def test_sign_changes_of_f_sends_its_edge_samples_to_fifty_digits(c):
    # no error bound decides f's double signs, so every sample goes to 50
    # digits, the edge bands' among them
    pattern = sign_changes("f", c, 1000)
    assert pattern.escalated == 1000 and pattern.crossings == ()
    assert pattern.overall is (PatternKind.NEGATIVE if c < 0 else PatternKind.POSITIVE)


@pytest.mark.parametrize("c", [-3.0, 0.3, 0.7, 2.0, 3.5])
def test_third_derivative_of_v_is_the_w_factorization(c):
    # d^3/dt^3 of v's table against 2c(1-2c)(c-1) t^(c-3) times w's table
    with mp_workdps() as xp:
        cv = xp.asarray(c)
        d3 = audit._d(audit._d(audit._d(audit._TABLES["v"](cv), cv), cv), cv)
        for t in (0.05, 0.3, 0.8):
            t = xp.asarray(t)
            got = sum(t ** (i + j * cv) * a for a, i, j in d3)
            want = audit._CHAIN_FLOAT["v_tprime"](audit._Samples(xp, c, t))
            assert abs(got / want - 1) <= 1e-40, (c, t)


def test_expected_patterns_table():
    assert expected_pattern("f_prime", 0.3) is PatternKind.PLUS_TO_MINUS
    assert expected_pattern("f_prime", 0.7) is PatternKind.MINUS_TO_PLUS
    assert expected_pattern("f_prime", 2.0) is PatternKind.PLUS_TO_MINUS
    assert expected_pattern("f_prime", -1.0) is PatternKind.POSITIVE
    assert expected_pattern("g", 0.3) is PatternKind.MINUS_TO_PLUS
    assert expected_pattern("h", 2.0) is PatternKind.PLUS_TO_MINUS
    assert expected_pattern("v", -0.5) is PatternKind.POSITIVE
    assert expected_pattern("v_dprime", 0.7) is PatternKind.MINUS_TO_PLUS


def test_audit_chain_selected_cases():
    rep = audit_chain(0.3, 2000)
    assert rep.all_match and rep.fraction_ok

    rep = audit_chain(2.0, 2000)
    assert rep.patterns["f_prime"].observed.overall is PatternKind.PLUS_TO_MINUS
    assert rep.patterns["g"].observed.overall is PatternKind.PLUS_TO_MINUS
    assert rep.patterns["v"].observed.overall is PatternKind.MINUS_TO_PLUS
    assert rep.all_match

    rep = audit_chain(-0.5, 2000)
    assert rep.patterns["f_prime"].observed.overall is PatternKind.POSITIVE
    assert rep.patterns["g"].observed.overall is PatternKind.NEGATIVE
    assert rep.patterns["v"].observed.overall is PatternKind.POSITIVE
    assert rep.all_match

    with pytest.raises(ExponentOutOfRange):
        audit_chain(0.5, 2000)


def test_audit_chain_extras_scoped():
    rep = audit_chain(1.3, 2000)
    assert "m" in rep.extras and rep.extras["m"].match
    assert "u" not in rep.extras
    rep = audit_chain(3.5, 2000)
    assert "u" in rep.extras and rep.extras["u"].match
    assert "b_factor" in rep.extras and rep.extras["b_factor"].match
    rep = audit_chain(0.3, 2000)
    assert "w" in rep.extras and rep.extras["w"].match
    assert "p_quad" in rep.extras and rep.extras["p_quad"].match


def test_high_precision_chain_eval(monkeypatch):
    import mpmath

    c = 0.3
    low = chain_eval("v", c, 0.37)
    monkeypatch.setenv("SHARPLP_PRECISION", "high")
    high = chain_eval("v", c, 0.37)
    assert isinstance(high, mpmath.mpf)
    assert float(high) == pytest.approx(low, rel=1e-12)


def _reference_classify(seq_t, seq_s, sign_at):
    """The scan ``audit._classify`` replaced: a walk over the samples as Python
    lists, kept as its reference."""
    seq_t, seq_s = list(seq_t), list(seq_s)
    crossings = []
    prev_i = None
    for i in range(len(seq_s)):
        if seq_s[i] == 0:
            continue
        if prev_i is not None and seq_s[i] != seq_s[prev_i]:
            lo, hi = float(seq_t[prev_i]), float(seq_t[i])
            s_lo, s_hi = int(seq_s[prev_i]), int(seq_s[i])
            if lo == 0.0:
                lo = audit._LEFT_FLOOR
                if sign_at(lo) != s_lo:
                    crossings.append(Crossing(0.0, lo, sign_before=s_lo, sign_after=s_hi))
                    prev_i = i
                    continue
            while hi - lo > audit._BRACKET_WIDTH:
                mid = 0.5 * (lo + hi)
                if sign_at(mid) == s_lo:
                    lo = mid
                else:
                    hi = mid
            crossings.append(Crossing(lo, hi, sign_before=s_lo, sign_after=s_hi))
        prev_i = i

    nonzero = [s for s in seq_s if s != 0]
    if not nonzero:
        overall = PatternKind.OTHER
    elif len(crossings) == 0:
        overall = PatternKind.POSITIVE if nonzero[0] > 0 else PatternKind.NEGATIVE
    elif len(crossings) == 1:
        overall = (
            PatternKind.PLUS_TO_MINUS
            if crossings[0].sign_before > 0
            else PatternKind.MINUS_TO_PLUS
        )
    else:
        overall = PatternKind.OTHER
    return audit.SignChangePattern(crossings=tuple(crossings), overall=overall)


@st.composite
def _sign_sequences(draw):
    """(seq_t, seq_s) of a grid whose zero signs are isolated, with or
    without a t -> 0+ limit sign in front (which may itself be 0)."""
    signs = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=60))
    for i in range(1, len(signs)):
        if signs[i] == signs[i - 1] == 0:
            signs[i] = draw(st.sampled_from((-1, 1)))
    seq_t = np.linspace(1e-6, 1.0 - 1e-6, len(signs))
    seq_s = np.array(signs)
    limit = draw(st.sampled_from((None, -1, 0, 1)))
    if limit is not None:
        seq_t = np.concatenate(([0.0], seq_t))
        seq_s = np.concatenate(([limit], seq_s))
    return seq_t, seq_s


def _recording_sign_at(salt):
    """A deterministic sign of x that logs every probe."""
    calls = []

    def sign_at(x):
        calls.append(x)
        return 1 if (int(x * 2.0 ** 60) ^ salt) % 3 else -1

    return sign_at, calls


@settings(max_examples=300, deadline=None)
@given(seq=_sign_sequences(), salt=st.integers(0, 2 ** 16))
def test_classify_matches_reference_scan(seq, salt):
    seq_t, seq_s = seq
    sign_at, calls = _recording_sign_at(salt)
    got = audit._classify(seq_t, seq_s, sign_at)
    ref_sign_at, ref_calls = _recording_sign_at(salt)
    want = _reference_classify(seq_t, seq_s, ref_sign_at)
    assert got == want
    # the same brackets are bisected with the same probes, in the same order
    assert calls == ref_calls


# one c per claim region: c < 0, (0, 1/2), (1/2, 1), (1, 2), c > 2
@pytest.mark.parametrize("c", [-1.0, 0.3, 0.7, 1.3, 3.5])
def test_sign_changes_matches_reference_scan(c, monkeypatch):
    names = [n for n in CHAIN_NAMES if n != "h0"]
    got = [sign_changes(name, c, 1000) for name in names]
    monkeypatch.setattr(audit, "_classify", _reference_classify)
    assert got == [sign_changes(name, c, 1000) for name in names]


@pytest.mark.parametrize(
    "c",
    [1e300, -1e300, 1e200, 1e100, 1e9, -1e9]
    + [1e-7, -1e-7, 1e-8, 1e-10, -1e-10, 1e-300, 9.99e-6, -9.99e-6],
)
def test_audit_rejects_c_beyond_double_coefficients(c, monkeypatch):
    # |c| >= 1e9 (p = 1/c within 1e-9 of 0), and |c| < 1e-5, where f', g and
    # h cancel to roundoff near t = 1: no grid is evaluated, let alone
    # escalated to 50 digits
    def no_escalation(*args):
        raise AssertionError("a sample was sent to 50 digits")

    monkeypatch.setattr(audit, "_mp_chain", no_escalation)
    with pytest.raises(NumericRange):
        audit_chain(c)


# the audit's default c grid (2.0: every exponent an integer), and large |c|
# where the double grid is NaN-heavy
@pytest.mark.parametrize("c", list(DEFAULT_C_GRID) + [1e3, 1e6, -1e6])
def test_batched_escalation_equals_scalar_path(c):
    t = np.linspace(audit.DEFAULT_DELTA, 1.0 - audit.DEFAULT_DELTA, 10_000)
    t = t[(t <= 1e-3) | (t >= 1.0 - 1e-3)]
    assert t.size == 20
    kept = {}
    first = {name: audit._mp_chain(name, c, t, kept) for name in audit._CHAIN_FLOAT}
    for name, formula in audit._CHAIN_FLOAT.items():
        # evaluated again once every other name has shared its quantities
        batched = audit._mp_chain(name, c, t, kept)
        with mp_workdps() as xp:
            scalar = [formula(audit._Samples(xp, c, x)) for x in t.tolist()]
        # _mpf_ is the exact binary value, NaN included
        want = [v._mpf_ for v in scalar]
        assert [v._mpf_ for v in first[name]] == want, (name, c)
        assert [v._mpf_ for v in batched] == want, (name, c)


# at 1e4 each function escalates a different sample set
@pytest.mark.parametrize("c", [0.35, 3.5, -1000.0, 1e4])
def test_audit_chain_equals_standalone_scans(c):
    report = audit_chain(c)
    entries = {**report.patterns, **report.extras}
    grid, kept = audit._grid(c, 10_000), {}
    for name in reversed(list(entries)):
        # standalone, sharing nothing, and in reverse order through one grid
        # and one dict
        assert sign_changes(name, c, 10_000) == entries[name].observed, (name, c)
        assert audit._scan(name, grid, kept) == entries[name].observed, (name, c)


def test_audit_chain_validates_c_once_on_one_double_grid(monkeypatch):
    checked, grids = [], []
    check_c = audit._check_c

    class Recorded(audit._Samples):
        def __init__(self, xp, c, t):
            super().__init__(xp, c, t)
            if xp is FLOAT and np.size(t) > 1:
                grids.append(np.size(t))

    monkeypatch.setattr(audit, "_check_c", lambda c: checked.append(c) or check_c(c))
    monkeypatch.setattr(audit, "_Samples", Recorded)
    report = audit_chain(3.5, 2000)
    assert len(report.patterns) + len(report.extras) == 7
    assert checked == [3.5] and grids == [2000]


# at 0.35 the functions share the edge bands' samples; at 1e4 g, u and
# b_factor each escalate a different set
@pytest.mark.parametrize("c", [0.35, 1e4])
def test_audit_chain_keeps_no_samples_after_it_returns(c, monkeypatch):
    escalated = []

    class Recorded(audit._Samples):
        def __init__(self, xp, c, t):
            super().__init__(xp, c, t)
            if xp is not FLOAT:
                escalated.append(weakref.ref(self))

    monkeypatch.setattr(audit, "_Samples", Recorded)
    audit_chain(c)
    gc.collect()
    assert escalated
    assert [ref for ref in escalated if ref() is not None] == []


# chain_eval's one call shape, a formula on one 50-digit sample, against the
# escalation's object array; the escalated samples are shared in one dict
# across names, so each later name reuses t^c, X, X^c, F and the monomials of
# the earlier ones
@pytest.mark.parametrize("c", [-1e3, -3.0, 0.05, 0.35, 2.0, 3.5, 1e4])
@pytest.mark.parametrize("t", [1e-12, 1e-4, 0.3, 1.0 - 1e-9])
def test_high_precision_chain_eval_is_the_escalation(c, t, monkeypatch):
    monkeypatch.setenv("SHARPLP_PRECISION", "high")
    kept = {}
    for name in audit._CHAIN_FLOAT:
        want = audit._mp_chain(name, c, np.array([t]), kept)[0]
        assert chain_eval(name, c, t)._mpf_ == want._mpf_, (name, c, t)


# ---------------------------------------------------------------------------
# the double error bound of the power sums (audit._enclosure)
# ---------------------------------------------------------------------------

# the oracle workload's c of seeds 1-5 (benchmarks/workloads.py, c_grid)
_SEEDED_CS = (
    -3.4693, -0.9831, -0.6526, 0.152, 0.2298, 0.2482, 0.3106, 0.5613, 0.5875,
    0.8655, 1.8022, 2.0625, 4.625, 6.5856,
    -3.7766, -0.2561, -0.2237, 0.0839, 0.3179, 0.3444, 0.3842, 0.6733, 0.7924,
    0.7927, 1.5731, 2.9924, 4.3915, 4.6125,
    -3.06, -2.5387, -1.8503, 0.0553, 0.0762, 0.2916, 0.3003, 0.6437, 0.6537,
    0.885, 1.9461, 4.8481, 4.8843, 7.0269,
    -3.5925, -3.0676, -2.4356, 0.0766, 0.112, 0.2106, 0.4172, 0.6388, 0.8561,
    0.8702, 1.533, 2.6818, 3.0774, 3.6963,
    -1.5395, -1.0699, -0.859, 0.0616, 0.346, 0.4189, 0.427, 0.7362, 0.8096,
    0.9273, 1.8608, 2.7236, 3.5171, 4.841,
)
_GRID = np.linspace(audit.DEFAULT_DELTA, 1.0 - audit.DEFAULT_DELTA, 10_000)
_EDGE = (_GRID <= 1e-3) | (_GRID >= 1.0 - 1e-3)  # the grid's edge bands
_LONG = np.longdouble


def _long_reference(name, c, t, powers):
    """The exact table of ``name`` summed in long double on t, and a bound on
    that sum's own error: 4 (n + 4) long-double epsilons of the sum of
    |terms|, for a powl within 4 of its ulps, plus an underflow allowance.
    ``powers`` keeps each t^(i + j c) by (i, j)."""
    from fractions import Fraction

    total = mags = np.zeros_like(t, dtype=_LONG)
    rows = audit._exact_table(name, c)
    for a, b, i, j in rows:
        hi = float(a)
        a_long = _LONG(hi) + _LONG(float(a - Fraction(hi)))
        if (i, j) not in powers:
            b_long = _LONG(i) + _LONG(j) * _LONG(c)
            assert Fraction(*b_long.as_integer_ratio()) == b  # the exponent is exact
            powers[i, j] = t.astype(_LONG) ** b_long
        term = powers[i, j] * a_long
        total, mags = total + term, mags + np.abs(term)
    n = len(rows)
    tiny = _LONG(2.0) ** -16300 * (n + sum(abs(float(a)) for a, _, _, _ in rows))
    return total, 4 * (n + 4) * np.finfo(_LONG).eps * mags + tiny


def _fifty_digit_misses(t, total, bound, exact):
    """The samples t where the double sum S is not within B of its 50-digit
    value ``exact``, or where |S| > B and S does not carry its sign."""
    with mp_workdps() as xp:
        return [
            x for x, s, b, ref in zip(t.tolist(), total.tolist(), bound.tolist(), exact)
            if abs(xp.asarray(s) - ref) > b or (abs(s) > b and audit._sign_of(s) != audit._sign_of(ref))
        ]


def _unsettled(total, bound, ref, err):
    """The finite samples where a long-double reference ``ref``, within
    ``err`` of the exact sum, does not show |S - exact| <= B, or, where
    |S| > B, that S has the exact sign."""
    gap = np.abs(total.astype(_LONG) - ref) + err
    sure = np.abs(total) > bound
    settled = (gap <= bound) & (~sure | ((np.abs(ref) > err) & (np.sign(ref) == np.sign(total))))
    return np.isfinite(total) & ~settled


def _enclosure(name, c, t):
    with np.errstate(all="ignore"):
        return audit._enclosure(name, audit._Samples(FLOAT, c, t))


def _fraction_sums(c, t):
    with np.errstate(all="ignore"):
        return audit._Samples(FLOAT, c, t).fraction_sums


def _certified(name, c, t):
    with np.errstate(all="ignore"):
        return audit._certified_signs(name, audit._Samples(FLOAT, c, t))


@pytest.mark.skipif(np.finfo(_LONG).nmant < 63, reason="long double is not extended precision")
@pytest.mark.parametrize("c", list(DEFAULT_C_GRID) + list(_SEEDED_CS) + [-1e3, 1e4])
def test_power_sum_error_bound_holds(c):
    # on every finite sample of the grid, |S - S_exact| <= B, and S has the
    # exact sum's sign wherever |S| > B, which is where the scan keeps it.
    # The edge bands are checked against 50 digits; the interior against
    # long double, whose own error is about 1/1000 of B, and at 50 digits
    # wherever that does not settle the sample
    kept, powers = {}, {}
    for name in audit._TABLES:
        total, bound = _enclosure(name, c, _GRID)
        with np.errstate(all="ignore"):
            scanned = audit._CHAIN_FLOAT[name](audit._Samples(FLOAT, c, _GRID))
            ref, err = _long_reference(name, c, _GRID, powers)
            check = np.flatnonzero(np.isfinite(total) & (_EDGE | _unsettled(total, bound, ref, err)))
        assert total.tobytes() == scanned.tobytes(), name  # S is the chain value
        exact = audit._mp_chain(name, c, _GRID[check], kept)
        assert _fifty_digit_misses(_GRID[check], total[check], bound[check], exact) == [], (name, c)


@pytest.mark.parametrize("name", list(audit._CHAIN_FLOAT))
def test_certified_sign_of_a_probe_is_that_of_an_array(name):
    # a bisection probe certifies its one float64 t, a grid sample within an
    # array; numpy takes a scalar's power from libm and an array's from SIMD
    t = np.concatenate((
        _GRID[_EDGE], _GRID[::500], np.geomspace(1e-18, 1e-3, 9), 1.0 - np.geomspace(1e-12, 1e-3, 9)
    ))
    decided = 0
    for c in list(DEFAULT_C_GRID) + [-1e3, 1e4]:
        grid = _certified(name, c, t)
        probes = [int(_certified(name, c, x)) for x in t.tolist()]
        ones = [int(_certified(name, c, np.array([x]))[0]) for x in t.tolist()]
        assert probes == ones == grid.tolist(), (name, c)
        decided += np.count_nonzero(grid)
    assert decided > 0 or name == "f"


@pytest.mark.parametrize(
    "name, c",
    [("g", 0.2), ("f_prime", 0.2), ("g", 0.05), ("h", 0.05), ("v_dprime", 0.7), ("v", 3.5),
     ("g", 2.0)],
)
def test_lower_band_probes_keep_only_certified_double_signs(name, c, monkeypatch):
    # a double chain value that gives a bisection probe the wrong sign, in
    # an edge band or between them, must not move the crossing: a probe
    # keeps a double sign only where the error bound decides it, as a grid
    # sample does, and goes to 50 digits otherwise
    want = sign_changes(name, c, 10_000)
    formula = audit._CHAIN_FLOAT[name]

    def negated(s):
        probe = s.xp is FLOAT and np.ndim(s.t) == 0
        return -formula(s) if probe else formula(s)

    monkeypatch.setitem(audit._CHAIN_FLOAT, name, negated)
    got = sign_changes(name, c, 10_000)
    assert got == want and len(got.crossings) == 1


def test_default_grid_audits_escalate_under_budget():
    # with every edge-band sample at 50 digits these 14 audits escalated
    # 1,906 samples and probes; 872 once the power sums kept the edge signs
    # their bound decides, and 103 once f', g and h kept theirs from N and
    # M.  Every double sign the scan keeps is now one a bound decides, f's
    # samples all go to 50 digits, and the count did not rise
    escalated = 0
    for c in DEFAULT_C_GRID:
        report = audit_chain(c)
        escalated += sum(e.observed.escalated for e in {**report.patterns, **report.extras}.values())
    assert escalated <= 103


def _fraction_sums_at_fifty_digits(c, t):
    """M = (F - 1)(t^c - t) and N = g (t^c - t) at 50 digits on t."""
    with mp_workdps() as xp:
        s = audit._Samples(xp, c, t)
        gap = s.tc - s.t
        return (s.fraction - 1.0) * gap, audit._CHAIN_FLOAT["g"](s) * gap


@pytest.mark.skipif(np.finfo(_LONG).nmant < 63, reason="long double is not extended precision")
@pytest.mark.parametrize("c", list(DEFAULT_C_GRID) + list(_SEEDED_CS) + [-1e3, 1e4])
def test_fraction_sum_error_bounds_hold(c):
    # the sums behind every double sign of f', g and h, M = (F - 1)(t^c - t)
    # and N = g (t^c - t) = A (1 - t^(1-c)) - M, A = ((1+t)/2)^(2c):
    # |S - S_exact| <= B on every finite sample of the grid, and S has the
    # exact sign wherever |S| > B.  The reference is long double, with A
    # taken there too (1 + t rounds once, which |2c| magnifies), and 50
    # digits wherever it does not settle the sample
    powers, eps = {}, np.finfo(_LONG).eps
    with np.errstate(all="ignore"):
        m_ref, m_err = _long_reference("fraction_gap", c, _GRID, powers)
        w_ref, w_err = _long_reference("fraction_weight", c, _GRID, powers)
        a = ((1 + _GRID.astype(_LONG)) / 2) ** (2 * _LONG(c))
        n_ref = a * w_ref - m_ref
        n_err = (
            a * w_err + (abs(2 * c) + 8) * eps * a * np.abs(w_ref) + m_err
            + 4 * eps * (np.abs(a * w_ref) + np.abs(m_ref))
        )
        sums = _fraction_sums(c, _GRID)
        check = [
            np.flatnonzero(_unsettled(total, bound, ref, err))
            for (total, bound), ref, err in zip(sums, (m_ref, n_ref), (m_err, n_err))
        ]
    union = np.union1d(*check)
    exact = dict(zip("MN", _fraction_sums_at_fifty_digits(c, _GRID[union])))
    for (total, bound), idx, sum_name in zip(sums, check, "MN"):
        ref = exact[sum_name][np.searchsorted(union, idx)]
        assert _fifty_digit_misses(_GRID[idx], total[idx], bound[idx], ref) == [], (sum_name, c)


def _per_term_rows(name, c, t, log_t):
    """The rows (m, fl(a), |fl(a) - a|, a_hi, rel) of the per-term rule:
    rel = eps_pow + |fl(b) - b| |log t| per sample."""
    from fractions import Fraction

    rows = []
    for (a, b, _, _), (a_x, b_x, _, _) in zip(audit._table(name, FLOAT, c), audit._exact_table(name, c)):
        da = float(abs(Fraction(float(a)) - a_x))
        db = float(abs(Fraction(float(b)) - b_x))
        rows.append((t ** b, a, da, abs(float(a)) + da, audit._POW_ERR + db * log_t))
    return rows


def _per_term_bound(rows):
    """B by the per-term rule: twice the sum of m (|fl(a) - a| + a_hi (rel +
    u)) over the rows, plus gamma_(n-1) times the sum of the computed
    |terms|, plus 2^-1068 (1 + a_hi) per row; inf where some rel + u
    exceeds 2^-20."""
    mags = bound = worst = tiny = 0.0
    for m, a, da, a_hi, rel in rows:
        mags = mags + np.abs(m * a)
        bound = bound + m * (da + a_hi * (rel + audit._U))
        worst = np.maximum(worst, rel)
        tiny += 2.0 ** -1068 * (1.0 + a_hi)
    n = len(rows) - 1
    bound = 2.0 * (bound + n * audit._U / (1.0 - n * audit._U) * mags + tiny)
    return np.where(worst + audit._U > 2.0 ** -20, np.inf, bound)


def _per_term_bounds(c, t):
    """B of every table, of M and of N by the per-term rule, by name."""
    with np.errstate(all="ignore"):
        log_t = np.abs(np.log(t))
        bounds = {name: _per_term_bound(_per_term_rows(name, c, t, log_t)) for name in audit._TABLES}
        gap = _per_term_rows("fraction_gap", c, t, log_t)
        a = (0.5 * (1.0 + t)) ** (2.0 * c)
        a_err = abs(2.0 * c) * audit._U + audit._POW_ERR + audit._U
        weight = _per_term_rows("fraction_weight", c, t, log_t)
        n_bound = _per_term_bound(
            [(a * m, w, dw, w_hi, rel + a_err) for m, w, dw, w_hi, rel in weight]
            + [(m, -g, dg, g_hi, rel) for m, g, dg, g_hi, rel in gap]
        )
        bounds["M"] = _per_term_bound(gap)
        bounds["N"] = np.where(np.minimum(a, weight[1][0]) < 2.0 ** -1022, np.inf, n_bound)
    return bounds


@pytest.mark.parametrize("c", list(DEFAULT_C_GRID) + list(_SEEDED_CS) + [-1e3, 1e4])
def test_error_bounds_are_no_lower_than_the_per_term_rule(c):
    # B takes each row's errors as two per-row constants and bounds the sum
    # of |terms| by (1 + u) times the sum of m a_hi; that must not bring it
    # below the rule that bounds each term's error on its own sample.  N is
    # one sum of 6 rows, so its gamma is gamma_5, not the gamma of the 2- and
    # 4-row tables it is made from.  The grid, and 50 points down to 1e-18,
    # wherever S and the per-term B are finite: at c = -1e3 the per-term
    # rule's sum of |terms| overflows where S and B do not
    t = np.concatenate((np.geomspace(1e-18, 1e-6, 50), _GRID))
    want = _per_term_bounds(c, t)
    with np.errstate(all="ignore"):
        s = audit._Samples(FLOAT, c, t)
        got = {name: audit._enclosure(name, s) for name in audit._TABLES}
        got["M"], got["N"] = s.fraction_sums
    for name, (total, bound) in got.items():
        finite = np.isfinite(total) & np.isfinite(want[name])
        assert np.all(bound[finite] >= (1.0 - 2.0 ** -50) * want[name][finite]), (name, c)


def test_sums_that_are_not_finite_decide_no_sign():
    # at c = -1e3 one term of v overflows before the others, so S is -inf
    # where v > 0; a bound that is finite there must not decide the sign
    total, bound = _enclosure("v", -1e3, _GRID)
    lost = ~np.isfinite(total)
    assert np.any(np.isinf(total) & np.isfinite(bound))
    assert not np.any(_certified("v", -1e3, _GRID)[lost])
    probes = _GRID[lost][::25].tolist()
    assert [int(_certified("v", -1e3, x)) for x in probes] == [0] * len(probes)


@settings(max_examples=200, deadline=None)
@given(
    c=st.floats(-8.0, 8.0).filter(lambda c: min(abs(c), abs(c - 0.5), abs(c - 1.0)) > 1e-6),
    t=st.floats(1e-9, 1.0 - 1e-9),
)
def test_fraction_sums_carry_the_signs_of_f_prime_g_and_h(c, t):
    # at 50 digits, with M and N written as their sums: f' and N have opposite
    # signs, g has the sign of (1 - c) N, and h has g's sign where (1 - c) M > 0
    kept = {}
    f_prime, g, h = (audit._mp_chain(name, c, np.array([t]), kept)[0] for name in ("f_prime", "g", "h"))
    with mp_workdps() as xp:
        cv, tv = xp.asarray(c), xp.asarray(t)
        m = (1 - cv) - cv * tv ** cv + cv * tv - (1 - cv) * tv ** (cv + 1)
        a = ((1 + tv) / 2) ** (2 * cv)
        n = a - a * tv ** (1 - cv) - m
    side = audit._sign_of(1.0 - c)
    assert audit._sign_of(f_prime) == -audit._sign_of(n)
    assert audit._sign_of(g) == side * audit._sign_of(n)
    if side * m > 0:
        assert audit._sign_of(h) == audit._sign_of(g)


def test_near_underflow_samples_get_their_bound():
    # at c = 1e4, v_tprime has interior samples of about 1e-306 that a 1e-13
    # local-scale test trusted; three had the wrong sign and made two false
    # crossings near t = 0.92819 and 0.92839
    pattern = sign_changes("v_tprime", 1e4, 10_000)
    assert [x for x in pattern.crossings if x.bracket_hi >= 0.928 and x.bracket_lo <= 0.932] == []


@pytest.mark.parametrize("c", [1e-7, -1e-7, 1e-8, -1e-8])
def test_small_c_audits_match_once_every_sign_is_certified(c, monkeypatch):
    # below |c| = 1e-5 f', g and h cancel to roundoff near t = 1, and when a
    # local-scale test decided which double signs were kept, the audit found
    # crossings there that 50 digits do not confirm; _C_MIN still refuses
    # these c until a wider scan lowers it
    monkeypatch.setattr(audit, "_C_MIN", 1e-9)
    assert audit_chain(c).all_match


def test_escalated_counts_every_fifty_digit_sample(monkeypatch):
    # at c = -1e6 the double grid of f' is not finite below t = 1 - 1e-6,
    # where t^c is about e and N decides the sign
    evaluated = []
    mp_chain = audit._mp_chain

    def counted(name, c, t, kept=None):
        evaluated.append(t.size)
        return mp_chain(name, c, t, kept)

    monkeypatch.setattr(audit, "_mp_chain", counted)
    pattern = sign_changes("f_prime", -1e6, 1000)
    assert pattern.escalated == sum(evaluated) == 999
    assert pattern == audit.SignChangePattern(pattern.crossings, pattern.overall)
