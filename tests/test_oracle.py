"""Both backends against the independent 50-digit references of ``oracle``.

One parametrised test evaluates every quantity that has a double and a
50-digit path through one expression (the constant factor, the power mean,
eta and its gap, g_rp, b, h, the hyperbolic-point fields and psi) in each
precision mode, at one exponent from each region: p < 0, 0 < p < 1,
1 < p < 2 and p > 2.  Doubles must agree within relative 1e-12;
the 50-digit backend within relative 1e-40, which a constant or an input
rounded to a double on the way would break.  The chain functions the audit
derives from the term tables of v and w (v', q, u and m) are checked the same
way against the paper's displayed forms.  The audit's 50-digit samples of v,
w, f', g and h, and the 50-digit sides of ``main_sides_batch``, are checked
against the oracle at 1e-40 too.
"""
import mpmath
import numpy as np
import pytest

import oracle
from sharplp import audit
from sharplp.audit import _b, chain_eval, h_of_a, hyperbolic_point
from sharplp.cli import DEFAULT_C_GRID
from sharplp.doubling import psi
from sharplp.errors import NumericRange
from sharplp.inequality import main_sides_batch
from sharplp.means import _g_rp, _log_eta, _log_mean_gap, _power_mean, constant_factor
from sharplp.measure import forward_region
from sharplp.precision import FLOAT, backend

REL_TOL = {"double": 1e-12, "high": 1e-40}


def _pairs(p):
    """(label, value from sharplp, reference) for every quantity at exponent p."""
    for alpha in (0.2, 0.7):
        yield f"factor({alpha})", constant_factor(alpha, p, 2.0 / p), oracle.factor(alpha, p, 2.0 / p)
    with backend() as xp:  # the private kernels take the backend as an argument
        logs = _log_mean_gap(xp, 0.6, 1.7)
        yield "power_mean", _power_mean(xp, logs, p), oracle.power_mean(0.6, 1.7, p)
        for s in (0.3, 0.8):
            yield f"eta({s})", xp.exp(_log_eta(xp, xp.asarray(s), xp.asarray(p))), oracle.eta(s, p)
            yield f"gap({s})", _g_rp(xp, s, 1.0, p), oracle.gap(s, p)
            for r in (0.9, 1.1):
                yield f"g_rp({s}, {r})", _g_rp(xp, s, r, p), oracle.g_rp(s, r, p)
        for a in (0.2, 0.65):
            yield f"b({a})", _b(xp, a, p), oracle.b(a, p)
    for a in (0.2, 0.65):
        yield f"h({a})", h_of_a(a, p), oracle.h(a, p)
    for x in (0.4, 1.5):
        point = hyperbolic_point(x, p)
        for name, want in oracle.hyperbolic_fields(x, p).items():
            yield f"{name}({x})", getattr(point, name), want
    t = 1.0 - 1.0 / p  # the scalar lemma's parameter for exponent p
    for a in (0.3, 2.5):
        yield f"psi({a})", psi(t, a), oracle.psi(t, a)


@pytest.mark.parametrize("mode", sorted(REL_TOL))
@pytest.mark.parametrize("p", [-2.5, 0.4, 1.6, 3.5])
def test_backends_match_oracle(mode, p, monkeypatch):
    monkeypatch.setenv("SHARPLP_PRECISION", mode)
    with mpmath.workdps(oracle.DPS):
        errors = {
            label: abs(mpmath.mpf(got) / want - 1) for label, got, want in _pairs(p)
        }
    worst = max(errors, key=errors.get)
    assert errors[worst] <= REL_TOL[mode], (worst, mpmath.nstr(errors[worst], 3))


# one c per claim region: c < 0, (0, 1/2), (1/2, 1), (1, 2), c > 2; the
# points stay away from t = 1, where v', q and u vanish, and from the crossings
@pytest.mark.parametrize("mode", sorted(REL_TOL))
@pytest.mark.parametrize("c", [-2.5, 0.3, 0.7, 1.3, 3.5])
def test_derived_chain_matches_oracle(mode, c, monkeypatch):
    monkeypatch.setenv("SHARPLP_PRECISION", mode)
    errors = {}
    for name in ("v_prime", "q_factor", "u", "m"):
        for t in (0.05, 0.2, 0.45, 0.7):
            want = getattr(oracle, name)(t, c)
            with mpmath.workdps(oracle.DPS):
                errors[f"{name}({t})"] = abs(mpmath.mpf(chain_eval(name, c, t)) / want - 1)
    worst = max(errors, key=errors.get)
    assert errors[worst] <= REL_TOL[mode], (worst, mpmath.nstr(errors[worst], 3))


@pytest.mark.parametrize(
    "call",
    [
        lambda: _b(FLOAT, 1e-3, -200.0),
        lambda: h_of_a(1e-300, -5.0),
        lambda: hyperbolic_point(400.0, -3.0),
        lambda: psi(1000.0, 1e300),
        lambda: _g_rp(FLOAT, 0.5, 1e3, -2000.0),
        lambda: constant_factor(1e-3, -200.0, 1.0),
    ],
)
def test_non_finite_doubles_raise_numeric_range(call):
    # a double that overflows is a NumericRange, never an OverflowError or inf
    with pytest.raises(NumericRange):
        call()


# the audit's 50-digit samples: the edge bands it always escalates, and
# interior points; every c of the default grid, c = 2 (where every exponent is
# an integer) and c = -1000 (where t^c spans thousands of decades)
_EDGE_TS = (1e-6, 1e-4, 1e-3, 1.0 - 1e-3, 1.0 - 1e-4, 1.0 - 1e-6)
_INTERIOR_TS = (0.05, 0.3, 0.7, 0.95)


@pytest.mark.parametrize("c", list(DEFAULT_C_GRID) + [2.0, -1000.0])
@pytest.mark.parametrize("name", ["v", "w", "f_prime", "g", "h"])
def test_fifty_digit_chain_matches_oracle(name, c):
    t = np.array(_EDGE_TS + _INTERIOR_TS)
    got = audit._mp_chain(name, c, t)
    terms_of = getattr(oracle, name + "_terms")
    with mpmath.workdps(oracle.DPS):
        for x, value in zip(t.tolist(), got):
            terms = terms_of(x, c)
            want = mpmath.fsum(terms)
            # relative 1e-40, or 1e-40 of the largest term where the sum cancels
            scale = max(abs(want), *(abs(term) for term in terms))
            assert abs(value - want) <= 1e-40 * scale, (x, mpmath.nstr(want, 8))


def _ragged_stack(p):
    """(f, g, w, mask): random rows of 1 to 12 points, zero-padded, an equal
    pair and, where zeros are admissible (the forward range), a pair with
    disjoint supports."""
    rng = np.random.default_rng(11)
    rows = []
    for n in (1, 5, 12, 3, 7):
        f, g, w = 2.0 * (1.0 - rng.random((3, n)))
        rows.append((f, g, w))
    rows.append((rows[1][0], rows[1][0], rows[1][2]))
    if forward_region(p):
        f, _, w = rows[2]
        left = np.arange(12) < 5
        rows.append((np.where(left, f, 0.0), np.where(left, 0.0, f), w))
    f, g, w = np.zeros((3, len(rows), 12))
    mask = np.zeros((len(rows), 12), dtype=bool)
    for k, (fk, gk, wk) in enumerate(rows):
        n = fk.size
        f[k, :n], g[k, :n], w[k, :n], mask[k, :n] = fk, gk, wk, True
    return f, g, w, mask


@pytest.mark.parametrize("p", [-3.0, -0.7, 0.3, 1.2, 2.5, 3.0, 9.0])
def test_fifty_digit_sides_match_oracle(p, monkeypatch):
    monkeypatch.setenv("SHARPLP_PRECISION", "high")
    f, g, w, mask = _ragged_stack(p)
    sides = main_sides_batch(f, g, w, p, mask)
    with mpmath.workdps(oracle.DPS):
        for k in range(mask.shape[0]):
            m = mask[k]
            want = oracle.sides(f[k, m].tolist(), g[k, m].tolist(), w[k, m].tolist(), p)
            for name, value in want.items():
                got = getattr(sides, name)[k]
                # the ratios are exactly 0 on the disjoint pair
                assert abs(got - value) <= 1e-40 * abs(value), (k, name, got, value)


@pytest.mark.parametrize("p", [-20.0, -3.0, -0.7, 1e-3, 0.3, 1.2, 2.5, 3.0, 4.5, 9.0, 20.0])
def test_fifty_digit_sides_match_norm_forms_at_eighty_digits(p, monkeypatch):
    # 50 digits form (fg)^(p/2) as sqrt(f^p g^p) and each ratio with one
    # power; the oracle's norm forms at 80 digits are the reference.  Raising
    # to 2/p magnifies the 50-digit roundoff of the sums by 2/|p| in either
    # form, so below |p| = 2 the bound grows with it.
    monkeypatch.setenv("SHARPLP_PRECISION", "high")
    f, g, w, mask = _ragged_stack(p)
    if forward_region(p):  # and a row where f vanishes: gamma is NaN there
        last = (0.0 * f, g, w, mask)
        f, g, w, mask = (np.vstack([a, b[-1:]]) for a, b in zip((f, g, w, mask), last))
    sides = main_sides_batch(f, g, w, p, mask)
    tol = 2.0 ** -160 * max(1.0, 2.0 / abs(p))
    with mpmath.workdps(80):
        for k in range(mask.shape[0]):
            m = mask[k]
            want = oracle.sides(f[k, m].tolist(), g[k, m].tolist(), w[k, m].tolist(), p, dps=80)
            for name, value in want.items():
                got = getattr(sides, name)[k]
                if mpmath.isnan(value):
                    assert mpmath.isnan(got), (k, name, got)
                else:
                    assert abs(got - value) <= tol * abs(value), (k, name, got, value)
