"""Both backends against the independent 50-digit references of ``oracle``.

One parametrised test evaluates every quantity that has a double and a
50-digit path through one expression (the constant factor, the power mean,
eta and its gap, g_rp, b, h, the hyperbolic-point fields and psi) in each
precision mode, at one exponent from each region: p < 0, 0 < p < 1,
1 < p < 2 and p > 2.  Doubles must agree within relative 1e-12;
the 50-digit backend within relative 1e-40, which a constant or an input
rounded to a double on the way would break.  The chain functions the audit
derives from the term tables of v and w (v', q, u and m) are checked the same
way against the paper's displayed forms.
"""
import mpmath
import pytest

import oracle
from sharplp.audit import ChainContext, _b, chain_eval, h_of_a, hyperbolic_point
from sharplp.doubling import psi
from sharplp.errors import NumericRange
from sharplp.means import _g_rp, _log_eta, _power_mean, constant_factor
from sharplp.precision import FLOAT, backend

REL_TOL = {"double": 1e-12, "high": 1e-40}


def _pairs(p):
    """(label, value from sharplp, reference) for every quantity at exponent p."""
    for alpha in (0.2, 0.7):
        yield f"factor({alpha})", constant_factor(alpha, p, 2.0 / p), oracle.factor(alpha, p, 2.0 / p)
    with backend() as xp:  # the private kernels take the backend as an argument
        yield "power_mean", _power_mean(xp, 0.6, 1.7, p), oracle.power_mean(0.6, 1.7, p)
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
    ctx = ChainContext.from_c(c)
    errors = {}
    for name in ("v_prime", "q_factor", "u", "m"):
        for t in (0.05, 0.2, 0.45, 0.7):
            want = getattr(oracle, name)(t, c)
            with mpmath.workdps(oracle.DPS):
                errors[f"{name}({t})"] = abs(mpmath.mpf(chain_eval(name, ctx, t)) / want - 1)
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
