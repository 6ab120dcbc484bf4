"""The one verdict rule of ``sharplp.measure``, and the checks that use it.

Every check passes when ``relative_violation`` of its two sides, in the
direction of ``forward_region``, is at most ``SLACK``; the identities at
p = 1 and p = 2 bound its absolute value.
"""
import os
from unittest import mock

import mpmath as mp
import numpy as np
import pytest

from sharplp.campaigns import random_instance
from sharplp.doubling import direct_p4, doubling_step, psi, psi_link, schatten_doubling
from sharplp.inequality import main_sides
from sharplp.measure import (
    SLACK,
    ExponentRegion,
    RegionKind,
    forward_region,
    relative_violation,
)
from sharplp.schatten import random_psd, schatten_verify


def test_relative_violation_forward_and_reverse():
    assert relative_violation(1.0, 2.0, forward=True) == -0.5
    assert relative_violation(2.0, 1.0, forward=True) == 0.5
    assert relative_violation(1.0, 2.0, forward=False) == 0.5
    assert relative_violation(2.0, 1.0, forward=False) == -0.5
    assert relative_violation(3.0, 3.0, forward=True) == 0.0
    v = relative_violation(np.array([1.0, 4.0]), np.array([2.0, 2.0]), forward=True)
    assert v.dtype == float and v.tolist() == [-0.5, 0.5]


def test_relative_violation_of_two_zero_sides_is_zero():
    assert relative_violation(0.0, 0.0, forward=True) == 0.0
    assert relative_violation(0.0, 0.0, forward=False) == 0.0
    v = relative_violation(np.zeros(3), np.zeros(3), forward=True)
    assert v.tolist() == [0.0, 0.0, 0.0]


def test_relative_violation_on_mpf_object_arrays():
    # the quotient of the unrounded 50-digit sides, converted to a double
    with mp.workdps(50):
        lhs = np.array([mp.mpf(1) + mp.mpf(10) ** -40, mp.mpf(2)], dtype=object)
        rhs = np.array([mp.mpf(1), mp.mpf(2) + mp.mpf(10) ** -45], dtype=object)
        want = [float((lhs[0] - rhs[0]) / lhs[0]), float((rhs[1] - lhs[1]) / rhs[1])]
        v_fwd = relative_violation(lhs, rhs, forward=True)
        v_rev = relative_violation(lhs, rhs, forward=False)
    assert v_fwd.dtype == float and v_fwd[0] == want[0] and v_fwd[0] > 0.0
    assert v_rev.dtype == float and v_rev[1] == want[1] and v_rev[1] > 0.0
    with mp.workdps(50):
        scalar = relative_violation(lhs[0], rhs[0], forward=True)
    assert isinstance(scalar, float) and scalar == want[0]


@pytest.mark.parametrize("p", [-5.0, -1e-3, 1e-3, 0.5, 1.0, 1.5, 2.0, 2.5, 40.0])
def test_forward_region_agrees_with_exponent_region(p):
    kind = ExponentRegion.from_p(p).region
    assert forward_region(p) == (kind is not RegionKind.REVERSE)
    assert (kind is RegionKind.REVERSE) == (p < 0.0 or 1.0 < p < 2.0)


def _instances(n=6, seed=11):
    rng = np.random.default_rng(seed)
    return [random_instance(rng) for _ in range(n)]


@pytest.mark.parametrize("mode", ["double", "high"])
@pytest.mark.parametrize("p", [-2.0, 0.5, 1.0, 1.5, 2.0, 3.0])
def test_main_sides_verdict_is_the_rule(p, mode):
    with mock.patch.dict(os.environ, {"SHARPLP_PRECISION": mode}):
        for f, g, space in _instances(3):
            rep = main_sides(f, g, space, p)
            v = relative_violation(rep.lhs, rep.rhs, forward_region(p))
            if p in (1.0, 2.0):
                v = abs(v)
            assert rep.satisfied == (v <= SLACK)
            assert rep.satisfied


def test_main_sides_identity_fails_in_either_direction(monkeypatch):
    # an identity's verdict bounds |violation|: a gap of 1e-6 either way fails
    from sharplp import inequality

    f, g, space = _instances(1)[0]
    real = inequality._one_row
    for factor in (1.0 + 1e-6, 1.0 - 1e-6):
        def skewed(*args, factor=factor):
            sides = real(*args)
            return type(sides)(**{**sides.__dict__, "rhs": sides.rhs * factor})

        monkeypatch.setattr(inequality, "_one_row", skewed)
        assert not main_sides(f, g, space, 2.0).satisfied
        assert not main_sides(f, g, space, 1.0).satisfied


@pytest.mark.parametrize("p", [2.0, 4.0, 8.0])
def test_schatten_verdicts_are_the_rule(p):
    for k in range(3):
        A, B = random_psd(3, 2 * k), random_psd(3, 2 * k + 1)
        rep = schatten_verify(A, B, p)
        v = relative_violation(rep.lhs, rep.rhs, forward=True)
        assert rep.satisfied == (v <= SLACK) and rep.satisfied
        chain = schatten_doubling(A, B, p)
        for link in chain.links:
            assert link.direction == "<="
            assert link.satisfied == (relative_violation(link.lhs, link.rhs, True) <= SLACK)
        assert chain.all_links_hold


@pytest.mark.parametrize("p", [-3.0, -1.0, 2.0, 3.0])
def test_doubling_link_verdicts_are_the_rule(p):
    forward = forward_region(p)
    for f, g, space in _instances(4):
        rep = doubling_step(f, g, space, p)
        for link in rep.links:
            assert link.direction == ("<=" if forward else ">=")
            v = relative_violation(link.lhs, link.rhs, forward)
            assert link.satisfied == (v <= SLACK) and link.satisfied
            want = link.rhs - link.lhs if forward else link.lhs - link.rhs
            assert link.slack == pytest.approx(want, rel=1e-12, abs=1e-300)
        assert rep.final_bound == rep.links[-1].rhs
        direct_p4(f, g, space)  # raises unless its chain holds by the rule


@pytest.mark.parametrize("p", [-2.0, 2.0, 8.0])
def test_psi_link_gap_is_the_scalar_lemma(p):
    # final bound minus middle term = 2^(1/p) psi_{1-1/p}(gamma)
    for gamma in (0.0, 0.3, 1.0, 2.5):
        link = psi_link(p, gamma, forward_region(p))
        want = 2.0 ** (1.0 / p) * psi(1.0 - 1.0 / p, gamma)
        assert link.rhs - link.lhs == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert link.satisfied
