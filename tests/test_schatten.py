import warnings

import numpy as np
import pytest

from sharplp.doubling import schatten_doubling
from sharplp.errors import (
    DimOutOfRange,
    ExponentOutOfRange,
    NotPSD,
    NumericRange,
    UnsupportedExponent,
)
from sharplp.schatten import (
    PSDMatrix,
    PSDStack,
    lieb_thirring_check,
    lieb_thirring_stack,
    random_psd,
    random_psd_stack,
    schatten_norm,
    schatten_verify,
    schatten_verify_stack,
)


def test_psd_validation():
    with pytest.raises(NotPSD):
        PSDMatrix([[0.0, 1.0], [0.0, 0.0]])  # not Hermitian
    with pytest.raises(NotPSD):
        PSDMatrix([[1.0, 0.0], [0.0, -1.0]])  # negative eigenvalue
    m = PSDMatrix([[2.0, 1.0], [1.0, 2.0]])
    assert m.dim == 2
    np.testing.assert_allclose(m.eigenvalues(), [1.0, 3.0], atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_psd_rejects_non_finite_entries(bad):
    with pytest.raises(NotPSD, match="matrix 0 has a non-finite entry"):
        PSDMatrix([[bad, 0.0], [0.0, 1.0]])
    entries = np.stack([np.eye(2), np.eye(2), np.eye(2)]).astype(complex)
    entries[2, 0, 1] = entries[2, 1, 0] = bad
    with pytest.raises(NotPSD, match="matrix 2 has a non-finite entry"):
        PSDStack(entries)


def test_psd_entries_near_the_double_limit():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # (A + A*)/2 would overflow; A/2 + A*/2 is exact
        np.testing.assert_array_equal(
            PSDMatrix([[1.5e308, 0.0], [0.0, 1.0]]).eigenvalues(), [1.0, 1.5e308]
        )
        entries = np.stack([np.eye(2), np.full((2, 2), 1e308)])  # eigenvalue 2e308
        with pytest.raises(NumericRange, match="matrix 1 has an eigenvalue beyond"):
            PSDStack(entries)


def test_hermiticity_gap_of_large_entries_is_finite():
    # squaring an entry above about 1e154 overflows; ||A - A*||_F = sqrt(2) 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotPSD, match=r"not Hermitian \(gap 1\.414e\+200\)"):
            PSDMatrix([[0.0, 1e200], [0.0, 0.0]])


def test_random_psd():
    a = random_psd(1, 0)
    assert a.dim == 1 and a.eigenvalues()[0] >= 0.0
    b1 = random_psd(3, 1)
    b2 = random_psd(3, 1)
    np.testing.assert_array_equal(np.asarray(b1.entries), np.asarray(b2.entries))
    assert np.all(b1.eigenvalues() >= 0.0)
    assert not np.allclose(
        np.asarray(random_psd(3, 2).entries), np.asarray(b1.entries)
    )
    with pytest.raises(DimOutOfRange):
        random_psd(0, 1)
    with pytest.raises(DimOutOfRange):
        random_psd(65, 1)


def test_schatten_norm():
    eye = PSDMatrix(np.eye(5))
    for p in (1.0, 2.0, 4.0):
        assert schatten_norm(eye, p) == pytest.approx(5.0 ** (1.0 / p), rel=1e-14)
    assert schatten_norm(PSDMatrix(np.diag([3.0, 4.0])), 2.0) == pytest.approx(5.0)
    A = random_psd(3, 1)
    M = np.asarray(A.entries)
    tr4 = float(np.trace(M @ M @ M @ M).real)
    assert schatten_norm(A, 4.0) == pytest.approx(tr4 ** 0.25, rel=1e-12)
    with pytest.raises(ExponentOutOfRange):
        schatten_norm(A, 0.5)


def test_traces_beyond_the_doubles_raise_numeric_range():
    # lambda^1000 and a^5000 overflow; the norm would be inf, the trace nan
    A, B = random_psd(3, 0), random_psd(3, 1)
    with pytest.raises(NumericRange):
        schatten_norm(A, 1000.0)
    with pytest.raises(NumericRange):
        schatten_verify(A, B, 1e4, allow_unproven=True)


def mixed_trace(A, B, p):
    return schatten_verify(A, B, p).mixed


def test_mixed_trace():
    A = random_psd(4, 3)
    M = np.asarray(A.entries)
    for p in (2.0, 4.0):
        want = float(np.trace(np.linalg.matrix_power(M, int(p))).real)
        assert mixed_trace(A, A, p) == pytest.approx(want, rel=1e-11)
    # orthogonal ranges annihilate the mixed trace
    P = PSDMatrix(np.diag([1.0, 0.0]))
    Q = PSDMatrix(np.diag([0.0, 2.0]))
    assert mixed_trace(P, Q, 4.0) == pytest.approx(0.0, abs=1e-14)
    # p = 2 reduces to tr[AB] by cyclicity
    B = random_psd(4, 5)
    want = float(np.trace(np.asarray(A.entries) @ np.asarray(B.entries)).real)
    assert mixed_trace(A, B, 2.0) == pytest.approx(want, rel=1e-12)


def test_mixed_trace_symmetry():
    for seed in range(10):
        A = random_psd(4, 100 + seed)
        B = random_psd(4, 200 + seed)
        for p in (2.0, 4.0, 8.0):
            ab = mixed_trace(A, B, p)
            ba = mixed_trace(B, A, p)
            assert ab == pytest.approx(ba, rel=1e-10)


def test_schatten_verify_examples():
    eye = PSDMatrix(np.eye(2))
    rep = schatten_verify(eye, eye, 4.0)
    assert rep.lhs == pytest.approx(32.0, rel=1e-13)
    assert rep.rhs == pytest.approx(32.0, rel=1e-13)
    assert rep.satisfied and not rep.conjectural

    P = PSDMatrix(np.diag([1.0, 0.0]))
    Q = PSDMatrix(np.diag([0.0, 1.0]))
    rep = schatten_verify(P, Q, 4.0)
    assert rep.lhs == pytest.approx(2.0) and rep.rhs == pytest.approx(2.0)

    with pytest.raises(UnsupportedExponent):
        schatten_verify(eye, eye, 3.0)
    with pytest.raises(UnsupportedExponent):
        schatten_verify(eye, eye, 6.0)
    rep = schatten_verify(eye, eye, 3.0, allow_unproven=True)
    assert rep.conjectural


def test_schatten_verify_trials():
    for seed in range(25):
        dim = 2 + seed % 5
        A = random_psd(dim, 1000 + 2 * seed)
        B = random_psd(dim, 1001 + 2 * seed)
        for p in (2.0, 4.0, 8.0, 16.0):
            rep = schatten_verify(A, B, p)
            assert rep.satisfied
        rep2 = schatten_verify(A, B, 2.0)
        assert abs(rep2.lhs - rep2.rhs) <= 1e-12 * rep2.lhs


def test_lieb_thirring():
    # commuting diagonal pair: equality
    A = PSDMatrix(np.diag([1.0, 2.0, 0.5]))
    B = PSDMatrix(np.diag([0.3, 1.1, 2.2]))
    lhs, rhs = lieb_thirring_check(A, B, 4.0)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    # p = 2: both sides are tr[B A^2 B]
    A = random_psd(3, 11)
    B = random_psd(3, 12)
    lhs, rhs = lieb_thirring_check(A, B, 2.0)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    # noncommuting pair at p = 4: strict inequality
    A = random_psd(2, 21)
    B = random_psd(2, 22)
    lhs, rhs = lieb_thirring_check(A, B, 4.0)
    assert lhs < rhs
    assert lhs <= rhs * (1.0 + 1e-9)


def test_schatten_doubling():
    eye = PSDMatrix(np.eye(3))
    rep = schatten_doubling(eye, eye, 2.0)
    assert rep.all_links_hold
    for link in rep.links:
        assert abs(link.slack) <= 1e-9 * max(abs(link.lhs), abs(link.rhs))

    P = PSDMatrix(np.diag([1.0, 0.0]))
    Q = PSDMatrix(np.diag([0.0, 1.5]))
    rep = schatten_doubling(P, Q, 2.0)
    assert rep.gamma == pytest.approx(0.0, abs=1e-12)
    assert rep.all_links_hold

    A = random_psd(4, 51)
    B = random_psd(4, 52)
    for p in (2.0, 4.0):
        rep = schatten_doubling(A, B, p)
        assert rep.all_links_hold

    with pytest.raises(UnsupportedExponent):
        schatten_doubling(A, B, 3.0)


@pytest.mark.parametrize("p", [256.0, 1024.0])
def test_schatten_doubling_beyond_the_doubles_raises_without_warning(p):
    # the eigenvalues' 2p-th powers overflow in the rescaling sum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericRange):
            schatten_doubling(random_psd(3, 1), random_psd(3, 2), p)


def test_doubling_consistent_with_verify():
    # the composed bound at 2p dominates the (2p)-level left side
    for seed in range(10):
        A = random_psd(3, 300 + 2 * seed)
        B = random_psd(3, 301 + 2 * seed)
        rep = schatten_doubling(A, B, 2.0)
        s = float(
            (np.sum(A.eigenvalues() ** 4) + np.sum(B.eigenvalues() ** 4)) / 2.0
        ) ** 0.25
        An = PSDMatrix(np.asarray(A.entries) / s)
        Bn = PSDMatrix(np.asarray(B.entries) / s)
        ver = schatten_verify(An, Bn, 4.0)
        assert rep.final_bound_power_p >= ver.lhs - 1e-9 * max(ver.lhs, 1.0)
        assert rep.final_bound_power_p == pytest.approx(ver.rhs, rel=1e-12)


def test_traces_are_real():
    for seed in range(5):
        A = random_psd(5, 400 + seed)
        B = random_psd(5, 500 + seed)
        for p in (2.0, 4.0, 8.0):
            val = mixed_trace(A, B, p)
            assert isinstance(val, float)
            assert val >= 0.0


def test_dim_one_matrices():
    A = random_psd(1, 9)
    B = random_psd(1, 10)
    rep = schatten_verify(A, B, 4.0)
    assert rep.satisfied
    a = float(A.eigenvalues()[0])
    assert schatten_norm(A, 3.0) == pytest.approx(a, rel=1e-13)
    lhs, rhs = lieb_thirring_check(A, B, 4.0)
    assert lhs == pytest.approx(rhs, rel=1e-12)  # scalars commute


def _power(M, q):
    """The spectral power M^q as a dense array (0^q := 0)."""
    lam, vec = M.eigenvalues(), M.stack.eigvecs[0]
    with np.errstate(divide="ignore"):
        powered = np.where(lam > 0.0, lam ** q, 0.0)
    return (vec * powered) @ vec.conj().T


def _dense_traces(A, B, p):
    """tr[B^(p/4) A^(p/2) B^(p/4)] and tr[B^(p/2) A^p B^(p/2)] by their
    definition: products of dense spectral powers."""
    Bq, Bh = _power(B, p / 4.0), _power(B, p / 2.0)
    mixed = np.trace(Bq @ _power(A, p / 2.0) @ Bq)
    rhs = np.trace(Bh @ _power(A, p) @ Bh)
    return mixed.real, rhs.real


def _assert_eigenbasis_traces(A, B, p, allow_unproven=False):
    """The stack kernels and the scalar wrappers against the dense
    definition, member by member, to 1e-12 relative."""
    mixed = schatten_verify_stack(A, B, p, allow_unproven).mixed
    rhs = lieb_thirring_stack(A, B, p)[1]
    for k in range(len(mixed)):
        a, b = PSDMatrix(A.entries[k]), PSDMatrix(B.entries[k])
        want_mixed, want_rhs = _dense_traces(a, b, p)
        scalar = schatten_verify(a, b, p, allow_unproven).mixed
        for got in (mixed[k], scalar):
            assert got == pytest.approx(want_mixed, rel=1e-12, abs=0.0)
        for got in (rhs[k], lieb_thirring_check(a, b, p)[1]):
            assert got == pytest.approx(want_rhs, rel=1e-12, abs=0.0)


def _unitary(rng, dim):
    Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(Z)[0]


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("p", [2.0, 4.0, 8.0, 16.0])
def test_eigenbasis_traces_match_dense_powers(dim, p):
    A = random_psd_stack(dim, range(700, 708))
    B = random_psd_stack(dim, range(800, 808))
    _assert_eigenbasis_traces(A, B, p)


@pytest.mark.parametrize("p", [2.0, 4.0, 8.0, 16.0])
def test_eigenbasis_traces_of_rank_deficient_members(p):
    # projectors of every rank, a zero matrix and exact zeros on a diagonal:
    # zero eigenvalues contribute 0^q := 0
    rng = np.random.default_rng(17)
    dim = 4
    projectors = []
    for rank in range(1, dim + 1):
        V = _unitary(rng, dim)[:, :rank]
        projectors.append(V @ V.conj().T)
    A = PSDStack(np.array(projectors + [np.zeros((dim, dim)), np.diag([2.0, 0.0, 1.0, 0.0])]))
    B = random_psd_stack(dim, range(6))
    _assert_eigenbasis_traces(A, B, p)
    _assert_eigenbasis_traces(B, A, p)
    assert schatten_verify_stack(A, B, p).mixed[4] == 0.0  # the zero member


@pytest.mark.parametrize("p", [2.0, 4.0, 8.0, 16.0])
def test_eigenbasis_rearrangement_is_equality_for_commuting_pairs(p):
    rng = np.random.default_rng(23)
    U = _unitary(rng, 5)
    a = np.array([0.0, 0.3, 1.0, 1.7, 2.5])
    b = np.array([1.2, 0.0, 0.4, 2.1, 0.9])
    A = PSDStack((U * a) @ U.conj().T[None])
    B = PSDStack((U * b) @ U.conj().T[None])
    _assert_eigenbasis_traces(A, B, p)
    lhs, rhs = lieb_thirring_stack(A, B, p)
    assert rhs[0] == pytest.approx(np.sum((a * b) ** p), rel=1e-12)
    assert lhs[0] == pytest.approx(rhs[0], rel=1e-12)


@pytest.mark.parametrize("p", [3.0, 5.5, 12.0])
def test_eigenbasis_traces_at_unproven_exponents(p):
    A = random_psd_stack(4, range(900, 906))
    B = random_psd_stack(4, range(950, 956))
    with pytest.raises(UnsupportedExponent):
        schatten_verify_stack(A, B, p)
    _assert_eigenbasis_traces(A, B, p, allow_unproven=True)
