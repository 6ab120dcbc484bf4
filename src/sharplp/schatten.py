"""Schatten p-norms of positive matrices and the non-commutative trace bound.

For positive semidefinite A, B the candidate analog of the sharpened bound
replaces the pointwise overlap by the mixed trace tr[B^(p/4) A^(p/2) B^(p/4)]:

    tr (A+B)^p <= (1 + (mixed / ((||A||_p^p + ||B||_p^p)/2))^(2/p))^(p-1)
                  * tr (A^p + B^p).

It holds as an identity at p = 2 and, by a doubling argument through the
trace-rearrangement inequality tr[(B A^2 B)^(p/2)] <= tr[B^(p/2) A^p B^(p/2)],
for every p = 2^k.  Other exponents are unproven; they can only be evaluated
behind an explicit exploratory flag.

The ``*_stack`` functions evaluate stacks of pairs, shape (n, d, d), in the
eigenbases: with A's eigenvalues a, B's b and W_ij = |<u_i, v_j>|^2 for their
eigenvectors, the mixed trace is sum_ij a_i^(p/2) W_ij b_j^(p/2) by cyclicity.
Every p-independent eigensolve runs once per stack pair; ``PSDMatrix`` is a
``PSDStack`` of one, and the scalar functions wrap the stack kernels.  The
operator doubling step that proves the p = 2^k cases, ``schatten_doubling``,
is checked in ``doubling``.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    BadShape,
    DimOutOfRange,
    ExponentOutOfRange,
    InvalidDraw,
    NotPSD,
    NumericRange,
    UnsupportedExponent,
)
from .measure import SLACK, relative_violation
from .precision import require_finite

MAX_DIM = 64
_HERMITIAN_TOL = 1e-12
_EIGEN_CLAMP_TOL = 1e-10


def _adjoint(M: np.ndarray) -> np.ndarray:
    return np.swapaxes(M.conj(), -1, -2)


class PSDStack:
    """Stack of Hermitian positive-semidefinite matrices, shape (n, d, d),
    with cached eigendecompositions.

    Entries must be finite, and so must the eigenvalues of the Hermitian part
    (NumericRange otherwise).  Hermiticity is enforced to 1e-12 relative to
    the spectral norm (max |eigenvalue| of the Hermitian part); eigenvalues
    above -1e-10 * ||A|| are clamped to zero, anything lower is rejected.  Each
    check applies to every member, and a failing member is named by its index.
    """

    __slots__ = ("entries", "eigvals", "eigvecs")

    def __init__(self, entries: np.ndarray):
        arr = np.array(entries, dtype=complex)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise BadShape("entries must form a stack of square matrices")
        if arr.shape[1] < 1:
            raise DimOutOfRange("dimension must be at least 1")
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=(-2, -1)))
        if bad.size:
            raise NotPSD(f"matrix {bad[0]} has a non-finite entry")
        herm = arr / 2.0 + _adjoint(arr) / 2.0  # halving first cannot overflow
        lam, vec = np.linalg.eigh(herm)
        bad = np.flatnonzero(~np.isfinite(lam).all(axis=-1))
        if bad.size:
            raise NumericRange(f"matrix {bad[0]} has an eigenvalue beyond the doubles")
        scale = np.maximum(np.abs(lam).max(axis=-1), 1e-300)
        # ||A - A*||_F from the halved difference, scaled to entries of at most
        # 1 before squaring (a square overflows from about 1e154); inf only
        # where the gap itself is beyond the doubles
        anti = arr / 2.0 - _adjoint(arr) / 2.0
        peak = np.abs(anti).max(axis=(-2, -1))
        unit = np.where(peak > 0.0, peak, 1.0)[:, None, None]
        with np.errstate(over="ignore"):
            herm_gap = 2.0 * peak * np.linalg.norm(anti / unit, axis=(-2, -1))
        bad = np.flatnonzero(herm_gap > _HERMITIAN_TOL * scale)
        if bad.size:
            k = bad[0]
            raise NotPSD(f"matrix {k} is not Hermitian (gap {herm_gap[k]:.3e})")
        lam_min = lam.min(axis=-1)
        bad = np.flatnonzero(lam_min < -_EIGEN_CLAMP_TOL * scale)
        if bad.size:
            k = bad[0]
            raise NotPSD(
                f"matrix {k}: minimum eigenvalue {lam_min[k]:.3e} below tolerance"
            )
        lam = np.clip(lam, 0.0, None)
        for a in (herm, lam, vec):
            a.setflags(write=False)
        self.entries = herm
        self.eigvals = lam
        self.eigvecs = vec

    @property
    def dim(self) -> int:
        return int(self.entries.shape[1])


class PSDMatrix:
    """Hermitian positive-semidefinite matrix with a cached eigendecomposition:
    a PSDStack of one, with the same checks."""

    __slots__ = ("stack",)

    def __init__(self, entries: Sequence[Sequence[complex]] | np.ndarray):
        arr = np.array(entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise BadShape("entries must form a square matrix")
        self.stack = PSDStack(arr[None])

    @classmethod
    def _of(cls, stack: PSDStack) -> "PSDMatrix":
        one = cls.__new__(cls)
        one.stack = stack
        return one

    @property
    def entries(self) -> np.ndarray:
        return self.stack.entries[0]

    @property
    def dim(self) -> int:
        return self.stack.dim

    def eigenvalues(self) -> np.ndarray:
        return self.stack.eigvals[0]

    def __repr__(self) -> str:
        return f"PSDMatrix(dim={self.dim})"


@dataclass(frozen=True)
class SchattenReport:
    lhs: float
    rhs: float
    mixed: float
    gamma_tilde: float
    p: float
    satisfied: bool
    slack: float
    conjectural: bool


@dataclass(frozen=True)
class SchattenBatch:
    """The trace bound for a stack of pairs, one entry per pair."""

    lhs: np.ndarray
    rhs: np.ndarray
    mixed: np.ndarray
    gamma_tilde: np.ndarray


# numpy's SeedSequence hash (pool of 4 words) and PCG64's seeding LCG
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hasher(hash_const: int, mult: int):
    """numpy's SeedSequence hashmix over uint32 arrays; the multiplier
    advances with every call, as in numpy."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return result ^ (result >> np.uint32(16))


def _seed_pools(entropy: np.ndarray) -> list[np.ndarray]:
    """The four words of SeedSequence(entropy[k]).pool for every row k of a
    (n, L) uint32 array, as four arrays over the rows."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    n, length = entropy.shape
    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zero) for i in range(_POOL)]
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL, length):  # entropy longer than the pool
        for i_dst in range(_POOL):
            pool[i_dst] = _mix(pool[i_dst], hashmix(entropy[:, i_src]))
    return pool


def _pcg64_states(dim: int, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The PCG64 (state, inc) of ``np.random.default_rng([dim, seed])`` for
    every seed, as two object arrays of ints.

    numpy reads the entropy [dim, seed] as little-endian 32-bit words (one
    for 0), and the number of words changes the hash, so the seeds are
    hashed in groups of equal word count.
    """
    seeds = np.array(seeds, dtype=object)
    lengths = np.array([max(1, -(-seed.bit_length() // 32)) for seed in seeds], dtype=int)
    state = np.empty(len(seeds), dtype=object)
    inc = np.empty(len(seeds), dtype=object)
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        entropy = np.empty((len(rows), 1 + length), dtype=np.uint32)
        entropy[:, 0] = dim
        for j in range(length):
            entropy[:, 1 + j] = (seeds[rows] >> 32 * j) & _MASK32
        pool = _seed_pools(entropy)
        # generate_state(4, np.uint64): eight hashed words cycling over the pool
        hashmix = _hasher(_INIT_B, _MULT_B)
        out = np.stack([hashmix(pool[i % _POOL]) for i in range(8)], axis=1)
        s_hi, s_lo, i_hi, i_lo = out.astype("<u4").view("<u8").astype(object).T
        # PCG64's seeding: inc = 2 * initseq + 1, then two LCG steps from 0
        # with initstate added in between
        inc[rows] = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        state[rows] = ((inc[rows] + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc[rows]) & _MASK128
    return state, inc


def random_psd_stack(dim: int, seeds: Sequence[int]) -> PSDStack:
    """G G* for G with iid standard complex normal entries, one member per
    seed; member k is ``random_psd(dim, seeds[k])``.

    Member k's G is drawn as ``np.random.default_rng([dim, seeds[k]])`` would
    draw it: one standard_normal((2, dim, dim)), the real part first.  The
    generators' PCG64 states are computed for all seeds at once (numpy's
    SeedSequence hash over arrays of seeds, then PCG64's seeding step) and
    set in turn on one reused generator, so no per-seed generator is built.
    """
    if not 1 <= dim <= MAX_DIM:
        raise DimOutOfRange(f"dim must lie in [1, {MAX_DIM}], got {dim}")
    seeds = [operator.index(seed) for seed in seeds]  # a float seed is a TypeError
    negative = [seed for seed in seeds if seed < 0]
    if negative:
        raise InvalidDraw(f"matrix seeds must be non-negative, got {negative[0]}")
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    X = np.empty((len(seeds), 2, dim, dim))
    for k, (state, inc) in enumerate(zip(*_pcg64_states(dim, seeds))):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        rng.standard_normal(out=X[k])
    G = X[:, 0] + 1j * X[:, 1]
    G /= math.sqrt(2.0)
    return PSDStack(G @ _adjoint(G))


def random_psd(dim: int, seed: int) -> PSDMatrix:
    """G G* for G with iid standard complex normal entries; deterministic per
    (dim, seed)."""
    return PSDMatrix._of(random_psd_stack(dim, [seed]))


def schatten_norm(A: PSDMatrix, p: float) -> float:
    """(sum_i lambda_i^p)^(1/p) over the eigenvalues of a PSD matrix, p >= 1."""
    if p < 1.0:
        raise ExponentOutOfRange("Schatten norms are defined for p >= 1 here")
    return _p_norm(A.eigenvalues(), p)


def _p_norm(values: np.ndarray, p: float) -> float:
    """(sum |v|^p)^(1/p) over all values; NumericRange where that is not a
    finite double."""
    with np.errstate(over="ignore"):  # checked below
        norm = np.sum(np.abs(values) ** p) ** (1.0 / p)
    require_finite(p, norm=norm)
    return float(norm)


class _SpectralPair:
    """The p-independent parts of a stack pair's traces, each computed once."""

    def __init__(self, A: PSDStack, B: PSDStack):
        if A.entries.shape != B.entries.shape:
            raise BadShape(
                f"dimension mismatch: stacks of shape {A.entries.shape} and {B.entries.shape}"
            )
        self.A, self.B = A, B

    @cached_property
    def sum_eigvals(self) -> np.ndarray:
        return np.clip(np.linalg.eigvalsh(self.A.entries + self.B.entries), 0.0, None)

    @cached_property
    def inner_eigvals(self) -> np.ndarray:
        inner = self.B.entries @ self.A.entries @ self.A.entries @ self.B.entries
        return np.clip(np.linalg.eigvalsh((inner + _adjoint(inner)) / 2.0), 0.0, None)

    @cached_property
    def overlap(self) -> np.ndarray:
        return np.abs(_adjoint(self.A.eigvecs) @ self.B.eigvecs) ** 2

    def trace(self, q: float) -> np.ndarray:
        """tr[B^(q/2) A^q B^(q/2)] = sum_ij a_i^q W_ij b_j^q >= 0, for q > 0;
        NumericRange where it is not a finite double."""
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            a, b = self.A.eigvals ** q, self.B.eigvals ** q
            trace = (a[..., None, :] @ self.overlap @ b[..., :, None])[..., 0, 0]
        require_finite(q, trace=trace)
        return trace

    def verify(self, p: float, allow_unproven: bool = False) -> SchattenBatch:
        p = check_trace_exponent(p, allow_unproven)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            lhs = np.sum(self.sum_eigvals ** p, axis=-1)
            S = np.sum(self.A.eigvals ** p, axis=-1) + np.sum(self.B.eigvals ** p, axis=-1)
            mixed = self.trace(p / 2.0)
            gamma_tilde = (mixed / (S / 2.0)) ** (2.0 / p)
            rhs = (1.0 + gamma_tilde) ** (p - 1.0) * S
        require_finite(p, lhs=lhs, rhs=rhs)
        return SchattenBatch(lhs=lhs, rhs=rhs, mixed=mixed, gamma_tilde=gamma_tilde)

    def rearrangement(self, p: float) -> tuple[np.ndarray, np.ndarray]:
        if p < 1.0:
            raise ExponentOutOfRange("the rearrangement check needs p >= 1")
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            lhs = np.sum(self.inner_eigvals ** (p / 2.0), axis=-1)
            rhs = self.trace(p)
        require_finite(p, lhs=lhs, rhs=rhs)
        return lhs, rhs


def _is_power_of_two_exponent(p: float) -> bool:
    if p < 2.0 or p != int(p):
        return False
    n = int(p)
    return n & (n - 1) == 0


def check_trace_exponent(p: float, allow_unproven: bool = False) -> float:
    """The exponents of the trace bound: p in {2, 4, 8, ...}, or with
    ``allow_unproven`` any p > 2; UnsupportedExponent otherwise."""
    p = float(p)
    if not _is_power_of_two_exponent(p) and not (allow_unproven and p > 2.0):
        raise UnsupportedExponent(
            f"the trace bound is established only for p = 2, 4, 8, ... (2^k), got {p!r}"
        )
    return p


def schatten_verify_stack(
    A: PSDStack, B: PSDStack, p: float, allow_unproven: bool = False
) -> SchattenBatch:
    """Both sides of the trace bound for every pair of two stacks.

    Exponents that are not powers of two are rejected unless
    ``allow_unproven`` is set (see ``schatten_verify``); a side that is not
    a finite double raises NumericRange.
    """
    return _SpectralPair(A, B).verify(p, allow_unproven)


def schatten_verify(
    A: PSDMatrix, B: PSDMatrix, p: float, allow_unproven: bool = False
) -> SchattenReport:
    """Evaluate the trace bound at exponent p in {2, 4, 8, ...}.

    Exponents that are not powers of two are rejected unless
    ``allow_unproven`` is set, in which case the report is labeled
    conjectural: nothing is claimed about the outcome there.  This is
    ``schatten_verify_stack`` on one pair.
    """
    p = float(p)
    rep = schatten_verify_stack(A.stack, B.stack, p, allow_unproven)
    lhs, rhs = float(rep.lhs[0]), float(rep.rhs[0])
    return SchattenReport(
        lhs=lhs,
        rhs=rhs,
        mixed=float(rep.mixed[0]),
        gamma_tilde=float(rep.gamma_tilde[0]),
        p=p,
        satisfied=bool(relative_violation(lhs, rhs, forward=True) <= SLACK),
        slack=float(rhs - lhs),
        conjectural=not _is_power_of_two_exponent(p),
    )


def lieb_thirring_stack(
    A: PSDStack, B: PSDStack, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the trace rearrangement for every pair of two stacks."""
    return _SpectralPair(A, B).rearrangement(p)


def lieb_thirring_check(A: PSDMatrix, B: PSDMatrix, p: float) -> tuple[float, float]:
    """Both sides of the trace rearrangement:

        tr[(B A^2 B)^(p/2)]  <=  tr[B^(p/2) A^p B^(p/2)].

    Returns (lhs, rhs); equality holds for commuting pairs and at p = 2.
    """
    lhs, rhs = lieb_thirring_stack(A.stack, B.stack, p)
    return float(lhs[0]), float(rhs[0])
