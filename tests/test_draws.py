"""The campaigns' stacked draws against numpy's own calls.

``campaigns._draw_stack`` reads PCG64 words and ``schatten.random_psd_stack``
computes PCG64 seed states without asking numpy for them one instance or one
generator at a time.  A seed keeps its meaning only if both give, bit for bit,
what numpy's per-instance calls give, and leave the generator where those
calls leave it.
"""
import math

import numpy as np
import pytest

from sharplp import schatten
from sharplp.campaigns import _draw_stack, random_instance
from sharplp.errors import InvalidDraw
from sharplp.schatten import _pcg64_states, random_psd_stack

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _numpy_draws(rng, max_points):
    """One instance as numpy's own calls draw it: (n, f, g, w)."""
    n = int(rng.integers(1, max_points + 1))
    u = 2.0 * (1.0 - rng.random(3 * n))
    return n, u[:n], u[n : 2 * n], u[2 * n :]


def _instance_stack(rng, trials, max_points):
    """``trials`` instances drawn by numpy's own calls, zero-padded as
    _draw_stack pads them."""
    f, g, w = np.zeros((3, trials, max_points))
    mask = np.zeros((trials, max_points), dtype=bool)
    for i in range(trials):
        n, f[i, :n], g[i, :n], w[i, :n] = _numpy_draws(rng, max_points)
        mask[i, :n] = True
    return f, g, w, mask


def test_random_instance_is_numpy_calls():
    for seed in range(10):
        rng, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for max_points in (1, 2, 5, 12, 64):
            f, g, space = random_instance(rng, max_points)
            n, *want = _numpy_draws(numpy_rng, max_points)
            assert len(f) == n
            for got, arr in zip((f.values, g.values, space.weights), want):
                np.testing.assert_array_equal(got, arr)
        assert rng.bit_generator.state == numpy_rng.bit_generator.state


@pytest.mark.parametrize("max_points", [0, -3])
def test_random_instance_needs_a_point(max_points):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(InvalidDraw, match="max_points must be at least 1"):
        random_instance(rng, max_points)
    assert rng.bit_generator.state == state  # rejected before any draw


def _assert_same_stream(make_rng, trials, max_points):
    numpy_rng, stacked_rng = make_rng(), make_rng()
    want = _instance_stack(numpy_rng, trials, max_points)
    got = _draw_stack(stacked_rng, trials, max_points)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    assert stacked_rng.bit_generator.state == numpy_rng.bit_generator.state
    return want


@pytest.mark.parametrize("trials", [1, 7, 2000])
@pytest.mark.parametrize("max_points", [2, 5, 12, 64])
def test_draw_stack_reproduces_numpy_stream(max_points, trials):
    for seed in range(30):
        _assert_same_stream(lambda: np.random.default_rng(seed), trials, max_points)


def test_draw_stack_enters_with_a_held_half():
    def make_rng():
        rng = np.random.default_rng(11)
        rng.integers(0, 1000)  # takes the low half of a word and holds the high half
        assert rng.bit_generator.state["has_uint32"] == 1
        return rng

    for max_points in (2, 5, 12):
        _assert_same_stream(make_rng, 7, max_points)


def _rng_whose_steps_reach(states, inc):
    """A PCG64 generator whose first len(states) LCG steps land on ``states``.

    With inc fixed, the state before a step is (S' - inc) * MULT^-1; later
    targets must agree with the steps, so they are checked.
    """
    state = (states[0] - inc) * pow(_PCG_MULT, -1, 1 << 128) & _MASK128
    s = state
    for target in states:
        s = (s * _PCG_MULT + inc) & _MASK128
        assert s == target
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bit_generator)


def test_draw_stack_applies_lemire_rejection():
    # a post-step state with high word 0 outputs its low word: the first word
    # is 0xABCD000000000000, whose low half 0 is rejected at max_points = 12
    inc = np.random.default_rng(0).bit_generator.state["state"]["inc"]
    make_rng = lambda: _rng_whose_steps_reach([0xABCD000000000000], inc)
    one = make_rng()
    assert one.bit_generator.random_raw() == 0xABCD000000000000
    one = make_rng()
    one.integers(1, 13)  # the low half is rejected, so the held half is used too
    assert one.bit_generator.state["has_uint32"] == 0
    f, g, w, mask = _assert_same_stream(make_rng, 3, 12)
    assert mask[0].sum() == (0xABCD0000 * 12 >> 32) + 1  # n from the high half


def test_draw_stack_reads_past_its_word_bound():
    # words 0 and 0xFFFFFFFF: at max_points = 5 both halves of the first word
    # are rejected and the second gives n = 5, so one instance takes
    # 2 + 3 * 5 words, one more than the 1 + 3 * 5 drawn up front
    inc = 0xFFFFFFFF
    make_rng = lambda: _rng_whose_steps_reach([0, 0xFFFFFFFF], inc)
    f, g, w, mask = _assert_same_stream(make_rng, 1, 5)
    assert mask.sum() == 5
    _assert_same_stream(make_rng, 4, 5)


def test_draw_stack_needs_pcg64():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(InvalidDraw, match="MT19937"):
        _draw_stack(rng, 3, 12)
    # the per-instance definition draws from any generator
    assert len(random_instance(rng, 12)[2].weights) >= 1


BIG_SEEDS = [0, 17, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 11, 10**31]


@pytest.mark.parametrize("dim", [1, 2, 6, 64])
def test_psd_seeding_matches_numpy(dim):
    # seeds of 1 to 4 words, so 2 to 5 entropy words with the dimension:
    # 10**31 runs the hash's mixing of entropy beyond the pool of 4
    states, incs = _pcg64_states(dim, BIG_SEEDS)
    for seed, state, inc in zip(BIG_SEEDS, states, incs):
        want = np.random.default_rng([dim, seed]).bit_generator.state["state"]
        assert (state, inc) == (want["state"], want["inc"])


@pytest.mark.parametrize("dim", [1, 2, 6])
def test_psd_stack_draws_as_numpy_generators(dim):
    stack = random_psd_stack(dim, BIG_SEEDS)
    for k, seed in enumerate(BIG_SEEDS):
        rng = np.random.default_rng([dim, seed])
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        G /= math.sqrt(2.0)
        M = G @ G.conj().T
        np.testing.assert_array_equal(stack.entries[k], (M + M.conj().T) / 2.0)


def test_negative_matrix_seed_is_rejected_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a seed was hashed")

    monkeypatch.setattr(schatten, "_pcg64_states", no_draw)
    with pytest.raises(InvalidDraw, match="-1"):
        random_psd_stack(2, BIG_SEEDS + [-1])
    with pytest.raises(TypeError):  # as numpy rejects it: no truncation to 1
        random_psd_stack(2, [1.5])
