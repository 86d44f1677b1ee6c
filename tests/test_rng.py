"""Tests for seeded per-node random streams."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.core.array_protocol import CoinDeck
from repro.sim.rng import (
    SeededStreams,
    node_streams,
    pcg64_generator,
    pcg64_seed_words,
    pcg64_states,
    pcg64_uniforms,
    stream,
)


def test_same_seed_same_draws():
    a = node_streams(42, 5)
    b = node_streams(42, 5)
    for ga, gb in zip(a, b):
        assert ga.random(8).tolist() == gb.random(8).tolist()


def test_different_seeds_differ():
    a = node_streams(1, 3)
    b = node_streams(2, 3)
    assert a[0].random(8).tolist() != b[0].random(8).tolist()


def test_node_streams_are_mutually_independent():
    a, b = node_streams(7, 2)
    assert a.random(8).tolist() != b.random(8).tolist()


def test_stream_domain_separation():
    assert stream(0, 1).random(4).tolist() != stream(0, 2).random(4).tolist()
    assert stream(0, 1).random(4).tolist() == stream(0, 1).random(4).tolist()


def test_seeded_streams_shape_and_reproducibility():
    s = SeededStreams(9, 4)
    assert len(s) == 4
    assert s.seed == 9
    t = SeededStreams(9, 4)
    assert s.engine.random(4).tolist() == t.engine.random(4).tolist()
    assert s.nodes[3].random(4).tolist() == t.nodes[3].random(4).tolist()


def test_invalid_counts_rejected():
    with pytest.raises(ValueError):
        node_streams(0, -1)
    with pytest.raises(ValueError):
        SeededStreams(0, 0)


# --------------------------------------------------------------------- #
# Array-held PCG64 node streams against numpy's own objects
# --------------------------------------------------------------------- #
#: Seeds of every entropy length SeedSequence distinguishes: zero, one
#: 32-bit word, two to four words (at or above 2**64), and more words than
#: its pool holds (above 2**128).
SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**64, 2**128),
    st.integers(2**128 + 1, 2**200),
)


def _children(seed, n):
    """Node streams' seed sequences: spawn n + 1, skip the engine's."""
    return np.random.SeedSequence(seed).spawn(n + 1)[1:]


def _reference(seed, n):
    """Node streams the way numpy builds them."""
    return [np.random.Generator(np.random.PCG64(c)) for c in _children(seed, n)]


def _words(gen):
    state = gen.bit_generator.state["state"]
    return [
        state["state"] >> 64, state["state"] & (2**64 - 1),
        state["inc"] >> 64, state["inc"] & (2**64 - 1),
    ]


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 300), k=st.integers(1, 64))
@example(seed=0, n=1, k=1)
@example(seed=2**32 - 1, n=300, k=64)
@example(seed=2**64, n=2, k=3)
@example(seed=2**128 + 1, n=5, k=64)
def test_vectorized_states_and_first_block_match_numpy(seed, n, k):
    seed_words = pcg64_seed_words(seed, n)
    assert seed_words.dtype == np.uint64 and seed_words.shape == (n, 4)
    assert seed_words.tolist() == [
        c.generate_state(4, np.uint64).tolist() for c in _children(seed, n)
    ]
    reference = _reference(seed, n)
    states = pcg64_states(seed_words)
    assert states.tolist() == [_words(gen) for gen in reference]
    for i in {0, n - 1}:
        assert _words(pcg64_generator(seed_words[i])) == _words(reference[i])
    block = pcg64_uniforms(states, k)
    expected = np.array([gen.random(k) for gen in reference])
    assert block.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    for i in {0, n - 1}:
        assert pcg64_generator(seed_words[i], k).random() == reference[i].random()


@settings(max_examples=40, deadline=None)
@given(
    seed=SEEDS,
    n=st.integers(1, 40),
    chunk=st.integers(1, 64),
    p=st.floats(0.1, 1.0),
    pattern=st.integers(0, 2**32 - 1),
)
def test_coin_deck_matches_numpy_across_the_prefill_boundary(seed, n, chunk, p, pattern):
    # Node 0 draws every round, so it always crosses from its vectorized
    # first chunk onto its own generator; the others cross at random.
    deck = CoinDeck(SeededStreams(seed, n), chunk=chunk)
    reference = _reference(seed, n)
    rng = np.random.default_rng(pattern)
    for _ in range(2 * chunk + 3):
        mask = rng.random(n) < p
        mask[0] = True
        nodes = np.nonzero(mask)[0]
        coins = deck.draw(nodes)
        expected = [reference[i].random() for i in nodes.tolist()]
        assert coins.view(np.uint64).tolist() == np.array(expected).view(np.uint64).tolist()
    assert deck.positions()[0] == 2 * chunk + 3


def test_negative_seed_raises_like_seed_sequence():
    with pytest.raises(ValueError) as numpy_error:
        np.random.SeedSequence(-1)
    for build in (lambda: SeededStreams(-1, 3), lambda: pcg64_seed_words(-1, 3)):
        with pytest.raises(ValueError) as ours:
            build()
        assert str(ours.value) == str(numpy_error.value)


def test_setup_builds_no_node_generator(monkeypatch):
    real = np.random.PCG64
    built = []

    def counting_pcg64(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "PCG64", counting_pcg64)
    streams = SeededStreams(5, 1000)
    assert len(built) == 1  # the engine stream
    deck = CoinDeck(streams)
    deck.draw(np.arange(1000))
    assert len(built) == 1
    # A node's generator is built on first access, then cached.
    node7 = streams.nodes[7]
    assert len(built) == 2
    assert streams.nodes[7] is node7 and streams.nodes[-993] is node7
    assert streams.nodes[8] is not node7
    assert len(built) == 3
    assert _words(node7) == _words(_reference(5, 1000)[7])


def test_node_generators_index_like_a_tuple():
    streams = SeededStreams(2, 4)
    assert len(streams.nodes) == 4
    assert streams.nodes[-1] is streams.nodes[3]
    assert streams.nodes[1:3] == [streams.nodes[1], streams.nodes[2]]
    assert streams.nodes[::-1] == list(reversed(streams.nodes))
    assert list(streams.nodes) == [streams.nodes[i] for i in range(4)]
    assert streams.nodes[2] in streams.nodes
    assert [i for i, _ in streams.nodes.built()] == [0, 1, 2, 3]
    with pytest.raises(IndexError):
        streams.nodes[4]


def test_node_streams_match_seed_sequence_spawn():
    ours = node_streams(11, 6)
    children = np.random.SeedSequence(11).spawn(6)
    numpy = [np.random.Generator(np.random.PCG64(c)) for c in children]
    assert [_words(gen) for gen in ours] == [_words(gen) for gen in numpy]
    assert len(node_streams(11, 0)) == 0
