"""Seeded, per-node random streams.

Every source of randomness in a simulation run is derived from one integer
seed through :class:`numpy.random.SeedSequence` spawning, so a run is fully
reproducible: same seed, same topology, same protocol code => bit-identical
round-by-round behaviour.  Each node owns an independent stream (nodes in a
radio network cannot share coins), and the engine owns one extra stream for
anything that is not attributable to a single node.

Node streams are held as arrays, not as ``n`` generator objects.  Node *i*'s
stream is the PCG64 generator numpy would seed from
``SeedSequence(seed).spawn(n + 1)[i + 1]``.  :func:`pcg64_seed_words` ports
that spawn hashing to numpy and returns every node's seed words at once,
:func:`pcg64_states` ports PCG64's seeding of them to every node's 128-bit
``(state, inc)``, and :func:`pcg64_uniforms` draws the first ``k`` uniforms
of every stream in one vectorized jump-ahead pass.  PCG64 is an LCG with an
output permutation (O'Neill, "PCG", HMC-CS-2014-0905), and an LCG jumps
ahead in closed form (Brown, "Random Number Generation with Arbitrary
Strides", 1994): step ``j`` from state ``s`` is ``MULT**j * s +
(MULT**(j-1) + ... + MULT + 1) * inc``.  All three are bitwise what numpy's
objects produce.  ``SeededStreams.nodes[i]`` is built on first access, and
cached, by :func:`pcg64_generator`, which hands PCG64 node *i*'s seed words
directly: the same generator state as numpy's SeedSequence path, without
its hashing.  Such a generator's ``bit_generator.seed_seq`` is not a
``SeedSequence``, so it cannot ``spawn``; nothing in the simulator does.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from typing import TYPE_CHECKING, Any, cast, overload

import numpy as np
from numpy.random.bit_generator import ISeedSequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core.array_protocol import CoinDeck

__all__ = [
    "NodeGenerators",
    "SeededStreams",
    "node_streams",
    "pcg64_generator",
    "pcg64_seed_words",
    "pcg64_states",
    "pcg64_uniforms",
    "stream",
]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# numpy.random.SeedSequence's hash constants (pool size 4).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: Values per row block in :func:`pcg64_uniforms`.  Each uint64 temporary
#: then takes about 128 KiB whatever the number of streams, which keeps the
#: pass in cache: measured 1.2-1.5x faster than 512 KiB blocks from n=257
#: to n=131072, and the transient memory stays small.
_BLOCK = 1 << 14


def _entropy(seed: int | None) -> int:
    """The integer entropy ``SeedSequence(seed)`` runs on (OS entropy for ``None``)."""
    entropy = np.random.SeedSequence(seed).entropy
    if not isinstance(entropy, (int, np.integer)):
        raise TypeError(f"seed must be a non-negative integer, got {seed!r}")
    return int(entropy)


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return one generator for ``seed``, domain-separated by ``key``.

    Different ``key`` tuples under the same seed yield statistically
    independent streams; topology generators use this so that building a
    graph never consumes the coins the protocol run will use.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


class NodeGenerators(Sequence[np.random.Generator]):
    """Lazily built generators for the rows of :func:`pcg64_seed_words`.

    Item ``i`` is :func:`pcg64_generator` of row ``i``, built on first
    access and cached, so the same index always returns the same object.
    A read-only sequence: indexing (negative indices too), ``len``,
    iteration and ``in`` work as on a tuple, and a slice returns a list of
    the generators it selects.  Equality is identity, not element-wise.
    """

    def __init__(self, seed_words: np.ndarray) -> None:
        self._seed_words = seed_words
        self._built: list[np.random.Generator | None] = [None] * len(seed_words)

    def __len__(self) -> int:
        return len(self._built)

    @overload
    def __getitem__(self, index: int) -> np.random.Generator: ...

    @overload
    def __getitem__(self, index: slice) -> list[np.random.Generator]: ...

    def __getitem__(
        self, index: int | slice
    ) -> np.random.Generator | list[np.random.Generator]:
        if isinstance(index, slice):
            return [self[i] for i in range(len(self._built))[index]]
        i = range(len(self._built))[index]
        gen = self._built[i]
        if gen is None:
            gen = self._built[i] = pcg64_generator(self._seed_words[i])
        return gen

    def built(self) -> list[tuple[int, np.random.Generator]]:
        """``(index, generator)`` of every generator built so far, by index."""
        return [(i, gen) for i, gen in enumerate(self._built) if gen is not None]


def node_streams(seed: int, count: int) -> NodeGenerators:
    """Return ``count`` independent generators derived from ``seed``.

    Generator ``i`` has the state of ``SeedSequence(seed).spawn(count)[i]``'s
    PCG64 generator; see :class:`NodeGenerators` for the sequence contract.
    """
    return NodeGenerators(pcg64_seed_words(seed, count, first=0))


class SeededStreams:
    """The full complement of streams used by one :class:`~repro.sim.engine.Engine` run.

    ``nodes[i]`` is node *i*'s private stream, a generator built on first
    access; ``seed_words[i]`` are that stream's PCG64 seed words and
    ``states[i]`` its ``(state_hi, state_lo, inc_hi, inc_lo)`` before any
    draw, from which :class:`~repro.sim.core.array_protocol.CoinDeck` fills
    every node's first coins without building a generator.  ``engine`` is
    reserved for the simulator itself (fault sampling) so that adding
    engine-side randomness never perturbs node-side coin flips.
    ``coin_deck`` is the deck bound to these streams, if any, whose
    ``positions()`` say how far each node's coins have been drawn.
    """

    def __init__(self, seed: int, n_nodes: int) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        # Drawn once, so that seed=None (fresh OS entropy) still gives one
        # consistent set of streams.
        entropy = _entropy(seed)
        self.seed = seed
        self.engine = stream(entropy, 0)
        self.seed_words = pcg64_seed_words(entropy, n_nodes)
        self.states = pcg64_states(self.seed_words)
        self.nodes = NodeGenerators(self.seed_words)
        self.coin_deck: CoinDeck | None = None

    def __len__(self) -> int:
        return len(self.nodes)


# ---------------------------------------------------------------------- #
# SeedSequence spawning and PCG64 seeding, vectorized over children
# ---------------------------------------------------------------------- #
def _hashmix(value: Any, hash_const: int, mult: int = _MULT_A) -> tuple[Any, int]:
    """SeedSequence's ``hashmix`` of a 32-bit word (an int or a uint64 array).

    Returns the mixed word and the next hash constant; ``generate_state``
    runs the same step with ``_MULT_B``.
    """
    value = (value ^ hash_const) & _MASK32
    hash_const = (hash_const * mult) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x: Any, y: Any) -> Any:
    """SeedSequence's ``mix`` of two 32-bit words (ints or uint64 arrays)."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _uint32_words(value: int) -> list[int]:
    """``value``'s little-endian 32-bit words, as SeedSequence splits entropy."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mul128(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``a * b mod 2**128`` on ``(hi, lo)`` uint64 word arrays (broadcasting)."""
    a0, a1 = a_lo & _MASK32, a_lo >> 32
    b0, b1 = b_lo & _MASK32, b_lo >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    lo = (mid << 32) | (p00 & _MASK32)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + a_hi * b_lo + a_lo * b_hi
    return hi, lo


def _add128(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``a + b mod 2**128`` on ``(hi, lo)`` uint64 word arrays."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _words(values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit ints as ``(hi, lo)`` uint64 word arrays."""
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & _MASK64 for v in values], dtype=np.uint64),
    )


def pcg64_seed_words(seed: int | None, count: int, *, first: int = 1) -> np.ndarray:
    """PCG64 seed words of ``count`` spawned streams, without building a generator.

    Row ``i`` is ``SeedSequence(seed).spawn(first + count)[first + i]
    .generate_state(4, np.uint64)``: ``(seed_hi, seed_lo, seq_hi, seq_lo)``.
    The default ``first=1`` gives the node streams of
    :class:`SeededStreams`, whose spawn key 0 is the engine's.  The spawned
    children differ only in their last entropy word, the spawn key, so
    SeedSequence's ``mix_entropy`` runs on Python ints up to that word and
    on one uint64 array lane per child from there on.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    # A spawned child's entropy: the seed's words padded to the pool size,
    # then its spawn key.
    words = _uint32_words(_entropy(seed))
    words += [0] * (_POOL_SIZE - len(words))
    key = np.arange(first, first + count, dtype=np.uint64)
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        mixed, hash_const = _hashmix(word, hash_const)
        pool.append(mixed)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixed, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], mixed)
    for word in [*words[_POOL_SIZE:], key]:
        for i_dst in range(_POOL_SIZE):
            mixed, hash_const = _hashmix(word, hash_const)
            pool[i_dst] = _mix(pool[i_dst], mixed)
    # generate_state(4, uint64): eight 32-bit words cycling over the pool,
    # paired little-endian.
    hash_const = _INIT_B
    out = []
    for i_dst in range(8):
        value, hash_const = _hashmix(pool[i_dst % _POOL_SIZE], hash_const, _MULT_B)
        out.append(value)
    return np.stack([out[2 * k] | (out[2 * k + 1] << 32) for k in range(4)], axis=1)


def pcg64_states(seed_words: np.ndarray) -> np.ndarray:
    """PCG64's seeding of :func:`pcg64_seed_words` rows, vectorized.

    Row ``i`` is ``(state_hi, state_lo, inc_hi, inc_lo)``, the generator's
    state before its first draw: ``inc = seq << 1 | 1`` and
    ``state = (inc + seed) * MULT + inc``.
    """
    seed_hi, seed_lo, seq_hi, seq_lo = seed_words.T
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    state = _mul128(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), *_words([_PCG_MULT]))
    state_hi, state_lo = _add128(*state, inc_hi, inc_lo)
    return np.stack([state_hi, state_lo, inc_hi, inc_lo], axis=1)


@lru_cache(maxsize=8)
def _jump_table(k: int) -> tuple[np.ndarray, ...]:
    """``MULT**j`` and ``sum(MULT**i for i < j)`` for ``j = 1..k``, as word rows."""
    mult_pow, mult_sum = [], []
    a, c = 1, 0
    for _ in range(k):
        a, c = (a * _PCG_MULT) & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        mult_pow.append(a)
        mult_sum.append(c)
    table = (*_words(mult_pow), *_words(mult_sum))
    for row in table:
        row.flags.writeable = False
    return tuple(row[np.newaxis] for row in table)


def pcg64_uniforms(states: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` ``Generator.random()`` values of every stream in ``states``.

    ``states`` is an ``(n, 4)`` array from :func:`pcg64_states`; row
    ``i`` of the ``(n, k)`` result equals
    ``Generator(PCG64(...)).random(k)`` for that stream bit for bit.  Each
    draw ``j`` jumps straight to LCG state ``j + 1`` and applies PCG64's
    XSL-RR output and numpy's ``(x >> 11) * 2**-53``, in row blocks of
    about ``_BLOCK`` values.
    """
    a_hi, a_lo, c_hi, c_lo = _jump_table(k)
    n = states.shape[0]
    out = np.empty((n, k), dtype=np.float64)
    # Equal row blocks of at most about _BLOCK values each.
    blocks = max(1, -(-n * k // _BLOCK))
    rows = max(1, -(-n // blocks))
    for start in range(0, n, rows):
        block = states[start : start + rows]
        s_hi, s_lo, inc_hi, inc_lo = (block[:, w : w + 1] for w in range(4))
        hi, lo = _add128(
            *_mul128(s_hi, s_lo, a_hi, a_lo), *_mul128(inc_hi, inc_lo, c_hi, c_lo)
        )
        x = hi ^ lo
        rot = hi >> 58
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        out[start : start + rows] = (x >> 11) * (1.0 / 9007199254740992.0)
    return out


class _SeedWords(ISeedSequence):
    """A seed sequence that hands PCG64 fixed seed words, with no hashing."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        return self.words


def pcg64_generator(seed_words: np.ndarray, skip: int = 0) -> np.random.Generator:
    """numpy's generator for one :func:`pcg64_seed_words` row, ``skip`` draws in.

    The same generator state numpy's own SeedSequence path builds, without
    the hashing that is most of its cost.
    """
    words = np.ascontiguousarray(seed_words, dtype=np.uint64)
    # numpy seeds from any ISeedSequence; its stubs name only SeedSequence.
    bit_generator = np.random.PCG64(cast(np.random.SeedSequence, _SeedWords(words)))
    bit_generator.advance(skip)
    return np.random.Generator(bit_generator)
