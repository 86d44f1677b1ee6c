"""The array-native protocol API.

An :class:`ArrayProtocol` is the vectorized counterpart of the per-node
:class:`~repro.sim.protocol.Protocol`: **one** instance holds the state of
*all* nodes as numpy arrays, returns whole-network action masks from
:meth:`~ArrayProtocol.act`, and consumes the ground-truth
:class:`~repro.sim.core.channel.ChannelRound` in
:meth:`~ArrayProtocol.on_feedback`.  A round therefore costs a handful of
array operations instead of ``n`` Python method calls.

Per-node randomness is preserved exactly: :class:`CoinDeck` draws each
node's coins from the same :class:`~repro.sim.rng.SeededStreams` node
stream the object path uses, in chunks (the first one computed in numpy
from the array-held PCG64 states, later ones by the node's own numpy
generator; a PCG64 stream yields identical values drawn singly, in blocks,
or by jump-ahead), so an array protocol that flips coins for the same node
set in the same rounds as its object form is *bitwise identical* to it —
same traces, same rounds-to-delivery, same failures.

A registry maps protocol names to their array forms, alongside (not
replacing) the object-form registry in :mod:`repro.sim.protocol`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.params import ProtocolParams
from repro.sim.rng import SeededStreams, pcg64_generator, pcg64_uniforms

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core.channel import ChannelRound

__all__ = [
    "ArrayContext",
    "RoundPlan",
    "ArrayProtocol",
    "BroadcastArrayProtocol",
    "CoinDeck",
    "register_array_protocol",
    "array_protocol_class",
    "available_array_protocols",
]


@dataclass(frozen=True)
class ArrayContext:
    """Everything an array protocol knows before round 0.

    The same information the object path splits across ``n``
    :class:`~repro.sim.protocol.NodeContext` instances: the public size
    bound, the source, shared parameters, the receivers' collision-detection
    capability, and the full complement of per-node random streams.
    """

    n_nodes: int
    n_bound: int
    source: int
    params: ProtocolParams
    collision_detection: bool
    streams: SeededStreams = field(repr=False)


@dataclass(frozen=True)
class RoundPlan:
    """Whole-network action masks for one round.

    ``transmit`` and ``listen`` must be disjoint (half-duplex radios);
    nodes in neither mask sleep.  Message payloads are protocol-internal —
    the channel never inspects them, and receivers recover what a sender
    transmitted by indexing the protocol's own per-node payload state with
    the :class:`~repro.sim.core.channel.ChannelRound` sender ids.
    """

    transmit: np.ndarray
    listen: np.ndarray


class ArrayProtocol(ABC):
    """Base class for whole-network vectorized protocol state machines.

    Lifecycle mirrors the object path: the engine calls :meth:`setup` once
    before round 0, then for every round calls :meth:`act`, resolves the
    channel, and calls :meth:`on_feedback` with the ground-truth
    resolution (the protocol applies the collision-detection mapping
    itself, via ``ctx.collision_detection``).
    """

    #: registry name, set by :func:`register_array_protocol`.
    name: str = ""

    def setup(self, ctx: ArrayContext) -> None:
        """Bind this instance to a network-sized run; default stores ``ctx``."""
        self.ctx = ctx

    @abstractmethod
    def act(self, round_index: int) -> RoundPlan:
        """Return the whole network's action masks for the given round."""

    @abstractmethod
    def on_feedback(self, round_index: int, channel: "ChannelRound") -> None:
        """Consume the ground-truth channel resolution of one round."""

    def done(self) -> bool:
        """Whether the protocol considers the whole run complete (advisory)."""
        return False


class BroadcastArrayProtocol(ArrayProtocol):
    """Base for array-native single-message broadcast protocols.

    Mirrors :class:`~repro.sim.protocol.BroadcastProtocol`: the payload is
    injected at construction, and completion is an ``informed`` flag — here
    a boolean array over all nodes, with ``informed_round[v]`` recording
    when node ``v`` first received the message (0 for the source, -1 while
    uninformed).
    """

    def __init__(self, message: Any = "broadcast") -> None:
        if message is None:
            raise ConfigurationError("the broadcast message must be non-None")
        self._injected_message = message

    def _init_broadcast_state(self, ctx: ArrayContext) -> None:
        """Initialize the shared ``informed`` / ``informed_round`` arrays."""
        self.informed = np.zeros(ctx.n_nodes, dtype=bool)
        self.informed[ctx.source] = True
        self.informed_round = np.full(ctx.n_nodes, -1, dtype=np.int64)
        self.informed_round[ctx.source] = 0

    def done(self) -> bool:
        return bool(self.informed.all())

    def informed_rounds(self) -> tuple[int, ...]:
        """Per-node arrival rounds, as plain ints (valid once :meth:`done`)."""
        return tuple(self.informed_round.tolist())

    def undelivered(self) -> tuple[int, ...]:
        """Nodes still uninformed, for :class:`~repro.errors.BroadcastFailure`."""
        return tuple(np.nonzero(~self.informed)[0].tolist())


class CoinDeck:
    """Vectorized access to per-node seeded coin streams.

    ``draw(nodes)`` returns one uniform in ``[0, 1)`` per listed node,
    taken from that node's private stream — the *same* values, in the
    same per-node order, that the object path's ``ctx.rng.random()`` calls
    would produce.  Coins are buffered per node in chunks, so a round's
    draws cost two fancy-indexing operations.

    The first chunk of every node is computed at construction straight
    from the streams' array-held PCG64 states
    (:func:`~repro.sim.rng.pcg64_uniforms`, one vectorized jump-ahead
    pass), so no generator object is built.  A node that uses up its
    chunk continues on a numpy generator of its own stream
    (:func:`~repro.sim.rng.pcg64_generator`), built on that first refill
    and advanced past the first chunk; numpy refills one node faster than
    a vectorized call does.
    The deck binds itself to ``streams.coin_deck`` so that
    :meth:`positions` can be read off the streams.
    """

    def __init__(self, streams: SeededStreams, *, chunk: int = 64) -> None:
        if chunk < 1:
            raise ConfigurationError(f"chunk must be positive, got {chunk}")
        self._seed_words = streams.seed_words
        self._chunk = chunk
        self._buf = pcg64_uniforms(streams.states, chunk)
        n = len(streams.nodes)
        self._pos = np.zeros(n, dtype=np.int64)
        self._refills = np.zeros(n, dtype=np.int64)
        self._tails: list[np.random.Generator | None] = [None] * n
        streams.coin_deck = self

    def draw(self, nodes: np.ndarray) -> np.ndarray:
        """One coin per node in ``nodes`` (unique indices), from its own stream."""
        chunk = self._chunk
        at = self._pos[nodes]
        stale = at >= chunk
        if stale.any():
            refill = nodes[stale]
            buf, tails = self._buf, self._tails
            for i in refill.tolist():
                gen = tails[i]
                if gen is None:
                    gen = tails[i] = pcg64_generator(self._seed_words[i], chunk)
                gen.random(out=buf[i])
            self._refills[refill] += 1
            at[stale] = 0
        coins = self._buf[nodes, at]
        self._pos[nodes] = at + 1
        return coins

    def positions(self) -> np.ndarray:
        """Coins each node has drawn so far: its position in its own stream."""
        return self._refills * self._chunk + self._pos


# ---------------------------------------------------------------------- #
# Registry (parallel to the object-form registry)
# ---------------------------------------------------------------------- #
_ARRAY_REGISTRY: dict[str, type[ArrayProtocol]] = {}


def register_array_protocol(
    name: str,
) -> Callable[[type[ArrayProtocol]], type[ArrayProtocol]]:
    """Class decorator registering an :class:`ArrayProtocol` under ``name``.

    Names are shared with the object-form registry by convention — the
    array form of ``"decay"`` is registered as ``"decay"`` — but the two
    registries are separate namespaces.
    """

    def deco(cls: type[ArrayProtocol]) -> type[ArrayProtocol]:
        if not (isinstance(cls, type) and issubclass(cls, ArrayProtocol)):
            raise SimulationError(f"{cls!r} is not an ArrayProtocol subclass")
        if name in _ARRAY_REGISTRY and _ARRAY_REGISTRY[name] is not cls:
            raise SimulationError(f"array protocol name {name!r} is already registered")
        cls.name = name
        _ARRAY_REGISTRY[name] = cls
        return cls

    return deco


def array_protocol_class(name: str) -> type[ArrayProtocol]:
    """Look up a registered array protocol class by name."""
    try:
        return _ARRAY_REGISTRY[name]
    except KeyError:
        raise SimulationError(
            f"unknown array protocol {name!r}; registered: {sorted(_ARRAY_REGISTRY)}"
        ) from None


def available_array_protocols() -> tuple[str, ...]:
    """Names of all registered array protocols, sorted."""
    return tuple(sorted(_ARRAY_REGISTRY))
