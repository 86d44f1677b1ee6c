"""Outside-in layer tracing for the benchmark.

:class:`LayerTracer` wraps the public entry points of each simulator layer
from outside (module attributes and class methods are swapped for timing
wrappers while a :meth:`LayerTracer.installed` block is open, and restored
after), so the program under measurement is not edited.  Each wrapped call
is a span named after the layer that owns it; a layer's *self* time is its
spans' duration minus the part covered by spans it called.  Because every
span's self time is counted exactly once, the self times of all layers plus
the time spent outside any span add up to the traced wall time.

Work counts are taken at the same boundaries.  The channel-kernel counts
(``edge_slots_pull``, ``edge_slots_push``, ``tx_fraction``) are *computed*
at the :func:`~repro.sim.core.channel.resolve_channel` boundary from the
transmit masks and the degrees of the adjacency each call resolves, not
read from the kernel: ``edge_slots_pull`` is what the current pull kernel
touches (every CSR slot, 2m, per batch row), ``edge_slots_push`` is what a
transmitter-driven kernel would touch (the sum of the transmitters'
degrees).  The time
spent computing counts is its own layer, ``trace.counting``, so it is never
charged to the layer being counted.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from typing import Any

import numpy as np

from repro.sim import faults as faults_mod
from repro.sim import runners as runners_mod
from repro.sim import topology as topology_mod
from repro.sim.core import array_protocol as array_protocol_mod
from repro.sim.core import batch as batch_mod
from repro.sim.rng import SeededStreams
from repro.sim.topology import RadioNetwork

__all__ = ["LAYER_SPANS", "LayerTracer"]

#: Every span name a traced unit can report, in report order.
LAYER_SPANS = (
    "topology.build",
    "topology.eccentricity",
    "topology.csr",
    "rng.streams",
    "channel.operand_build",
    "channel.resolve",
    "protocol.setup",
    "protocol.act",
    "protocol.feedback",
    "protocol.coins",
    "engine.init",
    "engine.dispatch",
    "engine.snapshot",
    "faults.sample",
    "faults.init",
    "faults.begin_round",
    "faults.perceive",
    "runners.self",
    "trace.counting",
)


class LayerTracer:
    """Span and count recorder for one traced unit.

    ``protocol_classes`` are the array-protocol classes whose ``setup``,
    ``act`` and ``on_feedback`` are traced as the protocol layer.
    """

    def __init__(self, protocol_classes: tuple[type, ...]) -> None:
        self.protocol_classes = protocol_classes
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._degree_cache: dict[int, tuple[Any, np.ndarray]] = {}
        # One child-time accumulator per open span.
        self._stack: list[float] = []

    # ------------------------------------------------------------------ #
    # Span wrappers
    # ------------------------------------------------------------------ #
    def _wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        count: Callable[[tuple[Any, ...], Any], None] | None = None,
    ) -> Callable[..., Any]:
        stack = self._stack
        self_s = self.self_s

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self_s[name] += (t1 - t0) - stack.pop()
            if count is not None:
                count(args, out)
                t2 = time.perf_counter()
                self_s["trace.counting"] += t2 - t1
                t1 = t2
            if stack:
                stack[-1] += t1 - t0
            return out

        return span

    def _count_streams(self, args: tuple[Any, ...], _out: Any) -> None:
        # SeededStreams(seed, n_nodes): n_nodes node generators + 1 engine.
        self.counts["rng.generators"] += int(args[2]) + 1

    def _count_coins(self, args: tuple[Any, ...], _out: Any) -> None:
        self.counts["protocol.coins_drawn"] += int(np.size(args[1]))

    def _degrees(self, operand: Any) -> np.ndarray:
        """Node degrees of the adjacency ``operand`` resolves against.

        Resolving an all-transmit round counts every node's neighbours on
        any backend; cached per operand object (the fault layer builds a
        new one per edge flip, so flipped adjacencies are counted as they
        are).
        """
        key = id(operand)
        cached = self._degree_cache.get(key)
        if cached is None or cached[0] is not operand:
            everyone = np.ones(operand.n, dtype=bool)
            degrees = operand.transmit_counts(operand.prepare_transmit(everyone))
            cached = (operand, np.asarray(degrees, dtype=np.int64))
            self._degree_cache[key] = cached
        return cached[1]

    def _count_resolve(self, args: tuple[Any, ...], _out: Any) -> None:
        operand, transmit = args[0], np.asarray(args[1])
        degrees = self._degrees(operand)
        tx = transmit.reshape(-1, transmit.shape[-1])
        counts = self.counts
        counts["channel.resolve_calls"] += 1
        counts["channel.rows"] += tx.shape[0]
        counts["channel.node_slots"] += tx.size
        counts["channel.transmitters"] += int(np.count_nonzero(tx))
        counts["channel.edge_slots_pull"] += tx.shape[0] * int(degrees.sum())
        counts["channel.edge_slots_push"] += int((tx @ degrees).sum())

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def _targets(self) -> list[tuple[Any, str, str, Callable[..., Any] | None]]:
        """``(owner, attribute, span name, counter)`` for every traced entry."""
        engine = batch_mod.ArrayEngine
        batch = batch_mod.BatchEngine
        state = faults_mod.FaultState
        targets: list[tuple[Any, str, str, Callable[..., Any] | None]] = [
            (topology_mod, "from_spec", "topology.build", None),
            (RadioNetwork, "bfs_layers", "topology.eccentricity", None),
            (RadioNetwork, "csr", "topology.csr", None),
            (RadioNetwork, "adjacency_key", "topology.csr", None),
            (SeededStreams, "__init__", "rng.streams", self._count_streams),
            (batch_mod, "select_kernel_operand", "channel.operand_build", None),
            (faults_mod, "operand_from_csr", "channel.operand_build", None),
            (batch_mod, "resolve_channel", "channel.resolve", self._count_resolve),
            (array_protocol_mod.CoinDeck, "draw", "protocol.coins", self._count_coins),
            (batch, "__init__", "engine.init", None),
            (engine, "__init__", "engine.init", None),
            (batch, "run", "engine.dispatch", None),
            (engine, "begin_round", "engine.dispatch", None),
            (engine, "resolve_round", "engine.dispatch", None),
            (engine, "complete_round", "engine.dispatch", None),
            (engine, "snapshot", "engine.snapshot", None),
            (faults_mod, "sample_fault_schedule", "faults.sample", None),
            (state, "__init__", "faults.init", None),
            (state, "begin_round", "faults.begin_round", None),
            (state, "perceive", "faults.perceive", None),
            (runners_mod, "run_broadcast_batch", "runners.self", None),
        ]
        for cls in self.protocol_classes:
            targets += [
                (cls, "setup", "protocol.setup", None),
                (cls, "act", "protocol.act", None),
                (cls, "on_feedback", "protocol.feedback", None),
            ]
        return targets

    @contextlib.contextmanager
    def installed(self) -> Iterator[LayerTracer]:
        """Swap every traced entry point for its span wrapper, then restore."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for owner, attr, name, count in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_seconds(self) -> dict[str, float]:
        """Self seconds per span name (every name in :data:`LAYER_SPANS`)."""
        return {name: self.self_s.get(name, 0.0) for name in LAYER_SPANS}
