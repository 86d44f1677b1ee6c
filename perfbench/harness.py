"""Workload definitions, the measured unit, and one benchmark run.

A *unit* is one job a user of the simulator runs, timed from the topology
spec to the returned results: build the topology with
:func:`repro.sim.topology.from_spec`, sample fault schedules with
:func:`repro.sim.faults.sample_fault_schedule` where the workload has
faults, and run every instance through
:func:`repro.sim.runners.run_broadcast_batch` with default
:class:`~repro.params.ProtocolParams` (so ``channel_backend="auto"``) and
the runtime sanitizer off.  A *run* repeats the same unit (same seed, same
inputs) for a fixed number of seconds in one single-threaded process — a
closed loop with one client — and reports medians over the units.

Every topology, instance and fault seed is derived from the run's
workload seed, so the same seed gives the same inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import resource
import statistics
import time
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import BroadcastFailure
from repro.sim import faults as faults_mod
from repro.sim import runners as runners_mod
from repro.sim import topology as topology_mod
from repro.sim.core import batch as batch_mod
from repro.sim.core.stats import conservation_violation

from perfbench.layers import LAYER_SPANS, LayerTracer

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "WORKLOADS",
    "FaultKnobs",
    "RunReport",
    "Unit",
    "Workload",
    "run_unit",
    "run_workload",
]


@dataclass(frozen=True)
class FaultKnobs:
    """Intensities passed to :func:`~repro.sim.faults.sample_fault_schedule`."""

    horizon: int
    crash_rate: float = 0.0
    loss_rate: float = 0.0
    edge_flip_rate: float = 0.0


@dataclass(frozen=True)
class Workload:
    """One named benchmark input: a topology spec plus a batch of instances.

    Every instance runs on the same network, built once per unit.
    """

    name: str
    why: str
    protocol: str
    family: str
    n: int
    instances: int
    #: extra :func:`~repro.sim.topology.from_spec` arguments (``p``, ``radius``).
    spec: Mapping[str, float] = field(default_factory=dict)
    options: Mapping[str, Any] = field(default_factory=dict)
    faults: FaultKnobs | None = None
    #: explicit per-instance round budget; ``None`` keeps the protocol's own.
    budget: int | None = None

    def tiny(self) -> Workload:
        """The same job at a size that runs in well under a second."""
        return dataclasses.replace(
            self, n=min(self.n, 64), instances=min(self.instances, 2), spec={}
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="decay_sweep_grid256",
            why=(
                "256 Decay seeds fused on grid n=256, the seed sweep behind the "
                "statistics; self time: engine.dispatch 33%, rng.streams 26%, "
                "protocol.coins 14%, protocol.act 10%"
            ),
            protocol="decay",
            family="grid",
            n=256,
            instances=256,
        ),
        Workload(
            name="mm_faults_ud2048",
            why=(
                "2 k=8 multi-message GHK runs on unit_disk n=2048 under loss, crashes "
                "and edge flips; self time: channel.resolve 33%, faults.begin_round "
                "21%, protocol.act 19%"
            ),
            protocol="multimessage",
            family="unit_disk",
            n=2048,
            # One run's round count spreads by 7 to 9% from seed to seed;
            # two runs per unit average some of that out.  A radius of
            # 0.0566 gives about 20 neighbours per node, sparser than the
            # default.
            instances=2,
            spec={"radius": 0.0566},
            options={"k_messages": 8},
            faults=FaultKnobs(
                horizon=2000, crash_rate=0.05, loss_rate=0.10, edge_flip_rate=0.002
            ),
        ),
    )
}

#: ``(name, unit)`` of every end-to-end metric, measured with tracing off.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("rounds_per_s", "rounds/s"),
    ("peak_rss_mib", "MiB"),
    ("rounds_mean", "rounds"),
)

#: ``(name, unit)`` of every per-layer metric, from the traced pass.
PER_LAYER = (
    *((f"{span}_s", "s") for span in LAYER_SPANS),
    ("unaccounted_s", "s"),
    ("trace_overhead_frac", "ratio"),
    ("rng.generators", "count"),
    ("channel.resolve_calls", "count"),
    ("channel.rows", "count"),
    ("channel.rows_per_call", "rows"),
    ("channel.tx_fraction", "ratio"),
    ("channel.edge_slots_pull", "count"),
    ("channel.edge_slots_push", "count"),
    ("protocol.coins_drawn", "count"),
    ("engine.instance_rounds", "count"),
    ("faults.flips_applied", "count"),
)


def derived_seeds(workload: Workload, seed: int) -> tuple[int, list[int], list[int]]:
    """The topology seed, and one instance and one fault seed per instance."""
    count = workload.instances
    words = np.random.SeedSequence(seed).generate_state(3 * count, dtype=np.uint32)
    values = [int(w) for w in words]
    return values[0], values[count : 2 * count], values[2 * count :]


# ---------------------------------------------------------------------- #
# One unit
# ---------------------------------------------------------------------- #
@dataclass
class Unit:
    """Timings, fingerprint and check outcome of one unit."""

    wall_s: float
    setup_s: float
    loop_s: float
    instance_rounds: int
    rounds: list[int]
    #: ``(rounds to delivery, total transmissions)`` per instance (or the
    #: failure message) — compared across units and between passes.
    fingerprint: tuple[Any, ...]
    #: one message per instance that failed or broke a check.
    failures: list[str]
    flips_applied: int = 0
    #: the process's peak resident set when the unit ended.
    peak_rss_mib: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    unaccounted_s: float = 0.0


@contextlib.contextmanager
def _loop_marker(marks: dict[str, float]) -> Iterator[None]:
    """Record when the batch round loop starts and ends.

    Wraps :meth:`BatchEngine.run` for the duration of one unit; its entry
    is the end of setup, its exit the end of the round loop.
    """
    original = batch_mod.BatchEngine.__dict__["run"]

    def run(self: Any) -> Any:
        marks["loop_start"] = time.perf_counter()
        try:
            return original(self)
        finally:
            marks["loop_end"] = time.perf_counter()

    batch_mod.BatchEngine.run = run  # type: ignore[method-assign]
    try:
        yield
    finally:
        batch_mod.BatchEngine.run = original  # type: ignore[method-assign]


def _source_distances(network: Any) -> np.ndarray:
    """Hop distance of every node from the source on ``network``."""
    distance = np.empty(network.n, dtype=np.int64)
    for hops, layer in enumerate(network.bfs_layers()):
        distance[list(layer)] = hops
    return distance


def _check_result(network: Any, result: Any) -> str | None:
    """The first check one instance's result fails, or ``None``."""
    if isinstance(result, BroadcastFailure):
        return str(result)
    problem = conservation_violation(result.sim)
    if problem is not None:
        return f"conservation: {problem}"
    if result.rounds_to_delivery > result.budget:
        return (
            f"delivered in {result.rounds_to_delivery} rounds, over its budget "
            f"{result.budget}"
        )
    # A message travels one hop per round (delivery in round r reaches
    # distance r + 1), so no node hears it before its distance allows.
    # Edge flips in the sampled schedules only take base edges down and
    # back up, so the bound holds under faults too.
    informed = np.asarray(result.informed_rounds, dtype=np.int64)
    distance = _source_distances(network)
    if informed[network.source] != 0 or (informed + 1 < distance).any():
        return "a node was informed before the message could reach it"
    if int(informed.max()) + 1 != result.rounds_to_delivery:
        return (
            f"last arrival in round {int(informed.max())} does not end the run of "
            f"{result.rounds_to_delivery} rounds"
        )
    return None


def run_unit(workload: Workload, seed: int, tracer: LayerTracer | None = None) -> Unit:
    """Run one unit of ``workload`` from spec to results, then check it."""
    topology_seed, instance_seeds, fault_seeds = derived_seeds(workload, seed)
    marks: dict[str, float] = {}
    gc.collect()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        stack.enter_context(_loop_marker(marks))
        t0 = time.perf_counter()
        network = topology_mod.from_spec(
            workload.family, workload.n, seed=topology_seed, **workload.spec
        )
        networks = [network] * workload.instances
        schedules = None
        if workload.faults is not None:
            knobs = workload.faults
            schedules = [
                faults_mod.sample_fault_schedule(
                    network,
                    seed=fault_seed,
                    horizon=knobs.horizon,
                    crash_rate=knobs.crash_rate,
                    loss_rate=knobs.loss_rate,
                    edge_flip_rate=knobs.edge_flip_rate,
                )
                for network, fault_seed in zip(networks, fault_seeds)
            ]
        telemetry: dict[str, Any] = {}
        results = runners_mod.run_broadcast_batch(
            workload.protocol,
            networks,
            seeds=instance_seeds,
            options=workload.options or None,
            budget=workload.budget,
            faults=schedules,
            telemetry=telemetry,
            sanitize=False,
        )
        t_end = time.perf_counter()
    failures: list[str] = []
    fingerprint: list[Any] = []
    if len(results) != workload.instances:
        failures.append(f"{len(results)} results for {workload.instances} instances")
    for i, (network, result) in enumerate(zip(networks, results)):
        problem = _check_result(network, result)
        if problem is not None:
            failures.append(f"instance {i}: {problem}")
        if isinstance(result, BroadcastFailure):
            fingerprint.append(str(result))
        else:
            fingerprint.append((result.rounds_to_delivery, result.sim.total_transmissions))
    delivered = [r for r in results if not isinstance(r, BroadcastFailure)]
    unit = Unit(
        wall_s=t_end - t0,
        setup_s=marks["loop_start"] - t0,
        loop_s=marks["loop_end"] - marks["loop_start"],
        instance_rounds=int(telemetry["rounds"]),
        rounds=[r.rounds_to_delivery for r in delivered],
        fingerprint=tuple(fingerprint),
        failures=failures,
        flips_applied=sum(
            r.sim.faults.edge_flips_applied for r in delivered if r.sim.faults is not None
        ),
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        unit.layers = tracer.layer_seconds()
        unit.counts = dict(tracer.counts)
        unit.unaccounted_s = unit.wall_s - sum(unit.layers.values())
    return unit


# ---------------------------------------------------------------------- #
# One run
# ---------------------------------------------------------------------- #
@dataclass
class RunReport:
    """What one benchmark run measured, ready to print."""

    attempted: int
    failed: int
    failures: list[str]
    metrics: dict[str, dict[str, float | str]]
    #: per-metric ``[min, q1, median, q3, max]`` over units, and unit counts.
    spread: dict[str, Any]

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 5
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [min(values), q1, q2, q3, max(values)]


def run_workload(
    workload: Workload, seed: int, seconds: float, *, trace: bool, min_units: int = 3
) -> RunReport:
    """Repeat ``workload``'s unit for ``seconds`` (at least ``min_units`` times).

    Untraced, the report holds every end-to-end metric.  Traced, untraced
    and traced units alternate and the report holds every per-layer metric;
    the untraced units give the reference for the tracing overhead.
    """
    # Untimed warm-up at a tiny size: imports, registries and lazy caches.
    run_unit(workload.tiny(), seed)
    protocol_classes = (runners_mod.broadcast_spec(workload.protocol).array_factory,)
    plain: list[Unit] = []
    traced: list[Unit] = []
    start = time.perf_counter()
    while True:
        plain.append(run_unit(workload, seed))
        if trace:
            traced.append(run_unit(workload, seed, LayerTracer(protocol_classes)))
        if len(plain) >= min_units and time.perf_counter() - start >= seconds:
            break
    units = plain + traced
    failures: list[str] = []
    failed = 0
    for unit in units:
        failed += len(unit.failures)
        failures.extend(unit.failures)
    reference = plain[0].fingerprint
    for index, unit in enumerate(units[1:], start=1):
        if unit.fingerprint != reference:
            kind = "traced" if index >= len(plain) else "untraced"
            mismatched = sum(a != b for a, b in zip(unit.fingerprint, reference))
            failed += max(1, mismatched)
            failures.append(
                f"{kind} unit {index} did not reproduce the first unit's per-instance "
                "rounds and transmissions"
            )
    for index, unit in enumerate(traced[1:], start=1):
        if unit.counts != traced[0].counts:
            failed += 1
            failures.append(f"traced unit {index} did not reproduce the layer counts")
    attempted = workload.instances * len(units)
    failed = min(failed, attempted)
    if trace:
        metrics, spread = _layer_metrics(plain, traced)
    else:
        metrics, spread = _end_to_end_metrics(plain)
    spread["units"] = len(plain)
    spread["traced_units"] = len(traced)
    return RunReport(attempted, failed, failures, metrics, spread)


def _end_to_end_metrics(units: list[Unit]) -> tuple[dict[str, Any], dict[str, Any]]:
    samples = {
        "wall_s": [u.wall_s for u in units],
        "setup_s": [u.setup_s for u in units],
        "rounds_per_s": [u.instance_rounds / u.loop_s for u in units],
    }
    values = {name: _median(vals) for name, vals in samples.items()}
    # Read after the first unit, so that it does not depend on how many
    # units the host's speed fits into the run.
    values["peak_rss_mib"] = units[0].peak_rss_mib
    # Failed instances have no delivery round; a run with failures is
    # reported incorrect anyway, so 0 only keeps the JSON valid.
    values["rounds_mean"] = float(np.mean(units[0].rounds)) if units[0].rounds else 0.0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    spread = {name: _quartiles(vals) for name, vals in samples.items()}
    return metrics, spread


def _layer_metrics(
    plain: list[Unit], traced: list[Unit]
) -> tuple[dict[str, Any], dict[str, Any]]:
    values: dict[str, float] = {}
    for span in LAYER_SPANS:
        values[f"{span}_s"] = _median([u.layers[span] for u in traced])
    values["unaccounted_s"] = _median([u.unaccounted_s for u in traced])
    plain_wall = _median([u.wall_s for u in plain])
    traced_wall = _median([u.wall_s for u in traced])
    values["trace_overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    counts = traced[0].counts
    for name in (
        "rng.generators",
        "channel.resolve_calls",
        "channel.rows",
        "channel.edge_slots_pull",
        "channel.edge_slots_push",
        "protocol.coins_drawn",
    ):
        values[name] = counts.get(name, 0)
    calls, rows = values["channel.resolve_calls"], values["channel.rows"]
    values["channel.rows_per_call"] = rows / calls if calls else 0.0
    slots = counts.get("channel.node_slots", 0)
    values["channel.tx_fraction"] = counts.get("channel.transmitters", 0) / slots if slots else 0.0
    values["engine.instance_rounds"] = traced[0].instance_rounds
    values["faults.flips_applied"] = traced[0].flips_applied
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    spread = {
        "traced_wall_s": _quartiles([u.wall_s for u in traced]),
        "untraced_wall_s": _quartiles([u.wall_s for u in plain]),
    }
    return metrics, spread
