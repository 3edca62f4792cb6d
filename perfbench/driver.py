"""Drive seeded worlds the way ``run_once`` does, check them, time them.

:func:`drive_world` is the benchmark's unit of work: one repetition that
mirrors :func:`repro.analysis.experiment.run_once` call for call —
``build_world``, then for each sample time ``world.run_until(t)``, a flood
from the ``"flood-sources"`` stream, ``world.snapshot()``,
``sample_topology`` and ``strictly_connected``.  :func:`run_benchmark`
drives whole worlds until the time budget is spent and folds them into
the end-to-end (untraced) or per-layer (traced) metrics.  Untraced, each
world is driven several times, every timed region is scaled to a
reference host speed by :func:`probe`, and each step keeps its fastest
repeat: the host's other tenants slow the same work by up to 2.5x.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.experiment import RunResult, RunStats, build_world
from repro.core.audit import audit_world
from repro.metrics.connectivity import strictly_connected
from repro.metrics.topology import sample_topology
from repro.sim.flood import flood
from repro.util.randomness import SeedSequenceFactory

from perfbench.tracer import Tracer, trace_world
from perfbench.workloads import Workload, world_seed

__all__ = [
    "WorldRun",
    "series_digest",
    "result_digest",
    "drive_world",
    "probe",
    "tail",
    "run_benchmark",
]

#: Extra timed ``build_world`` calls after each untraced drive, so that
#: ``setup_s`` is a median over builds spread across the whole run.
SETUP_EXTRA = 3

#: The clock of every end-to-end metric: CPU seconds of this process.
#: The measured loop is single-threaded (BLAS pinned to one thread) and
#: does no I/O, so on an idle core this equals wall time.
CLOCK = time.process_time

#: Iterations of the :func:`probe` loop.
PROBE_LOOPS = 15_000

#: End-to-end times are scaled to the host speed at which :func:`probe`
#: takes this long.  On the 2-vCPU Xeon host the benchmark was built on,
#: the 5th percentile of a run's probes took 0.96 ms at the quietest and
#: up to 1.59 ms when the whole host ran slow.
PROBE_REFERENCE_S = 1.0e-3

#: Decision-cache counters are left out of the digest: they count work the
#: implementation skipped, not behaviour, and the cache is slated for
#: removal (ROADMAP item 1) with outputs unchanged.
DIGEST_EXCLUDED = frozenset(
    {"decision_cache_hits", "decision_cache_misses", "decision_cache_uncacheable"}
)

SERIES = (
    "delivery_ratios",
    "mean_actual_ranges",
    "mean_extended_ranges",
    "mean_logical_degrees",
    "mean_physical_degrees",
    "strict_connected",
)


def series_digest(series: dict[str, np.ndarray], stats: dict) -> str:
    """Sha256 over the per-sample series and run counters.

    Hashed as ``benchmarks/digest_e2e.py`` does: each series' raw bytes
    in :data:`SERIES` order, then the sorted-key JSON of the
    ``RunStats.as_dict()`` counters, less :data:`DIGEST_EXCLUDED`.
    """
    h = hashlib.sha256()
    for name in SERIES:
        h.update(np.ascontiguousarray(series[name]).tobytes())
    counters = {k: v for k, v in stats.items() if k not in DIGEST_EXCLUDED}
    h.update(json.dumps(counters, sort_keys=True).encode())
    return h.hexdigest()


def result_digest(result: RunResult) -> str:
    """:func:`series_digest` of a ``run_once`` result."""
    return series_digest(
        {name: getattr(result, name) for name in SERIES}, result.stats.as_dict()
    )


def probe() -> float:
    """CPU seconds of a fixed pure-Python loop: the host's current speed.

    On a shared host the same work runs up to about 2.5 times slower
    while other tenants load the core.  Probing just before and after
    each timed region lets the driver scale that region's time to a
    fixed reference speed (see :func:`at_reference`).
    """
    t0 = CLOCK()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return CLOCK() - t0


def at_reference(cpu_s: float, before: float, after: float) -> float:
    """*cpu_s*, measured between probes *before* and *after*, scaled to the
    speed at which the probe takes :data:`PROBE_REFERENCE_S`."""
    return cpu_s * 2.0 * PROBE_REFERENCE_S / (before + after)


def _sample_metrics(snap, physical_neighbor_mode: bool):
    return sample_topology(snap), strictly_connected(snap, physical_neighbor_mode)


@dataclass
class WorldRun:
    """One driven world: outputs, counters, checks and timings."""

    seed: int
    digest: str
    stats: dict
    pipeline: dict
    violations: int
    bad_ratios: int
    setup_s: float
    wall_s: float
    sim_s: float
    step_s: list[float]
    probe_s: list[float] = field(default_factory=list)

    @property
    def hello_route(self) -> str:
        return "batched" if self.pipeline else "scalar"

    @property
    def cpu_s(self) -> float:
        """CPU seconds of every sample step, the warmup step included."""
        return sum(self.step_s)

    def setup_at_reference(self) -> float:
        """``setup_s`` scaled by :func:`at_reference` (needs probes)."""
        return at_reference(self.setup_s, *self.probe_s[:2])

    def steps_at_reference(self) -> list[float]:
        """``step_s`` scaled by :func:`at_reference` (needs probes)."""
        p = self.probe_s
        return [
            at_reference(step, p[i + 1], p[i + 2])
            for i, step in enumerate(self.step_s)
        ]


def drive_world(
    workload: Workload,
    seed: int,
    tracer: Tracer | None = None,
    probed: bool = False,
) -> WorldRun:
    """Run one world of *workload* seeded *seed*, as ``run_once`` would.

    ``setup_s`` and ``step_s`` are CPU seconds of this process
    (:data:`CLOCK`); ``wall_s`` is the wall time of the sample loop.  The
    first of ``step_s`` also advances through the warmup.  When *probed*,
    :func:`probe` runs before the build and after the build and every
    step, outside the timed regions, into ``probe_s``.
    """
    spec = workload.spec()
    cfg = spec.config
    clock = CLOCK
    probes: list[float] = []
    if probed:
        probes.append(probe())
    t0 = clock()
    world = build_world(spec, seed, faults=workload.faults())
    setup_s = clock() - t0
    if world.telemetry.enabled:
        raise RuntimeError("in-program telemetry must stay disarmed")
    flood_fn, sample_fn = flood, _sample_metrics
    if tracer is not None:
        trace_world(tracer, world)
        flood_fn = tracer.traced(flood, "sim.flood")
        sample_fn = tracer.traced(_sample_metrics, "metrics.sample")
    pn_mode = world.manager.physical_neighbor_mode
    source_rng = SeedSequenceFactory(seed).rng("flood-sources")
    sample_times = np.arange(cfg.warmup, cfg.duration + 1e-9, 1.0 / cfg.sample_rate)
    columns: dict[str, list] = {name: [] for name in SERIES}
    steps: list[float] = []
    wall_start = time.perf_counter()
    for t in sample_times:
        if probed:
            probes.append(probe())
        a = clock()
        world.run_until(float(t))
        result = flood_fn(world, int(source_rng.integers(cfg.n_nodes)))
        snap = world.snapshot()
        topo, strict = sample_fn(snap, pn_mode)
        steps.append(clock() - a)
        columns["delivery_ratios"].append(result.delivery_ratio)
        columns["mean_actual_ranges"].append(topo.mean_actual_range)
        columns["mean_extended_ranges"].append(topo.mean_extended_range)
        columns["mean_logical_degrees"].append(topo.mean_logical_degree)
        columns["mean_physical_degrees"].append(topo.mean_physical_degree)
        columns["strict_connected"].append(strict)
    wall_s = time.perf_counter() - wall_start
    if probed:
        probes.append(probe())
    series = {name: np.asarray(values) for name, values in columns.items()}
    series["strict_connected"] = series["strict_connected"].astype(bool)
    ratios = series["delivery_ratios"]
    stats = RunStats.from_world(world).as_dict()
    return WorldRun(
        seed=seed,
        digest=series_digest(series, stats),
        stats=stats,
        pipeline=world.hello_pipeline_stats(),
        violations=len(audit_world(world)),
        bad_ratios=int(np.count_nonzero(~((ratios >= 0.0) & (ratios <= 1.0)))),
        setup_s=setup_s,
        wall_s=wall_s,
        sim_s=float(world.engine.now),
        step_s=steps,
        probe_s=probes,
    )


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): p99, or below 1000 values the highest
    percentile with at least ten values beyond it (the 11th largest)."""
    n = len(values)
    if n >= 1000:
        return float(np.percentile(values, 99.0)), 99.0
    if n == 0:
        return 0.0, 0.0
    return sorted(values)[max(0, n - 11)], max(0.0, 100.0 * (1.0 - 10.0 / n))


@dataclass
class _Tally:
    """Attempts, failures and finished worlds of one benchmark run.

    *expected_digest* is what world 0 must hash to, when known.
    """

    expected_digest: str | None
    attempted: int = 0
    failed: int = 0
    worlds: list[WorldRun] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: Extra builds: (CPU seconds, probe before, probe after).
    builds: list[tuple[float, float, float]] = field(default_factory=list)

    def drive(
        self,
        workload: Workload,
        seed: int,
        index: int,
        tracer=None,
        same_as=None,
        probed: bool = False,
    ):
        """Drive and check one world; None when it raised.

        World 0 must hash to :attr:`expected_digest`; a repeat must hash
        like *same_as*, the first drive of its world.
        """
        self.attempted += 1
        gc.collect()
        try:
            run = drive_world(workload, seed, tracer, probed)
        except Exception:  # a raising world is a failed run, not a crash
            self.failed += 1
            self.errors.append(f"world {index} (seed {seed}) raised")
            traceback.print_exc(file=sys.stderr)
            return None
        problems = []
        if run.violations:
            problems.append(f"{run.violations} audit violations")
        if run.bad_ratios:
            problems.append(f"{run.bad_ratios} delivery ratios outside [0, 1]")
        if index == 0 and self.expected_digest not in (None, run.digest):
            problems.append(f"digest {run.digest} != expected {self.expected_digest}")
        if same_as is not None and run.digest != same_as.digest:
            problems.append(f"repeat digest {run.digest} != first {same_as.digest}")
        if problems:
            self.failed += 1
            self.errors.append(f"world {index} (seed {seed}): " + "; ".join(problems))
        self.worlds.append(run)
        return run

    def repeat(self, workload: Workload, seed: int, first: int):
        """Drive worlds ``first .. first + workload.batch - 1`` of a run
        seeded *seed*, each ``workload.repeats`` times, in turn, probed.

        Taking the worlds in turn spreads each world's repeats over the
        whole batch.  Returns each world's drives, for every world whose
        drives did not raise.
        """
        spec, faults = workload.spec(), workload.faults()
        runs: dict[int, list[WorldRun] | None] = {
            i: [] for i in range(first, first + workload.batch)
        }
        for _ in range(workload.repeats):
            for index, done in runs.items():
                if done is None:
                    continue
                world = world_seed(seed, index)
                run = self.drive(
                    workload,
                    world,
                    index,
                    same_as=done[0] if done else None,
                    probed=True,
                )
                if run is None:
                    runs[index] = None
                    continue
                done.append(run)
                before = probe()
                for _ in range(SETUP_EXTRA):
                    t0 = CLOCK()
                    build_world(spec, world, faults=faults)
                    cpu = CLOCK() - t0
                    after = probe()
                    self.builds.append((cpu, before, after))
                    before = after
        return [done for done in runs.values() if done]


def run_benchmark(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    expected_digest: str | None = None,
) -> dict:
    """Drive whole worlds of *workload* for about *seconds* of wall time.

    World ``k`` is seeded ``world_seed(seed, k)``; world 0 always runs
    and must hash to *expected_digest* when one is given.  Untraced,
    worlds come in batches of ``workload.batch``, each world driven
    ``workload.repeats`` times (every repeat must hash alike) with
    :func:`probe` around every timed region.  Each time is scaled to the
    reference speed (:func:`at_reference`), and the end-to-end metrics are taken over each sample step's fastest repeat.
    Another batch (traced: world) starts only if it is expected to end
    within the budget, judged by how long the last one took.
    Traced, first drives world 0 untraced as the reference, then traces
    worlds from 0 on, once each (traced world 0 must hash like the
    reference), and returns the per-layer metrics.  Also returns the
    attempt/failure tally and per-drive records.
    """
    tally = _Tally(expected_digest)
    tracer = Tracer() if trace else None
    reference = None
    start = time.perf_counter()
    if trace:
        reference = tally.drive(workload, world_seed(seed, 0), 0)
        if reference is not None:
            tally.expected_digest = reference.digest
    groups: list[list[WorldRun]] = []
    index, last = 0, 0.0
    while index == 0 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        if trace:
            tally.drive(workload, world_seed(seed, index), index, tracer)
            index += 1
        else:
            groups += tally.repeat(workload, seed, index)
            index += workload.batch
        last = time.perf_counter() - began
    worlds = tally.worlds[1:] if reference is not None else tally.worlds
    out = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "drives": [
            {
                "seed": w.seed,
                "digest": w.digest,
                "hello_route": w.hello_route,
                "setup_s": w.setup_s,
                "wall_s": w.wall_s,
                "cpu_s": w.cpu_s,
                "sim_s": w.sim_s,
                "samples": len(w.step_s),
            }
            for w in tally.worlds
        ],
        "hello_route": worlds[0].hello_route if worlds else "unknown",
    }
    if trace:
        out["metrics"] = _layer_metrics(tracer, worlds, reference)
        out["tracer"] = tracer
    else:
        setup_times = [at_reference(*b) for b in tally.builds]
        setup_times += [w.setup_at_reference() for w in worlds]
        fastest = [
            (runs[0].sim_s, [min(c) for c in zip(*(r.steps_at_reference() for r in runs))])
            for runs in groups
        ]
        probes = [p for w in worlds for p in w.probe_s]
        steps = [s for _, world in fastest for s in world[1:]]
        out["metrics"] = _e2e_metrics(setup_times, fastest, steps)
        out["sample_count"] = len(steps)
        out["tail_percentile"] = tail(steps)[1]
        out["probe_p5_s"] = float(np.percentile(probes, 5)) if probes else None
    return out


def _e2e_metrics(setup_times, fastest, steps) -> dict[str, tuple[float, str]]:
    cpu = sum(sum(world) for _, world in fastest)
    sim = sum(sim_s for sim_s, _ in fastest)
    return {
        "setup_s": (float(np.median(setup_times)) if setup_times else 0.0, "s"),
        "sim_s_per_cpu_s": (sim / cpu if cpu > 0 else 0.0, "sim_s/s"),
        "sample_cpu_p50_ms": (
            1000.0 * float(np.median(steps)) if steps else 0.0, "ms"
        ),
        "sample_cpu_p99_ms": (1000.0 * tail(steps)[0], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _layer_metrics(tracer, worlds, reference) -> dict[str, tuple[float, str]]:
    layers = tracer.layer_times()

    def layer(name: str, key: str) -> float:
        return float(layers.get(name, {}).get(key, 0))

    def total(key: str) -> int:
        return int(sum(w.stats.get(key, 0) for w in worlds))

    wall = sum(w.wall_s for w in worlds)
    hits = total("decision_cache_hits")
    decisions = hits + total("decision_cache_misses") + total(
        "decision_cache_uncacheable"
    )
    messages = total("gossip_messages")
    overhead = (
        worlds[0].wall_s - reference.wall_s
        if reference is not None and worlds
        else 0.0
    )
    m: dict[str, tuple[float, str]] = {
        "traced_wall_s": (wall, "s"),
        "traced_sim_s": (sum(w.sim_s for w in worlds), "sim_s"),
        "protocols.select.calls": (layer("protocols.select", "calls"), "count"),
        "protocols.select.self_s": (layer("protocols.select", "self_s"), "s"),
        "core.consistency.decide.self_s": (
            layer("core.consistency.decide", "self_s"), "s"
        ),
        "core.manager.decide.calls": (layer("core.manager.decide", "calls"), "count"),
        "core.manager.decide.self_s": (layer("core.manager.decide", "self_s"), "s"),
        "core.manager.cache_hit_ratio": (
            hits / decisions if decisions else 0.0, "ratio"
        ),
        "core.manager.decisions": (decisions, "count"),
        "sim.redecide_all.calls": (layer("sim.redecide_all", "calls"), "count"),
        "sim.redecide_all.self_s": (layer("sim.redecide_all", "self_s"), "s"),
        "sim.run_until.self_s": (layer("sim.run_until", "self_s"), "s"),
        "sim.flood.self_s": (layer("sim.flood", "self_s"), "s"),
        "sim.snapshot.self_s": (layer("sim.snapshot", "self_s"), "s"),
        "metrics.sample.self_s": (layer("metrics.sample", "self_s"), "s"),
        "sim.hello_messages": (total("hello_messages"), "count"),
        "sim.deliveries": (total("deliveries"), "count"),
        "sim.hello_route.batched": (
            float(bool(worlds) and all(w.pipeline for w in worlds)), "bool"
        ),
        "sim.oracle_rebuilds": (
            sum(w.pipeline.get("oracle_rebuilds", 0) for w in worlds), "count"
        ),
        "sim.oracle_queries": (
            sum(w.pipeline.get("oracle_queries", 0) for w in worlds), "count"
        ),
        "faults.hello_drops": (total("fault_hello_drops"), "count"),
        "faults.delayed_deliveries": (total("fault_delayed_deliveries"), "count"),
        "gossip.rounds": (total("gossip_rounds"), "count"),
        "gossip.messages": (messages, "count"),
        "gossip.merged": (total("gossip_merged"), "count"),
        "gossip.merged_per_message": (
            total("gossip_merged") / messages if messages else 0.0, "ratio"
        ),
        "unattributed_s": (wall - tracer.root_time(), "s"),
        "tracing_overhead_s": (overhead, "s"),
    }
    return {k: (float(v), unit) for k, (v, unit) in m.items()}
