"""Decision-pipeline benchmark: the whole-world kernels against the
per-owner reference route.

Measures the decision pipeline (see ``docs/PERFORMANCE.md``):

- ``redecide_all`` at the paper's scale (100 nodes) under view
  synchronization, the whole-world array pass vs one per-owner decision
  through the reference predicates
  (:class:`~repro.core._reference.ReferenceProtocol`) on the same frozen
  world;
- the Hello-time settle: the views a world gathers over one 0.1 s sample
  interval (n=100 view-sync/rng, n=1000 baseline/mst), decided in one
  kernel pass vs one reference decision per view;
- the gossip mechanism's warmup against view synchronization;
- the sparse-first snapshot -> decide -> flood pipeline at
  n in {2000, 5000, 10000} (paper density, proactive mechanism), where
  snapshots are CSR-backed and no ``(n, n)`` matrix is ever built.

Outputs are asserted bit-identical between the compared variants before
any timing, and ``BENCH_decide.json`` (median ns/op plus speedups) is written at the
repository root for regression tracking.  ``--smoke`` writes the
git-ignored ``BENCH_decide.smoke.json`` instead, so a smoke run never
overwrites the full record.

Run explicitly — it is not part of tier-1:

    PYTHONPATH=src python benchmarks/bench_decide.py [--smoke]
    PYTHONPATH=src python -m pytest benchmarks/bench_decide.py -m decide_bench
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiment import ExperimentSpec, build_world
from repro.analysis.scales import Scale
from repro.core._reference import ReferenceProtocol
from repro.core.views import Hello, LocalView

pytestmark = pytest.mark.decide_bench

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_decide.json"
SMOKE_OUTPUT = OUTPUT.with_suffix(".smoke.json")

#: paper density: 8100 m^2 per node => side = 90 * sqrt(n)
def _side(n: int) -> float:
    return 90.0 * float(np.sqrt(n))


def _median_ns(fn, budget_s: float = 2.0, min_reps: int = 5) -> float:
    """Median wall time of ``fn()`` in nanoseconds (self-sizing reps)."""
    start = time.perf_counter()
    fn()
    est = time.perf_counter() - start
    reps = max(min_reps, min(200, int(budget_s / max(est, 1e-9))))
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples) * 1e9)


def _decisions(world) -> list:
    return [
        (
            node.node_id,
            None
            if node.decision is None
            else (
                node.decision.logical_neighbors,
                node.decision.actual_range,
                node.decision.extended_range,
            ),
        )
        for node in world.nodes
    ]


def _per_node_decisions(world) -> list:
    """The oracle: one reference decision per owner, at the world's now."""
    manager, now = world.manager, world.engine.now
    reference = ReferenceProtocol(manager.protocol)
    out = []
    for node in world.nodes:
        result = manager.mechanism.decide(
            reference, node.table, now, world._current_hello(node, now)
        )
        out.append((
            node.node_id,
            (
                result.logical_neighbors,
                result.actual_range,
                manager.buffer_policy.extended_range(result.actual_range),
            ),
        ))
    return out


def bench_redecide(n: int, seed: int = 7, warm_t: float = 3.0) -> dict:
    """Time ``redecide_all`` against the per-owner reference loop, view-sync."""
    scale = Scale(
        name="bench",
        n_nodes=n,
        area_side=_side(n),
        duration=warm_t + 2.0,
        sample_rate=1.0,
        repetitions=1,
    )
    spec = ExperimentSpec(
        protocol="rng",
        mechanism="view-sync",
        mean_speed=20.0,
        config=scale.config(),
    )
    world = build_world(spec, seed)
    world.run_until(warm_t)

    # The whole-world redecide equals one per-node decision per owner,
    # bit for bit, before any timing.
    world.redecide_all()
    if _decisions(world) != _per_node_decisions(world):
        raise AssertionError("whole-world redecide diverges from per-node decide")

    batched_ns = _median_ns(world.redecide_all)
    per_node_ns = _median_ns(lambda: _per_node_decisions(world))
    print(
        f"redecide_all n={n:<4} per-node={per_node_ns / 1e6:8.2f} ms   "
        f"batched={batched_ns / 1e6:8.2f} ms   {per_node_ns / batched_ns:6.1f}x"
    )
    return {
        "n": n,
        "per_node_ns": round(per_node_ns),
        "batched_ns": round(batched_ns),
        "speedup": round(per_node_ns / batched_ns, 2),
    }


def _local_view(batch, t: float) -> LocalView:
    """The LocalView of a one-view :class:`~repro.core.framework.ViewBatch`."""
    hellos = [
        Hello(int(i), 0, (float(x), float(y)), t, t)
        for i, x, y in zip(batch.ids, batch.x, batch.y)
    ]
    return LocalView(
        owner=hellos[0].sender,
        own_hello=hellos[0],
        neighbor_hellos={h.sender: h for h in hellos[1:]},
        normal_range=float(batch.normal_range[0]),
        sampled_at=t,
    )


#: (n, mechanism, protocol) of the Hello-time settle rows
SETTLE_CASES = ((100, "view-sync", "rng"), (1000, "baseline", "mst"))


def bench_hello_settle(
    n: int, mechanism: str, protocol: str, seed: int = 7, warm_t: float = 3.0,
    interval: float = 0.1,
) -> dict:
    """Time one settle of the views gathered over one sample *interval*
    against one reference decision per view."""
    scale = Scale(
        name="bench-settle",
        n_nodes=n,
        area_side=_side(n),
        duration=warm_t + 2.0,
        sample_rate=1.0,
        repetitions=1,
    )
    spec = ExperimentSpec(
        protocol=protocol, mechanism=mechanism, mean_speed=20.0, config=scale.config()
    )
    world = build_world(spec, seed)
    world.run_until(warm_t)
    # advance the engine alone: the Hellos of the interval stay queued
    world.engine.run(until=warm_t + interval)
    entries = list(world._pending)
    views = [view for _, _, view in entries]
    times = [t for _, t, _ in entries]
    manager = world.manager
    reference = ReferenceProtocol(manager.protocol)
    local_views = [_local_view(view, t) for view, t in zip(views, times)]

    def per_owner() -> list:
        return [
            manager._decision(t, reference.select(view))
            for view, t in zip(local_views, times)
        ]

    if manager.decide_gathered(views, times) != per_owner():
        raise AssertionError(f"Hello-time settle diverges from per-owner at n={n}")
    settle_ns = _median_ns(lambda: manager.decide_gathered(views, times), budget_s=1.0)
    per_owner_ns = _median_ns(per_owner, budget_s=1.0)
    count = len(views)
    print(
        f"hello_settle n={n:<5} {mechanism}/{protocol} views={count:<4} "
        f"per-owner={per_owner_ns / count / 1e3:7.1f} us/view   "
        f"settle={settle_ns / count / 1e3:7.1f} us/view   "
        f"{per_owner_ns / settle_ns:6.1f}x"
    )
    return {
        "n": n,
        "mechanism": mechanism,
        "protocol": protocol,
        "views": count,
        "per_owner_ns": round(per_owner_ns),
        "settle_ns": round(settle_ns),
        "speedup": round(per_owner_ns / settle_ns, 2),
    }


GOSSIP_SIZES = (100, 1000)


def bench_gossip(n: int, seed: int = 7, warm_t: float = 3.0) -> dict:
    """Warmup wall time and dissemination counters of the gossip mechanism.

    The same scenario runs under view synchronization as the control, so
    the row reads as "what the epidemic layer costs on top of an
    otherwise identical world".  The gossip world's determinism is
    asserted (two same-seed builds, identical counters) before timing.
    """
    scale = Scale(
        name="bench-gossip",
        n_nodes=n,
        area_side=_side(n),
        duration=warm_t + 2.0,
        sample_rate=1.0,
        repetitions=1,
    )
    spec = ExperimentSpec(
        protocol="rng",
        mechanism="gossip",
        mean_speed=20.0,
        config=scale.config(),
    )

    def timed(s):
        world = build_world(s, seed)
        t0 = time.perf_counter()
        world.run_until(warm_t)
        return world, time.perf_counter() - t0

    gossip_world, gossip_s = timed(spec)
    twin, _ = timed(spec)
    if gossip_world.gossip_stats() != twin.gossip_stats():
        raise AssertionError(f"gossip counters not deterministic at n={n}")
    _, viewsync_s = timed(spec.with_(mechanism="view-sync"))
    stats = gossip_world.gossip_stats()
    print(
        f"gossip n={n:<5} view-sync={viewsync_s:7.2f} s   "
        f"gossip={gossip_s:7.2f} s   {gossip_s / viewsync_s:6.2f}x   "
        f"(rounds={stats['gossip_rounds']}, "
        f"messages={stats['gossip_messages']}, "
        f"merged={stats['gossip_merged']})"
    )
    return {
        "n": n,
        "viewsync_warmup_s": round(viewsync_s, 3),
        "gossip_warmup_s": round(gossip_s, 3),
        "overhead_factor": round(gossip_s / viewsync_s, 2),
        **stats,
    }


SCALE_SIZES = (2000, 5000, 10000)


def bench_scale_pipeline(n: int, seed: int = 7, warm_t: float = 3.0) -> dict:
    """Warm snapshot -> decide -> flood costs at large n, sparse-first.

    The world runs the proactive mechanism at the paper's density; above
    the sparse switch every snapshot is CSR-backed, so the whole pipeline
    is O(n * degree) per probe and the dense ``(n, n)`` path is never
    touched.
    """
    from repro.sim.flood import flood
    from repro.sim.world import SPARSE_SWITCH

    scale = Scale(
        name="bench-scale",
        n_nodes=n,
        area_side=_side(n),
        duration=warm_t + 2.0,
        sample_rate=1.0,
        repetitions=1,
    )
    spec = ExperimentSpec(
        protocol="rng",
        mechanism="proactive",
        mean_speed=20.0,
        config=scale.config(),
    )
    t0 = time.perf_counter()
    world = build_world(spec, seed)
    world.run_until(warm_t)
    warm_s = time.perf_counter() - t0
    snap = world.snapshot()
    if n >= SPARSE_SWITCH and snap.prefers_dense:
        raise AssertionError(f"snapshot at n={n} should be sparse-first")
    snapshot_ns = _median_ns(world.snapshot, budget_s=1.0)
    redecide_ns = _median_ns(world.redecide_all, budget_s=1.0)
    flood_ns = _median_ns(lambda: flood(world, 0), budget_s=2.0, min_reps=3)
    stats = world.neighbor_stats()
    print(
        f"scale_pipeline n={n:<6} warmup={warm_s:6.1f} s   "
        f"snapshot={snapshot_ns / 1e6:8.2f} ms   "
        f"redecide={redecide_ns / 1e6:8.2f} ms   "
        f"flood={flood_ns / 1e6:8.2f} ms"
    )
    return {
        "n": n,
        "warmup_s": round(warm_s, 2),
        "snapshot_ns": round(snapshot_ns),
        "redecide_ns": round(redecide_ns),
        "flood_ns": round(flood_ns),
        **{f"neighbor_{k}": v for k, v in stats.items()},
    }


def run_benchmark(smoke: bool = False) -> dict:
    redecide_sizes = (25,) if smoke else (50, 100)
    settle_cases = ((25, "view-sync", "rng"),) if smoke else SETTLE_CASES
    scale_sizes = () if smoke else SCALE_SIZES
    # Gossip rows run at the paper scale and 10x even in smoke mode: the
    # overhead-vs-view-sync factor is the tracked number, and it only
    # means something at the sizes the figures report.
    gossip_sizes = GOSSIP_SIZES
    results = {
        "redecide_all": {str(n): bench_redecide(n) for n in redecide_sizes},
        "hello_settle": {
            f"{n}-{mechanism}-{protocol}": bench_hello_settle(n, mechanism, protocol)
            for n, mechanism, protocol in settle_cases
        },
        "gossip": {str(n): bench_gossip(n) for n in gossip_sizes},
        "scale_pipeline": {str(n): bench_scale_pipeline(n) for n in scale_sizes},
    }
    return {
        "meta": {
            "unit": "ns/op (median)",
            "mechanism": "view-sync",
            "protocol": "rng",
            "smoke": smoke,
            "redecide_sizes": list(redecide_sizes),
            "settle_cases": [list(case) for case in settle_cases],
            "gossip_sizes": list(gossip_sizes),
            "scale_sizes": list(scale_sizes),
        },
        "results": results,
    }


def test_decide_bench():
    payload = run_benchmark()
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUTPUT}")
    # The whole-world kernel must beat one per-owner reference decision
    # per owner by >= 3x at the paper's scale.
    assert payload["results"]["redecide_all"]["100"]["speedup"] >= 3.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, no speedup thresholds; writes BENCH_decide.smoke.json (CI sanity run)",
    )
    args = parser.parse_args()
    if args.smoke:
        payload = run_benchmark(smoke=True)
        SMOKE_OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {SMOKE_OUTPUT}")
        return 0
    test_decide_bench()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
