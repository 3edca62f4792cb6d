"""Lossless JSON serialization of :class:`~repro.analysis.experiment.RunResult`.

The :class:`~repro.orchestrator.store.RunStore` persists one JSON document
per completed work unit.  Round-tripping must be *exact* — resumed
campaigns are required to be bit-identical to cold runs — which holds
because every payload is float64/int/bool and Python's ``json`` emits
shortest-round-trip ``repr`` floats.  To keep that guarantee structural
rather than accidental, the orchestrator always hands results through this
round trip (fresh results included), so a resumed aggregate can never see
different bits than the cold aggregate did.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from repro.analysis.experiment import ExperimentSpec, RunResult, RunStats
from repro.telemetry.core import TelemetrySummary

__all__ = ["result_to_dict", "result_from_dict"]

_SERIES = (
    "delivery_ratios",
    "mean_actual_ranges",
    "mean_extended_ranges",
    "mean_logical_degrees",
    "mean_physical_degrees",
)


def result_to_dict(result: RunResult) -> dict:
    """JSON-ready form of one run's per-sample series and counters.

    The spec and seed are *not* embedded — the store keys the document by
    unit ID and keeps both alongside it.
    """
    stats = result.stats
    stats_dict = {
        f.name: getattr(stats, f.name)
        for f in fields(RunStats)
        if f.name != "telemetry"
    }
    stats_dict["telemetry"] = (
        stats.telemetry.as_dict() if stats.telemetry is not None else None
    )
    return {
        "series": {
            **{name: [float(x) for x in getattr(result, name)] for name in _SERIES},
            "strict_connected": [bool(x) for x in result.strict_connected],
        },
        "stats": stats_dict,
    }


def result_from_dict(spec: ExperimentSpec, seed: int, data: dict) -> RunResult:
    """Rebuild the exact :class:`RunResult` a worker produced.

    Stored counters that :class:`RunStats` no longer has are dropped:
    stores written by 2.0.0 hold the removed decision-cache counters,
    which counted skipped work and never fed an output.
    """
    series = data["series"]
    known = {f.name for f in fields(RunStats)}
    stats_dict = {k: v for k, v in data["stats"].items() if k in known}
    telemetry = stats_dict.pop("telemetry", None)
    stats = RunStats(
        **stats_dict,
        telemetry=TelemetrySummary.from_dict(telemetry)
        if telemetry is not None
        else None,
    )
    return RunResult(
        spec=spec,
        seed=seed,
        **{name: np.asarray(series[name], dtype=float) for name in _SERIES},
        strict_connected=np.asarray(series["strict_connected"], dtype=bool),
        stats=stats,
    )
