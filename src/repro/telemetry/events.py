"""Bounded structured event log: what happened, when, to whom.

Counters say *how much*; events say *in what order*.  A
:class:`TelemetryEvent` is one timestamped record (Hello sent, Hello
dropped, fault window opening, range change, ...) with free-form scalar
fields.  The :class:`EventLog` keeps the most recent ``maxsize`` of them —
simulation runs emit events at Hello rate, so an unbounded log would
dominate memory on long runs; the drop counter makes truncation explicit
instead of silent.
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["EVENT_KINDS", "TelemetryEvent", "EventLog"]

#: The shipped event taxonomy (see docs/OBSERVABILITY.md).  The log accepts
#: unknown kinds — extensions may add their own — but everything the repro
#: simulator itself emits is listed here, and the JSONL schema check warns
#: on kinds outside this set.
EVENT_KINDS: frozenset[str] = frozenset(
    {
        "run_start",  # one simulation repetition begins (seed, spec label)
        "run_end",  # repetition finished (wall-clock, sample count)
        "hello_sent",  # a node broadcast a Hello (version, receiver count)
        "hello_received",  # a Hello was recorded by a receiver table
        "hello_dropped",  # deliveries lost (reason: loss | fault | collision | propagation)
        "range_change",  # a decision changed the node's extended range
        "fault",  # an injector seam fired (action field says which)
        "flood",  # a delivery probe ran (source, delivery ratio)
        "gossip_exchange",  # an anti-entropy push-pull completed (pulled/pushed counts)
        "gossip_mayday",  # a silent-view node re-requested full views from peers
    }
)


@dataclass(frozen=True, slots=True)
class TelemetryEvent:
    """One structured record in the event stream.

    Attributes
    ----------
    kind:
        Event type; see :data:`EVENT_KINDS` for the shipped taxonomy.
    t:
        Simulation time of the event, seconds.
    node:
        Primary node involved (None for run-level events).
    data:
        Additional scalar fields, stored as a sorted tuple of pairs so the
        event itself stays hashable and cheap to compare.
    """

    kind: str
    t: float
    node: int | None = None
    data: tuple[tuple[str, Any], ...] = ()

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (data pairs inlined under ``"data"``)."""
        out: dict[str, Any] = {"kind": self.kind, "t": self.t}
        if self.node is not None:
            out["node"] = self.node
        if self.data:
            out["data"] = dict(self.data)
        return out


class EventLog:
    """Ring buffer of the most recent telemetry events.

    Parameters
    ----------
    maxsize:
        Retained events; older ones are evicted FIFO.  Eviction is counted
        in :attr:`dropped` (and per-kind tallies in :meth:`kind_counts`
        keep counting even for evicted events, so totals stay exact).
    """

    __slots__ = ("maxsize", "_events", "recorded", "dropped", "_tally")

    def __init__(self, maxsize: int = 65536) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._events: deque[TelemetryEvent] = deque(maxlen=self.maxsize)
        self.recorded = 0
        self.dropped = 0
        self._tally: _TallyCounter[str] = _TallyCounter()

    def append(self, event: TelemetryEvent, tally: int = 1) -> None:
        """Record one event (evicting the oldest when full).

        *tally* > 1 records a single summarizing event object that stands
        for that many occurrences: the per-kind tally (and therefore
        :meth:`kind_counts`) advances by *tally*, while only one event is
        retained — the other ``tally - 1`` count as recorded-but-not-
        retained (``dropped``), the same accounting :meth:`absorb_counts`
        uses for merged summaries.  This is what keeps the Hello
        pipeline's per-batch ``hello_received`` and ``fault`` kind totals
        exactly equal to one event per reception.
        """
        if tally < 1:
            raise ValueError(f"tally must be >= 1, got {tally}")
        if len(self._events) == self.maxsize:
            self.dropped += 1
        self._events.append(event)
        self.recorded += tally
        self.dropped += tally - 1
        self._tally[event.kind] += tally

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TelemetryEvent]:
        return iter(self._events)

    def kind_counts(self) -> dict[str, int]:
        """Exact per-kind event totals (including evicted events)."""
        return dict(sorted(self._tally.items()))

    def absorb_counts(self, counts: dict[str, int], recorded: int) -> None:
        """Fold another log's per-kind tallies into this one.

        The merge seam for multi-process telemetry: worker collectors ship
        frozen summaries, not event objects, so absorbed events count as
        recorded-but-not-retained (``dropped``) here — kind totals stay
        exact while the retained ring buffer holds only local events.
        """
        for kind, n in counts.items():
            self._tally[kind] += int(n)
        self.recorded += int(recorded)
        self.dropped += int(recorded)

    def merge(self, other: "EventLog") -> None:
        """Append another log's retained events and fold in its totals.

        The result equals having recorded *other*'s events here directly:
        its retained events join the ring (evicting the oldest when full)
        and everything it counted but did not retain stays dropped.
        """
        for event in other:
            if len(self._events) == self.maxsize:
                self.dropped += 1
            self._events.append(event)
        self.recorded += other.recorded
        self.dropped += other.recorded - len(other)
        self._tally.update(other._tally)
