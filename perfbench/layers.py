"""Per-layer self time from span intervals.

The program records spans (``telemetry.span``) and phase laps
(``PhaseTimer.lap``) as events carrying their end time and duration; the
benchmark records one span of its own around every cell.  Self time
partitions each cell's wall time: every instant is owned by the innermost
span open at that instant (the one opened last), so the layers' self
times plus the benchmark's own remainder add up to the traced wall time
exactly, even where fork-pool workers' spans overlap in time.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

__all__ = ["CELL_SPAN", "BUCKETS", "self_times"]

#: The span name the benchmark records around each cell.
CELL_SPAN = "perfbench.cell"

#: Span name -> the layer bucket its self time is charged to.  Names not
#: listed here are charged to ``trace.unattributed_s``.
BUCKETS = {
    CELL_SPAN: "trace.unattributed_s",
    "experiment.run": "drivers.self_s",
    "harness.fold": "harness.fold_s",
    "plan.build": "plan.build_s",
    "tile.run": "tile.run_s",
    "fault.plan": "fault.plan_s",
    "engine.execute.vectorized": "vectorized.execute_s",
    "vectorized.sample": "vectorized.execute_s",
    "vectorized.sweep": "vectorized.execute_s",
    "engine.execute.object": "object.execute_s",
    "engine.execute.compiled": "compiled.run_s",
    "batched.draws": "batched.draws_s",
    "batched.key_build": "batched.key_build_s",
    "batched.sort": "batched.sort_s",
    "batched.resolve": "batched.resolve_s",
    "batched.materialize": "batched.materialize_s",
    "compiled.setup": "compiled.setup_s",
    "compiled.step": "compiled.step_s",
    "compiled.materialize": "compiled.materialize_s",
}


def self_times(events: list[dict]) -> dict[str, float]:
    """Seconds owned by each bucket, from span events.

    ``events`` are telemetry span records (``name``, ``ts`` = end as
    ``time.time()``, ``dur_s``).  Program spans only open inside a
    :data:`CELL_SPAN`, so the buckets sum to the cells' total duration.
    """
    spans = sorted(
        (e["ts"] - e["dur_s"], e["ts"], e["name"])
        for e in events
        if e.get("kind") == "span"
    )
    points = sorted({p for start, end, _ in spans for p in (start, end)})
    owned: dict[str, float] = defaultdict(float)
    active: list[tuple[float, int]] = []  # (-start, index): innermost on top
    next_span = 0
    for left, right in zip(points, points[1:]):
        while next_span < len(spans) and spans[next_span][0] <= left:
            heapq.heappush(active, (-spans[next_span][0], next_span))
            next_span += 1
        # Lazy deletion: only the top has to be a span still open.
        while active and spans[active[0][1]][1] <= left:
            heapq.heappop(active)
        if active:
            name = spans[active[0][1]][2]
            owned[BUCKETS.get(name, "trace.unattributed_s")] += right - left
    return dict(owned)
