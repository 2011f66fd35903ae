"""Arithmetic on the driver's raw samples: percentiles, failure counts,
span self time, the service critical path, and Chrome trace export.

Kept free of I/O so test_metrics.py can pin every rule on small inputs.
"""

import math
from collections import defaultdict

# Percentiles tried, highest first, when picking a latency tail.
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)


def nearest_rank(sorted_values, pct):
    """Nearest-rank percentile of an ascending list (pct in (0, 100])."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(values, target=95.0, min_beyond=10):
    """Highest percentile <= `target` that has at least `min_beyond` samples
    beyond its rank, as (percentile, value). With too few samples for any
    rung of TAIL_LADDER the median is returned, labelled 50."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if pct > target:
            continue
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= min_beyond:
            return pct, ordered[rank - 1]
    return 50.0, nearest_rank(ordered, 50.0)


def op_latencies(ops):
    """Per-operation latencies in seconds; an operation that did not verify,
    failed or was shed counts as +inf, so it misses every latency limit."""
    return [lat if ok and lat is not None else math.inf
            for lat, _keys, ok, _vus in ops]


def failed_fraction(ops):
    """(attempted, failed, failed / attempted) over driver op rows."""
    attempted = len(ops)
    failed = sum(1 for _lat, _keys, ok, _vus in ops if not ok)
    return attempted, failed, (failed / attempted if attempted else 1.0)


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    its direct children cover. Spans are (name, start, end, parent, run)."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    result = []
    for index, (_name, start, end, _parent, _run) in enumerate(spans):
        pieces = sorted((max(spans[c][1], start), min(spans[c][2], end))
                        for c in children[index])
        covered = 0.0
        cur_start = cur_end = None
        for lo, hi in pieces:
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        result.append((end - start) - covered)
    return result


def critical_path(jobs):
    """Sum over batches of the slowest shard's replayed plan time. Rows are
    (ticket, tenant, class, shard, batch, plan_s, attempts); a job never
    admitted to a shard (shard or batch < 0) is on no path."""
    per_shard = defaultdict(float)
    for _ticket, _tenant, _cls, shard, batch, plan_s, _attempts in jobs:
        if shard >= 0 and batch >= 0:
            per_shard[(batch, shard)] += plan_s
    slowest = defaultdict(float)
    for (batch, _shard), seconds in per_shard.items():
        slowest[batch] = max(slowest[batch], seconds)
    return sum(slowest.values())


def chrome_trace(spans, pid=1):
    """Chrome trace-event JSON object (complete 'X' events, microseconds)
    that Perfetto and chrome://tracing load offline."""
    selfs = self_times(spans)
    events = []
    for (name, start, end, parent, run), self_s in zip(spans, selfs):
        events.append({
            "name": name,
            "ph": "X",
            "ts": start * 1e6,
            "dur": (end - start) * 1e6,
            "pid": pid,
            "tid": 1,
            "args": {
                "run": run,
                "parent": spans[parent][0] if parent >= 0 else None,
                "self_us": self_s * 1e6,
            },
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
