"""Order statistics the benchmark reports.

Every timing is summarised by its median and by the highest whole
percentile (at most the 99th) that still has at least
:data:`MIN_BEYOND` samples beyond it, so a tail figure is never read off
a handful of points.  Percentiles use the nearest-rank definition: the
p-th percentile of n ascending samples is the sample at 1-based rank
``ceil(p / 100 * n)``.

A failed or unanswered request enters a latency sample as ``inf``: it
sorts above every answered request, so it counts as missing any
latency limit and is never dropped from the sample.

Timings are reported net of host steal (:func:`net_figures`): on a
shared host the hypervisor runs other tenants on this machine's CPUs
while the program waits to run, which delays it for no cause of its
own.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

MIN_BEYOND = 10
TAIL_CAP = 99


def nearest_rank(ordered: Sequence[float], pct: float) -> float:
    """The nearest-rank *pct*-th percentile of the ascending *ordered*."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank position of *pct* in *n*."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail_percentile(n: int) -> Optional[int]:
    """Highest whole percentile <= 99 with >= MIN_BEYOND samples beyond.

    ``None`` when even the median lacks that many (fewer than 20
    samples): such a run cannot report a tail.
    """
    for pct in range(TAIL_CAP, 49, -1):
        if beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def summarize(samples: Sequence[float]) -> dict:
    """Median, tail percentile and counts of one latency sample."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = tail_percentile(n)
    if tail is None:
        raise ValueError(f"{n} samples cannot give a tail percentile; "
                         f"need at least {2 * MIN_BEYOND}")
    return {
        "count": n,
        "missed": sum(1 for value in ordered if math.isinf(value)),
        "p50": nearest_rank(ordered, 50),
        "tail_pct": tail,
        "tail": nearest_rank(ordered, tail),
    }


def median(values: Sequence[float]) -> float:
    """Nearest-rank median (an observed value, never an interpolation)."""
    return nearest_rank(sorted(values), 50)


def net_figures(records: int, wall: float, net: float,
                latencies: Sequence[float], miss: float) -> dict:
    """Figures of one timed phase, net of host steal.

    The phase took *wall* seconds, of which *net* remain once the CPU
    time the hypervisor gave to other tenants is taken off (see
    ``procs.StealMeter.net``).  Throughput is *records* over *net*;
    every latency is scaled by ``net / wall``, the share of the phase
    the host let the program run.  A missed request (``inf``) stays a
    miss, and counts as *miss* seconds in the median and tail.
    """
    factor = net / wall
    figures = summarize([latency * factor for latency in latencies])
    figures["p50"] = min(figures["p50"], miss)
    figures["tail"] = min(figures["tail"], miss)
    figures["records_per_s"] = records / net
    figures["net_share"] = factor
    return figures


def describe(figures: dict) -> str:
    return (f"p50 {figures['p50'] * 1e3:.3f} ms, p{figures['tail_pct']} "
            f"{figures['tail'] * 1e3:.3f} ms ({figures['count']} samples, "
            f"{figures['missed']} missed; net of host steal, which took "
            f"{1 - figures['net_share']:.1%} of the phase)")
