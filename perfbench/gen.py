"""Workload inputs, generated only from the seed.

Nothing here touches the program: the functions turn ``--seed`` (plus
the fixed shape constants below) into the order of the paper-sweep
grid, the record stream of solo-64, and the whole fleet-churn schedule
-- due times, session choice, block sizes and the records each block
carries.  The program later receives only frames built from these.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

#: Records per STEP_BLOCK request on solo-64.
SOLO_BLOCK = 64

#: fleet-churn shape.  Every ``FLEET_WINDOWED_EVERY``-th popularity rank
#: is a windowed DFCM session (the scalar ``Session`` path); the other
#: ranks cycle through ``FLEET_FAMILIES``, so each family's share of the
#: traffic is the same for every seed.
FLEET_SESSIONS = 48
FLEET_FAMILIES = ("dfcm", "fcm", "stride", "lvp")
FLEET_WINDOWED_EVERY = 8
FLEET_WINDOW = 4
#: Block sizes, drawn as a balanced multiset (equal counts, shuffled) so
#: the records a run carries do not swing with the seed.
FLEET_BLOCK_SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
#: Zipf exponent of session popularity.
FLEET_ZIPF_S = 1.0
#: Requests per round of the schedule: enough that the least popular
#: session gets one in every round.
FLEET_ROUND = 240


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per input stream of one seed."""
    tag = int.from_bytes(hashlib.blake2b(stream.encode(),
                                         digest_size=4).digest(), "little")
    return np.random.default_rng([seed & 0xFFFFFFFF, tag])


def ring(length: int, start: int, count: int) -> np.ndarray:
    """Indices ``start, start+1, ...`` (count of them) modulo *length*."""
    return (start + np.arange(count, dtype=np.int64)) % length


def sweep_order(seed: int, cells: int, rep: int = 0) -> List[int]:
    """The order in which paper-sweep's pass *rep* visits its grid cells."""
    return rng_for(seed, f"sweep-{rep}").permutation(cells).tolist()


def solo_offset(seed: int, trace_len: int) -> int:
    """Where in the li trace the solo-64 stream starts."""
    return int(rng_for(seed, "solo").integers(0, trace_len))


@dataclass(frozen=True)
class FleetSession:
    """One fleet session: what it predicts and what it replays."""

    rank: int          # popularity rank, 1 = most requested
    family: str
    window: int
    trace: str
    offset: int        # first record of its trace it replays
    conn: int          # the connection that carries all its requests


@dataclass(frozen=True)
class FleetRequest:
    """One scheduled STEP_BLOCK: due time, target and its records."""

    due: float         # seconds after the schedule starts
    session: int       # index into the session list
    start: int         # first record (ring index into the session's trace)
    size: int


def fleet_sessions(seed: int, trace_names: Sequence[str], trace_len: int,
                   conns: int) -> List[FleetSession]:
    rng = rng_for(seed, "fleet-sessions")
    traces = np.resize(np.arange(len(trace_names)), FLEET_SESSIONS)
    rng.shuffle(traces)
    offsets = rng.integers(0, trace_len, FLEET_SESSIONS)
    sessions = []
    plain = 0
    for index in range(FLEET_SESSIONS):
        rank = index + 1
        if rank % FLEET_WINDOWED_EVERY == 0:
            family, window = "dfcm", FLEET_WINDOW
        else:
            family, window = FLEET_FAMILIES[plain % len(FLEET_FAMILIES)], 0
            plain += 1
        sessions.append(FleetSession(
            rank=rank, family=family, window=window,
            trace=trace_names[int(traces[index])],
            offset=int(offsets[index]), conn=index % conns))
    return sessions


def zipf_counts(total: int, sessions: int) -> np.ndarray:
    """Requests per popularity rank: Zipf shares of *total*, rounded by
    largest remainder so they sum to *total*."""
    weights = 1.0 / np.arange(1, sessions + 1) ** FLEET_ZIPF_S
    exact = total * weights / weights.sum()
    counts = np.floor(exact).astype(np.int64)
    short = total - int(counts.sum())
    counts[np.argsort(-(exact - counts), kind="stable")[:short]] += 1
    return counts


def fleet_requests(seed: int, seconds: float, rate: float,
                   sessions: Sequence[FleetSession],
                   trace_len: int) -> List[FleetRequest]:
    """Poisson arrivals at *rate* over *seconds*, Zipf session choice.

    The arrival count is fixed at ``round(rate * seconds)``; the gaps
    between arrivals are the exponential distribution's quantiles at
    evenly spaced probabilities, in seeded order -- exponential gaps,
    hence Poisson arrivals, whose spread of gap lengths is the same for
    every seed.  The requests come in rounds of :data:`FLEET_ROUND`:
    in each, every session gets its Zipf share, in seeded order, so any
    stretch of the schedule -- the part a closed loop gets through
    included -- has the same session mix.  Each session cycles through
    its own seeded permutation of the block sizes.  So every seed offers
    the same load per session, and only the order and the records
    differ.
    """
    rng = rng_for(seed, "fleet-requests")
    count = max(1, round(rate * seconds))
    gaps = -np.log1p(-(np.arange(count) + 0.5) / count) / rate
    rng.shuffle(gaps)
    due = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    rounds = []
    for first in range(0, count, FLEET_ROUND):
        size = min(FLEET_ROUND, count - first)
        rounds.append(np.repeat(np.arange(len(sessions)),
                                zipf_counts(size, len(sessions))))
        rng.shuffle(rounds[-1])
    choice = np.concatenate(rounds)
    cycles = [rng.permutation(FLEET_BLOCK_SIZES) for _ in sessions]
    served = [0] * len(sessions)
    cursor = [session.offset for session in sessions]
    requests = []
    for when, target in zip(due.tolist(), choice.tolist()):
        cycle = cycles[target]
        size = int(cycle[served[target] % len(cycle)])
        served[target] += 1
        requests.append(FleetRequest(when, target, cursor[target] % trace_len,
                                     size))
        cursor[target] += size
    return requests


def fleet_plan(seed: int, seconds: float, rate: float,
               trace_names: Sequence[str], trace_len: int,
               conns: int) -> Tuple[List[FleetSession], List[FleetRequest]]:
    sessions = fleet_sessions(seed, trace_names, trace_len, conns)
    return sessions, fleet_requests(seed, seconds, rate, sessions, trace_len)
