"""Rendezvous (highest-random-weight) hashing for session placement.

The router assigns every session id to a worker with HRW hashing:
each (worker, session) pair gets a deterministic 64-bit score from
blake2b, and the session lands on the highest-scoring worker.  The
properties the cluster leans on:

- **Stability.** The score is a pure function of the worker key and
  the session id -- no seeding, no insertion order, no process state.
  A restarted router recomputes exactly the placement the previous
  one used, so adopted arenas go back to the workers whose kernels
  are warm for them.
- **Uniformity.** blake2b scores are uniform, so load spreads evenly
  across workers (tests bound the max/min ratio over 10k ids).
- **Minimal disruption.** Removing a worker re-homes only the
  sessions it owned (every other pair's argmax is unchanged); adding
  one steals ~1/(n+1) of each existing worker's sessions and nothing
  else moves.  This is what makes hot migration affordable: a scale
  event touches the theoretical minimum number of arenas.

Worker keys are small ints (the supervisor's stable slot indices), so
a replacement worker restarted into slot *i* inherits slot *i*'s
placement -- deliberate: its predecessor's arenas come home.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Set

__all__ = ["RendezvousRing", "rendezvous_score"]


def rendezvous_score(worker: int, session_id: int) -> int:
    """The deterministic 64-bit HRW score of one (worker, session)
    pair."""
    digest = hashlib.blake2b(b"%d:%d" % (worker, session_id),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


class RendezvousRing:
    """The set of live workers and the HRW assignment over them."""

    def __init__(self, workers: Iterable[int] = ()):
        self._workers: Set[int] = set(workers)

    @property
    def workers(self) -> List[int]:
        return sorted(self._workers)

    def __len__(self) -> int:
        return len(self._workers)

    def __contains__(self, worker: int) -> bool:
        return worker in self._workers

    def add(self, worker: int) -> None:
        self._workers.add(worker)

    def discard(self, worker: int) -> None:
        self._workers.discard(worker)

    def assign(self, session_id: int) -> int:
        """The owning worker for *session_id* among live workers;
        raises :class:`LookupError` when there are none."""
        best = -1
        best_score = -1
        for worker in self._workers:
            score = rendezvous_score(worker, session_id)
            # Ties (astronomically unlikely) break toward the higher
            # slot index so the choice stays deterministic everywhere.
            if score > best_score or (score == best_score
                                      and worker > best):
                best, best_score = worker, score
        if best < 0:
            raise LookupError(
                f"no live worker available for session {session_id}")
        return best
