"""Online value-prediction service (``repro serve`` / ``repro loadgen``).

The offline harness replays traces through the engine layer in batch;
this package serves the same predictors over TCP, online:

- :mod:`repro.serve.protocol` -- the length-prefixed binary frame
  format (versioned; OPEN_SESSION / PREDICT / OUTCOME / STEP /
  STEP_BLOCK / FLUSH / STATS / CLOSE_SESSION).
- :mod:`repro.serve.session` -- per-session predictor state built from
  a picklable :class:`~repro.core.spec.PredictorSpec`, with an optional
  in-flight *window* implementing delayed update online
  (:mod:`repro.core.delayed` semantics, bit-for-bit).
- :mod:`repro.serve.batcher` -- the cross-connection micro-batcher:
  a bounded queue, batch-while-busy (an idle worker runs a request at
  once; a busy one batches and fuses its backlog, up to a max batch
  size), backpressure, graceful drain.
- :mod:`repro.serve.service` -- the chassis the server and the cluster
  router share: listener, connection loop and drain, request log,
  observability route table, start/stop lifecycle and the
  background-thread host.
- :mod:`repro.serve.tracing` -- the one request span both record
  (:class:`~repro.serve.tracing.RequestTrace`): stage marks named from
  one vocabulary that add up to the request's latency.
- :mod:`repro.serve.server` -- the asyncio TCP server: one queue, one
  worker task, one least-recently-used session table.
- :mod:`repro.serve.client` / :mod:`repro.serve.loadgen` -- a blocking
  client (with reconnect-on-reset backoff) and a trace-replay load
  generator reporting throughput and latency percentiles, verified
  against the offline engine.
- :mod:`repro.serve.cluster` -- multi-worker serving: a
  :class:`~repro.serve.cluster.supervisor.ClusterSupervisor` fleet of
  worker processes behind a session-affine
  :class:`~repro.serve.cluster.router.Router` (rendezvous-hashed
  placement, hot migration over durable-state arenas, zero-drop
  drain/failover, aggregated observability).

Serving is bit-identical to the offline engines: a served trace
produces the same hit/miss counts as ``measure_suite`` on the same
spec, including under delayed-update windows -- at every fleet size.
"""

from repro.serve.client import ServeClient
from repro.serve.cluster import (ClusterSupervisor, ClusterThread,
                                 RendezvousRing, Router)
from repro.serve.obs import ObservabilityServer
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError
from repro.serve.server import PredictionServer, ServerThread
from repro.serve.session import Session
from repro.serve.tracing import (RequestTrace, SlowRequestSampler,
                                 format_trace_id, new_trace_id)

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Session",
    "PredictionServer",
    "ServerThread",
    "ServeClient",
    "ClusterSupervisor",
    "ClusterThread",
    "RendezvousRing",
    "Router",
    "ObservabilityServer",
    "RequestTrace",
    "SlowRequestSampler",
    "new_trace_id",
    "format_trace_id",
]
