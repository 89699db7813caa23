"""Certification-as-a-service: asyncio daemon over the sharded store.

The pieces the API layer grew in PRs 1–5 (facade, sessions, the
persistent :class:`~repro.api.store.CertificateStore` + artifact cache,
verification executors) were all blocking.
This package is the serving tier on top of them:

* :mod:`repro.service.protocol` — newline-delimited JSON wire protocol
  (requests: certify / reverify / audit / update / metrics / ping /
  shutdown); the response bodies are the PR 2/3 report JSON round-trips,
  and ``update`` serves edit streams through :mod:`repro.incremental`;
* :mod:`repro.service.service` — :class:`CertificationService`, the
  asyncio front-end: request coalescing, store-hit fast path, executor
  bridge onto thread-local sessions;
* :mod:`repro.service.coalesce` — in-flight deduplication (M identical
  concurrent requests → one prover run, M responses);
* :mod:`repro.service.metrics` — counters, gauges, and latency
  histograms serialized as one JSON snapshot;
* :mod:`repro.service.daemon` — the TCP/unix-socket server with
  graceful SIGTERM draining;
* :mod:`repro.service.client` — the async multiplexing client.

Run it::

    python -m repro.service --socket /tmp/repro.sock --store certs/ --k 2

See ``docs/ARCHITECTURE.md`` § "The service layer" for the request
lifecycle and ``docs/FORMAT.md`` § "Sharded store layout" for what the
store puts on disk.
"""

from repro.service.client import ServiceClient, ServiceClientError, result_of
from repro.service.coalesce import Coalescer
from repro.service.daemon import Daemon
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.protocol import (
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode_line,
    error_response,
    graph_from_wire,
    graph_to_wire,
    ok_response,
    validate_request,
)
from repro.service.service import (
    AUDIT_ATTACKS,
    CertificationService,
    ServiceConfig,
    ServiceError,
)

__all__ = [
    "CertificationService",
    "ServiceConfig",
    "ServiceError",
    "Daemon",
    "ServiceClient",
    "ServiceClientError",
    "result_of",
    "Coalescer",
    "ServiceMetrics",
    "LatencyHistogram",
    "ProtocolError",
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "OPS",
    "AUDIT_ATTACKS",
    "graph_to_wire",
    "graph_from_wire",
    "encode_line",
    "decode_line",
    "ok_response",
    "error_response",
    "validate_request",
]
