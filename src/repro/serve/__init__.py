"""The serving fleet: an async gateway over warm analysis services.

:mod:`repro.service` owns a *single* program forever — one
:class:`~repro.service.AnalysisService`, one thread-safe lock, one
JSON-lines connection at a time doing useful work.  This package is
the layer above it, built for many programs and many clients at once:

* :mod:`repro.serve.protocol` — the ``repro-serve/2`` wire protocol:
  pipelined JSON-lines with request ids, tenant routing and
  admission-control error codes layered over the ``repro-serve/1``
  operation set;
* :mod:`repro.serve.registry` — a multi-tenant
  :class:`~repro.serve.registry.SnapshotRegistry` keyed by program
  digest, restoring warm services from ``repro-snapshot/2`` documents
  instead of re-solving, under an LRU byte budget;
* :mod:`repro.serve.gateway` — the asyncio
  :class:`~repro.serve.gateway.AsyncGateway`: micro-batched execution
  of compatible operations per tenant, bounded queues with explicit
  overload responses, per-op latency percentiles and graceful drain.

``repro serve --async`` is the CLI entry; the ``serve-mixed`` workload
of ``benchmarks/e2e`` times the gateway under mixed reads, updates and
checks.
"""

from repro.serve.gateway import (
    AsyncGateway,
    GatewayConfig,
    GatewayStats,
    run_gateway_in_thread,
)
from repro.serve.protocol import (
    ADMISSION_ERROR_CODES,
    BARRIER_OPS,
    BATCHABLE_OPS,
    GATEWAY_OPS,
    PROTOCOL_V2,
    classify,
)
from repro.serve.registry import RegistryStats, SnapshotRegistry

__all__ = [
    "ADMISSION_ERROR_CODES",
    "AsyncGateway",
    "BARRIER_OPS",
    "BATCHABLE_OPS",
    "GATEWAY_OPS",
    "GatewayConfig",
    "GatewayStats",
    "PROTOCOL_V2",
    "RegistryStats",
    "SnapshotRegistry",
    "classify",
    "run_gateway_in_thread",
]
