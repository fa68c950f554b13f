"""Coloring-as-a-service: a persistent daemon over the simulator.

The batch tools (``repro scale``, ``repro two-sweep``, the benchmark
runners) pay the full cold start on every invocation -- interpreter
boot, imports, worker spawn, cache building, topology compilation.
:mod:`repro.serve` keeps all of that alive in one long-running process:
a stdlib-only asyncio HTTP daemon whose worker pool holds the warm
substrate caches, shared-memory topologies, and frozen engine across
requests, with micro-batching of compatible requests in between.

Layers (each its own module):

* :mod:`~repro.serve.schema` -- request validation + the shared
  ``repro-result/v3`` response envelope (also used by ``--json`` CLI
  output);
* :mod:`~repro.serve.executor` -- one request to one payload; the same
  code path serves the daemon's workers and serial reference runs,
  which is what makes bit-identity testable;
* :mod:`~repro.serve.pool` -- the supervised process-lifetime
  :class:`~repro.sim.parallel.WorkerPool`;
* :mod:`~repro.serve.batcher` -- bounded admission + micro-batching;
* :mod:`~repro.serve.server` -- the asyncio HTTP front end;
* :mod:`~repro.serve.client` -- the keep-alive test/benchmark client.
"""

from .batcher import Batcher, ServerBusy
from .client import ServeClient
from .executor import execute_batch, execute_request
from .pool import PoolSupervisor
from .schema import (
    RequestError,
    SCHEMA_VERSION,
    batch_key,
    envelope,
    parse_request,
    topology_key,
)
from .server import ColoringServer, ServerHandle

__all__ = [
    "Batcher",
    "ColoringServer",
    "PoolSupervisor",
    "RequestError",
    "SCHEMA_VERSION",
    "ServeClient",
    "ServerBusy",
    "ServerHandle",
    "batch_key",
    "envelope",
    "execute_batch",
    "execute_request",
    "parse_request",
    "topology_key",
]
