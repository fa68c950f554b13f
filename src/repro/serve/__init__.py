"""Coloring-as-a-service: a persistent daemon over the simulator.

The batch tools (``repro scale``, ``repro two-sweep``, the benchmark
runners) pay the full cold start on every invocation -- interpreter
boot, imports, worker spawn, memo building, topology compilation.
:mod:`repro.serve` keeps all of that alive in one long-running process:
a stdlib-only asyncio HTTP daemon whose worker pool holds its warm
memos, shared-memory topologies, and frozen engine across requests;
each admitted request is one pool dispatch.

Layers (each its own module):

* :mod:`~repro.serve.schema` -- request validation + the shared
  ``repro-result/v3`` response envelope (also used by ``--json`` CLI
  output);
* :mod:`~repro.serve.executor` -- one request to one payload; the same
  code path serves the daemon's workers and serial reference runs,
  which is what makes bit-identity testable;
* :mod:`~repro.serve.pool` -- the supervised process-lifetime
  :class:`~repro.sim.parallel.WorkerPool`;
* :mod:`~repro.serve.server` -- the asyncio HTTP front end and its
  admission bound (requests in flight);
* :mod:`~repro.serve.client` -- the keep-alive test/benchmark client.
"""

from .client import ServeClient
from .executor import execute_request
from .pool import PoolSupervisor
from .schema import (
    RequestError,
    SCHEMA_VERSION,
    envelope,
    parse_request,
    topology_key,
)
from .server import ColoringServer, ServerHandle

__all__ = [
    "ColoringServer",
    "PoolSupervisor",
    "RequestError",
    "SCHEMA_VERSION",
    "ServeClient",
    "ServerHandle",
    "envelope",
    "execute_request",
    "parse_request",
    "topology_key",
]
