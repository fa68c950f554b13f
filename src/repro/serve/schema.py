"""Request/response protocol for the coloring daemon.

One schema, three speakers: the :mod:`repro.serve` daemon's HTTP bodies,
the ``repro scale --json`` / ``repro trace --json`` CLI output, and the
benchmark suite's machine-readable records all share the
:func:`envelope` result format, so a script that parses one parses all
of them (``schema`` stamps the format version, ``kind`` the payload
flavor).

Requests are plain JSON dicts with two parts:

* ``topology`` -- *what graph*: a named streamed family
  (``ring-stream``, ``grid-stream``, ``tree-stream``, ``gnp-stream``,
  ``regular-stream`` -- the same specs ``repro scale`` takes), a
  materialized seeded family (``gnp``), an inline ``edges`` list, or a
  previously-uploaded ``graph`` handle;
* ``algorithm`` -- *what to run*: ``greedy-reduction`` (the scale
  workload: inflated seed palette reduced to ``Delta + 1``),
  ``two-sweep`` (Algorithm 1 on a seeded random OLDC instance), or
  ``fast-two-sweep`` (Algorithm 2, ``epsilon > 0``).

:func:`parse_request` normalizes and validates a request into the spec
dict the executor consumes; :func:`topology_key` derives the hashable
identity the daemon caches and publishes topologies by.
Validation errors raise :class:`RequestError` (HTTP 400), never leak a
traceback to a worker.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..core.fast_two_sweep import plain_sweep_route
from ..sim.scheduler import DEFAULT_MAX_ROUNDS

#: Version stamp carried by every response body this repo emits.
#: v2 (over v1): ``scale-run`` and daemon results carry ``peak_rss_kb``
#: (renamed from ``rss_kb``), a top-level ``nodes_per_s``, and a
#: ``colors_blake2b`` checksum of the final coloring.  Both compute it
#: with :func:`repro.serve.executor.colors_blake2b` (blake2b over
#: ``f"{node!r}={color}:"``, nodes in ``repr`` order), so one coloring
#: has one checksum.
#: v3 (over v2): drops ``algorithm.shards`` along with the sharded
#: engine, and algorithm specs reject fields their algorithm does not
#: read.
SCHEMA_VERSION = "repro-result/v3"

#: Node-count ceiling for a single request (the scale frontier's regime;
#: anything bigger should go through the offline ``repro scale`` path).
MAX_REQUEST_NODES = 2_000_000

#: Edge ceiling for inline / uploaded edge lists (JSON-transport bound).
MAX_REQUEST_EDGES = 5_000_000

#: Ceiling on a sweep request's list entries, ``n * p**2`` (the seeded
#: instance gives each node ``p**2`` colors): a million nodes at p = 2.
#: Building one costs about 2-4 us and 60 bytes an entry; p = 64 on
#: 2,000 nodes (8.2M entries) took 13.5 s and 494 MB.
MAX_REQUEST_LIST_ENTRIES = 4_000_000

TOPOLOGY_KINDS = (
    "ring-stream", "grid-stream", "tree-stream", "gnp-stream",
    "regular-stream", "gnp", "edges", "graph",
)

ALGORITHMS = ("greedy-reduction", "two-sweep", "fast-two-sweep")

_SWEEP_FIELDS = frozenset({"name", "p", "seed", "id_bits", "check", "lists"})

#: The fields each algorithm spec reads; :func:`parse_algorithm` rejects
#: any other key instead of silently running without it.
_ALGORITHM_FIELDS = {
    "greedy-reduction": frozenset({"name", "colors", "validate"}),
    "two-sweep": _SWEEP_FIELDS,
    "fast-two-sweep": _SWEEP_FIELDS | {"epsilon"},
}


class RequestError(ValueError):
    """A malformed or out-of-bounds request (HTTP 400, never a crash)."""


def envelope(kind: str, **sections: Any) -> Dict[str, Any]:
    """The shared result format: ``{"schema", "kind", **sections}``."""
    body: Dict[str, Any] = {"schema": SCHEMA_VERSION, "kind": kind}
    body.update(sections)
    return body


# ----------------------------------------------------------------------
# Validation helpers
# ----------------------------------------------------------------------
def _require_int(mapping: Dict[str, Any], field: str, minimum: int,
                 maximum: int, default: Optional[int] = None) -> int:
    value = mapping.get(field, default)
    if value is None:
        raise RequestError(f"missing required field {field!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{field!r} must be an integer")
    if not minimum <= value <= maximum:
        raise RequestError(
            f"{field!r} must lie in [{minimum}, {maximum}], got {value}"
        )
    return value


def _require_float(mapping: Dict[str, Any], field: str, minimum: float,
                   maximum: float, default: Optional[float] = None) -> float:
    value = mapping.get(field, default)
    if value is None:
        raise RequestError(f"missing required field {field!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"{field!r} must be a number")
    # Compared before the float conversion, which overflows on huge ints.
    if not minimum <= value <= maximum:
        raise RequestError(
            f"{field!r} must lie in [{minimum}, {maximum}], got {value}"
        )
    return float(value)


def edges_digest(n: int, edges: List[Tuple[int, int]]) -> str:
    """A stable identity for an edge *stream* (order included).

    Adjacency order is part of the simulation's identity -- the CSR fill
    appends endpoints in stream order -- so two permutations of the same
    edge set are deliberately *different* graphs here.
    """
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(str(n).encode("ascii"))
    for u, v in edges:
        hasher.update(f":{u},{v}".encode("ascii"))
    return hasher.hexdigest()


def parse_topology(spec: Any) -> Dict[str, Any]:
    """Normalize and validate a topology spec; returns a fresh dict."""
    if not isinstance(spec, dict):
        raise RequestError("'topology' must be an object")
    kind = spec.get("kind")
    if kind not in TOPOLOGY_KINDS:
        raise RequestError(
            f"unknown topology kind {kind!r}; expected one of "
            f"{', '.join(TOPOLOGY_KINDS)}"
        )
    out: Dict[str, Any] = {"kind": kind}
    if kind == "ring-stream":
        out["n"] = _require_int(spec, "n", 3, MAX_REQUEST_NODES)
    elif kind == "grid-stream":
        out["rows"] = _require_int(spec, "rows", 2, 4096)
        out["cols"] = _require_int(spec, "cols", 2, 4096)
    elif kind == "tree-stream":
        out["depth"] = _require_int(spec, "depth", 1, 20)
    elif kind == "gnp-stream":
        out["n"] = _require_int(spec, "n", 2, MAX_REQUEST_NODES)
        out["p"] = _require_float(spec, "p", 0.0, 1.0)
        out["seed"] = _require_int(spec, "seed", 0, 2 ** 31 - 1, default=0)
    elif kind == "regular-stream":
        out["n"] = _require_int(spec, "n", 3, MAX_REQUEST_NODES)
        out["degree"] = _require_int(spec, "degree", 1, 512)
        out["seed"] = _require_int(spec, "seed", 0, 2 ** 31 - 1, default=0)
        if out["n"] * out["degree"] % 2 != 0:
            raise RequestError("n * degree must be even for regular-stream")
        if out["degree"] >= out["n"]:
            raise RequestError("degree must be smaller than n")
    elif kind == "gnp":
        out["n"] = _require_int(spec, "n", 2, 4096)
        out["density"] = _require_float(spec, "density", 0.0, 1.0)
        out["seed"] = _require_int(spec, "seed", 0, 2 ** 31 - 1, default=0)
    elif kind == "edges":
        out["n"] = _require_int(spec, "n", 1, MAX_REQUEST_NODES)
        edges = spec.get("edges")
        if not isinstance(edges, list) or len(edges) > MAX_REQUEST_EDGES:
            raise RequestError(
                f"'edges' must be a list of [u, v] pairs "
                f"(at most {MAX_REQUEST_EDGES})"
            )
        clean: List[Tuple[int, int]] = []
        for pair in edges:
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or not all(isinstance(x, int) and not isinstance(x, bool)
                               for x in pair)):
                raise RequestError(f"malformed edge {pair!r}")
            u, v = pair
            if not (0 <= u < out["n"] and 0 <= v < out["n"]) or u == v:
                raise RequestError(f"edge {pair!r} out of bounds for n={out['n']}")
            clean.append((u, v))
        out["edges"] = clean
        out["id"] = edges_digest(out["n"], clean)
    else:  # kind == "graph"
        graph_id = spec.get("id")
        if not isinstance(graph_id, str) or not graph_id:
            raise RequestError("'graph' topology needs a string 'id'")
        out["id"] = graph_id
    return out


def require_sweep_rounds(q: int, what: str,
                         algorithm: Dict[str, Any]) -> None:
    """Raise :class:`RequestError` unless a sweep request over ``q``
    initial colors fits the round limit.

    Algorithm 1 sweeps the ``q`` colors twice, one round each, plus an
    opening round; past ``DEFAULT_MAX_ROUNDS`` the run could only end in
    RoundLimitExceeded.  ``two-sweep`` always runs it, ``fast-two-sweep``
    when it takes Algorithm 2's plain route (:func:`plain_sweep_route`).
    """
    if (algorithm["name"] == "fast-two-sweep"
            and not plain_sweep_route(q, algorithm["p"],
                                      algorithm["epsilon"])):
        return
    rounds = 2 * q + 1
    if rounds > DEFAULT_MAX_ROUNDS:
        raise RequestError(
            f"{what} needs {rounds} two-sweep rounds, over the "
            f"{DEFAULT_MAX_ROUNDS} round limit"
        )


def require_list_entries(n: int, p: int) -> None:
    """Raise :class:`RequestError` unless a sweep instance over ``n``
    nodes, ``p**2`` colors each, fits :data:`MAX_REQUEST_LIST_ENTRIES`."""
    if n * p * p > MAX_REQUEST_LIST_ENTRIES:
        raise RequestError(
            f"n * p^2 = {n} * {p}^2 = {n * p * p} list entries, over "
            f"the {MAX_REQUEST_LIST_ENTRIES} limit"
        )


def topology_nodes(topology: Dict[str, Any]) -> Optional[int]:
    """The node count a parsed topology spec states (``None`` for an
    uploaded ``graph`` handle, known only once it is resolved)."""
    kind = topology["kind"]
    if kind == "grid-stream":
        return topology["rows"] * topology["cols"]
    if kind == "tree-stream":
        return 2 ** (topology["depth"] + 1) - 1
    return topology.get("n")


def parse_algorithm(spec: Any) -> Dict[str, Any]:
    """Normalize and validate an algorithm spec; returns a fresh dict."""
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict):
        raise RequestError("'algorithm' must be an object or a name")
    name = spec.get("name")
    if name not in ALGORITHMS:
        raise RequestError(
            f"unknown algorithm {name!r}; expected one of "
            f"{', '.join(ALGORITHMS)}"
        )
    unknown = set(spec) - _ALGORITHM_FIELDS[name]
    if unknown:
        raise RequestError(f"unknown algorithm fields: {sorted(unknown)}")
    out: Dict[str, Any] = {"name": name}
    if name == "greedy-reduction":
        out["colors"] = _require_int(spec, "colors", 2, 1 << 20, default=16)
        out["validate"] = bool(spec.get("validate", True))
        return out
    out["p"] = _require_int(spec, "p", 1, 64, default=2)
    out["seed"] = _require_int(spec, "seed", 0, 2 ** 31 - 1, default=0)
    out["id_bits"] = _require_int(spec, "id_bits", 0, 62, default=0)
    out["check"] = bool(spec.get("check", True))
    lists = spec.get("lists", "random")
    if lists not in ("random", "stuck"):
        raise RequestError("'lists' must be 'random' or 'stuck'")
    out["lists"] = lists
    if name == "fast-two-sweep":
        out["epsilon"] = _require_float(spec, "epsilon", 1e-6, 1.0,
                                        default=0.25)
    require_sweep_rounds(2 ** out["id_bits"], f"id_bits={out['id_bits']}",
                         out)
    return out


def parse_request(body: Any) -> Dict[str, Any]:
    """Validate a ``POST /color`` body into the executor's spec dict."""
    if not isinstance(body, dict):
        raise RequestError("request body must be a JSON object")
    unknown = set(body) - {"topology", "algorithm", "include_colors",
                           "trace"}
    if unknown:
        raise RequestError(f"unknown request fields: {sorted(unknown)}")
    topology = parse_topology(body.get("topology"))
    algorithm = parse_algorithm(body.get("algorithm"))
    n = topology_nodes(topology)
    if algorithm["name"] != "greedy-reduction" and n is not None:
        # Uploaded graphs are checked once resolved (executor._run_sweep).
        require_list_entries(n, algorithm["p"])
        if not algorithm["id_bits"]:
            # Without id_bits the ids are 0..n-1, so q = n.
            require_sweep_rounds(n, f"q = n = {n} (no id_bits)", algorithm)
    return {
        "topology": topology,
        "algorithm": algorithm,
        "include_colors": bool(body.get("include_colors", False)),
        "trace": bool(body.get("trace", True)),
    }


def topology_key(topology: Dict[str, Any]) -> Hashable:
    """The hashable identity a topology is cached/published under.

    Named streamed families reuse the exact keys the
    :mod:`repro.graphs.streaming` builders intern under, so a daemon
    request and a ``repro scale`` run share one shm segment.
    """
    kind = topology["kind"]
    if kind == "ring-stream":
        return ("ring-stream", topology["n"])
    if kind == "grid-stream":
        return ("grid-stream", topology["rows"], topology["cols"])
    if kind == "tree-stream":
        return ("tree-stream", topology["depth"])
    if kind == "gnp-stream":
        return ("gnp-stream", topology["n"], topology["p"],
                topology["seed"])
    if kind == "regular-stream":
        return ("regular-stream", topology["n"], topology["degree"],
                topology["seed"])
    if kind == "gnp":
        return ("gnp", topology["n"], topology["density"],
                topology["seed"])
    return ("uploaded", topology["id"])

