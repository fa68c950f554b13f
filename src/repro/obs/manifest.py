"""Run manifests: the provenance record written next to every trace.

A benchmark JSON or trace file without provenance answers *what* the
numbers were but not *under which conditions* -- engine, seeds,
``REPRO_SIM_*`` environment, cache and kernel counters, package and git
versions.  :func:`collect_manifest` gathers all of that into one
JSON-serializable dict (``kind: "manifest"``), written as the first line
of a JSONL trace, the ``metadata`` of a Chrome trace, or a
``*.manifest.json`` sidecar next to a ``BENCH_*.json``.

Everything here is best-effort and dependency-free: a missing git
binary, a non-repo working directory, or an import failure degrades to
``None`` fields, never to an exception -- provenance collection must not
be able to break the run it documents.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, Mapping, Optional

#: Environment prefixes captured into the manifest (the knobs that can
#: change what a run measures).
ENV_PREFIXES = ("REPRO_SIM_", "REPRO_PARALLEL")

#: Bumped when the manifest's key conventions change shape.
MANIFEST_VERSION = 1


def _git_state() -> Optional[Dict[str, Any]]:
    """``{"commit", "dirty"}`` for the current directory, or ``None``."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
        if commit.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=5,
        )
        return {
            "commit": commit.stdout.strip(),
            "dirty": bool(status.returncode == 0 and status.stdout.strip()),
        }
    except (OSError, subprocess.SubprocessError):
        return None


def _captured_env() -> Dict[str, str]:
    return {
        key: value
        for key, value in sorted(os.environ.items())
        if key.startswith(ENV_PREFIXES)
    }


def _kernel_counters() -> Optional[Dict[str, Any]]:
    try:
        from ..sim.kernels import kernel_stats

        return kernel_stats()
    except ImportError:  # pragma: no cover - sim always ships
        return None


def _arrays_state() -> Optional[Dict[str, Any]]:
    """Kernel array-backend provenance: enabled + NumPy version.

    ``{"enabled": False, "numpy": None}`` means the pure-Python columns
    ran (NumPy missing or ``REPRO_SIM_ARRAYS=0``); the ``kernels``
    section's ``by_backend`` counters say which kernels actually took
    the array path.
    """
    try:
        from ..sim import arrays

        return {
            "enabled": arrays.arrays_enabled(),
            "numpy": arrays.numpy_version(),
        }
    except ImportError:  # pragma: no cover - sim always ships
        return None


def peak_rss_kb(children: bool = False) -> Optional[int]:
    """Peak resident set size in KiB, or ``None`` where unmeasurable.

    ``resource.getrusage`` reports ``ru_maxrss`` in kilobytes on Linux
    and in bytes on macOS; this normalizes to KiB.  ``children=True``
    reports the high-water mark across reaped child processes (pool
    workers) instead of this process.  A *physical* quantity: it varies
    run to run and never participates in logical-stream comparisons.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    try:
        peak = resource.getrusage(who).ru_maxrss
    except (OSError, ValueError):  # pragma: no cover - defensive
        return None
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        peak //= 1024
    return int(peak)


def minor_faults() -> Optional[int]:
    """Minor page faults of this process so far (``ru_minflt``), or
    ``None`` where unmeasurable.  Process-wide: in a thread-mode pool it
    also counts whatever the other threads faulted in meanwhile.  A
    physical quantity, like :func:`peak_rss_kb`.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    try:
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    except (OSError, ValueError):  # pragma: no cover - defensive
        return None


def _rss_state() -> Optional[Dict[str, Any]]:
    """Peak RSS of this process and its reaped children, in KiB."""
    own = peak_rss_kb()
    if own is None:
        return None
    return {
        "max_rss_kb": own,
        "children_max_rss_kb": peak_rss_kb(children=True),
    }


def _metrics_state() -> Optional[Dict[str, Any]]:
    """The unified metrics registry's snapshot, or ``None`` if empty.

    An empty registry (nothing instrumented ran) is recorded as
    ``None`` rather than ``{}`` so manifests stay compact for runs that
    predate -- or never touch -- the metrics layer.
    """
    try:
        from .metrics import snapshot

        snap = snapshot()
        return snap or None
    except ImportError:  # pragma: no cover - obs always ships
        return None


def _cache_state() -> Optional[Dict[str, Any]]:
    try:
        from ..substrates import cache as substrate_cache

        return {"counters": substrate_cache.cache_counters()}
    except ImportError:  # pragma: no cover - substrates always ship
        return None


def collect_manifest(engine: Optional[str] = None,
                     seeds: Optional[Mapping[str, Any]] = None,
                     ledger: Optional[Any] = None,
                     argv: Optional[Any] = None,
                     extra: Optional[Mapping[str, Any]] = None
                     ) -> Dict[str, Any]:
    """Gather the provenance of the current process into one dict.

    ``engine`` defaults to the scheduler's resolved default;  ``seeds``
    is whatever parameter mapping the caller wants recorded verbatim;
    ``ledger`` (a :class:`~repro.sim.metrics.CostLedger`) contributes its
    :meth:`~repro.sim.metrics.CostLedger.to_dict` as the run's logical
    cost record; ``extra`` keys are merged last and win.
    """
    if engine is None:
        try:
            from ..sim.scheduler import default_engine

            engine = default_engine()
        except ImportError:  # pragma: no cover - sim always ships
            engine = None
    try:
        from .. import __version__ as version
    except ImportError:  # pragma: no cover - package always importable
        version = None
    manifest: Dict[str, Any] = {
        "kind": "manifest",
        "manifest_version": MANIFEST_VERSION,
        "tool": "repro",
        "version": version,
        "created_unix_s": time.time(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "pid": os.getpid(),
        "argv": list(argv) if argv is not None else list(sys.argv),
        "engine": engine,
        "seeds": dict(seeds) if seeds is not None else None,
        "env": _captured_env(),
        "git": _git_state(),
        "kernels": _kernel_counters(),
        "arrays": _arrays_state(),
        "caches": _cache_state(),
        "rss": _rss_state(),
        "metrics": _metrics_state(),
        "ledger": ledger.to_dict() if ledger is not None else None,
    }
    if extra:
        manifest.update(extra)
    return manifest
