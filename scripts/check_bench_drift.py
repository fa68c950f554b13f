#!/usr/bin/env python3
"""Hard-fail benchmark drift gate for CI.

Compares headline metrics between a committed benchmark report
(``BENCH_*.json``, or a committed smoke-scale baseline where the metric
depends on the workload size) and the smoke-sized rerun CI just
produced.  A metric landing below its floor prints a GitHub Actions
``::error`` annotation and the process exits 1, failing the build.

Two escape hatches keep shared-runner noise manageable:

* ``--warn-only`` restores the historical behaviour -- annotate with
  ``::warning`` and exit 0 regardless -- for branches where the gate is
  informational;
* ``--allowlist FILE`` names metric paths (one per line, ``#`` comments)
  whose regressions only warn.  Absolute throughputs on shared runners
  (``headline.nodes_per_s``) belong here; dimensionless ratios measured
  within one run (``headline.speedup``) do not, because both sides see
  the same machine.

Usage::

    python scripts/check_bench_drift.py \\
        benchmarks/results/BENCH_engine_smoke.json \\
        BENCH_engine_smoke.json \\
        --metric vectorized_headline.speedup:0.7 \\
        --metric "workloads[workload=linial_algebraic].vectorized_speedup" \\
        --allowlist scripts/bench_drift_allowlist.txt

Each ``--metric`` is a dotted path resolved in *both* reports, with an
optional ``:FACTOR`` floor (default 0.9 -- fail on a >10% slowdown).
A path segment may select a row from a list of objects with
``key[field=value]``.  A path missing from either report, or
unmeasured (``None``) in either, is a blocking failure like a
regression: a renamed or dropped metric must not turn the gate into a
silent no-op.  ``--warn-only`` and the allowlist downgrade it to a
warning, as they do a regression.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Any, FrozenSet

#: Default floor: fail when the smoke metric drops more than 10% below
#: the committed one.
DEFAULT_FACTOR = 0.9

_ROW_SELECTOR = re.compile(r"(\w+)\[(\w+)=([^\]]+)\]\Z")


def resolve(report: Any, path: str) -> Any:
    """Walk ``path`` into ``report``; raises KeyError when absent.

    Segments are dict keys, except ``key[field=value]`` which indexes
    into a list of objects by matching ``field`` (string-compared, so
    numeric literals work unquoted).
    """
    node = report
    for segment in path.split("."):
        selector = _ROW_SELECTOR.match(segment)
        if selector:
            key, field, value = selector.groups()
            rows = node[key]
            for row in rows:
                if str(row.get(field)) == value:
                    node = row
                    break
            else:
                raise KeyError(f"{key}[{field}={value}]")
        else:
            node = node[segment]
    return node


def load_allowlist(path: str) -> FrozenSet[str]:
    """Metric paths that only warn: one per line, ``#`` starts a comment."""
    entries = set()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            entry = line.split("#", 1)[0].strip()
            if entry:
                entries.add(entry)
    return frozenset(entries)


def check_metric(committed: Any, smoke: Any, spec: str, name: str,
                 warn_only: bool = False) -> bool:
    """Compare one metric spec; returns True on a blocking regression.

    ``warn_only`` (from ``--warn-only`` or an allowlist hit) downgrades
    the annotation to ``::warning`` and makes the return value False.
    """
    path, _, raw_factor = spec.partition(":")
    factor = float(raw_factor) if raw_factor else DEFAULT_FACTOR
    level = "warning" if warn_only else "error"
    values = {}
    for label, report in (("committed", committed), ("smoke", smoke)):
        try:
            values[label] = resolve(report, path)
        except (KeyError, IndexError, TypeError):
            print(f"::{level} title={name} drift::{path}: missing from "
                  f"{label} report")
            return not warn_only
        if values[label] is None:
            print(f"::{level} title={name} drift::{path}: unmeasured "
                  f"(None) in {label} report")
            return not warn_only
    want, got = values["committed"], values["smoke"]
    if got < factor * want:
        print(
            f"::{level} title={name} drift::{path}: smoke {got} vs "
            f"committed {want} (floor {factor}x)"
        )
        return not warn_only
    print(f"{path}: smoke {got} vs committed {want} "
          f"(floor {factor}x): ok")
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Committed-vs-smoke benchmark regression gate",
    )
    parser.add_argument("committed", help="committed full-scale report")
    parser.add_argument("smoke", help="freshly produced smoke report")
    parser.add_argument(
        "--metric", action="append", required=True,
        metavar="PATH[:FACTOR]",
        help="dotted metric path, optional regression floor "
             f"(default {DEFAULT_FACTOR} = fail on >10%% slowdown); "
             "repeatable",
    )
    parser.add_argument(
        "--name", default=None,
        help="benchmark name for annotation titles "
             "(default: committed filename)",
    )
    parser.add_argument(
        "--warn-only", action="store_true",
        help="annotate regressions as warnings and always exit 0 "
             "(the pre-gate behaviour)",
    )
    parser.add_argument(
        "--allowlist", default=None, metavar="FILE",
        help="file of metric paths (one per line, # comments) whose "
             "regressions warn instead of failing",
    )
    args = parser.parse_args(argv)
    with open(args.committed, encoding="utf-8") as handle:
        committed = json.load(handle)
    with open(args.smoke, encoding="utf-8") as handle:
        smoke = json.load(handle)
    allowlist = (load_allowlist(args.allowlist)
                 if args.allowlist else frozenset())
    name = args.name or args.committed
    failed = 0
    for spec in args.metric:
        path = spec.partition(":")[0]
        failed += check_metric(
            committed, smoke, spec, name,
            warn_only=args.warn_only or path in allowlist,
        )
    if failed:
        print(f"{failed} blocking failure(s) -- failing the build")
        return 1
    print("no blocking drift")
    return 0


if __name__ == "__main__":
    sys.exit(main())
