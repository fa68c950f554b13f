"""Serving benchmark: warm daemon throughput vs cold per-request CLI.

The daemon's reason to exist is amortization: worker spawn, imports,
schedule memos, and topology builds are paid once per *process*
instead of once per *request*.  This benchmark quantifies that on a
mixed workload (two topology families x greedy reduction + the sweep
algorithms, interleaved from concurrent keep-alive clients):

* **warm** -- one process-mode :class:`~repro.serve.ColoringServer`
  hosted in-process; the full request multiset is driven through HTTP
  by concurrent clients.  Reports end-to-end wall, sustained req/s, and
  the server's own rolling p50/p99 latency.
* **cold** -- the same request specs executed by fresh
  ``python -c 'execute_request(...)'`` subprocesses, one per request:
  exactly the work a per-request CLI invocation pays (interpreter boot,
  imports, topology build, solve).  Each distinct request body is
  measured ``COLD_PROBES`` times and the full-multiset cold wall is
  extrapolated (measuring all of it would take minutes and add no
  information); the report records both the measured sample and the
  extrapolation.
* **bit-identity** -- every warm response is compared against a serial
  in-process :func:`~repro.serve.executor.execute_request` of the same
  spec: coloring checksum, cost ledger, and canonical logical trace
  must all match byte for byte.  The daemon must be a *faster* way to
  run the same computation, not a different computation.

The headline is ``cold_wall / warm_wall`` for the same request
multiset -- the acceptance floor is 5x.

Results go to ``BENCH_serve.json`` at the repository root (with a
run-manifest sidecar) and ``benchmarks/results/BENCH_serve.txt``::

    PYTHONPATH=src python benchmarks/bench_serve.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import threading
import time
from typing import Dict, List

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from repro.obs.tracer import canonical_lines
from repro.serve import (
    ColoringServer,
    ServeClient,
    ServerHandle,
    execute_request,
    parse_request,
)

from _util import emit, write_manifest_sidecar

REPO_ROOT = pathlib.Path(__file__).parent.parent
JSON_PATH = REPO_ROOT / "BENCH_serve.json"

#: The mixed workload: two topology families x two algorithm classes.
#: Sizes are chosen so a warm request is milliseconds while the cold
#: baseline is dominated by genuine per-invocation overhead, matching
#: the interactive-request regime the daemon targets.
def _workload(smoke: bool) -> List[Dict]:
    ring_n = 2_000 if smoke else 2_500
    gnp_n = 500 if smoke else 800
    sweep_n = 24 if smoke else 48
    fast_ring = 64 if smoke else 96
    return [
        {"label": "ring-greedy",
         "body": {"topology": {"kind": "ring-stream", "n": ring_n},
                  "algorithm": {"name": "greedy-reduction"}}},
        {"label": "gnp-greedy",
         "body": {"topology": {"kind": "gnp-stream", "n": gnp_n,
                               "p": 4.0 / gnp_n, "seed": 7},
                  "algorithm": {"name": "greedy-reduction"}}},
        {"label": "gnp-two-sweep",
         "body": {"topology": {"kind": "gnp", "n": sweep_n,
                               "density": 0.12, "seed": 5},
                  "algorithm": {"name": "two-sweep", "p": 2,
                                "seed": 3}}},
        {"label": "ring-fast-sweep",
         "body": {"topology": {"kind": "ring-stream", "n": fast_ring},
                  "algorithm": {"name": "fast-two-sweep", "p": 2,
                                "seed": 3, "epsilon": 0.25}}},
    ]


#: Warm repetitions of the workload mix and concurrent client count.
#: Enough repeats that first-touch topology builds (one per worker per
#: family) amortize the way they do in a long-lived daemon.
REPEATS = 12
SMOKE_REPEATS = 2
CLIENTS = 4

#: Cold invocations measured per distinct request body.
COLD_PROBES = 2
SMOKE_COLD_PROBES = 1

_COLD_SNIPPET = (
    "import json, sys\n"
    "from repro.serve.executor import execute_request\n"
    "from repro.serve.schema import parse_request\n"
    "payload = execute_request(parse_request(json.load(sys.stdin)))\n"
    "json.dump({'status': payload['status'],\n"
    "           'checksum': payload['result'].get('colors_blake2b')\n"
    "           if payload['status'] == 'ok' else None}, sys.stdout)\n"
)


def _run_cold(body: Dict) -> Dict:
    """One cold request: fresh interpreter, fresh caches, same spec."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_SNIPPET],
        input=json.dumps(body), capture_output=True, text=True,
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"},
        timeout=600,
    )
    wall_s = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["status"] == "ok", result
    return {"wall_s": wall_s, "checksum": result["checksum"]}


def _bench_cold(workload: List[Dict], probes: int) -> Dict:
    per_label = {}
    for case in workload:
        walls = [_run_cold(case["body"])["wall_s"] for _ in range(probes)]
        per_label[case["label"]] = {
            "mean_s": round(sum(walls) / len(walls), 4),
            "invocations": probes,
        }
    mix_wall = sum(row["mean_s"] for row in per_label.values())
    return {
        "per_request": per_label,
        "mix_wall_s": round(mix_wall, 4),
        "invocations_measured": probes * len(workload),
    }


def _bench_warm(workload: List[Dict], repeats: int) -> Dict:
    boot_start = time.perf_counter()
    server = ColoringServer(mode="process", workers=CLIENTS)
    with ServerHandle(server) as handle:
        boot_s = time.perf_counter() - boot_start
        references = {
            case["label"]: execute_request(parse_request(case["body"]))
            for case in workload
        }
        results: Dict = {}
        errors: List[str] = []

        def drive(worker: int) -> None:
            with ServeClient(handle.host, handle.port) as conn:
                for step in range(len(workload) * repeats // CLIENTS):
                    case = workload[(worker + step) % len(workload)]
                    status, payload = conn.color(case["body"])
                    if status != 200:
                        errors.append(f"{case['label']}: HTTP {status}")
                        continue
                    results[(worker, step)] = (case["label"], payload)

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - start
        assert not errors, errors

        identical = 0
        for label, payload in results.values():
            reference = references[label]
            assert payload["result"]["colors_blake2b"] == \
                reference["result"]["colors_blake2b"], label
            assert payload["ledger"] == reference["ledger"], label
            assert canonical_lines(payload["trace"]) == \
                canonical_lines(reference["trace"]), label
            identical += 1

        with ServeClient(handle.host, handle.port) as conn:
            stats = conn.stats()
    requests = len(results)
    return {
        "mode": stats["pool"]["mode"],
        "workers": stats["pool"]["workers"],
        "engine": stats["pool"]["engine"],
        "boot_s": round(boot_s, 4),
        "requests": requests,
        "clients": CLIENTS,
        "wall_s": round(wall_s, 4),
        "req_per_s": round(requests / wall_s, 2) if wall_s > 0 else None,
        "p50_ms": stats["latency_ms"]["p50"],
        "p99_ms": stats["latency_ms"]["p99"],
        "pool_restarts": stats["pool"]["restarts"],
        "bit_identity": {"checked": identical, "identical": True},
    }


def run_benchmark(smoke: bool = False) -> Dict:
    workload = _workload(smoke)
    repeats = SMOKE_REPEATS if smoke else REPEATS
    probes = SMOKE_COLD_PROBES if smoke else COLD_PROBES
    warm = _bench_warm(workload, repeats)
    cold = _bench_cold(workload, probes)
    # The warm side served `requests` requests; the cold side measured
    # one mix and is extrapolated to the same multiset.
    mixes_served = warm["requests"] / len(workload)
    cold_total = cold["mix_wall_s"] * mixes_served
    speedup = cold_total / warm["wall_s"] if warm["wall_s"] > 0 else None
    return {
        "benchmark": "bench_serve",
        "smoke": smoke,
        "workload": [
            {"label": case["label"],
             "topology": case["body"]["topology"]["kind"],
             "algorithm": case["body"]["algorithm"]["name"]}
            for case in workload
        ],
        "warm": warm,
        "cold": {**cold,
                 "extrapolated_total_s": round(cold_total, 4),
                 "extrapolated_for_requests": warm["requests"]},
        "headline": {
            "speedup": round(speedup, 2) if speedup else None,
            "warm_req_per_s": warm["req_per_s"],
            "p50_ms": warm["p50_ms"],
            "p99_ms": warm["p99_ms"],
        },
    }


def _render(report: Dict) -> str:
    warm = report["warm"]
    cold = report["cold"]
    head = report["headline"]
    lines = [
        f"BENCH_serve (smoke={report['smoke']})",
        f"workload: {', '.join(w['label'] for w in report['workload'])}"
        f" x{warm['requests'] // len(report['workload'])}"
        f" from {warm['clients']} keep-alive clients",
        f"warm daemon ({warm['mode']}, {warm['workers']} workers, "
        f"engine={warm['engine']}, boot {warm['boot_s']:.2f}s): "
        f"{warm['requests']} requests in {warm['wall_s']:.3f}s = "
        f"{warm['req_per_s']:,} req/s",
        f"  latency p50 {warm['p50_ms']:.1f} ms, p99 "
        f"{warm['p99_ms']:.1f} ms",
        f"  bit-identity vs serial reference: "
        f"{warm['bit_identity']['checked']} responses, all identical",
        f"cold per-request invocations "
        f"({cold['invocations_measured']} measured): mix of "
        f"{len(report['workload'])} requests = {cold['mix_wall_s']:.3f}s"
        f" -> {cold['extrapolated_total_s']:.2f}s for "
        f"{cold['extrapolated_for_requests']} requests",
    ]
    for label, row in cold["per_request"].items():
        lines.append(f"  cold {label:<16} {row['mean_s']:.3f}s/request")
    lines.append(
        f"headline: warm pool is {head['speedup']:.1f}x the cold "
        f"per-request path end to end"
    )
    return "\n".join(lines)


def write_report(report: Dict, json_path: pathlib.Path = JSON_PATH) -> None:
    json_path.write_text(json.dumps(report, indent=2) + "\n")
    emit("BENCH_serve", _render(report))
    print(f"wrote {json_path}")
    write_manifest_sidecar(json_path, extra={
        "benchmark": report["benchmark"],
        "smoke": report["smoke"],
        "headline": report["headline"],
    })


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def test_serve_benchmark():
    """Pytest entry: smoke-scale run with sanity assertions."""
    report = run_benchmark(smoke=True)
    assert report["warm"]["bit_identity"]["identical"] is True
    assert report["headline"]["speedup"] > 1.0
    assert report["warm"]["req_per_s"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI sanity runs")
    parser.add_argument("--out", default=str(JSON_PATH),
                        help="path for the JSON report")
    args = parser.parse_args(argv)
    report = run_benchmark(smoke=args.smoke)
    write_report(report, pathlib.Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
