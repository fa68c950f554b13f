"""Engine microbenchmark: the vectorized scheduler path vs reference.

Fixed scheduler-stress workloads on the three topology families the
experiment suite leans on (G(n,p), trees, cliques), each run through the
two execution engines of :class:`repro.sim.Scheduler`:

* ``gnp_stragglers`` -- 2,000-node G(n,p) where most nodes halt within a
  few rounds and a handful run for hundreds: the regime that punishes the
  reference engine's per-round full-node scans and dict rebuilds;
* ``gnp_greedy_sweep`` -- the repository's real greedy arbdefective
  sweep (one color class decides per round), the paper's canonical
  protocol shape;
* ``tree_flood`` -- repeated flooding on a binary tree: every node stays
  active and chatty, measuring per-message overhead (bit accounting,
  bandwidth hooks);
* ``clique_exchange`` -- all-to-all broadcast on a clique: the densest
  message pattern per round;
* ``linial_algebraic`` -- the repository's real Linial coloring on a
  G(n,p), exercising the algebraic recoloring substrate (and its
  schedule and family memos) end to end;
* ``star_fanout`` -- flooding on a star: one node broadcasts to n-1
  neighbors every round, the worst case for per-copy delivery overhead
  and the best case for shared broadcast envelopes;
* ``two_sweep`` -- the paper's Algorithm 1 (Theorem 1.1, eps = 0) at
  E1's density with q = n color classes: one class acts per round, the
  regime where per-node dispatch dominates and the Two-Sweep kernel
  touches only the acting class;
* ``fast_two_sweep`` -- Algorithm 2 end to end (Lemma 3.4 defective
  coloring + inner sweep) with 40-bit identifiers, the E2 regime.

The synthetic stress programs come with *bench-local*
:class:`~repro.sim.kernels.RoundKernel` registrations (the registry is
open to any homogeneous program, not just the library substrates), so
every workload here exercises the vectorized engine for real; the
substrate workloads (``gnp_greedy_sweep``, ``linial_algebraic``) hit the
library kernels shipped next to their programs.

Per (workload, engine) the harness reports the *best* of ``REPEATS``
interleaved runs (the usual low-noise estimator) together with the
population stddev of the repeats, so a noisy box is visible in the data
instead of silently inflating a speedup.

Every run's (rounds, messages, bits) fingerprint is compared across
engines, so the benchmark doubles as an end-to-end equivalence check.
Results go to ``BENCH_engine.json`` at the repository root (uploaded as a
CI artifact) and to ``benchmarks/results/BENCH_engine.txt``.

Run directly for the full sizes, or with ``--smoke`` for a seconds-long
sanity pass::

    PYTHONPATH=src python benchmarks/bench_engine.py [--smoke]
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import platform
import statistics
import sys
import time
from typing import Dict, List, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from repro.coloring import random_arbdefective_instance, random_oldc_instance
from repro.core import fast_two_sweep, two_sweep
from repro.graphs import (
    generators,
    orient_by_id,
    random_ids,
    sequential_ids,
)
from repro.sim import (
    CostLedger,
    KernelRound,
    Network,
    NodeProgram,
    RoundKernel,
    register_kernel,
    use_engine,
)
from repro.sim.kernels import ColumnInputs, fanout_totals
from repro.sim.scheduler import run_columns
from repro.substrates import greedy_arbdefective_sweep, linial_coloring

from _util import emit, write_manifest_sidecar

# Each topology is built once per argument tuple and shared by every
# engine and repeat of its workload, so the timings measure the engines
# rather than the generators (a G(2000, p) build alone takes longer than
# a vectorized run on it).
binary_tree, complete_graph, gnp_graph, star_graph = (
    functools.lru_cache(maxsize=None)(generator)
    for generator in (generators.binary_tree, generators.complete_graph,
                      generators.gnp_graph, generators.star_graph)
)

REPO_ROOT = pathlib.Path(__file__).parent.parent
JSON_PATH = REPO_ROOT / "BENCH_engine.json"

#: Wall-clock repetitions per (workload, engine); the median is reported.
REPEATS = 3

#: The workload whose (reference / vectorized) speedup is the tracked
#: headline.
VECTOR_HEADLINE = "tree_flood"

#: The engines timed on every workload; the first is the oracle.
ENGINES = ("reference", "vectorized")


def _arrays_backend() -> Dict:
    """Which kernel column backend the vectorized runs used."""
    from repro.sim import arrays

    return {
        "backend": arrays.backend_name(),
        "numpy": arrays.numpy_version(),
    }


# ----------------------------------------------------------------------
# Synthetic scheduler-stress programs
# ----------------------------------------------------------------------
class _Straggler(NodeProgram):
    """Chat for two rounds, then halt after ``lifetime`` rounds total."""

    def __init__(self, node, lifetime: int):
        self.node = node
        self.lifetime = lifetime
        self.seen = 0

    def on_round(self, ctx):
        self.seen += 1
        if ctx.round_number <= 2:
            ctx.broadcast("warm", self.node, bits=16)
        if self.seen >= self.lifetime:
            ctx.halt()

    def output(self):
        return self.seen


class _Flooder(NodeProgram):
    """Broadcast a counter every round for ``rounds`` rounds."""

    def __init__(self, node, rounds: int):
        self.node = node
        self.rounds = rounds
        self.heard = 0

    def on_round(self, ctx):
        self.heard += len(ctx.inbox)
        if ctx.round_number > self.rounds:
            ctx.halt()
            return
        ctx.broadcast("flood", ctx.round_number, bits=24)

    def output(self):
        return self.heard


# ----------------------------------------------------------------------
# Bench-local vectorized kernels
#
# Both stress programs are pure broadcast clocks: their entire round
# behavior is a function of the round number and the topology, so the
# kernels reduce each round to a handful of precomputed totals.  They
# run from columns (``lifetimes`` / ``rounds``) and decline CONGEST
# runs (the bench only measures LOCAL; the scheduler falls back to the
# reference engine, which is exact under any model) -- registering them
# here also demonstrates that the kernel registry is open to program
# classes outside the library substrates.
# ----------------------------------------------------------------------
class _StragglerKernel(RoundKernel):
    """Stragglers broadcast in rounds 1-2 and halt on a fixed schedule."""

    def prepare(self, compiled, inputs, bandwidth):
        from repro.sim import LocalModel

        if type(bandwidth) is not LocalModel:
            return None
        lifetimes = inputs.data["lifetimes"]
        degrees = compiled.degrees
        total_copies, envelopes = fanout_totals(compiled)
        copies_r2 = 0
        envelopes_r2 = 0
        halts: Dict[int, int] = {}
        for i, lifetime in enumerate(lifetimes):
            halt_round = max(1, lifetime)
            halts[halt_round] = halts.get(halt_round, 0) + 1
            if halt_round >= 2 and degrees[i]:
                copies_r2 += degrees[i]
                envelopes_r2 += 1
        return {
            "lifetimes": lifetimes,
            "halts": halts,
            "remaining": len(lifetimes),
            "round1": (total_copies, envelopes),
            "round2": (copies_r2, envelopes_r2),
        }

    def step(self, round_number, columns, inboxes) -> KernelRound:
        remaining = columns["remaining"] - columns["halts"].get(
            round_number, 0
        )
        columns["remaining"] = remaining
        if round_number <= 2:
            copies, envelopes = columns["round1" if round_number == 1
                                        else "round2"]
            return KernelRound(
                active=remaining,
                messages=copies,
                bits=copies * 16,
                max_message_bits=16 if copies else 0,
                broadcasts=envelopes,
            )
        return KernelRound(active=remaining)

    def finalize(self, columns, inputs) -> None:
        inputs.outputs = [max(1, lifetime)
                          for lifetime in columns["lifetimes"]]


class _FlooderKernel(RoundKernel):
    """Flooders broadcast every round until a shared cutoff, then halt."""

    def prepare(self, compiled, inputs, bandwidth):
        from repro.sim import LocalModel

        if type(bandwidth) is not LocalModel:
            return None
        total_copies, envelopes = fanout_totals(compiled)
        return {
            "rounds": inputs.data["rounds"],
            "n": compiled.n,
            "degrees": compiled.degrees,
            "total_copies": total_copies,
            "envelopes": envelopes,
        }

    def step(self, round_number, columns, inboxes) -> KernelRound:
        if round_number > columns["rounds"]:
            return KernelRound(active=0)
        copies = columns["total_copies"]
        return KernelRound(
            active=columns["n"],
            messages=copies,
            bits=copies * 24,
            max_message_bits=24 if copies else 0,
            broadcasts=columns["envelopes"],
        )

    def finalize(self, columns, inputs) -> None:
        # Every neighbor broadcast in rounds 1..R; node v ingested one
        # copy per neighbor per round in rounds 2..R+1.
        rounds = columns["rounds"]
        inputs.outputs = [rounds * degree for degree in columns["degrees"]]


register_kernel(_Straggler, _StragglerKernel)
register_kernel(_Flooder, _FlooderKernel)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _run_columns(network: Network, program_class, data, build, engine: str):
    """Run a stress population from its columns; ``build(node, i)``
    makes node ``i``'s program when the run leaves the kernel."""
    order = network.compile().order
    inputs = ColumnInputs(program_class, data, lambda: {
        node: build(node, i) for i, node in enumerate(order)
    })
    outputs, ledger = run_columns(network, inputs, engine=engine)
    return dict(zip(order, outputs)), ledger, network


def workload_gnp_stragglers(n: int, engine: str):
    network = gnp_graph(n, 8.0 / n, seed=11)
    long_life = max(50, n // 2)
    stride = max(1, n // 16)
    lifetimes = [long_life if i % stride == 0 else 2 + (i % 8)
                 for i in range(len(network))]
    return _run_columns(network, _Straggler, {"lifetimes": lifetimes},
                        lambda node, i: _Straggler(node, lifetimes[i]),
                        engine)


def _run_flood(network: Network, rounds: int, engine: str):
    return _run_columns(network, _Flooder, {"rounds": rounds},
                        lambda node, i: _Flooder(node, rounds), engine)


def workload_gnp_greedy_sweep(n: int, engine: str):
    network = gnp_graph(n, 6.0 / n, seed=13)
    instance = random_arbdefective_instance(
        network, slack=1.5, seed=13,
        color_space_size=max(8, network.raw_max_degree() + 2),
    )
    ledger = CostLedger()
    with use_engine(engine):
        result = greedy_arbdefective_sweep(
            instance, sequential_ids(network), len(network), ledger=ledger
        )
    return result.colors, ledger, network


def workload_tree_flood(n: int, engine: str):
    depth = max(2, n.bit_length() - 1)
    network = binary_tree(depth)
    rounds = max(20, min(200, n // 8))
    return _run_flood(network, rounds, engine)


def workload_clique_exchange(n: int, engine: str):
    size = max(8, int(n ** 0.5) * 4)
    network = complete_graph(size)
    rounds = max(10, n // 40)
    return _run_flood(network, rounds, engine)


def workload_linial_algebraic(n: int, engine: str):
    # Linial needs q >> Delta^2 to make progress, so run it where it
    # belongs: a bounded-degree graph colored by unique ids.  One pass is
    # only O(log* q) rounds, so repeat it -- which is also exactly the
    # shape the schedule and polynomial-family memos serve.
    network = binary_tree(max(3, n.bit_length() - 1))
    ids = sequential_ids(network)
    reps = max(3, n // 100)
    ledger = CostLedger()
    with use_engine(engine):
        for _ in range(reps):
            colors, _ = linial_coloring(
                network, ids, len(network), ledger=ledger
            )
    return colors, ledger, network


def workload_star_fanout(n: int, engine: str):
    network = star_graph(max(7, n - 1))
    rounds = max(20, min(400, n // 4))
    return _run_flood(network, rounds, engine)


def workload_two_sweep(n: int, engine: str):
    # The paper's Algorithm 1 at E1's density, scaled up: q = n color
    # classes, 2q + 1 rounds, at most one class acting per round -- the
    # exact shape where per-node dispatch costs O(n) no-ops per round
    # and the Two-Sweep kernel touches only the acting class.
    network = gnp_graph(n, min(0.9, 6.0 / n), seed=17)
    graph = orient_by_id(network)
    instance = random_oldc_instance(graph, p=3, seed=17)
    ids = sequential_ids(network)
    ledger = CostLedger()
    with use_engine(engine):
        result = two_sweep(
            instance, ids, len(network), 3, ledger=ledger, check=False
        )
    return result.colors, ledger, network


def workload_fast_two_sweep(n: int, engine: str):
    # Algorithm 2 end to end (Lemma 3.4 defective coloring + inner
    # sweep) with 40-bit identifiers, the E2 regime: rounds are O((p /
    # eps)^2 + log* q), so the per-round cost is all that scales with n.
    network = gnp_graph(n, 6.0 / n, seed=19)
    graph = orient_by_id(network)
    instance = random_oldc_instance(graph, p=2, seed=19, epsilon=0.5)
    ids = random_ids(network, seed=19, bits=40)
    ledger = CostLedger()
    with use_engine(engine):
        result = fast_two_sweep(
            instance, ids, 2 ** 40, 2, 0.5, ledger=ledger, check=False
        )
    return result.colors, ledger, network


WORKLOADS = [
    ("gnp_stragglers", workload_gnp_stragglers),
    ("gnp_greedy_sweep", workload_gnp_greedy_sweep),
    ("tree_flood", workload_tree_flood),
    ("clique_exchange", workload_clique_exchange),
    ("linial_algebraic", workload_linial_algebraic),
    ("star_fanout", workload_star_fanout),
    ("two_sweep", workload_two_sweep),
    ("fast_two_sweep", workload_fast_two_sweep),
]


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _time_once(factory, n: int, engine: str):
    start = time.perf_counter()
    out, ledger, network = factory(n, engine)
    elapsed = time.perf_counter() - start
    fingerprint = (ledger.rounds, ledger.messages, ledger.bits,
                   ledger.max_message_bits)
    return elapsed, fingerprint, out, network


def run_benchmark(n: int, smoke: bool) -> Dict:
    rows: List[Dict] = []
    for name, factory in WORKLOADS:
        # Interleave the engines so clock drift hits both equally;
        # best-of-REPEATS per engine, stddev reported alongside.
        times: Dict[str, List[float]] = {engine: [] for engine in ENGINES}
        fingerprints: Dict[str, Tuple] = {}
        outputs: Dict[str, Dict] = {}
        for _ in range(REPEATS):
            for engine in ENGINES:
                elapsed, fingerprint, out, network = _time_once(
                    factory, n, engine
                )
                times[engine].append(elapsed)
                fingerprints[engine] = fingerprint
                outputs[engine] = out
        if (fingerprints["vectorized"] != fingerprints["reference"]
                or outputs["vectorized"] != outputs["reference"]):
            raise AssertionError(
                f"engine mismatch on {name}: reference "
                f"{fingerprints['reference']} vs vectorized "
                f"{fingerprints['vectorized']}"
            )
        ref_s = min(times["reference"])
        vec_s = min(times["vectorized"])
        rows.append({
            "workload": name,
            "n": len(network),
            "m": network.edge_count(),
            "rounds": fingerprints["reference"][0],
            "messages": fingerprints["reference"][1],
            "bits": fingerprints["reference"][2],
            "reference_s": round(ref_s, 6),
            "reference_stddev_s": round(
                statistics.pstdev(times["reference"]), 6
            ),
            "vectorized_s": round(vec_s, 6),
            "vectorized_stddev_s": round(
                statistics.pstdev(times["vectorized"]), 6
            ),
            "vectorized_speedup": (
                round(ref_s / vec_s, 3) if vec_s > 0 else None
            ),
        })
    vec_headline = next(
        row for row in rows if row["workload"] == VECTOR_HEADLINE
    )
    return {
        "benchmark": "bench_engine",
        "description": ("reference vs vectorized scheduler engine, "
                        "fixed workloads"),
        "smoke": smoke,
        "workload_scale_n": n,
        "python": platform.python_version(),
        "arrays_backend": _arrays_backend(),
        "repeats": REPEATS,
        "vectorized_headline": {
            "workload": VECTOR_HEADLINE,
            "speedup": vec_headline["vectorized_speedup"],
        },
        "workloads": rows,
    }


def _render(report: Dict) -> str:
    lines = [
        "BENCH_engine: vectorized scheduler engine vs reference "
        f"(scale n={report['workload_scale_n']}, smoke={report['smoke']}, "
        f"best of {report['repeats']} with stddev)",
        f"{'workload':<18} {'n':>6} {'m':>8} {'rounds':>7} "
        f"{'messages':>10} {'ref_s':>9} {'vec_s':>9} {'vec':>8}",
    ]
    for row in report["workloads"]:
        lines.append(
            f"{row['workload']:<18} {row['n']:>6} {row['m']:>8} "
            f"{row['rounds']:>7} {row['messages']:>10} "
            f"{row['reference_s']:>9.4f} {row['vectorized_s']:>9.4f} "
            f"{row['vectorized_speedup']:>7.2f}x"
        )
    lines.append(
        f"headline ({report['vectorized_headline']['workload']}): "
        f"{report['vectorized_headline']['speedup']:.2f}x vectorized "
        "vs reference"
    )
    return "\n".join(lines)


def write_report(report: Dict, json_path: pathlib.Path = JSON_PATH) -> None:
    json_path.write_text(json.dumps(report, indent=2) + "\n")
    emit("BENCH_engine", _render(report))
    print(f"wrote {json_path}")
    write_manifest_sidecar(json_path, extra={
        "benchmark": report["benchmark"],
        "smoke": report["smoke"],
        "workload_scale_n": report["workload_scale_n"],
        "vectorized_headline": report["vectorized_headline"],
    })


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def test_engine_benchmark(benchmark):
    """Pytest entry: smoke-scale run + fingerprint equivalence."""
    report = run_benchmark(n=400, smoke=True)
    for row in report["workloads"]:
        # The vectorized path may not lose badly; full-scale wins are
        # tracked in BENCH_engine.json, not asserted here (CI noise).
        assert row["vectorized_speedup"] > 0.5
    benchmark(workload_gnp_stragglers, 400, "vectorized")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI sanity runs")
    parser.add_argument("--n", type=int, default=None,
                        help="override the workload scale")
    parser.add_argument("--out", default=str(JSON_PATH),
                        help="path for the JSON report")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record a structured JSONL trace of every "
                             "benchmarked run (inspect with 'python -m "
                             "repro trace PATH')")
    args = parser.parse_args(argv)
    n = args.n if args.n is not None else (300 if args.smoke else 2000)
    if args.trace is not None:
        from repro.obs import Tracer, collect_manifest, use_tracer, write_jsonl

        tracer = Tracer()
        with use_tracer(tracer):
            report = run_benchmark(n=n, smoke=args.smoke)
        write_jsonl(args.trace, tracer.events, collect_manifest(
            argv=sys.argv[1:],
            extra={"benchmark": report["benchmark"], "smoke": args.smoke},
        ))
        print(f"trace written to {args.trace} "
              f"({len(tracer.events)} records)")
    else:
        report = run_benchmark(n=n, smoke=args.smoke)
    write_report(report, pathlib.Path(args.out))
    print(_render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
