"""Command-line interface: ``python -m repro <command> ...``.

Thin wrappers over the library for the common "show me it working"
flows -- each command builds a workload, runs an algorithm, validates the
output, and prints the resource table.  Everything is seeded, so every
invocation is reproducible.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .analysis import render_table
from .coloring import check_oldc, check_proper_coloring, random_oldc_instance
from .core import (
    delta_plus_one_coloring,
    linial_reduction_baseline,
    solve_oldc_auto,
    theta_delta_plus_one_coloring,
    two_sweep,
)
from .graphs import (
    edge_coloring_from_line_coloring,
    gnp_graph,
    is_proper_edge_coloring,
    line_graph_of_network,
    neighborhood_independence,
    orient_by_id,
    random_bounded_degree_graph,
    random_ids,
    sequential_ids,
)
from .sim import CostLedger
from .substrates import randomized_delta_plus_one

#: Ledger of the most recent command, remembered so a ``--trace`` run can
#: embed the full per-phase cost record in its manifest.
_last_ledger: Optional[CostLedger] = None

#: Human-readable glosses for the vectorized engine's fallback reasons,
#: printed under ``--kernel-stats`` so the cost of each feature is visible.
_FALLBACK_NOTES = {
    "observer": "a RoundObserver pins runs to the reference engine "
                "(use --trace for kernel-preserving telemetry)",
    "stop_when": "a stop oracle needs per-node, per-round inspection",
    "programs": "the protocol runs node programs; kernels run only "
                "from columns",
    "empty": "the scheduler had no nodes to batch",
    "unregistered": "no kernel is registered for this program class",
    "declined": "the kernel's prepare() declined this population",
}


def _print_ledger(ledger: CostLedger, extra_rows=()) -> None:
    global _last_ledger
    _last_ledger = ledger
    rows = [
        ["rounds", ledger.rounds],
        ["messages", ledger.messages],
        ["max message bits", ledger.max_message_bits],
    ]
    rows.extend(extra_rows)
    print(render_table(["quantity", "value"], rows))


def cmd_two_sweep(args: argparse.Namespace) -> int:
    network = gnp_graph(args.n, args.density, seed=args.seed)
    graph = orient_by_id(network)
    instance = random_oldc_instance(
        graph, p=args.p, seed=args.seed, epsilon=args.epsilon
    )
    if args.id_bits > 0:
        ids = random_ids(network, seed=args.seed, bits=args.id_bits)
        q = 2 ** args.id_bits
    else:
        ids = sequential_ids(network)
        q = args.n
    ledger = CostLedger()
    if args.auto:
        result = solve_oldc_auto(instance, ids, q, ledger=ledger)
        print(f"auto plan: {result.stats}")
    elif args.epsilon > 0.0:
        from .core import fast_two_sweep

        result = fast_two_sweep(
            instance, ids, q, args.p, args.epsilon, ledger=ledger
        )
    else:
        result = two_sweep(instance, ids, q, args.p, ledger=ledger)
    violations = check_oldc(instance, result.colors)
    if violations:
        print("INVALID:", violations[:3])
        return 1
    algorithm = "fast-two-sweep" if args.epsilon > 0.0 else "two-sweep"
    print(
        f"{algorithm}: n={args.n} Delta={network.raw_max_degree()} "
        f"p={args.p} q={q} -- oriented list defective coloring verified"
    )
    _print_ledger(ledger, [["colors used", result.color_count()]])
    return 0


def cmd_delta_plus_one(args: argparse.Namespace) -> int:
    network = random_bounded_degree_graph(
        args.n, args.max_degree, seed=args.seed
    )
    ids = random_ids(network, seed=args.seed, bits=args.id_bits)
    ledger = CostLedger()
    if args.route == "thm13":
        result = delta_plus_one_coloring(network, ids=ids, ledger=ledger)
    elif args.route == "thm15":
        theta = neighborhood_independence(network, exact=len(network) <= 80)
        print(f"neighborhood independence theta = {theta}")
        result = theta_delta_plus_one_coloring(
            network, theta, ids=ids, ledger=ledger
        )
    elif args.route == "baseline":
        result = linial_reduction_baseline(network, ids=ids, ledger=ledger)
    else:  # random
        result = randomized_delta_plus_one(
            network, seed=args.seed, ledger=ledger
        )
    violations = check_proper_coloring(network, result.colors)
    if violations:
        print("INVALID:", violations[:3])
        return 1
    print(
        f"(Delta+1)-coloring via {args.route}: n={len(network)} "
        f"Delta={network.raw_max_degree()} -- proper coloring verified"
    )
    _print_ledger(ledger, [["colors used", result.color_count()]])
    return 0


def cmd_edge_coloring(args: argparse.Namespace) -> int:
    base = gnp_graph(args.n, args.density, seed=args.seed)
    line, edge_of = line_graph_of_network(base)
    if len(line) == 0:
        print("sampled graph has no edges; try a higher --density")
        return 1
    ledger = CostLedger()
    result = theta_delta_plus_one_coloring(line, theta=2, ledger=ledger)
    edge_colors = edge_coloring_from_line_coloring(result.colors, edge_of)
    if not is_proper_edge_coloring(base, edge_colors):
        print("INVALID edge coloring")
        return 1
    print(
        f"edge coloring: base n={args.n} Delta={base.raw_max_degree()} "
        f"-- {result.color_count()} colors "
        f"(budget 2*Delta-1 = {2 * base.raw_max_degree() - 1})"
    )
    _print_ledger(ledger)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from .coloring import (
        random_arbdefective_instance,
        random_defective_instance,
        save_instance,
    )

    network = gnp_graph(args.n, args.density, seed=args.seed)
    if args.kind == "oldc":
        instance = random_oldc_instance(
            orient_by_id(network), p=args.p, seed=args.seed
        )
    elif args.kind == "arbdefective":
        instance = random_arbdefective_instance(
            network, slack=args.slack, seed=args.seed,
            color_space_size=max(8, network.raw_max_degree() + 2),
        )
    else:
        instance = random_defective_instance(
            network, slack=args.slack, seed=args.seed,
            color_space_size=max(8, network.raw_max_degree() + 2),
        )
    path = save_instance(instance, args.out)
    print(
        f"wrote {args.kind} instance (n={args.n}, "
        f"C={instance.color_space_size}) to {path}"
    )
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    from .coloring import (
        ArbdefectiveInstance,
        OLDCInstance,
        check_arbdefective,
        load_instance,
        save_result,
    )
    from .core import solve_arbdefective_base

    instance = load_instance(args.instance)
    ledger = CostLedger()
    if isinstance(instance, OLDCInstance):
        network = instance.graph.network
        ids = sequential_ids(network)
        result = solve_oldc_auto(instance, ids, len(network), ledger=ledger)
        violations = check_oldc(instance, result.colors)
    elif isinstance(instance, ArbdefectiveInstance):
        network = instance.network
        ids = sequential_ids(network)
        result = solve_arbdefective_base(
            instance, ids, len(network), ledger=ledger
        )
        violations = check_arbdefective(
            instance, result.colors, result.orientation
        )
    else:
        # P_D: solve via Theorem 1.4 with the base solver, using a
        # certified theta upper bound (or the user-provided one).
        from .core import defective_from_arbdefective
        from .graphs import safe_theta

        network = instance.network
        theta = args.theta if args.theta else safe_theta(network)
        ids = sequential_ids(network)

        def arb_solver(sub, sub_initial, sub_q, inner_ledger):
            from .core import solve_arbdefective_base

            return solve_arbdefective_base(
                sub, sub_initial, sub_q, ledger=inner_ledger
            )

        try:
            result = defective_from_arbdefective(
                instance, theta, s=1.0, arb_solver=arb_solver,
                initial_colors=ids, q=len(network), ledger=ledger,
            )
        except Exception as error:  # surfaced to the user, not a crash
            print(f"could not solve P_D instance: {error}")
            return 2
        from .coloring import check_list_defective

        violations = check_list_defective(instance, result.colors)
    if violations:
        print("INVALID:", violations[:3])
        return 1
    if args.out:
        save_result(result, args.out)
        print(f"solution written to {args.out}")
    print(f"solved in {ledger.rounds} rounds; output validated")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    from .analysis import write_report

    results = pathlib.Path(args.results_dir)
    if not results.is_dir():
        print(f"no such directory: {results}")
        return 1
    output = write_report(results)
    print(f"report written to {output}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs import (
        canonical_lines,
        chrome_trace,
        load_trace_file,
        summarize_trace,
        validate_trace_file,
    )

    errors = validate_trace_file(args.file)
    if errors:
        if args.json:
            import json as _json

            from .serve.schema import envelope

            print(_json.dumps(envelope(
                "trace-summary", status="invalid", file=args.file,
                errors=errors[:10],
            )))
        else:
            print(f"INVALID trace ({len(errors)} schema violations):")
            for error in errors[:10]:
                print(f"  {error}")
        return 1
    manifest, events = load_trace_file(args.file)
    if args.json:
        import json as _json

        from .serve.schema import envelope

        kinds: dict = {}
        for event in events:
            kind = event.get("kind", "?")
            kinds[kind] = kinds.get(kind, 0) + 1
        print(_json.dumps(envelope(
            "trace-summary",
            status="ok",
            file=args.file,
            events=len(events),
            by_kind=dict(sorted(kinds.items())),
            manifest=manifest,
        )))
        return 0
    if args.logical:
        # Engine-invariant byte form: what the CI equivalence diff reads.
        print(canonical_lines(events))
        return 0
    if args.chrome:
        import json as _json

        with open(args.chrome, "w", encoding="utf-8") as handle:
            _json.dump(chrome_trace(events, manifest), handle)
        print(f"chrome trace written to {args.chrome}")
        return 0
    print(summarize_trace(manifest, events))
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    """Color a streamed million-node-class topology, no Network object."""
    import math
    import time

    from .graphs.streaming import (
        stream_gnp,
        stream_grid,
        stream_regular,
        stream_ring,
        stream_tree,
    )
    from .obs.manifest import minor_faults, peak_rss_kb
    from .serve.executor import _color_count, _run_greedy_reduction

    faults_before = minor_faults()
    build_start = time.perf_counter()
    if args.topology == "ring-stream":
        compiled = stream_ring(args.n)
    elif args.topology == "grid-stream":
        side = max(2, math.isqrt(args.n))
        compiled = stream_grid(side, side)
    elif args.topology == "tree-stream":
        depth = max(1, (args.n + 1).bit_length() - 1)
        compiled = stream_tree(depth)
    elif args.topology == "gnp-stream":
        compiled = stream_gnp(args.n, args.p, args.seed)
    else:
        compiled = stream_regular(args.n, args.degree, args.seed)
    build_s = time.perf_counter() - build_start

    # The same seed -> reduce -> validate path as the daemon's requests.
    ledger = CostLedger()
    solve_start = time.perf_counter()
    outcome, column = _run_greedy_reduction(
        compiled, {"colors": args.colors, "validate": not args.no_validate},
        ledger,
    )
    solve_s = time.perf_counter() - solve_start
    q = outcome["q"]
    target = outcome["target"]
    delta = target - 1
    invalid = outcome.get("invalid_reason")
    rate = compiled.n / solve_s if solve_s > 0 else float("inf")
    rss_kb = peak_rss_kb()
    faults = (None if faults_before is None
              else minor_faults() - faults_before)
    if args.json:
        import json as _json

        from .serve.executor import colors_blake2b
        from .serve.schema import envelope

        global _last_ledger
        _last_ledger = ledger
        # The daemon's checksum: a bit-identity probe for comparing runs
        # across engines, and this run with a request's.
        digest = colors_blake2b(compiled.order, column)
        print(_json.dumps(envelope(
            "scale-run",
            status="invalid" if invalid else "ok",
            topology={"kind": args.topology, "n": compiled.n,
                      "m": compiled.m, "max_degree": delta},
            result={"q": q, "target": target,
                    "color_count": _color_count(column),
                    "colors_blake2b": digest,
                    "valid": None if args.no_validate else not invalid,
                    **({"invalid_reason": invalid} if invalid else {})},
            ledger=ledger.to_dict(),
            timing={"build_s": build_s, "solve_s": solve_s,
                    "nodes_per_s": rate, "minor_faults": faults},
            nodes_per_s=round(rate) if rate != float("inf") else None,
            peak_rss_kb=rss_kb,
        )))
        return 1 if invalid else 0
    if invalid:
        print(f"INVALID: {invalid}")
        return 1
    print(
        f"scale: {args.topology} n={compiled.n} m={compiled.m} "
        f"Delta={delta} -- q={q} reduced to {target} colors"
        f"{'' if args.no_validate else ' (validated)'}"
    )
    _print_ledger(ledger, [
        ["build wall s", f"{build_s:.3f}"],
        ["solve wall s", f"{solve_s:.3f}"],
        ["nodes per s", f"{rate:,.0f}"],
        ["peak rss MiB", "n/a" if rss_kb is None else f"{rss_kb / 1024:.1f}"],
        ["minor faults", "n/a" if faults is None else f"{faults:,}"],
    ])
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the persistent coloring daemon (see ``repro.serve``)."""
    import asyncio
    import json as _json
    import signal

    from .serve import ColoringServer

    prewarm = []
    for raw in args.prewarm or ():
        try:
            prewarm.append(_json.loads(raw))
        except _json.JSONDecodeError as error:
            print(f"bad --prewarm spec {raw!r}: {error}")
            return 2

    server = ColoringServer(
        host=args.host, port=args.port, workers=args.workers,
        mode=args.mode, max_queue=args.max_queue,
        prewarm=tuple(prewarm),
    )

    async def run() -> None:
        await server.start()
        pool = server.supervisor.stats()
        # The "serving on" line is the daemon's readiness contract:
        # benchmark harnesses parse the bound port from it (--port 0).
        print(f"serving on http://{server.host}:{server.port} "
              f"(mode={pool['mode']}, workers={pool['workers']}, "
              f"engine={pool['engine']})", flush=True)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, ValueError):  # pragma: no cover
                pass
        await stop.wait()
        print("shutting down", flush=True)
        await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Metrics console over a live daemon or a flushed JSONL file."""
    from .obs.top import (
        render_top,
        snapshot_from_jsonl,
        snapshot_from_url,
        summarize_metrics,
        watch,
    )

    if bool(args.url) == bool(args.file):
        print("repro top: give exactly one source -- --url URL for a "
              "live daemon, or a metrics JSONL file (from --metrics)")
        return 2

    def fetch():
        if args.url:
            snap, uptime = snapshot_from_url(args.url)
            return snap, uptime, args.url
        snap, uptime = snapshot_from_jsonl(args.file)
        return snap, uptime, args.file

    if args.watch:
        return watch(fetch, interval_s=args.interval)
    try:
        snap, uptime, label = fetch()
    except (OSError, ValueError) as error:
        print(f"repro top: {error}")
        return 1
    print(render_top(summarize_metrics(snap, uptime), source=label))
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    print(f"repro {__version__} -- reproduction of Fuchs & Kuhn, "
          f"PODC 2024 (list defective coloring)")
    print(render_table(
        ["command", "runs"],
        [
            ["two-sweep", "Algorithm 1 / auto-tuned Theorem 1.1"],
            ["delta-plus-one", "Theorem 1.3 / 1.5 / baselines"],
            ["edge-coloring", "(2 Delta - 1)-edge coloring (Thm 1.5)"],
        ],
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed list defective coloring, reproduced.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--profile", action="store_true",
        help="run the command under cProfile and print the top 25 "
             "entries by cumulative time",
    )
    parser.add_argument(
        "--engine", default=None,
        choices=["reference", "vectorized"],
        help="scheduler execution engine for every simulated round "
             "(default: vectorized, or the REPRO_SIM_ENGINE environment "
             "variable; vectorized batches homogeneous node programs "
             "and falls back to reference otherwise)",
    )
    parser.add_argument(
        "--kernel-stats", action="store_true",
        help="after the command, print the vectorized engine's kernel "
             "hit/fallback/warmup counters (shows whether runs actually "
             "went through a kernel)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a structured run trace (spans for algorithms, "
             "phases, and scheduler runs plus a run manifest) and write "
             "it to PATH; works with every engine and keeps the "
             "vectorized kernels engaged",
    )
    parser.add_argument(
        "--trace-format", default="jsonl", choices=["jsonl", "chrome"],
        help="trace file format: 'jsonl' (one record per line, first "
             "line is the manifest; read it back with 'repro trace') or "
             "'chrome' (chrome://tracing / Perfetto trace_event JSON)",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="flush the unified metrics registry to PATH as JSONL "
             "(one snapshot per flush; always a final flush at exit; "
             "read it back with 'repro top PATH')",
    )
    parser.add_argument(
        "--metrics-interval", type=float, default=0.0, metavar="SECONDS",
        help="also flush --metrics periodically every SECONDS while the "
             "command runs (default: 0, final flush only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ts = sub.add_parser("two-sweep", help="run Algorithm 1 / 2")
    p_ts.add_argument("--n", type=int, default=80)
    p_ts.add_argument("--density", type=float, default=0.08)
    p_ts.add_argument("--p", type=int, default=3)
    p_ts.add_argument("--seed", type=int, default=7)
    p_ts.add_argument(
        "--epsilon", type=float, default=0.0,
        help="run Algorithm 2 (Fast-Two-Sweep) with this epsilon > 0 "
             "instead of the plain sweep",
    )
    p_ts.add_argument(
        "--id-bits", type=int, default=0,
        help="color initially by random IDs with this many bits "
             "(q = 2^bits, Algorithm 2's regime); 0 means sequential "
             "IDs with q = n",
    )
    p_ts.add_argument("--auto", action="store_true",
                      help="choose (p, eps) automatically")
    p_ts.set_defaults(func=cmd_two_sweep)

    p_dp = sub.add_parser("delta-plus-one",
                          help="(Delta+1)-coloring via a chosen route")
    p_dp.add_argument("--route", default="thm13",
                      choices=["thm13", "thm15", "baseline", "random"])
    p_dp.add_argument("--n", type=int, default=32)
    p_dp.add_argument("--max-degree", type=int, default=4)
    p_dp.add_argument("--id-bits", type=int, default=20)
    p_dp.add_argument("--seed", type=int, default=5)
    p_dp.set_defaults(func=cmd_delta_plus_one)

    p_ec = sub.add_parser("edge-coloring",
                          help="(2 Delta - 1)-edge coloring")
    p_ec.add_argument("--n", type=int, default=18)
    p_ec.add_argument("--density", type=float, default=0.22)
    p_ec.add_argument("--seed", type=int, default=3)
    p_ec.set_defaults(func=cmd_edge_coloring)

    p_gen = sub.add_parser(
        "generate", help="write a random instance to a JSON file"
    )
    p_gen.add_argument("--kind", default="oldc",
                       choices=["oldc", "arbdefective", "defective"])
    p_gen.add_argument("--n", type=int, default=30)
    p_gen.add_argument("--density", type=float, default=0.15)
    p_gen.add_argument("--p", type=int, default=2)
    p_gen.add_argument("--slack", type=float, default=1.5)
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser(
        "solve", help="solve an instance file and validate the output"
    )
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument(
        "--theta", type=int, default=0,
        help="neighborhood independence bound for P_D instances "
             "(0 = compute a certified upper bound)",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_rep = sub.add_parser(
        "report", help="aggregate benchmark result tables into REPORT.md"
    )
    p_rep.add_argument("--results-dir", default="benchmarks/results")
    p_rep.set_defaults(func=cmd_report)

    p_tr = sub.add_parser(
        "trace", help="validate and summarize a recorded JSONL trace"
    )
    p_tr.add_argument("file", help="trace file written by --trace")
    p_tr.add_argument(
        "--chrome", default=None, metavar="OUT",
        help="convert to chrome://tracing trace_event JSON instead of "
             "summarizing",
    )
    p_tr.add_argument(
        "--logical", action="store_true",
        help="print the engine-invariant canonical event stream "
             "(physical fields stripped) -- byte-comparable across "
             "engines",
    )
    p_tr.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable repro-result/v3 summary (shared "
             "schema with the repro.serve daemon's responses)",
    )
    p_tr.set_defaults(func=cmd_trace)

    p_sc = sub.add_parser(
        "scale",
        help="color a streamed large-n topology (CSR end to end, "
             "no Network object)",
    )
    p_sc.add_argument(
        "--topology", default="ring-stream",
        choices=["ring-stream", "grid-stream", "tree-stream",
                 "gnp-stream", "regular-stream"],
        help="streaming topology family (grid uses a sqrt(n) side, "
             "tree the depth that best matches --n)",
    )
    p_sc.add_argument("--n", type=int, default=100_000,
                      help="node count (exact for ring/gnp/regular)")
    p_sc.add_argument("--p", type=float, default=1e-5,
                      help="edge probability for gnp-stream")
    p_sc.add_argument("--degree", type=int, default=4,
                      help="degree for regular-stream")
    p_sc.add_argument("--seed", type=int, default=7)
    p_sc.add_argument(
        "--colors", type=int, default=16,
        help="initial palette size q to reduce from (floored at "
             "Delta + 1; the run performs q - Delta rounds)",
    )
    p_sc.add_argument(
        "--no-validate", action="store_true",
        help="skip the O(m) final properness scan",
    )
    p_sc.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable repro-result/v3 record (shared "
             "schema with the repro.serve daemon's responses)",
    )
    p_sc.set_defaults(func=cmd_scale)

    p_sv = sub.add_parser(
        "serve",
        help="run the persistent coloring daemon (HTTP, warm worker "
             "pool, bounded admission)",
    )
    p_sv.add_argument("--host", default="127.0.0.1")
    p_sv.add_argument("--port", type=int, default=8421,
                      help="TCP port (0 picks a free one; the bound "
                           "port is printed on the 'serving on' line)")
    p_sv.add_argument("--workers", type=int, default=None,
                      help="pool size (default: REPRO_PARALLEL "
                           "or the CPU count)")
    p_sv.add_argument("--mode", choices=["process", "thread"],
                      default="process",
                      help="worker pool mode (thread = single in-process "
                           "lane, deterministic and fork-free)")
    p_sv.add_argument("--max-queue", type=int, default=256,
                      help="admission bound: requests in flight "
                           "(admitted, not yet answered) before a 503")
    p_sv.add_argument(
        "--prewarm", action="append", metavar="SPEC",
        help="topology spec (JSON) to build and publish at boot, e.g. "
             "'{\"kind\": \"ring-stream\", \"n\": 100000}'; repeatable",
    )
    p_sv.set_defaults(func=cmd_serve)

    p_top = sub.add_parser(
        "top",
        help="metrics console: request rate, latency percentiles, "
             "queue/pool pressure, kernel and cache hit-rates -- from "
             "a live daemon or a --metrics JSONL file",
    )
    p_top.add_argument(
        "file", nargs="?", default=None,
        help="metrics JSONL file written by --metrics (reads the "
             "latest flushed snapshot)",
    )
    p_top.add_argument(
        "--url", default=None, metavar="URL",
        help="scrape a live daemon instead (base URL or host:port; "
             "/stats is appended)",
    )
    p_top.add_argument(
        "--watch", action="store_true",
        help="repaint continuously until Ctrl-C",
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between --watch repaints (default: 2)",
    )
    p_top.set_defaults(func=cmd_top)

    p_info = sub.add_parser("info", help="version and command overview")
    p_info.set_defaults(func=cmd_info)
    return parser


def _run_command(args: argparse.Namespace) -> int:
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        status = profiler.runcall(args.func, args)
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(25)
        return status
    return args.func(args)


def _write_trace(args: argparse.Namespace, tracer, status: int) -> None:
    from .obs import collect_manifest, write_chrome, write_jsonl

    seed = getattr(args, "seed", None)
    manifest = collect_manifest(
        seeds=None if seed is None else {"seed": seed},
        ledger=_last_ledger,
        argv=sys.argv[1:],
        extra={"command": args.command, "exit_status": status},
    )
    if args.trace_format == "chrome":
        write_chrome(args.trace, tracer.events, manifest)
    else:
        write_jsonl(args.trace, tracer.events, manifest)
    print(f"trace written to {args.trace} "
          f"({len(tracer.events)} records, format={args.trace_format})")


def main(argv: Optional[List[str]] = None) -> int:
    from .sim.parallel import keep_freed_memory

    # The daemon and single-process runs reuse freed temporaries too.
    keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.engine is not None:
        from .sim import set_default_engine

        set_default_engine(args.engine)
    def run_traced() -> int:
        if args.trace is not None:
            from .obs import Tracer, use_tracer

            tracer = Tracer()
            with use_tracer(tracer):
                inner = _run_command(args)
            _write_trace(args, tracer, inner)
            return inner
        return _run_command(args)

    if args.metrics is not None:
        from .obs.metrics import MetricsFlusher

        with MetricsFlusher(args.metrics,
                            interval_s=args.metrics_interval):
            status = run_traced()
        print(f"metrics written to {args.metrics}")
    else:
        status = run_traced()
    if args.kernel_stats:
        from .sim import kernel_stats

        counters = kernel_stats()
        print(render_table(
            ["kernel stat", "value"],
            [
                ["runs", counters["runs"]],
                ["hits", counters["hits"]],
                ["fallbacks", counters["fallbacks"]],
                ["warmup_s", f"{counters['warmup_s']:.6f}"],
                ["by kernel", ", ".join(
                    f"{name} x{count}"
                    for name, count in sorted(counters["by_kernel"].items())
                ) or "-"],
                ["by backend", ", ".join(
                    f"{name} x{count}"
                    for name, count in sorted(counters["by_backend"].items())
                ) or "-"],
                ["by reason", ", ".join(
                    f"{name} x{count}"
                    for name, count in sorted(counters["by_reason"].items())
                ) or "-"],
            ],
        ))
        for reason, count in sorted(counters["by_reason"].items()):
            gloss = _FALLBACK_NOTES.get(reason, "unknown reason")
            print(f"note: {count} fallback(s) '{reason}': {gloss}")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
