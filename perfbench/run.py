"""The repository benchmark, one command per workload run.

Usage, from the repository root::

    python3 perfbench/run.py --workload scale-ring --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` makes the
same calls with timing shims installed and prints every per-layer
metric.  The last stdout line is the JSON result
(``correct``/``attempted``/``failed``/``metrics``); the line before it
carries provenance, sample counts and any output mismatches.  The run
exits 0 when every output check passed, 1 when one failed, and 2 when
the sources under ``src/`` are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

WORKLOADS = {
    "scale-ring": "perfbench.scale_ring",
    "oldc-sweep": "perfbench.oldc_sweep",
    "serve-mixed": "perfbench.serve_mixed",
}

#: Scheduler engine for every workload, always named explicitly.
ENGINE = "vectorized"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import procs, report
    from perfbench.spans import summarize

    procs.adopt_orphans()
    workload = importlib.import_module(WORKLOADS[args.workload])
    try:
        outcome = workload.run(seed=args.seed, seconds=args.seconds,
                               trace=bool(args.trace), engine=ENGINE)
    finally:
        left = procs.stop_descendants()
    if left:
        print(f"perfbench: stopped {len(left)} leftover processes",
              file=sys.stderr)
    if outcome.recorder is not None:
        spans = outcome.recorder.spans
        ops = len({span[5] for span in spans if span[5] is not None})
        print("\n".join(report.span_table(summarize(spans), ops)))
        report.write_spans(
            outcome.recorder,
            ROOT / "perfbench" / "out"
            / f"{args.workload}-seed{args.seed}.spans.jsonl",
        )
    print(json.dumps({
        "provenance": report.provenance(args.workload, args.seed, ENGINE),
        "samples": outcome.samples,
        "details": outcome.details,
        "problems": outcome.tally.problems[:20],
    }))
    print(report.result_line(outcome, trace=bool(args.trace)), flush=True)
    return 0 if outcome.tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
