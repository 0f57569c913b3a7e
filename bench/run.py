"""The repository's benchmark: one command, three workloads.

    python3 bench/run.py --workload sweep-fifo --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` installs the per-layer wrappers (see ``layers.py``) and
prints the per-layer metrics instead.  Each run checks its outputs (route
re-runs against a BFS oracle, fold recomputation, bitwise agreement of
the serial, pool, cache and service paths) and ends its standard output
with one JSON line::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

The line before it holds the deterministic work counts and result
digest of the run.  Failed checks and failed operations are listed on
standard error.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import program_importable  # noqa: E402

WORKLOADS = {
    "sweep-fifo": "sweep_fifo",
    "campaign-schemes": "campaign_schemes",
    "service-mixed": "service_mixed",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    # A TERM unwinds like an exception, so every workload's cleanup
    # (daemon, pool workers, scratch directory) still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    program_importable()
    module = importlib.import_module(WORKLOADS[args.workload])
    outcome = module.run(args.seed, args.seconds, bool(args.trace))
    for message in outcome.checks.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    for reason in outcome.tally.reasons:
        print(f"operation failed: {reason}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "work": outcome.work}, sort_keys=True))
    print(json.dumps(outcome.result_line(), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
