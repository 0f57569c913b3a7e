"""Run ``repro.cli serve`` with the per-layer wrappers installed.

    python3 bench/daemon_launcher.py --trace-out PATH -- --store S ...

The traced ``service-mixed`` run starts the daemon through this script
instead of ``python -m repro.cli serve``, so the wrappers of
``layers.py`` time the store, queue, service and simulation calls
inside the daemon's own process.  On SIGUSR1 the launcher writes
everything recorded so far to PATH (atomically, via a rename); the
benchmark sends it at the end of its measured region, so the requests
its checks make afterwards are not counted.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import program_importable  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]
    program_importable()
    from layers import LayerTrace

    trace = LayerTrace().install()
    out = Path(args.trace_out)

    def dump(_signum, _frame) -> None:
        tmp = out.with_suffix(".tmp")
        tmp.write_text(json.dumps(trace.snapshot()), encoding="utf-8")
        os.replace(tmp, out)

    signal.signal(signal.SIGUSR1, dump)
    from repro.cli import main as cli_main

    return cli_main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main())
