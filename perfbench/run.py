"""Seeded benchmark for BaitRadar.

Run from the repository root::

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 20 --trace 0

Workloads: ``train-full``, ``train-text-missing`` and ``score-stream``; see
``workloads.py`` for what each runs and why. The program under test is
imported from ``src/`` next to this directory and receives only inputs
generated from ``--seed``.

Each run sets up its inputs several times (the median is ``setup_s``), warms
every timed path up on a few records, then runs the timed section untraced.
With ``--trace 1`` the timed section runs fixed counts instead of
``--seconds``, and the run then sets up and runs it once more under the span
tracer (``tracer.py``), and reports per-layer self time, calls,
encoder and LSTM census, trace coverage and tracing overhead instead of the
end-to-end metrics. Spans are written to ``perfbench/out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a report with the machine, sample counts and the full per-layer table.
The exit code is 0 when every output check passed, 1 when one failed and 2
when the program under test is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"


def _limit_blas_threads() -> int:
    """Cap BLAS threads at the cores this process may use; must run before
    numpy is imported."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "baitradar" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from bench import run  # noqa: E402 - needs the path and BLAS settings above
    from workloads import FULL

    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), FULL, OUT_DIR)
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
