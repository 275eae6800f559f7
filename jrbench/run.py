"""Outside-in benchmark of jointrec's experiment pipeline.

Run from the repository root:

    python3 jrbench/run.py --workload jt-scan --seed 1 --seconds 30 --trace 0

Workloads are ``jt-scan``, ``view-sweep`` and ``two-view-1d`` (see
``workloads.py``).  ``--trace 0`` reports the end-to-end metrics listed in
BENCHMARK.json, ``--trace 1`` the per-layer ones.  Every metric is printed
as ``<workload>  <name> = <value> <unit>  (<note>)``; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
output check passed, 1 when one failed, and 2 when the package sources
under ``src/`` are missing.

The benchmark imports jointrec from this checkout's ``src/`` only and
writes its outputs only under ``.jrbench_out/``.  BLAS threads default to
the number of usable CPUs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time after the warm-up repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per sweep cell in each repeat "
                             "(default: the workload's own count)")
    args = parser.parse_args(argv)
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SRC / "jointrec"
    if not (package / "__init__.py").is_file():
        print(f"jrbench: no jointrec package at {package}", file=sys.stderr)
        return 2
    os.environ.setdefault("OPENBLAS_NUM_THREADS",
                          str(len(os.sched_getaffinity(0))))
    sys.path.insert(0, str(SRC))
    import jointrec
    if Path(jointrec.__file__).resolve().parent != package:
        print(f"jrbench: imported jointrec from {jointrec.__file__}, "
              f"not from {package}", file=sys.stderr)
        return 2
    import harness
    return harness.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
