#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation section.

Runs all 13 exhibit harnesses and writes their formatted output to
stdout (and optionally to a directory).  ``REPRO_TRACE_LEN`` controls
the trace length (default 120,000 instructions per workload).

Run:  python examples/reproduce_paper.py [--out DIR] [--jobs N] [exhibit ...]
"""

import argparse
import os
import pathlib
import sys
import time

from repro.experiments import EXHIBITS, run_exhibit
from repro.robustness.atomic import atomic_write_text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "exhibits",
        nargs="*",
        default=list(EXHIBITS),
        help="exhibit names to run (default: all)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, help="directory to archive outputs in"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the sweeps' scalar-route configs"
        " (sets REPRO_JOBS; 0 = one per usable CPU, default serial);"
        " compiled-kernel batches run in-process either way",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)

    unknown = [name for name in args.exhibits if name not in EXHIBITS]
    if unknown:
        parser.error(f"unknown exhibits: {unknown}; choose from {list(EXHIBITS)}")
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)

    # Timing lines are progress reporting, not results: the archived
    # exhibit text itself stays a pure function of (trace, seed, config).
    total = time.time()  # reprolint: disable=determinism
    for name in args.exhibits:
        started = time.time()  # reprolint: disable=determinism
        exhibit = run_exhibit(name)
        text = exhibit.format()
        print(text)
        elapsed = time.time() - started  # reprolint: disable=determinism
        print(f"[{name} took {elapsed:.1f}s]\n")
        if args.out:
            atomic_write_text(args.out / f"{name}.txt", text + "\n")
    wall = time.time() - total  # reprolint: disable=determinism
    print(f"reproduced {len(args.exhibits)} exhibits in {wall:.0f}s")


if __name__ == "__main__":
    sys.exit(main())
