#!/usr/bin/env python3
"""Record the reference the benchmark's output checks compare against.

    python3 perfbench/record_reference.py --workload synth-x1 --seeds 0-31

For each pipeline seed, runs one iteration of the workload with the current program and stores, in ``perfbench/reference.json``, the weighted mean and SD of
every parameter of the parameter table, the combined dataset and the
synthetic dataset, the artifact row counts and the artifact sha256 digests.
A seed whose iteration fails a check is reported and not recorded.
Re-record only for a change that is meant to alter the program's results.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run as bench
from checks import summarize
from workloads import WORKLOADS, setup


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(workload_name: str, seed: int):
    """Reference entry for one seed, or None when the iteration failed."""
    workload = WORKLOADS[workload_name]
    workdir = bench.ROOT / ".bench_work" / f"reference-{workload_name}-seed{seed}"
    try:
        n_events = setup(workload, workdir)
        run = bench.Run(workload, seed, workdir, n_events, reference=None)
        run.iteration(0)
        if run.failed_ops:
            print(f"{workload_name} seed {seed} not recorded: {run.failures}", file=sys.stderr)
            return None
        return {**summarize(run.paths), "sha256": run.hashes}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="pipeline seeds, e.g. 0-31 or 3,7,9-12")
    args = parser.parse_args(argv)
    entries = {str(seed): record(args.workload, seed) for seed in parse_seeds(args.seeds)}
    entries = {seed: entry for seed, entry in entries.items() if entry is not None}
    # re-read just before writing, so runs for different workloads can overlap
    doc = json.loads(bench.REFERENCE_FILE.read_text()) if bench.REFERENCE_FILE.exists() else {}
    doc.setdefault(args.workload, {}).update(entries)
    bench.REFERENCE_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if len(entries) == len(parse_seeds(args.seeds)) else 1


if __name__ == "__main__":
    sys.exit(main())
