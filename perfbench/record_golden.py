#!/usr/bin/env python3
"""Record the golden SHA-256 digest of every CSV body, per workload and seed.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_golden.py --seeds 0-30 [--workloads no-gap,separation]

Each workload runs once per seed, untraced, at --threads <cores>.  A body is
recorded only when it passes the workload's invariants, and a digest already
in perfbench/golden.json is never replaced by a different one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_workloads import WORKLOADS, digest
from run import GOLDEN_PATH, WORK_DIR, cores, run_repetition


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-20 or 7")
    ap.add_argument("--workloads", default=",".join(sorted(WORKLOADS)),
                    help="comma-separated workload names (default: all)")
    args = ap.parse_args()

    root = Path.cwd()
    doc = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    status = 0
    for name in args.workloads.split(","):
        if name not in WORKLOADS:
            ap.error(f"unknown workload {name!r}")
        for seed in args.seeds:
            rep = run_repetition(root, WORKLOADS[name], seed, cores(),
                                 root / WORK_DIR / f"golden-{name}-seed{seed}", None)
            if rep.failed or rep.problems:
                print(f"{name} seed {seed}: not recorded: {rep.problems}", file=sys.stderr)
                status = 1
                continue
            known = doc.setdefault(name, {}).setdefault(str(seed), {})
            for label, body in rep.bodies.items():
                if known.setdefault(label, digest(body)) != digest(body):
                    print(f"{name} seed {seed} {label}: differs from the recorded digest",
                          file=sys.stderr)
                    status = 1
            print(f"{name} seed {seed}: {rep.wall_s:.2f} s")
            GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
