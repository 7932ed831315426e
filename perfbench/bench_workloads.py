"""The benchmark's workloads: the gaplab invocations each one runs and the
checks its CSV bodies must pass.

A workload is a fixed list of CLI invocations; the benchmark seed is passed
to gaplab as `--seed`, so the same seed gives byte-identical CSV bodies.  For
a seed with a recorded golden digest the body must match it; for any other
seed the invariants below, which hold for every seed, are checked instead.
Why each workload exists is written next to it in BENCHMARK.json.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass
from typing import Callable

ONE_SIXTEENTH = 1.0 / 16.0


@dataclass(frozen=True)
class Invocation:
    """One gaplab run: `label` names its CSV, `args` are the subcommand and flags."""

    label: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    # label -> parsed CSV rows -> problems found (empty when the body is fine)
    invariants: Callable[[str, list[dict]], list[str]]
    # per-layer spans that must record calls > 0 on this workload's traced pass
    exercises: tuple[str, ...]


def parse_rows(body: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(body.decode())))


def digest(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


def _matched_pair_invariants(label: str, rows: list[dict]) -> list[str]:
    if len(rows) != 1:
        return [f"{label}: expected 1 row, got {len(rows)}"]
    if label.startswith("lower-bound") and not float(rows[0]["ci_low"]) > ONE_SIXTEENTH:
        return [f"{label}: ci_low {rows[0]['ci_low']} is not above 1/16"]
    return []


SEPARATION_NS = ("16", "256", "4096")
SEPARATION_LEARNERS = ("erm", "cover", "bayes-posterior")


def _separation_invariants(label: str, rows: list[dict]) -> list[str]:
    cells = [(r["n"], r["learner"]) for r in rows]
    want = [(n, lr) for n in SEPARATION_NS for lr in SEPARATION_LEARNERS]
    if sorted(cells) != sorted(want):
        return [f"{label}: rows {cells} are not one per (n, learner)"]
    return []


NO_GAP_GRID = "1,8,16,24"


def _no_gap_invariants(label: str, rows: list[dict]) -> list[str]:
    problems = []
    if [r["m"] for r in rows] != NO_GAP_GRID.split(","):
        problems.append(f"{label}: m column {[r['m'] for r in rows]} != grid {NO_GAP_GRID}")
    problems += [f"{label}: m={r['m']} has {r['violations']} violations"
                 for r in rows if r["violations"] != "0"]
    return problems


_PROJECTION_TRIAL = (
    "distributions.sample_bit_matrix",
    "distributions.PneFamily.member",
    "distributions.RngSeed.generator",
    "concepts.pack_bit_rows",
    "learners.LabeledSample.column_match_mask",
    "mc_harness.run_trial",
    "mc_harness.pool",
)

MATCHED_PAIR = ("--n", "131072", "--eps", "0.2")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="matched-pair",
            invocations=(
                Invocation("lower-bound-posterior", ("lower-bound", *MATCHED_PAIR,
                           "--learner", "bayes-posterior", "--trials", "1000")),
                Invocation("lower-bound-erm", ("lower-bound", *MATCHED_PAIR,
                           "--learner", "erm", "--trials", "1000")),
                Invocation("ks-stats", ("ks-stats", *MATCHED_PAIR, "--trials", "1000")),
            ),
            invariants=_matched_pair_invariants,
            exercises=_PROJECTION_TRIAL + (
                "learners.erm",
                "metric_cover.disagreement_exact_projections",
                "mc_harness.posterior_rule_error",
                "mc_harness.ks_statistics_experiment",
            ),
        ),
        Workload(
            name="separation",
            invocations=(
                Invocation("separation", ("separation", "--n-list", ",".join(SEPARATION_NS),
                           "--learners", ",".join(SEPARATION_LEARNERS), "--trials", "1000")),
            ),
            invariants=_separation_invariants,
            exercises=_PROJECTION_TRIAL + (
                "distributions.sample_coordinate_columns",
                "learners.erm",
                "metric_cover.disagreement_exact_projections",
                "metric_cover.pne_small_cover",
                "mc_harness.posterior_rule_error",
                "mc_harness.sample_complexity_search",
            ),
        ),
        Workload(
            name="no-gap",
            invocations=(
                Invocation("no-gap", ("no-gap", "--domain-size", "12", "--dist", "geometric",
                           "--m-grid", NO_GAP_GRID, "--trials", "8000")),
            ),
            invariants=_no_gap_invariants,
            exercises=(
                "distributions.sample_support_indices",
                "distributions.RngSeed.generator",
                "distributions.missing_mass_fraction",
                "learners.consistent_memorizer",
                "learners.LabeledSample.from_points",
                "mc_harness.no_gap_experiment",
            ),
        ),
    )
}


def body_problems(
    workload: Workload, label: str, body: bytes, golden: dict[str, str] | None
) -> list[str]:
    """Why a CSV body is wrong: a golden digest mismatch, else broken invariants."""
    if golden is not None:
        want = golden.get(label)
        got = digest(body)
        if want != got:
            return [f"{label}: sha256 {got[:16]} != golden {str(want)[:16]}"]
        return []
    try:
        rows = parse_rows(body)
    except (UnicodeDecodeError, csv.Error, KeyError) as exc:
        return [f"{label}: unreadable CSV ({exc})"]
    try:
        return workload.invariants(label, rows)
    except (KeyError, ValueError) as exc:
        return [f"{label}: missing or malformed column ({exc})"]
