#!/usr/bin/env python3
"""The gaplab benchmark: run one workload and print one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload separation --seed 1 --seconds 40 --trace 0

--trace 0 runs the workload as a user does, in a closed loop of one client:
one `python -m gaplab.cli` process after another at --threads <cores>,
repetitions of the whole workload for --seconds (at least three), each
preceded by one timed `gaplab --version` (a setup_s sample).  It reports
the end-to-end metrics, each a median over repetitions.

--trace 1 runs the workload once more as a subprocess, then three times in
this process through gaplab.cli.main: serially with coarse spans (the
untraced baseline), serially with spans around every per-layer function, and
at --threads <cores> with only the process pools timed.  It reports the
per-layer metrics and writes every call path to .perfbench_work/.

Every CSV body is checked against the digest recorded for the seed in
perfbench/golden.json, or against the workload's invariants when the seed
has none.  The environment is printed and written with every result.  The
workloads' reasons live in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from bench_layers import (CLI_SPAN, PER_LAYER, POOL_SPAN, layer_metrics, trace_fanout,
                          trace_full, trace_light)
from bench_trace import Patches, Tracer
from bench_workloads import WORKLOADS, Workload, body_problems

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
WORK_DIR = ".perfbench_work"
MIN_REPS = 3
INVOCATION_TIMEOUT_S = 150.0
LOOP_DEADLINE_S = 120.0  # stop starting repetitions after this, whatever --seconds says

# name -> (unit, better), in report order
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
    "ok_share": ("share", "higher"),
}


def cores() -> int:
    return len(os.sched_getaffinity(0))


def gaplab_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Usage:
    wall_s: float
    cpu_s: float
    rss_mib: float
    status: int


def run_gaplab(root: Path, args: list[str], log: Path) -> Usage:
    """Run `python -m gaplab.cli args` to exit; CPU and RSS cover the process tree.

    os.wait4 reports the child's usage together with that of every
    descendant it waited for, which includes the workers of its pools.
    """
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "gaplab.cli", *args], cwd=root,
                                env=gaplab_env(root), stdout=sink, stderr=sink,
                                start_new_session=True)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Usage(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, proc.returncode)


def global_flags(seed: int, threads: int, out: Path) -> list[str]:
    return ["--seed", str(seed), "--threads", str(threads), "--out", str(out)]


@dataclass
class Repetition:
    """One pass over a workload's invocations."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mib: float = 0.0
    attempted: int = 0
    failed: int = 0
    bodies: dict[str, bytes] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def check_bodies(workload: Workload, bodies: dict[str, bytes | None],
                 golden: dict[str, str] | None, rep: Repetition) -> None:
    """Count every invocation whose body is missing or wrong as failed."""
    for label, body in bodies.items():
        rep.attempted += 1
        problems = (body_problems(workload, label, body, golden) if body is not None
                    else [f"{label}: no CSV written"])
        if problems:
            rep.failed += 1
            rep.problems += problems
        else:
            rep.bodies[label] = body


def run_repetition(root: Path, workload: Workload, seed: int, threads: int,
                   outdir: Path, golden: dict[str, str] | None) -> Repetition:
    rep = Repetition()
    bodies: dict[str, bytes | None] = {}
    outdir.mkdir(parents=True, exist_ok=True)
    for inv in workload.invocations:
        out = outdir / f"{inv.label}.csv"
        out.unlink(missing_ok=True)
        use = run_gaplab(root, global_flags(seed, threads, out) + list(inv.args),
                         outdir / f"{inv.label}.log")
        rep.wall_s += use.wall_s
        rep.cpu_s += use.cpu_s
        rep.peak_rss_mib = max(rep.peak_rss_mib, use.rss_mib)
        if use.status != 0:
            rep.problems.append(f"{inv.label}: exit {use.status}, see {outdir / inv.label}.log")
        bodies[inv.label] = out.read_bytes() if use.status == 0 and out.exists() else None
    check_bodies(workload, bodies, golden, rep)
    return rep


def setup_seconds(root: Path, log: Path) -> float:
    """Import and dispatch cost: a fresh interpreter running `gaplab --version`."""
    use = run_gaplab(root, ["--version"], log)
    if use.status != 0:
        raise SystemExit(f"perfbench: gaplab --version exited {use.status}, see {log}")
    return use.wall_s


def load_golden(workload: str, seed: int) -> dict[str, str] | None:
    doc = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    return doc.get(workload, {}).get(str(seed))


def environment(seed: int) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": cores(),
        "cpu_model": cpu,
        "seed": seed,
    }


def measure(root: Path, workload: Workload, seed: int, seconds: float,
            work: Path) -> tuple[dict, Repetition, dict]:
    """End-to-end metrics: medians over repetitions run for `seconds`."""
    golden = load_golden(workload.name, seed)
    threads = cores()
    log = work / "version.log"
    setup_seconds(root, log)  # warm-up: fills the page cache and bytecode caches
    setups: list[float] = []
    reps: list[Repetition] = []
    total = Repetition()
    start = time.perf_counter()
    while True:
        # start another repetition only if, at the mean pace so far, it ends in time
        elapsed = time.perf_counter() - start
        pace = elapsed / len(reps) if reps else 0.0
        if (len(reps) >= MIN_REPS and elapsed + pace > seconds) or elapsed > LOOP_DEADLINE_S:
            break
        setups.append(setup_seconds(root, log))
        rep = run_repetition(root, workload, seed, threads, work / "untraced", golden)
        if reps:
            # every repetition of one seed must write the bytes the first one wrote
            for label, body in rep.bodies.items():
                if reps[0].bodies.get(label, body) != body:
                    rep.failed += 1
                    rep.problems.append(f"{label}: body differs between repetitions")
        reps.append(rep)
        total.attempted += rep.attempted
        total.failed += rep.failed
        total.problems += rep.problems
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "peak_rss_mib": statistics.median(r.peak_rss_mib for r in reps),
        "setup_s": statistics.median(setups),
        "ok_share": 1.0 - total.failed / total.attempted,
    }
    samples = {
        "repetitions": len(reps),
        "wall_s": [r.wall_s for r in reps],
        "cpu_s": [r.cpu_s for r in reps],
        "peak_rss_mib": [r.peak_rss_mib for r in reps],
        "setup_s": setups,
        "golden": golden is not None,
    }
    return metrics, total, samples


def run_in_process(workload: Workload, seed: int, threads: int, outdir: Path,
                   tracer) -> tuple[float, dict[str, bytes | None], list[str]]:
    """Each invocation through gaplab.cli.main inside a `cli` span."""
    from gaplab import cli

    outdir.mkdir(parents=True, exist_ok=True)
    wall = 0.0
    bodies: dict[str, bytes | None] = {}
    problems = []
    for inv in workload.invocations:
        out = outdir / f"{inv.label}.csv"
        out.unlink(missing_ok=True)
        argv = global_flags(seed, threads, out) + list(inv.args)
        chatter = io.StringIO()
        code = 0
        start = time.perf_counter()
        tracer.enter(CLI_SPAN)
        try:
            with contextlib.redirect_stdout(chatter), contextlib.redirect_stderr(chatter):
                cli.main.main(args=argv, prog_name="gaplab", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code or 0
        finally:
            tracer.exit()
        wall += time.perf_counter() - start
        if code != 0:
            problems.append(f"{inv.label}: exit {code}: {chatter.getvalue().strip()}")
        bodies[inv.label] = out.read_bytes() if code == 0 and out.exists() else None
    return wall, bodies, problems


def trace(root: Path, workload: Workload, seed: int, work: Path) -> tuple[dict, Repetition, dict]:
    """Per-layer metrics from traced in-process passes, checked against an untraced run."""
    sys.path.insert(0, str(root / "src"))
    import gaplab

    if Path(gaplab.__file__).resolve().parent != (root / "src" / "gaplab").resolve():
        raise SystemExit(f"perfbench: imported gaplab from {gaplab.__file__}, not {root}/src")

    golden = load_golden(workload.name, seed)
    threads = cores()
    total = run_repetition(root, workload, seed, threads, work / "untraced", golden)
    reference = dict(total.bodies)

    def run_pass(install, tracer: Tracer, threads: int, name: str):
        with Patches() as patches:
            try:
                install(tracer, patches)
            except KeyError as exc:
                raise SystemExit(f"perfbench: gaplab no longer defines {exc}; "
                                 "update bench_layers.py") from exc
            return run_in_process(workload, seed, threads, work / name, tracer)

    light, full, fan = Tracer(), Tracer(), Tracer()
    passes = {
        "serial": run_pass(trace_light, light, 1, "serial"),
        "traced": run_pass(trace_full, full, 1, "traced"),
        "fanout": run_pass(trace_fanout, fan, threads, "fanout"),
    }

    for name, (_, bodies, problems) in passes.items():
        for label, body in bodies.items():
            total.attempted += 1
            if body is None or body != reference.get(label):
                total.failed += 1
                total.problems.append(f"{label}: {name} pass body differs from the untraced run")
        total.problems += problems

    spans = full.totals()
    spans[POOL_SPAN] = fan.totals().get(POOL_SPAN, {"calls": 0})
    for name in workload.exercises:
        if spans.get(name, {"calls": 0})["calls"] == 0:
            total.problems.append(f"{name}: no calls recorded on {workload.name}")

    metrics = layer_metrics(light, full, fan, passes["serial"][0], passes["traced"][0])
    samples = {"golden": golden is not None,
               "call_paths": {"serial": light.call_paths(), "traced": full.call_paths(),
                              "fanout": fan.call_paths()},
               "counters": {"traced": dict(full.counters), "fanout": dict(fan.counters)}}
    return metrics, total, samples


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gaplab" / "cli.py").is_file():
        print(f"perfbench: no gaplab source under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / WORK_DIR / f"{workload.name}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    env = environment(args.seed)

    if args.trace:
        wanted = PER_LAYER
        metrics, total, samples = trace(root, workload, args.seed, work)
    else:
        wanted = END_TO_END
        metrics, total, samples = measure(root, workload, args.seed, args.seconds, work)

    correct = total.failed == 0 and not total.problems
    result = {
        "correct": correct,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in wanted.items()},
    }
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(
        {"environment": env, "workload": workload.name, "result": result,
         "problems": total.problems, "samples": samples}, indent=1) + "\n")

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"golden={'yes' if samples['golden'] else 'no'} "
          f"reps={samples.get('repetitions', 1)}")
    for name, (unit, better) in wanted.items():
        print(f"  {name:<50} {metrics[name]:>14.6g} {unit:<6} ({better} is better)")
    if not args.trace:
        print(f"  {'fail_share':<50} {total.failed / total.attempted:>14.6g} share")
    for problem in total.problems:
        print(f"  problem: {problem}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
