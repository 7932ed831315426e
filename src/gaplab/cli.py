"""Command-line entry point: experiment dispatch, CSV/JSON results, run manifest.

Every result file embeds the master seed and a hash of the resolved
experiment spec; re-running a command with the same spec and seed emits a
byte-identical body.  Timestamps live only in the per-invocation manifest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import platform
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np
import scipy

from . import __version__
from .concepts import (
    ProjectionClass,
    class_from_json_dict,
    enumerated_domain,
    full_hypercube,
    vc_dimension_bruteforce,
)
from .distributions import (
    PneFamily,
    RngSeed,
    distribution_from_json_dict,
    geometric_finite,
    make_pne,
    uniform_finite,
)
from .errors import GaplabError, InvalidParameterError
from .mc_harness import (
    TrialConfig,
    config_from_json_dict,
    estimate_failure_prob,
    in_theorem_regime,
    ks_statistics_experiment,
    lower_bound_experiment,
    lower_bound_m,
    no_gap_experiment,
    resolve_workers,
    sample_complexity_search,
    trial_pool,
    FixedTarget,
    RandomPair,
    RandomConcept,
)
from .metric_cover import (
    benedek_itai_m,
    corollary_m,
    dudley_cover_bound,
    greedy_packing_cover,
    sauer_bound,
    sauer_estimate,
)

DEFAULT_SEED = 0x5EED5EED
DEFAULT_SEPARATION_NS = tuple(2**k for k in range(4, 17))

SEPARATION_LEARNERS = ("erm", "cover", "bayes-posterior")

TRIALS = click.IntRange(min=1)


def fmt_float(x: float) -> str:
    """9 significant digits; probabilities strictly inside (0,1) never print as 0 or 1."""
    s = f"{x:.9g}"
    if 0.0 < x < 1.0 and float(s) in (0.0, 1.0):
        s = repr(x)
    return s


def fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_float(v)
    return str(v)


def spec_hash(resolved: dict | list) -> str:
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class CLIContext:
    seed: int
    trials: int | None
    out: str | None
    fmt: str
    threads: int

    started_at: str = ""
    outputs: list[str] | None = None

    def record_output(self, path: str):
        if self.outputs is None:
            self.outputs = []
        self.outputs.append(path)


def _write_table(path: Path, header: list[str], rows: list[dict], fmt: str, meta: dict):
    """Write rows as CSV (header order) or JSON (same ordering, plus meta)."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_cell(row[h]) for h in header])
        path.write_text(buf.getvalue())
    else:
        doc = dict(meta)
        doc["rows"] = [{h: row[h] for h in header} for row in rows]
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _emit(ctx_obj: CLIContext, kind: str, header: list[str], rows: list[dict], resolved) -> Path:
    h = spec_hash(resolved)
    for row in rows:
        row["seed"] = ctx_obj.seed
        row["spec_hash"] = h
    header = header + ["seed", "spec_hash"]
    ext = "csv" if ctx_obj.fmt == "csv" else "json"
    path = Path(ctx_obj.out or f"{kind}.{ext}")
    meta = {"seed": ctx_obj.seed, "spec_hash": h, "kind": kind}
    _write_table(path, header, rows, ctx_obj.fmt, meta)
    ctx_obj.record_output(str(path))
    click.echo(f"wrote {path} ({len(rows)} row{'s' if len(rows) != 1 else ''})")
    return path


def _write_manifest(ctx_obj: CLIContext, resolved) -> None:
    outputs = ctx_obj.outputs or []
    target = Path(outputs[0]) if outputs else Path("run")
    manifest_path = target.with_suffix(".manifest.json")
    doc = {
        "tool_version": __version__,
        "spec_hash": spec_hash(resolved),
        "master_seed": ctx_obj.seed,
        "started_at": ctx_obj.started_at,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
        "workers": resolve_workers(ctx_obj.threads),
        "cpu_count": os.cpu_count(),
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
    }
    manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    click.echo(f"manifest: {manifest_path}")


def _load_config_entries(config: str | None) -> list[dict]:
    if config is None:
        return [{}]
    obj = json.loads(Path(config).read_text())
    if isinstance(obj, dict):
        return [obj]
    if isinstance(obj, list) and all(isinstance(e, dict) for e in obj):
        return obj
    raise InvalidParameterError("config must be a JSON object or a list of objects")


def _single_config_entry(command: str, config: str | None) -> dict:
    """The one config entry of a command that runs a single spec."""
    entries = _load_config_entries(config)
    if len(entries) != 1:
        raise InvalidParameterError(
            f"{command} takes one config entry, the config has {len(entries)}"
        )
    return entries[0]


def _resolve(ctx: click.Context, name: str, entry: dict, flag_value):
    """Precedence: explicit command-line flag > config entry > env/default flag value."""
    source = ctx.get_parameter_source(name)
    if source is not None and source.name == "COMMANDLINE":
        return flag_value
    if name in entry:
        return entry[name]
    return flag_value


def _handle_errors(fn):
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (InvalidParameterError, json.JSONDecodeError) as exc:
            click.echo(f"spec error: {exc}", err=True)
            sys.exit(2)
        except click.ClickException:
            raise
        except GaplabError as exc:
            click.echo(f"runtime failure: {exc}", err=True)
            sys.exit(3)
        except Exception as exc:
            if os.environ.get("GAPLAB_DEBUG") == "1":
                raise
            click.echo(f"runtime failure: {exc}", err=True)
            sys.exit(3)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@click.group()
@click.option("--seed", type=int, envvar="GAPLAB_SEED", default=DEFAULT_SEED,
              show_default=True, help="Master seed (GAPLAB_SEED as fallback).")
@click.option("--trials", type=TRIALS, default=None, help="Override trial counts.")
@click.option("--out", type=str, default=None, help="Output file path.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True, help="Result format.")
@click.option("--threads", type=click.IntRange(min=0), default=1, show_default=True,
              help="Worker processes for trials (0 = auto).")
@click.version_option(version=__version__)
@click.pass_context
def main(ctx, seed, trials, out, fmt, threads):
    """Simulation lab for fixed-distribution vs distribution-independent PAC learning."""
    ctx.obj = CLIContext(
        seed=seed,
        trials=trials,
        out=out,
        fmt=fmt,
        threads=threads,
        started_at=datetime.now(timezone.utc).isoformat(),
    )
    ctx.with_resource(trial_pool(threads))


@main.command()
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--n", type=int, default=1024, show_default=True)
@click.option("--eps", type=float, default=0.05, show_default=True,
              help="Distribution parameter of the product family.")
@click.option("--i", "i_special", type=int, default=1, show_default=True)
@click.option("--level", type=float, default=None,
              help="Cover level (default 2*eps).")
@click.option("--class-json", type=str, default=None,
              help="Explicit class JSON (table classes).")
@click.option("--dist-json", type=str, default=None,
              help="Explicit distribution JSON.")
@click.pass_context
@_handle_errors
def cover(ctx, config, n, eps, i_special, level, class_json, dist_json):
    """Build the greedy packing cover and report it next to the Dudley bound."""
    obj: CLIContext = ctx.obj
    rows, resolved = [], []
    for entry in _load_config_entries(config):
        e_n = int(_resolve(ctx, "n", entry, n))
        e_eps = float(_resolve(ctx, "eps", entry, eps))
        e_i = int(_resolve(ctx, "i_special", entry, i_special))
        e_level = _resolve(ctx, "level", entry, level)
        e_class = _resolve(ctx, "class_json", entry, class_json)
        e_dist = _resolve(ctx, "dist_json", entry, dist_json)
        if e_class or e_dist:
            if not (e_class and e_dist):
                raise InvalidParameterError("give both --class-json and --dist-json")
            cls = class_from_json_dict(json.loads(e_class) if isinstance(e_class, str) else e_class)
            dist = distribution_from_json_dict(json.loads(e_dist) if isinstance(e_dist, str) else e_dist)
            if isinstance(dist, PneFamily):
                raise InvalidParameterError("cover needs a concrete distribution")
            if e_level is None:
                raise InvalidParameterError("--level is required for explicit specs")
        else:
            cls = ProjectionClass(e_n)
            dist = make_pne(e_n, e_eps, e_i)
            if e_level is None:
                e_level = 2.0 * e_eps
        e_level = float(e_level)
        result = greedy_packing_cover(cls, dist, e_level)
        if isinstance(cls, ProjectionClass):
            d_vc = cls.n.bit_length() - 1
        else:
            d_vc = vc_dimension_bruteforce(cls)
        bound = dudley_cover_bound(e_level, d_vc)
        spec = {
            "kind": "cover", "class": cls.to_json_dict(), "dist": dist.to_json_dict(),
            "level": e_level, "seed": obj.seed,
        }
        resolved.append(spec)
        rows.append({
            "class_kind": cls.to_json_dict()["kind"],
            "num_concepts": cls.num_concepts,
            "level": e_level,
            "size": result.size,
            "members": "|".join(str(ix) for ix in result.member_indices()),
            "certificate": result.certificate,
            "vc_dim": d_vc,
            "dudley_log": bound.log_value,
            "dudley_value": bound.value,
        })
    header = ["class_kind", "num_concepts", "level", "size", "members",
              "certificate", "vc_dim", "dudley_log", "dudley_value"]
    _emit(obj, "cover", header, rows, resolved)
    _write_manifest(obj, resolved)


@main.command()
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--n", type=int, default=8, show_default=True)
@click.option("--universe", type=click.Choice(["full", "default"]), default="full",
              show_default=True, help="full = all 2^n points (n <= 20).")
@click.option("--d-max", type=int, default=None)
@click.option("--class-json", type=str, default=None)
@click.pass_context
@_handle_errors
def vc(ctx, config, n, universe, d_max, class_json):
    """Brute-force VC dimension over an explicit universe."""
    obj: CLIContext = ctx.obj
    rows, resolved = [], []
    for entry in _load_config_entries(config):
        e_n = int(_resolve(ctx, "n", entry, n))
        e_universe = _resolve(ctx, "universe", entry, universe)
        e_dmax = _resolve(ctx, "d_max", entry, d_max)
        e_class = _resolve(ctx, "class_json", entry, class_json)
        if e_class:
            cls = class_from_json_dict(json.loads(e_class) if isinstance(e_class, str) else e_class)
            points = None
        else:
            cls = ProjectionClass(e_n)
            points = full_hypercube(e_n) if e_universe == "full" else None
        dim = vc_dimension_bruteforce(cls, points, e_dmax)
        spec = {"kind": "vc", "class": cls.to_json_dict(), "universe": e_universe,
                "d_max": e_dmax, "seed": obj.seed}
        resolved.append(spec)
        rows.append({
            "class_kind": cls.to_json_dict()["kind"],
            "num_concepts": cls.num_concepts,
            "universe": e_universe if not e_class else "default",
            "dimension": dim,
        })
    _emit(obj, "vc", ["class_kind", "num_concepts", "universe", "dimension"], rows, resolved)
    _write_manifest(obj, resolved)


def _target_from_string(s: str):
    if s == "random-pair":
        return RandomPair()
    if s == "random-concept":
        return RandomConcept()
    if s.startswith("fixed:"):
        return FixedTarget(int(s.split(":", 1)[1]))
    raise InvalidParameterError(f"bad target spec {s!r}; use fixed:<i>, random-pair, random-concept")


@main.command()
@click.option("--config", type=click.Path(exists=True), default=None,
              help="TrialConfig JSON (object or list).")
@click.option("--n", type=int, default=256, show_default=True)
@click.option("--eps", type=float, default=0.1, show_default=True)
@click.option("--target", type=str, default="random-pair", show_default=True)
@click.option("--learner", type=click.Choice(["erm", "cover", "bayes-posterior"]),
              default="erm", show_default=True)
@click.option("--m", type=int, default=10, show_default=True)
@click.option("--eps-acc", type=float, default=0.0625, show_default=True)
@click.option("--gamma", type=float, default=0.01, show_default=True)
@click.option("--trials", type=TRIALS, default=2000, show_default=True)
@click.pass_context
@_handle_errors
def learn(ctx, config, n, eps, target, learner, m, eps_acc, gamma, trials):
    """Estimate a learner's failure probability for one trial configuration."""
    obj: CLIContext = ctx.obj
    rows, resolved = [], []
    for entry in _load_config_entries(config):
        if set(entry) & {"class", "dist", "target"}:
            entry = dict(entry)
            entry.setdefault("seed", {"master": obj.seed})
            entry.setdefault("trials", obj.trials or trials)
            entry.setdefault("eps_acc", eps_acc)
            entry.setdefault("m", m)
            entry.setdefault("learner", learner)
            entry.setdefault("gamma", gamma)
            cfg = config_from_json_dict(entry)
        else:
            e_n = int(_resolve(ctx, "n", entry, n))
            e_eps = float(_resolve(ctx, "eps", entry, eps))
            e_target = _target_from_string(str(_resolve(ctx, "target", entry, target)))
            e_learner = str(_resolve(ctx, "learner", entry, learner))
            e_m = int(_resolve(ctx, "m", entry, m))
            e_acc = float(_resolve(ctx, "eps_acc", entry, eps_acc))
            e_gamma = float(_resolve(ctx, "gamma", entry, gamma))
            e_trials = obj.trials or int(_resolve(ctx, "trials", entry, trials))
            dist = (
                PneFamily(e_n, e_eps)
                if isinstance(e_target, RandomPair)
                else make_pne(e_n, e_eps, 1)
            )
            cfg = TrialConfig(
                concept_class=ProjectionClass(e_n),
                dist=dist,
                target=e_target,
                learner=e_learner,
                m=e_m,
                eps_acc=e_acc,
                trials=e_trials,
                seed=RngSeed(obj.seed),
                gamma=e_gamma,
            )
        est = estimate_failure_prob(cfg, obj.threads)
        resolved.append({"kind": "learn", "config": cfg.to_json_dict()})
        rows.append({
            "learner": cfg.learner,
            "m": cfg.m,
            "eps_acc": cfg.eps_acc,
            "trials": cfg.trials,
            "gamma": cfg.gamma,
            "failures": round(est.estimate * cfg.trials),
            "estimate": est.estimate,
            "radius": est.radius,
            "ci_low": est.lower,
            "ci_high": est.upper,
        })
    header = ["learner", "m", "eps_acc", "trials", "gamma", "failures",
              "estimate", "radius", "ci_low", "ci_high"]
    _emit(obj, "learn", header, rows, resolved)
    _write_manifest(obj, resolved)


@main.command()
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--n-list", type=str, default=",".join(str(v) for v in DEFAULT_SEPARATION_NS),
              show_default=True, help="Comma-separated hypercube dimensions.")
@click.option("--eps", type=float, default=0.1, show_default=True)
@click.option("--eps-acc", type=float, default=1.0 / 16.0, show_default=True)
@click.option("--delta", type=float, default=1.0 / 16.0, show_default=True)
@click.option("--learners", type=str, default="erm,cover", show_default=True)
@click.option("--trials", type=TRIALS, default=4000, show_default=True)
@click.option("--m-max", type=int, default=4096, show_default=True)
@click.pass_context
@_handle_errors
def separation(ctx, config, n_list, eps, eps_acc, delta, learners, trials, m_max):
    """Empirical sample-size curve per learner across n: the separation run."""
    obj: CLIContext = ctx.obj
    entry = _single_config_entry("separation", config)
    ns = [int(v) for v in str(_resolve(ctx, "n_list", entry, n_list)).split(",") if v]
    e_eps = float(_resolve(ctx, "eps", entry, eps))
    e_acc = float(_resolve(ctx, "eps_acc", entry, eps_acc))
    e_delta = float(_resolve(ctx, "delta", entry, delta))
    learner_list = [s for s in str(_resolve(ctx, "learners", entry, learners)).split(",") if s]
    e_trials = obj.trials or int(_resolve(ctx, "trials", entry, trials))
    e_mmax = int(_resolve(ctx, "m_max", entry, m_max))
    if not ns:
        raise InvalidParameterError("n list must not be empty")
    if not learner_list:
        raise InvalidParameterError("learner list must not be empty")
    for name in learner_list:
        if name not in SEPARATION_LEARNERS:
            raise InvalidParameterError(f"unknown separation learner {name!r}")
    resolved = {
        "kind": "separation", "n_list": ns, "eps": e_eps, "eps_acc": e_acc,
        "delta": e_delta, "learners": learner_list, "trials": e_trials,
        "m_max": e_mmax, "seed": obj.seed,
    }
    rows = []
    base = RngSeed(obj.seed)
    for n in ns:
        for li, learner in enumerate(learner_list):
            cfg = TrialConfig(
                concept_class=ProjectionClass(n),
                dist=PneFamily(n, e_eps),
                target=RandomPair(),
                learner=learner,
                m=1,
                eps_acc=e_acc,
                trials=e_trials,
                seed=base.substream(n).substream(li),
            )
            result = sample_complexity_search(cfg, e_delta, e_mmax, obj.threads)
            est = result.estimate_at(result.m_star)
            unresolved = ";".join(str(v) for v in result.unresolved_ms)
            if unresolved:
                click.echo(
                    f"warning: unresolved m values for n={n} {learner}: {unresolved}",
                    err=True,
                )
            rows.append({
                "n": n,
                "learner": learner,
                "m_star": result.m_star,
                "ci_low": est.lower,
                "ci_high": est.upper,
                "m_low": result.bracket[0],
                "unresolved": unresolved,
                "trials": e_trials,
            })
    header = ["n", "learner", "m_star", "ci_low", "ci_high", "m_low", "unresolved", "trials"]
    _emit(obj, "separation", header, rows, resolved)
    _write_manifest(obj, resolved)


@main.command("lower-bound")
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--n", type=int, default=1 << 17, show_default=True)
@click.option("--eps", type=float, default=0.2, show_default=True)
@click.option("--learner", type=click.Choice(["erm", "bayes-posterior", "cover"]),
              default="bayes-posterior", show_default=True)
@click.option("--trials", type=TRIALS, default=20000, show_default=True)
@click.option("--gamma", type=float, default=0.01, show_default=True)
@click.pass_context
@_handle_errors
def lower_bound(ctx, config, n, eps, learner, trials, gamma):
    """The matched-pair failure experiment at m = floor(ln n / (3 ln(1/eps)))."""
    obj: CLIContext = ctx.obj
    rows, resolved = [], []
    for entry in _load_config_entries(config):
        e_n = int(_resolve(ctx, "n", entry, n))
        e_eps = float(_resolve(ctx, "eps", entry, eps))
        e_learner = str(_resolve(ctx, "learner", entry, learner))
        e_trials = obj.trials or int(_resolve(ctx, "trials", entry, trials))
        e_gamma = float(_resolve(ctx, "gamma", entry, gamma))
        est = lower_bound_experiment(
            e_n, e_eps, e_learner, e_trials, RngSeed(obj.seed), e_gamma, obj.threads
        )
        m = lower_bound_m(e_n, e_eps)
        spec = {"kind": "lower-bound", "n": e_n, "eps": e_eps, "learner": e_learner,
                "trials": e_trials, "gamma": e_gamma, "seed": obj.seed}
        resolved.append(spec)
        rows.append({
            "n": e_n,
            "eps": e_eps,
            "m": m,
            "learner": e_learner,
            "eps_acc": 1.0 / 16.0,
            "trials": e_trials,
            "estimate": est.estimate,
            "radius": est.radius,
            "ci_low": est.lower,
            "ci_high": est.upper,
            "above_one_sixteenth": est.lower > 1.0 / 16.0,
            "outside_regime": not in_theorem_regime(e_n, e_eps),
        })
    header = ["n", "eps", "m", "learner", "eps_acc", "trials", "estimate",
              "radius", "ci_low", "ci_high", "above_one_sixteenth", "outside_regime"]
    _emit(obj, "lower-bound", header, rows, resolved)
    _write_manifest(obj, resolved)


@main.command("ks-stats")
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--n", type=int, default=1 << 17, show_default=True)
@click.option("--eps", type=float, default=0.2, show_default=True)
@click.option("--m", type=int, default=None, help="Defaults to the lower-bound budget.")
@click.option("--trials", type=TRIALS, default=20000, show_default=True)
@click.option("--gamma", type=float, default=0.01, show_default=True)
@click.pass_context
@_handle_errors
def ks_stats(ctx, config, n, eps, m, trials, gamma):
    """Concentration of the candidate-set size K and the ratio S/K."""
    obj: CLIContext = ctx.obj
    rows, resolved = [], []
    for entry in _load_config_entries(config):
        e_n = int(_resolve(ctx, "n", entry, n))
        e_eps = float(_resolve(ctx, "eps", entry, eps))
        e_m = _resolve(ctx, "m", entry, m)
        e_m = lower_bound_m(e_n, e_eps) if e_m is None else int(e_m)
        e_trials = obj.trials or int(_resolve(ctx, "trials", entry, trials))
        e_gamma = float(_resolve(ctx, "gamma", entry, gamma))
        summary = ks_statistics_experiment(
            e_n, e_eps, e_m, e_trials, RngSeed(obj.seed), e_gamma, obj.threads
        )
        spec = {"kind": "ks-stats", "n": e_n, "eps": e_eps, "m": e_m,
                "trials": e_trials, "gamma": e_gamma, "seed": obj.seed}
        resolved.append(spec)
        hist = ";".join(
            f"{summary.sk_hist_edges[i]:.3f}:{summary.sk_hist_counts[i]}"
            for i in range(len(summary.sk_hist_counts))
            if summary.sk_hist_counts[i]
        )
        rows.append({
            "n": e_n,
            "eps": e_eps,
            "m": e_m,
            "trials": e_trials,
            "ratio_lo": summary.ratio_band[0],
            "ratio_hi": summary.ratio_band[1],
            "ratio_freq": summary.ratio_in_band.estimate,
            "ratio_radius": summary.ratio_in_band.radius,
            "k_threshold": summary.k_threshold,
            "k_tail_freq": summary.k_tail.estimate,
            "k_tail_radius": summary.k_tail.radius,
            "k_min": summary.k_quantiles[0],
            "k_q25": summary.k_quantiles[1],
            "k_median": summary.k_quantiles[2],
            "k_q75": summary.k_quantiles[3],
            "k_max": summary.k_quantiles[4],
            "sk_hist": hist,
        })
    header = ["n", "eps", "m", "trials", "ratio_lo", "ratio_hi", "ratio_freq",
              "ratio_radius", "k_threshold", "k_tail_freq", "k_tail_radius",
              "k_min", "k_q25", "k_median", "k_q75", "k_max", "sk_hist"]
    _emit(obj, "ks-stats", header, rows, resolved)
    _write_manifest(obj, resolved)


@main.command("no-gap")
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--domain-size", type=int, default=8, show_default=True)
@click.option("--dist", "dist_kind", type=click.Choice(["uniform", "geometric"]),
              default="uniform", show_default=True)
@click.option("--dist-json", type=str, default=None)
@click.option("--m-grid", type=str, default=None,
              help="Comma-separated sizes; default 1 .. 2 * domain size.")
@click.option("--eps-acc", type=float, default=0.1, show_default=True)
@click.option("--trials", type=TRIALS, default=5000, show_default=True)
@click.pass_context
@_handle_errors
def no_gap(ctx, config, domain_size, dist_kind, dist_json, m_grid, eps_acc, trials):
    """Memorizer error vs missing mass on the all-functions class."""
    obj: CLIContext = ctx.obj
    rows, resolved = [], []
    for entry in _load_config_entries(config):
        e_d = int(_resolve(ctx, "domain_size", entry, domain_size))
        e_kind = str(_resolve(ctx, "dist_kind", entry, dist_kind))
        e_json = _resolve(ctx, "dist_json", entry, dist_json)
        e_grid = _resolve(ctx, "m_grid", entry, m_grid)
        e_acc = float(_resolve(ctx, "eps_acc", entry, eps_acc))
        e_trials = obj.trials or int(_resolve(ctx, "trials", entry, trials))
        if e_json:
            dist = distribution_from_json_dict(
                json.loads(e_json) if isinstance(e_json, str) else e_json
            )
            e_d = len(dist.support)
        else:
            domain = enumerated_domain(e_d)
            dist = uniform_finite(domain) if e_kind == "uniform" else geometric_finite(domain)
        grid = (
            [int(v) for v in str(e_grid).split(",") if v]
            if e_grid
            else list(range(1, 2 * e_d + 1))
        )
        table = no_gap_experiment(
            dist, grid, e_trials, e_acc, RngSeed(obj.seed), threads=obj.threads
        )
        spec = {"kind": "no-gap", "dist": dist.to_json_dict(), "m_grid": grid,
                "eps_acc": e_acc, "trials": e_trials, "seed": obj.seed}
        resolved.append(spec)
        for row in table:
            rows.append({
                "domain_size": e_d,
                "dist": e_kind if not e_json else "custom",
                "m": row.m,
                "trials": row.trials,
                "violations": row.violations,
                "threshold": row.threshold,
                "z_ge_rate": row.z_ge_rate.estimate,
                "fail_rate": row.fail_rate.estimate,
                "mean_missing_mass": row.mean_missing_mass,
            })
    header = ["domain_size", "dist", "m", "trials", "violations", "threshold",
              "z_ge_rate", "fail_rate", "mean_missing_mass"]
    _emit(obj, "no-gap", header, rows, resolved)
    _write_manifest(obj, resolved)


@main.command()
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--cover-size", "-N", "cover_size", type=int, default=2, show_default=True)
@click.option("--eps", type=float, default=0.2, show_default=True)
@click.option("--delta", type=float, default=0.1, show_default=True)
@click.option("--d", type=int, default=3, show_default=True)
@click.option("--k", "k_size", type=int, default=10, show_default=True)
@click.pass_context
@_handle_errors
def bounds(ctx, config, cover_size, eps, delta, d, k_size):
    """Pure arithmetic report of the cover/sample-size formulas (always JSON)."""
    obj: CLIContext = ctx.obj
    entry = _single_config_entry("bounds", config)
    e_n = int(_resolve(ctx, "cover_size", entry, cover_size))
    e_eps = float(_resolve(ctx, "eps", entry, eps))
    e_delta = float(_resolve(ctx, "delta", entry, delta))
    e_d = int(_resolve(ctx, "d", entry, d))
    e_k = int(_resolve(ctx, "k_size", entry, k_size))
    dudley = dudley_cover_bound(e_eps, e_d)
    doc = {
        "inputs": {"N": e_n, "eps": e_eps, "delta": e_delta, "d": e_d, "K": e_k},
        "benedek_itai_m": benedek_itai_m(e_n, e_eps, e_delta),
        "corollary_m": corollary_m(e_eps, e_delta) if 0 < e_eps < 0.5 else None,
        "dudley_value": dudley.value,
        "dudley_log": dudley.log_value,
        "sauer_bound": sauer_bound(e_k, e_d),
        "sauer_estimate": sauer_estimate(e_k, e_d) if 1 <= e_d <= e_k else None,
        "seed": obj.seed,
    }
    doc["spec_hash"] = spec_hash({"kind": "bounds", **doc["inputs"], "seed": obj.seed})
    out = obj.out or "bounds.json"
    Path(out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    obj.record_output(out)
    click.echo(f"wrote {out}")
    _write_manifest(obj, {"kind": "bounds", **doc["inputs"], "seed": obj.seed})


if __name__ == "__main__":
    main()
