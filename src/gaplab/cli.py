"""Command-line entry point: experiment dispatch, CSV/JSON results, run manifest.

Every result file embeds the master seed and a hash of the resolved
experiment spec; re-running a command with the same spec and seed emits a
byte-identical body.  Timestamps live only in the per-invocation manifest.

Each subcommand is one row of COMMANDS: its flags, a runner and its CSV
header.  A runner checks and builds one config entry and returns its spec
and rows(), which runs the trials, the cover scan or the VC search.  One
builder turns every row into a click command that resolves every entry,
then builds every entry, then runs them, so a bad entry anywhere is a spec
error before any work; config loading, flag resolution, the global --trials
override, output and the manifest are shared by all commands.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
import platform
import sys
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable

import click
import numpy as np
import scipy

from . import __version__
from .concepts import (
    ProjectionClass,
    TableClass,
    check_vc_search,
    class_from_json_dict,
    enumerated_domain,
    full_hypercube,
    vc_dimension_bruteforce,
)
from .distributions import (
    FiniteSupportDistribution,
    PneFamily,
    RngSeed,
    distribution_from_json_dict,
    geometric_finite,
    make_pne,
    uniform_finite,
)
from .errors import SPEC_FIELDS, GaplabError, InvalidParameterError, spec_value
from .mc_harness import (
    TrialConfig,
    config_from_json_dict,
    estimate_failure_prob,
    in_theorem_regime,
    ks_statistics_experiment,
    lower_bound_config,
    lower_bound_experiment,
    lower_bound_m,
    matched_pair_config,
    no_gap_configs,
    no_gap_experiment,
    sample_complexity_search,
    TrialPool,
    FixedTarget,
    RandomPair,
    RandomConcept,
)
from .metric_cover import (
    benedek_itai_m,
    build_cover,
    corollary_m,
    dudley_cover_bound,
    oracle_positions,
    sauer_bound,
    sauer_estimate,
)

DEFAULT_SEED = 0x5EED5EED
DEFAULT_SEPARATION_NS = tuple(2**k for k in range(4, 17))

SEPARATION_LEARNERS = ("erm", "cover", "bayes-posterior")


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
    pool: TrialPool

    started_at: str = ""


def _write_table(obj: CLIContext, kind: str, header: tuple[str, ...], rows: list[tuple],
                 digest: str) -> Path:
    """Write rows (tuples in header order) as CSV, or as JSON with the meta fields."""
    header = (*header, "seed", "spec_hash")
    records = [dict(zip(header, (*row, obj.seed, digest), strict=True)) for row in rows]
    path = Path(obj.out or f"{kind}.{obj.fmt}")
    if obj.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([fmt_cell(v) for v in rec.values()] for rec in records)
        path.write_text(buf.getvalue())
    else:
        doc = {"seed": obj.seed, "spec_hash": digest, "kind": kind, "rows": records}
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _write_report(obj: CLIContext, kind: str, header: tuple[str, ...], rows: list[dict],
                  digest: str) -> Path:
    """Write the one row, a dict, as a JSON document whatever --format says."""
    (doc,) = rows
    doc["seed"] = obj.seed
    doc["spec_hash"] = digest
    path = Path(obj.out or f"{kind}.json")
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _write_manifest(ctx_obj: CLIContext, resolved, output: Path) -> None:
    manifest_path = output.with_suffix(".manifest.json")
    doc = {
        "tool_version": __version__,
        "spec_hash": spec_hash(resolved),
        "master_seed": ctx_obj.seed,
        "started_at": ctx_obj.started_at,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "outputs": [str(output)],
        "workers": ctx_obj.pool.workers,
        "cpu_count": os.cpu_count(),
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
    }
    manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    click.echo(f"manifest: {manifest_path}")


def _check_out(out: str | None) -> None:
    """Refuse an --out path no result can be written to, before any trial runs."""
    if out is not None and Path(out).is_dir():
        raise InvalidParameterError(f"--out {out!r} is a directory")
    if out is not None and not Path(out).parent.is_dir():
        raise InvalidParameterError(f"--out {out!r}: no directory {str(Path(out).parent)!r}")


def _load_config_entries(config: str | None) -> list[dict]:
    if config is None:
        return [{}]
    obj = json.loads(Path(config).read_text())
    if isinstance(obj, dict):
        return [obj]
    if isinstance(obj, list) and all(isinstance(e, dict) for e in obj):
        return obj
    raise InvalidParameterError("config must be a JSON object or a list of objects")


class JsonText(click.ParamType):
    """JSON given as text on the command line, or already parsed in a config file."""

    name = "text"

    def convert(self, value, param, ctx):
        if not isinstance(value, str):
            return value
        try:
            return json.loads(value)
        except json.JSONDecodeError as exc:
            self.fail(f"invalid JSON: {exc}", param, ctx)


JSON_TEXT = JsonText()


@dataclass(frozen=True)
class Command:
    """One subcommand: its flags, how it builds and runs one config entry, and
    how it writes.

    `run(obj, **values)` takes the typed values of one config entry, keyed by
    flag name, checks them, builds what the entry runs on, and returns
    (resolved spec, rows); its docstring is the help.  `rows()` runs the
    entry and returns an iterable of its rows.  Every entry is resolved,
    then built, before the first runs, so a spec error comes before any
    trial, and what building loads (scipy.special for the posterior rule)
    loads before the pool forks.
    `write` gets the rows of all entries: for `_write_table`, tuples in
    header order.
    """

    name: str
    options: tuple[click.Option, ...]
    run: Callable[..., tuple[dict, Callable[[], Iterable]]]
    header: tuple[str, ...] = ()
    # The command runs one spec: its config holds one entry, and the
    # resolved spec is that entry's spec rather than a list of them.
    single: bool = False
    write: Callable[..., Path] = _write_table
    config_help: str | None = None
    # An entry holding any of these keys is a whole document, not flag
    # values: it reaches the runner as `document`, and the flags keep their
    # command-line or default values.
    document_keys: frozenset[str] = frozenset()


def _resolve_entry(ctx: click.Context, cmd: Command, entry: dict) -> dict:
    """Typed values of one entry; precedence: command-line flag > config entry > default.

    Config keys are the flag names.  A numeric value is read by its spec-field
    row (None is the flag's default), not by click's int(), which truncates
    2.7 and True; any other by its flag's click type.  The global --trials
    wins over all three, and over the `trials` of a document.
    """
    document = entry if cmd.document_keys & entry.keys() else None
    flat = {} if document is not None else entry
    params = {p.name: p for p in ctx.command.params if p.name != "config"}
    unknown = [key for key in flat if key not in params]
    if unknown:
        raise InvalidParameterError(
            f"{cmd.name} config has unknown key {', '.join(map(repr, unknown))}; "
            "config keys are the flag names"
        )
    values = {}
    for name, param in params.items():
        if name == "trials" and ctx.obj.trials is not None:
            values[name] = ctx.obj.trials
        elif name in flat and (
            ctx.get_parameter_source(name) is not click.core.ParameterSource.COMMANDLINE
        ):
            if name in SPEC_FIELDS:
                value = spec_value(name, flat[name], f"{cmd.name} config")
                values[name] = param.default if value is None else value
                continue
            try:
                values[name] = param.type_cast_value(ctx, flat[name])
            except click.BadParameter as exc:
                raise InvalidParameterError(
                    f"{cmd.name} config key {name!r}: {exc.message}"
                ) from None
        else:
            values[name] = ctx.params[name]
    if document is not None:
        if ctx.obj.trials is not None:
            document = {**document, "trials": ctx.obj.trials}
        values["document"] = document
    return values


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
            # A MemoryError, for one, has no text: name its type instead.
            click.echo(f"runtime failure: {str(exc) or type(exc).__name__}", err=True)
            sys.exit(3)

    return wrapper


def _check_flag(ctx: click.Context, param: click.Parameter, value):
    """A flag's value, checked against its spec-field row if it has one."""
    if value is None or param.name not in SPEC_FIELDS:
        return value
    try:
        return spec_value(param.name, value, label=param.opts[0])
    except InvalidParameterError as exc:
        raise click.BadParameter(str(exc), ctx, param) from None


@click.group()
@click.option("--seed", type=int, envvar="GAPLAB_SEED", default=DEFAULT_SEED,
              callback=_check_flag, show_default=True,
              help="Master seed (GAPLAB_SEED as fallback).")
@click.option("--trials", type=int, default=None, callback=_check_flag,
              help="Override trial counts.")
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
        pool=ctx.with_resource(TrialPool(threads)),
        started_at=datetime.now(timezone.utc).isoformat(),
    )


def _run_cover(obj: CLIContext, n, eps, i, level, class_json, dist_json):
    """Build the greedy packing cover and report it next to the Dudley bound."""
    if class_json or dist_json:
        if not (class_json and dist_json):
            raise InvalidParameterError("give both --class-json and --dist-json")
        cls = class_from_json_dict(class_json, "class_json", "cover")
        dist = distribution_from_json_dict(dist_json, "dist_json", "cover")
        if level is None:
            raise InvalidParameterError("--level is required for explicit specs")
    else:
        cls = ProjectionClass(n)
        dist = make_pne(n, eps, i)
        if level is None:
            level = 2.0 * eps
    oracle_positions(cls, dist)
    if cls.num_concepts == 0:
        raise InvalidParameterError("cannot cover an empty class")
    if isinstance(cls, TableClass):
        check_vc_search(cls)
    spec = {
        "kind": "cover", "class": cls.to_json_dict(), "dist": dist.to_json_dict(),
        "level": level, "seed": obj.seed,
    }

    def rows():
        result = build_cover(cls, dist, level)
        d_vc = (vc_dimension_bruteforce(cls) if isinstance(cls, TableClass)
                else cls.n.bit_length() - 1)
        bound = dudley_cover_bound(level, d_vc)
        members = "|".join(map(str, result.members))
        return [(spec["class"]["kind"], cls.num_concepts, level, result.size, members,
                 result.certificate, d_vc, bound.log_value, bound.value)]

    return spec, rows


def _run_vc(obj: CLIContext, n, universe, d_max, class_json):
    """Brute-force VC dimension over an explicit universe."""
    cls = (class_from_json_dict(class_json, "class_json", "vc") if class_json
           else ProjectionClass(n))
    points = full_hypercube(n) if universe == "full" and not class_json else None
    check_vc_search(cls, None if points is None else len(points))
    spec = {"kind": "vc", "class": cls.to_json_dict(), "universe": universe,
            "d_max": d_max, "seed": obj.seed}
    shown = universe if not class_json else "default"
    return spec, lambda: [(spec["class"]["kind"], cls.num_concepts, shown,
                           vc_dimension_bruteforce(cls, points, d_max))]


def _int_list(flag: str, text: str) -> list[int]:
    """The integers of a comma-separated flag value; a bad one, or none at
    all, is a spec error that names the flag."""
    try:
        values = [int(v) for v in text.split(",") if v]
    except ValueError:
        raise InvalidParameterError(
            f"{flag} {text!r} is not a comma-separated list of integers"
        ) from None
    if not values:
        raise InvalidParameterError(f"{flag} {text!r} lists no integers")
    return values


def _target_from_string(s: str):
    if s == "random-pair":
        return RandomPair()
    if s == "random-concept":
        return RandomConcept()
    if s.startswith("fixed:"):
        index = s.split(":", 1)[1]
        try:
            return FixedTarget(int(index))
        except ValueError:
            raise InvalidParameterError(
                f"--target {s!r}: {index!r} is not a valid integer"
            ) from None
    raise InvalidParameterError(f"bad target spec {s!r}; use fixed:<i>, random-pair, random-concept")


def _run_learn(obj: CLIContext, n, eps, target, learner, m, eps_acc, gamma, trials,
               document=None):
    """Estimate a learner's failure probability for one trial configuration."""
    if document is not None:
        cfg = config_from_json_dict({
            "seed": {"master": obj.seed}, "trials": trials, "eps_acc": eps_acc,
            "m": m, "learner": learner, "gamma": gamma, **document,
        })
    else:
        tgt = _target_from_string(target)
        if isinstance(tgt, RandomPair):
            cfg = matched_pair_config(n, eps, learner, m, eps_acc, trials, RngSeed(obj.seed),
                                      gamma)
        else:
            cfg = TrialConfig(ProjectionClass(n), make_pne(n, eps, 1), tgt, learner, m,
                              eps_acc, trials, RngSeed(obj.seed), gamma)

    def rows():
        est = estimate_failure_prob(cfg, obj.pool)
        return [(cfg.learner, cfg.m, cfg.eps_acc, cfg.trials, cfg.gamma,
                 round(est.estimate * cfg.trials), est.estimate, est.radius, est.lower,
                 est.upper)]

    return {"kind": "learn", "config": cfg.to_json_dict()}, rows


def _run_separation(obj: CLIContext, n_list, eps, eps_acc, delta, learners, trials, m_max):
    """Empirical sample-size curve per learner across n: the separation run."""
    ns = [spec_value("n", n, label="--n-list") for n in _int_list("--n-list", n_list)]
    learner_list = [s for s in learners.split(",") if s]
    if not learner_list:
        raise InvalidParameterError("learner list must not be empty")
    for name in learner_list:
        if name not in SEPARATION_LEARNERS:
            raise InvalidParameterError(f"unknown separation learner {name!r}")
    spec = {
        "kind": "separation", "n_list": ns, "eps": eps, "eps_acc": eps_acc,
        "delta": delta, "learners": learner_list, "trials": trials,
        "m_max": m_max, "seed": obj.seed,
    }
    base = RngSeed(obj.seed)
    cells = [
        (n, learner, matched_pair_config(n, eps, learner, 1, eps_acc, trials,
                                         base.substream(n).substream(li)))
        for n in ns
        for li, learner in enumerate(learner_list)
    ]

    def rows():
        # Every search at once; rows and warnings still come in cell order.
        searches = [functools.partial(sample_complexity_search, cfg, delta, m_max, obj.pool)
                    for _, _, cfg in cells]
        for (n, learner, _), result in zip(cells, obj.pool.run_at_once(searches, trials)):
            est = result.estimate_at(result.m_star)
            unresolved = ";".join(str(v) for v in result.unresolved_ms)
            if unresolved:
                click.echo(
                    f"warning: unresolved m values for n={n} {learner}: {unresolved}",
                    err=True,
                )
            yield (n, learner, result.m_star, est.lower, est.upper, result.bracket[0],
                   unresolved, trials)

    return spec, rows


def _run_lower_bound(obj: CLIContext, n, eps, learner, trials, gamma):
    """The matched-pair failure experiment at m = floor(ln n / (3 ln(1/eps)))."""
    cfg = lower_bound_config(n, eps, learner, trials, RngSeed(obj.seed), gamma)
    spec = {"kind": "lower-bound", "n": n, "eps": eps, "learner": learner,
            "trials": trials, "gamma": gamma, "seed": obj.seed}

    def rows():
        with warnings.catch_warnings():
            # The regime warning is one line on stderr, as separation's are.
            warnings.simplefilter("always")
            warnings.showwarning = lambda message, *_: click.echo(f"warning: {message}",
                                                                  err=True)
            est = lower_bound_experiment(cfg, obj.pool)
        return [(n, eps, cfg.m, learner, cfg.eps_acc, trials,
                 est.estimate, est.radius, est.lower, est.upper,
                 est.lower > cfg.eps_acc, not in_theorem_regime(n, eps))]

    return spec, rows


def _run_ks_stats(obj: CLIContext, n, eps, m, trials, gamma):
    """Concentration of the candidate-set size K and the ratio S/K."""
    if m is None:
        m = lower_bound_m(n, eps)
    family = PneFamily(n, eps)
    spec = {"kind": "ks-stats", "n": n, "eps": eps, "m": m,
            "trials": trials, "gamma": gamma, "seed": obj.seed}

    def rows():
        summary = ks_statistics_experiment(family, m, trials, RngSeed(obj.seed), gamma,
                                           obj.pool)
        hist = ";".join(f"{edge:.3f}:{count}" for edge, count
                        in zip(summary.sk_hist_edges, summary.sk_hist_counts) if count)
        return [(n, eps, m, trials, *summary.ratio_band,
                 summary.ratio_in_band.estimate, summary.ratio_in_band.radius,
                 summary.k_threshold, summary.k_tail.estimate, summary.k_tail.radius,
                 *summary.k_quantiles, hist)]

    return spec, rows


def _run_no_gap(obj: CLIContext, domain_size, dist, dist_json, m_grid, eps_acc, trials):
    """Memorizer error vs missing mass on the all-functions class."""
    if dist_json:
        law = distribution_from_json_dict(dist_json, "dist_json", "no-gap")
        if not isinstance(law, FiniteSupportDistribution):
            raise InvalidParameterError("no-gap --dist-json needs a finite distribution")
        domain_size = len(law.support)
    else:
        domain = enumerated_domain(domain_size)
        law = uniform_finite(domain) if dist == "uniform" else geometric_finite(domain)
    grid = _int_list("--m-grid", m_grid) if m_grid else list(range(1, 2 * domain_size + 1))
    configs = no_gap_configs(law, grid, trials, eps_acc, RngSeed(obj.seed))
    spec = {"kind": "no-gap", "dist": law.to_json_dict(), "m_grid": grid,
            "eps_acc": eps_acc, "trials": trials, "seed": obj.seed}
    shown = dist if not dist_json else "custom"
    return spec, lambda: [
        (domain_size, shown, row.m, row.trials, row.violations, row.threshold,
         row.z_ge_rate.estimate, row.fail_rate.estimate, row.mean_missing_mass)
        for row in no_gap_experiment(configs, obj.pool)
    ]


def _run_bounds(obj: CLIContext, cover_size, eps, delta, d, k):
    """Pure arithmetic report of the cover/sample-size formulas (always JSON)."""
    dudley = dudley_cover_bound(eps, d)
    inputs = {"N": cover_size, "eps": eps, "delta": delta, "d": d, "K": k}
    report = {
        "inputs": inputs,
        "benedek_itai_m": benedek_itai_m(cover_size, eps, delta),
        "corollary_m": corollary_m(eps, delta) if 0 < eps < 0.5 else None,
        "dudley_value": dudley.value,
        "dudley_log": dudley.log_value,
        "sauer_bound": sauer_bound(k, d),
        "sauer_estimate": sauer_estimate(k, d) if 1 <= d <= k else None,
    }
    return {"kind": "bounds", **inputs, "seed": obj.seed}, lambda: [report]


def _opt(flags: str, type_, default=None, **kw) -> click.Option:
    """A flag (space-separated names) whose default --help shows unless it
    is None, checked against its spec-field row if it has one."""
    return click.Option(flags.split(), type=type_, default=default,
                        show_default=default is not None, callback=_check_flag, **kw)


COMMANDS = (
    Command(
        "cover",
        (
            _opt("--n", int, 1024),
            _opt("--eps", float, 0.05, help="Distribution parameter of the product family."),
            _opt("--i", int, 1),
            _opt("--level", float, help="Cover level (default 2*eps)."),
            _opt("--class-json", JSON_TEXT, help="Explicit class JSON (table classes)."),
            _opt("--dist-json", JSON_TEXT, help="Explicit distribution JSON."),
        ),
        _run_cover,
        ("class_kind", "num_concepts", "level", "size", "members",
         "certificate", "vc_dim", "dudley_log", "dudley_value"),
    ),
    Command(
        "vc",
        (
            _opt("--n", int, 8),
            _opt("--universe", click.Choice(["full", "default"]), "full",
                 help="full = all 2^n points (n <= 20)."),
            _opt("--d-max", int),
            _opt("--class-json", JSON_TEXT),
        ),
        _run_vc,
        ("class_kind", "num_concepts", "universe", "dimension"),
    ),
    Command(
        "learn",
        (
            _opt("--n", int, 256),
            _opt("--eps", float, 0.1),
            _opt("--target", str, "random-pair"),
            _opt("--learner", click.Choice(["erm", "cover", "bayes-posterior"]), "erm"),
            _opt("--m", int, 10),
            _opt("--eps-acc", float, 0.0625),
            _opt("--gamma", float, 0.01),
            _opt("--trials", int, 2000),
        ),
        _run_learn,
        ("learner", "m", "eps_acc", "trials", "gamma", "failures",
         "estimate", "radius", "ci_low", "ci_high"),
        config_help="TrialConfig JSON (object or list).",
        document_keys=frozenset({"class", "dist", "target"}),
    ),
    Command(
        "separation",
        (
            _opt("--n-list", str, ",".join(str(v) for v in DEFAULT_SEPARATION_NS),
                 help="Comma-separated hypercube dimensions."),
            _opt("--eps", float, 0.1),
            _opt("--eps-acc", float, 1.0 / 16.0),
            _opt("--delta", float, 1.0 / 16.0),
            _opt("--learners", str, "erm,cover"),
            _opt("--trials", int, 4000),
            _opt("--m-max", int, 4096),
        ),
        _run_separation,
        ("n", "learner", "m_star", "ci_low", "ci_high", "m_low", "unresolved", "trials"),
        single=True,
    ),
    Command(
        "lower-bound",
        (
            _opt("--n", int, 1 << 17),
            _opt("--eps", float, 0.2),
            _opt("--learner", click.Choice(["erm", "bayes-posterior", "cover"]),
                 "bayes-posterior"),
            _opt("--trials", int, 20000),
            _opt("--gamma", float, 0.01),
        ),
        _run_lower_bound,
        ("n", "eps", "m", "learner", "eps_acc", "trials", "estimate",
         "radius", "ci_low", "ci_high", "above_one_sixteenth", "outside_regime"),
    ),
    Command(
        "ks-stats",
        (
            _opt("--n", int, 1 << 17),
            _opt("--eps", float, 0.2),
            _opt("--m", int, help="Defaults to the lower-bound budget."),
            _opt("--trials", int, 20000),
            _opt("--gamma", float, 0.01),
        ),
        _run_ks_stats,
        ("n", "eps", "m", "trials", "ratio_lo", "ratio_hi", "ratio_freq",
         "ratio_radius", "k_threshold", "k_tail_freq", "k_tail_radius",
         "k_min", "k_q25", "k_median", "k_q75", "k_max", "sk_hist"),
    ),
    Command(
        "no-gap",
        (
            _opt("--domain-size", int, 8),
            _opt("--dist", click.Choice(["uniform", "geometric"]), "uniform"),
            _opt("--dist-json", JSON_TEXT),
            _opt("--m-grid", str, help="Comma-separated sizes; default 1 .. 2 * domain size."),
            _opt("--eps-acc", float, 0.1),
            _opt("--trials", int, 5000),
        ),
        _run_no_gap,
        ("domain_size", "dist", "m", "trials", "violations", "threshold",
         "z_ge_rate", "fail_rate", "mean_missing_mass"),
    ),
    Command(
        "bounds",
        (
            _opt("--cover-size -N", int, 2),
            _opt("--eps", float, 0.2),
            _opt("--delta", float, 0.1),
            _opt("--d", int, 3),
            _opt("--k", int, 10),
        ),
        _run_bounds,
        single=True,
        write=_write_report,
    ),
)


def _build(cmd: Command) -> click.Command:
    """The click command of one table row."""

    @click.pass_context
    @_handle_errors
    def callback(ctx: click.Context, config: str | None, **_flags):
        obj: CLIContext = ctx.obj
        _check_out(obj.out)
        entries = _load_config_entries(config)
        if cmd.single and len(entries) != 1:
            raise InvalidParameterError(
                f"{cmd.name} takes one config entry, the config has {len(entries)}"
            )
        values = [_resolve_entry(ctx, cmd, entry) for entry in entries]
        built = [cmd.run(obj, **entry_values) for entry_values in values]
        resolved = built[0][0] if cmd.single else [spec for spec, _ in built]
        rows = [row for _, entry_rows in built for row in entry_rows()]
        path = cmd.write(obj, cmd.name, cmd.header, rows, spec_hash(resolved))
        click.echo(f"wrote {path} ({len(rows)} row{'s' if len(rows) != 1 else ''})")
        _write_manifest(obj, resolved, path)

    config = click.Option(["--config"], type=click.Path(exists=True), help=cmd.config_help)
    return click.Command(cmd.name, callback=callback, params=[config, *cmd.options],
                         help=cmd.run.__doc__)


for _cmd in COMMANDS:
    main.add_command(_build(_cmd))


if __name__ == "__main__":
    main()
