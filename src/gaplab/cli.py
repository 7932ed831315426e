"""Command-line entry point: experiment dispatch, CSV/JSON results, run manifest.

Every result file embeds the master seed and a hash of the resolved
experiment spec; re-running a command with the same spec and seed emits a
byte-identical body.  Timestamps live only in the per-invocation manifest.

Each subcommand is one row of COMMANDS: its flags and a runner.  A runner
checks and builds one config entry and returns its spec and rows(), which
runs the trials, the cover scan or the VC search; each row is a dict whose
keys are the columns.  One builder turns every row into a click command
that resolves every entry, then builds every entry, then runs them, so a
bad entry anywhere is a spec error before any work; config loading, flag
resolution, the spec's kind, the global --trials override, output and the
manifest are shared by all commands.
"""

from __future__ import annotations

import csv
# At module level although only spec_hash calls it: numpy.random loads it too
# (secrets, then hmac), and mapped in the parent before a pool forks, OpenSSL
# is shared by every worker instead of mapped again in each.
import hashlib
import io
import json
import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable

import click
from click.core import ParameterSource
import numpy as np

from . import __version__
from .concepts import (
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
    uniform_finite,
)
from .errors import SPEC_FIELDS, GaplabError, InvalidParameterError, spec_value
from .mc_harness import (
    FAILURE_THRESHOLD_ONE_SIXTEENTH,
    PROJECTION_LEARNERS,
    check_search,
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
    target_from_json_dict,
    TrialPool,
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
    started_at: str


def _write_table(obj: CLIContext, kind: str, rows: list[dict], digest: str) -> Path:
    """Write rows (dicts keyed by column, in column order) as CSV, or as JSON."""
    path = Path(obj.out or f"{kind}.{obj.fmt}")
    if obj.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0].keys())
        writer.writerows([fmt_cell(v) for v in row.values()] for row in rows)
        path.write_text(buf.getvalue())
    else:
        doc = {"seed": obj.seed, "spec_hash": digest, "kind": kind, "rows": rows}
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _write_report(obj: CLIContext, kind: str, rows: list[dict], digest: str) -> Path:
    """Write the one row, a dict, as a JSON document whatever --format says."""
    (doc,) = rows
    path = Path(obj.out or f"{kind}.json")
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _peak_rss_mib() -> float:
    """This process's peak resident set size in MiB; a worker's is not in it."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, KiB elsewhere
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _write_manifest(ctx_obj: CLIContext, digest: str, output: Path) -> None:
    manifest_path = output.with_suffix(".manifest.json")
    doc = {
        "tool_version": __version__,
        "spec_hash": digest,
        "master_seed": ctx_obj.seed,
        "started_at": ctx_obj.started_at,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "outputs": [str(output)],
        "workers": ctx_obj.pool.workers if ctx_obj.pool.started else 1,
        "cpu_count": os.cpu_count(),
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "peak_rss_mib": _peak_rss_mib(),
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
    try:
        obj = json.loads(Path(config).read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise InvalidParameterError(f"config is not UTF-8 text: {config}") from None
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"config is not valid JSON: {config}: {exc}") from None
    entries = [obj] if isinstance(obj, dict) else obj
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise InvalidParameterError("config must be a JSON object or a list of objects")
    if not entries:
        raise InvalidParameterError(f"config lists no entries: {config}")
    return entries


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
    (resolved spec but its kind, rows); its docstring is the help.  `rows()`
    runs the entry and returns its rows, dicts keyed by column in column
    order; `write` gets the rows of all entries, the seed and spec hash
    appended.  Every entry is resolved, then built, before the first runs,
    so a spec error comes before any trial.
    """

    name: str
    options: tuple[click.Option, ...]
    run: Callable[..., tuple[dict, Callable[[], Iterable[dict]]]]
    # The command runs one spec: its config holds one entry, and the
    # resolved spec is that entry's spec rather than a list of them.
    single: bool = False
    write: Callable[..., Path] = _write_table
    # Each input that stands in for flags -> the flags it replaces.  An entry holding
    # one that is not a flag is a document, passed as `document`; flags fill its gaps.
    replaces: dict[str, set[str]] = field(default_factory=dict)


def _resolve_entry(ctx: click.Context, cmd: Command, entry: dict) -> dict:
    """Typed values of one entry; precedence: command-line flag > config entry > default.

    Config keys are the flag names.  A numeric value is read by its spec-field
    row (None is the flag's default), not by click's int(), which truncates
    2.7 and True; any other by its flag's click type.  The global --trials
    wins over all three, and over the `trials` of a document.  Text that a
    reader of _TEXT_READERS reads further is named by the flag or the config
    key it came from.
    """
    params = {p.name: p for p in ctx.command.params if p.name != "config"}
    document = entry if entry.keys() & (cmd.replaces.keys() - params.keys()) else None
    flat = {} if document is not None else entry
    unknown = [key for key in flat if key not in params]
    if unknown:
        raise InvalidParameterError(
            f"{cmd.name} config has unknown key {', '.join(map(repr, unknown))}; "
            "config keys are the flag names"
        )
    values = {}
    for name, param in params.items():
        label = param.opts[0]
        if name == "trials" and ctx.obj.trials is not None:
            values[name] = ctx.obj.trials
        elif name not in flat or ctx.get_parameter_source(name) is ParameterSource.COMMANDLINE:
            values[name] = ctx.params[name]
        else:
            label = f"{cmd.name} config key {name!r}"
            if name in SPEC_FIELDS:
                value = spec_value(name, flat[name], f"{cmd.name} config", label)
                values[name] = param.default if value is None else value
            else:
                try:
                    values[name] = param.type_cast_value(ctx, flat[name])
                except click.BadParameter as exc:
                    raise InvalidParameterError(f"{label}: {exc.message}") from None
        if name in _TEXT_READERS and values[name] is not None and document is None:
            values[name] = _TEXT_READERS[name](label, values[name])
    if document is not None:
        values["document"] = {**document, "trials": ctx.obj.trials} if ctx.obj.trials else document
    return values


def _refuse_replaced(ctx: click.Context, cmd: Command, entry: dict, values: dict) -> None:
    """Refuse each flag that an input in use replaces, and a flag a document sets."""
    document = "document" in values
    params = {p.name: p for p in ctx.command.params}
    for key in [key for key in cmd.replaces if values.get(key, entry.get(key)) is not None]:
        by = f"a {cmd.name} document" if document else params[key].opts[0]
        for name, param in params.items():
            given = ctx.get_parameter_source(name) is ParameterSource.COMMANDLINE
            sets = given and document and name in entry
            if sets or name in cmd.replaces[key] and (given or name in entry):
                flag = param.opts[0] if given else f"{cmd.name} config key {name!r}"
                raise InvalidParameterError(
                    f"{flag} cannot be given with {by}, which {'sets' if sets else 'replaces'} it")


def _handle_errors(fn):
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InvalidParameterError as exc:
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


def _check_threads(ctx: click.Context, param: click.Parameter, value: int) -> int:
    """--threads in [0, CPUs]: a process pool forks all its workers at its first task."""
    return click.IntRange(0, os.cpu_count() or 1).convert(value, param, ctx)


@click.group()
@click.option("--seed", type=int, envvar="GAPLAB_SEED", default=DEFAULT_SEED,
              callback=_check_flag, show_default=True,
              help="Master seed (GAPLAB_SEED as fallback).")
@click.option("--trials", type=int, default=None, callback=_check_flag,
              help="Override trial counts.")
@click.option("--out", type=str, default=None, help="Output file path.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True, help="Result format.")
@click.option("--threads", type=int, default=1, callback=_check_threads, show_default=True,
              help="Worker processes for trials (0 = auto), at most one per CPU.")
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
    if (class_json is None) != (dist_json is None):
        raise InvalidParameterError("give both --class-json and --dist-json")
    if class_json is None:  # the flags stand for the projections under P_i
        class_json = {"kind": "projections", "n": n}
        dist_json = {"kind": "pne", "n": n, "eps": eps, "i": i}
        level = 2.0 * eps if level is None else level
    cls = class_from_json_dict(class_json, "class_json", "cover")
    dist = distribution_from_json_dict(dist_json, "dist_json", "cover")
    if level is None:
        raise InvalidParameterError("--level is required for explicit specs")
    oracle_positions(cls, dist)
    if cls.num_concepts == 0:
        raise InvalidParameterError("cannot cover an empty class")
    if isinstance(cls, TableClass):
        check_vc_search(cls)
    spec = {"class": cls.to_json_dict(), "dist": dist.to_json_dict(), "level": level,
            "seed": obj.seed}

    def rows():
        result = build_cover(cls, dist, level)
        d_vc = (vc_dimension_bruteforce(cls) if isinstance(cls, TableClass)
                else cls.n.bit_length() - 1)
        bound = dudley_cover_bound(level, d_vc)
        members = "|".join(map(str, result.members))
        return [{"class_kind": spec["class"]["kind"], "num_concepts": cls.num_concepts,
                 "level": level, "size": result.size, "members": members,
                 "certificate": result.certificate, "vc_dim": d_vc,
                 "dudley_log": bound.log_value, "dudley_value": bound.value}]

    return spec, rows


def _run_vc(obj: CLIContext, n, universe, d_max, class_json):
    """Brute-force VC dimension over an explicit universe."""
    explicit = class_json is not None
    cls = class_from_json_dict(class_json if explicit else {"kind": "projections", "n": n},
                               "class_json", "vc")
    points = full_hypercube(n) if universe == "full" and not explicit else None
    check_vc_search(cls, None if points is None else len(points))
    spec = {"class": cls.to_json_dict(), "universe": universe, "d_max": d_max,
            "seed": obj.seed}
    return spec, lambda: [{"class_kind": spec["class"]["kind"], "num_concepts": cls.num_concepts,
                           "universe": "default" if explicit else universe,
                           "dimension": vc_dimension_bruteforce(cls, points, d_max)}]


def _comma_list(label: str, text: str, item: Callable = int, items: str = "integers") -> list:
    """The `items` of a comma-separated text, each stripped and read by `item`, a blank
    one skipped; one it refuses with ValueError, a repeated one, or none at all, is a
    spec error naming `label`, the flag or config key the text came from."""
    try:
        values = [item(v.strip()) for v in text.split(",") if v.strip()]
    except ValueError:
        raise InvalidParameterError(
            f"{label} {text!r} is not a comma-separated list of {items}"
        ) from None
    if not values:
        raise InvalidParameterError(f"{label} {text!r} lists no {items}")
    if len(set(values)) != len(values):
        raise InvalidParameterError(f"{label} {text!r} lists a value twice")
    return values


def _projection_learner(name: str) -> str:
    if name not in PROJECTION_LEARNERS:
        raise ValueError(name)
    return name


def _target_text(label: str, text: str) -> str:
    target_from_json_dict(text, label)
    return text


# Text flags read further than their click type, by flag name: reader(label,
# text), where label names the flag or config key the text came from.
_TEXT_READERS = {
    "n_list": lambda label, text: [spec_value("n", n, label=label)
                                   for n in _comma_list(label, text)],
    "m_grid": _comma_list,
    "learners": lambda label, text: _comma_list(
        label, text, _projection_learner, f"learners ({', '.join(PROJECTION_LEARNERS)})"),
    "target": _target_text,
}


def _run_learn(obj: CLIContext, n, eps, target, learner, m, eps_acc, gamma, trials,
               document=None):
    """Estimate a learner's failure probability for one trial configuration."""
    if document is None:
        member = {} if target == "random-pair" else {"i": 1}
        document = {"class": {"kind": "projections", "n": n},
                    "dist": {"kind": "pne", "n": n, "eps": eps, **member}, "target": target}
    cfg = config_from_json_dict({
        "seed": {"master": obj.seed}, "trials": trials, "eps_acc": eps_acc,
        "m": m, "learner": learner, "gamma": gamma, **document,
    })

    def rows():
        est = estimate_failure_prob(cfg, obj.pool)
        return [{"learner": cfg.learner, "m": cfg.m, "eps_acc": cfg.eps_acc,
                 "trials": cfg.trials, "gamma": cfg.gamma,
                 "failures": round(est.estimate * cfg.trials), "estimate": est.estimate,
                 "radius": est.radius, "ci_low": est.lower, "ci_high": est.upper}]

    return {"config": cfg.to_json_dict()}, rows


def _run_separation(obj: CLIContext, n_list, eps, eps_acc, delta, learners, trials, m_max):
    """Empirical sample-size curve per learner across n: the separation run."""
    spec = {
        "n_list": n_list, "eps": eps, "eps_acc": eps_acc, "delta": delta,
        "learners": learners, "trials": trials, "m_max": m_max, "seed": obj.seed,
    }
    base = RngSeed(obj.seed)
    cells = [
        (n, learner, matched_pair_config(n, eps, learner, 1, eps_acc, trials,
                                         base.substream(n).substream(li)))
        for n in n_list
        for li, learner in enumerate(learners)
    ]
    for _, _, cfg in cells:
        check_search(cfg, delta)

    def rows():
        # Each search runs whole and serially on one worker, where its stop rule
        # wastes no queued block, when the searches, each counted as its n over
        # the largest n (a trial's cost grows with n), come to at least one and
        # a half per worker; the half covers the learners' costs at one n, which
        # differ several-fold.  With fewer, the costliest search would run alone
        # while the other workers sit idle, so each search in turn fans its
        # trial blocks out instead.  Rows and warning lines come in cell order.
        pool = obj.pool
        searches = sum(n for n, _, _ in cells) / max(n_list)
        if pool.fans_out(trials) and searches >= 1.5 * pool.workers:
            results = pool.imap(sample_complexity_search,
                                [(cfg, delta, m_max) for _, _, cfg in cells])
        else:
            results = (sample_complexity_search(cfg, delta, m_max, pool) for _, _, cfg in cells)
        for (n, learner, _), result in zip(cells, results):
            est = result.estimate_at(result.m_star)
            unresolved = ";".join(str(v) for v in result.unresolved_ms)
            if unresolved:
                click.echo(
                    f"warning: unresolved m values for n={n} {learner}: {unresolved}",
                    err=True,
                )
            yield {"n": n, "learner": learner, "m_star": result.m_star, "ci_low": est.lower,
                   "ci_high": est.upper, "m_low": result.bracket[0],
                   "unresolved": unresolved, "trials": trials}

    return spec, rows


def _run_lower_bound(obj: CLIContext, n, eps, learner, trials, gamma):
    """The matched-pair failure experiment at m = floor(ln n / (3 ln(1/eps)))."""
    cfg = lower_bound_config(n, eps, learner, trials, RngSeed(obj.seed), gamma)
    spec = {"n": n, "eps": eps, "learner": learner, "trials": trials, "gamma": gamma,
            "seed": obj.seed}

    def rows():
        outside = not in_theorem_regime(n, eps)
        if outside:
            click.echo(f"warning: n={n} is below 600/eps^3 = {600.0 / eps**3:.0f}; "
                       "outside the regime the bound assumes", err=True)
        est = lower_bound_experiment(cfg, obj.pool)
        return [{"n": n, "eps": eps, "m": cfg.m, "learner": learner, "eps_acc": cfg.eps_acc,
                 "trials": trials, "estimate": est.estimate, "radius": est.radius,
                 "ci_low": est.lower, "ci_high": est.upper,
                 "above_one_sixteenth": est.lower > cfg.eps_acc,
                 "outside_regime": outside}]

    return spec, rows


def _run_ks_stats(obj: CLIContext, n, eps, m, trials, gamma):
    """Concentration of the candidate-set size K and the ratio S/K."""
    if m is None:
        m = lower_bound_m(n, eps)
    family = PneFamily(n, eps)
    spec = {"n": n, "eps": eps, "m": m, "trials": trials, "gamma": gamma, "seed": obj.seed}

    def rows():
        summary = ks_statistics_experiment(family, m, trials, RngSeed(obj.seed), gamma,
                                           obj.pool)
        hist = ";".join(f"{edge:.3f}:{count}" for edge, count
                        in zip(summary.sk_hist_edges, summary.sk_hist_counts) if count)
        ratio_lo, ratio_hi = summary.ratio_band
        k_min, k_q25, k_median, k_q75, k_max = summary.k_quantiles
        return [{"n": n, "eps": eps, "m": m, "trials": trials, "ratio_lo": ratio_lo,
                 "ratio_hi": ratio_hi, "ratio_freq": summary.ratio_in_band.estimate,
                 "ratio_radius": summary.ratio_in_band.radius,
                 "k_threshold": summary.k_threshold, "k_tail_freq": summary.k_tail.estimate,
                 "k_tail_radius": summary.k_tail.radius, "k_min": k_min, "k_q25": k_q25,
                 "k_median": k_median, "k_q75": k_q75, "k_max": k_max, "sk_hist": hist}]

    return spec, rows


def _run_no_gap(obj: CLIContext, domain_size, dist, dist_json, m_grid, eps_acc, trials):
    """Memorizer error vs missing mass on the all-functions class."""
    if dist_json is not None:
        law = distribution_from_json_dict(dist_json, "dist_json", "no-gap")
        if not isinstance(law, FiniteSupportDistribution):
            raise InvalidParameterError("no-gap --dist-json needs a finite distribution")
        domain_size = len(law.support)
    else:
        domain = enumerated_domain(domain_size)
        law = uniform_finite(domain) if dist == "uniform" else geometric_finite(domain)
    grid = m_grid or list(range(1, 2 * domain_size + 1))
    configs = no_gap_configs(law, grid, trials, eps_acc, RngSeed(obj.seed))
    spec = {"dist": law.to_json_dict(), "m_grid": grid, "eps_acc": eps_acc,
            "trials": trials, "seed": obj.seed}
    shown = dist if dist_json is None else "custom"
    return spec, lambda: [
        {"domain_size": domain_size, "dist": shown, "m": row.m, "trials": row.trials,
         "violations": row.violations, "threshold": row.threshold,
         "z_ge_rate": row.z_ge_rate.estimate, "fail_rate": row.fail_rate.estimate,
         "mean_missing_mass": row.mean_missing_mass}
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
    return {**inputs, "seed": obj.seed}, lambda: [report]


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
        replaces={"class_json": {"n"}, "dist_json": {"n", "eps", "i"}},
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
        replaces={"class_json": {"n", "universe"}},
    ),
    Command(
        "learn",
        (
            _opt("--n", int, 256),
            _opt("--eps", float, 0.1),
            _opt("--target", str, "random-pair",
                 help="fixed:<i> (concept i), random-pair (c_I under P_I, I drawn) or "
                      "random-concept; under P_1 unless random-pair."),
            _opt("--learner", click.Choice(PROJECTION_LEARNERS), "erm"),
            _opt("--m", int, 10),
            _opt("--eps-acc", float, 0.0625),
            _opt("--gamma", float, 0.01),
            _opt("--trials", int, 2000),
        ),
        _run_learn,
        replaces={"class": {"n"}, "dist": {"n", "eps"}},
    ),
    Command(
        "separation",
        (
            _opt("--n-list", str, ",".join(str(2**k) for k in range(4, 17)),
                 help="Comma-separated hypercube dimensions."),
            _opt("--eps", float, 0.1),
            _opt("--eps-acc", float, FAILURE_THRESHOLD_ONE_SIXTEENTH),
            _opt("--delta", float, FAILURE_THRESHOLD_ONE_SIXTEENTH),
            _opt("--learners", str, "erm,cover"),
            _opt("--trials", int, 4000),
            _opt("--m-max", int, 4096),
        ),
        _run_separation,
        single=True,
    ),
    Command(
        "lower-bound",
        (
            _opt("--n", int, 1 << 17),
            _opt("--eps", float, 0.2),
            _opt("--learner", click.Choice(PROJECTION_LEARNERS), "bayes-posterior"),
            _opt("--trials", int, 20000),
            _opt("--gamma", float, 0.01),
        ),
        _run_lower_bound,
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
        replaces={"dist_json": {"domain_size", "dist"}},
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
        built = [({"kind": cmd.name, **spec}, entry_rows)
                 for spec, entry_rows in (cmd.run(obj, **v) for v in values)]
        for entry, v in zip(entries, values):  # after the build, so a bad input is named first
            _refuse_replaced(ctx, cmd, entry, v)
        resolved = built[0][0] if cmd.single else [spec for spec, _ in built]
        digest = spec_hash(resolved)
        rows = [{**row, "seed": obj.seed, "spec_hash": digest}
                for _, entry_rows in built for row in entry_rows()]
        path = cmd.write(obj, cmd.name, rows, digest)
        click.echo(f"wrote {path} ({len(rows)} row{'s' if len(rows) != 1 else ''})")
        _write_manifest(obj, digest, path)

    config = click.Option(["--config"], type=click.Path(exists=True, dir_okay=False),
                          help="JSON config: an entry or a list of entries, keyed by flag name.")
    return click.Command(cmd.name, callback=callback, params=[config, *cmd.options],
                         help=cmd.run.__doc__)


for _cmd in COMMANDS:
    main.add_command(_build(_cmd))


if __name__ == "__main__":
    main()
