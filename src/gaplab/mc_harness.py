"""Monte Carlo experiment engine: trials, failure estimates, sample-size search.

Every trial derives its own RNG from (seed, trial index), so aggregate counts
are identical whether trials run serially or split across workers.  Inside a
trial the draw order is fixed: target first (when the target is random), then
the sample; the learner itself is deterministic.  A matched-pair ERM or
posterior trial may read its sample through PneReplay, which reads only the
cells that decide the outcome and gives the same bits as the dense draw.
Errors are computed by exact oracles, never by an inner Monte Carlo loop.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .concepts import (
    ConceptClass,
    ProjectionClass,
    TableClass,
    all_functions_class,
    class_from_json_dict,
    pack_bit_rows,
    packed_column,
)
from .distributions import (
    Distribution,
    FiniteSupportDistribution,
    PneFamily,
    PneMember,
    PneReplay,
    ProductLaw,
    RngSeed,
    distribution_from_json_dict,
    missing_mass_fraction,
    sample_bit_matrix,
    sample_coordinate_columns,
    sample_support_indices,
)
from .errors import (
    GaplabError,
    InvalidParameterError,
    OracleUnavailableError,
    SearchBracketError,
    spec_object,
    spec_value,
)
from .learners import (
    LabeledSample,
    consistent_memorizer,
    erm,
    posterior_threshold,
)
from .metric_cover import (
    CoverResult,
    EstimateWithCI,
    build_cover,
    check_same_n,
    disagreement_enumerate,
    disagreement_exact_projections,
    hoeffding_radius,
    oracle_positions,
    pne_small_cover,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

PROJECTION_LEARNERS = ("erm", "cover", "bayes-posterior")
LEARNER_NAMES = (*PROJECTION_LEARNERS, "memorizer")

FAILURE_THRESHOLD_ONE_SIXTEENTH = 1.0 / 16.0


@dataclass(frozen=True)
class FixedTarget:
    """Learn a fixed concept of the class (1-based index)."""

    index: int

    def to_json_dict(self) -> dict:
        return {"kind": "fixed", "i": self.index}


@dataclass(frozen=True)
class RandomPair:
    """Draw I uniformly and learn c_I under P_I (the matched-pair construction)."""

    def to_json_dict(self) -> dict:
        return {"kind": "random-pair"}


@dataclass(frozen=True)
class RandomConcept:
    """Draw a uniform target from the class; the distribution stays fixed."""

    def to_json_dict(self) -> dict:
        return {"kind": "random-concept"}


TargetSpec = FixedTarget | RandomPair | RandomConcept


def target_from_json_dict(obj: dict | str, label: str = "trial config key 'target'"
                          ) -> TargetSpec:
    """The target an object, or the text fixed:<i>, random-pair or
    random-concept, describes; `label` names where bad text came from."""
    if isinstance(obj, str):
        if obj.startswith("fixed:"):
            index = obj.split(":", 1)[1]
            try:
                return FixedTarget(int(index))
            except ValueError:
                raise InvalidParameterError(
                    f"{label} {obj!r}: {index!r} is not a valid integer"
                ) from None
        if obj not in ("random-pair", "random-concept"):
            raise InvalidParameterError(
                f"{label}: bad target spec {obj!r}; use fixed:<i>, random-pair, random-concept"
            )
        obj = {"kind": obj}
    with spec_object(obj, "target") as get:
        kind = get("kind")
        if kind == "fixed":
            return FixedTarget(spec_value("target.i", get("i")))
        if kind == "random-pair":
            return RandomPair()
        if kind == "random-concept":
            return RandomConcept()
        raise InvalidParameterError(f"trial config key 'target': unknown target kind {kind!r}")


@dataclass(frozen=True)
class TrialConfig:
    """Everything one trial needs; eps_acc is the PAC accuracy, not the
    distribution parameter.  Built once per config, not per trial: a table
    class's support `positions` and, unless the target is random-pair, the
    cover learner's `cover`."""

    concept_class: ConceptClass
    dist: Distribution | PneFamily
    target: TargetSpec
    learner: str
    m: int
    eps_acc: float
    trials: int
    seed: RngSeed
    gamma: float = 0.01
    cover_level: float | None = None
    learner_eps: float | None = None
    memorizer_default: int = 0
    positions: list[int] | None = field(default=None, init=False, repr=False, compare=False)
    cover: CoverResult | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for key in _NUMBER_FIELDS:
            object.__setattr__(self, key, spec_value(key, getattr(self, key)))
        validate_config(self)
        if self.learner == "cover" and not isinstance(self.target, RandomPair):
            object.__setattr__(self, "cover",
                               build_cover(self.concept_class, self.dist, self.cover_level))

    def to_json_dict(self) -> dict:
        return {
            "class": self.concept_class.to_json_dict(),
            "dist": self.dist.to_json_dict(),
            "target": self.target.to_json_dict(),
            "learner": self.learner,
            "m": self.m,
            "eps_acc": self.eps_acc,
            "trials": self.trials,
            "gamma": self.gamma,
            "seed": self.seed.to_json_dict(),
            "cover_level": self.cover_level,
            "learner_eps": self.learner_eps,
            "memorizer_default": self.memorizer_default,
        }


# A null counts as absent, so a document's null m is a missing key.
_REQUIRED_CONFIG_KEYS = ("class", "dist", "target", "learner", "m", "eps_acc", "trials")

# The fields a TrialConfig checks against, and reads as, their spec-field rows.
_NUMBER_FIELDS = ("m", "eps_acc", "trials", "gamma", "cover_level", "learner_eps",
                  "memorizer_default")


def config_from_json_dict(obj: dict) -> TrialConfig:
    with spec_object(obj, "") as get:
        missing = [key for key in _REQUIRED_CONFIG_KEYS if get(key) is None]
        if missing:
            raise InvalidParameterError(f"trial config has no {', '.join(map(repr, missing))} key")
        with spec_object(get("seed", {}), "seed") as seed:
            rng_seed = RngSeed(seed("master", 0), seed("stream", 0))
        fields = dict(
            concept_class=class_from_json_dict(get("class")),
            dist=distribution_from_json_dict(get("dist")),
            target=target_from_json_dict(get("target")),
            learner=get("learner"),
            **{key: get(key) for key in _NUMBER_FIELDS if key in obj},
        )
    # Built after the unread-key check, since a cover learner's build scans the class.
    return TrialConfig(seed=rng_seed, **fields)


def validate_config(cfg: TrialConfig) -> None:
    """Refuse a config no exact oracle can score, or one that sets a key its
    learner does not read; set a table class's `positions`."""
    if cfg.learner not in LEARNER_NAMES:
        raise InvalidParameterError(f"unknown learner {cfg.learner!r}")

    cls, dist = cfg.concept_class, cfg.dist
    if isinstance(cfg.target, RandomPair):
        if not isinstance(dist, PneFamily) or not isinstance(cls, ProjectionClass):
            raise InvalidParameterError(
                "random-pair targets need the projection class and a pne family"
            )
        check_same_n(cls, dist)
    elif isinstance(dist, PneFamily):
        raise InvalidParameterError("a pne family distribution needs a random-pair target")
    else:
        object.__setattr__(cfg, "positions", oracle_positions(cls, dist))
    if isinstance(cfg.target, FixedTarget):
        cls.concept(cfg.target.index)
    elif isinstance(cfg.target, RandomConcept) and cls.num_concepts == 0:
        raise InvalidParameterError("a random-concept target needs a class with concepts")

    if cfg.learner == "bayes-posterior":
        if not isinstance(cls, ProjectionClass):
            raise OracleUnavailableError("the posterior rule is defined for projections")
        if _pne_eps(dist) is None:
            raise OracleUnavailableError(
                "the posterior rule's exact error needs a pne distribution"
            )
        if not isinstance(cfg.target, RandomPair) and cfg.target != FixedTarget(dist.i):
            raise OracleUnavailableError(
                f"the posterior rule's exact error needs target fixed:{dist.i}, "
                f"the pne member's fair coordinate"
            )
    if cfg.learner == "memorizer" and not isinstance(cls, TableClass):
        raise OracleUnavailableError(
            "the memorizer's exact error needs an enumerable domain"
        )
    if cfg.learner != "memorizer" and isinstance(cls, TableClass):
        cls.table_array()  # refuses a domain wider than its uint64 tables
    if cfg.learner == "cover" and cfg.cover_level is None and _pne_eps(dist) is None:
        raise InvalidParameterError(
            "cover learning needs cover_level unless the distribution is pne"
        )
    for key, reader in (("learner_eps", "bayes-posterior"), ("cover_level", "cover"),
                        ("memorizer_default", "memorizer")):
        if cfg.learner != reader and getattr(cfg, key) not in (None, 0):
            raise InvalidParameterError(f"{key} is read only by the {reader} learner, "
                                        f"not by {cfg.learner!r}")


def _pne_eps(dist: Distribution | PneFamily) -> float | None:
    """eps of a pne family or of one of its members, else None."""
    return dist.eps if isinstance(dist, (PneFamily, PneMember)) else None


def _posterior_eps(cfg: TrialConfig) -> float:
    """The eps the posterior rule assumes: learner_eps, else the pne eps."""
    if cfg.learner_eps is not None:
        return float(cfg.learner_eps)
    return _pne_eps(cfg.dist)


def _popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


def _stirlerr(k: int) -> float:
    """log(k!) - log(sqrt(2 pi k) (k / e)^k), Stirling's error, for k >= 1.

    Up to 15 the lgamma difference is still exact to about 1e-14; above, the
    first five terms of the asymptotic series are."""
    if k <= 15:
        return math.lgamma(k + 1) - (k + 0.5) * math.log(k) + k - 0.5 * math.log(2 * math.pi)
    kk = k * k
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * kk)) / kk) / kk) / kk) / k


def _bd0(x: int, mean: float) -> float:
    """x log(x / mean) + mean - x, by its Taylor series in (x - mean) / (x + mean)
    when x is near mean, where the closed form cancels."""
    if abs(x - mean) >= 0.1 * (x + mean):
        return x * math.log(x / mean) + mean - x
    v = (x - mean) / (x + mean)
    total, term, j = (x - mean) * v, 2 * x * v, 1
    while True:
        term *= v * v
        step = total + term / (2 * j + 1)
        if step == total:
            return total
        total, j = step, j + 1


def _binom_pmf(j: int, trials: int, p: float) -> float:
    """Pr[Binomial(trials, p) = j] for 0 < p < 1, within 1e-12 relative.

    Loader's saddle-point form (Loader 2000, as in R's dbinom_raw): the log
    of the pmf is split into Stirling errors and bd0 terms that are each
    computed without cancellation, where a difference of lgammas of size
    trials log(trials) would lose about 1e-10 at trials near 10^5."""
    if not 0 <= j <= trials:
        return 0.0
    if j == 0:
        return math.exp(trials * math.log1p(-p))
    if j == trials:
        return math.exp(trials * math.log(p))
    log_core = (_stirlerr(trials) - _stirlerr(j) - _stirlerr(trials - j)
                - _bd0(j, trials * p) - _bd0(trials - j, trials * (1.0 - p)))
    log_spread = math.log(2 * math.pi) + math.log(j) + math.log1p(-j / trials)
    return math.exp(log_core - 0.5 * log_spread)


def posterior_rule_error(k_size: int, threshold: int, eps: float) -> float:
    """Exact disagreement of the posterior rule with the target under P_i.

    The rule depends on the test point only through S = Z[i] + B with
    B ~ Binomial(K - 1, eps): it predicts 1 iff S >= S*.  It is wrong when
    Z[i] = 1 and B < S* - 1, or Z[i] = 0 and B >= S*, each with Z[i]'s
    probability 1/2, so
    error = (Pr[B <= S* - 2] + Pr[B >= S*]) / 2 = (1 - Pr[B = S* - 1]) / 2.
    """
    return 0.5 * (1.0 - _binom_pmf(threshold - 1, k_size - 1, eps))


class TrialResult(NamedTuple):
    error: float
    failed: int


def _resolve_target(
    cfg: TrialConfig, gen: np.random.Generator
) -> tuple[Distribution, int]:
    """The trial's distribution and its target's 1-based concept index."""
    if isinstance(cfg.target, RandomPair):
        i, dist = _draw_member(cfg.dist, gen)
        return dist, i
    if isinstance(cfg.target, RandomConcept):
        return cfg.dist, int(gen.integers(1, cfg.concept_class.num_concepts + 1))
    return cfg.dist, cfg.target.index


def _draw_member(family: PneFamily, gen: np.random.Generator) -> tuple[int, PneMember]:
    """A uniform hidden index I and the family member P_I."""
    i = int(gen.integers(1, family.n + 1))
    return i, family.member(i)


def _projection_sample(
    dist: ProductLaw, target: int, m: int, gen: np.random.Generator
) -> LabeledSample:
    """m draws from dist, labelled by coordinate `target`."""
    words = sample_bit_matrix(dist, m, gen)
    return LabeledSample(words, packed_column(words, target), dist.n)


def _table_sample(
    cfg: TrialConfig, target: int, gen: np.random.Generator
) -> tuple[int, np.ndarray]:
    """The target's truth table and the support indices of cfg.m drawn points."""
    return cfg.concept_class.table_mask(target), sample_support_indices(cfg.dist, cfg.m, gen)


def _memorizer_misses(cfg: TrialConfig, drawn: np.ndarray, target_mask: int) -> list[int]:
    """Support indices, in support order, where the memorizer trained on the
    drawn points, labelled by the target, disagrees with the target."""
    positions, support = cfg.positions, cfg.dist.support
    labels = [(target_mask >> positions[u]) & 1 for u in drawn.tolist()]
    sample = LabeledSample.from_points(support, drawn, labels)
    predicted = consistent_memorizer(sample, cfg.memorizer_default).predict(support)
    return [u for u, (y, pos) in enumerate(zip(predicted, positions))
            if y != (target_mask >> pos) & 1]


def run_trial(cfg: TrialConfig, index: int) -> TrialResult:
    """One end-to-end trial: draw, train, score with the exact oracle.

    Deterministic given (cfg.seed, index).  failed = 1 iff the exact
    disagreement exceeds eps_acc strictly.
    """
    gen = cfg.seed.generator(index)
    dist, target = _resolve_target(cfg, gen)
    cls = cfg.concept_class

    if isinstance(cls, ProjectionClass):
        error = _projection_trial_error(cfg, cls, dist, target, gen)
    else:
        error = _table_trial_error(cfg, cls, dist, target, gen)
    return TrialResult(error, int(error > cfg.eps_acc))


def _replays(learner: str, n: int, m: int) -> bool:
    """Whether a trial whose target is its pne member's fair coordinate reads
    its sample through PneReplay rather than the dense draw.

    The dense draw stays wherever it is about as cheap.  Per trial, dense /
    replay, in microseconds (medians of 15 alternating rounds on a shared
    2-core VM; eps = 0.1 unless given):
    ERM: n = 2^17, m = 2, eps = 0.2: 1631 / 91; n = 2^16, m = 15: 5812 / 1005;
    n = 2^14, m = 14: 1161 / 444; n = 2^13, m = 13: 555 / 372;
    n = 2^13, m = 2: 131 / 90; n = 2^12, m = 12: 287 / 314.
    Posterior: n = 2^12, m = 4: 128 / 175; m = 8: 153 / 178; m = 9: 219 / 194;
    m = 12: 306 / 218; m = 16: 393 / 230; n = 2^11, m = 12: 177 / 176;
    n = 2^10, m = 8: 90 / 142; n = 2^17, m = 2, eps = 0.2: 1379 / 1980.
    """
    if learner == "erm":
        return n >= 1 << 13
    return learner == "bayes-posterior" and n >= 1 << 12 and m >= 9


# ERM on a replayed draw chooses among this many coordinates below the fair one.
_ERM_FIRST_BLOCK = 64


def _replayed_erm(replay: PneReplay) -> int:
    """erm's choice over all n projections, from the cells that decide it.

    ERM picks the lowest consistent coordinate, and the fair coordinate i is
    always consistent, so only coordinates below i matter.  erm itself
    chooses among the first block of up to 64 of them plus i, on all m of
    their drawn rows; only if it picks i are the rest scanned.
    """
    fair = replay.dist.i - 1
    width = min(_ERM_FIRST_BLOCK, fair)
    block = np.column_stack([replay.bits(0, width), replay.labels])
    sample = LabeledSample(pack_bit_rows(block), replay.labels, width + 1)
    chosen = erm(ProjectionClass(width + 1), sample)
    if chosen <= width:
        return chosen
    first = replay.first_consistent(width, fair)
    return replay.dist.i if first is None else first + 1


def _projection_trial_error(
    cfg: TrialConfig,
    cls: ProjectionClass,
    dist: ProductLaw,
    target: int,
    gen: np.random.Generator,
) -> float:
    if cfg.learner == "cover":
        # Only the member and target columns are drawn, in ascending order,
        # so argmin keeps the lowest-index tie-break.
        cover = cfg.cover
        if cover is None:  # random-pair: the cover of this trial's member P_I
            cover = pne_small_cover(dist, cfg.cover_level)
        members = cover.members
        cols = sorted(set(members) | {target})
        bits = sample_coordinate_columns(dist, cols, cfg.m, gen)
        t = cols.index(target)
        misses = (bits ^ bits[:, t : t + 1]).sum(axis=0)
        if len(cols) > len(members):  # the target is no member
            misses[t] = cfg.m + 1
        return disagreement_exact_projections(dist, cols[misses.argmin()], target)

    if (isinstance(dist, PneMember) and target == dist.i
            and _replays(cfg.learner, dist.n, cfg.m)):
        replay = PneReplay(dist, cfg.m, gen)
        if cfg.learner == "erm":
            return disagreement_exact_projections(dist, _replayed_erm(replay), target)
        k = 1 + replay.consistent(0, dist.n).size
    else:
        sample = _projection_sample(dist, target, cfg.m, gen)
        if cfg.learner == "erm":
            return disagreement_exact_projections(dist, erm(cls, sample), target)
        k = _popcount(sample.column_match_mask())
        if k == 0:
            raise GaplabError("empty candidate set in a realizable trial")

    # The posterior rule: validate_config saw a pne distribution.
    threshold = posterior_threshold(k, _posterior_eps(cfg))
    return posterior_rule_error(k, threshold, dist.eps)


def _table_trial_error(
    cfg: TrialConfig,
    cls: TableClass,
    dist: FiniteSupportDistribution,
    target: int,
    gen: np.random.Generator,
) -> float:
    target_mask, drawn = _table_sample(cfg, target, gen)
    if cfg.learner == "memorizer":
        return dist.mass(_memorizer_misses(cfg, drawn, target_mask))
    # Concept c errs on every draw of support point u where its table and the
    # target's differ at u's domain position: one pass over the points seen.
    wrong = cls.table_array() ^ np.uint64(target_mask)
    mistakes = np.zeros(cls.num_concepts, dtype=np.int64)
    times_drawn = np.bincount(drawn, minlength=len(cfg.positions))
    for u in np.flatnonzero(times_drawn).tolist():
        bit = (wrong >> np.uint64(cfg.positions[u])) & np.uint64(1)
        mistakes += int(times_drawn[u]) * bit.astype(np.int64)
    if cfg.learner == "erm":
        chosen = int(np.argmin(mistakes)) + 1
    else:  # the cover learner: validate_config admits no other on tables
        chosen = min(cfg.cover.members, key=lambda i: (mistakes[i - 1], i))
    return disagreement_enumerate(cls, dist, chosen, target, cfg.positions)


def _run_chunk(
    trial: Callable[..., tuple], args: tuple, dtypes: tuple[str, ...], lo: int, hi: int
) -> tuple[np.ndarray, ...]:
    """trial(*args, t) for t in lo..hi-1, output k as one array of dtypes[k] in
    trial order: the package's one loop over trial indices."""
    rows = np.fromiter((trial(*args, t) for t in range(lo, hi)), count=hi - lo,
                       dtype=[(f"f{k}", d) for k, d in enumerate(dtypes)])
    return tuple(rows[name] for name in rows.dtype.names)


def resolve_workers(threads: int) -> int:
    """`threads` workers, or for 0 one per CPU this process may run on."""
    if threads == 0 and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return threads or os.cpu_count() or 1


# A run is cut into this many equal blocks, set by its trial count alone, so a
# stop rule ends it after the same trials at any worker count.
_BLOCKS = 16


class TrialPool:
    """The worker processes of one command, shared by every experiment it runs.

    `with TrialPool(threads) as pool:` holds `workers = resolve_workers(threads)`;
    the process pool starts on the first run that fans out, which sets
    `started`, and stops when the block exits.
    """

    def __init__(self, threads: int):
        self.workers = resolve_workers(threads)
        self._executor: ProcessPoolExecutor | None = None

    @property
    def started(self) -> bool:
        return self._executor is not None

    def __enter__(self) -> TrialPool:
        return self

    def __exit__(self, *exc) -> None:
        if self._executor is not None:
            self._executor.__exit__(*exc)

    def fans_out(self, trials: int) -> bool:
        """Whether a run of `trials` trials is split across the workers: there
        are two or more, and at least two trials per worker."""
        return self.workers > 1 and trials >= 2 * self.workers

    @staticmethod
    def _executor_class() -> type[ProcessPoolExecutor]:
        """mc_harness.ProcessPoolExecutor, imported on the first pool start
        or lookup and then bound there, where a test or a benchmark may
        replace it; a process that never fans out maps neither
        concurrent.futures.process nor multiprocessing."""
        from concurrent.futures import ProcessPoolExecutor

        return globals().setdefault("ProcessPoolExecutor", ProcessPoolExecutor)

    def _start(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = self._executor_class()(max_workers=self.workers)
        return self._executor

    def imap(self, fn: Callable, arg_tuples: Iterable[tuple]) -> Iterator:
        """fn(*args) for each of arg_tuples, run on the workers and yielded in order;
        a call that raised re-raises when its turn comes.

        fn must be a module-level function.  At most 2 * workers calls are in
        flight: a call already queued to a worker cannot be cancelled, so the
        cap bounds what a run closed early (by a stop rule) wastes; closing
        cancels the rest.  The executor's own queue is no such cap: it refills
        as workers finish, not as results are taken.  The first call starts
        the workers.
        """
        executor = self._start()
        queued = iter(arg_tuples)
        in_flight = deque(executor.submit(fn, *args)
                          for args in itertools.islice(queued, 2 * self.workers))
        try:
            while in_flight:
                result = in_flight.popleft().result()
                in_flight.extend(executor.submit(fn, *args)
                                 for args in itertools.islice(queued, 1))
                yield result
        finally:
            for future in in_flight:
                future.cancel()


def __getattr__(name: str) -> type:
    """The module's one lazy attribute, ProcessPoolExecutor (PEP 562)."""
    if name == "ProcessPoolExecutor":
        return TrialPool._executor_class()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _map_trials(
    chunk_fn: Callable[..., tuple[np.ndarray, ...]],
    args: tuple,
    trials: int,
    pool: TrialPool | None,
    settled: Callable[[tuple[np.ndarray, ...]], bool] | None = None,
) -> tuple[np.ndarray, ...]:
    """chunk_fn(*args, lo, hi) over trials [0, trials), arrays joined in trial order.

    chunk_fn must be a module-level function returning one array per output,
    each holding trials lo..hi-1 in order.  The trials are cut into _BLOCKS
    equal blocks, run on the pool's workers when pool.fans_out(trials) and
    serially in this process otherwise; a serial run with no stop rule is one
    chunk.  `settled`, if given, sees the outputs of each block prefix in
    order, and the first prefix it accepts is the result.  Trial t depends
    only on its index and the blocks only on `trials`, so the result is
    bit-identical for any worker count.
    """
    on_pool = pool is not None and pool.fans_out(trials)
    if not on_pool and settled is None:
        return chunk_fn(*args, 0, trials)
    bounds = np.linspace(0, trials, _BLOCKS + 1, dtype=int)
    blocks = [(*args, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]
    parts = pool.imap(chunk_fn, blocks) if on_pool else (chunk_fn(*b) for b in blocks)
    done = []
    with closing(parts):
        for part in parts:
            done.append(part)
            if settled is not None and settled(_joined(done)):
                break
    return _joined(done)


def _joined(parts: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    return tuple(np.concatenate(outputs) for outputs in zip(*parts))


def run_trials(
    cfg: TrialConfig,
    pool: TrialPool | None = None,
    settled: Callable[[tuple[np.ndarray, np.ndarray]], bool] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial exact errors and failure indicators, in trial-index order.

    With a `settled` rule (see _map_trials) the arrays hold the first block
    prefix it accepted, else all cfg.trials trials.  The result is
    bit-identical for any worker count: trial t depends only on (seed, t).
    """
    return _map_trials(_run_chunk, (run_trial, (cfg,), ("f8", "u1")), cfg.trials, pool,
                       settled)


def estimate_failure_prob(cfg: TrialConfig, pool: TrialPool | None = None) -> EstimateWithCI:
    """Fraction of trials whose exact error exceeds eps_acc, with Hoeffding CI."""
    _, fails = run_trials(cfg, pool)
    return EstimateWithCI.from_count(int(fails.sum()), cfg.trials, cfg.gamma)


@dataclass(frozen=True)
class MEstimate:
    """One tested m of the search.

    `trials_run` of the estimate's T trials ran.  A point stops after the
    first block prefix whose lowest and highest possible final counts give
    the same status, unless that status can still be success: then all T run.
    `stopped` says why it stopped early: None when all T ran, "fail reached"
    when the prefix count alone certifies fail, "fail out of reach" when the
    count is past success and the trials left cannot reach fail.  A stopped
    point's estimate is its prefix count over T, a lower bound on the
    full-count estimate with the same status; it is no full-count estimate.
    """

    m: int
    estimate: EstimateWithCI
    status: str  # "success" | "fail" | "unresolved"
    trials_run: int
    stopped: str | None = None


@dataclass(frozen=True)
class SampleComplexityResult:
    """Outcome of the empirical sample-size search.

    m_star is the smallest tested m whose failure CI upper bound fell at or
    below the delta target; bracket[0] is the largest tested m whose CI
    lower bound exceeded delta (0 if none).  Points whose CI straddles delta
    are reported as unresolved, never guessed.
    """

    m_star: int
    bracket: tuple[int, int]
    per_m: tuple[MEstimate, ...]

    @property
    def unresolved_ms(self) -> tuple[int, ...]:
        return tuple(e.m for e in self.per_m if e.status == "unresolved")

    def estimate_at(self, m: int) -> EstimateWithCI | None:
        """The estimate of tested m: a full count at m_star, and a prefix
        count over T at a point that stopped early (see MEstimate)."""
        for e in self.per_m:
            if e.m == m:
                return e.estimate
        return None


def _search_point(cfg: TrialConfig, delta: float, pool: TrialPool | None) -> MEstimate:
    """The MEstimate of cfg.m: success if the failure CI upper bound is <=
    delta, fail if the lower bound is > delta, else unresolved; its trials
    stop as MEstimate says."""

    def status(count: int) -> str:
        est = EstimateWithCI.from_count(count, cfg.trials, cfg.gamma)
        if est.upper <= delta:
            return "success"
        return "fail" if est.lower > delta else "unresolved"

    def settled(outputs: tuple[np.ndarray, np.ndarray]) -> bool:
        fails = outputs[1]
        count = int(fails.sum())
        lowest = status(count)
        return lowest != "success" and lowest == status(count + cfg.trials - fails.size)

    _, fails = run_trials(cfg, pool, settled)
    count = int(fails.sum())
    point = status(count)
    stopped = None
    if fails.size < cfg.trials:
        stopped = "fail reached" if point == "fail" else "fail out of reach"
    return MEstimate(cfg.m, EstimateWithCI.from_count(count, cfg.trials, cfg.gamma), point,
                     fails.size, stopped)


def check_search(cfg: TrialConfig, delta: float) -> None:
    """Refuse a search whose CI radius at cfg's trials is at least delta: no
    point of it could succeed."""
    radius = hoeffding_radius(cfg.trials, cfg.gamma)
    if radius >= delta:
        raise InvalidParameterError(
            f"CI radius {radius:.4f} at {cfg.trials} trials can never certify "
            f"failure <= {delta}; increase trials or delta"
        )


def sample_complexity_search(
    cfg: TrialConfig, delta: float, m_max: int, pool: TrialPool | None = None
) -> SampleComplexityResult:
    """Geometric doubling to bracket, then bisection on m.

    Each tested m gets its own seed substream and is evaluated by
    _search_point.  An unresolved point moves the bisection right without
    confirming a bracket edge.
    """
    check_search(cfg, delta)

    evaluated: dict[int, MEstimate] = {}

    def evaluate(m: int) -> MEstimate:
        if m not in evaluated:
            evaluated[m] = _search_point(replace(cfg, m=m, seed=cfg.seed.substream(m)),
                                         delta, pool)
        return evaluated[m]

    confirmed_lo = 0
    hi: int | None = None
    m = 1
    while m <= m_max:
        e = evaluate(m)
        if e.status == "success":
            hi = m
            break
        if e.status == "fail":
            confirmed_lo = m
        m *= 2
    if hi is None:
        raise SearchBracketError(
            f"no m <= {m_max} reached a failure CI upper bound <= {delta}"
        )

    if hi == 1 and evaluate(0).status == "success":
        hi = 0
    soft_lo = min(confirmed_lo, hi - 1) if hi > 0 else -1
    while hi - soft_lo > 1:
        mid = (soft_lo + hi) // 2
        e = evaluate(mid)
        if e.status == "success":
            hi = mid
        else:
            if e.status == "fail":
                confirmed_lo = mid
            soft_lo = mid
    per_m = tuple(evaluated[k] for k in sorted(evaluated))
    return SampleComplexityResult(hi, (confirmed_lo, hi), per_m)


def lower_bound_m(n: int, eps: float) -> int:
    """The labeled-sample budget floor(ln n / (3 ln(1/eps)))."""
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    if not 0.0 < eps < 1.0:
        raise InvalidParameterError("eps must lie in (0, 1)")
    return int(math.floor(math.log(n) / (3.0 * math.log(1.0 / eps))))


def in_theorem_regime(n: int, eps: float) -> bool:
    """Whether n >= 600 / eps^3, the regime the separation theorem assumes."""
    return n >= 600.0 / eps**3


def matched_pair_config(
    n: int, eps: float, learner: str, m: int, eps_acc: float, trials: int,
    seed: RngSeed, gamma: float = 0.01,
) -> TrialConfig:
    """The matched-pair trials: (I, c_I, P_I) drawn at random from the
    projections and P_{n,eps}, the learner given m examples, and
    Pr[d > eps_acc] scored with the exact oracle."""
    return TrialConfig(ProjectionClass(n), PneFamily(n, eps), RandomPair(), learner, m,
                       eps_acc, trials, seed, gamma)


def lower_bound_config(
    n: int, eps: float, learner: str, trials: int, seed: RngSeed, gamma: float = 0.01
) -> TrialConfig:
    """The matched-pair trials at m = floor(ln n / (3 ln(1/eps))) and
    accuracy 1/16."""
    if not 0.0 < eps < 0.25:
        raise InvalidParameterError(f"eps must lie in (0, 1/4), got {eps}")
    return matched_pair_config(n, eps, learner, lower_bound_m(n, eps),
                               FAILURE_THRESHOLD_ONE_SIXTEENTH, trials, seed, gamma)


def lower_bound_experiment(cfg: TrialConfig, pool: TrialPool | None = None) -> EstimateWithCI:
    """estimate_failure_prob of a lower_bound_config; it stays only because
    perfbench's ENTRY_POINTS names it."""
    return estimate_failure_prob(cfg, pool)


@dataclass(frozen=True)
class KsSummary:
    """Concentration statistics of the candidate-set size K and the count S."""

    ratio_band: tuple[float, float]
    ratio_in_band: EstimateWithCI
    k_threshold: float
    k_tail: EstimateWithCI
    k_quantiles: tuple[float, float, float, float, float]
    sk_hist_edges: tuple[float, ...]
    sk_hist_counts: tuple[int, ...]


def five_quantiles(values: np.ndarray) -> tuple[float, float, float, float, float]:
    """The 0, 1/4, 1/2, 3/4 and 1 quantiles of integer `values` by numpy's
    linear rule, equal to np.quantile's bit for bit.

    np.quantile loads numpy.ma (through np.unique) for this, about 0.7 MiB
    on the peak of a ks-stats parent.  With T values, quantile q sits at
    h = (T - 1) q, whose fractional part is 0, 1/4, 1/2 or 3/4, so every
    step below is exact in float64 for integers below 2^50.
    """
    ordered = np.sort(values)
    top = len(ordered) - 1
    out = []
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        h = top * q
        lo = math.floor(h)
        below, above = int(ordered[lo]), int(ordered[min(lo + 1, top)])
        out.append(below + (h - lo) * (above - below))
    return tuple(out)


def _ks_trial(family: PneFamily, m: int, seed: RngSeed, t: int) -> tuple[int, int]:
    """Trial t's K (candidates consistent with the sample) and S (those 1 at the test point)."""
    gen = seed.generator(t)
    i, dist = _draw_member(family, gen)
    mask = _projection_sample(dist, i, m, gen).column_match_mask()
    z = sample_bit_matrix(dist, 1, gen)[0]
    return _popcount(mask), _popcount(mask & z)


def _ks_chunk(family: PneFamily, m: int, seed: RngSeed, lo: int, hi: int) -> tuple:
    """_ks_trial over lo..hi-1; it stays only because perfbench's TRIAL_PATH names it."""
    return _run_chunk(_ks_trial, (family, m, seed), ("i8", "i8"), lo, hi)


def ks_statistics_experiment(
    family: PneFamily,
    m: int,
    trials: int,
    seed: RngSeed,
    gamma: float = 0.01,
    pool: TrialPool | None = None,
) -> KsSummary:
    """Simulate (I, X, Y, Z) under `family` and summarize K, S and the ratio
    condition.

    Draw order per trial: I, then the m x n sample, then the test point.
    The band is [eps/2, 6 eps/5] for S/K, and the K tail is measured
    against n^(2/3) / 2.
    """
    n, eps = family.n, family.eps
    for key, value in (("m", m), ("trials", trials), ("gamma", gamma)):
        spec_value(key, value)
    ks, ss = _map_trials(_ks_chunk, (family, m, seed), trials, pool)

    ratio = ss / ks
    band = (eps / 2.0, 6.0 * eps / 5.0)
    in_band = int(np.count_nonzero((ratio >= band[0]) & (ratio <= band[1])))
    k_threshold = n ** (2.0 / 3.0) / 2.0
    k_tail = int(np.count_nonzero(ks >= k_threshold))
    edges = np.linspace(0.0, 1.0, 41)
    counts, _ = np.histogram(ratio, bins=edges)
    return KsSummary(
        ratio_band=band,
        ratio_in_band=EstimateWithCI.from_count(in_band, trials, gamma),
        k_threshold=k_threshold,
        k_tail=EstimateWithCI.from_count(k_tail, trials, gamma),
        k_quantiles=five_quantiles(ks),
        sk_hist_edges=tuple(float(e) for e in edges),
        sk_hist_counts=tuple(int(c) for c in counts),
    )


@dataclass(frozen=True)
class NoGapRow:
    """Per-m outcome of the missing-mass experiment on the all-functions class."""

    m: int
    trials: int
    violations: int
    threshold: float
    z_ge_rate: EstimateWithCI
    fail_rate: EstimateWithCI
    mean_missing_mass: float


def _no_gap_trial(cfg: TrialConfig, threshold: Fraction, t: int) -> tuple:
    """No-gap trial t: a memorizer trial of cfg, scored exactly.

    Returns d > Z, Z >= threshold and d > threshold, then Z as a float.  d
    (the memorizer's disagreement with the target) and Z (the missing mass)
    are exact rationals over the distribution's common denominator.
    """
    gen = cfg.seed.generator(t)
    _, target = _resolve_target(cfg, gen)
    target_mask, drawn = _table_sample(cfg, target, gen)
    d = cfg.dist.exact_mass(_memorizer_misses(cfg, drawn, target_mask))
    z = missing_mass_fraction(cfg.dist, drawn.tolist())
    return d > z, z >= threshold, d > threshold, float(z)


def no_gap_configs(
    dist: FiniteSupportDistribution,
    m_grid: Sequence[int],
    trials: int,
    eps_acc: float,
    seed: RngSeed,
    gamma: float = 0.01,
    default_bit: int = 0,
) -> list[TrialConfig]:
    """One TrialConfig per m of the no-gap grid: a memorizer trial on the
    all-functions class of the support with a uniform random target."""
    if len(dist.support) > 12:
        raise InvalidParameterError("exact enumeration is capped at 12 domain points")
    cls = all_functions_class(dist.support)
    return [TrialConfig(cls, dist, RandomConcept(), "memorizer", m, eps_acc, trials,
                        seed.substream(m), gamma, memorizer_default=default_bit)
            for m in m_grid]


def no_gap_experiment(
    configs: Sequence[TrialConfig], pool: TrialPool | None = None
) -> tuple[NoGapRow, ...]:
    """Memorizer vs missing mass, one row per no_gap_configs config.

    For every trial the exact rational comparison d_P(memorizer, target) <= Z
    is checked (Z is the missing mass of the drawn sample), and the failure
    rate at threshold 2 * eps_acc is reported next to Pr[Z >= 2 * eps_acc],
    which bounds it.  Rows are bit-identical for any worker count.
    """
    rows = []
    for cfg in configs:
        threshold = 2.0 * cfg.eps_acc
        violated, z_ge, failed, z_float = _map_trials(
            _run_chunk,
            (_no_gap_trial, (cfg, Fraction(threshold)), ("u1", "u1", "u1", "f8")),
            cfg.trials, pool,
        )
        # Plain float addition in trial order: np.sum adds pairwise, and the
        # mean's last bits reach the CSV.
        z_total = 0.0
        for z in z_float.tolist():
            z_total += z
        z_ge_count = int(np.count_nonzero(z_ge))
        fail_count = int(np.count_nonzero(failed))
        rows.append(
            NoGapRow(
                m=cfg.m,
                trials=cfg.trials,
                violations=int(np.count_nonzero(violated)),
                threshold=threshold,
                z_ge_rate=EstimateWithCI.from_count(z_ge_count, cfg.trials, cfg.gamma),
                fail_rate=EstimateWithCI.from_count(fail_count, cfg.trials, cfg.gamma),
                mean_missing_mass=z_total / cfg.trials,
            )
        )
    return tuple(rows)
