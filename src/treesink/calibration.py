"""Global parametric identification.

All species parameters are estimated simultaneously against the targets of
every tree at once: a weighted least-squares objective compares each tree's
simulation (sharing one parameter set, with a per-tree environment factor)
to its measurements.  Parameters the model responds to continuously are
fitted with a bounded least-squares descent; the zone coefficients pass
through integer roundings, so the model output is piecewise constant in
them and they are fitted by simulated annealing.  Because of that same
piecewise structure, a fitted zone coefficient is reported as the interval
of values reproducing the identical architecture rather than a point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .core import (TARGET_CLASSES, GrowthParameters, InvalidValue,
                   TargetDataset, TreesinkError, ZoneRuleSet, check_range)
from .engine import (check_run_request, extract_targets, run_key, simulate,
                     simulate_batch)
from .topology import holding_band, plan_holds


class UnfittableError(TreesinkError):
    """Raised when every candidate evaluation fails."""


@dataclass(frozen=True)
class FreeParameter:
    name: str
    lower: float
    upper: float
    init: float

    def __post_init__(self):   # keyed by the [fit] lines that set them
        bound = f"bound_{self.name}"
        if not (math.isfinite(self.lower) and self.lower < self.upper
                and math.isfinite(self.upper)):
            raise InvalidValue((bound,), f"{self.name}: bounds must be "
                               f"finite, lower < upper: {self.lower}, "
                               f"{self.upper}")
        if not (self.lower <= self.init <= self.upper):
            raise InvalidValue((f"init_{self.name}", bound),
                               f"{self.name}: init {self.init} outside "
                               f"[{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class AnnealSchedule:
    t0: float = 0.5             # initial temperature, × initial objective
    cooling: float = 0.95
    steps_per_t: int = 50
    t_stop_ratio: float = 1e-3  # stop when T/T0 falls below this
    step_scale: float = 0.25    # proposal step, × (upper-lower) × T/T0

    def __post_init__(self):
        for f in fields(self):
            check_range(f"annealing {f.name}", getattr(self, f.name))


@dataclass
class FitSpec:
    """Free parameters, weighting and annealing configuration of one fit."""

    continuous: list[FreeParameter]
    topological: list[FreeParameter] = field(default_factory=list)
    weights: dict[str, float] | None = None   # per class, over the defaults
    schedule: AnnealSchedule = field(default_factory=AnnealSchedule)
    seed: int = 0
    refit_every: int = 5     # continuous re-optimisation cadence (accepts)
    nested_refit: bool = False  # re-optimise continuous at every proposal
    max_nfev: int | None = None
    stop_objective: float | None = None  # finish early below this objective
    polish_rounds: int = 4   # deterministic neighbour-basin passes (0 = off)

    def __post_init__(self):
        """Raise InvalidValue, keyed by the [fit] key that sets it, unless
        each free name is listed once over both lists and is a zone
        coefficient ``m2_I_K``/``a2_I_K`` exactly when it is topological,
        each weight's class is an objective data class, and each weight and
        setting is inside its range (core.RANGES)."""
        listed = set()
        for key, free, topological in (
                ("free_continuous", self.continuous, False),
                ("free_topology", self.topological, True)):
            for name in (p.name for p in free):
                if name in listed:
                    raise InvalidValue((key,),
                                       f"free parameter {name} listed twice")
                listed.add(name)
                if bool(_ZONE_COEFFICIENT.fullmatch(name)) != topological:
                    raise InvalidValue((key,), (
                        f"{name} is not a zone coefficient m2_I_K or a2_I_K"
                        if topological else
                        f"zone coefficient {name} belongs in free_topology"))
        for cls, w in (self.weights or {}).items():
            if cls not in TARGET_CLASSES:
                raise InvalidValue((f"weight_{cls}",),
                                   f"unknown data class {cls!r}")
            check_range("weight", w, f"weight_{cls}")
        for name in ("seed", "max_nfev", "stop_objective", "refit_every",
                     "polish_rounds"):
            check_range(name, getattr(self, name))


#: names of the zone coefficients, the only topological free parameters
_ZONE_COEFFICIENT = re.compile(r"[ma]2_\d+_\d+")


@dataclass
class PredictedObserved:
    tree: int
    data_class: str
    observed: float
    simulated: float


@dataclass
class FitResult:
    continuous: dict[str, float]
    topology: dict[str, float]
    intervals: dict[str, tuple[float | None, float | None]]
    v_env: list[float]
    objective: float
    trace: list[float]
    r_squared: dict[str, float]
    predicted_observed: list[PredictedObserved]
    evaluations: int = 0


# ----------------------------------------------------------------------
# candidate application
# ----------------------------------------------------------------------

_CONTINUOUS_FIELDS = {f.name for f in fields(GrowthParameters)
                      if f.type == "float"}
#: name prefix of one per-PA or per-tree entry -> its parameter vector
_INDEXED_FIELDS = {"p_rg_": "p_rg", "p_s_": "p_s", "allom_a_": "allom_a",
                   "allom_b_": "allom_b", "v_": "v_env"}


def apply_candidate(params: GrowthParameters, zones: ZoneRuleSet,
                    values: dict[str, float]
                    ) -> tuple[GrowthParameters, ZoneRuleSet]:
    """Build a parameter set and zone rules from a named-value candidate.

    Recognised names: plain parameter fields (``sp0``, ``alpha``, ``p_r``,
    ``gamma``, ``lambda_mix``, ``wood_density``, ...), per-PA entries
    ``p_rg_K`` / ``p_s_K`` / ``allom_a_K`` / ``allom_b_K``, per-tree
    environments ``v_T`` and zone coefficients ``m2_I_K`` / ``a2_I_K``.
    Raises InvalidValue for a name it cannot apply: an index outside
    1..length, an absent zone, or ``a2`` of an unbranched zone.
    """
    updates: dict[str, object] = {}
    vectors = {f: list(getattr(params, f)) for f in _INDEXED_FIELDS.values()}
    new_zones = zones
    for name, value in values.items():
        prefix = next((k for k in _INDEXED_FIELDS if name.startswith(k)), None)
        if name in _CONTINUOUS_FIELDS:
            updates[name] = float(value)
        elif prefix is not None:
            vector = vectors[_INDEXED_FIELDS[prefix]]
            index = name[len(prefix):]
            if not (index.isdecimal() and 1 <= int(index) <= len(vector)):
                raise InvalidValue((name,), f"{name}: index outside "
                                   f"1..{len(vector)}")
            vector[int(index) - 1] = float(value)
        elif name.startswith(("m2_", "a2_")):
            kind, *ids = name.split("_")
            rule = (new_zones.get(int(ids[0]), int(ids[1]))
                    if len(ids) == 2 and all(i.isdecimal() for i in ids)
                    else None)
            if rule is None:
                raise InvalidValue((name,),
                                   f"no zone Z^{''.join(ids)} for {name}")
            if kind == "a2" and not rule.branching:
                raise InvalidValue((name,), f"zone Z^{''.join(ids)} bears no "
                                   f"axes, so {name} has no effect")
            rule = replace(rule, **{kind: float(value)})
            new_zones = new_zones.with_rule(rule)
        else:
            raise InvalidValue((name,), f"unknown free parameter {name!r}")
    new_params = params.with_values(
        **{f: tuple(v) for f, v in vectors.items()}, **updates)
    return new_params, new_zones


@np.errstate(over="ignore")   # a mean that overflows fails below
def default_weights(targets: list[TargetDataset],
                    given: dict[str, float] | None = None) -> dict[str, float]:
    """Per-class weight 1/(class-mean observed)², pooled over all trees, so
    heterogeneous units contribute comparably; a class ``given`` a weight
    keeps that one instead."""
    pools: dict[str, list[float]] = {c: [] for c in TARGET_CLASSES}
    for ds in targets:
        _, observed, labels = ds.alignment
        for cls, value in zip(labels, observed.tolist()):
            pools[cls].append(value)
    weights = {}
    for cls, values in pools.items():
        if values and cls not in (given or {}):
            mean = float(np.mean(np.abs(values)))
            if not (mean == 0 or 1e-154 < mean < 1e154):   # 1/mean² is not
                raise UnfittableError(f"{cls} observations cannot be "
                                      f"weighted: their mean is {mean!r}")
            weights[cls] = 1.0 / mean ** 2 if mean > 0 else 1.0
    return {**weights, **(given or {})}


# ----------------------------------------------------------------------
# objective
# ----------------------------------------------------------------------

def weighted_residuals(values: dict[str, float], params: GrowthParameters,
                       zones: ZoneRuleSet, targets: list[TargetDataset],
                       weights: dict[str, float]) -> np.ndarray:
    """sqrt(weight)·(sim − obs) stacked over every tree and data point."""
    [result] = Scorer(params, zones, targets, weights).residuals([values])
    if isinstance(result, TreesinkError):
        raise result
    return result


def objective(values: dict[str, float], params: GrowthParameters,
              zones: ZoneRuleSet, targets: list[TargetDataset],
              weights: dict[str, float]) -> float:
    """Weighted sum of squared sim−obs differences over every tree; +inf on
    simulation failure."""
    return Scorer(params, zones, targets, weights).objective(values)


#: the runs of each tree that a scorer keeps
_REPLAY_RUNS = 4


class Scorer:
    """The residuals, objective and report of one fit's candidate values.
    It keeps each tree's last 4 successful runs, and the runs of the first
    candidate to reach the lowest objective so far, as run key
    (:func:`run_key`), decisions, aligned rows and weighted residuals.  A
    candidate with the same run key under whose zone rules each plan of a
    kept run, the pending one included, keeps its outcome
    (:func:`plan_holds`) repeats that run bit for bit: residuals replay the
    last 4, :meth:`report` any kept run."""

    def __init__(self, params: GrowthParameters, zones: ZoneRuleSet,
                 targets: list[TargetDataset], weights: dict[str, float]):
        self.params, self.zones = params, zones
        self.targets, self.weights = targets, weights
        self._kept = [[] for _ in targets]   # (key, plans, rows, residuals)
        self._best = math.inf, [[] for _ in targets]   # objective, its runs
        self.evaluations = 0   # the candidates scored
        self.runs = 0       # engine runs: batches, and report's fresh runs
        self.columns = 0    # the tree-columns those runs ran
        self.replays = 0    # scored or reported tree-runs a kept run repeated

    def residuals(self, candidates: list[dict[str, float]], ahead=None):
        """Per candidate, sqrt(weight)·(sim − obs) stacked over every tree
        and data point, or the TreesinkError its runs or their alignment
        raise (a failing tree stops the candidate's runs).  On each tree
        the candidates that replay no kept run run as one batch; they must
        give the same zone rules.  With ``ahead`` points it returns ``(now,
        later)``: the points run in the same batches, and ``later()`` is
        the call right after this one that scores them, with no run again."""
        cols, rules = zip(*(apply_candidate(self.params, self.zones, values)
                            for values in [*candidates, *(ahead or [])]))
        zones, n, ran = rules[0], len(candidates), {}
        if any(each != zones for each in rules):
            raise ValueError("batched candidates differ in their zone rules")
        now = self._scored(cols, zones, n, ran)
        return now if ahead is None else (
            now, lambda: self._scored(cols[n:], zones, len(cols) - n, ran))

    def _scored(self, cols, zones, n, ran):
        """:meth:`residuals` of the first ``n`` parameter columns ``cols``;
        ``ran`` maps (tree, parameters) to each fresh run, or its error."""
        self.evaluations += n
        results: list = [[] for _ in cols]   # runs, or the error
        for i, (ds, kept) in enumerate(zip(self.targets, self._kept)):
            fresh, keys = [], {}   # each live candidate's run key
            for k in [k for k, c in enumerate(results) if isinstance(c, list)]:
                keys[k] = run_key(cols[k], i)
                try:
                    run = _replayed(kept, keys[k], cols[k], zones, ds, i)
                except TreesinkError as exc:
                    results[k] = exc
                    continue
                if run is None:
                    fresh.append(k)
                else:
                    results[k].append(run)
                    self.replays += k < n   # a point ahead, once claimed
            todo = [k for k in fresh if (i, cols[k]) not in ran]
            self.runs += bool(todo)
            self.columns += len({keys[k] for k in todo})   # each key once
            for k, output in zip(todo, todo and simulate_batch(
                    [cols[k] for k in todo], zones, ds, tree_index=i)):
                col = cols[k]
                try:
                    if isinstance(output, TreesinkError):
                        raise output
                    sim, obs, labels = rows = extract_targets(output, ds)
                except TreesinkError as exc:
                    ran[i, col] = exc
                    continue
                w = np.sqrt([self.weights.get(lbl, 1.0) for lbl in labels])
                ran[i, col] = keys[k], output.decisions, rows, w * (sim - obs)
            for k in fresh:
                if isinstance(run := ran[i, cols[k]], TreesinkError):
                    results[k] = run
                    continue
                results[k].append(run)
                if k < n:
                    kept.insert(0, run)
            del kept[_REPLAY_RUNS:]
        for k, runs in enumerate(results[:n]):
            if isinstance(runs, list):
                results[k] = res = (np.concatenate([run[3] for run in runs])
                                    if runs else np.empty(0))
                value = float(res @ res)
                if value < self._best[0]:
                    self._best = value, [[run] for run in runs]
        return results[:n]

    def objective(self, values: dict[str, float]) -> float:
        """Weighted sum of squared sim−obs differences over every tree;
        +inf on simulation failure."""
        [res] = self.residuals([values])
        return math.inf if isinstance(res, TreesinkError) else float(res @ res)

    def report(self, values: dict[str, float]):
        """(parameters, zone rules) of the candidate ``values`` and, per
        tree in target order, the decisions and aligned ``(sim, obs,
        labels)`` of its run: a kept run it repeats, else one fresh
        profile-only run.  Raises the TreesinkError of a failing run."""
        cand, zones = apply_candidate(self.params, self.zones, values)
        trees = []
        for i, (ds, best) in enumerate(zip(self.targets, self._best[1])):
            run = _replayed(best + self._kept[i], run_key(cand, i), cand,
                            zones, ds, i)
            if run is None:
                output = simulate(cand, zones, ds, tree_index=i,
                                  with_topology=False, with_signature=False)
                run = cand, output.decisions, extract_targets(output, ds)
                self.runs, self.columns = self.runs + 1, self.columns + 1
            else:
                self.replays += 1
            trees.append(run[1:3])
        return cand, zones, trees


def _replayed(runs, key, cand, zones, ds, tree_index):
    """The run of ``runs`` of the tree ``ds`` that ``cand``, of run key
    ``key``, repeats under ``zones``, or None: the first with its key whose
    plans all hold.  A repeated run's request is checked whole, as in a
    run."""
    run = next((run for run in runs if run[0] == key and all(
        plan_holds(plan, zones, cand) for plan in run[1])), None)
    if run is not None:
        check_run_request(cand, zones, ds, tree_index, None)
    return run


# ----------------------------------------------------------------------
# continuous stage
# ----------------------------------------------------------------------

def fit_continuous(free: list[FreeParameter], fixed: dict[str, float],
                   scorer: Scorer, x0: np.ndarray | None = None,
                   max_nfev: int | None = None
                   ) -> tuple[dict[str, float], float]:
    """Bounded least-squares descent over the continuous parameters with the
    topology held fixed.  Returns (estimates, objective), deterministic
    given its inputs.  The Jacobian is scipy's 2-point one, bit for bit; its
    points run with their residual and count once scipy takes it.
    ``scorer`` may replay each residual, so a scored start runs no tree."""
    if not free:
        obj = scorer.objective(dict(fixed))
        if math.isinf(obj):
            raise UnfittableError("fixed-point evaluation failed")
        return {}, obj
    names = [p.name for p in free]
    lower = np.array([p.lower for p in free])
    upper = np.array([p.upper for p in free])
    start = np.array([p.init for p in free] if x0 is None else x0, dtype=float)
    start = np.clip(start, lower, upper)
    # a large flat penalty steers the trust region away without NaNs
    penalty = np.full(sum(len(d.alignment[1]) for d in scorer.targets), 1e12)

    def values(points):
        return [{**fixed, **dict(zip(names, map(float, x)))} for x in points]

    def penalized(results):
        return [penalty if isinstance(res, TreesinkError) else res
                for res in results]

    def forward_points(x):
        """scipy's 2-point Jacobian points at ``x`` (row ``i`` steps x_i by
        1e-6·|x_i|, else sqrt(eps)·max(1, |x_i|)); a step leaving the bounds
        turns back, or spans the wider side if it fits on neither."""
        sign = (x >= 0).astype(float) * 2 - 1
        h = 1e-6 * sign * np.abs(x)
        h = np.where((x + h) - x == 0, np.finfo(float).eps ** 0.5 * sign
                     * np.maximum(1.0, np.abs(x)), h)
        below, above = x - lower, upper - x
        h = np.where(np.abs(h) <= np.maximum(below, above),
                     np.where((x + h < lower) | (x + h > upper), -h, h),
                     np.where(above >= below, above, -below))
        return np.where(np.eye(len(x), dtype=bool), x + h, x)

    last = []   # the last residual's point, residual and Jacobian's runs

    def fun(x):
        now, later = scorer.residuals(values([x]), values(forward_points(x)))
        last[:] = x.copy(), *penalized(now), later
        return last[1]

    def jac(x):   # trf asks for it only at its last residual
        x0, f0, later = last
        if not np.array_equal(x, x0):
            raise RuntimeError(f"Jacobian at {x}, last residual at {x0}")
        return np.array([(f - f0) / dx for f, dx in zip(
            penalized(later()), np.diagonal(forward_points(x)) - x)]).T

    x_scale = np.maximum(np.abs(start), 1e-3 * np.maximum(upper - lower, 1e-12))
    result = least_squares(fun, start, jac=jac, bounds=(lower, upper),
                           x_scale=x_scale, max_nfev=max_nfev, method="trf")
    estimates = {n: float(v) for n, v in zip(names, result.x)}
    obj = float(result.fun @ result.fun)
    if not math.isfinite(obj) or obj >= 1e12:
        raise UnfittableError("continuous fit found no feasible candidate")
    return estimates, obj


def least_squares(*args, **kwargs):
    """scipy's least_squares, imported on first use: the package imports
    without scipy, so every command but ``fit`` starts without it."""
    from scipy.optimize import least_squares as solve
    return solve(*args, **kwargs)


# ----------------------------------------------------------------------
# topology stage: simulated annealing + structural intervals
# ----------------------------------------------------------------------

#: probe offsets of the neighbour-basin polish, as fractions of a
#: coefficient's bound range: a coarse ladder around the current value, and
#: one step past each edge of its structural interval
_POLISH_OFFSETS = (0.02, 0.05, 0.12, 0.3)
_EDGE_OFFSET = 6e-3


class FitStage(NamedTuple):
    """What one stage of :func:`fit_topology` ran: the scorer's counts
    since the previous record, and the best objective at the stage's end."""

    stage: str           # start, anneal, refit, polish or report
    evaluations: int     # candidates scored
    runs: int            # engine runs
    columns: int         # tree-columns those runs ran
    replays: int         # tree-runs a kept run repeated
    best: float
    temperature: float | None = None   # anneal: the temperature it ran at
    accepted: int | None = None        # anneal: the proposals it accepted


@np.errstate(over="ignore")   # an objective that overflows is infeasible
def fit_topology(spec: FitSpec, params: GrowthParameters, zones: ZoneRuleSet,
                 targets: list[TargetDataset],
                 stages: list[FitStage] | None = None) -> FitResult:
    """Full identification: the continuous stage at the initial zone
    coefficients, simulated annealing over the zone coefficients with
    nested continuous re-optimisation, a final continuous refit at the best
    point, a neighbour-basin polish, then the report with its intervals.

    With no free topological coefficients this reduces to the continuous
    stage.  The annealing chain is sequential and owns the only random
    stream, so a fixed seed reproduces the result exactly.  After the chain
    cools, a deterministic pass probes the neighbouring structure pieces of
    each coefficient (the objective is piecewise constant in them, so the
    chain alone ends inside some near-optimal piece; the probes walk piece
    to piece while that improves the fit): a coarse ladder, then one step
    past each end of the current piece.  Every residual comes from one
    :class:`Scorer`, which replays the fit's recent runs and counts each
    score and residual as an evaluation.  The piece edges, the intervals
    and the predicted-vs-observed rows come from ``_intervals`` over the
    scorer's :meth:`Scorer.report`.  Each stage appends a :class:`FitStage`
    to ``stages``; the records leave the result unchanged.
    """
    fit = _Fit(spec, params, zones, targets,
               [] if stages is None else stages)
    fit.start()
    fit.anneal()
    fit.refit()
    fit.polish()
    return fit.report()


class _Fit:
    """One :func:`fit_topology` run: its scorer, random stream and trace,
    the annealing chain's current point and the best point so far, with
    one method per stage."""

    def __init__(self, spec, params, zones, targets, stages):
        self.spec, self.stages = spec, stages
        self.scorer = Scorer(params, zones, targets,
                             default_weights(targets, spec.weights))
        self.rng = np.random.default_rng(spec.seed)
        self.trace: list[float] = []
        self.topo = {p.name: p.init for p in spec.topological}
        self.best_topo, self.best_cont, self.best_obj = self.topo, {}, math.inf
        self._counted = (0, 0, 0, 0)   # the scorer's counts at the last record

    def start(self):
        """The continuous stage at the initial zone coefficients, where the
        chain and the best point start."""
        self.cont, self.obj = fit_continuous(
            self.spec.continuous, self.topo, self.scorer,
            max_nfev=self.spec.max_nfev)
        self.warm = self.cont   # warm start of the annealing chain's refits
        self.trace.append(self.obj)
        self._offer(self.topo, self.cont, self.obj)
        self._record("start")

    def anneal(self):
        """Simulated annealing over the zone coefficients; one record per
        temperature."""
        spec, sched, rng = self.spec, self.spec.schedule, self.rng
        if not spec.topological:
            return
        t0 = temperature = sched.t0 * max(self.obj, 1e-12)
        since_refit = 0   # accepts since the last continuous refit
        while temperature / t0 > sched.t_stop_ratio and not self._stopped():
            accepted = 0
            for _ in range(sched.steps_per_t):
                p = spec.topological[int(rng.integers(len(spec.topological)))]
                sigma = sched.step_scale * (p.upper - p.lower) \
                    * max(temperature / t0, 0.05)
                value = self.topo[p.name] \
                    + sigma * float(rng.standard_normal())
                candidate = {**self.topo,
                             p.name: float(np.clip(value, p.lower, p.upper))}
                if spec.nested_refit and spec.continuous:
                    cand_cont, cand_obj = (self._fitted(candidate, self.warm)
                                           or (self.cont, math.inf))
                else:
                    cand_cont, cand_obj = self.cont, self.scorer.objective(
                        {**candidate, **self.cont})
                delta = cand_obj - self.obj
                if delta <= 0 or (
                        math.isfinite(cand_obj)
                        and rng.random() < math.exp(-delta / temperature)):
                    accepted += 1
                    since_refit += 1
                    prev_best = self.best_obj
                    self.topo, self.cont, self.obj = \
                        candidate, cand_cont, cand_obj
                    substantial = (self._offer(candidate, cand_cont, cand_obj)
                                   and cand_obj < 0.5 * prev_best)
                    if (not spec.nested_refit and spec.continuous and (
                            since_refit >= spec.refit_every or substantial)):
                        since_refit = 0
                        fitted = self._fitted(self.topo, self.warm)
                        if fitted is not None:
                            self.cont, self.obj = fitted
                            self.warm = self.cont
                            self._offer(self.topo, self.cont, self.obj)
                self.trace.append(self.best_obj)
                if self._stopped():
                    break
            self._record("anneal", temperature, accepted)
            temperature *= sched.cooling

    def refit(self):
        """The continuous stage again at the best zone coefficients, from
        the best estimates.  It alone keeps a tie, which decides the
        reported estimates' bits."""
        if self.spec.continuous and not self._stopped():
            fitted = self._fitted(self.best_topo, self.best_cont)
            if fitted is not None and fitted[1] <= self.best_obj:
                self.best_cont, self.best_obj = fitted
        if not math.isfinite(self.best_obj):
            raise UnfittableError("no candidate produced a finite objective")
        self.trace.append(self.best_obj)
        self._record("refit")

    def polish(self):
        """Deterministic neighbour-basin rounds: the objective is piecewise
        constant in each zone coefficient, so probe a coarse ladder plus the
        pieces immediately adjacent to the current one.  One record per
        round; a round that moves nothing ends the stage."""
        spec, scorer = self.spec, self.scorer
        for _ in range(spec.polish_rounds if spec.topological else 0):
            if self._stopped():
                break
            moved = False
            edges = None   # intervals at the best, once a probe needs them
            for p in spec.topological:
                x0, span = self.best_topo[p.name], p.upper - p.lower
                scored = self._probe(p, (x0 + sign * frac * span
                                         for frac in _POLISH_OFFSETS
                                         for sign in (1.0, -1.0)))
                if not scored or min(scored)[0] >= self.best_obj:
                    # the coarse ladder may straddle a narrow neighbouring
                    # piece: step just past this piece's edges
                    if edges is None:
                        edges = _intervals(spec, *scorer.report(
                            {**self.best_topo, **self.best_cont})[1:])
                    lo, hi = edges[p.name]
                    scored += self._probe(p, (
                        edge + sign * _EDGE_OFFSET * span
                        for edge, bound, sign in ((lo, p.lower, -1.0),
                                                  (hi, p.upper, 1.0))
                        if edge not in (None, bound)))
                if not scored or min(scored)[0] >= self.best_obj:
                    continue
                quick_obj, quick_x = min(scored)
                candidate = {**self.best_topo, p.name: quick_x}
                fitted = (self._fitted(candidate, self.best_cont)
                          if spec.continuous else (self.best_cont, quick_obj))
                if fitted is None:
                    continue
                if self._offer(candidate, *fitted):
                    moved, edges = True, None
                self.trace.append(self.best_obj)
                if self._stopped():
                    break
            self._record("polish")
            if not moved:
                break

    def report(self) -> FitResult:
        """The result at the best point, from the scorer's report."""
        fitted_params, fitted_zones, trees = self.scorer.report(
            {**self.best_topo, **self.best_cont})
        pvo, r2 = _predicted_observed(trees)
        self._record("report")
        return FitResult(
            continuous=dict(sorted(self.best_cont.items())),
            topology=dict(sorted(self.best_topo.items())),
            intervals=_intervals(self.spec, fitted_zones, trees),
            v_env=list(fitted_params.v_env),
            objective=self.best_obj,
            trace=self.trace,
            r_squared=r2,
            predicted_observed=pvo,
            evaluations=self.scorer.evaluations)

    def _stopped(self) -> bool:
        """Whether the best objective has reached ``stop_objective``."""
        return (self.spec.stop_objective is not None
                and self.best_obj <= self.spec.stop_objective)

    def _offer(self, topo, cont, obj) -> bool:
        """Make the point the best one if it scores strictly lower; whether
        it did."""
        improved = obj < self.best_obj
        if improved:
            self.best_topo, self.best_cont, self.best_obj = topo, cont, obj
        return improved

    def _fitted(self, topo, warm):
        """(estimates, objective) of the continuous stage at ``topo``,
        started from ``warm``; None when no candidate is feasible."""
        try:
            return fit_continuous(
                self.spec.continuous, topo, self.scorer,
                max_nfev=self.spec.max_nfev,
                x0=np.array([warm[q.name] for q in self.spec.continuous]))
        except UnfittableError:
            return None

    def _probe(self, p, values):
        """(objective, x) of each x of ``values`` inside ``p``'s bounds,
        the other coefficients at the best point, whose objective is
        finite."""
        scored = ((self.scorer.objective(
            {**self.best_topo, p.name: x, **self.best_cont}), x)
            for x in values if p.lower <= x <= p.upper)
        return [(v, x) for v, x in scored if math.isfinite(v)]

    def _record(self, stage, temperature=None, accepted=None):
        """Append the stage's record: the scorer's counts since the last."""
        s = self.scorer
        counts = (s.evaluations, s.runs, s.columns, s.replays)
        self.stages.append(FitStage(
            stage, *(a - b for a, b in zip(counts, self._counted)),
            self.best_obj, temperature, accepted))
        self._counted = counts


def _predicted_observed(trees):
    """Predicted-vs-observed rows and per-class r² of each tree's aligned
    ``(sim, obs, labels)``, as :meth:`Scorer.report` gives them."""
    rows: list[PredictedObserved] = []
    per_class: dict[str, list[tuple[float, float]]] = {}
    for i, (_, (sim, obs, labels)) in enumerate(trees):
        for s, o, lbl in zip(sim, obs, labels):
            rows.append(PredictedObserved(tree=i + 1, data_class=lbl,
                                          observed=float(o), simulated=float(s)))
            per_class.setdefault(lbl, []).append((float(s), float(o)))
    r2 = {}
    for cls, pairs in sorted(per_class.items()):
        sims, obss = map(np.array, zip(*pairs))
        ss_res = float(((sims - obss) ** 2).sum())
        ss_tot = float(((obss - obss.mean()) ** 2).sum())
        r2[cls] = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return rows, r2


def compute_intervals(spec: FitSpec, best_values: dict[str, float],
                      params: GrowthParameters, zones: ZoneRuleSet,
                      targets: list[TargetDataset]
                      ) -> dict[str, tuple[float | None, float | None]]:
    """Structural interval of each fitted zone coefficient: the closed range
    around the fitted value over which every output of each tree's run is
    bit-identical, exact to the float.  With the continuous parameters
    fixed, a run whose plans all hold (:func:`plan_holds`) repeats bit for
    bit, so this is the range over which every plan of one reference run
    per tree, the pending one included, holds (:func:`holding_band`).
    ``None`` as the upper end means unbounded (a zone cap or position
    saturation absorbs every rise); an inert zone spans its fit bounds.
    The reference runs are a fresh :class:`Scorer`'s :meth:`report`."""
    if not spec.topological:
        return {}
    _, cand_zones, trees = Scorer(params, zones, targets, {}).report(
        best_values)
    return _intervals(spec, cand_zones, trees)


def _intervals(spec, cand_zones, trees):
    """:func:`compute_intervals` from each tree's decisions under
    ``cand_zones``, as :meth:`Scorer.report` gives them."""
    plans = [plan for decisions, _ in trees for plan in decisions]
    intervals: dict[str, tuple[float | None, float | None]] = {}
    for p in spec.topological:
        kind, bearer, axillary = p.name.split("_")
        lo, hi = holding_band(plans, cand_zones, kind,
                              (int(bearer), int(axillary)))
        intervals[p.name] = (
            (p.lower, p.upper) if (lo, hi) == (-math.inf, math.inf) else
            (max(lo, p.lower), None if hi == math.inf else min(hi, p.upper)))
    return intervals
