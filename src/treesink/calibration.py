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
from operator import attrgetter

import numpy as np

from .core import (MEASUREMENTS, TARGET_CLASSES, GrowthParameters,
                   TargetDataset, TreesinkError, ZoneRuleSet)
from .engine import (check_run_request, extract_targets, simulate,
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

    def __post_init__(self):
        if not (math.isfinite(self.lower) and self.lower < self.upper
                and math.isfinite(self.upper)):
            raise ValueError(f"{self.name}: bounds must be finite, lower < "
                             f"upper: {self.lower}, {self.upper}")
        if not (self.lower <= self.init <= self.upper):
            raise ValueError(f"{self.name}: init {self.init} outside "
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
            check_setting(f"annealing {f.name}", getattr(self, f.name))


#: what a fit setting must satisfy besides being finite: a cooling of 1 or
#: more would never end the annealing, numpy seeds its generator from
#: nonnegative integers only, scipy needs max_nfev >= 1, and the fit would
#: silently reinterpret a lower step scale, refit cadence or polish count
_SETTING_RULES = {"annealing t0": ("> 0", lambda v: v > 0),
                  "annealing cooling": ("in (0, 1)", lambda v: 0 < v < 1),
                  "annealing steps_per_t": (">= 0", lambda v: v >= 0),
                  "annealing t_stop_ratio": ("> 0", lambda v: v > 0),
                  "annealing step_scale": ("> 0", lambda v: v > 0),
                  "seed": (">= 0", lambda v: v >= 0),
                  "max_nfev": (">= 1", lambda v: v >= 1),
                  "refit_every": (">= 1", lambda v: v >= 1),
                  "polish_rounds": (">= 0", lambda v: v >= 0)}


def check_setting(name: str, value) -> None:
    """Raise ValueError unless ``value`` suits the fit setting ``name`` (a
    FitSpec field, or ``annealing`` and an AnnealSchedule field) or is None."""
    condition, holds = _SETTING_RULES.get(name, ("", lambda v: True))
    if value is not None and not math.isfinite(value):
        raise ValueError(f"{name} must be finite: {value!r}")
    if value is not None and not holds(value):
        raise ValueError(f"{name} must be {condition}: {value!r}")


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
        continuous = [p.name for p in self.continuous]
        check_free_names(continuous)
        check_free_names([p.name for p in self.topological], True, continuous)
        for cls, w in (self.weights or {}).items():
            check_weight(cls, w)
        for name in ("seed", "max_nfev", "stop_objective", "refit_every",
                     "polish_rounds"):
            check_setting(name, getattr(self, name))


#: names of the zone coefficients, the only topological free parameters
_ZONE_COEFFICIENT = re.compile(r"[ma]2_\d+_\d+")


def check_free_names(names: list[str], topological: bool = False,
                     earlier: list[str] = ()) -> None:
    """Raise ValueError unless each free name is listed once, ``earlier``
    lists included, and is a zone coefficient ``m2_I_K``/``a2_I_K``
    exactly when the list is ``topological``."""
    for i, name in enumerate(names):
        if name in earlier or name in names[:i]:
            raise ValueError(f"free parameter {name} listed twice")
        if bool(_ZONE_COEFFICIENT.fullmatch(name)) != topological:
            raise ValueError(
                f"{name} is not a zone coefficient m2_I_K or a2_I_K"
                if topological else
                f"zone coefficient {name} belongs in free_topology")


def check_weight(data_class: str, weight: float) -> None:
    """Raise ValueError unless ``data_class`` is an objective data class
    and ``weight`` is finite and positive."""
    if data_class not in TARGET_CLASSES:
        raise ValueError(f"unknown data class {data_class!r}")
    if not (math.isfinite(weight) and weight > 0):
        raise ValueError(f"weight for {data_class} must be finite and "
                         f"positive: {weight!r}")


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
    Raises ValueError for a name it cannot apply: an index outside
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
                raise ValueError(f"{name}: index outside 1..{len(vector)}")
            vector[int(index) - 1] = float(value)
        elif name.startswith(("m2_", "a2_")):
            kind, *ids = name.split("_")
            rule = (new_zones.get(int(ids[0]), int(ids[1]))
                    if len(ids) == 2 and all(i.isdecimal() for i in ids)
                    else None)
            if rule is None:
                raise ValueError(f"no zone Z^{''.join(ids)} for {name}")
            if kind == "a2" and not rule.branching:
                raise ValueError(f"zone Z^{''.join(ids)} bears no axes, so "
                                 f"{name} has no effect")
            rule = replace(rule, **{kind: float(value)})
            new_zones = new_zones.with_rule(rule)
        else:
            raise ValueError(f"unknown free parameter {name!r}")
    new_params = params.with_values(
        **{f: tuple(v) for f, v in vectors.items()}, **updates)
    return new_params, new_zones


def default_weights(targets: list[TargetDataset]) -> dict[str, float]:
    """Per-class weight 1/(class-mean observed)², pooled over all trees, so
    heterogeneous units contribute comparably."""
    pools: dict[str, list[float]] = {c: [] for c in TARGET_CLASSES}
    for ds in targets:
        for m in MEASUREMENTS:
            for cls, value in m.classes:
                pools[cls] += map(attrgetter(value), getattr(ds, m.field))
    weights = {}
    for cls, values in pools.items():
        if values:
            mean = float(np.mean(np.abs(values)))
            weights[cls] = 1.0 / mean ** 2 if mean > 0 else 1.0
    return weights


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
    candidate to reach the lowest objective so far, as parameters,
    decisions, aligned rows and weighted residuals.  A candidate with the same parameters
    under whose zone rules each plan of a kept run, the pending one
    included, keeps its outcome (:func:`plan_holds`) repeats that run bit
    for bit: residuals replay the last 4, :meth:`report` any kept run."""

    def __init__(self, params: GrowthParameters, zones: ZoneRuleSet,
                 targets: list[TargetDataset], weights: dict[str, float]):
        self.params, self.zones = params, zones
        self.targets, self.weights = targets, weights
        self._kept = [[] for _ in targets]   # (params, plans, rows, residuals)
        self._best = math.inf, [[] for _ in targets]   # objective, its runs
        self.evaluations = 0   # the candidates scored: the fit's one count

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
            fresh = []
            for k in [k for k, c in enumerate(results) if isinstance(c, list)]:
                try:
                    run = _replayed(kept, cols[k], zones, ds, i)
                except TreesinkError as exc:
                    results[k] = exc
                    continue
                if run is None:
                    fresh.append(k)
                else:
                    results[k].append(run)
            todo = [cols[k] for k in fresh if (i, cols[k]) not in ran]
            for col, output in zip(todo, todo and simulate_batch(
                    todo, zones, ds, tree_index=i)):
                try:
                    if isinstance(output, TreesinkError):
                        raise output
                    sim, obs, labels = rows = extract_targets(output, ds)
                except TreesinkError as exc:
                    ran[i, col] = exc
                    continue
                w = np.sqrt([self.weights.get(lbl, 1.0) for lbl in labels])
                ran[i, col] = col, output.decisions, rows, w * (sim - obs)
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
            run = _replayed(best + self._kept[i], cand, zones, ds, i)
            if run is None:
                output = simulate(cand, zones, ds, tree_index=i,
                                  with_topology=False, with_signature=False)
                run = cand, output.decisions, extract_targets(output, ds)
            trees.append(run[1:3])
        return cand, zones, trees


def _replayed(runs, cand, zones, ds, tree_index):
    """The run of ``runs`` of the tree ``ds`` that ``cand`` repeats under
    ``zones``, or None; a repeated run's request is checked, as in a run."""
    run = next((run for run in runs if run[0] == cand and all(
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
    penalty = np.full(sum(len(getattr(d, m.field)) * len(m.classes)
                          for d in scorer.targets for m in MEASUREMENTS), 1e12)

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


def fit_topology(spec: FitSpec, params: GrowthParameters, zones: ZoneRuleSet,
                 targets: list[TargetDataset]) -> FitResult:
    """Full identification: simulated annealing over the zone coefficients
    with nested continuous re-optimisation, then interval reporting.

    With no free topological coefficients this reduces to the continuous
    stage.  The annealing chain is sequential and owns the only random
    stream, so a fixed seed reproduces the result exactly.  After the chain
    cools, a deterministic pass probes the neighbouring structure pieces of
    each coefficient (the objective is piecewise constant in them, so the
    chain alone ends inside some near-optimal piece; the probes walk piece
    to piece while that improves the fit): a coarse ladder, then one step
    past each end of the current piece, as :func:`compute_intervals` gives
    it.  Every residual comes from one :class:`Scorer`, which replays the
    fit's recent runs and counts each score and residual as an evaluation.
    The edges, the intervals (:func:`compute_intervals` at the best) and
    the predicted-vs-observed rows come from the scorer's :meth:`report`.
    """
    weights = {**default_weights(targets), **(spec.weights or {})}
    rng = np.random.default_rng(spec.seed)
    sched = spec.schedule
    trace: list[float] = []
    scorer = Scorer(params, zones, targets, weights)

    def refit(topo_values, warm):
        """(estimates, objective) of fit_continuous at ``topo_values``,
        started from ``warm``; None when no candidate is feasible."""
        try:
            return fit_continuous(
                spec.continuous, topo_values, scorer, max_nfev=spec.max_nfev,
                x0=np.array([warm[q.name] for q in spec.continuous]))
        except UnfittableError:
            return None

    def stop_reached():
        return (spec.stop_objective is not None
                and best_obj <= spec.stop_objective)

    topo = {p.name: p.init for p in spec.topological}
    cont, obj = fit_continuous(spec.continuous, topo, scorer,
                               max_nfev=spec.max_nfev)
    trace.append(obj)
    warm_cont = dict(cont)   # warm start of the annealing chain's refits
    best_topo, best_cont, best_obj = dict(topo), dict(cont), obj

    if spec.topological and not stop_reached():
        t0 = sched.t0 * max(obj, 1e-12)
        temperature = t0
        accepted_since_refit = 0
        while temperature / t0 > sched.t_stop_ratio and not stop_reached():
            for _ in range(sched.steps_per_t):
                j = int(rng.integers(len(spec.topological)))
                p = spec.topological[j]
                sigma = sched.step_scale * (p.upper - p.lower) \
                    * max(temperature / t0, 0.05)
                candidate = dict(topo)
                value = topo[p.name] + sigma * float(rng.standard_normal())
                candidate[p.name] = float(np.clip(value, p.lower, p.upper))

                if spec.nested_refit and spec.continuous:
                    cand_cont, cand_obj = (refit(candidate, warm_cont)
                                           or (dict(cont), math.inf))
                else:
                    cand_cont = dict(cont)
                    cand_obj = scorer.objective({**candidate, **cont})

                delta = cand_obj - obj
                accept = delta <= 0 or (
                    math.isfinite(cand_obj)
                    and rng.random() < math.exp(-delta / temperature))
                if accept:
                    prev_best = best_obj
                    improved_best = cand_obj < best_obj
                    topo, cont, obj = candidate, cand_cont, cand_obj
                    accepted_since_refit += 1
                    if improved_best:
                        best_topo, best_cont, best_obj = \
                            dict(topo), dict(cont), obj
                    due = accepted_since_refit >= spec.refit_every
                    substantial = improved_best and cand_obj < 0.5 * prev_best
                    if (not spec.nested_refit and spec.continuous
                            and (due or substantial)):
                        accepted_since_refit = 0
                        fitted = refit(topo, warm_cont)
                        if fitted is not None:
                            cont, obj = fitted
                            warm_cont = dict(cont)
                            if obj < best_obj:
                                best_topo, best_cont, best_obj = \
                                    dict(topo), dict(cont), obj
                trace.append(best_obj)
                if stop_reached():
                    break
            temperature *= sched.cooling

    # final polish of the continuous parameters at the best topology
    if spec.continuous and not stop_reached():
        fitted = refit(best_topo, best_cont)
        if fitted is not None and fitted[1] <= best_obj:
            best_cont, best_obj = fitted
    if not math.isfinite(best_obj):
        raise UnfittableError("no candidate produced a finite objective")
    trace.append(best_obj)

    # deterministic neighbour-basin walk: the objective is piecewise
    # constant in each zone coefficient, so probe a coarse ladder plus the
    # pieces immediately adjacent to the current one
    for _ in range(spec.polish_rounds if spec.topological else 0):
        if stop_reached():
            break
        moved = False
        edges = None   # intervals at the current best, once a probe needs them
        for p in spec.topological:
            x0 = best_topo[p.name]
            span = p.upper - p.lower

            def probe(values):
                """(objective, x) of each x inside the bounds whose
                objective is finite."""
                scored = ((scorer.objective(
                    {**best_topo, p.name: x, **best_cont}), x)
                    for x in values if p.lower <= x <= p.upper)
                return [(v, x) for v, x in scored if math.isfinite(v)]

            scored = probe(x0 + sign * frac * span for frac in _POLISH_OFFSETS
                           for sign in (1.0, -1.0))
            if not scored or min(scored)[0] >= best_obj:
                # the coarse ladder may straddle a narrow neighbouring
                # piece: step just past this piece's edges
                if edges is None:
                    edges = _intervals(spec, *scorer.report(
                        {**best_topo, **best_cont})[1:])
                lo, hi = edges[p.name]
                scored += probe(edge + sign * _EDGE_OFFSET * span
                                for edge, bound, sign in ((lo, p.lower, -1.0),
                                                          (hi, p.upper, 1.0))
                                if edge not in (None, bound))

            if not scored or min(scored)[0] >= best_obj:
                continue
            quick_obj, quick_x = min(scored)
            candidate = {**best_topo, p.name: quick_x}
            fitted = (refit(candidate, best_cont) if spec.continuous
                      else (dict(best_cont), quick_obj))
            if fitted is None:
                continue
            if fitted[1] < best_obj:
                best_topo, (best_cont, best_obj) = candidate, fitted
                moved, edges = True, None
            trace.append(best_obj)
            if stop_reached():
                break
        if not moved:
            break

    fitted_params, fitted_zones, trees = scorer.report(
        {**best_topo, **best_cont})
    pvo, r2 = _predicted_observed(trees)
    return FitResult(
        continuous=dict(sorted(best_cont.items())),
        topology=dict(sorted(best_topo.items())),
        intervals=_intervals(spec, fitted_zones, trees),
        v_env=list(fitted_params.v_env),
        objective=best_obj,
        trace=trace,
        r_squared=r2,
        predicted_observed=pvo,
        evaluations=scorer.evaluations)


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
