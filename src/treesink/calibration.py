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
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import least_squares

from .core import (GrowthParameters, TargetDataset, TreesinkError,
                   ZoneRuleSet)
from .engine import TARGET_CLASSES, extract_targets, simulate
from .topology import axis_band, metamer_band, metamer_count


class UnfittableError(TreesinkError):
    """Raised when every candidate evaluation fails."""


@dataclass(frozen=True)
class FreeParameter:
    name: str
    lower: float
    upper: float
    init: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"{self.name}: bounds must be finite")
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


@dataclass
class FitSpec:
    """Free parameters, weighting and annealing configuration of one fit."""

    continuous: list[FreeParameter]
    topological: list[FreeParameter] = field(default_factory=list)
    weights: dict[str, float] | None = None   # per data class; None = auto
    schedule: AnnealSchedule = field(default_factory=AnnealSchedule)
    seed: int = 0
    refit_every: int = 5     # continuous re-optimisation cadence (accepts)
    nested_refit: bool = False  # re-optimise continuous at every proposal
    max_nfev: int | None = None
    stop_objective: float | None = None  # finish early below this objective
    polish_rounds: int = 4   # deterministic neighbour-basin passes (0 = off)

    def __post_init__(self):
        names = [p.name for p in self.continuous + self.topological]
        if len(names) != len(set(names)):
            raise ValueError("duplicate free parameter names")
        if self.weights is not None:
            for cls, w in self.weights.items():
                if cls not in TARGET_CLASSES:
                    raise ValueError(f"unknown data class {cls!r}")
                if w <= 0:
                    raise ValueError(f"weight for {cls} must be positive")


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

_CONTINUOUS_FIELDS = {"sp0", "alpha", "k_beer", "p_r", "gamma", "lambda_mix",
                      "root_fraction", "wood_density", "q0",
                      "long_short_shoot_ratio",
                      "internode_leaf_ratio_short", "internode_leaf_ratio_long"}
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
    """
    updates: dict[str, object] = {}
    vectors = {f: list(getattr(params, f)) for f in _INDEXED_FIELDS.values()}
    new_zones = zones
    for name, value in values.items():
        prefix = next((k for k in _INDEXED_FIELDS if name.startswith(k)), None)
        if name in _CONTINUOUS_FIELDS:
            updates[name] = float(value)
        elif prefix is not None:
            index = int(name[len(prefix):]) - 1
            vectors[_INDEXED_FIELDS[prefix]][index] = float(value)
        elif name.startswith(("m2_", "a2_")):
            kind, bearer, axillary = name.split("_")
            rule = new_zones.get(int(bearer), int(axillary))
            if rule is None:
                raise ValueError(f"no zone Z^{bearer}{axillary} for {name}")
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
        for t in ds.trunk_profile:
            pools["trunk_mass"].append(t.mass_g)
            pools["trunk_diameter"].append(t.diameter_cm)
            pools["trunk_length"].append(t.length_cm)
        for r in ds.ring_matrix:
            pools["ring_diameter"].append(r.diameter_cm)
        for b in ds.branch_compartments:
            pools["branch_wood"].append(b.wood_g)
            pools["branch_leaf"].append(b.leaf_g)
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
    cand_params, cand_zones = apply_candidate(params, zones, values)
    chunks = []
    for i, ds in enumerate(targets):
        output = simulate(cand_params, cand_zones, ds, tree_index=i,
                          with_topology=False, with_signature=False)
        sim, obs, labels = extract_targets(output, ds)
        w = np.array([weights.get(lbl, 1.0) for lbl in labels])
        chunks.append(np.sqrt(w) * (sim - obs))
    return np.concatenate(chunks) if chunks else np.empty(0)


def objective(values: dict[str, float], params: GrowthParameters,
              zones: ZoneRuleSet, targets: list[TargetDataset],
              weights: dict[str, float]) -> float:
    """Weighted sum of squared sim−obs differences over every tree; +inf on
    simulation failure."""
    try:
        res = weighted_residuals(values, params, zones, targets, weights)
    except TreesinkError:
        return math.inf
    return float(res @ res)


# ----------------------------------------------------------------------
# continuous stage
# ----------------------------------------------------------------------

def fit_continuous(free: list[FreeParameter], fixed: dict[str, float],
                   params: GrowthParameters, zones: ZoneRuleSet,
                   targets: list[TargetDataset], weights: dict[str, float],
                   x0: np.ndarray | None = None, max_nfev: int | None = None
                   ) -> tuple[dict[str, float], float, int]:
    """Bounded least-squares descent over the continuous parameters with the
    topology held fixed.  Returns (estimates, objective, evaluations).
    Deterministic given its inputs."""
    if not free:
        obj = objective(dict(fixed), params, zones, targets, weights)
        if math.isinf(obj):
            raise UnfittableError("fixed-point evaluation failed")
        return {}, obj, 1
    names = [p.name for p in free]
    lower = np.array([p.lower for p in free])
    upper = np.array([p.upper for p in free])
    start = np.array([p.init for p in free] if x0 is None else x0, dtype=float)
    start = np.clip(start, lower, upper)
    evals = 0

    def residual_fn(x):
        nonlocal evals
        evals += 1
        values = dict(fixed)
        values.update({n: float(v) for n, v in zip(names, x)})
        try:
            return weighted_residuals(values, params, zones, targets, weights)
        except TreesinkError:
            # a large flat penalty steers the trust region away without NaNs
            return np.full(_n_points(targets), 1e12)

    x_scale = np.maximum(np.abs(start), 1e-3 * np.maximum(upper - lower, 1e-12))
    result = least_squares(residual_fn, start, bounds=(lower, upper),
                           x_scale=x_scale, diff_step=1e-6,
                           max_nfev=max_nfev, method="trf")
    estimates = {n: float(v) for n, v in zip(names, result.x)}
    obj = float(result.fun @ result.fun)
    if not math.isfinite(obj) or obj >= 1e12:
        raise UnfittableError("continuous fit found no feasible candidate")
    return estimates, obj, evals


def _n_points(targets):
    total = 0
    for ds in targets:
        total += 3 * len(ds.trunk_profile) + len(ds.ring_matrix) \
            + 2 * len(ds.branch_compartments)
    return total


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
    it.  The reported intervals are :func:`compute_intervals` at the best.
    """
    weights = spec.weights if spec.weights is not None \
        else default_weights(targets)
    rng = np.random.default_rng(spec.seed)
    sched = spec.schedule
    trace: list[float] = []
    total_evals = 0

    topo = {p.name: p.init for p in spec.topological}
    cont, obj, evals = fit_continuous(
        spec.continuous, topo, params, zones, targets, weights,
        max_nfev=spec.max_nfev)
    total_evals += evals
    trace.append(obj)
    warm_cont = dict(cont)   # warm start of the annealing chain's refits

    best_topo, best_cont, best_obj = dict(topo), dict(cont), obj

    def refit(topo_values, warm):
        """fit_continuous at ``topo_values``, started from ``warm``."""
        nonlocal total_evals
        est, value, used = fit_continuous(
            spec.continuous, topo_values, params, zones, targets, weights,
            x0=np.array([warm[q.name] for q in spec.continuous]),
            max_nfev=spec.max_nfev)
        total_evals += used
        return est, value

    def stop_reached():
        return (spec.stop_objective is not None
                and best_obj <= spec.stop_objective)

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
                    try:
                        cand_cont, cand_obj = refit(candidate, warm_cont)
                    except UnfittableError:
                        cand_cont, cand_obj = dict(cont), math.inf
                else:
                    merged = dict(candidate)
                    merged.update(cont)
                    cand_obj = objective(merged, params, zones, targets,
                                         weights)
                    cand_cont = dict(cont)
                    total_evals += 1

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
                        try:
                            cont, obj = refit(topo, warm_cont)
                            warm_cont = dict(cont)
                            if obj < best_obj:
                                best_topo, best_cont, best_obj = \
                                    dict(topo), dict(cont), obj
                        except UnfittableError:
                            pass
                trace.append(best_obj)
                if stop_reached():
                    break
            temperature *= sched.cooling

    # final polish of the continuous parameters at the best topology
    if spec.continuous and not stop_reached():
        try:
            cont, obj = refit(best_topo, best_cont)
            if obj <= best_obj:
                best_cont, best_obj = cont, obj
        except UnfittableError:
            pass
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

            def score(values):
                """(objective, x) of each x inside the bounds whose
                objective is finite."""
                nonlocal total_evals
                out = []
                for x in values:
                    if p.lower <= x <= p.upper:
                        total_evals += 1
                        value = objective({**best_topo, p.name: x,
                                           **best_cont}, params, zones,
                                          targets, weights)
                        if math.isfinite(value):
                            out.append((value, x))
                return out

            scored = score(x0 + sign * frac * span for frac in _POLISH_OFFSETS
                           for sign in (1.0, -1.0))
            if not scored or min(scored)[0] >= best_obj:
                # the coarse ladder may straddle a narrow neighbouring
                # piece: step just past this piece's edges
                if edges is None:
                    edges = compute_intervals(spec, {**best_topo, **best_cont},
                                              params, zones, targets)
                lo, hi = edges[p.name]
                scored += score(edge + sign * _EDGE_OFFSET * span
                                for edge, bound, sign in ((lo, p.lower, -1.0),
                                                          (hi, p.upper, 1.0))
                                if edge not in (None, bound))

            if not scored or min(scored)[0] >= best_obj:
                continue
            quick_obj, quick_x = min(scored)
            candidate = {**best_topo, p.name: quick_x}
            if spec.continuous:
                try:
                    cand_cont, cand_obj = refit(candidate, best_cont)
                except UnfittableError:
                    continue
            else:
                cand_cont, cand_obj = dict(best_cont), quick_obj
            if cand_obj < best_obj:
                best_topo, best_cont, best_obj = \
                    candidate, cand_cont, cand_obj
                moved, edges = True, None
            trace.append(best_obj)
            if stop_reached():
                break
        if not moved:
            break

    merged = dict(best_topo)
    merged.update(best_cont)
    intervals = compute_intervals(spec, merged, params, zones, targets)
    fitted_params, _ = apply_candidate(params, zones, merged)
    pvo, r2 = _predicted_observed(merged, params, zones, targets)
    return FitResult(
        continuous=dict(sorted(best_cont.items())),
        topology=dict(sorted(best_topo.items())),
        intervals=intervals,
        v_env=list(fitted_params.v_env),
        objective=best_obj,
        trace=trace,
        r_squared=r2,
        predicted_observed=pvo,
        evaluations=total_evals)


def _predicted_observed(values, params, zones, targets):
    cand_params, cand_zones = apply_candidate(params, zones, values)
    rows: list[PredictedObserved] = []
    per_class: dict[str, list[tuple[float, float]]] = {}
    for i, ds in enumerate(targets):
        output = simulate(cand_params, cand_zones, ds, tree_index=i,
                          with_topology=False, with_signature=False)
        sim, obs, labels = extract_targets(output, ds)
        for s, o, lbl in zip(sim, obs, labels):
            rows.append(PredictedObserved(tree=i + 1, data_class=lbl,
                                          observed=float(o), simulated=float(s)))
            per_class.setdefault(lbl, []).append((float(s), float(o)))
    r2 = {}
    for cls, pairs in sorted(per_class.items()):
        sims = np.array([p[0] for p in pairs])
        obss = np.array([p[1] for p in pairs])
        ss_res = float(((sims - obss) ** 2).sum())
        ss_tot = float(((obss - obss.mean()) ** 2).sum())
        r2[cls] = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return rows, r2


def compute_intervals(spec: FitSpec, best_values: dict[str, float],
                      params: GrowthParameters, zones: ZoneRuleSet,
                      targets: list[TargetDataset]
                      ) -> dict[str, tuple[float | None, float | None]]:
    """Structural interval of each fitted zone coefficient: the closed range
    around the fitted value over which every simulated architecture is
    bit-identical, exact to the float.  With the continuous parameters
    fixed, a run whose rounding decisions all keep their outcome repeats
    its Q/D trajectory and, cycle by cycle, its architecture, so the
    interval intersects the preimages of the decisions that one reference
    run per tree records.  ``None`` as the upper end means unbounded (a
    zone cap or position saturation absorbs every rise); an inert zone,
    absent from the run, spans its fit bounds; the pending plan's axis
    counts never reach the architecture and do not count."""
    if not spec.topological:
        return {}
    cand_params, cand_zones = apply_candidate(params, zones, best_values)
    decisions = [d for i, ds in enumerate(targets)
                 for d in simulate(cand_params, cand_zones, ds, tree_index=i,
                                   with_topology=False,
                                   with_signature=False).decisions]
    intervals: dict[str, tuple[float | None, float | None]] = {}
    for p in spec.topological:
        kind, bearer, axillary = p.name.split("_")
        rule = cand_zones.get(int(bearer), int(axillary))
        others = [r for r in cand_zones.zones_of(rule.bearer_pa)
                  if r.key != rule.key]
        lo, hi, active = -math.inf, math.inf, False
        for ratio, grown, zone_groups in decisions:
            count = max(metamer_count(rule, ratio), 0)
            grew = rule.bearer_pa in grown
            active = active or (grew and (kind == "m2" or count > 0))
            if ratio == 0:   # the coefficient is multiplied away
                continue
            if kind == "a2":   # each expanded distribution of axes
                bands = [axis_band(positions, rule, ratio, groups)
                         for key, positions, groups in zone_groups
                         if key == rule.key]
            elif grew:         # each grown layout's count
                bands = [metamer_band(rule, ratio, count, count)]
            elif all(metamer_count(r, ratio) <= 0 for r in others):
                # a computed layout must stay non-empty
                bands = [metamer_band(rule, ratio, 1, math.inf)]
            else:
                continue
            for band_lo, band_hi in bands:
                lo, hi = max(lo, band_lo), min(hi, band_hi)
        intervals[p.name] = (
            (max(lo, p.lower), None if hi == math.inf else min(hi, p.upper))
            if active else (p.lower, p.upper))
    return intervals
