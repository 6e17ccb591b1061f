"""Growth-cycle engine: composes production, allocation, organogenesis and
ring partition over the factorized architecture, and extracts the output
profiles that measurements are compared against.

One cycle executes, in order: expand the shoots funded at the previous
cycle, update the blade area, compute production, plan the next cycle's
shoots (trunk from the script, branches from the zone rules, driven by the
lagged Q/D), sum the shoot demand, solve the global demand, split
production into the shoot and ring compartments, and distribute the ring
share over all living metamers.

The engine runs K parameter columns at once (:func:`simulate_batch`): runs
of one tree under K parameter sets that take the same decisions share one
state, whose per-metamer values carry a column axis, while every per-cycle
scalar runs per column through the same scalar functions.  A column whose
rounding outcome departs from the first column's leaves the batch and runs
alone.  :func:`simulate` is the one-column case.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .core import (CM2_PER_M2, MEASUREMENTS, TRUNK_PA, AlignmentError,
                   BranchRow, GrowthParameters, RingObservation,
                   SimulationError, TargetDataset, TreesinkError,
                   TrunkObservation, ZoneRuleSet, validate_parameters,
                   validate_script)
from .sourcesink import (CycleAllocation, allocate_shoots, production,
                         ring_coefficients, ring_demand, solve_global_demand)
from .structure import (LENGTH, AxisClass, TreeState, expand_shoot_values,
                        metamer_diameters)
from .topology import (OrganogenesisPlan, column_plan, organogenesis_step,
                       seed_plan, seed_ratio)

#: overflow guard: a per-cycle production beyond this is treated as a
#: diverged simulation rather than a meaningful state
PRODUCTION_CAP = 1.0e15


class ColumnsLeft(Exception):
    """Raised inside a batched run when ``columns`` (positions in the
    batch) take a decision other than the first column's."""

    def __init__(self, columns: list[int]):
        super().__init__(f"columns {columns} left the batch")
        self.columns = columns


def _columns(params) -> Sequence[GrowthParameters]:
    """The parameter set of each column: ``params`` itself, or a bare
    parameter set as the one column."""
    return (params,) if isinstance(params, GrowthParameters) else params


def _column_plans(plan: OrganogenesisPlan, zones: ZoneRuleSet, cols,
                  ratios) -> list[OrganogenesisPlan]:
    """The first column's ``plan`` and every other column's at its ratio;
    raises ColumnsLeft naming the columns whose roundings differ."""
    plans = [plan] + [column_plan(plan, zones, p, r)
                      for p, r in zip(cols[1:], ratios[1:])]
    left = [k for k, each in enumerate(plans) if each is None]
    if left:
        raise ColumnsLeft(left)
    return plans


@dataclass
class SimulationOutput:
    """Per-cycle series plus the measurement-shaped profiles of one run."""

    tree_index: int
    cycles: int
    allocations: list[CycleAllocation]
    trunk_profile: list[TrunkObservation]
    ring_matrix: list[RingObservation]
    branch_compartments: list[BranchRow]
    topology: dict
    total_wood_g: float
    total_leaf_ever_g: float
    pending_shoot_fund_g: float
    structure_signature: tuple = ()
    notes: list[str] = field(default_factory=list)
    # TreeState.decisions, then the pending plan reduced to its ratio
    decisions: list[OrganogenesisPlan] = field(default_factory=list)

    @property
    def ratio_series(self) -> list[float]:
        return [a.ratio for a in self.allocations]


def _expand_planned_shoots(state: TreeState, cols, plans, funds) -> None:
    """Create this cycle's growth units from the pending plans (one per
    column, all with the same decisions), splitting each column's shoot
    fund by sink strengths."""
    cycle = state.cycle
    plan = plans[0]
    masses = [allocate_shoots(fund, each.d_s, plan.bud_counts, p.p_s)
              for p, each, fund in zip(cols, plans, funds)]
    slws = [p.slw_at(cycle) for p in cols]
    sizes = {pa: sum(c for _, c in layout)
             for pa, layout in plan.gu_layouts.items()}
    # every branch axis living when the cycle starts continues apically
    continuing = [cls for cls in state.classes if cls.pa != TRUNK_PA]
    # (pa, metamer count) -> the four per-metamer fields, each once per
    # column: every shoot of one PA and metamer count expands alike
    shoot_values: dict[tuple[int, int], tuple[float, ...]] = {}

    def grow(cls: AxisClass, layout, count: int):
        key = (cls.pa, count)
        if key not in shoot_values:
            shoot_values[key] = sum(zip(*(
                expand_shoot_values(p, cls.pa, m.get(cls.pa, 0.0), count,
                                    cycle, slw=slw)
                for p, m, slw in zip(cols, masses, slws))), ())
        cls.append_gu(cycle, layout, count, *shoot_values[key])

    # trunk growth unit plus its scripted branches (expanding together),
    # placed on distinct metamers from the apex downward, the most vigorous
    # (lowest PA) closest to the tip, mirroring the acrotonic zone order of
    # dynamic growth units
    laterals = []   # (PA, (bearing class, bearing row), instances)
    entry = plan.trunk_entry
    if entry is not None:
        trunk = state.get_class(TRUNK_PA, 1)
        if trunk is None:
            trunk = state.add_class(TRUNK_PA, 1, multiplicity=1)
        grow(trunk, None, entry.metamer_count)
        row = trunk.n_metamers
        for pa, count in sorted(entry.branches):
            for _ in range(count):
                row -= 1
                laterals.append((pa, (trunk.index, row), 1))
    zoned = [(key[1], group.payload, group.size)
             for key, groups, counts in plan.zone_groups
             for group, count in zip(groups, counts) if count]

    for cls in continuing:
        grow(cls, plan.gu_layouts[cls.pa], sizes[cls.pa])

    # the new lateral axes, one class per PA born this cycle: the scripted
    # PAs first, then the rest by PA
    mult = dict.fromkeys([pa for pa, _, _ in laterals]
                         + sorted({pa for pa, _, _ in zoned}), 0)
    laterals += zoned
    for pa, _, instances in laterals:
        mult[pa] += instances
    born = {pa: state.add_class(pa, cycle, multiplicity=n)
            for pa, n in mult.items()}
    for pa, cls in born.items():
        grow(cls, plan.gu_layouts[pa], sizes[pa])
    for pa, (bearer, row), _ in laterals:
        state.classes[bearer].set_child(row, born[pa].index, 1)
    for decisions, each in zip(state.decisions, plans):
        decisions.append(each)


def _partition_rings_factorized(state: TreeState, cols, q_r, cycle: int
                                ) -> None:
    """Ring partition over the whole arena (current leaves drive the
    foliage-weighted mode), with ``q_r`` the ring biomass of each column.
    Each column's coefficients come from the scalar rule; the arrays carry
    every column at once."""
    bounds, s_a, weight, mult = state.ring_partition_arrays(
        [p.p_rg for p in cols])
    coefs = []
    for p, q, w, s, notes in zip(cols, np.asarray(q_r).tolist(), weight,
                                 s_a, state.notes):
        pool, pressler, dropped = ring_coefficients(
            q, float(mult @ w), float((mult * w) @ s), p.lambda_mix)
        coefs.append((pool, pressler))
        if dropped:
            notes.append(f"cycle {cycle}: no foliage, Pressler term dropped")
    pool, pressler = np.array(coefs).T[:, :, None]   # each K × 1

    # increments (pool + pressler·S_a)·weight·q_r, in place: with K
    # columns each array is K × metamers; a zero Pressler coefficient adds
    # zeros to the nonnegative pool increments, which leaves their bits
    incs = weight
    s_a *= weight
    s_a *= pressler
    incs *= pool
    incs += s_a
    incs *= np.asarray(q_r, float).reshape(-1, 1)
    state.arena.cum_ring += incs
    # the trunk (class 0) increments feed the ring-diameter matrix
    state.trunk_rings.append((cycle, incs[:, :bounds[1]].copy()))


def net_production(params: GrowthParameters, s_blade: float,
                   tree_index: int) -> float:
    """Aerial production of a crown of ``s_blade`` m² of blades, the root
    share removed."""
    q = production(s_blade, params.v_env[tree_index], params.sp0,
                   params.alpha, params.k_beer) * (1.0 - params.root_fraction)
    if not np.isfinite(q) or q > PRODUCTION_CAP:
        raise SimulationError(f"production diverged: {q!r}")
    return q


def split_production(params: GrowthParameters, cycle: int, q: float,
                     d_s: float, s_blade: float) -> CycleAllocation:
    """Solve the global demand for production ``q`` against the planned
    shoot demand ``d_s`` and split ``q`` into the shoot and ring
    compartments."""
    if d_s > 0.0 or params.p_r > 0.0:
        d_solved = solve_global_demand(d_s, params.p_r, params.gamma, q)
    else:
        d_solved = 0.0
    if d_solved > 0.0:
        # the ring demand from the power law directly (the difference
        # d - d_s cancels catastrophically when the ring share is tiny)
        d_r = ring_demand(q / d_solved, params.p_r, params.gamma)
        d = d_s + d_r
        return CycleAllocation(cycle=cycle, q=q, d=d, d_s=d_s, d_r=d_r,
                               q_s=q * d_s / d, q_r=q * d_r / d, ratio=q / d,
                               s_blade=s_blade)
    return CycleAllocation(cycle=cycle, q=q, d=0.0, d_s=d_s, d_r=0.0,
                           q_s=0.0, q_r=0.0, ratio=0.0, s_blade=s_blade)


def step(state: TreeState, params, zones: ZoneRuleSet,
         dataset: TargetDataset, tree_index: int, final_cycle: int
         ) -> list[CycleAllocation]:
    """Run one growth cycle and return each column's allocation record;
    ``params`` holds one parameter set per column of ``state`` (a bare set
    for a one-column state)."""
    cols = _columns(params)
    n = state.cycle + 1
    state.cycle = n
    try:
        if not state.pending_plans:
            raise SimulationError("no pending organogenesis plan")
        _expand_planned_shoots(state, cols, state.pending_plans,
                               state.pending_fund)

        s_blade = (state.total_blade_area_cm2() / CM2_PER_M2).tolist()
        q = [net_production(p, s, tree_index) for p, s in zip(cols, s_blade)]

        next_entry = (dataset.script_entry(n + 1)
                      if n + 1 <= min(dataset.tree_age, final_cycle) else None)
        plans = _column_plans(
            organogenesis_step(state, cols[0], zones, state.ratio_lagged[0],
                               next_entry), zones, cols, state.ratio_lagged)
        allocs = [split_production(p, n, qk, plan.d_s, s)
                  for p, qk, plan, s in zip(cols, q, plans, s_blade)]
        _partition_rings_factorized(state, cols,
                                    np.array([a.q_r for a in allocs]), n)

        state.ratio_lagged = [a.ratio for a in allocs]
        state.pending_plans = plans
        state.pending_fund = [a.q_s for a in allocs]
        return allocs
    except ColumnsLeft:
        raise
    except Exception as exc:  # abort with the cycle attached
        if isinstance(exc, SimulationError) and exc.cycle is not None:
            raise
        raise SimulationError(f"cycle {n}: {exc}", cycle=n) from exc


def check_run_request(params: GrowthParameters, zones: ZoneRuleSet,
                      dataset: TargetDataset, tree_index: int,
                      cycles: int | None) -> int:
    """Validate a simulation request and return its number of cycles: the
    dataset's tree age unless ``cycles`` shortens it."""
    validate_parameters(params, zones).raise_if_failed()
    validate_script(dataset).raise_if_failed()
    for i, entry in enumerate(dataset.trunk_script, start=1):
        for pa, _ in entry.branches:
            if not 2 <= pa <= params.pa_max:
                raise SimulationError(f"script entry {i}: branch PA {pa} "
                                      f"outside 2..{params.pa_max}")
    if tree_index < 0:
        raise SimulationError(f"negative tree index {tree_index}")
    if tree_index >= len(params.v_env):
        raise SimulationError(
            f"tree index {tree_index} but only {len(params.v_env)} "
            f"environment factors")
    n_cycles = dataset.tree_age if cycles is None else cycles
    if n_cycles < 1:
        raise SimulationError("need at least one growth cycle")
    if n_cycles > dataset.tree_age:
        raise SimulationError(
            f"{n_cycles} cycles requested but the trunk script ends at "
            f"{dataset.tree_age}")
    return n_cycles


def start_state(params, zones: ZoneRuleSet, dataset: TargetDataset
                ) -> TreeState:
    """The state before cycle 1, one column per parameter set (a bare set
    for one column): the seed plan pending, funded by the seed biomass,
    with its seed ratio standing in for the previous cycle's Q/D."""
    cols = _columns(params)
    entry = dataset.script_entry(1)
    plan = seed_plan(cols[0], zones, entry)
    plans = _column_plans(plan, zones, cols, [plan.ratio_used] + [
        seed_ratio(p, entry) for p in cols[1:]])
    return TreeState(columns=len(cols), pending_plans=plans,
                     pending_fund=[p.q0 for p in cols],
                     ratio_lagged=[each.ratio_used for each in plans])


def simulate(params: GrowthParameters, zones: ZoneRuleSet,
             dataset: TargetDataset, tree_index: int = 0,
             cycles: int | None = None, with_topology: bool = True,
             with_signature: bool = True) -> SimulationOutput:
    """Run a full growth simulation against a trunk script.

    ``cycles`` defaults to the dataset's tree age and may be shortened; the
    script must cover every simulated cycle.  ``with_topology`` /
    ``with_signature`` skip the architecture dump / discrete signature when
    the caller only needs the measurement profiles (the calibration loop).
    """
    n_cycles = check_run_request(params, zones, dataset, tree_index, cycles)
    return _run((params,), zones, dataset, tree_index, n_cycles,
                with_topology, with_signature)[0]


def simulate_batch(params: Sequence[GrowthParameters], zones: ZoneRuleSet,
                   dataset: TargetDataset, tree_index: int = 0
                   ) -> list[SimulationOutput | TreesinkError]:
    """The profile-only :func:`simulate` under each parameter set, as one
    batched run.

    Item ``k`` is what ``simulate(params[k], zones, dataset, tree_index,
    with_topology=False, with_signature=False)`` gives: its output, bit for
    bit, or the TreesinkError it raises.  A request that fails its
    checks does not join the batch.  A column whose rounding outcome
    departs from the first column's leaves the batch and runs alone, and
    the others run again as a batch; a batched run that raises sends every
    column still in the batch to run alone.
    """
    results: list = [None] * len(params)
    live = []
    for k, p in enumerate(params):
        try:
            n_cycles = check_run_request(p, zones, dataset, tree_index, None)
            live.append(k)
        except TreesinkError as exc:
            results[k] = exc
    while live:
        alone = live
        if len(live) > 1:
            try:
                outputs = _run([params[k] for k in live], zones, dataset,
                               tree_index, n_cycles)
            except ColumnsLeft as left:
                alone = [live[i] for i in left.columns]
            except TreesinkError:   # alone, each column raises or not
                pass
            else:
                for k, output in zip(live, outputs):
                    results[k] = output
                return results
        for k in alone:
            try:
                [results[k]] = _run((params[k],), zones, dataset, tree_index,
                                    n_cycles)
            except TreesinkError as exc:
                results[k] = exc
        live = [k for k in live if k not in alone]
    return results


def _run(cols, zones, dataset, tree_index, n_cycles, with_topology=False,
         with_signature=False) -> list[SimulationOutput]:
    """Every column's output of one batched run of checked requests."""
    state = start_state(cols, zones, dataset)
    allocations = [step(state, cols, zones, dataset, tree_index, n_cycles)
                   for _ in range(n_cycles)]
    return _collect_output(state, cols, list(zip(*allocations)), tree_index,
                           n_cycles, with_topology=with_topology,
                           with_signature=with_signature)


def _collect_output(state: TreeState, cols, allocations, tree_index: int,
                    n_cycles: int, with_topology: bool = True,
                    with_signature: bool = True) -> list[SimulationOutput]:
    """Each column's output; ``allocations`` holds each column's
    allocation records.  Every per-column sum runs along a contiguous last
    axis, as it does with one column."""
    trunk = state.get_class(TRUNK_PA, 1)
    if trunk is None:
        raise SimulationError("simulation produced no trunk")
    density = np.array([[p.wood_density] for p in cols])

    add = np.add.reduce
    units = state.growth_units(trunk.index)
    internode, length = trunk.internode_mass, trunk.length
    wood = internode + trunk.cum_ring
    diam = metamer_diameters(wood, length, density)
    trunk_profiles: list[list] = [[] for _ in cols]
    for rank, _birth, start, count, _layout, _laterals in units:
        sl = slice(start, start + count)
        for profile, mass, mean, total in zip(
                trunk_profiles, add(wood[:, sl], axis=1).tolist(),
                (add(diam[:, sl], axis=1) / count).tolist(),
                add(length[:, sl], axis=1).tolist()):
            profile.append(TrunkObservation(gu_index=rank, mass_g=mass,
                                            diameter_cm=mean,
                                            length_cm=total))

    # every array before the Python rows, which outlive them
    wood_totals = state.subtree_wood_totals()
    leaf_totals = state.subtree_leaf_mass_totals()
    lengths = state.arena.segment_sums(state.arena.field(LENGTH))
    total_wood = state.total_wood_mass().tolist()
    total_leaf = state.total_leaf_mass_ever().tolist()

    # the trunk's diameters after each cycle: its ring increments,
    # zero-padded to the final trunk, summed cycle by cycle onto the
    # internodes (in place: with K columns the table is cycles × K ×
    # metamers)
    wood_then = np.zeros((len(state.trunk_rings), len(cols),
                          trunk.n_metamers))
    for row, (_age, inc) in zip(wood_then, state.trunk_rings):
        row[:, :inc.shape[1]] = inc
    np.cumsum(wood_then, axis=0, out=wood_then)
    wood_then += internode
    diam_then = metamer_diameters(wood_then, length, density, out=wood_then)
    gu_starts = np.array([u[2] for u in units])
    gu_counts = np.array([u[3] for u in units], dtype=float)
    means = []
    for (age, inc), diam in zip(state.trunk_rings, diam_then):
        live = sum(1 for u in units if u[1] <= age)
        means.append((age, (np.add.reduceat(
            diam[:, :inc.shape[1]], gu_starts[:live], axis=1)
            / gu_counts[:live]).tolist()))
    del wood_then, diam_then
    ring_matrices: list[list] = [[] for _ in cols]
    for age, rows in means:
        for matrix, row in zip(ring_matrices, rows):
            matrix += [RingObservation(u[0], age, mean)
                       for u, mean in zip(units, row)]

    grouped: dict[tuple[int, int], list[int]] = {}
    for rank, *_, laterals in units:
        for _row, child, _count in laterals:
            grouped.setdefault((rank, state.classes[child].pa),
                               []).append(child)
    branch_rows: list[list] = [[] for _ in cols]
    for (gu_rank, pa), idxs in sorted(grouped.items()):
        for rows, wood_g, leaf_g, total in zip(branch_rows, *(
                (add(values.take(idxs, axis=1), axis=1) / len(idxs)).tolist()
                for values in (wood_totals, leaf_totals, lengths))):
            rows.append(BranchRow(gu_index=gu_rank, pa=pa, count=len(idxs),
                                  wood_g=wood_g, leaf_g=leaf_g,
                                  axis_length_cm=total))

    topology = state.topology_dump() if with_topology else {}
    signature = state.structure_signature() if with_signature else ()
    return [SimulationOutput(
        tree_index=tree_index, cycles=n_cycles, allocations=list(allocs),
        trunk_profile=profile, ring_matrix=matrix,
        branch_compartments=rows, topology=topology, total_wood_g=wood,
        total_leaf_ever_g=leaf, pending_shoot_fund_g=fund,
        structure_signature=signature, notes=list(notes),
        decisions=decisions + [OrganogenesisPlan(pending.ratio_used)])
        for allocs, profile, matrix, rows, wood, leaf, fund, notes, decisions,
        pending in zip(allocations, trunk_profiles, ring_matrices,
                       branch_rows, total_wood, total_leaf,
                       state.pending_fund, state.notes, state.decisions,
                       state.pending_plans)]


def extract_targets(output: SimulationOutput, dataset: TargetDataset
                    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Align a simulation with a target dataset.

    Returns (simulated, observed, class labels), index by index in dataset
    order, section by section in MEASUREMENTS order; raises AlignmentError
    listing every row the simulation cannot serve.  Same-PA branches on one
    growth unit are already averaged on both sides.
    """
    if output.cycles < dataset.tree_age:
        raise AlignmentError(
            f"simulation ran {output.cycles} cycles, dataset needs "
            f"{dataset.tree_age}")
    sim, obs, labels, missing = [], [], [], []
    for m in MEASUREMENTS:
        key = attrgetter(*m.key)
        values = attrgetter(*(v for _, v in m.classes))
        served = {key(r): r for r in getattr(output, m.field)}
        rows = getattr(dataset, m.field)
        matched = [served.get(key(t)) for t in rows]
        missing += [m.label.format_map(vars(t))
                    for t, row in zip(rows, matched) if row is None]
        if not missing:
            sim.append(np.array(list(map(values, matched)), float))
            obs.append(np.array(list(map(values, rows)), float))
            labels += [c for c, _ in m.classes] * len(rows)
    if missing:
        raise AlignmentError("simulation cannot serve target rows: "
                             + ", ".join(missing))
    return (np.concatenate(sim, axis=None), np.concatenate(obs, axis=None),
            labels)
