"""Growth-cycle engine: composes production, allocation, organogenesis and
ring partition over the factorized architecture, and extracts the output
profiles that measurements are compared against.

One cycle executes, in order: expand the shoots funded at the previous
cycle, update the blade area, compute production, plan the next cycle's
shoots (trunk from the script, branches from the zone rules, driven by the
lagged Q/D), sum the shoot demand, solve the global demand, split
production into the shoot and ring compartments, and distribute the ring
share over all living metamers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .core import (CM2_PER_M2, MEASUREMENTS, TRUNK_PA, AlignmentError,
                   BranchRow, GrowthParameters, RingObservation,
                   SimulationError, TargetDataset, TrunkObservation,
                   ZoneRuleSet, validate_parameters, validate_script)
from .sourcesink import (CycleAllocation, allocate_shoots, production,
                         ring_demand, solve_global_demand)
from .structure import (AxisClass, MetamerCohort, TreeState,
                        expand_shoot_values, metamer_diameter,
                        metamer_diameters)
from .topology import OrganogenesisPlan, organogenesis_step, seed_plan

#: overflow guard: a per-cycle production beyond this is treated as a
#: diverged simulation rather than a meaningful state
PRODUCTION_CAP = 1.0e15


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


def _expand_planned_shoots(state: TreeState, params: GrowthParameters,
                           plan: OrganogenesisPlan, fund: float) -> None:
    """Create this cycle's growth units from the pending plan, splitting the
    shoot fund by sink strengths."""
    cycle = state.cycle
    masses = allocate_shoots(fund, plan.d_s, plan.bud_counts, params.p_s)
    slw = params.slw_at(cycle)
    sizes = {pa: sum(c for _, c in layout)
             for pa, layout in plan.gu_layouts.items()}
    # every branch axis living when the cycle starts continues apically
    continuing = [cls for cls in state.classes if cls.pa != TRUNK_PA]
    # (pa, metamer count) -> per-metamer values: every shoot of one PA and
    # metamer count expands alike
    shoot_values: dict[tuple[int, int], tuple[float, ...]] = {}

    def grow(cls: AxisClass, layout, count: int):
        key = (cls.pa, count)
        if key not in shoot_values:
            shoot_values[key] = expand_shoot_values(
                params, cls.pa, masses.get(cls.pa, 0.0), count, cycle,
                slw=slw)
        return cls.append_gu(cycle, layout, count, *shoot_values[key])

    def lateral_class(pa: int, instances: int) -> int:
        """Index of the (pa, this cycle) class once ``instances`` new axes
        join it; the first ones create it with its first growth unit."""
        cls = state.get_class(pa, cycle)
        if cls is None:
            cls = state.add_class(pa, cycle, multiplicity=instances)
            grow(cls, plan.gu_layouts[pa], sizes[pa])
        else:
            cls.multiplicity += instances
        return cls.index

    # trunk growth unit plus its scripted branches (expanding together),
    # placed on distinct metamers from the apex downward, the most vigorous
    # (lowest PA) closest to the tip, mirroring the acrotonic zone order of
    # dynamic growth units
    entry = plan.trunk_entry
    if entry is not None:
        trunk = state.get_class(TRUNK_PA, 1)
        if trunk is None:
            trunk = state.add_class(TRUNK_PA, 1, multiplicity=1)
        gu = grow(trunk, None, entry.metamer_count)
        row = gu.start + entry.metamer_count
        for pa, count in sorted(entry.branches):
            for _ in range(count):
                row -= 1
                trunk.set_child(row, lateral_class(pa, 1), 1)

    for cls in continuing:
        grow(cls, plan.gu_layouts[cls.pa], sizes[cls.pa])

    # new lateral axes, merged per PA into one class per birth cycle
    laterals = [(key[1], group) for key, groups, counts in plan.zone_groups
                for group, count in zip(groups, counts) if count]
    lateral_mult: dict[int, int] = {}
    for pa, group in laterals:
        lateral_mult[pa] = lateral_mult.get(pa, 0) + group.size
    child_idx = {pa: lateral_class(pa, lateral_mult[pa])
                 for pa in sorted(lateral_mult)}
    for pa, group in laterals:
        cls_idx, row = group.payload
        state.classes[cls_idx].set_child(row, child_idx[pa], 1)
    state.decisions.append(plan)


def _partition_rings_factorized(state: TreeState, params: GrowthParameters,
                                q_r: float, cycle: int) -> None:
    """Ring partition over the whole arena (current leaves drive the
    foliage-weighted mode)."""
    bounds, s_a, weight, mult = state.ring_partition_arrays(
        params.p_rg, live_cycle=cycle)
    d_pool = float(mult @ weight)
    d_pressler = float((mult * weight) @ s_a)

    lam = params.lambda_mix
    if lam > 0.0 and d_pressler == 0.0:
        if q_r > 0.0:
            state.notes.append(
                f"cycle {cycle}: no foliage, Pressler term dropped")
        lam = 0.0
    if q_r > 0.0 and d_pool == 0.0:
        raise SimulationError(
            f"ring biomass {q_r:g} g with no woody structure")

    if q_r == 0.0 or d_pool == 0.0:
        incs = np.zeros(weight.size)
    else:
        share = (1.0 - lam) / d_pool * weight
        if lam > 0.0:
            share = share + lam / d_pressler * (s_a * weight)
        incs = share * q_r
    b = bounds.tolist()
    for cls, s, e in zip(state.classes, b, b[1:]):
        cls.record_rings(incs[s:e])
    # the trunk (class 0) increments feed the ring-diameter matrix
    state.trunk_rings.append((cycle, incs[:bounds[1]].copy()))


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


def step(state: TreeState, params: GrowthParameters, zones: ZoneRuleSet,
         dataset: TargetDataset, tree_index: int, final_cycle: int
         ) -> CycleAllocation:
    """Run one growth cycle and return its allocation record."""
    n = state.cycle + 1
    state.cycle = n
    try:
        plan = state.pending_plan
        if plan is None:
            raise SimulationError("no pending organogenesis plan")
        _expand_planned_shoots(state, params, plan, state.pending_fund)

        s_blade = state.total_blade_area_cm2(live_cycle=n) / CM2_PER_M2
        q = net_production(params, s_blade, tree_index)

        next_entry = (dataset.script_entry(n + 1)
                      if n + 1 <= min(dataset.tree_age, final_cycle) else None)
        new_plan = organogenesis_step(state, params, zones,
                                      state.ratio_lagged, next_entry)
        alloc = split_production(params, n, q, new_plan.d_s, s_blade)
        _partition_rings_factorized(state, params, alloc.q_r, n)

        state.ratio_lagged = alloc.ratio
        state.pending_plan = new_plan
        state.pending_fund = alloc.q_s
        return alloc
    except Exception as exc:  # abort with the cycle attached
        if isinstance(exc, SimulationError) and exc.cycle is not None:
            raise
        raise SimulationError(f"cycle {n}: {exc}", cycle=n) from exc


def leaves_above(state: TreeState, cohort: MetamerCohort,
                 live_cycle: int | None = None) -> float:
    """Foliage area (cm², per instance) at or above one metamer cohort in
    the tree topology: its own leaf, all leaves distal on its axis, and the
    subtrees of laterals borne at or above it.  ``live_cycle=None`` counts
    leaves of every age (the engine itself uses the current cycle only)."""
    axis_birth = cohort.birth_cycle - (cohort.gu_rank - 1)
    cls = state.get_class(cohort.pa, axis_birth)
    if cls is None or cohort.gu_rank > len(cls.gus):
        raise SimulationError(
            f"no cohort (pa={cohort.pa}, birth={cohort.birth_cycle}, "
            f"gu_rank={cohort.gu_rank}) in this state")
    gu = cls.gus[cohort.gu_rank - 1]
    if not (1 <= cohort.rank <= gu.count):
        raise SimulationError(f"metamer rank {cohort.rank} outside growth unit")
    idx = state.class_index[(cohort.pa, axis_birth)]
    bounds, s_a = state.foliage_above(live_cycle)
    return float(s_a[bounds[idx] + gu.start + cohort.rank - 1])


def geometry(params: GrowthParameters, cohort: MetamerCohort
             ) -> tuple[float, float]:
    """(length cm, external diameter cm) of a metamer cohort: the length is
    frozen at expansion; the diameter holds the internode plus all ring
    increments as a cylinder of fresh wood."""
    wood = cohort.internode_mass + cohort.ring_mass
    return cohort.internode_length, metamer_diameter(
        wood, cohort.internode_length, params.wood_density)


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


def start_state(params: GrowthParameters, zones: ZoneRuleSet,
                dataset: TargetDataset) -> TreeState:
    """The state before cycle 1: the seed plan pending, funded by the seed
    biomass, with its seed ratio standing in for the previous cycle's Q/D."""
    plan = seed_plan(params, zones, dataset.script_entry(1))
    return TreeState(pending_plan=plan, pending_fund=params.q0,
                     ratio_lagged=plan.ratio_used)


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
    state = start_state(params, zones, dataset)
    allocations = [step(state, params, zones, dataset, tree_index, n_cycles)
                   for _ in range(n_cycles)]
    return _collect_output(state, params, allocations, tree_index, n_cycles,
                           with_topology=with_topology,
                           with_signature=with_signature)


def _collect_output(state: TreeState, params: GrowthParameters,
                    allocations, tree_index: int, n_cycles: int,
                    with_topology: bool = True, with_signature: bool = True
                    ) -> SimulationOutput:
    trunk = state.get_class(TRUNK_PA, 1)
    if trunk is None:
        raise SimulationError("simulation produced no trunk")

    internode, length, ring = (trunk.internode_mass, trunk.length,
                               trunk.cum_ring)
    trunk_profile = []
    for gu in trunk.gus:
        sl = slice(gu.start, gu.start + gu.count)
        wood = internode[sl] + ring[sl]
        diam = metamer_diameters(wood, length[sl], params.wood_density)
        trunk_profile.append(TrunkObservation(
            gu_index=gu.rank, mass_g=float(wood.sum()),
            diameter_cm=float(diam.mean()),
            length_cm=float(length[sl].sum())))

    ring_matrix = []
    cum = np.zeros(trunk.n_metamers)
    gu_starts = np.array([gu.start for gu in trunk.gus])
    gu_counts = np.array([gu.count for gu in trunk.gus], dtype=float)
    for age, inc in state.trunk_rings:
        cum[:inc.size] += inc
        wood = internode[:inc.size] + cum[:inc.size]
        diam = metamer_diameters(wood, length[:inc.size], params.wood_density)
        live = sum(1 for gu in trunk.gus if gu.birth_cycle <= age)
        means = np.add.reduceat(diam, gu_starts[:live]) / gu_counts[:live]
        for gu, mean in zip(trunk.gus[:live], means):
            ring_matrix.append(RingObservation(gu.rank, age, float(mean)))

    wood_totals = state.subtree_wood_totals()
    leaf_totals = state.subtree_leaf_mass_totals(live_cycle=state.cycle)
    grouped: dict[tuple[int, int], list[int]] = {}
    for gu, laterals in zip(trunk.gus, trunk.laterals_by_gu()):
        for _rank, child, _count in laterals:
            grouped.setdefault((gu.rank, state.classes[child].pa),
                               []).append(child)
    branch_rows = []
    for (gu_rank, pa), idxs in sorted(grouped.items()):
        wood = float(np.mean([wood_totals[i] for i in idxs]))
        leaf = float(np.mean([leaf_totals[i] for i in idxs]))
        length = float(np.mean([state.classes[i].length.sum() for i in idxs]))
        branch_rows.append(BranchRow(
            gu_index=gu_rank, pa=pa, count=len(idxs), wood_g=wood,
            leaf_g=leaf, axis_length_cm=length))

    return SimulationOutput(
        tree_index=tree_index, cycles=n_cycles, allocations=list(allocations),
        trunk_profile=trunk_profile, ring_matrix=ring_matrix,
        branch_compartments=branch_rows,
        topology=state.topology_dump() if with_topology else {},
        total_wood_g=state.total_wood_mass(),
        total_leaf_ever_g=state.total_leaf_mass_ever(),
        pending_shoot_fund_g=state.pending_fund,
        structure_signature=(state.structure_signature()
                             if with_signature else ()),
        notes=list(state.notes),
        decisions=state.decisions + [
            OrganogenesisPlan(state.pending_plan.ratio_used)])


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
