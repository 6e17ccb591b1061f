"""Growth-cycle engine: composes production, allocation, organogenesis and
ring partition over the factorized architecture, and collects the measured
profiles that targets are compared against.

One cycle executes, in order: expand the shoots funded at the previous
cycle, update the blade area, compute production, plan the next cycle's
shoots (trunk from the script, branches from the zone rules, driven by the
lagged Q/D), sum the shoot demand, solve the global demand, split
production into the shoot and ring compartments, and distribute the ring
share over all living metamers.

The engine runs K parameter columns at once (:func:`simulate_batch`): runs
of one tree under K parameter sets that take the same decisions share one
state, whose per-metamer values carry a column axis, while every per-cycle
scalar runs per column through the same scalar functions.  Columns that
differ only in another tree's environment factor share one run
(:func:`run_key`).  Within a run, columns that differ only in the
ring-only parameters share one growth (:func:`growth_key`): ``p_rg`` and
``lambda_mix`` are read by the ring partition alone and ``wood_density``
by output collection alone, and no ring quantity feeds back into
production, demand or organogenesis.  So expansion, blade area and
production, organogenesis, the demand split and the foliage scan run once
per growth row and give each of its columns the bits it would get alone,
while the ring partition and collection run per column.  A batch that
cannot finish together, because some column's rounding outcome departs
from the first column's or because it raises, runs each of its runs
alone.  :func:`simulate` is the one-column case.

A run's measured profiles are one array record (:class:`Profiles`), each
column's a view of the batch's; the rows of a section are views built from
it on first read, and :func:`extract_targets` aligns a run with a target
by one gather per section from it.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from operator import attrgetter, itemgetter

import numpy as np

from .core import (CM2_PER_M2, MEASUREMENTS, TRUNK_PA, AlignmentError,
                   GrowthParameters, Profiles, SimulationError, TargetDataset,
                   TreesinkError, ZoneRuleSet, validate_parameters,
                   validate_script)
from .sourcesink import (CycleAllocation, allocate_shoots, production,
                         ring_coefficients, ring_demand, solve_global_demand)
from .structure import (LENGTH, TreeState, expand_shoot_values,
                        metamer_diameters)
from .topology import (OrganogenesisPlan, column_plans, organogenesis_step,
                       seed_plan, seed_ratio)

#: overflow guard: a per-cycle production beyond this is treated as a
#: diverged simulation rather than a meaningful state
PRODUCTION_CAP = 1.0e15


@dataclass
class SimulationOutput:
    """Per-cycle series plus the measured profiles of one run.  The
    profiles are one array record; the rows of each measured section are
    read-only views built from it on first read, as are the topology and
    the structure signature, from the finished tree."""

    cycles: int
    allocations: list[CycleAllocation]
    profiles: Profiles
    total_wood_g: float
    total_leaf_ever_g: float
    pending_shoot_fund_g: float
    # the run's events (:func:`run_events`)
    events: list[tuple] = field(default_factory=list)
    # TreeState.decisions, then the pending plan, which grows no layout:
    # its axis distributions set the last cycle's d_s
    decisions: list[OrganogenesisPlan] = field(default_factory=list)
    # the finished tree, kept by a run that keeps its topology (renders
    # topology.json) or its signature; None keeps neither
    topology_tree: TreeState | None = field(default=None, repr=False,
                                            compare=False)
    signature_tree: TreeState | None = field(default=None, repr=False,
                                             compare=False)

    @cached_property
    def topology(self) -> dict:
        """The parse of topology.json's text, or {} for a run that keeps no
        topology.  The oracle sets its own."""
        tree = self.topology_tree
        return {} if tree is None else tree.topology_dump()

    @cached_property
    def structure_signature(self) -> tuple:
        """:meth:`TreeState.structure_signature`, or () for a run that keeps
        no signature."""
        tree = self.signature_tree
        return () if tree is None else tree.structure_signature()

    @property
    def ratio_series(self) -> list[float]:
        return [a.ratio for a in self.allocations]

    # the rows of each measured section, read-only views of the record
    trunk_profile = property(attrgetter("profiles.trunk_profile"))
    ring_matrix = property(attrgetter("profiles.ring_matrix"))
    branch_compartments = property(attrgetter("profiles.branch_compartments"))


def _expand_planned_shoots(state: TreeState, cols, plans, funds) -> None:
    """Create this cycle's growth units from the pending plans (one per
    column, all with the same decisions), splitting each column's shoot
    fund by sink strengths: one block of units per PA and one block of
    laterals, merged into the arena at the end in one call."""
    cycle = state.cycle
    plan = plans[0]
    masses = [allocate_shoots(fund, each.d_s, plan.bud_counts, p.p_s)
              for p, each, fund in zip(cols, plans, funds)]
    slws = [p.slw_at(cycle) for p in cols]
    blocks = []

    def expand(classes, pa: int, count: int):
        """One unit on each of ``classes``: shoots of one PA expand alike."""
        blocks.append((classes, cycle, count, sum(zip(*(
            expand_shoot_values(p, pa, m.get(pa, 0.0), count, cycle, slw=slw)
            for p, m, slw in zip(cols, masses, slws))), ())))

    # trunk growth unit plus its scripted branches (expanding together),
    # placed on distinct metamers from the apex downward, the most vigorous
    # (lowest PA) closest to the tip, mirroring the acrotonic zone order of
    # dynamic growth units; they and each zone's laterals are runs (PA,
    # bearer, apical row, positions taken, instances per position)
    runs = []
    entry = plan.trunk_entry
    if entry is not None:
        # the trunk is class 0, made at cycle 1
        trunk = (state.classes[0] if state.classes
                 else state.add_class(TRUNK_PA, 1, multiplicity=1))
        expand([trunk.index], TRUNK_PA, entry.metamer_count)
        apex = trunk.n_metamers + entry.metamer_count - 1
        for pa, count in sorted(entry.branches):
            runs.append((pa, trunk.index, apex, count, 1))
            apex -= count
    scripted = len(runs)
    runs += [(key[1], *group.payload, taken, group.size)
             for key, groups, counts, *_ in plan.zone_groups
             for group, taken in zip(groups, counts) if taken]

    # the new lateral axes, one class per PA born this cycle: the scripted
    # PAs first, then the rest by PA
    mult = dict.fromkeys([pa for pa, *_ in runs[:scripted]]
                         + sorted({pa for pa, *_ in runs[scripted:]}), 0)
    for pa, _, _, taken, size in runs:
        mult[pa] += taken * size
    born = {pa: state.add_class(pa, cycle, multiplicity=n).index
            for pa, n in mult.items()}
    # every branch class, old or new, grows one unit with its PA's layout
    for pa, layout in plan.gu_layouts.items():
        expand([cls.index for cls in state.classes if cls.pa == pa], pa,
               sum(c for _, c in layout))
    # each run's taken positions are its apical ones, base to apex
    bearers, rows, children = [], [], []
    for pa, idx, apex, taken, _ in runs:
        bearers += [idx] * taken
        rows += range(apex + 1 - taken, apex + 1)
        children += [born[pa]] * taken
    state.arena.grow(blocks, (bearers, rows, children))
    for decisions, each in zip(state.decisions, plans):
        decisions.append(each)


def _partition_rings_factorized(state: TreeState, cols, q_r, cycle: int
                                ) -> None:
    """Ring partition over the whole arena (current leaves drive the
    foliage-weighted mode), with ``q_r`` the ring biomass of each column.
    Each column's coefficients come from the scalar rule, which also
    decides whether the column drops the Pressler term this cycle; the
    arrays carry every column at once."""
    bounds, s_a, weight, mult = state.ring_partition_arrays(
        [p.p_rg for p in cols])
    coefs = []
    for p, q, w, s, drops in zip(cols, np.asarray(q_r).tolist(), weight,
                                 s_a, state.pressler_drops):
        pool, pressler, dropped = ring_coefficients(
            q, float(mult @ w), float((mult * w) @ s), p.lambda_mix)
        coefs.append((pool, pressler))
        if dropped:
            drops.append(cycle)
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
    ring = state.arena.cum_ring
    ring += incs
    # the trunk (class 0) increments feed the ring-diameter matrix
    state.trunk_rings.append(incs[:, :bounds[1]].copy())


#: the kinds of a run's events
SLACK, PRESSLER_DROP = "slack", "pressler_drop"


def run_events(plans, drops) -> list[tuple]:
    """A run's events, each ``(cycle, kind, zone key or None, value or
    None)``, in cycle order: per cycle n, each zone's nonzero distribution
    :data:`SLACK` in the plan made at its end (``plans[n]``, each an
    :class:`OrganogenesisPlan`, ``plans[0]`` the seed plan), then a
    :data:`PRESSLER_DROP` if n is in ``drops``.  The engine and the oracle
    share it."""
    events = [(cycle, SLACK, key, slack) for cycle, plan in enumerate(plans)
              for key, *_, slack in plan.zone_groups if slack]
    events += [(cycle, PRESSLER_DROP, None, None) for cycle in drops]
    return sorted(events, key=itemgetter(0))   # stable: drops come last


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
    # p_r > 0 (core.RANGES), so the demand always has a sink to solve for
    d_solved = solve_global_demand(d_s, params.p_r, params.gamma, q)
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


@contextmanager
def failing_cycle(n: int):
    """Abort with cycle ``n`` attached: an exception raised inside becomes a
    SimulationError that names the cycle, unless it names one already."""
    try:
        yield
    except Exception as exc:
        if isinstance(exc, SimulationError) and exc.cycle is not None:
            raise
        raise SimulationError(f"cycle {n}: {exc}", cycle=n) from exc


def check_finite(*values) -> None:
    """Fail a run whose trunk, ring or branch ``values`` are not all finite."""
    if not all(np.isfinite(each).all() for each in values):
        raise SimulationError("a trunk, ring or branch value is not finite")


def step(state: TreeState, cols: Sequence[GrowthParameters],
         zones: ZoneRuleSet, dataset: TargetDataset, tree_index: int,
         final_cycle: int) -> list[CycleAllocation]:
    """Run one growth cycle and return each column's allocation record;
    ``cols`` holds one parameter set per column of ``state``."""
    n = state.cycle + 1
    state.cycle = n
    with failing_cycle(n):
        if not state.pending_plans:
            raise SimulationError("no pending organogenesis plan")
        # growth, once per growth row, by the parameters of its first column
        leads = [cols[k] for k in state.leads]
        _expand_planned_shoots(state, leads, state.pending_plans,
                               state.pending_fund)

        s_blade = (state.total_blade_area_cm2() / CM2_PER_M2).tolist()
        q = [net_production(p, s, tree_index) for p, s in zip(leads, s_blade)]

        next_entry = (dataset.script_entry(n + 1)
                      if n + 1 <= min(dataset.tree_age, final_cycle) else None)
        plans = column_plans(
            organogenesis_step(state, leads[0], zones, state.ratio_lagged[0],
                               next_entry), zones, leads, state.ratio_lagged)
        allocs = [split_production(p, n, qk, plan.d_s, s)
                  for p, qk, plan, s in zip(leads, q, plans, s_blade)]
        # the rings, per column
        per_column = [allocs[row] for row in state.growth_rows]
        _partition_rings_factorized(state, cols,
                                    np.array([a.q_r for a in per_column]), n)

        state.ratio_lagged = [a.ratio for a in allocs]
        state.pending_plans = plans
        state.pending_fund = [a.q_s for a in allocs]
        return per_column


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


def start_state(cols: Sequence[GrowthParameters], zones: ZoneRuleSet,
                dataset: TargetDataset, growth_rows=()) -> TreeState:
    """The state before cycle 1, one column per parameter set in ``cols``,
    growing on ``growth_rows`` (by default each column on its own): the
    seed plan pending, funded by the seed biomass, with its seed ratio
    standing in for the previous cycle's Q/D."""
    state = TreeState(columns=len(cols), growth_rows=growth_rows)
    leads = [cols[k] for k in state.leads]
    entry = dataset.script_entry(1)
    plans = column_plans(seed_plan(leads[0], zones, entry), zones, leads,
                         [seed_ratio(p, entry) for p in leads])
    state.pending_plans, state.pending_fund, state.ratio_lagged = (
        plans, [p.q0 for p in leads], [each.ratio_used for each in plans])
    return state


def simulate(params: GrowthParameters, zones: ZoneRuleSet,
             dataset: TargetDataset, tree_index: int = 0,
             cycles: int | None = None, with_topology: bool = True,
             with_signature: bool = True) -> SimulationOutput:
    """Run a full growth simulation against a trunk script.

    ``cycles`` defaults to the dataset's tree age and may be shortened; the
    script must cover every simulated cycle.  ``with_topology`` /
    ``with_signature`` keep the finished tree for the output's
    ``topology`` / ``structure_signature``: the run itself builds neither,
    each is built on its first read, and topology.json is rendered from the
    tree when written.  With both False, as the calibration loop asks, the
    output carries {} and () and keeps no tree alive.
    """
    n_cycles = check_run_request(params, zones, dataset, tree_index, cycles)
    return _run((params,), zones, dataset, tree_index, n_cycles,
                with_topology, with_signature)[0]


def run_key(params: GrowthParameters, tree_index: int) -> tuple:
    """What a run of tree ``tree_index`` reads of ``params``: its
    :func:`growth_key` and the ring-only fields."""
    return growth_key(params, tree_index), _rings(params)


#: the ring-only fields: only the ring partition (``p_rg``, ``lambda_mix``)
#: and output collection (``wood_density``) read them
_RING_ONLY = ("p_rg", "lambda_mix", "wood_density")
_rings = attrgetter(*_RING_ONLY)
#: every field a run's growth reads besides its own environment factor
_grown = attrgetter(*(f.name for f in fields(GrowthParameters)
                      if f.name not in ("v_env", *_RING_ONLY)))


def growth_key(params: GrowthParameters, tree_index: int) -> tuple:
    """What a run's growth reads of ``params``: of ``v_env`` only its own
    factor (:func:`net_production`), and every field but the ring-only
    ones.  The rings feed nothing back, so columns of one key grow alike,
    bit for bit."""
    return params.v_env[tree_index], _grown(params)


def simulate_batch(params: Sequence[GrowthParameters], zones: ZoneRuleSet,
                   dataset: TargetDataset, tree_index: int = 0
                   ) -> list[SimulationOutput | TreesinkError]:
    """The profile-only :func:`simulate` under each parameter set, as one
    batched run.

    Item ``k`` is what ``simulate(params[k], zones, dataset, tree_index,
    with_topology=False, with_signature=False)`` gives: its output, bit for
    bit, or the TreesinkError it raises.  Each request is checked whole,
    and one that fails its checks does not join the batch.  The others run
    once per distinct :func:`run_key`, and the items of one key share one
    SimulationOutput object (or one error).  Within the batched run, keys
    that differ only in the ring-only parameters (``p_rg``, ``lambda_mix``,
    ``wood_density``) share one growth (:func:`growth_key`), which is exact
    because no grown quantity reads them.  If the batched run raises, as
    it does when a column's rounding outcome departs from the first
    column's, or in one column's rings or collection, each key runs alone.
    """
    results: list = [None] * len(params)
    keys: dict = {}   # run key -> the items that share its run
    for k, p in enumerate(params):
        try:
            n_cycles = check_run_request(p, zones, dataset, tree_index, None)
        except TreesinkError as exc:
            results[k] = exc
        else:
            keys.setdefault(run_key(p, tree_index), []).append(k)
    cols = [params[items[0]] for items in keys.values()]
    outputs = []
    if len(cols) > 1:
        try:
            outputs = _run(cols, zones, dataset, tree_index, n_cycles)
        except TreesinkError:   # alone, each column raises or not
            pass
    for col in cols[len(outputs):]:
        try:
            outputs += _run((col,), zones, dataset, tree_index, n_cycles)
        except TreesinkError as exc:
            outputs.append(exc)
    for items, output in zip(keys.values(), outputs):
        for k in items:
            results[k] = output
    return results


@np.errstate(all="ignore")   # a value that overflows fails check_finite
def _run(cols, zones, dataset, tree_index, n_cycles, with_topology=False,
         with_signature=False) -> list[SimulationOutput]:
    """Every column's output of one batched run of checked requests; the
    columns of one :func:`growth_key` grow once."""
    keys: dict = {}
    state = start_state(cols, zones, dataset, [
        keys.setdefault(growth_key(p, tree_index), len(keys)) for p in cols])
    allocations = [step(state, cols, zones, dataset, tree_index, n_cycles)
                   for _ in range(n_cycles)]
    return _collect_output(state, cols, list(zip(*allocations)), n_cycles,
                           with_topology=with_topology,
                           with_signature=with_signature)


def _collect_output(state: TreeState, cols, allocations, n_cycles: int,
                    with_topology: bool = True,
                    with_signature: bool = True) -> list[SimulationOutput]:
    """Each column's output; ``allocations`` holds each column's
    allocation records.  Each column reads its growth row's fields.  The
    columns' profiles are views of one batched record, each per-column sum
    running along a contiguous last axis, as it does with one column."""
    trunk, by_column = state.classes[0], state.by_column
    density = np.array([[p.wood_density] for p in cols])

    add = np.add.reduce
    units = state.growth_units(trunk.index)
    internode, length = map(by_column, (trunk.internode_mass, trunk.length))
    wood = internode + trunk.cum_ring
    diam = metamer_diameters(wood, length, density)
    # each table is filled field by field, then viewed per column
    trunk_table = np.empty((3, len(cols), len(units)))
    for gu, (_, _, start, count, *_) in enumerate(units):
        sl = slice(start, start + count)
        trunk_table[:, :, gu] = (add(wood[:, sl], axis=1),
                                 add(diam[:, sl], axis=1) / count,
                                 add(length[:, sl], axis=1))

    # the trunk's diameters after each cycle: its ring increments,
    # zero-padded to the final trunk, summed cycle by cycle onto the
    # internodes (in place: with K columns the table is cycles × K ×
    # metamers); a unit's mean counts from its birth on
    wood_then = np.zeros((len(state.trunk_rings), len(cols),
                          trunk.n_metamers))
    for cycle, inc in enumerate(state.trunk_rings):
        wood_then[cycle, :, :inc.shape[1]] = inc
    np.cumsum(wood_then, axis=0, out=wood_then)
    wood_then += internode
    diam_then = metamer_diameters(wood_then, length, density, out=wood_then)
    _, births, starts, sizes = map(np.array, list(zip(*units))[:4])
    rings = np.add.reduceat(diam_then, starts, axis=2)
    rings /= sizes
    rings = rings.transpose(1, 0, 2)
    rings[:, births > np.arange(1, rings.shape[1] + 1)[:, None]] = np.nan
    check_finite(diam, length, diam_then)
    del wood_then, diam_then

    wood_totals, total_wood = state.wood_totals()
    leaf_totals = by_column(state.subtree_leaf_mass_totals())
    lengths = by_column(state.arena.segment_sums(state.arena.field(LENGTH)))
    check_finite(wood_totals, leaf_totals, lengths)
    grouped: dict[tuple[int, int], list[int]] = {}
    for rank, *_, laterals in units:
        for _row, child in laterals:
            grouped.setdefault((rank - 1, state.classes[child].pa - 1),
                               []).append(child)
    counts = np.zeros((len(units),
                       max((pa for _, pa in grouped), default=-1) + 1), int)
    branches = np.full((3, len(cols), *counts.shape), np.nan)
    for (gu, pa), idxs in grouped.items():
        counts[gu, pa] = len(idxs)
        branches[:, :, gu, pa] = [
            add(values.take(idxs, axis=1), axis=1) / len(idxs)
            for values in (wood_totals, leaf_totals, lengths)]

    return [SimulationOutput(
        cycles=n_cycles, allocations=list(allocs),
        profiles=Profiles(trunk_k, rings_k, births, branches_k, counts),
        total_wood_g=wood, total_leaf_ever_g=leaf, pending_shoot_fund_g=fund,
        events=run_events(decisions + [pending], drops),
        decisions=decisions + [replace(pending, gu_layouts={})],
        topology_tree=state if with_topology else None,
        signature_tree=state if with_signature else None)
        for allocs, trunk_k, rings_k, branches_k, wood, leaf, fund, decisions,
        pending, drops in zip(
            allocations, trunk_table.transpose(1, 2, 0), rings,
            branches.transpose(1, 2, 3, 0), total_wood.tolist(),
            by_column(state.total_leaf_mass_ever()).tolist(),
            *([each[row] for row in state.growth_rows] for each in (
                state.pending_fund, state.decisions, state.pending_plans)),
            state.pressler_drops)]


def extract_targets(output: SimulationOutput, dataset: TargetDataset
                    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Align a simulation with a target dataset.

    Returns (simulated, observed, class labels), index by index in dataset
    order, section by section in MEASUREMENTS order; raises AlignmentError
    listing every row the simulation cannot serve.  The simulated values
    are one gather per section from the output's profile record, at each
    target row's key cell; no row object is built.  Same-PA branches on
    one growth unit are already averaged on both sides.
    """
    if output.cycles < dataset.tree_age:
        raise AlignmentError(
            f"simulation ran {output.cycles} cycles, dataset needs "
            f"{dataset.tree_age}")
    cells, observed, labels = dataset.alignment
    sim, missing = [], []
    for m, at, (table, served) in zip(MEASUREMENTS, cells,
                                      output.profiles.sections()):
        ok = ((at >= 0) & (at < served.shape)).all(axis=1)
        ok[ok] = served[tuple(at[ok].T)]
        if not ok.all():
            missing += [m.label.format_map(vars(t)) for t, hit in zip(
                getattr(dataset, m.field), ok.tolist()) if not hit]
        if not missing:
            sim.append(table[tuple(at.T)][:, :len(m.classes)])
    if missing:
        raise AlignmentError("simulation cannot serve target rows: "
                             + ", ".join(missing))
    return np.concatenate(sim, axis=None), observed.copy(), list(labels)
