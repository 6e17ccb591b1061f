"""Reference engine that enumerates every metamer individually.

This is the cross-check for the factorized engine: no cohort merging, no
multiplicities, no vectorization.  Structure bookkeeping (instance groups,
foliage-above scans, subtree aggregates) is re-derived naively from the
explicit tree; only the run-request checks, the scalar rules
(production, the demand solve and production split, allocation, the ring
partition's coefficients, metamer/axis counts, the distribution
primitive), the seed plan (``topology.seed_plan``) and the records of a
plan (``topology.OrganogenesisPlan``, its position groups carrying their
member metamers here) and of a run's events are shared with the engine,
since those have their own oracles in the test suite.  Each cycle's
shoots are read from its plan: the trunk's unit and its scripted
branches, the next unit of every branch axis, then each zone's laterals.

Its cost grows with the organ count, so it is intended for short runs
(a handful of cycles); the factorized engine must reproduce it exactly up
to floating-point summation order.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .core import (CM2_PER_M2, TRUNK_PA, GrowthParameters, Profiles,
                   SimulationError, TargetDataset, ZoneRuleSet)
from .engine import (SimulationOutput, check_finite, check_run_request,
                     failing_cycle, net_production, run_events,
                     split_production)
from .sourcesink import allocate_shoots, partition_rings, shoot_demand
from .structure import expand_shoot_values, metamer_diameters
from .topology import (OrganogenesisPlan, PositionGroup, axis_total,
                       distribute_axes, gu_zone_layouts, seed_plan)


class NMetamer:
    __slots__ = ("pa", "birth", "rank", "zone_pa", "internode_mass",
                 "length", "leaf_mass", "leaf_area", "rings", "child")

    def __init__(self, pa, birth, rank, zone_pa, internode_mass, length,
                 leaf_mass, leaf_area):
        self.pa = pa
        self.birth = birth
        self.rank = rank
        self.zone_pa = zone_pa
        self.internode_mass = internode_mass
        self.length = length
        self.leaf_mass = leaf_mass
        self.leaf_area = leaf_area
        self.rings: list[float] = []
        self.child: "NAxis | None" = None


class NGU:
    __slots__ = ("rank", "birth", "metamers")

    def __init__(self, rank, birth):
        self.rank = rank
        self.birth = birth
        self.metamers: list[NMetamer] = []


class NAxis:
    __slots__ = ("pa", "birth", "gus")

    def __init__(self, pa, birth):
        self.pa = pa
        self.birth = birth
        self.gus: list[NGU] = []


class NaiveTree:
    def __init__(self):
        self.axes: list[NAxis] = []
        self.cycle = 0

    def metamers(self):
        for axis in self.axes:
            for gu in axis.gus:
                yield from gu.metamers

    def live_blade_cm2(self, cycle):
        return sum(m.leaf_area for m in self.metamers() if m.birth == cycle)

    def subtree(self, axis: NAxis, value) -> float:
        """The sum of ``value(metamer)`` over the metamers of ``axis`` and,
        recursively, of the axes they bear."""
        total = 0.0
        for gu in axis.gus:
            for m in gu.metamers:
                total += value(m)
                if m.child is not None:
                    total += self.subtree(m.child, value)
        return total

    def leaves_above(self, axis: NAxis, gu_rank: int, rank: int,
                     cycle) -> float:
        """Foliage at or above one explicit metamer: own live leaf, distal
        leaves on the same axis, and the borne subtrees at or above it."""
        def live(m):
            return m.leaf_area if m.birth == cycle else 0.0

        total = 0.0
        for gu in axis.gus[gu_rank - 1:]:
            for m in gu.metamers:
                if gu.rank == gu_rank and m.rank < rank:
                    continue
                total += live(m)
                if m.child is not None:
                    total += self.subtree(m.child, live)
        return total


def _plan(tree: NaiveTree, params, zones, ratio,
          trunk_entry) -> OrganogenesisPlan:
    """Naive organogenesis: enumerate positions explicitly, group them by
    (axis birth, metamer rank) per growth-unit class and distribute.  Each
    group's payload is its member metamers."""
    n = tree.cycle
    bud_counts: dict[int, float] = {}
    if trunk_entry is not None:
        bud_counts[TRUNK_PA] = 1.0
        for pa, count in sorted(trunk_entry.branches):
            bud_counts[pa] = bud_counts.get(pa, 0.0) + count

    for axis in tree.axes:
        if axis.pa != TRUNK_PA:
            bud_counts[axis.pa] = bud_counts.get(axis.pa, 0.0) + 1.0

    zone_groups = []
    for rule in zones.rules:
        if not rule.branching:
            continue
        buckets: dict[tuple[int, int], list[NMetamer]] = {}
        for axis in tree.axes:
            if axis.pa != rule.bearer_pa or not axis.gus:
                continue
            gu = axis.gus[-1]
            if gu.birth != n:
                continue
            for m in gu.metamers:
                if m.zone_pa == rule.axillary_pa:
                    buckets.setdefault((axis.birth, m.rank), []).append(m)
        if not buckets:
            continue
        groups = [PositionGroup(age=n - birth + 1, rank=rank,
                                size=len(members), payload=members)
                  for (birth, rank), members in sorted(buckets.items())]
        positions = sum(g.size for g in groups)
        total = axis_total(positions, rule, ratio)
        counts, slack = distribute_axes(total, groups)
        zone_groups.append((rule.key, groups, counts, total, slack))
        for group, count in zip(groups, counts):
            if count:
                bud_counts[rule.axillary_pa] = (
                    bud_counts.get(rule.axillary_pa, 0.0) + group.size)

    return OrganogenesisPlan(
        ratio_used=ratio, trunk_entry=trunk_entry,
        gu_layouts=gu_zone_layouts(zones, ratio, params),
        zone_groups=zone_groups, bud_counts=bud_counts,
        d_s=shoot_demand(bud_counts, params.p_s))


def _expand(tree: NaiveTree, params, plan: OrganogenesisPlan,
            fund: float) -> None:
    """Grow the planned shoots: the trunk's unit and its scripted branches,
    the next unit of every branch axis, then each zone's laterals."""
    cycle = tree.cycle
    masses = allocate_shoots(fund, plan.d_s, plan.bud_counts, params.p_s)

    def build_gu(axis: NAxis, metamer_count: int | None = None) -> NGU:
        """``axis``'s next unit: its PA's layout, or the trunk's metamers."""
        layout = ([(-1, metamer_count)] if metamer_count is not None
                  else plan.gu_layouts[axis.pa])
        inter, length, leaf, area = expand_shoot_values(
            params, axis.pa, masses.get(axis.pa, 0.0),
            sum(c for _, c in layout), cycle)
        gu = NGU(rank=len(axis.gus) + 1, birth=cycle)
        axis.gus.append(gu)
        for zone_pa, count in layout:
            for _ in range(count):
                gu.metamers.append(NMetamer(
                    axis.pa, cycle, len(gu.metamers) + 1, zone_pa, inter,
                    length, leaf, area))
        return gu

    def new_axis(pa: int, parent: NMetamer) -> None:
        axis = NAxis(pa, cycle)
        tree.axes.append(axis)
        build_gu(axis)
        if parent.child is not None:
            raise SimulationError("metamer already bears a lateral")
        parent.child = axis

    # taken before the scripted branches, which grow their first unit below
    branches = [axis for axis in tree.axes if axis.pa != TRUNK_PA]
    entry = plan.trunk_entry
    if entry is not None:
        if not tree.axes:
            tree.axes.append(NAxis(TRUNK_PA, 1))
        gu = build_gu(tree.axes[0], entry.metamer_count)
        rank = len(gu.metamers)
        for pa, count in sorted(entry.branches):
            for _ in range(count):
                new_axis(pa, gu.metamers[rank - 1])
                rank -= 1
    for axis in branches:
        build_gu(axis)
    for (_, axillary_pa), groups, counts, *_ in plan.zone_groups:
        for group, count in zip(groups, counts):
            if count:
                for m in group.payload:
                    new_axis(axillary_pa, m)


@np.errstate(all="ignore")   # a value that overflows fails check_finite
def simulate_naive(params: GrowthParameters, zones: ZoneRuleSet,
                   dataset: TargetDataset, tree_index: int = 0,
                   cycles: int | None = None) -> SimulationOutput:
    """Run the enumerated-tree reference simulation (same contract as
    :func:`treesink.engine.simulate`)."""
    n_cycles = check_run_request(params, zones, dataset, tree_index, cycles)

    tree = NaiveTree()
    # each cycle's plan, made at its end: plans[n] funds cycle n + 1
    plans = [seed_plan(params, zones, dataset.script_entry(1))]
    fund = params.q0
    ratio_lagged = plans[0].ratio_used

    allocations, drops = [], []
    for n in range(1, n_cycles + 1):
        tree.cycle = n
        with failing_cycle(n):
            _expand(tree, params, plans[-1], fund)
            s_blade = tree.live_blade_cm2(n) / CM2_PER_M2
            q = net_production(params, s_blade, tree_index)

            next_entry = (dataset.script_entry(n + 1)
                          if n + 1 <= n_cycles else None)
            plan = _plan(tree, params, zones, ratio_lagged, next_entry)
            alloc = split_production(params, n, q, plan.d_s, s_blade)

            rows, row_refs = [], []
            for axis in tree.axes:
                for gu in axis.gus:
                    for m in gu.metamers:
                        s_a = tree.leaves_above(axis, gu.rank, m.rank, n)
                        rows.append((1, m.pa, m.length, s_a))
                        row_refs.append(m)
            incs, dropped = partition_rings(alloc.q_r, rows,
                                            params.lambda_mix, params.p_rg)
            if dropped:
                drops.append(n)
            for m, inc in zip(row_refs, incs):
                m.rings.append(inc)

        allocations.append(alloc)
        plans.append(plan)
        ratio_lagged, fund = alloc.ratio, alloc.q_s

    return _collect_naive(tree, params, allocations, n_cycles,
                          pending_fund=fund, events=run_events(plans, drops))


def _collect_naive(tree: NaiveTree, params, allocations, n_cycles,
                   pending_fund, events):
    trunk = tree.axes[0] if tree.axes else None
    if trunk is None or trunk.pa != TRUNK_PA:
        raise SimulationError("naive simulation produced no trunk")

    gus = trunk.gus
    trunk_table = np.empty((len(gus), 3))
    rings = np.full((n_cycles, len(gus)), np.nan)
    for g, gu in enumerate(gus):
        wood = [m.internode_mass + sum(m.rings) for m in gu.metamers]
        lengths = [m.length for m in gu.metamers]
        trunk_table[g] = (np.sum(wood), np.mean(metamer_diameters(
            wood, lengths, params.wood_density)), np.sum(lengths))
        for age in range(gu.birth, n_cycles + 1):
            wood_age = [m.internode_mass + sum(m.rings[:age - gu.birth + 1])
                        for m in gu.metamers]
            rings[age - 1, g] = np.mean(metamer_diameters(
                wood_age, lengths, params.wood_density))

    grouped: dict[tuple[int, int], list[NAxis]] = {}
    for gu in gus:
        for m in gu.metamers:
            if m.child is not None:
                grouped.setdefault((gu.rank, m.child.pa), []).append(m.child)
    counts = np.zeros((len(gus), max((pa for _, pa in grouped), default=0)),
                      int)
    branches = np.full((*counts.shape, 3), np.nan)
    for (gu_rank, pa), axes in grouped.items():
        counts[gu_rank - 1, pa - 1] = len(axes)
        branches[gu_rank - 1, pa - 1] = (
            np.mean([tree.subtree(a, lambda m: m.internode_mass + sum(m.rings))
                     for a in axes]),
            np.mean([tree.subtree(
                a, lambda m: m.leaf_mass if m.birth == n_cycles else 0.0)
                for a in axes]),
            np.mean([sum(m.length for g in a.gus for m in g.metamers)
                     for a in axes]))
    profiles = Profiles(trunk_table, rings, np.array([gu.birth for gu in gus]),
                        branches, counts)
    check_finite(*(table[served] for table, served in profiles.sections()))
    total_wood = sum(m.internode_mass + sum(m.rings)
                     for m in tree.metamers())
    total_leaf = sum(m.leaf_mass for m in tree.metamers())

    axis_counts = dict(Counter(f"{a.pa}_{a.birth}" for a in tree.axes))

    output = SimulationOutput(
        cycles=n_cycles, allocations=allocations, profiles=profiles,
        total_wood_g=total_wood, total_leaf_ever_g=total_leaf,
        pending_shoot_fund_g=pending_fund, events=events)
    output.topology = {"naive": True, "axis_counts": axis_counts}
    return output
