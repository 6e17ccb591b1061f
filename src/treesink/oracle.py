"""Reference engine that enumerates every metamer individually.

This is the cross-check for the factorized engine: no cohort merging, no
multiplicities, no vectorization.  Structure bookkeeping (instance groups,
foliage-above scans, subtree aggregates) is re-derived naively from the
explicit tree; only the run-request checks and the scalar rules
(production, the demand solve and production split, allocation, the ring
partition's coefficients, the seed plan, metamer/axis counts, the
distribution primitive) are shared with the engine, since those have their
own oracles in the test suite.

Its cost grows with the organ count, so it is intended for short runs
(a handful of cycles); the factorized engine must reproduce it exactly up
to floating-point summation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (CM2_PER_M2, TRUNK_PA, BranchRow, GrowthParameters,
                   RingObservation, SimulationError, TargetDataset,
                   TrunkObservation, TrunkScriptEntry, ZoneRuleSet)
from .engine import (SimulationOutput, check_run_request, net_production,
                     split_production)
from .sourcesink import allocate_shoots, partition_rings, shoot_demand
from .structure import expand_shoot_values, metamer_diameter
from .topology import (PositionGroup, axis_total, distribute_axes,
                       gu_zone_layouts, seed_plan)


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


@dataclass
class _PendingShoot:
    pa: int
    kind: str                  # "trunk" | "continue" | "lateral" | "scripted"
    axis: NAxis | None = None  # axis to continue
    parent: NMetamer | None = None


@dataclass
class _NaivePlan:
    shoots: list[_PendingShoot]
    layouts: dict[int, list[tuple[int, int]]]
    trunk_entry: TrunkScriptEntry | None = None
    d_s: float = 0.0
    bud_counts: dict[int, float] = field(default_factory=dict)


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

    def subtree_live_leaf(self, axis: NAxis, cycle) -> float:
        total = 0.0
        for gu in axis.gus:
            for m in gu.metamers:
                if m.birth == cycle:
                    total += m.leaf_area
                if m.child is not None:
                    total += self.subtree_live_leaf(m.child, cycle)
        return total

    def leaves_above(self, axis: NAxis, gu_rank: int, rank: int,
                     cycle) -> float:
        """Foliage at or above one explicit metamer: own live leaf, distal
        leaves on the same axis, and the borne subtrees at or above it."""
        total = 0.0
        for gu in axis.gus[gu_rank - 1:]:
            for m in gu.metamers:
                if gu.rank == gu_rank and m.rank < rank:
                    continue
                if m.birth == cycle:
                    total += m.leaf_area
                if m.child is not None:
                    total += self.subtree_live_leaf(m.child, cycle)
        return total

    def subtree_wood(self, axis: NAxis) -> float:
        total = 0.0
        for gu in axis.gus:
            for m in gu.metamers:
                total += m.internode_mass + sum(m.rings)
                if m.child is not None:
                    total += self.subtree_wood(m.child)
        return total

    def subtree_live_leaf_mass(self, axis: NAxis, cycle) -> float:
        total = 0.0
        for gu in axis.gus:
            for m in gu.metamers:
                if m.birth == cycle:
                    total += m.leaf_mass
                if m.child is not None:
                    total += self.subtree_live_leaf_mass(m.child, cycle)
        return total


def _plan(tree: NaiveTree, params, zones, ratio, trunk_entry) -> _NaivePlan:
    """Naive organogenesis: enumerate positions explicitly, group them by
    (axis birth, metamer rank) per growth-unit class and distribute."""
    n = tree.cycle
    layouts = gu_zone_layouts(zones, ratio, params)
    shoots: list[_PendingShoot] = []
    bud_counts: dict[int, float] = {}

    plan = _NaivePlan(shoots=shoots, layouts=layouts, trunk_entry=trunk_entry)
    if trunk_entry is not None:
        shoots.append(_PendingShoot(pa=TRUNK_PA, kind="trunk"))
        bud_counts[TRUNK_PA] = bud_counts.get(TRUNK_PA, 0.0) + 1.0
        for pa, count in sorted(trunk_entry.branches):
            bud_counts[pa] = bud_counts.get(pa, 0.0) + count

    for axis in tree.axes:
        if axis.pa == TRUNK_PA:
            continue
        shoots.append(_PendingShoot(pa=axis.pa, kind="continue", axis=axis))
        bud_counts[axis.pa] = bud_counts.get(axis.pa, 0.0) + 1.0

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
        counts, _slack = distribute_axes(total, groups)
        for group, count in zip(groups, counts):
            if count == 0:
                continue
            for m in group.payload:
                shoots.append(_PendingShoot(pa=rule.axillary_pa,
                                            kind="lateral", parent=m))
                bud_counts[rule.axillary_pa] = (
                    bud_counts.get(rule.axillary_pa, 0.0) + 1.0)

    plan.bud_counts = bud_counts
    plan.d_s = shoot_demand(bud_counts, params.p_s)
    return plan


def _expand(tree: NaiveTree, params, plan: _NaivePlan, fund: float) -> None:
    cycle = tree.cycle
    masses = allocate_shoots(fund, plan.d_s, plan.bud_counts, params.p_s)

    def build_gu(axis: NAxis, pa: int, layout, metamer_count: int):
        inter, length, leaf, area = expand_shoot_values(
            params, pa, masses.get(pa, 0.0), metamer_count, cycle)
        gu = NGU(rank=len(axis.gus) + 1, birth=cycle)
        axis.gus.append(gu)
        rank = 0
        blocks = layout if layout is not None else [(-1, metamer_count)]
        for zone_pa, count in blocks:
            for _ in range(count):
                rank += 1
                gu.metamers.append(NMetamer(pa, cycle, rank, zone_pa,
                                            inter, length, leaf, area))
        return gu

    for shoot in plan.shoots:
        if shoot.kind == "trunk":
            if not tree.axes:
                tree.axes.append(NAxis(TRUNK_PA, 1))
            trunk = tree.axes[0]
            rank = plan.trunk_entry.metamer_count
            gu = build_gu(trunk, TRUNK_PA, None, rank)
            for pa, count in sorted(plan.trunk_entry.branches):
                for _ in range(count):
                    layout = plan.layouts[pa]
                    axis = NAxis(pa, cycle)
                    tree.axes.append(axis)
                    build_gu(axis, pa, layout, sum(c for _, c in layout))
                    gu.metamers[rank - 1].child = axis
                    rank -= 1
        elif shoot.kind == "continue":
            layout = plan.layouts[shoot.pa]
            build_gu(shoot.axis, shoot.pa, layout,
                     sum(c for _, c in layout))
        else:  # lateral
            layout = plan.layouts[shoot.pa]
            axis = NAxis(shoot.pa, cycle)
            tree.axes.append(axis)
            build_gu(axis, shoot.pa, layout, sum(c for _, c in layout))
            if shoot.parent.child is not None:
                raise SimulationError(
                    f"cycle {cycle}: metamer already bears a lateral")
            shoot.parent.child = axis


def simulate_naive(params: GrowthParameters, zones: ZoneRuleSet,
                   dataset: TargetDataset, tree_index: int = 0,
                   cycles: int | None = None) -> SimulationOutput:
    """Run the enumerated-tree reference simulation (same contract as
    :func:`treesink.engine.simulate`)."""
    n_cycles = check_run_request(params, zones, dataset, tree_index, cycles)

    tree = NaiveTree()
    seed = seed_plan(params, zones, dataset.script_entry(1))
    pending = _NaivePlan(
        shoots=[_PendingShoot(pa=TRUNK_PA, kind="trunk")],
        layouts=seed.gu_layouts, trunk_entry=seed.trunk_entry,
        d_s=seed.d_s, bud_counts=seed.bud_counts)
    fund = params.q0
    ratio_lagged = seed.ratio_used

    allocations = []
    for n in range(1, n_cycles + 1):
        tree.cycle = n
        _expand(tree, params, pending, fund)
        s_blade = tree.live_blade_cm2(n) / CM2_PER_M2
        q = net_production(params, s_blade, tree_index)

        next_entry = (dataset.script_entry(n + 1)
                      if n + 1 <= n_cycles else None)
        plan = _plan(tree, params, zones, ratio_lagged, next_entry)
        alloc = split_production(params, n, q, plan.d_s, s_blade)

        rows = []
        row_refs = []
        for axis in tree.axes:
            for gu in axis.gus:
                for m in gu.metamers:
                    s_a = tree.leaves_above(axis, gu.rank, m.rank, n)
                    rows.append((1, m.pa, m.length, s_a))
                    row_refs.append(m)
        incs = partition_rings(alloc.q_r, rows, params.lambda_mix, params.p_rg)
        for m, inc in zip(row_refs, incs):
            m.rings.append(inc)

        allocations.append(alloc)
        ratio_lagged = alloc.ratio
        pending, fund = plan, alloc.q_s

    return _collect_naive(tree, params, allocations, tree_index, n_cycles,
                          pending_fund=fund)


def _collect_naive(tree: NaiveTree, params, allocations, tree_index,
                   n_cycles, pending_fund):
    trunk = tree.axes[0] if tree.axes else None
    if trunk is None or trunk.pa != TRUNK_PA:
        raise SimulationError("naive simulation produced no trunk")

    trunk_profile = []
    ring_matrix = []
    for gu in trunk.gus:
        wood = [m.internode_mass + sum(m.rings) for m in gu.metamers]
        diam = [metamer_diameter(w, m.length, params.wood_density)
                for w, m in zip(wood, gu.metamers)]
        trunk_profile.append(TrunkObservation(
            gu_index=gu.rank, mass_g=float(np.sum(wood)),
            diameter_cm=float(np.mean(diam)),
            length_cm=float(np.sum([m.length for m in gu.metamers]))))
        for age in range(gu.birth, n_cycles + 1):
            n_rings = age - gu.birth + 1
            wood_age = [m.internode_mass + sum(m.rings[:n_rings])
                        for m in gu.metamers]
            diam_age = [metamer_diameter(w, m.length, params.wood_density)
                        for w, m in zip(wood_age, gu.metamers)]
            ring_matrix.append(RingObservation(gu.rank, age,
                                               float(np.mean(diam_age))))
    ring_matrix.sort(key=lambda r: (r.tree_age, r.gu_index))

    grouped: dict[tuple[int, int], list[NAxis]] = {}
    for gu in trunk.gus:
        for m in gu.metamers:
            if m.child is not None:
                grouped.setdefault((gu.rank, m.child.pa), []).append(m.child)
    branch_rows = []
    for (gu_rank, pa), axes in sorted(grouped.items()):
        wood = float(np.mean([tree.subtree_wood(a) for a in axes]))
        leaf = float(np.mean([tree.subtree_live_leaf_mass(a, n_cycles)
                              for a in axes]))
        length = float(np.mean([sum(m.length for g in a.gus
                                    for m in g.metamers) for a in axes]))
        branch_rows.append(BranchRow(gu_index=gu_rank, pa=pa, count=len(axes),
                                     wood_g=wood, leaf_g=leaf,
                                     axis_length_cm=length))

    total_wood = sum(m.internode_mass + sum(m.rings)
                     for m in tree.metamers())
    total_leaf = sum(m.leaf_mass for m in tree.metamers())

    axis_counts: dict[str, int] = {}
    for axis in tree.axes:
        key = f"{axis.pa}_{axis.birth}"
        axis_counts[key] = axis_counts.get(key, 0) + 1

    return SimulationOutput(
        tree_index=tree_index, cycles=n_cycles, allocations=allocations,
        trunk_profile=trunk_profile, ring_matrix=ring_matrix,
        branch_compartments=branch_rows,
        topology={"naive": True, "axis_counts": axis_counts},
        total_wood_g=total_wood, total_leaf_ever_g=total_leaf,
        pending_shoot_fund_g=pending_fund)
