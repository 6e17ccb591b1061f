"""Organogenesis: production/demand-driven metamer counts, whole-tree axis
counts, the deterministic distribution of new axes, and trunk forcing.

New shoots planned at the end of cycle n expand at cycle n+1.  The driving
ratio is the previous complete cycle's Q/D (production is known before the
global demand is solved, so the current cycle's ratio would be circular:
the demand depends on the bud population that organogenesis itself creates).

Axis distribution obeys three rules: growth units sharing (physiological
age, birth cycle, rank along their axis) bear the same number of axes;
older axes are served before younger ones; positions within a zone fill
from the apical end (acrotony), at most one lateral per metamer.  When the
whole-tree axis count cannot be honoured exactly under these rules, the
partially-funded group takes the nearer of {0, all} axes, ties toward
growth, and the residual is reported as slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .core import (TRUNK_PA, ZONE_SEQUENCE, GrowthParameters,
                   SimulationError, TrunkScriptEntry, ZoneRule, ZoneRuleSet,
                   round_half_away)
from .sourcesink import shoot_demand
from .structure import TreeState


def metamer_count(zone: ZoneRule, ratio: float) -> int:
    """Metamers of one zone on one growth unit:
    min(round(m1 + m2·ratio), m_max)."""
    if ratio < 0:
        raise SimulationError(f"ratio must be >= 0: {ratio}")
    raw = round_half_away(zone.m1 + zone.m2 * ratio)
    return int(min(raw, zone.m_max))


def axis_total(positions: int, zone: ZoneRule, ratio: float) -> int:
    """Whole-tree count of new axes appearing on a zone type:
    round(N·(a1 + a2·ratio)), clamped to one lateral per position."""
    if positions < 0 or ratio < 0:
        raise SimulationError("positions and ratio must be >= 0")
    if not zone.branching:
        return 0
    raw = round_half_away(positions * (zone.a1 + zone.a2 * ratio))
    return max(0, min(raw, positions))


@dataclass(frozen=True)
class PositionGroup:
    """One assignable unit for axis distribution: the metamers occupying the
    same rank on all instances of one growth-unit class.  ``age`` is the
    bearing axis's age in cycles (older served first); ``size`` the number of
    tree-wide instances."""

    age: int
    rank: int
    size: int
    payload: object = None


def distribute_axes(total: int, groups: list[PositionGroup]
                    ) -> tuple[list[int], int]:
    """Assign ``total`` axes over position groups.

    Returns (per-group per-position counts in input order, slack) where
    slack = assigned − requested.  Groups are served oldest axis first, then
    highest rank (apical) first; every position of a group receives the same
    count (0 or 1).  A group that cannot be fully funded takes the nearer of
    0 or its full size, ties toward the full size.
    """
    capacity = sum(g.size for g in groups)
    if total > capacity:
        raise SimulationError(
            f"cannot place {total} axes on {capacity} positions")
    order = sorted(range(len(groups)),
                   key=lambda i: (-groups[i].age, -groups[i].rank))
    counts = [0] * len(groups)
    remaining = total
    for i in order:
        size = groups[i].size
        if remaining >= size:
            counts[i] = 1
            remaining -= size
        elif remaining > 0:
            if remaining * 2 >= size:
                counts[i] = 1
                remaining -= size
            else:
                counts[i] = 0
        # remaining <= 0: younger groups stay empty
    assigned = sum(c * g.size for c, g in zip(counts, groups))
    return counts, assigned - total


def _last_kept(keeps, inside: float, outside: float, guess: float) -> float:
    """The last float from ``inside`` (kept) toward ``outside`` (not kept).
    The algebraic edge ``guess`` is off by a few floats at most, so up to
    eight are walked from it before bisection settles the rest."""
    for _ in range(8):
        if keeps(guess):
            inside, guess = guess, math.nextafter(guess, outside)
        else:
            outside, guess = guess, math.nextafter(guess, inside)
        if guess in (inside, outside):
            break
    while (mid := inside + 0.5 * (outside - inside)) not in (inside, outside):
        inside, outside = (mid, outside) if keeps(mid) else (inside, mid)
    return inside


def _band(keeps, inside: float, at, low: int, high: float, cap: float
          ) -> tuple[float, float]:
    """Closed range, exact to the float, of a coefficient k around the kept
    value ``inside`` over which a rounding rule clamped to 0..cap keeps its
    outcome in ``low..high`` (``keeps``).  ``at(v)`` is the k where the
    unrounded value is v: the edges lie near at(low − ½) and at(high + ½),
    one unit further is outside, and a side the clamp absorbs is open."""
    return (-math.inf if low <= 0 else
            _last_kept(keeps, inside, at(low - 1.5), at(low - 0.5)),
            math.inf if high >= cap else
            _last_kept(keeps, inside, at(high + 1.5), at(high + 0.5)))


def metamer_band(zone: ZoneRule, ratio: float, low: int, high: float
                 ) -> tuple[float, float]:
    """The m2 range over which max(metamer_count(zone, ratio), 0) stays in
    ``low..high`` (ratio > 0); an absent zone stays absent however low m2
    goes, and the cap int(m_max) absorbs every rise."""
    def keeps(m2):
        count = metamer_count(replace(zone, m2=m2), ratio)
        return low <= max(count, 0) <= high

    cap = int(zone.m_max) if math.isfinite(zone.m_max) else math.inf
    return _band(keeps, zone.m2, lambda v: (v - zone.m1) / ratio, low, high,
                 cap)


def axis_band(positions: int, zone: ZoneRule, ratio: float,
              groups: list[PositionGroup]) -> tuple[float, float]:
    """The a2 range over which the zone's axes keep their distribution over
    ``groups`` (ratio > 0): the run of totals :func:`distribute_axes` gives
    the same counts, walked outward from the rule's, mapped back through it."""
    low = high = axis_total(positions, zone, ratio)
    counts = distribute_axes(low, groups)[0]
    while low > 0 and distribute_axes(low - 1, groups)[0] == counts:
        low -= 1
    while high < positions and \
            distribute_axes(high + 1, groups)[0] == counts:
        high += 1

    def keeps(a2):
        total = axis_total(positions, replace(zone, a2=a2), ratio)
        return low <= total <= high

    return _band(keeps, zone.a2, lambda v: (v / positions - zone.a1) / ratio,
                 low, high, positions)


def gu_zone_layout(pa: int, zones: ZoneRuleSet, ratio: float,
                   params: GrowthParameters) -> list[tuple[int, int]]:
    """Zone blocks (axillary PA, metamer count), base to apical, of a new
    growth unit of the given PA.  Short shoots (the highest PA) have a fixed
    metamer count and no zones; other PAs follow their zone rules."""
    if pa == params.pa_max:
        return [(-1, params.short_shoot_metamers)]
    layout = []
    for rule in zones.zones_of(pa):
        count = metamer_count(rule, ratio)
        if count > 0:
            layout.append((rule.axillary_pa, count))
    if not layout or sum(c for _, c in layout) == 0:
        raise SimulationError(
            f"zone rules leave a PA {pa} growth unit with no metamers")
    return layout


def gu_zone_layouts(zones: ZoneRuleSet, ratio: float,
                    params: GrowthParameters
                    ) -> dict[int, list[tuple[int, int]]]:
    """:func:`gu_zone_layout` of every branch PA (2..pa_max)."""
    return {pa: gu_zone_layout(pa, zones, ratio, params)
            for pa in range(2, params.pa_max + 1)}


@dataclass
class AxisAssignment:
    """One planned lateral: the bearing class/metamer and the per-instance
    count (instances = count × bearer multiplicity)."""

    parent_class_idx: int
    flat_idx: int
    child_pa: int
    per_instance_count: int
    instances: int


@dataclass
class OrganogenesisPlan:
    """Everything decided at the end of one cycle about the next cycle's
    shoots: the trunk script entry to expand, the per-PA growth-unit
    layouts, the lateral assignments, and the resulting bud demand."""

    ratio_used: float
    trunk_entry: TrunkScriptEntry | None
    gu_layouts: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    # (rule key, positions N, its PositionGroups) per branching zone, N > 0
    zone_groups: list[tuple] = field(default_factory=list)
    assignments: list[AxisAssignment] = field(default_factory=list)
    continuation_class_idx: list[int] = field(default_factory=list)
    bud_counts: dict[int, float] = field(default_factory=dict)
    d_s: float = 0.0


def organogenesis_step(state: TreeState, params: GrowthParameters,
                       zones: ZoneRuleSet, ratio: float,
                       trunk_entry: TrunkScriptEntry | None
                       ) -> OrganogenesisPlan:
    """Plan the shoots that will expand next cycle.

    The trunk follows its script entry (the zone rules are bypassed for the
    main stem).  Every living axis continues apically.  Laterals appear on
    the zones of the growth units that expanded this cycle, with whole-tree
    counts from the axis rule and the deterministic distribution above.
    """
    n = state.cycle
    plan = OrganogenesisPlan(ratio_used=ratio, trunk_entry=trunk_entry)
    bud_counts: dict[int, float] = {}

    if trunk_entry is not None:
        bud_counts[TRUNK_PA] = bud_counts.get(TRUNK_PA, 0.0) + 1.0
        for pa, count in trunk_entry.branches:
            bud_counts[pa] = bud_counts.get(pa, 0.0) + count

    # growth-unit layouts for next cycle's shoots, shared by every class
    plan.gu_layouts = gu_zone_layouts(zones, ratio, params)

    # apical continuation of every branch axis
    for idx, cls in enumerate(state.classes):
        if cls.pa == TRUNK_PA:
            continue
        plan.continuation_class_idx.append(idx)
        bud_counts[cls.pa] = bud_counts.get(cls.pa, 0.0) + cls.multiplicity

    # laterals on the zones of this cycle's growth units; zone blocks are
    # contiguous (base to apex) so positions come straight from the layout
    current_gus = []
    for idx, cls in enumerate(state.classes):
        if cls.pa == TRUNK_PA or not cls.gus:
            continue
        gu = cls.newest_gu()
        if gu.birth_cycle == n and gu.zone_counts is not None:
            current_gus.append((idx, cls, gu))
    for rule in zones.rules:
        if not rule.branching:
            continue
        groups: list[PositionGroup] = []
        for idx, cls, gu in current_gus:
            if cls.pa != rule.bearer_pa:
                continue
            count = gu.zone_counts.get(rule.axillary_pa, 0)
            if count == 0:
                continue
            offset = 0
            for zone_pa in ZONE_SEQUENCE:
                if zone_pa == rule.axillary_pa:
                    break
                offset += gu.zone_counts.get(zone_pa, 0)
            age = n - cls.birth_cycle + 1
            for r in range(count):
                groups.append(PositionGroup(
                    age=age, rank=offset + r + 1, size=cls.multiplicity,
                    payload=(idx, gu.start + offset + r)))
        positions = sum(g.size for g in groups)
        if positions == 0:
            continue
        total = axis_total(positions, rule, ratio)
        plan.zone_groups.append((rule.key, positions, groups))
        counts, slack = distribute_axes(total, groups)
        if slack:
            state.notes.append(
                f"cycle {n}: zone Z^{rule.bearer_pa}{rule.axillary_pa} "
                f"distribution slack {slack:+d}")
        for group, count in zip(groups, counts):
            if count == 0:
                continue
            cls_idx, flat_idx = group.payload
            cls = state.classes[cls_idx]
            plan.assignments.append(AxisAssignment(
                parent_class_idx=cls_idx, flat_idx=flat_idx,
                child_pa=rule.axillary_pa, per_instance_count=count,
                instances=count * cls.multiplicity))
            bud_counts[rule.axillary_pa] = (
                bud_counts.get(rule.axillary_pa, 0.0) + count * cls.multiplicity)

    plan.bud_counts = bud_counts
    plan.d_s = shoot_demand(bud_counts, params.p_s)
    return plan


def seed_plan(params: GrowthParameters, zones: ZoneRuleSet,
              entry: TrunkScriptEntry) -> OrganogenesisPlan:
    """The implicit plan funding cycle 1: the first scripted trunk growth
    unit (plus any scripted basal branches), paid for by the seed biomass.
    The seed ratio q0 / (potential shoot demand) stands in for the
    previous-cycle ratio that does not exist yet."""
    bud_counts: dict[int, float] = {TRUNK_PA: 1.0}
    for pa, count in entry.branches:
        bud_counts[pa] = bud_counts.get(pa, 0.0) + count
    d_s = shoot_demand(bud_counts, params.p_s)
    ratio = params.q0 / d_s
    return OrganogenesisPlan(
        ratio_used=ratio, trunk_entry=entry,
        gu_layouts=gu_zone_layouts(zones, ratio, params),
        bud_counts=bud_counts, d_s=d_s)
