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

from .core import (TRUNK_PA, GrowthParameters,
                   SimulationError, TrunkScriptEntry, ZoneRule, ZoneRuleSet,
                   round_half_away)
from .sourcesink import shoot_demand
from .structure import BIRTH, LAYOUT, TreeState


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
        # funded, or nearer full than empty (so none once the total is spent)
        if remaining > 0 and remaining * 2 >= groups[i].size:
            counts[i] = 1
            remaining -= groups[i].size
    return counts, -remaining


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


def axis_band(zone: ZoneRule, ratio: float, groups: list[PositionGroup],
              counts: list[int]) -> tuple[float, float]:
    """The a2 range over which the zone's axes keep their distribution
    ``counts`` over ``groups`` (ratio > 0): the run of totals
    :func:`distribute_axes` gives those counts, walked outward from the
    rule's, mapped back through it."""
    positions = sum(g.size for g in groups)
    low = high = axis_total(positions, zone, ratio)
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
class OrganogenesisPlan:
    """The decisions taken at the end of one cycle about the next cycle's
    shoots: the trunk script entry, the per-PA growth-unit layouts, the axis
    distribution of each branching zone bearing positions, the bud demand."""

    ratio_used: float
    trunk_entry: TrunkScriptEntry | None = None
    gu_layouts: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    # per branching zone with positions: (key, PositionGroups, their counts)
    zone_groups: list[tuple] = field(default_factory=list)
    bud_counts: dict[int, float] = field(default_factory=dict)
    d_s: float = 0.0


def _trunk_buds(entry: TrunkScriptEntry | None) -> dict[int, float]:
    """Bud counts of the scripted trunk growth unit and its branches."""
    buds: dict[int, float] = {}
    if entry is not None:
        buds[TRUNK_PA] = 1.0
        for pa, count in entry.branches:
            buds[pa] = buds.get(pa, 0.0) + count
    return buds


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
    bud_counts = _trunk_buds(trunk_entry)
    # growth-unit layouts for next cycle's shoots, shared by every class
    gu_layouts = gu_zone_layouts(zones, ratio, params)

    # the apical continuation of every branch axis
    for cls in state.classes:
        if cls.pa != TRUNK_PA:
            bud_counts[cls.pa] = bud_counts.get(cls.pa, 0.0) + cls.multiplicity

    # this cycle's zoned growth units, in class order, by bearer PA
    arena = state.arena
    arena.settle()
    layouts = list(arena.layouts)
    born = arena.units[:LAYOUT + 1].compress(arena.units[BIRTH] == n, axis=1)
    current: dict[int, list] = {}
    for idx, _, _, start, layout in born.astype(int).T.tolist():
        if layout >= 0:
            cls = state.classes[idx]
            current.setdefault(cls.pa, []).append(
                (cls, start, layouts[layout]))

    # laterals on the zones of this cycle's growth units; zone blocks are
    # contiguous, base to apex in layout order
    zone_groups = []
    for rule in zones.rules:
        if not rule.branching:
            continue
        groups: list[PositionGroup] = []
        for cls, start, layout in current.get(rule.bearer_pa, ()):
            offset = 0
            for zone_pa, count in layout:
                if zone_pa == rule.axillary_pa:
                    groups += [PositionGroup(
                        age=n - cls.birth_cycle + 1, rank=offset + r + 1,
                        size=cls.multiplicity,
                        payload=(cls.index, start + offset + r))
                        for r in range(count)]
                offset += count
        if not groups:
            continue
        total = axis_total(sum(g.size for g in groups), rule, ratio)
        counts, slack = distribute_axes(total, groups)
        zone_groups.append((rule.key, groups, counts))
        if slack:   # equal axis totals give every column this slack
            for notes in state.notes:
                notes.append(f"cycle {n}: zone Z^{rule.bearer_pa}"
                             f"{rule.axillary_pa} distribution slack "
                             f"{slack:+d}")
        assigned = total + slack
        if assigned:
            bud_counts[rule.axillary_pa] = (
                bud_counts.get(rule.axillary_pa, 0.0) + assigned)

    return OrganogenesisPlan(
        ratio_used=ratio, trunk_entry=trunk_entry, gu_layouts=gu_layouts,
        zone_groups=zone_groups, bud_counts=bud_counts,
        d_s=shoot_demand(bud_counts, params.p_s))


def column_plan(plan: OrganogenesisPlan, zones: ZoneRuleSet,
                params: GrowthParameters, ratio: float
                ) -> OrganogenesisPlan | None:
    """``plan``'s decisions under another parameter column: its plan at
    ``ratio``, with that column's shoot demand, or None when one of the
    plan's roundings comes out differently there.  Equal layouts and equal
    axis totals over the same position groups give equal distributions,
    bud counts and slack, so only the roundings are evaluated."""
    try:
        if gu_zone_layouts(zones, ratio, params) != plan.gu_layouts:
            return None
    except SimulationError:
        return None
    for key, groups, _counts in plan.zone_groups:
        rule, positions = zones.get(*key), sum(g.size for g in groups)
        if axis_total(positions, rule, ratio) != \
                axis_total(positions, rule, plan.ratio_used):
            return None
    return replace(plan, ratio_used=ratio,
                   d_s=shoot_demand(plan.bud_counts, params.p_s))


def seed_ratio(params: GrowthParameters, entry: TrunkScriptEntry) -> float:
    """q0 / (potential shoot demand of the first script entry): the ratio
    standing in for the previous-cycle Q/D at the seed."""
    return params.q0 / shoot_demand(_trunk_buds(entry), params.p_s)


def seed_plan(params: GrowthParameters, zones: ZoneRuleSet,
              entry: TrunkScriptEntry) -> OrganogenesisPlan:
    """The implicit plan funding cycle 1: the first scripted trunk growth
    unit (plus any scripted basal branches), paid for by the seed biomass,
    at the seed ratio."""
    return organogenesis_step(TreeState(), params, zones,
                              seed_ratio(params, entry), entry)
