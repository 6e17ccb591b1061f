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
growth, and the residual is reported as slack.  A class's block of one
zone is one run of positions, distributed in one closed-form step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import NamedTuple

from .core import (TRUNK_PA, GrowthParameters,
                   SimulationError, TrunkScriptEntry, ZoneRule, ZoneRuleSet,
                   round_half_away)
from .sourcesink import shoot_demand
from .structure import TreeState


def _rounded(first: float, second: float, ratio: float, cap,
             positions: int = 1) -> int:
    """min(round(positions·(first + second·ratio)), cap): the rounding rule
    of :func:`metamer_count` (one position) and :func:`axis_total`."""
    return min(round_half_away(positions * (first + second * ratio)), cap)


def metamer_count(zone: ZoneRule, ratio: float) -> int:
    """Metamers of one zone on one growth unit:
    min(round(m1 + m2·ratio), m_max)."""
    if ratio < 0:
        raise SimulationError(f"ratio must be >= 0: {ratio}")
    return int(_rounded(zone.m1, zone.m2, ratio, zone.m_max))


def axis_total(positions: int, zone: ZoneRule, ratio: float) -> int:
    """Whole-tree count of new axes appearing on a zone type:
    round(N·(a1 + a2·ratio)), clamped to one lateral per position."""
    if positions < 0 or ratio < 0:
        raise SimulationError("positions and ratio must be >= 0")
    if not zone.branching:
        return 0
    return max(0, _rounded(zone.a1, zone.a2, ratio, positions, positions))


class PositionGroup(NamedTuple):
    """A run of ``positions`` consecutive metamers for axis distribution,
    each at one rank on all ``size`` tree-wide instances of a growth-unit
    class.  ``age`` is the bearing axis's age in cycles (older served
    first), ``rank`` the run's apical rank."""

    age: int
    rank: int
    size: int
    positions: int = 1
    payload: object = None


def _positions(groups: list[PositionGroup]) -> int:
    """The tree-wide positions of ``groups``."""
    return sum(g.size * g.positions for g in groups)


def distribute_axes(total: int, groups: list[PositionGroup]
                    ) -> tuple[list[int], int]:
    """Assign ``total`` axes over position groups.

    Returns (per-group counts of positions bearing an axis, in input
    order; slack = assigned − requested).  Groups are served oldest first,
    then apical first, and a position takes an axis on all its instances
    when funded or nearer full than empty (ties toward growth), so with R
    axes left a run takes its apical min(positions, (2R + size) // 2size).
    """
    capacity = _positions(groups)
    if total > capacity:
        raise SimulationError(
            f"cannot place {total} axes on {capacity} positions")
    seniority = [(-g.age, -g.rank) for g in groups]
    counts = [0] * len(groups)
    remaining = total
    for i in sorted(range(len(groups)), key=seniority.__getitem__):
        _, _, size, positions, _ = groups[i]
        if remaining > 0:
            counts[i] = taken = min(positions,
                                    (2 * remaining + size) // (2 * size))
            remaining -= taken * size
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
        return low <= max(_rounded(zone.m1, m2, ratio, zone.m_max), 0) <= high

    cap = int(zone.m_max) if math.isfinite(zone.m_max) else math.inf
    return _band(keeps, zone.m2, lambda v: (v - zone.m1) / ratio, low, high,
                 cap)


def axis_band(zone: ZoneRule, ratio: float, groups: list[PositionGroup],
              counts: list[int]) -> tuple[float, float]:
    """The a2 range over which the zone's axes keep their distribution
    ``counts`` over ``groups`` (ratio > 0): the run of totals
    :func:`distribute_axes` gives those counts, walked outward from the
    rule's, mapped back through it."""
    positions = _positions(groups)
    low = high = axis_total(positions, zone, ratio)
    while low > 0 and distribute_axes(low - 1, groups)[0] == counts:
        low -= 1
    while high < positions and \
            distribute_axes(high + 1, groups)[0] == counts:
        high += 1

    def keeps(a2):
        total = max(0, _rounded(zone.a1, a2, ratio, positions, positions))
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
    shoots: the trunk script entry, the layouts of the branch PAs it grows,
    each branching zone's axis distribution, the bud demand.  The engine
    and the oracle both plan in it.  A zone group's payload is the
    engine's (class index, apical row) or the oracle's member metamers,
    and the oracle's layouts cover every branch PA."""

    ratio_used: float
    trunk_entry: TrunkScriptEntry | None = None
    gu_layouts: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    # per branching zone with positions: (key, PositionGroups, their
    # counts, the axis total they were given, the distribution's slack)
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
    # next cycle's growth-unit layouts: none may be empty, the grown kept
    layouts = gu_zone_layouts(zones, ratio, params)

    # the apical continuation of every branch axis; each branch class grew
    # one unit this cycle, its last, with its PA's layout in the plan just
    # expanded
    bearers: dict[int, list] = {}
    for cls in state.classes:
        if cls.pa != TRUNK_PA:
            bud_counts[cls.pa] = bud_counts.get(cls.pa, 0.0) + cls.multiplicity
            bearers.setdefault(cls.pa, []).append(cls)

    # laterals on the zones of this cycle's growth units: each class's block
    # of one axillary PA, ``end`` rows into its unit, is one run of positions
    zone_groups = []
    for rule in zones.rules:
        if not rule.branching or rule.bearer_pa not in bearers:
            continue
        blocks = state.decisions[0][-1].gu_layouts[rule.bearer_pa]
        ends = list(accumulate(c for _, c in blocks))
        groups = [PositionGroup(
            n - cls.birth_cycle + 1, end, cls.multiplicity, count,
            (cls.index, cls.n_metamers - ends[-1] + end - 1))
            for (pa, count), end in zip(blocks, ends)
            if pa == rule.axillary_pa for cls in bearers[rule.bearer_pa]]
        if not groups:
            continue
        total = axis_total(_positions(groups), rule, ratio)
        counts, slack = distribute_axes(total, groups)
        zone_groups.append((rule.key, groups, counts, total, slack))
        assigned = total + slack
        if assigned:
            bud_counts[rule.axillary_pa] = (
                bud_counts.get(rule.axillary_pa, 0.0) + assigned)

    return OrganogenesisPlan(
        ratio_used=ratio, trunk_entry=trunk_entry,
        gu_layouts={pa: layouts[pa] for pa in layouts if pa in bud_counts},
        zone_groups=zone_groups, bud_counts=bud_counts,
        d_s=shoot_demand(bud_counts, params.p_s))


def _held(plan: OrganogenesisPlan, zones: ZoneRuleSet,
          params: GrowthParameters) -> list[tuple] | None:
    """``plan``'s zone entries at its ratio under ``zones`` with
    ``params``, each with its own axis total and slack; None when the plan
    does not hold: a layout empties or a grown one changes, a zone's axis
    distribution changes, or a rounding rule meets a non-finite value."""
    try:
        layouts = gu_zone_layouts(zones, plan.ratio_used, params)
        if any(layouts[pa] != grown for pa, grown in plan.gu_layouts.items()):
            return None
        held = []
        for key, groups, counts, total, slack in plan.zone_groups:
            new = axis_total(_positions(groups), zones.get(*key),
                             plan.ratio_used)
            if new != total and distribute_axes(new, groups)[0] != counts:
                return None
            held.append((key, groups, counts, new, total + slack - new))
        return held
    except SimulationError:
        return None


def plan_holds(plan: OrganogenesisPlan, zones: ZoneRuleSet,
               params: GrowthParameters) -> bool:
    """Whether ``plan`` keeps its outcome at its ratio under ``zones`` with
    ``params``: no layout empties, the grown ones and each zone's axis
    distribution stay equal, and with them the bud counts and d_s."""
    return _held(plan, zones, params) is not None


def holding_band(plans: list[OrganogenesisPlan], zones: ZoneRuleSet,
                 kind: str, key: tuple[int, int]) -> tuple[float, float]:
    """The inverse of :func:`plan_holds` in one zone coefficient: the closed
    range, exact to the float, of zone ``key``'s ``kind`` ("m2" or "a2")
    over which every plan of ``plans`` holds under ``zones`` with that
    coefficient alone changed; the whole line where none depends on it."""
    rule = zones.get(*key)
    others = [r for r in zones.zones_of(rule.bearer_pa) if r is not rule]
    bands = [(-math.inf, math.inf)]
    for plan in plans:
        ratio = plan.ratio_used
        if ratio == 0:   # the coefficient is multiplied away
            continue
        if kind == "a2":   # each distribution of the zone's axes
            bands += [axis_band(rule, ratio, groups, counts)
                      for k, groups, counts, *_ in plan.zone_groups
                      if k == key]
        elif rule.bearer_pa in plan.gu_layouts:   # a grown layout
            count = max(metamer_count(rule, ratio), 0)
            bands.append(metamer_band(rule, ratio, count, count))
        elif all(metamer_count(r, ratio) <= 0 for r in others):  # non-empty
            bands.append(metamer_band(rule, ratio, 1, math.inf))
    return max(lo for lo, _ in bands), min(hi for _, hi in bands)


def column_plans(plan: OrganogenesisPlan, zones: ZoneRuleSet, cols,
                 ratios) -> list[OrganogenesisPlan]:
    """``plan``, made for the first of the parameter columns ``cols``, and
    its decisions under each other one at its ratio, with that column's own
    shoot demand, axis totals and slack: what the column plans alone.  A
    SimulationError names the columns where :func:`plan_holds` fails."""
    plans = [plan] + [replace(plan, ratio_used=ratio,
                              d_s=shoot_demand(plan.bud_counts, params.p_s))
                      for params, ratio in zip(cols[1:], ratios[1:])]
    for each, params in zip(plans[1:], cols[1:]):
        each.zone_groups = _held(each, zones, params)
    left = [k for k, each in enumerate(plans) if each.zone_groups is None]
    if left:
        raise SimulationError(f"columns {left} left the batch")
    return plans


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
