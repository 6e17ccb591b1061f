import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from treesink.calibration import FreeParameter
from treesink.core import SimulationError, TrunkScriptEntry, ZoneRule
from treesink.engine import PRESSLER_DROP, SLACK, run_events, simulate
from treesink.structure import TreeState
from treesink.synthetic import script_only_dataset
from treesink.topology import (OrganogenesisPlan, PositionGroup, axis_band,
                               axis_total, distribute_axes, gu_zone_layout,
                               holding_band, metamer_count, organogenesis_step,
                               plan_holds, seed_plan)

from conftest import check_interval_ends, grow_unit


class TestMetamerCount:
    def test_hand_arithmetic(self):
        zone = ZoneRule(2, 4, m1=1.0, m2=1.2, m_max=5, a1=0.0, a2=0.5)
        assert metamer_count(zone, 2.0) == 3  # round(3.4)

    def test_zero_ratio_floor(self):
        zone = ZoneRule(2, 0, m1=1.0, m2=0.42, m_max=6)
        assert metamer_count(zone, 0.0) == 1

    def test_cap_active_for_large_coefficient(self):
        zone = ZoneRule(2, 4, m1=1.0, m2=800.0, m_max=2, a1=0.0, a2=0.5)
        assert metamer_count(zone, 3.0) == 2

    def test_half_rounds_away_from_zero(self):
        zone = ZoneRule(2, 0, m1=1.0, m2=1.0, m_max=99)
        assert metamer_count(zone, 1.5) == 3  # round(2.5)

    def test_monotone_in_ratio(self):
        zone = ZoneRule(2, 0, m1=1.0, m2=0.42, m_max=6)
        counts = [metamer_count(zone, r / 10) for r in range(0, 120)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


class TestAxisTotal:
    ZONE = ZoneRule(2, 4, m1=1.0, m2=1.1, m_max=2, a1=0.0, a2=0.6)

    def test_clamped_to_positions(self):
        # 81 positions at ratio 4.31: raw count 209 exceeds one per position
        assert axis_total(81, self.ZONE, 4.31) == 81

    def test_zero_ratio_zero_axes(self):
        assert axis_total(10, self.ZONE, 0.0) == 0

    def test_hand_arithmetic(self):
        assert axis_total(10, self.ZONE, 0.5) == 3  # round(3.0)

    def test_unbranched_zone_has_no_axes(self):
        zone = ZoneRule(2, 0, m1=1.0, m2=0.42, m_max=6)
        assert axis_total(50, zone, 9.0) == 0

    def test_monotone_in_ratio(self):
        counts = [axis_total(20, self.ZONE, r / 8) for r in range(0, 80)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


def enumerate_best(total, groups):
    """Exhaustive oracle: all 0/1 group-uniform assignments, keep those
    minimizing |assigned - total|, then the most axes, then the most
    senior-first filling."""
    best = None
    for bits in itertools.product((0, 1), repeat=len(groups)):
        assigned = sum(b * g.size for b, g in zip(bits, groups))
        seniority = tuple(b for _, b in sorted(
            zip(groups, bits), key=lambda t: (-t[0].age, -t[0].rank)))
        key = (abs(assigned - total), -assigned, tuple(-s for s in seniority))
        if best is None or key < best[0]:
            best = (key, bits)
    return best[1]


class TestDistributeAxes:
    def test_saturation(self):
        groups = [PositionGroup(age=3, rank=2, size=4),
                  PositionGroup(age=1, rank=1, size=2)]
        counts, slack = distribute_axes(6, groups)
        assert counts == [1, 1]
        assert slack == 0

    def test_oldest_first(self):
        groups = [PositionGroup(age=1, rank=1, size=2),
                  PositionGroup(age=5, rank=1, size=2)]
        counts, slack = distribute_axes(2, groups)
        assert counts == [0, 1]
        assert slack == 0

    def test_apical_first_within_same_age(self):
        groups = [PositionGroup(age=2, rank=1, size=3),
                  PositionGroup(age=2, rank=4, size=3)]
        counts, _ = distribute_axes(3, groups)
        assert counts == [0, 1]

    def test_partial_group_takes_nearer_of_none_or_all(self):
        # 7 axes on a single 10-position class: 10 is nearer than 0
        counts, slack = distribute_axes(7, [PositionGroup(2, 1, 10)])
        assert counts == [1]
        assert slack == 3
        # 3 axes: 0 is nearer
        counts, slack = distribute_axes(3, [PositionGroup(2, 1, 10)])
        assert counts == [0]
        assert slack == -3
        # exact tie favours growth
        counts, slack = distribute_axes(5, [PositionGroup(2, 1, 10)])
        assert counts == [1]
        assert slack == 5

    def test_two_group_conflict_resolves_toward_growth(self):
        # the leftover axis cannot split the younger pair; the tie between
        # dropping it and promoting the pair resolves toward growth
        groups = [PositionGroup(age=5, rank=1, size=2),
                  PositionGroup(age=3, rank=1, size=2)]
        counts, slack = distribute_axes(3, groups)
        assert counts == [1, 1]
        assert slack == 1

    def test_matches_enumeration_oracle_when_greedy_is_exact(self):
        # totals that an oldest-first filling can honour exactly
        groups = [PositionGroup(age=4, rank=2, size=3),
                  PositionGroup(age=4, rank=1, size=3),
                  PositionGroup(age=2, rank=2, size=6),
                  PositionGroup(age=1, rank=1, size=2)]
        for total in (0, 3, 6, 12, 14):
            counts, slack = distribute_axes(total, groups)
            assert slack == 0
            assert list(enumerate_best(total, groups)) == counts

    def test_deterministic_under_input_reordering(self):
        groups = [PositionGroup(age=4, rank=2, size=3),
                  PositionGroup(age=2, rank=5, size=2),
                  PositionGroup(age=7, rank=1, size=4)]
        counts, _ = distribute_axes(6, groups)
        rev = list(reversed(groups))
        counts_rev, _ = distribute_axes(6, rev)
        by_group = dict(zip([(g.age, g.rank) for g in groups], counts))
        by_group_rev = dict(zip([(g.age, g.rank) for g in rev], counts_rev))
        assert by_group == by_group_rev

    def test_over_capacity_rejected(self):
        with pytest.raises(SimulationError):
            distribute_axes(5, [PositionGroup(1, 1, 4)])


class TestRuns:
    """A run of positions distributes as its positions one by one."""

    @staticmethod
    def _runs(seed):
        """Up to four runs of distinct ages: each of 1-4 positions of 1-4
        instances, its apical rank 0-3 above its size."""
        rng = np.random.default_rng(seed)
        ages = rng.choice(np.arange(1, 12), size=int(rng.integers(1, 5)),
                          replace=False)
        runs = []
        for age in ages.tolist():
            positions = int(rng.integers(1, 5))
            runs.append(PositionGroup(age, positions + int(rng.integers(4)),
                                      int(rng.integers(1, 5)), positions))
        return runs

    @staticmethod
    def _positions(runs):
        """Each run's positions, base to apex, as single positions."""
        return [PositionGroup(g.age, g.rank - g.positions + 1 + r, g.size)
                for g in runs for r in range(g.positions)]

    @pytest.mark.parametrize("seed", range(12))
    def test_counts_slack_and_band_equal_the_positions(self, seed):
        runs = self._runs(seed)
        single = self._positions(runs)
        capacity = sum(g.size * g.positions for g in runs)
        for total in range(capacity + 1):
            counts, slack = distribute_axes(total, runs)
            # a run takes its apical positions
            expanded = [int(r >= g.positions - taken)
                        for g, taken in zip(runs, counts)
                        for r in range(g.positions)]
            assert distribute_axes(total, single) == (expanded, slack)
            # a2 = total / capacity asks for exactly this total at ratio 1
            zone = ZoneRule(2, 4, m1=1.0, m2=1.0, m_max=9, a1=0.0,
                            a2=total / capacity)
            assert axis_total(capacity, zone, 1.0) == total
            assert axis_band(zone, 1.0, runs, counts) == \
                axis_band(zone, 1.0, single, expanded)
        for groups in (runs, single):
            with pytest.raises(SimulationError):
                distribute_axes(capacity + 1, groups)

    def test_a_partial_run_takes_its_apical_positions(self):
        # 5 axes on a 4-position run of 2 instances: two positions, and
        # the half-funded third rounds toward growth
        counts, slack = distribute_axes(5, [PositionGroup(3, 6, 2, 4)])
        assert (counts, slack) == ([3], 1)
        assert distribute_axes(5, self._positions(
            [PositionGroup(3, 6, 2, 4)])) == ([0, 1, 1, 1], 1)


class TestZoneLayout:
    def test_short_shoot_fixed(self, params, zones):
        assert gu_zone_layout(4, zones, 3.7, params) == [(-1, 3)]

    def test_all_four_zones_active_at_high_ratio(self, params, zones):
        layout = gu_zone_layout(2, zones, 5.0, params)
        assert [z for z, _ in layout] == [0, 4, 3, 2]
        assert all(c >= 1 for _, c in layout)

    def test_reiteration_zone_closed_at_low_ratio(self, params, zones):
        layout = gu_zone_layout(2, zones, 1.0, params)
        assert [z for z, _ in layout] == [0, 4, 3]

    def test_pa3_zones(self, params, zones):
        layout = gu_zone_layout(3, zones, 2.0, params)
        assert [z for z, _ in layout] == [0, 4]


def run_cycles(params, zones, script, cycles=None, tree_index=0):
    return simulate(params, zones, script_only_dataset(script),
                    tree_index=tree_index, cycles=cycles)


class TestOrganogenesis:
    def test_dormant_below_thresholds(self, params, zones):
        state = TreeState(cycle=3)
        cls = state.add_class(2, 2, multiplicity=2)
        for cycle in (2, 3):
            grow_unit(state, cls, cycle, [(0, 1), (4, 1), (3, 1)],
                      0.2, 1.0, 0.3, 40.0)
        plan = organogenesis_step(state, params, zones, ratio=0.0,
                                  trunk_entry=None)
        assert not any(any(counts) for _, _, counts, *_ in plan.zone_groups)
        assert plan.bud_counts == {2: 2.0}   # apical continuation only

    def test_active_zones_assign_axes(self, params, zones):
        state = TreeState(cycle=2)
        cls = state.add_class(2, 2, multiplicity=1)
        grow_unit(state, cls, 2, [(0, 2), (4, 2), (3, 1)], 0.4, 1.5, 0.5,
                  70.0)
        plan = organogenesis_step(state, params, zones, ratio=4.0,
                                  trunk_entry=None)
        # 2 short-shoot positions at ratio 4: round(2·0.6·4) = 5 -> clamp 2
        positions = {key: sum(g.size * g.positions for g in groups)
                     for key, groups, *_ in plan.zone_groups}
        assert axis_total(positions[(2, 4)], zones.get(2, 4), 4.0) == 2
        assert sum(count * group.size
                   for key, groups, counts, *_ in plan.zone_groups
                   if key[1] == 4
                   for group, count in zip(groups, counts)) == 2

    @pytest.mark.parametrize("kind", ["m2", "a2"])
    def test_an_overflowing_rounding_does_not_hold(self, params, zones, kind):
        # Z^24's rounded value overflows: its layout (m2) or its axis total
        # (a2) cannot be rounded, so the plan does not hold
        state = TreeState(cycle=2)
        cls = state.add_class(2, 2, multiplicity=1)
        grow_unit(state, cls, 2, [(0, 2), (4, 2), (3, 1)], 0.4, 1.5, 0.5,
                  70.0)
        plan = organogenesis_step(state, params, zones, ratio=4.0,
                                  trunk_entry=None)
        assert plan_holds(plan, zones, params)
        rule = replace(zones.get(2, 4), **{kind: 1e308})
        assert not plan_holds(plan, zones.with_rule(rule), params)

    def test_an_ungrown_layout_must_stay_non_empty(self, params, zones):
        # a plan that grows no branch unit still needs each PA's layout to
        # keep a metamer: with m1 = 0 on both PA-3 zones and Z^34 laying
        # none out at the plan's ratio, Z^30's m2 holds from the value that
        # rounds its count to 1 on, and one float below the layout empties
        zones = replace(zones, eq_fixed=False)
        for key, m2 in (((3, 0), zones.get(3, 0).m2), ((3, 4), 0.1)):
            zones = zones.with_rule(replace(zones.get(*key), m1=0.0, m2=m2))
        plan = OrganogenesisPlan(ratio_used=0.8)
        assert plan.gu_layouts == {} and plan_holds(plan, zones, params)
        lo, hi = holding_band([plan], zones, "m2", (3, 0))
        assert (lo, hi) == (0.6249999999999999, math.inf)
        free = FreeParameter("m2_3_0", 0.0, 3.0, zones.get(3, 0).m2)
        assert check_interval_ends(params, zones, {}, [free],
                                   {free.name: (lo, None)}, [plan]) == 1

    def test_distribution_slack_is_noted(self, params, zones):
        # one Z^24 position on 3 instances: round(3·0.6) = 2 axes requested,
        # the group takes all 3, and the plan keeps the surplus, which the
        # run reports as a slack event of the cycle that planned it
        state = TreeState(cycle=2)
        cls = state.add_class(2, 2, multiplicity=3)
        grow_unit(state, cls, 2, [(0, 1), (4, 1)], 0.2, 1.0, 0.3, 40.0)
        plan = organogenesis_step(state, params, zones, ratio=1.0,
                                  trunk_entry=None)
        assert [(key, counts, total, slack)
                for key, _, counts, total, slack in plan.zone_groups] == \
            [((2, 4), [1], 2, 1)]
        assert run_events([OrganogenesisPlan(0.0)] * 2 + [plan], [2]) == [
            (2, SLACK, (2, 4), 1), (2, PRESSLER_DROP, None, None)]

    def test_scripted_trunk_budget(self, params, zones):
        state = TreeState(cycle=1)
        entry = TrunkScriptEntry(2, 8, ((2, 1), (3, 2)))
        plan = organogenesis_step(state, params, zones, ratio=1.0,
                                  trunk_entry=entry)
        assert plan.bud_counts[1] == 1.0
        assert plan.bud_counts[2] == 1.0
        assert plan.bud_counts[3] == 2.0
        assert plan.d_s == pytest.approx(5.25 * 4)

    def test_seed_plan_ratio(self, params, zones):
        plan = seed_plan(params, zones, TrunkScriptEntry(1, 4))
        assert plan.d_s == pytest.approx(5.25)
        assert plan.ratio_used == pytest.approx(1.0 / 5.25)

    def test_short_shoots_always_three_metamers(self, params, zones):
        script = (TrunkScriptEntry(1, 3), TrunkScriptEntry(2, 3, ((4, 1),)),
                  TrunkScriptEntry(3, 3), TrunkScriptEntry(4, 3))
        out = run_cycles(params, zones, script)
        pa4 = [c for c in out.topology["axis_classes"] if c["pa"] == 4]
        assert pa4
        for cls in pa4:
            for gu in cls["growth_units"]:
                assert gu["metamer_count"] == 3
                assert not gu["borne_axes"]

    def test_trunk_script_placement_apical_first(self, params, zones):
        script = (TrunkScriptEntry(1, 4), TrunkScriptEntry(2, 8, ((2, 1), (3, 2))),
                  TrunkScriptEntry(3, 5))
        out = run_cycles(params, zones, script)
        trunk = out.topology["axis_classes"][0]
        gu2 = trunk["growth_units"][1]
        borne = {b["metamer_rank"]: b["axillary_pa"] for b in gu2["borne_axes"]}
        # PA 2 at the apex (rank 8), the PA 3 pair just below
        assert borne == {8: 2, 7: 3, 6: 3}

    def test_missing_script_entry_is_error(self, params, zones):
        script = (TrunkScriptEntry(1, 4), TrunkScriptEntry(2, 4))
        with pytest.raises(SimulationError):
            run_cycles(params, zones, script, cycles=3)
