import copy
import gc
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

from treesink.core import AlignmentError, SimulationError, TrunkScriptEntry
from treesink import engine
from treesink.engine import extract_targets, simulate, start_state
from treesink.structure import (BIRTH, LEAF_AREA, SIZE, TreeState,
                                expand_shoot_values, metamer_diameters)
from treesink.synthetic import (dataset_from_output, script_only_dataset,
                                tree2_script)
from treesink.topology import organogenesis_step

from conftest import grow_unit, step_with_rings


def run(params, zones, script, **kw):
    return simulate(params, zones, script_only_dataset(script), **kw)


class TestSeedCycle:
    def test_first_growth_unit_holds_the_seed_biomass(self, params, zones):
        script = (TrunkScriptEntry(1, 4),)
        out = run(params, zones, script)
        trunk = out.topology["axis_classes"][0]
        assert trunk["pa"] == 1 and trunk["multiplicity"] == 1
        gu1 = trunk["growth_units"][0]
        assert gu1["metamer_count"] == 4
        # all of q0 lands in the single seed shoot, split 0.7:1 internode:leaf
        state = _state_after(params, zones, script)[0]
        total_internode = sum(
            cls.multiplicity * float(cls.internode_mass.sum())
            for cls in state.classes)
        total_leaf = out.total_leaf_ever_g
        assert total_internode + total_leaf == pytest.approx(params.q0,
                                                             rel=1e-12)
        assert total_leaf == pytest.approx(params.q0 / 1.7, rel=1e-12)

    def test_seed_ratio_drives_first_plan(self, params, zones):
        script = (TrunkScriptEntry(1, 4), TrunkScriptEntry(2, 4))
        out = run(params, zones, script)
        assert out.allocations[0].q > 0


class TestStarvation:
    def test_zero_environment_collapses(self, params, zones):
        p = params.with_values(v_env=(1e-12,))
        script = (TrunkScriptEntry(1, 4), TrunkScriptEntry(2, 4),
                  TrunkScriptEntry(3, 4))
        out = run(p, zones, script)
        assert out.allocations[1].q == pytest.approx(0.0, abs=1e-9)
        assert out.allocations[2].q == pytest.approx(0.0, abs=1e-9)
        assert out.allocations[2].q_r == pytest.approx(0.0, abs=1e-9)
        # organogenesis falls back to minimum counts
        for cls in out.topology["axis_classes"]:
            for gu in cls["growth_units"][1:]:
                if cls["pa"] in (2, 3):
                    zone_counts = gu["zone_counts"]
                    assert all(v <= 1 for v in zone_counts.values())


class TestLeafLifespan:
    def test_blade_area_counts_current_cycle_only(self, params, zones,
                                                  small_script):
        state, cycles = _state_after(params, zones, small_script)
        n = state.cycle
        # per metamer, the first column's leaf area and birth cycle, and each
        # class's arena segment
        arena, b = state.arena, state.arena.bounds
        leaf_area = arena.field(LEAF_AREA)[0]
        birth = np.repeat(arena.units[BIRTH], arena.sizes)
        segments = [slice(b[cls.index], b[cls.index + 1])
                    for cls in state.classes]
        expected = sum(
            cls.multiplicity * float(leaf_area[s][birth[s] == n].sum())
            for cls, s in zip(state.classes, segments))
        everything = sum(cls.multiplicity * float(leaf_area[s].sum())
                         for cls, s in zip(state.classes, segments))
        assert cycles[-1][0].s_blade * 1e4 == pytest.approx(expected,
                                                           rel=1e-12)
        assert everything > expected  # older foliage exists but is dead


class TestRootFraction:
    def test_scales_aerial_production(self, params, zones):
        script = (TrunkScriptEntry(1, 4), TrunkScriptEntry(2, 4))
        base = run(params, zones, script)
        diverted = run(params.with_values(root_fraction=0.25), zones, script)
        # identical foliage at cycle 1, so production differs by the factor
        assert diverted.allocations[0].q == pytest.approx(
            0.75 * base.allocations[0].q, rel=1e-12)


class TestLeavesAbove:
    def _chain_state(self):
        """Single axis, three growth units, one metamer each, all born at
        the current cycle so that every leaf is live (leaf areas 11, 23, 47
        base to tip)."""
        state = TreeState(cycle=3)
        cls = state.add_class(2, 1, multiplicity=1)
        for area in (11.0, 23.0, 47.0):
            grow_unit(state, cls, 3, [(0, 1)], 0.5, 2.0, 0.4, area)
        return state

    def test_every_unit_born_this_cycle_is_live(self):
        # the blade total, the foliage above the base and the subtree leaf
        # mass all count the three units born at cycle 3
        state = self._chain_state()
        bounds, [s_above] = state.foliage_above()
        assert state.total_blade_area_cm2().tolist() == [81.0]
        assert s_above[bounds[0]] == 81.0
        assert state.subtree_leaf_mass_totals().tolist() == \
            [[pytest.approx(1.2, rel=1e-12)]]

    def test_middle_of_chain(self):
        _bounds, [s_above] = self._chain_state().foliage_above()
        assert s_above[1] == pytest.approx(23.0 + 47.0)

    def test_apex_sees_only_itself(self):
        _bounds, [s_above] = self._chain_state().foliage_above()
        assert s_above[2] == pytest.approx(47.0)

    def test_base_sees_whole_tree(self, params, zones, small_script):
        out = run(params, zones, small_script)
        state, _ = _state_after(params, zones, small_script)
        bounds, [s_above] = state.foliage_above()
        [total] = state.total_blade_area_cm2()
        assert s_above[bounds[0]] == pytest.approx(total, rel=1e-12)
        assert out.cycles == len(small_script)

    def test_consistency_with_live_total(self, params, zones, small_script):
        state, _ = _state_after(params, zones, small_script)
        _bounds, [s_above] = state.foliage_above()
        # weighting base metamers by multiplicity reproduces the blade total
        base = s_above[0]
        assert base * state.classes[0].multiplicity <= \
            state.total_blade_area_cm2() + 1e-9


def _naive_foliage_above(state) -> np.ndarray:
    """:meth:`TreeState.foliage_above`'s areas in pure Python: per column
    and class, from the apex down, a running sum of each metamer's live
    leaf plus the subtree total of the lateral it bears."""
    arena = state.arena
    laterals = state._subtree_totals(state._live_totals(LEAF_AREA)).tolist()
    borne = {(bearer, row): child
             for bearer, row, child in arena.edges.T.tolist()}
    areas = []
    for k, leaf in enumerate(arena.unit_field(LEAF_AREA).tolist()):
        column = []
        for cls in state.classes:
            entries = []
            for u in range(*arena.unit_bounds[cls.index:cls.index + 2]):
                live = arena.units[BIRTH, u] == state.cycle
                entries += [leaf[u] if live else 0.0] * int(arena.sizes[u])
            for row, child in borne.items():
                if row[0] == cls.index:
                    entries[row[1]] = entries[row[1]] + laterals[k][child]
            total, sums = 0.0, []
            for entry in reversed(entries):
                total += entry
                sums.append(total)
            column += reversed(sums)
        areas.append(column)
    return np.array(areas).reshape(state.columns, -1)


def _scan_state(columns: int, laterals: bool, leaf: float) -> TreeState:
    """At cycle 3: a trunk whose apical unit is live, a PA-2 class whose
    apical unit is not, a live PA-3 class and a one-unit PA-4 class; with
    ``laterals``, the PA-2 class borne on an old trunk metamer, the PA-3
    class on a live one and the PA-4 class on the PA-2 class.  Column k's
    leaf areas are ``leaf`` times 1, 1.5, 0.3 times unit-specific
    numbers."""
    state = TreeState(cycle=3, columns=columns)
    scale = (1.0, 1.5, 0.3)[:columns]
    units = {0: ((1, 3), (2, 2), (3, 2)), 1: ((1, 2), (2, 3)),
             2: ((2, 1), (3, 2)), 3: ((3, 1),)}
    for (idx, grown), pa in zip(units.items(), (1, 2, 3, 4)):
        cls = state.add_class(pa, grown[0][0], multiplicity=1)
        for cycle, count in grown:
            area = leaf * (7.0 * idx + 3.0 * cycle + count)
            cls.append_gu(cycle, count, *[0.5] * columns, *[2.0] * columns,
                          *[0.4] * columns, *(area * c for c in scale))
    if laterals:
        state.arena.grow([], ([0, 0, 1], [1, 5, 0], [1, 2, 3]))
    return state


class TestFoliageScan:
    """The scan over held metamers gives a pure-Python suffix sum's bits."""

    @pytest.mark.parametrize("columns", [1, 3])
    @pytest.mark.parametrize("laterals", [True, False],
                             ids=["laterals", "no-edges"])
    @pytest.mark.parametrize("leaf", [1.1, 0.0], ids=["leaves", "zero-leaf"])
    def test_hand_built_arena(self, columns, laterals, leaf):
        state = _scan_state(columns, laterals, leaf)
        bounds, areas = state.foliage_above()
        assert bounds.tolist() == state.arena.bounds
        assert areas.shape == (columns, state.arena.bounds[-1])
        assert areas.tobytes() == _naive_foliage_above(state).tobytes()
        if laterals and leaf:
            # the trunk's base sees every live leaf of the tree, each class
            # holding one axis
            assert areas[:, 0].tolist() == pytest.approx(
                state.total_blade_area_cm2().tolist(), rel=1e-12)

    def test_every_cycle_of_a_three_column_run(self, params, zones,
                                               small_script):
        ds = script_only_dataset(small_script)
        cols = [params, replace(params, sp0=params.sp0 * (1 + 1e-9)),
                replace(params, q0=params.q0 * (1 - 1e-9))]
        states = [start_state(cols, zones, ds), start_state([params], zones,
                                                            ds)]
        for _ in range(ds.tree_age):
            for state in states:
                engine.step(state, cols[:state.columns], zones, ds, 0,
                            ds.tree_age)
                _bounds, areas = state.foliage_above()
                assert areas.tobytes() == \
                    _naive_foliage_above(state).tobytes()


def _state_after(params, zones, script):
    """Step a full run; return the final state and, per cycle, the
    CycleAllocation with the per-class ring increments of that cycle."""
    ds = script_only_dataset(script)
    state = start_state([params], zones, ds)
    cycles = [step_with_rings(state, params, zones, ds, 0, ds.tree_age)
              for _ in range(ds.tree_age)]
    return state, cycles


class TestGeometry:
    def test_zero_mass(self, params):
        # no internode and no ring mass on a zero-length metamer
        assert metamer_diameters(0.0, 0.0, params.wood_density) == 0.0

    def test_allometric_length(self, params):
        # shoot mass chosen so the internode share is exactly 4 g:
        # length = 10 · 4^0.5 = 20 cm
        p = params.with_values(allom_a=(10.0,) * 4, allom_b=(0.5,) * 4)
        inter, length, leaf, _ = expand_shoot_values(p, 2, 4.0 * 1.7 / 0.7,
                                                     1, 1)
        assert inter == pytest.approx(4.0, rel=1e-12)
        assert leaf == pytest.approx(4.0 / 0.7, rel=1e-12)
        assert length == pytest.approx(20.0, rel=1e-12)

    def test_doubling_wood_scales_diameter_by_sqrt2(self, params):
        d1 = metamer_diameters(3.0, 2.0, params.wood_density)
        d2 = metamer_diameters(6.0, 2.0, params.wood_density)
        assert d2 / d1 == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_rings_on_zero_length_is_error(self, params):
        with pytest.raises(SimulationError):
            metamer_diameters(1.0, 0.0, params.wood_density)


class TestConservation:
    def test_per_cycle_and_whole_run(self, params, zones):
        out = run(params, zones, tree2_script(), tree_index=1)
        for a in out.allocations:
            assert abs(a.q_s + a.q_r - a.q) <= 1e-9 * max(a.q, 1e-30)
            if a.d_s > 0 and a.d_r > 0:
                assert a.q_s / a.d_s == pytest.approx(a.q / a.d, rel=1e-9)
                assert a.q_r / a.d_r == pytest.approx(a.q / a.d, rel=1e-9)
        produced = params.q0 + sum(a.q for a in out.allocations)
        materialized = (out.total_wood_g + out.total_leaf_ever_g
                        + out.pending_shoot_fund_g)
        assert materialized == pytest.approx(produced, rel=1e-6)

    def test_ring_increments_sum_to_ring_allocation(self, params, zones,
                                                    small_script):
        state, cycles = _state_after(params, zones, small_script)
        for alloc, incs in cycles:
            total = sum(cls.multiplicity * float(inc.sum())
                        for cls, inc in zip(state.classes, incs))
            assert total == pytest.approx(alloc.q_r, rel=1e-9, abs=1e-15)


class TestAxisClassStorage:
    def _bearer(self):
        """One PA-2 class with a 4-metamer and a 2-metamer growth unit, and
        an empty PA-4 class to link to."""
        state = TreeState(cycle=2)
        cls = state.add_class(2, 1, multiplicity=2)
        grow_unit(state, cls, 1, [(0, 1), (4, 3)], 0.5, 2.0, 0.4, 10.0)
        grow_unit(state, cls, 2, [(0, 1), (4, 1)], 0.3, 1.0, 0.2, 5.0)
        state.add_class(4, 2, multiplicity=12)
        return state, cls

    def test_clone_keeps_its_ring_increments(self):
        import copy
        state = TreeState(cycle=1)
        cls = state.add_class(2, 1, multiplicity=1)
        cls.append_gu(1, 2, 0.5, 2.0, 0.4, 10.0)
        clone = copy.deepcopy(state).classes[0]
        clone.record_rings(np.array([1.0, 1.0]))
        clone.append_gu(2, 1, 0.5, 2.0, 0.4, 10.0)
        assert clone.cum_ring.tolist() == [[1.0, 1.0, 0.0]]
        assert cls.cum_ring.tolist() == [[0.0, 0.0]]

    def test_metamer_bears_one_lateral(self):
        state, _ = self._bearer()
        arena = state.arena
        arena.grow([], ([0], [2], [1]))
        for bearers, rows in (([0], [2]), ([0, 0], [3, 3])):
            with pytest.raises(SimulationError, match="already bears"):
                arena.grow([], (bearers, rows, [1] * len(rows)))
        for row in (-1, 6):
            with pytest.raises(SimulationError, match="no metamer row"):
                arena.grow([], ([0], [row], [1]))

    def test_laterals_listed_base_to_apex(self):
        state, _ = self._bearer()
        state.arena.grow([], ([0] * 4, [5, 3, 1, 2], [1] * 4))
        trunk = state.add_class(1, 1, multiplicity=1)
        trunk.append_gu(1, 2, 0.1, 0.5, 0.1, 1.0)   # trunk units are unzoned
        dumped = [cls["growth_units"]
                  for cls in state.topology_dump()["axis_classes"]]
        assert [[(b["metamer_rank"], b["per_instance_count"])
                 for b in gu["borne_axes"]] for gu in dumped[0]] == \
            [[(2, 1), (3, 1), (4, 1)], [(2, 1)]]
        assert [gu["zone_counts"] for gu in dumped[0] + dumped[2]] == \
            [{"0": 1, "4": 3}, {"0": 1, "4": 1}, None]
        sig = state.structure_signature()
        assert [gu[4] for gu in sig[0][3]] == [
            ((2, (4, 2), 1), (3, (4, 2), 1), (4, (4, 2), 1)),
            ((2, (4, 2), 1),)]
        assert [gu[3] for gu in sig[0][3] + sig[2][3]] == \
            [((0, 1), (4, 3)), ((0, 1), (4, 1)), None]

    def test_grow_merges_blocks_by_class(self):
        # one grow whose blocks name classes out of index order, one of
        # them added after the others, as expansion does when a scripted PA
        # is created before a zone PA
        state = TreeState(cycle=2)
        first = state.add_class(2, 1, multiplicity=1)
        second = state.add_class(3, 1, multiplicity=1)
        first.append_gu(1, 2, 1.0, 1.0, 1.0, 1.0)
        second.append_gu(1, 1, 2.0, 2.0, 2.0, 2.0)
        first.record_rings(np.array([1.0, 2.0]))
        second.record_rings(np.array([5.0]))
        late = state.add_class(4, 2, multiplicity=1)
        state.add_class(5, 2, multiplicity=1)   # grows nothing
        arena = state.arena
        arena.grow([([late.index], 2, 3, (3.0,) * 4),
                    ([second.index, first.index], 2, 1, (4.0,) * 4)],
                   ([2, 0, 2], [2, 2, 0], [3, 3, 3]))
        assert arena.units[:SIZE + 2].tolist() == [
            [0, 0, 1, 1, 2], [1, 2, 1, 2, 2], [2, 1, 1, 1, 3],
            [1.0, 4.0, 2.0, 4.0, 3.0]]
        assert arena.cum_ring.tolist() == [[1.0, 2.0, 0.0, 5.0, 0.0, 0.0,
                                            0.0, 0.0]]
        assert arena.edges.T.tolist() == [[0, 2, 3], [2, 2, 3], [2, 0, 3]]
        assert (arena.unit_bounds, arena.bounds, arena.edge_bounds) == (
            [0, 2, 4, 5, 5], [0, 3, 5, 8, 8], [0, 1, 1, 3, 3])
        assert [cls.n_metamers for cls in state.classes] == [3, 2, 3, 0]
        assert first.internode_mass.tolist() == [[1.0, 1.0, 4.0]]
        # a grow that raises changes nothing
        tables = (arena.units, arena.cum_ring, arena.edges)
        with pytest.raises(SimulationError, match="no metamer row"):
            arena.grow([([3], 3, 1, (1.0,) * 4)], ([0], [9], [3]))
        assert all(now is table for now, table in zip(
            (arena.units, arena.cum_ring, arena.edges), tables))
        assert (arena.unit_bounds, arena.bounds, arena.edge_bounds) == (
            [0, 2, 4, 5, 5], [0, 3, 5, 8, 8], [0, 1, 1, 3, 3])

    def test_each_offset_list_is_its_own(self):
        state = TreeState()
        state.add_class(1, 1, multiplicity=1)
        arena = state.arena
        assert len({id(arena.unit_bounds), id(arena.bounds),
                    id(arena.edge_bounds)}) == 3
        assert arena.unit_bounds == arena.bounds == arena.edge_bounds == [0, 0]


def _same(first, second) -> bool:
    """Whether two nested reads (tuples, lists, dicts, arrays, scalars)
    hold equal values, array for array."""
    if isinstance(first, np.ndarray):
        return np.array_equal(first, second)
    if isinstance(first, dict):
        return first.keys() == second.keys() and all(
            _same(first[k], second[k]) for k in first)
    if isinstance(first, (list, tuple)):
        return len(first) == len(second) and all(
            map(_same, first, second))
    return first == second


class TestPureReads:
    def test_reads_leave_the_arena_as_it_is(self, params, zones,
                                            small_script):
        state, _ = _state_after(params, zones, small_script)
        arena = state.arena
        tables = (arena.units, arena.cum_ring, arena.edges)
        values = [table.copy() for table in tables]
        offsets = (list(arena.unit_bounds), list(arena.bounds),
                   list(arena.edge_bounds))

        def reads():
            return [state.foliage_above(), state.total_blade_area_cm2(),
                    state.ring_partition_arrays([params.p_rg]),
                    *state.wood_totals(), state.subtree_leaf_mass_totals(),
                    state.total_leaf_mass_ever(),
                    [state.growth_units(cls.index) for cls in state.classes],
                    state.topology_dump(), state.structure_signature(),
                    [(cls.internode_mass, cls.length, cls.cum_ring)
                     for cls in state.classes]]

        first, second = reads(), reads()
        assert all(now is table for now, table in zip(
            (arena.units, arena.cum_ring, arena.edges), tables))
        assert all(map(np.array_equal, tables, values))
        assert (arena.unit_bounds, arena.bounds, arena.edge_bounds) == offsets
        assert _same(first, second)

    def test_planning_leaves_the_state_as_it_is(self, params, zones):
        # a plan that leaves distribution slack (one Z^24 position on 3
        # instances) keeps it in the plan: the state is only read
        state = TreeState(cycle=2)
        cls = state.add_class(2, 2, multiplicity=3)
        grow_unit(state, cls, 2, [(0, 1), (4, 1)], 0.2, 1.0, 0.3, 40.0)
        before = copy.deepcopy(state)
        plan = organogenesis_step(state, params, zones, ratio=1.0,
                                  trunk_entry=None)
        assert [slack for *_, slack in plan.zone_groups] == [1]
        assert _same(_contents(state), _contents(before))


def _contents(state: TreeState) -> list:
    """Everything ``state`` holds, as nested values :func:`_same` reads:
    its fields, its classes' and its arena's."""
    arena = state.arena
    return [{k: v for k, v in vars(state).items()
             if k not in ("arena", "classes")},
            [(c.index, c.pa, c.birth_cycle, c.multiplicity)
             for c in state.classes],
            [getattr(arena, slot) for slot in type(arena).__slots__]]


class TestDeterminism:
    def test_state_is_duplicable(self, params, zones, small_script):
        # a copied mid-run state continues identically to the original
        import copy
        ds = script_only_dataset(small_script)
        state, _ = _state_after(params, zones, small_script[:4])
        clone = copy.deepcopy(state)
        allocs = [engine.step(st, [params], zones, ds, 0, ds.tree_age)
                  for st in (state, clone)]
        assert allocs[0] == allocs[1]
        assert state.structure_signature() == clone.structure_signature()

    def test_bit_identical_reruns(self, params, zones, small_script):
        out1 = run(params, zones, small_script)
        out2 = run(params, zones, small_script)
        assert [a.q for a in out1.allocations] == [a.q for a in out2.allocations]
        assert out1.structure_signature == out2.structure_signature
        assert [(r.gu_index, r.tree_age, r.diameter_cm)
                for r in out1.ring_matrix] == \
               [(r.gu_index, r.tree_age, r.diameter_cm)
                for r in out2.ring_matrix]


class TestFailureCycle:
    SCRIPT = tuple(TrunkScriptEntry(i, 4) for i in range(1, 6))

    def _fail_at(self, monkeypatch, k, exc):
        plan = engine.organogenesis_step

        def failing(state, *args):
            if state.cycle == k:
                raise exc
            return plan(state, *args)

        monkeypatch.setattr(engine, "organogenesis_step", failing)

    @pytest.mark.parametrize("k, exc, message", [
        (3, SimulationError("injected"), "cycle 3: injected"),
        (2, KeyError(7), "cycle 2: 7"),
    ])
    def test_failure_carries_its_cycle_once(self, params, zones, monkeypatch,
                                            k, exc, message):
        self._fail_at(monkeypatch, k, exc)
        with pytest.raises(SimulationError) as err:
            run(params, zones, self.SCRIPT)
        assert err.value.cycle == k
        assert str(err.value) == message

    def test_located_failure_passes_unchanged(self, params, zones,
                                              monkeypatch):
        located = SimulationError("cycle 4: located", cycle=4)
        self._fail_at(monkeypatch, 4, located)
        with pytest.raises(SimulationError) as err:
            run(params, zones, self.SCRIPT)
        assert err.value is located
        assert str(err.value).count("cycle ") == 1

    def test_an_overflowing_seed_ratio_fails_the_run(self, params, zones):
        # a subnormal trunk sink strength passes validation, but the seed
        # ratio q0 / d_s overflows before cycle 1
        tiny = params.with_values(p_s=(1e-320,) + params.p_s[1:])
        with pytest.raises(SimulationError, match="non-finite value inf"):
            run(tiny, zones, self.SCRIPT)


class TestPerformance:
    def test_full_tree_under_one_second(self, params, zones):
        script = tree2_script()
        start = time.perf_counter()
        run(params, zones, script, tree_index=1)
        assert time.perf_counter() - start < 1.0


class TestCollector:
    def test_full_run_collects_about_as_often_as_a_profile_run(self, params,
                                                               zones):
        # the topology and the signature are thousands of acyclic
        # containers, built on first read with the cyclic collector paused;
        # each run starts from an emptied heap, so neither counts a
        # collection of garbage that earlier tests left
        starts = []

        def count(phase, _info):
            starts[-1] += phase == "start"

        gc.callbacks.append(count)
        try:
            for full in (False, True):
                starts.append(0)
                gc.collect()
                starts[-1] = 0   # the callback saw that collection too
                out = run(params, zones, tree2_script(), tree_index=1,
                          with_topology=full, with_signature=full)
                assert bool(out.topology) == bool(out.structure_signature) \
                    == full
        finally:
            gc.callbacks.remove(count)
        profile, full = starts
        assert full <= profile + 2
        assert gc.isenabled()

    def test_profile_only_outputs_keep_no_tree(self, params, zones,
                                              small_dataset, monkeypatch):
        # with the collector off, a tree no output holds is freed as the
        # call returns; a full run's output holds its tree
        trees = []

        def recorded(*args):
            state = start_state(*args)
            trees.append(weakref.ref(state))
            return state

        monkeypatch.setattr(engine, "start_state", recorded)
        other = params.with_values(sp0=0.9 * params.sp0)
        gc.disable()
        try:
            outs = [engine.simulate(params, zones, small_dataset,
                                    with_topology=False,
                                    with_signature=False),
                    *engine.simulate_batch([params, other], zones,
                                           small_dataset)]
            assert len(trees) == 2   # simulate, then the batch's one run
            assert [t() for t in trees] == [None, None]
            assert [(out.topology, out.structure_signature)
                    for out in outs] == [({}, ())] * 3
            full = engine.simulate(params, zones, small_dataset)
            assert trees[-1]() is full.topology_tree is full.signature_tree
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_full_run_leaves_the_collector_as_it_was(self, params, zones,
                                                       small_script,
                                                       enabled):
        (gc.enable if enabled else gc.disable)()
        try:
            run(params, zones, small_script)
            assert gc.isenabled() == enabled
        finally:
            gc.enable()


class TestExtractTargets:
    def test_alignment_roundtrip(self, params, zones, small_script):
        out = run(params, zones, small_script)
        dataset = dataset_from_output(out, small_script)
        sim, obs, labels = extract_targets(out, dataset)
        assert np.allclose(sim, obs)
        assert len(labels) == len(sim)
        assert set(labels) <= {"trunk_mass", "trunk_diameter", "trunk_length",
                               "ring_diameter", "branch_wood", "branch_leaf"}

    def test_branch_averaging(self, params, zones):
        script = (TrunkScriptEntry(1, 4), TrunkScriptEntry(2, 6, ((3, 2),)),
                  TrunkScriptEntry(3, 5), TrunkScriptEntry(4, 5))
        out = run(params, zones, script)
        rows = [b for b in out.branch_compartments if b.gu_index == 2]
        assert len(rows) == 1
        assert rows[0].count == 2

    def test_missing_rows_raise_alignment_error(self, params, zones,
                                                small_script):
        out = run(params, zones, small_script)
        dataset = dataset_from_output(out, small_script)
        from treesink.core import (BranchObservation, RingObservation,
                                   TrunkObservation)
        # unserved rows beside served ones: keys outside the tables (GU 99
        # and GU 0 of the trunk, age 99, PA 7) and cells inside them that
        # hold nothing: GU 3's ring before its birth, and GU 1's PA-2
        # branch cell, where no branch grows
        assert out.profiles.counts.shape[1] >= 2
        assert out.profiles.counts[0, 1] == 0
        trunk, rings, branches = (dataset.trunk_profile, dataset.ring_matrix,
                                  dataset.branch_compartments)
        bad = replace(
            dataset,
            trunk_profile=trunk[:1] + (TrunkObservation(99, 1.0, 1.0, 1.0),)
            + trunk[1:] + (TrunkObservation(0, 1.0, 1.0, 1.0),),
            ring_matrix=(RingObservation(gu_index=1, tree_age=99,
                                         diameter_cm=1.0),) + rings
            + (RingObservation(gu_index=3, tree_age=2, diameter_cm=1.0),),
            branch_compartments=branches[:1]
            + (BranchObservation(2, 7, 1.0, 1.0),) + branches[1:]
            + (BranchObservation(1, 2, 1.0, 1.0),))
        with pytest.raises(AlignmentError, match=(
                r"^simulation cannot serve target rows: trunk GU 99, "
                r"trunk GU 0, ring GU 1 age 99, ring GU 3 age 2, "
                r"branch GU 2 PA 7, branch GU 1 PA 2$")):
            extract_targets(out, bad)
        # a run too short for the dataset says so before any row
        with pytest.raises(AlignmentError, match=(
                r"^simulation ran 5 cycles, dataset needs 6$")):
            extract_targets(run(params, zones, small_script, cycles=5), bad)
