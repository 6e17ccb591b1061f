import math

import numpy as np
import pytest
from scipy.optimize import least_squares

from treesink import calibration
from treesink.calibration import (AnnealSchedule, FitSpec, FreeParameter,
                                  Scorer, apply_candidate, compute_intervals,
                                  default_weights, fit_continuous,
                                  fit_topology, objective,
                                  weighted_residuals)
from treesink.core import TreesinkError, TrunkScriptEntry
from treesink.engine import simulate, simulate_batch
from treesink.fileio import parse_target_file, read_parameter_file
from treesink.synthetic import (dataset_from_output,
                                generate_synthetic_target,
                                script_only_dataset, tree1_script)
from treesink.topology import plan_holds

from conftest import fixture_path


@pytest.fixture
def small_target(params, zones, small_script):
    out = simulate(params, zones, script_only_dataset(small_script))
    return dataset_from_output(out, small_script)


class TestApplyCandidate:
    def test_plain_and_indexed_names(self, params, zones):
        p2, z2 = apply_candidate(params, zones, {
            "sp0": 0.02, "p_rg_3": 0.07, "v_2": 900.0, "m2_2_4": 1.3,
            "a2_3_4": 0.5})
        assert p2.sp0 == 0.02
        assert p2.p_rg == (1.0, 0.1, 0.07, 0.01)
        assert p2.v_env == (560.0, 900.0)
        assert z2.get(2, 4).m2 == 1.3
        assert z2.get(3, 4).a2 == 0.5
        # untouched values survive
        assert p2.alpha == params.alpha
        assert z2.get(2, 0).m2 == zones.get(2, 0).m2

    def test_unknown_name_rejected(self, params, zones):
        with pytest.raises(ValueError):
            apply_candidate(params, zones, {"nonsense": 1.0})

    def test_unknown_zone_rejected(self, params, zones):
        with pytest.raises(ValueError):
            apply_candidate(params, zones, {"m2_3_2": 1.0})

    @pytest.mark.parametrize("name", ["p_rg_0", "p_rg_5", "v_0", "v_3",
                                      "p_s_x", "m2_2", "a2_2_0", "a2_3_0"])
    def test_unusable_name_rejected(self, params, zones, name):
        # index outside 1..length, malformed or absent zone, a2 of an
        # unbranched zone
        with pytest.raises(ValueError):
            apply_candidate(params, zones, {name: 0.5})


class TestObjective:
    def test_zero_at_truth(self, params, zones, small_target):
        weights = default_weights([small_target])
        assert objective({}, params, zones, [small_target], weights) == 0.0

    def test_single_datum_definition(self):
        # one synthetic trunk observation, weight 2, simulated - observed = 3
        # checked through the quadratic form directly
        w = {"trunk_mass": 2.0}
        sim, obs = 7.0, 4.0
        assert w["trunk_mass"] * (sim - obs) ** 2 == pytest.approx(18.0)

    def test_failure_maps_to_infinity(self, params, zones, small_target):
        weights = default_weights([small_target])
        # an alpha of exactly 1.0 is legal; 0 triggers validation failure
        value = objective({"alpha": 0.0}, params, zones, [small_target],
                          weights)
        assert math.isinf(value)

    def test_invariant_under_tree_reordering(self, params, zones,
                                             small_target, small_script):
        out2 = simulate(params, zones, script_only_dataset(tree1_script()),
                        tree_index=0)
        target2 = dataset_from_output(out2, tree1_script())
        weights = default_weights([small_target, target2])
        values = {"sp0": 0.016}
        # reordering trees requires matching v indices; keep v symmetric
        p_sym = params.with_values(v_env=(params.v_env[0], params.v_env[0]))
        a = objective(values, p_sym, zones, [small_target, target2], weights)
        b = objective(values, p_sym, zones, [target2, small_target], weights)
        assert a == pytest.approx(b, rel=1e-12)

    def test_invariant_under_row_reordering(self, params, zones,
                                            small_target):
        from dataclasses import replace
        weights = default_weights([small_target])
        values = {"sp0": 0.017}
        shuffled = replace(small_target,
                           ring_matrix=tuple(reversed(small_target.ring_matrix)),
                           branch_compartments=tuple(
                               reversed(small_target.branch_compartments)))
        a = objective(values, params, zones, [small_target], weights)
        b = objective(values, params, zones, [shuffled], weights)
        assert a == pytest.approx(b, rel=1e-12)

    def test_weights_scale_linearly(self, params, zones, small_target):
        weights = default_weights([small_target])
        values = {"sp0": 0.018}
        base = objective(values, params, zones, [small_target], weights)
        scaled = objective(values, params, zones, [small_target],
                           {k: 7.0 * v for k, v in weights.items()})
        assert scaled == pytest.approx(7.0 * base, rel=1e-12)
        assert base > 0


class TestFitContinuous:
    def test_fixed_point_at_truth(self, params, zones, small_target):
        weights = default_weights([small_target])
        free = [FreeParameter("v_1", 150.0, 2500.0, params.v_env[0])]
        est, obj, _ = fit_continuous(
            free, {}, Scorer(params, zones, [small_target], weights))
        assert est["v_1"] == pytest.approx(params.v_env[0], rel=1e-6)
        assert obj <= 1e-12

    def test_single_parameter_recovery(self, params, zones, small_target):
        weights = default_weights([small_target])
        free = [FreeParameter("v_1", 150.0, 2500.0, 800.0)]
        est, obj, _ = fit_continuous(
            free, {}, Scorer(params, zones, [small_target], weights))
        assert est["v_1"] == pytest.approx(560.0, rel=0.01)

    def test_bounds_exclude_truth(self, params, zones, small_target):
        weights = default_weights([small_target])
        free = [FreeParameter("v_1", 700.0, 2500.0, 1200.0)]
        est, _, _ = fit_continuous(
            free, {}, Scorer(params, zones, [small_target], weights))
        assert est["v_1"] == pytest.approx(700.0, abs=1.0)

    def test_failure_residuals_are_pure(self, params, zones, small_target,
                                        monkeypatch):
        # the same failing x must give the same residual vector every time
        captured = []

        def spy(fun, x0, **kwargs):
            captured.append(fun)
            return least_squares(fun, x0, **kwargs)

        monkeypatch.setattr(calibration, "least_squares", spy)
        weights = default_weights([small_target])
        free = [FreeParameter("alpha", 0.0, 0.95, params.alpha)]
        fit_continuous(free, {}, Scorer(params, zones, [small_target],
                                        weights), max_nfev=3)
        first = captured[0](np.array([0.0]))
        assert np.all(first >= 1e12)
        assert np.array_equal(captured[0](np.array([0.0])), first)


class TestFitTopology:
    def _spec(self, topo=(), seed=3, **kw):
        return FitSpec(
            continuous=[FreeParameter("v_1", 150.0, 2500.0, 700.0)],
            topological=list(topo),
            schedule=AnnealSchedule(t0=0.5, cooling=0.7, steps_per_t=4,
                                    t_stop_ratio=0.1, step_scale=0.3),
            seed=seed, **kw)

    def test_all_pinned_reduces_to_continuous(self, params, zones,
                                              small_target):
        result = fit_topology(self._spec(), params, zones, [small_target])
        assert result.continuous["v_1"] == pytest.approx(560.0, rel=0.01)
        assert result.intervals == {}
        assert result.objective <= 1e-6

    def test_same_seed_same_result(self, params, zones, small_target):
        topo = (FreeParameter("m2_2_4", 0.0, 3.0, 0.9),)
        r1 = fit_topology(self._spec(topo), params, zones, [small_target])
        r2 = fit_topology(self._spec(topo), params, zones, [small_target])
        assert r1.continuous == r2.continuous
        assert r1.topology == r2.topology
        assert r1.intervals == r2.intervals
        assert r1.objective == r2.objective
        assert r1.trace == r2.trace

    def test_different_seed_can_differ(self, params, zones, small_target):
        topo = (FreeParameter("m2_2_4", 0.0, 3.0, 0.9),)
        r1 = fit_topology(self._spec(topo, seed=3), params, zones,
                          [small_target])
        r2 = fit_topology(self._spec(topo, seed=4), params, zones,
                          [small_target])
        assert r1.objective <= 1e-6 and r2.objective <= 1e-6

    def test_nested_and_fast_modes_agree_on_roundtrip(self, params, zones,
                                                      small_target):
        # both nesting policies must land in the truth basin on exact data
        topo = (FreeParameter("m2_2_4", 0.0, 3.0, 0.8),)
        results = {}
        for nested in (False, True):
            spec = FitSpec(
                continuous=[FreeParameter("v_1", 150.0, 2500.0, 700.0)],
                topological=list(topo),
                schedule=AnnealSchedule(t0=0.5, cooling=0.7, steps_per_t=4,
                                        t_stop_ratio=0.1, step_scale=0.3),
                seed=3, nested_refit=nested, max_nfev=40,
                stop_objective=1e-15, polish_rounds=2)
            results[nested] = fit_topology(spec, params, zones,
                                           [small_target])
        for result in results.values():
            assert result.objective <= 1e-10
            assert result.continuous["v_1"] == pytest.approx(560.0, rel=0.01)
        lo_fast, hi_fast = results[False].intervals["m2_2_4"]
        lo_nest, hi_nest = results[True].intervals["m2_2_4"]
        # identical recovered structure implies identical intervals
        assert lo_fast == pytest.approx(lo_nest, abs=1e-3)
        assert (hi_fast is None) == (hi_nest is None)

    def test_best_never_worse_than_trace(self, params, zones, small_target):
        topo = (FreeParameter("m2_2_4", 0.0, 3.0, 0.9),
                FreeParameter("a2_2_4", 0.0, 1.5, 0.4))
        result = fit_topology(self._spec(topo), params, zones, [small_target])
        assert result.objective <= min(result.trace) + 1e-15

    def test_r_squared_reported_per_class(self, params, zones, small_target):
        result = fit_topology(self._spec(), params, zones, [small_target])
        assert set(result.r_squared) <= {
            "trunk_mass", "trunk_diameter", "trunk_length", "ring_diameter",
            "branch_wood", "branch_leaf"}
        for value in result.r_squared.values():
            assert value == pytest.approx(1.0, abs=1e-6)

    def test_weight_override_keeps_other_defaults(self, params, zones,
                                                  small_target):
        # restating one class's default weight changes nothing
        weights = {"trunk_mass": default_weights([small_target])["trunk_mass"]}
        topo = (FreeParameter("m2_2_4", 0.0, 3.0, 0.9),)
        plain, restated = (
            fit_topology(self._spec(topo, weights=w, max_nfev=3), params,
                         zones, [small_target])
            for w in (None, weights))
        assert restated == plain

    def test_bundled_fit_runs_each_tree_once_per_evaluation(self,
                                                            monkeypatch):
        # one run (a column of a batched run) per tree for every
        # evaluation, plus one at the fitted point for the intervals and
        # the predicted-vs-observed rows
        params, zones, spec = read_parameter_file(
            fixture_path("species.params"))
        targets = [parse_target_file(fixture_path(f"tree{i}.target.csv"))
                   for i in (1, 2)]
        runs = []

        def counted(*args, **kwargs):
            runs.append(kwargs["tree_index"])
            return simulate(*args, **kwargs)

        def counted_batch(columns, *args, **kwargs):
            runs.extend([kwargs["tree_index"]] * len(columns))
            batches.append(len(columns))
            return simulate_batch(columns, *args, **kwargs)

        batches = []
        monkeypatch.setattr(calibration, "simulate", counted)
        monkeypatch.setattr(calibration, "simulate_batch", counted_batch)
        result = fit_topology(spec, params, zones, targets)
        assert len(runs) == len(targets) * (result.evaluations + 1) == 24
        # the first residual runs each tree alone, the Jacobian as one
        # batched run per tree over every free continuous parameter
        assert batches == ([1] * len(targets)
                           + [len(spec.continuous)] * len(targets))


def _count_runs(monkeypatch) -> list[int]:
    """The tree index of every run the calibration module starts from now
    on, one per column."""
    runs = []

    def counted(columns, *args, **kwargs):
        runs.extend([kwargs["tree_index"]] * len(columns))
        return simulate_batch(columns, *args, **kwargs)

    monkeypatch.setattr(calibration, "simulate_batch", counted)
    return runs


#: a point of demos/04's chain on its 8-cycle tree
_DEMO04_CASE = {"v_1": 558.8514117979618, "gamma": 2.852845409111614,
                "m2_2_0": 0.5356564331752933}


def _demo04_target(params, zones):
    """demos/04's 8-cycle synthetic tree."""
    script = tuple(
        TrunkScriptEntry(g, 4 if g <= 2 else 5,
                         ((3, 1),) if g in (3, 5, 7) else
                         ((2, 1),) if g == 6 else ())
        for g in range(1, 9))
    return generate_synthetic_target(params, zones, script, 0)


class TestReplay:
    def test_only_the_pending_plan_departs(self, params, zones, monkeypatch):
        # demos/04's 8-cycle tree: at a2_2_4 = 0.1 every grown plan of the
        # run at 0.1307 holds, but its pending plan's axis total, and so
        # cycle 8's shoot demand, changes; a score there must run
        target = _demo04_target(params, zones)
        weights = default_weights([target])
        case = _DEMO04_CASE
        recorded = {**case, "a2_2_4": 0.13068775418752696}
        probe = {**case, "a2_2_4": 0.1}
        run = simulate(*apply_candidate(params, zones, recorded), target,
                       with_topology=False, with_signature=False)
        cand, cand_zones = apply_candidate(params, zones, probe)
        assert [plan_holds(plan, cand_zones, plan.ratio_used, cand)
                for plan in run.decisions] == [True] * 8 + [False]
        fresh = simulate(cand, cand_zones, target, with_topology=False,
                         with_signature=False)
        assert (run.allocations[-1].d_s, fresh.allocations[-1].d_s) \
            == (42.0, 41.0)

        score = Scorer(params, zones, [target], weights).objective
        runs = _count_runs(monkeypatch)
        assert score(recorded) == 0.2629507119537986 and runs == [0]
        assert score(recorded) == 0.2629507119537986 and runs == [0]
        assert score(probe) == 0.2667625871819186 and runs == [0, 0]
        assert score(probe) == objective(probe, params, zones, [target],
                                         weights)
        # a run under other parameters is never replayed
        moved = {**recorded, "v_1": recorded["v_1"] * 1.001}
        assert score(moved) == objective(moved, params, zones, [target],
                                         weights) != 0.2629507119537986

    def test_a_failing_run_is_not_kept(self, params, zones, monkeypatch):
        # v_1 = 1e14 passes the run checks, but production diverges in the
        # tree's third cycle; batched with a valid candidate, each gets
        # what it gets alone
        target = _demo04_target(params, zones)
        weights = default_weights([target])
        valid, failing = _DEMO04_CASE, {**_DEMO04_CASE, "v_1": 1e14}
        serial = weighted_residuals(valid, params, zones, [target], weights)
        with pytest.raises(TreesinkError) as raised:
            simulate(*apply_candidate(params, zones, failing), target,
                     with_topology=False, with_signature=False)
        assert str(raised.value).startswith("cycle 3: production diverged")

        scorer = Scorer(params, zones, [target], weights)
        runs = _count_runs(monkeypatch)
        residuals, error = scorer.residuals([valid, failing])
        assert runs == [0, 0]
        assert residuals.dtype == serial.dtype
        assert residuals.tobytes() == serial.tobytes()
        assert type(error) is type(raised.value)
        assert str(error) == str(raised.value)
        # the failing run was not kept, so it runs again; the valid one was
        assert scorer.objective(failing) == math.inf and runs == [0, 0, 0]
        assert scorer.objective(valid) == float(serial @ serial)
        assert runs == [0, 0, 0]

    def test_a_replay_checks_the_request_first(self, params, zones):
        # under the kept run's parameters, an inert zone's infinite a2
        # keeps every plan's outcome and an infinite m2 makes plan_holds
        # raise OverflowError: the run checks reject both first
        target = _demo04_target(params, zones)
        scorer = Scorer(params, zones, [target], default_weights([target]))
        assert math.isfinite(scorer.objective(_DEMO04_CASE))
        for name in ("a2_2_2", "m2_2_4"):
            [error] = scorer.residuals([{**_DEMO04_CASE, name: math.inf}])
            kind, bearer, axillary = name.split("_")
            assert str(error) == (f"zone Z^{bearer}{axillary}: {kind} must "
                                  f"be finite: inf")

    def test_a_refit_starts_from_the_kept_run(self, params, zones,
                                              monkeypatch):
        # a refit warm-started at a point the search has just scored: its
        # first residual replays that score's run, its Jacobian runs
        target = _demo04_target(params, zones)
        scorer = Scorer(params, zones, [target], default_weights([target]))
        topo = {"m2_2_0": _DEMO04_CASE["m2_2_0"],
                "a2_2_4": 0.13068775418752696}
        cont = {"v_1": _DEMO04_CASE["v_1"], "gamma": _DEMO04_CASE["gamma"]}
        free = [FreeParameter("v_1", 150.0, 2500.0, 700.0),
                FreeParameter("gamma", 0.5, 5.0, 2.0)]
        scorer.objective({**topo, **cont})
        runs = _count_runs(monkeypatch)
        after = []
        residuals = Scorer.residuals

        def spy(self, candidates):
            results = residuals(self, candidates)
            after.append(len(runs))
            return results

        monkeypatch.setattr(Scorer, "residuals", spy)
        fit_continuous(free, topo, scorer, max_nfev=1,
                       x0=np.array([cont[p.name] for p in free]))
        assert after[:2] == [0, len(free)]

    def test_replays_equal_fresh_objectives(self, monkeypatch):
        # the bundled fit point on both fixture trees: probes inside each
        # zone coefficient's interval, at its ends and one float past each
        # end inside the bounds score bit for bit as a fresh objective
        params, zones, spec = read_parameter_file(
            fixture_path("species.params"))
        targets = [parse_target_file(fixture_path(f"tree{i}.target.csv"))
                   for i in (1, 2)]
        weights = default_weights(targets)
        best = {p.name: p.init for p in spec.continuous + spec.topological}
        intervals = compute_intervals(spec, best, params, zones, targets)
        score = Scorer(params, zones, targets, weights).objective
        runs = _count_runs(monkeypatch)
        assert score(best) == 0.0 and runs == [0, 1]
        probes = replayed = 0
        for p in spec.topological:
            lo, hi = intervals[p.name]
            values = [0.5 * (lo + (p.upper if hi is None else hi))]
            for end, bound, outward in ((lo, p.lower, -math.inf),
                                        (hi, p.upper, math.inf)):
                if end not in (None, bound):
                    values += [end, math.nextafter(end, outward)]
            for x in values:
                candidate = {**best, p.name: x}
                before = len(runs)
                replay = score(candidate)
                probes += 1
                replayed += len(runs) == before
                assert replay == objective(candidate, params, zones, targets,
                                           weights), (p.name, x)
        assert probes >= 30 and 10 <= replayed < probes


class TestIntervals:
    def test_interval_matches_sweep_oracle(self, params, zones, small_target):
        spec = FitSpec(
            continuous=[],
            topological=[FreeParameter("m2_2_0", 0.0, 3.0,
                                       zones.get(2, 0).m2)],
            seed=0)
        best = {"m2_2_0": zones.get(2, 0).m2}
        intervals = compute_intervals(spec, best, params, zones,
                                      [small_target])
        lo, hi = intervals["m2_2_0"]

        def signature(value):
            p2, z2 = apply_candidate(params, zones, {"m2_2_0": value})
            return simulate(p2, z2, small_target,
                            with_topology=False).structure_signature

        ref = signature(best["m2_2_0"])
        sweep = np.arange(0.0, 3.0, 1e-3)
        same = [v for v in sweep if signature(v) == ref]
        assert lo == pytest.approx(min(same), abs=2e-3)
        if hi is not None:
            assert hi == pytest.approx(max(same), abs=2e-3)
        else:
            assert max(same) == pytest.approx(sweep[-1], abs=2e-3)

    def test_inert_coefficient_spans_bounds(self, params, zones,
                                            small_target):
        # the reiteration zone never activates on this small tree, so its
        # axis coefficient has no reachable effect
        spec = FitSpec(
            continuous=[],
            topological=[FreeParameter("a2_2_2", 0.0, 1.5, 0.05)],
            seed=0)
        intervals = compute_intervals(spec, {"a2_2_2": 0.05}, params, zones,
                                      [small_target])
        assert intervals["a2_2_2"] == (0.0, 1.5)

    def test_capped_zone_unbounded_above(self, params, zones, small_target):
        # m2 of the short-shoot zone saturates its cap at high values
        spec = FitSpec(
            continuous=[],
            topological=[FreeParameter("m2_2_4", 0.0, 3.0, 2.9)],
            seed=0)
        intervals = compute_intervals(spec, {"m2_2_4": 2.9}, params, zones,
                                      [small_target])
        lo, hi = intervals["m2_2_4"]
        assert hi is None
        assert lo is not None and lo > 0.0

    def test_interval_ends_are_exact(self, params, zones, small_target):
        # every zone coefficient, bounds reaching below zero: each end
        # strictly inside the bounds keeps the architecture, and the next
        # float outward changes it
        free = []
        for rule in zones.rules:
            suffix = f"{rule.bearer_pa}_{rule.axillary_pa}"
            free.append(FreeParameter(f"m2_{suffix}", -3.0, 3.0, rule.m2))
            if rule.branching:
                free.append(FreeParameter(f"a2_{suffix}", -1.5, 1.5,
                                          rule.a2))
        best = {p.name: p.init for p in free}
        spec = FitSpec(continuous=[], topological=free, seed=0)
        intervals = compute_intervals(spec, best, params, zones,
                                      [small_target])

        def signature(name, value):
            p2, z2 = apply_candidate(params, zones, {name: value})
            try:
                return simulate(p2, z2, small_target,
                                with_topology=False).structure_signature
            except TreesinkError:
                return None

        ref = signature("m2_2_0", best["m2_2_0"])
        assert intervals["m2_2_4"][1] is None        # capped zone
        assert -3.0 < intervals["m2_2_0"][0] < 0.0    # negative end
        ends = 0
        for p in free:
            lo, hi = intervals[p.name]
            assert lo <= best[p.name] and (hi is None or best[p.name] <= hi)
            for end, bound, outward in ((lo, p.lower, -math.inf),
                                        (hi, p.upper, math.inf)):
                if end is None or end == bound:
                    continue
                ends += 1
                assert signature(p.name, end) == ref, (p.name, end)
                assert signature(p.name, math.nextafter(end, outward)) != ref
        assert ends >= 10
