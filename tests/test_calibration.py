import math

import numpy as np
import pytest
from scipy.optimize import least_squares
from scipy.optimize._numdiff import approx_derivative

from treesink import calibration, engine
from treesink.calibration import (AnnealSchedule, FitSpec, FreeParameter,
                                  PredictedObserved, Scorer, apply_candidate,
                                  compute_intervals, default_weights,
                                  fit_continuous, fit_topology, objective,
                                  weighted_residuals)
from treesink.core import TreesinkError, TrunkScriptEntry
from treesink.engine import extract_targets, simulate, simulate_batch
from treesink.fileio import parse_target_file, read_parameter_file
from treesink.synthetic import (dataset_from_output,
                                generate_synthetic_target,
                                script_only_dataset, tree1_script)
from treesink.topology import gu_zone_layout, plan_holds

from conftest import check_interval_ends, fixture_path


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


def _cheap(x):
    return np.array([np.sin(x[0]) * x[1], x[0] ** 2 - np.exp(x[1]),
                     x[0] * x[1] + 1.0])


class _CheapScorer:
    """Scores the free parameters ``a`` and ``b`` by a cheap vector
    function in place of runs.  It records each batch it is given, the
    batches whose points are claimed, and the ledger: each residual's
    point, then the points of each claim."""

    targets = []   # no measurements: an empty penalty

    def __init__(self, fun=_cheap):
        self.fun, self.asked, self.claimed, self.counted = fun, [], [], []

    def residuals(self, candidates, ahead):
        x, *points = [np.array([c["a"], c["b"]]) for c in candidates + ahead]
        self.asked.append([x, *points])
        self.counted.append(x)
        batch = len(self.asked) - 1

        def later():
            self.claimed.append(batch)
            self.counted.extend(points)
            return [self.fun(p) for p in points]
        return [self.fun(x)], later


class TestFitContinuous:
    def test_fixed_point_at_truth(self, params, zones, small_target):
        weights = default_weights([small_target])
        free = [FreeParameter("v_1", 150.0, 2500.0, params.v_env[0])]
        est, obj = fit_continuous(
            free, {}, Scorer(params, zones, [small_target], weights))
        assert est["v_1"] == pytest.approx(params.v_env[0], rel=1e-6)
        assert obj <= 1e-12

    def test_single_parameter_recovery(self, params, zones, small_target):
        weights = default_weights([small_target])
        free = [FreeParameter("v_1", 150.0, 2500.0, 800.0)]
        est, obj = fit_continuous(
            free, {}, Scorer(params, zones, [small_target], weights))
        assert est["v_1"] == pytest.approx(560.0, rel=0.01)

    def test_bounds_exclude_truth(self, params, zones, small_target):
        weights = default_weights([small_target])
        free = [FreeParameter("v_1", 700.0, 2500.0, 1200.0)]
        est, _ = fit_continuous(
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

    def test_a_start_on_a_bound_moves_inside(self, params, zones,
                                             small_target, monkeypatch):
        # scipy moves a start on a bound inside before its first residual,
        # which scores that moved start with its Jacobian's point
        asked = []
        residuals = Scorer.residuals

        def spy(self, candidates, ahead=None):
            asked.append([values["v_1"] for values in candidates + ahead])
            return residuals(self, candidates, ahead)

        monkeypatch.setattr(Scorer, "residuals", spy)
        weights = default_weights([small_target])
        free = [FreeParameter("v_1", 560.0, 2500.0, 560.0)]
        est, obj = fit_continuous(
            free, {}, Scorer(params, zones, [small_target], weights))
        assert asked[0] == [560.000000056, 560.000560056]
        # what scipy's own finite-difference Jacobian gives, bit for bit
        assert est == {"v_1": 560.000000056}
        assert obj == 3.24953589610911e-18

    @pytest.mark.parametrize("lower,upper,start", [
        # interior points
        ((-5.0, 0.1), (5.0, 10.0), (1.3, 2.7)),
        # x = 0: the relative step vanishes
        ((-1.0, -4.0), (1.0, 4.0), (0.0, -0.5)),
        # within one step of the lower and of the upper bound
        ((-3.0, 0.1), (5.0, 1.0), (-3.0 + 1e-6, 1.0 - 5e-7)),
        # bound intervals narrower than the step, either side the wider
        ((5.0, 7.0), (5.0 + 2e-6, 7.0 + 2e-6),
         (5.0 + 0.5e-6, 7.0 + 1.5e-6)),
        # ... and with both sides exactly as wide
        ((1.0, -2.0), (1.0 + 2 ** -20, -2.0 + 2 ** -19),
         (1.0 + 2 ** -21, -2.0 + 2 ** -20)),
    ], ids=["interior", "zero", "near-bounds", "narrow-bounds",
            "narrow-even-bounds"])
    def test_jacobian_is_scipys_forward_difference(self, monkeypatch, lower,
                                                   upper, start):
        # a cheap vector function in place of the scorer's runs: each
        # Jacobian of the fit, the start's included, and the points it
        # scores equal scipy's approx_derivative bit for bit, and the points
        # are the tail of their residual's batch
        jacobians = []

        def spy(fun, x0, jac, **kwargs):
            def recorded(x):
                jacobians.append((x.copy(), jac(x)))
                return jacobians[-1][1]
            return least_squares(fun, x0, jac=recorded, **kwargs)

        monkeypatch.setattr(calibration, "least_squares", spy)
        free = [FreeParameter(name, lo, hi, x)
                for name, lo, hi, x in zip("ab", lower, upper, start)]
        scorer = _CheapScorer()
        fit_continuous(free, {}, scorer, max_nfev=3)
        assert jacobians[0][0].tolist() == list(start)
        asked = [[p.tobytes() for p in batch] for batch in scorer.asked]
        # each batch is a residual's point and its Jacobian's points
        assert all(len(batch) == 1 + len(free) for batch in asked)
        for x, jac in jacobians:
            points = []

            def recording(p):
                points.append(p.tobytes())
                return _cheap(p)

            expected = approx_derivative(
                recording, x, method="2-point", rel_step=1e-6, f0=_cheap(x),
                bounds=(np.array(lower), np.array(upper)))
            assert [x.tobytes(), *points] in asked
            assert jac.tobytes() == expected.tobytes()
            assert jac.shape == expected.shape
            assert jac.flags.f_contiguous == expected.flags.f_contiguous

    def test_unclaimed_points_are_not_counted(self, monkeypatch):
        # Rosenbrock's valley, where trf rejects steps: the candidates the
        # ledger counts are exactly the points scipy's own path evaluates,
        # in order (each residual, then its Jacobian's points), so a
        # rejected step's points are run but never counted
        def rosenbrock(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        serial = []

        def recording(x):
            serial.append(x.tobytes())
            return rosenbrock(x)

        def spy(fun, x0, jac, bounds, **kwargs):
            least_squares(recording, x0, bounds=bounds, **kwargs,
                          jac=lambda x: approx_derivative(
                              recording, x, method="2-point", rel_step=1e-6,
                              f0=rosenbrock(x), bounds=bounds))
            return least_squares(fun, x0, jac=jac, bounds=bounds, **kwargs)

        monkeypatch.setattr(calibration, "least_squares", spy)
        free = [FreeParameter("a", -5.0, 5.0, 2.5),
                FreeParameter("b", -5.0, 5.0, -3.0)]
        scorer = _CheapScorer(rosenbrock)
        _, obj = fit_continuous(free, {}, scorer, max_nfev=20)
        assert [p.tobytes() for p in scorer.counted] == serial
        assert obj < 1e-12
        # some batch before the last had its points run, never claimed
        assert set(range(len(scorer.asked) - 1)) - set(scorer.claimed)

    def test_a_jacobian_away_from_the_last_residual_raises(self,
                                                           monkeypatch):
        # the Jacobian takes its points' runs from the last residual's
        # batch, so one asked at any other point is an error, not another
        # point's columns
        def spy(fun, x0, jac, **kwargs):
            fun(x0)
            jac(x0.copy())   # the same point: its batch's columns
            fun(x0)
            jac(np.nextafter(x0, np.inf))

        monkeypatch.setattr(calibration, "least_squares", spy)
        free = [FreeParameter("a", -5.0, 5.0, 1.0),
                FreeParameter("b", -5.0, 5.0, 0.5)]
        with pytest.raises(RuntimeError, match=r"^Jacobian at \[.*\], "
                                               r"last residual at \[.*\]$"):
            fit_continuous(free, {}, _CheapScorer())


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
        # evaluation; the intervals and the predicted-vs-observed rows come
        # from the scorer's run at the fitted point
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
        assert len(runs) == len(targets) * result.evaluations == 22
        # the start's residual and its Jacobian over every free continuous
        # parameter run as one batched run per tree
        assert batches == [1 + len(spec.continuous)] * len(targets) == [11, 11]

    def test_nested_refit_chain_is_seeded_and_counted(self, params, zones,
                                                      monkeypatch):
        # demos/04's 8-cycle tree with a short schedule: every proposal of
        # the annealing refits the continuous parameters; two runs agree,
        # and the evaluations are the candidates the scorer was given and
        # the points ahead that a Jacobian claimed
        target = _demo04_target(params, zones)
        spec = _nested_refit_spec()
        scored, refits = [], []
        residuals, refit = Scorer.residuals, calibration.fit_continuous

        def spy(self, candidates, ahead=None):
            scored.append(len(candidates))
            if ahead is None:
                return residuals(self, candidates)
            now, later = residuals(self, candidates, ahead)

            def claim():
                scored.append(len(ahead))
                return later()
            return now, claim

        def counted(*args, **kwargs):
            refits.append(args[1])
            return refit(*args, **kwargs)

        monkeypatch.setattr(Scorer, "residuals", spy)
        monkeypatch.setattr(calibration, "fit_continuous", counted)
        result = fit_topology(spec, params, zones, [target])
        # the first fit, then one refit per proposal: 3 temperatures × 4
        assert len(refits) >= 1 + 3 * 4
        assert math.isfinite(result.objective)
        assert result.evaluations == sum(scored)
        assert fit_topology(spec, params, zones, [target]) == result

    def test_nested_refit_chain_runs(self, params, zones, monkeypatch):
        # each residual runs with its Jacobian's points: the chain's 168
        # tree-columns take 62 engine runs, where a residual and then its
        # Jacobian as a second batch took 101; the ledger is unchanged
        target = _demo04_target(params, zones)
        runs = []
        run = engine._run

        def counted(columns, *args, **kwargs):
            runs.append(len(columns))
            return run(columns, *args, **kwargs)

        monkeypatch.setattr(engine, "_run", counted)
        result = fit_topology(_nested_refit_spec(), params, zones, [target])
        assert (len(runs), sum(runs), result.evaluations) == (62, 168, 180)


def _nested_refit_spec() -> FitSpec:
    """A short annealing schedule on demos/04's chain that refits the
    continuous parameters at every proposal."""
    return FitSpec(
        continuous=[FreeParameter("v_1", 150.0, 2500.0, 900.0),
                    FreeParameter("gamma", 0.5, 5.0, 2.0)],
        topological=[FreeParameter("m2_2_0", 0.0, 3.0, 1.0),
                     FreeParameter("a2_2_4", 0.0, 1.5, 0.2)],
        schedule=AnnealSchedule(t0=0.5, cooling=0.5, steps_per_t=4,
                                t_stop_ratio=0.2, step_scale=0.3),
        seed=7, nested_refit=True, polish_rounds=1, max_nfev=5)


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
        # run at 0.1307 holds, but its pending plan's axis distribution,
        # and so cycle 8's shoot demand, changes; a score there must run,
        # and the structural interval stops short of it
        target = _demo04_target(params, zones)
        weights = default_weights([target])
        case = _DEMO04_CASE
        recorded = {**case, "a2_2_4": 0.13068775418752696}
        probe = {**case, "a2_2_4": 0.1}
        run = simulate(*apply_candidate(params, zones, recorded), target,
                       with_topology=False, with_signature=False)
        cand, cand_zones = apply_candidate(params, zones, probe)
        assert [plan_holds(plan, cand_zones, cand)
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

        spec = FitSpec(continuous=[], topological=[
            FreeParameter("a2_2_4", 0.0, 1.5, 0.2)])
        ends = compute_intervals(spec, recorded, params, zones,
                                 [target])["a2_2_4"]
        assert ends == (0.12953193577427322, 0.14718696884410842)
        assert [objective({**recorded, "a2_2_4": end}, params, zones,
                          [target], weights) for end in ends] \
            == [0.2629507119537986] * 2

    def test_a_layout_no_bud_uses_replays(self, params, zones, monkeypatch):
        # demos/04's 8-cycle tree: at m2_2_0 = 0.75 the PA-2 layout of the
        # plan made at cycle 3 gains an unbranched metamer, but no PA-2 bud
        # exists before cycle 5, so nothing grows it, and every grown PA-2
        # layout keeps its counts: the run at 0.5357 is replayed
        target = _demo04_target(params, zones)
        weights = default_weights([target])
        recorded = {**_DEMO04_CASE, "a2_2_4": 0.13068775418752696}
        probe = {**recorded, "m2_2_0": 0.75}
        run_params, run_zones = apply_candidate(params, zones, recorded)
        run = simulate(run_params, run_zones, target, with_topology=False,
                       with_signature=False)
        cand, cand_zones = apply_candidate(params, zones, probe)
        plan = run.decisions[3]
        assert 2 not in plan.gu_layouts
        assert gu_zone_layout(2, run_zones, plan.ratio_used, run_params) \
            == [(0, 1), (4, 2), (3, 1)]
        assert gu_zone_layout(2, cand_zones, plan.ratio_used, cand) \
            == [(0, 2), (4, 2), (3, 1)]

        score = Scorer(params, zones, [target], weights).objective
        runs = _count_runs(monkeypatch)
        assert score(recorded) == score(probe) == 0.2629507119537986
        assert runs == [0]
        assert score(probe) == objective(probe, params, zones, [target],
                                         weights)

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
        # keeps every plan's outcome, so the replay checks the request; an
        # infinite m2 fails plan_holds, so the batch's run checks reject it
        target = _demo04_target(params, zones)
        scorer = Scorer(params, zones, [target], default_weights([target]))
        assert math.isfinite(scorer.objective(_DEMO04_CASE))
        for name in ("a2_2_2", "m2_2_4"):
            [error] = scorer.residuals([{**_DEMO04_CASE, name: math.inf}])
            kind, bearer, axillary = name.split("_")
            assert str(error) == (f"zone Z^{bearer}{axillary}: {kind} must "
                                  f"be finite: inf")

    def test_a_candidate_checks_its_request_once(self, params, zones,
                                                 monkeypatch):
        # a candidate refused by its equal-parameter kept run is checked by
        # its batched run alone, a replayed one by its replay alone
        target = _demo04_target(params, zones)
        recorded = {**_DEMO04_CASE, "a2_2_4": 0.13068775418752696}
        probe = {**recorded, "a2_2_4": 0.1}
        score = Scorer(params, zones, [target],
                       default_weights([target])).objective
        checks, check = [], calibration.check_run_request

        def counted(*args):
            checks.append(args[3])
            return check(*args)

        monkeypatch.setattr(calibration, "check_run_request", counted)
        monkeypatch.setattr(engine, "check_run_request", counted)
        runs = _count_runs(monkeypatch)
        for values, ran in ((recorded, [0]), (probe, [0, 0]),
                            (recorded, [0, 0])):
            before = len(checks)
            score(values)
            assert checks[before:] == [0] and runs == ran

    def test_a_refit_starts_from_the_kept_run(self, params, zones,
                                              monkeypatch):
        # a refit warm-started at a point the search has just scored: in
        # its first batch the start replays that score's run, and only its
        # Jacobian's points run
        target = _demo04_target(params, zones)
        scorer = Scorer(params, zones, [target], default_weights([target]))
        topo = {"m2_2_0": _DEMO04_CASE["m2_2_0"],
                "a2_2_4": 0.13068775418752696}
        cont = {"v_1": _DEMO04_CASE["v_1"], "gamma": _DEMO04_CASE["gamma"]}
        free = [FreeParameter("v_1", 150.0, 2500.0, 700.0),
                FreeParameter("gamma", 0.5, 5.0, 2.0)]
        scorer.objective({**topo, **cont})
        runs = _count_runs(monkeypatch)
        counting, columns = calibration.simulate_batch, []
        after = []
        residuals = Scorer.residuals

        def spy(self, candidates, ahead=None):
            results = residuals(self, candidates, ahead)
            after.append((candidates + ahead, len(runs)))
            return results

        def recorded(batch, *args, **kwargs):
            columns.extend(batch)
            return counting(batch, *args, **kwargs)

        monkeypatch.setattr(Scorer, "residuals", spy)
        monkeypatch.setattr(calibration, "simulate_batch", recorded)
        fit_continuous(free, topo, scorer, max_nfev=1,
                       x0=np.array([cont[p.name] for p in free]))
        (start, *points), ran = after[0]
        assert start == {**topo, **cont}
        assert ran == len(points) == len(free)
        assert columns[:ran] == [apply_candidate(params, zones, point)[0]
                                 for point in points]

    @pytest.mark.parametrize("kept_at,later_runs", [(2, []), (3, [0])],
                             ids=["kept", "evicted"])
    def test_points_ahead_leave_no_trace_until_claimed(
            self, params, zones, monkeypatch, kept_at, later_runs):
        # a residual with three points ahead: one a step in v_1, one that
        # fails its request, one kept earlier at kept_at.  Until claimed,
        # the points leave the ledger, the kept runs and the best as a
        # scorer that scored only the residual; claimed, they give what a
        # second call gives and leave what it leaves.  At 3 the residual's
        # run evicts the kept point, so the claim runs it
        target = _demo04_target(params, zones)
        x = dict(_DEMO04_CASE)
        ahead = [{**x, "v_1": x["v_1"] * (1 + 1e-6)}, {**x, "alpha": 0.0},
                 {**x, "gamma": x["gamma"] * (1 + 1e-6)}]
        earlier = [{**x, "v_1": v} for v in (600.0, 610.0, 620.0)]
        earlier.insert(3 - kept_at, ahead[2])

        def scored_earlier():
            scorer = Scorer(params, zones, [target], default_weights([target]))
            scorer.residuals(earlier)
            return scorer

        def state(scorer):
            return (scorer.evaluations,
                    [[run[0] for run in kept] for kept in scorer._kept],
                    scorer._best[0],
                    [[run[0] for run in runs] for runs in scorer._best[1]])

        def bits(results):
            return [r.tobytes() if isinstance(r, np.ndarray) else str(r)
                    for r in results]

        speculative, serial = scored_earlier(), scored_earlier()
        assert [run[0] for run in speculative._kept[0]][kept_at] == \
            apply_candidate(params, zones, ahead[2])[0]
        runs = _count_runs(monkeypatch)
        now, later = speculative.residuals([x], ahead)
        # the residual and the two points that replay nothing: one batch
        assert runs == [0, 0, 0]
        assert bits(now) == bits(serial.residuals([x]))
        assert state(speculative) == state(serial)
        del runs[:]
        claimed = later()
        assert runs == later_runs
        assert bits(claimed) == bits(serial.residuals(ahead))
        assert state(speculative) == state(serial)

    def test_replays_equal_fresh_objectives(self, monkeypatch):
        # the bundled fit point on both fixture trees: probes inside each
        # zone coefficient's interval, at its ends and one float past each
        # end inside the bounds score bit for bit as a fresh objective; at
        # each such end every plan of both runs holds, one float past it
        # some plan fails
        params, zones, spec = read_parameter_file(
            fixture_path("species.params"))
        targets = [parse_target_file(fixture_path(f"tree{i}.target.csv"))
                   for i in (1, 2)]
        weights = default_weights(targets)
        best = {p.name: p.init for p in spec.continuous + spec.topological}
        intervals = compute_intervals(spec, best, params, zones, targets)
        plans = [plan for i, ds in enumerate(targets) for plan in simulate(
            *apply_candidate(params, zones, best), ds, tree_index=i,
            with_topology=False, with_signature=False).decisions]
        assert check_interval_ends(params, zones, best, spec.topological,
                                   intervals, plans) >= 10
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


def _count_simulates(monkeypatch) -> list[int]:
    """The tree index of every lone run the calibration module starts from
    now on."""
    runs = []

    def counted(*args, **kwargs):
        runs.append(kwargs["tree_index"])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(calibration, "simulate", counted)
    return runs


def _bundled():
    """The bundled fit's parameters, zone rules, spec and both targets."""
    params, zones, spec = read_parameter_file(fixture_path("species.params"))
    targets = [parse_target_file(fixture_path(f"tree{i}.target.csv"))
               for i in (1, 2)]
    return params, zones, spec, targets


def _fresh_rows(params, zones, values, targets):
    """The predicted-vs-observed rows of a fresh run of each tree."""
    cand, cand_zones = apply_candidate(params, zones, values)
    rows = []
    for i, ds in enumerate(targets):
        sim, obs, labels = extract_targets(simulate(
            cand, cand_zones, ds, tree_index=i, with_topology=False,
            with_signature=False), ds)
        rows += [PredictedObserved(i + 1, lbl, float(o), float(s))
                 for s, o, lbl in zip(sim, obs, labels)]
    return rows


class TestReport:
    def test_the_lowest_run_outlives_the_kept_ones(self, params, zones,
                                                   monkeypatch):
        # demos/04's 8-cycle tree: four worse candidates evict the scored
        # point's run from the last 4, the lowest-objective slot keeps it,
        # and its report equals a fresh run's decisions and rows
        target = _demo04_target(params, zones)
        scorer = Scorer(params, zones, [target], default_weights([target]))
        lowest = scorer.objective(_DEMO04_CASE)
        for step in (1, 2, 3, 4):
            moved = {**_DEMO04_CASE, "v_1": _DEMO04_CASE["v_1"] + 10 * step}
            assert scorer.objective(moved) > lowest
        runs, sims = _count_runs(monkeypatch), _count_simulates(monkeypatch)
        cand, cand_zones, [(decisions, (sim, obs, labels))] = \
            scorer.report(_DEMO04_CASE)
        assert runs == [] and sims == []
        fresh = simulate(cand, cand_zones, target, with_topology=False,
                         with_signature=False)
        assert decisions == fresh.decisions
        fresh_sim, fresh_obs, fresh_labels = extract_targets(fresh, target)
        assert np.array_equal(sim, fresh_sim)
        assert np.array_equal(obs, fresh_obs)
        assert labels == fresh_labels
        # a point that no kept run repeats runs once
        scorer.report({**_DEMO04_CASE, "v_1": _DEMO04_CASE["v_1"] + 1})
        assert runs == [] and sims == [0]

    def test_a_fresh_scorer_runs_each_tree_once(self, monkeypatch):
        params, zones, spec, targets = _bundled()
        best = {p.name: p.init for p in spec.continuous + spec.topological}
        scorer = Scorer(params, zones, targets, default_weights(targets))
        runs, sims = _count_runs(monkeypatch), _count_simulates(monkeypatch)
        _, _, trees = scorer.report(best)
        assert runs == [] and sims == [0, 1] and len(trees) == 2

    @pytest.mark.parametrize("fit", ["bundled", "demo04"])
    def test_a_fit_reports_its_best_point(self, params, zones, monkeypatch,
                                          fit):
        # the intervals and rows equal a fresh run's at the best point; the
        # demos/04 chain's polish needs the edges of its best point, and
        # neither fit runs a tree outside its scores for them
        if fit == "bundled":
            params, zones, spec, targets = _bundled()
        else:
            targets = [_demo04_target(params, zones)]
            spec = FitSpec(
                continuous=[FreeParameter("v_1", 150.0, 2500.0, 900.0),
                            FreeParameter("gamma", 0.5, 5.0, 2.0)],
                topological=[FreeParameter("m2_2_0", 0.0, 3.0, 1.0),
                             FreeParameter("a2_2_4", 0.0, 1.5, 0.2)],
                schedule=AnnealSchedule(t0=0.5, cooling=0.75, steps_per_t=8,
                                        t_stop_ratio=5e-2, step_scale=0.3),
                seed=2028277857, polish_rounds=3, max_nfev=40)
        sims = _count_simulates(monkeypatch)
        result = fit_topology(spec, params, zones, targets)
        assert sims == []
        best = {**result.topology, **result.continuous}
        assert result.intervals == compute_intervals(spec, best, params,
                                                     zones, targets)
        assert result.predicted_observed == _fresh_rows(params, zones, best,
                                                        targets)


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
        # strictly inside the bounds keeps every numeric output, and the
        # next float outward changes one (an end the pending plan sets
        # changes the allocations, not the stored architecture)
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

        weights = default_weights([small_target])

        def outputs(name, value):
            p2, z2 = apply_candidate(params, zones, {name: value})
            try:
                out = simulate(p2, z2, small_target, with_topology=False)
            except TreesinkError:
                return None
            return (out.structure_signature, out.allocations,
                    out.trunk_profile, out.ring_matrix,
                    out.branch_compartments,
                    objective({name: value}, params, zones, [small_target],
                              weights))

        ref = outputs("m2_2_0", best["m2_2_0"])
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
                assert outputs(p.name, end) == ref, (p.name, end)
                assert outputs(p.name, math.nextafter(end, outward)) != ref
        assert ends >= 10
