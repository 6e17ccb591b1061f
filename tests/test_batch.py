"""A batched run over K parameter columns gives every column exactly what
its one-column run gives.

The finite-difference Jacobian of the continuous fit evaluates its points as
one batched run per tree, so its bits, and with them the fit's path, hold
only if each column's residual equals the serial one bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from treesink import engine
from treesink.calibration import (Scorer, apply_candidate, default_weights,
                                  fit_continuous, weighted_residuals)
from treesink.core import MEASUREMENTS, SimulationError, TreesinkError
from treesink.fileio import parse_target_file, read_parameter_file
from treesink.structure import TreeState
from treesink.topology import gu_zone_layout, seed_plan

from conftest import fixture_path


@pytest.fixture(scope="module")
def bundled():
    params, zones, spec = read_parameter_file(fixture_path("species.params"))
    targets = [parse_target_file(fixture_path(f"tree{i}.target.csv"))
               for i in (1, 2)]
    return params, zones, spec, targets, default_weights(targets)


def _same_as_serial(candidate, result, params, zones, targets, weights):
    try:
        serial = weighted_residuals(candidate, params, zones, targets,
                                    weights)
    except TreesinkError as exc:
        assert type(result) is type(exc) and str(result) == str(exc)
        return False
    assert result.dtype == serial.dtype
    assert result.tobytes() == serial.tobytes()
    return True


def test_jacobian_columns_equal_serial_residuals(bundled, monkeypatch):
    # the points scipy asks for in the bundled fit's first Jacobian, at its
    # own step sizes
    params, zones, spec, targets, weights = bundled
    asked, claimed = [], []
    residuals = Scorer.residuals

    def spy(self, candidates, ahead=None):
        now, later = residuals(self, candidates, ahead)
        asked.append((candidates, ahead))

        def claim():
            claimed.append(later())
            return claimed[-1]
        return now, claim

    monkeypatch.setattr(Scorer, "residuals", spy)
    topology = {p.name: p.init for p in spec.topological}
    fit_continuous(spec.continuous, topology,
                   Scorer(params, zones, targets, weights), max_nfev=1)
    monkeypatch.undo()
    # one batch: the start's residual, then its Jacobian's points, which
    # the Jacobian claims
    [(candidates, points)] = asked
    [results] = claimed
    assert len(candidates) == 1 and len(points) == len(spec.continuous)
    for candidate, result in zip(points, results):
        assert _same_as_serial(candidate, result, params, zones, targets,
                               weights)


def _same_output(out, alone):
    """``out`` is ``alone`` to the bit: the profile tables, and the exact
    repr of every allocation, event, decision and total."""
    assert out.profiles == alone.profiles
    for name in vars(alone).keys() - {"profiles"}:
        assert repr(getattr(out, name)) == repr(getattr(alone, name)), name


def test_batch_records_equal_lone_runs(bundled, monkeypatch):
    # the bundled start, its first Jacobian's points and a column that
    # moves only the wood density, one batch of 11 runs per tree (the other
    # tree's v point is the start's run): the start, the density column and
    # the lambda_mix and three ring-sink points share one growth.  Each
    # column's whole output, and the rows read from its profile record,
    # are its own profile-only run's, bit for bit
    params, zones, spec, targets, weights = bundled
    asked = []
    residuals = Scorer.residuals

    def spy(self, candidates, ahead=None):
        asked.append([*candidates, *ahead])
        return residuals(self, candidates, ahead)

    monkeypatch.setattr(Scorer, "residuals", spy)
    fit_continuous(spec.continuous, {p.name: p.init for p in spec.topological},
                   Scorer(params, zones, targets, weights), max_nfev=1)
    monkeypatch.undo()
    [candidates] = asked
    candidates.append({**candidates[0], "wood_density": 0.7})
    columns = [apply_candidate(params, zones, c)[0] for c in candidates]
    cand_zones = apply_candidate(params, zones, candidates[0])[1]
    for tree, dataset in enumerate(targets):
        runs, grown = _log_runs(monkeypatch), _log_growth(monkeypatch)
        results = engine.simulate_batch(columns, cand_zones, dataset,
                                        tree_index=tree)
        monkeypatch.undo()
        assert runs == [(11, tree)] and grown == [(11, 6)]
        for p, out in zip(columns, results):
            alone = engine.simulate(p, cand_zones, dataset, tree_index=tree,
                                    with_topology=False, with_signature=False)
            _same_output(out, alone)
            for m in MEASUREMENTS:
                assert repr(getattr(out, m.field)) == \
                    repr(getattr(alone, m.field))


def _log_runs(monkeypatch) -> list[tuple[int, int]]:
    """(columns, tree index) of every engine run from now on."""
    runs = []
    run = engine._run

    def counted(columns, zones, dataset, tree_index, *args):
        runs.append((len(columns), tree_index))
        return run(columns, zones, dataset, tree_index, *args)

    monkeypatch.setattr(engine, "_run", counted)
    return runs


def _log_growth(monkeypatch) -> list[tuple[int, int]]:
    """(columns, growth rows) of every engine run from now on."""
    grown = []
    start = engine.start_state

    def counted(columns, *args):
        state = start(columns, *args)
        grown.append((len(columns), len(state.leads)))
        return state

    monkeypatch.setattr(engine, "start_state", counted)
    return grown


def _signature(params, zones, dataset, values):
    cand, cand_zones = apply_candidate(params, zones, values)
    return engine.simulate(cand, cand_zones, dataset,
                           with_topology=False).structure_signature


def test_columns_that_leave_the_batch(bundled, monkeypatch):
    # tree 1's first rounding edge above its fitted environment factor: a
    # column just past it takes another decision than the first column
    params, zones, spec, targets, weights = bundled
    base = {p.name: p.init for p in spec.continuous}
    reference = _signature(params, zones, targets[0], base)
    lo, hi = base["v_1"], base["v_1"] * 1.5
    assert _signature(params, zones, targets[0], {**base, "v_1": hi}) \
        != reference
    while hi - lo > 1e-9 * lo:
        mid = 0.5 * (lo + hi)
        same = _signature(params, zones, targets[0],
                          {**base, "v_1": mid}) == reference
        lo, hi = (mid, hi) if same else (lo, mid)

    runs = _log_runs(monkeypatch)
    candidates = [base, {**base, "v_1": lo}, {**base, "v_1": hi},
                  {**base, "alpha": 0.0},   # fails validation
                  {**base, "sp0": base["sp0"] * (1 + 1e-6)}]
    results = Scorer(params, zones, targets, weights).residuals(candidates)
    monkeypatch.undo()
    # the failing column never ran; on tree 1 the column past the edge
    # stopped the batch, and each of the four then ran alone; tree 2 reads
    # v_2 alone, so the three columns that differ only in v_1 share one
    # run beside the sp0 column's
    assert runs == [(4, 0), (1, 0), (1, 0), (1, 0), (1, 0), (2, 1)]
    ran = [_same_as_serial(c, r, params, zones, targets, weights)
           for c, r in zip(candidates, results)]
    assert ran == [True, True, True, False, True]


def test_columns_of_one_run_key_share_one_run(bundled, monkeypatch):
    # tree 1 reads v_1 alone: a column that moves only v_2 shares the first
    # column's run and its output object, one whose v_2 fails its check
    # gets its own error, and a column that moves v_1 runs beside them
    params, zones, _spec, targets, _weights = bundled
    v_1, v_2 = params.v_env
    columns = [params, replace(params, v_env=(v_1, v_2 * 2)),
               replace(params, v_env=(v_1, -1.0)),
               replace(params, v_env=(v_1 * (1 + 1e-6), v_2))]
    assert engine.run_key(columns[1], 0) == engine.run_key(params, 0) \
        != engine.run_key(columns[1], 1)
    runs = _log_runs(monkeypatch)
    results = engine.simulate_batch(columns, zones, targets[0])
    monkeypatch.undo()
    assert runs == [(2, 0)]
    assert results[1] is results[0]
    assert isinstance(results[2], TreesinkError)
    for p, result in zip(columns[::3], results[::3]):
        alone = engine.simulate(p, zones, targets[0], with_topology=False,
                                with_signature=False)
        assert vars(result) == vars(alone)


def test_a_layout_no_bud_uses_stays_in_the_batch(bundled, monkeypatch):
    # on tree 1 a seed biomass of 2 doubles the seed ratio, 0.381 against
    # 0.190, which changes the PA-3 layout of the seed plan; no PA-3 bud
    # exists then, so nothing grows it and the column stays in the batch
    params, zones, spec, targets, weights = bundled
    columns = [params, replace(params, q0=2.0),
               replace(params, sp0=params.sp0 * (1 + 1e-6))]
    seed = [seed_plan(p, zones, targets[0].script_entry(1))
            for p in columns[:2]]
    assert [each.gu_layouts for each in seed] == [{}, {}]
    assert [gu_zone_layout(3, zones, each.ratio_used, p)
            for p, each in zip(columns, seed)] == [[(0, 1), (4, 1)],
                                                   [(0, 1), (4, 2)]]
    runs = _log_runs(monkeypatch)
    results = engine.simulate_batch(columns, zones, targets[0])
    monkeypatch.undo()
    assert runs == [(3, 0)]
    for p, result in zip(columns, results):
        alone = engine.simulate(p, zones, targets[0], with_topology=False,
                                with_signature=False)
        assert vars(result) == vars(alone)


def test_a_departure_at_the_seed_plan(bundled, monkeypatch):
    # tree 1's script with a PA-3 branch on its first growth unit: a seed
    # biomass of 4 quadruples the seed ratio, 0.381 against 0.095, which
    # changes the layout that branch grows at cycle 1
    params, zones, spec, targets, weights = bundled
    first, *rest = targets[0].trunk_script
    dataset = replace(targets[0], trunk_script=(
        replace(first, branches=((3, 1),)), *rest))
    columns = [params, replace(params, q0=4.0),
               replace(params, sp0=params.sp0 * (1 + 1e-6))]
    assert [seed_plan(p, zones, dataset.script_entry(1)).gu_layouts
            for p in columns[:2]] == [{3: [(0, 1), (4, 1)]},
                                      {3: [(0, 1), (4, 2)]}]
    with pytest.raises(SimulationError, match=r"columns \[1\] left"):
        engine.start_state(columns, zones, dataset)
    runs = _log_runs(monkeypatch)
    results = engine.simulate_batch(columns, zones, dataset)
    monkeypatch.undo()
    assert runs == [(3, 0), (1, 0), (1, 0), (1, 0)]
    for p, result in zip(columns, results):
        alone = engine.simulate(p, zones, dataset, with_topology=False,
                                with_signature=False)
        assert vars(result) == vars(alone)


def test_a_raising_batch_runs_every_column_alone(bundled, monkeypatch):
    # the second column passes every check but its production diverges in
    # tree 1's first cycle, which stops the batched run; the fourth moves
    # only the wood density, to a subnormal one whose diameters overflow
    # when its output is collected
    params, zones, spec, targets, weights = bundled
    base = {p.name: p.init for p in spec.continuous}
    candidates = [base, {**base, "v_1": 1e20},
                  {**base, "sp0": base["sp0"] * (1 + 1e-6)},
                  {**base, "wood_density": 5e-324}]
    runs = _log_runs(monkeypatch)
    results = Scorer(params, zones, targets, weights).residuals(candidates)
    monkeypatch.undo()
    # on tree 1 each column then ran alone; on tree 2 the two that did not
    # fail ran as a batch
    assert runs == [(4, 0), (1, 0), (1, 0), (1, 0), (1, 0), (2, 1)]
    assert "production diverged" in str(results[1])
    assert "not finite" in str(results[3])
    ran = [_same_as_serial(c, r, params, zones, targets, weights)
           for c, r in zip(candidates, results)]
    assert ran == [True, False, True, False]
    # without the diverging column the batch grows twice and raises only in
    # collection, the density column sharing the start's growth; each
    # column then runs alone and gets its lone run's output or error
    columns = [apply_candidate(params, zones, c)[0]
               for c in candidates[::2] + candidates[3:]]
    runs, grown = _log_runs(monkeypatch), _log_growth(monkeypatch)
    results = engine.simulate_batch(columns, zones, targets[0])
    monkeypatch.undo()
    assert runs == [(3, 0), (1, 0), (1, 0), (1, 0)]
    assert grown == [(3, 2), (1, 1), (1, 1), (1, 1)]
    for p, result in zip(columns, results):
        try:
            alone = engine.simulate(p, zones, targets[0], with_topology=False,
                                    with_signature=False)
        except TreesinkError as exc:
            assert (type(result), str(result)) == (type(exc), str(exc))
        else:
            _same_output(result, alone)
    assert isinstance(results[2], SimulationError)


def test_a_column_dropping_the_pressler_term_stays(bundled, monkeypatch):
    # production needs live leaves, which lie above the trunk base, so no
    # crown with production drops the Pressler term; the ring partition's
    # foliage scan reads none for the columns marked by p_rg_4, whether
    # they run batched or alone.  The marked columns share the first
    # column's growth, and the one with no foliage influence (lambda_mix
    # 0) drops nothing
    params, zones, spec, targets, weights = bundled
    mark = 0.0123
    arrays = TreeState.ring_partition_arrays

    def leafless(self, p_rg):
        bounds, s_a, weight, mult = arrays(self, p_rg)
        for row, sinks in zip(s_a, np.reshape(p_rg, (self.columns, -1))):
            if sinks[3] == mark:
                row[:] = 0.0
        return bounds, s_a, weight, mult

    monkeypatch.setattr(TreeState, "ring_partition_arrays", leafless)
    base = {p.name: p.init for p in spec.continuous}
    candidates = [base, {**base, "p_rg_4": mark},
                  {**base, "gamma": base["gamma"] * (1 + 1e-6)},
                  {**base, "p_rg_4": mark, "lambda_mix": 0.0}]
    runs, grown = _log_runs(monkeypatch), _log_growth(monkeypatch)
    results = Scorer(params, zones, targets, weights).residuals(candidates)
    # on each tree the marked columns stayed in the batch
    assert runs == [(4, 0), (4, 1)] and grown == [(4, 2), (4, 2)]
    applied = [apply_candidate(params, zones, c) for c in candidates]
    cand_zones = applied[1][1]
    batched = engine.simulate_batch([p for p, _ in applied], cand_zones,
                                    targets[0])
    output, twin = (engine.simulate(p, cand_zones, targets[0],
                                    with_topology=False)
                    for p, _ in applied[1::2])
    assert (1, engine.PRESSLER_DROP, None, None) in output.events
    assert batched[1].events == output.events
    assert batched[0].events == batched[2].events == batched[3].events == \
        twin.events == []
    ran = [_same_as_serial(c, r, params, zones, targets, weights)
           for c, r in zip(candidates, results)]
    assert ran == [True, True, True, True]
