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
from treesink.core import SimulationError, TreesinkError
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


def _log_runs(monkeypatch) -> list[tuple[int, int]]:
    """(columns, tree index) of every engine run from now on."""
    runs = []
    run = engine._run

    def counted(columns, zones, dataset, tree_index, *args):
        runs.append((len(columns), tree_index))
        return run(columns, zones, dataset, tree_index, *args)

    monkeypatch.setattr(engine, "_run", counted)
    return runs


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
    # stopped the batch, and each of the four then ran alone; on tree 2
    # (v_1 is tree 1's factor) all four stayed batched
    assert runs == [(4, 0), (1, 0), (1, 0), (1, 0), (1, 0), (4, 1)]
    ran = [_same_as_serial(c, r, params, zones, targets, weights)
           for c, r in zip(candidates, results)]
    assert ran == [True, True, True, False, True]


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
    # tree 1's first cycle, which stops the batched run
    params, zones, spec, targets, weights = bundled
    base = {p.name: p.init for p in spec.continuous}
    candidates = [base, {**base, "v_1": 1e20},
                  {**base, "sp0": base["sp0"] * (1 + 1e-6)}]
    runs = _log_runs(monkeypatch)
    results = Scorer(params, zones, targets, weights).residuals(candidates)
    monkeypatch.undo()
    # on tree 1 each column then ran alone; on tree 2 the two that did not
    # fail ran as a batch
    assert runs == [(3, 0), (1, 0), (1, 0), (1, 0), (2, 1)]
    assert "production diverged" in str(results[1])
    ran = [_same_as_serial(c, r, params, zones, targets, weights)
           for c, r in zip(candidates, results)]
    assert ran == [True, False, True]


def test_a_column_dropping_the_pressler_term_stays(bundled, monkeypatch):
    # production needs live leaves, which lie above the trunk base, so no
    # crown with production drops the Pressler term; the ring partition's
    # foliage scan reads none for the columns marked by p_rg_4, whether
    # they run batched or alone
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
                  {**base, "gamma": base["gamma"] * (1 + 1e-6)}]
    runs = _log_runs(monkeypatch)
    results = Scorer(params, zones, targets, weights).residuals(candidates)
    # on each tree the marked column stayed in the batch
    assert runs == [(3, 0), (3, 1)]
    applied = [apply_candidate(params, zones, c) for c in candidates]
    cand_zones = applied[1][1]
    batched = engine.simulate_batch([p for p, _ in applied], cand_zones,
                                    targets[0])
    output = engine.simulate(applied[1][0], cand_zones, targets[0],
                             with_topology=False)
    assert "cycle 1: no foliage, Pressler term dropped" in output.notes
    assert batched[1].notes == output.notes
    assert batched[0].notes == batched[2].notes == []
    ran = [_same_as_serial(c, r, params, zones, targets, weights)
           for c, r in zip(candidates, results)]
    assert ran == [True, True, True]
