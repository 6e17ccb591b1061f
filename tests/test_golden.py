"""Byte-identity of the files a simulation and the bundled fit write, and
of the oracle's run.

The digests pin the exact bytes of every output file, so any change in the
order or rounding of a floating-point operation anywhere in the engine or
the identification shows here.  They may change only with a deliberate,
documented change of the model's outputs.
"""

import hashlib
import os

import pytest

from treesink.calibration import (AnnealSchedule, FitSpec, FreeParameter,
                                  fit_topology)
from treesink.core import TrunkScriptEntry
from treesink.engine import simulate
from treesink.fileio import (parse_target_file, read_parameter_file,
                             write_fit_result, write_simulation_output)
from treesink.oracle import simulate_naive
from treesink.synthetic import (generate_synthetic_target,
                                reference_parameters, reference_zone_rules)

from conftest import fixture_path

SIMULATION_DIGESTS = {
    0: {
        "cycles.csv":
        "927aa976747c80e52e8652bd594538262d98223600ca7cc9e81ff2f85267313d",
        "trunk.csv":
        "afc089c930af0a0d901a39f1222fa3d112d19ff6ca47dc324badb69f4d4a6366",
        "rings.csv":
        "7c66cd16f7fe499bc32769ba541731652b989dc6b26d780afc6280e21f27d1e3",
        "branches.csv":
        "9140de4e12060d1ec63470ba5f735c37bfb28a0a3c812b4c3f8eebef492c8378",
        "topology.json":
        "385a26a49bdf8e66212421dc04244fcac2db477aafcdb688c5966ae882ce1a71"},
    1: {
        "cycles.csv":
        "94651d44cf57ebd20eb41a8c73b70a093a599fad5e6b754c29ba984098733d74",
        "trunk.csv":
        "75cb3ea96368e570bc4580c84f582082d7b234a099bbd94272dd91b59e5fe399",
        "rings.csv":
        "ea720fa4b0a77a1203c60511940b6fd86e80ce152d61924b9873106c128c0c96",
        "branches.csv":
        "b92b2b7a3798ec35b6043aeaa169003ac45b71d72c507c39c261cdc25c232278",
        "topology.json":
        "ed6913076a865eadc01156e592104a0fcec0b7079f18184a125057676d8e8173"},
}

FIT_DIGESTS = {
    "fit_result.json":
        "1ba947d4ae3f47c8ee63dd6d24d71bf314233b33069df3a681290f3c3cda691f",
    "predicted_vs_observed.csv":
        "33317b5d456467e4f7ce2f1bdb8ba842f010c7edb003728eec52a1a54c548177",
}

#: a seeded 8-cycle identification whose trust regions take many Jacobian
#: steps (demos/04's chain, annealed to its stop temperature)
SMALL_FIT_DIGESTS = {
    "fit_result.json":
        "7b52f6d48eed9f03746a4116ad81a3e06718e919ed739f8b070925714146c249",
    "predicted_vs_observed.csv":
        "fe6e73d70d36e911c5108e8ea349eb7334273bf70d07ce587ecf452e2f5cabe9",
}


#: sha256 of the ``repr`` of each record of the oracle's run of tree 1 over
#: 6 cycles, a measured section's as the list of its rows
ORACLE_DIGESTS = {
    "allocations":
        "db3b0a17c7785460f9dee7fb5664a74932d3b0014667ab3918ac19f9ffa7c8d7",
    "events":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "topology":
        "6f66ac2238f77e732e1992b569fef45dda575c34842e824bcd92cb5728d3262c",
    "trunk_profile":
        "ca48c9499b2acc49039d2b3fee250062c4598ce5e17512d1f7076711174eb6b1",
    "ring_matrix":
        "e6739f251a8d22b9f02686e084ffe176fa2658917bf085107be3db2547117482",
    "branch_compartments":
        "7042621c2703f950cd11ea01626424cc2dfd9fc9ba02830d48f9fc895261a32f",
}


def _digests(paths):
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("tree_index", [0, 1])
def test_simulation_files_are_byte_identical(tree_index, tmp_path):
    params, zones, _spec = read_parameter_file(fixture_path("species.params"))
    dataset = parse_target_file(
        fixture_path(f"tree{tree_index + 1}.target.csv"))
    output = simulate(params, zones, dataset, tree_index=tree_index)
    written = write_simulation_output(tmp_path, output)
    assert _digests(written) == SIMULATION_DIGESTS[tree_index]


def test_bundled_fit_files_are_byte_identical(tmp_path):
    params, zones, spec = read_parameter_file(fixture_path("species.params"))
    targets = [parse_target_file(fixture_path(f"tree{i}.target.csv"))
               for i in (1, 2)]
    result = fit_topology(spec, params, zones, targets)
    assert _digests(write_fit_result(tmp_path, result)) == FIT_DIGESTS


def test_small_fit_files_are_byte_identical(tmp_path):
    params, zones = reference_parameters(), reference_zone_rules()
    script = tuple(
        TrunkScriptEntry(g, 4 if g <= 2 else 5,
                         ((3, 1),) if g in (3, 5, 7) else
                         ((2, 1),) if g == 6 else ())
        for g in range(1, 9))
    target = generate_synthetic_target(params, zones, script, 0)
    spec = FitSpec(
        continuous=[FreeParameter("v_1", 150.0, 2500.0, 900.0),
                    FreeParameter("gamma", 0.5, 5.0, 2.0)],
        topological=[FreeParameter("m2_2_0", 0.0, 3.0, 1.0),
                     FreeParameter("a2_2_4", 0.0, 1.5, 0.2)],
        schedule=AnnealSchedule(t0=0.5, cooling=0.75, steps_per_t=8,
                                t_stop_ratio=5e-2, step_scale=0.3),
        seed=7, stop_objective=None, polish_rounds=3, max_nfev=40)
    stages = []
    result = fit_topology(spec, params, zones, [target], stages)
    assert _digests(write_fit_result(tmp_path, result)) == SMALL_FIT_DIGESTS
    assert sum(s.evaluations for s in stages) == result.evaluations


def test_oracle_rows_are_unchanged():
    # the oracle writes its naive values into the same profile record as
    # the engine; its rows, read from that record, keep their bits, and so
    # do its allocations, events and topology
    params, zones, _spec = read_parameter_file(fixture_path("species.params"))
    dataset = parse_target_file(fixture_path("tree1.target.csv"))
    output = simulate_naive(params, zones, dataset, tree_index=0, cycles=6)
    records = {field: getattr(output, field) for field in ORACLE_DIGESTS}
    records.update((field, list(records[field])) for field in
                   ("trunk_profile", "ring_matrix", "branch_compartments"))
    assert {field: hashlib.sha256(repr(record).encode()).hexdigest()
            for field, record in records.items()} == ORACLE_DIGESTS
