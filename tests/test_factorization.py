"""Factorized engine versus the enumerated-tree reference on small trees.

The reference engine builds every metamer explicitly, so agreement here
checks the whole cohort bookkeeping: multiplicities, the grouped axis
distribution, the foliage-above scans and the ring pools.  Each factorized
run's topology.json, topology and signature are also checked against the
reference walk of its tree (``conftest.check_topology``).
"""

import re
import time
import warnings
from pathlib import Path

import pytest

from treesink.core import (SimulationError, TrunkScriptEntry, ZoneRule,
                           ZoneRuleSet, validate_parameters)
from treesink.engine import PRESSLER_DROP, simulate
from treesink.fileio import read_parameter_file
from treesink.oracle import simulate_naive
from treesink.synthetic import script_only_dataset, tree1_script, tree2_script

from conftest import check_topology, fixture_path

TOL = 1e-9

FIXTURE_SCRIPTS = {
    "mixed": (
        TrunkScriptEntry(1, 3),
        TrunkScriptEntry(2, 4, ((4, 1),)),
        TrunkScriptEntry(3, 4, ((3, 1),)),
        TrunkScriptEntry(4, 5, ((2, 1), (4, 1))),
        TrunkScriptEntry(5, 5, ((3, 2),)),
        TrunkScriptEntry(6, 5),
    ),
    "branchy": (
        TrunkScriptEntry(1, 4),
        TrunkScriptEntry(2, 5, ((2, 1),)),
        TrunkScriptEntry(3, 5, ((2, 2),)),
        TrunkScriptEntry(4, 6, ((3, 2), (4, 1))),
        TrunkScriptEntry(5, 6, ((2, 1), (3, 1))),
        TrunkScriptEntry(6, 6),
    ),
    "sparse": (
        TrunkScriptEntry(1, 3),
        TrunkScriptEntry(2, 3),
        TrunkScriptEntry(3, 4, ((3, 1),)),
        TrunkScriptEntry(4, 4),
        TrunkScriptEntry(5, 4, ((4, 2),)),
    ),
}
ENVIRONMENTS = {"reference": 1000.0, "vigorous": 4000.0, "suppressed": 120.0}


def rel_dev(a, b):
    """0 for equal values, else the difference relative to the larger
    magnitude, however small."""
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def compare_outputs(factorized, naive):
    worst = 0.0
    assert factorized.cycles == naive.cycles
    assert factorized.events == naive.events
    for af, an in zip(factorized.allocations, naive.allocations):
        for field in ("q", "d", "d_s", "d_r", "q_s", "q_r", "ratio",
                      "s_blade"):
            worst = max(worst, rel_dev(getattr(af, field),
                                       getattr(an, field)))
    tf = {t.gu_index: t for t in factorized.trunk_profile}
    tn = {t.gu_index: t for t in naive.trunk_profile}
    assert tf.keys() == tn.keys()
    for k in tf:
        for field in ("mass_g", "diameter_cm", "length_cm"):
            worst = max(worst, rel_dev(getattr(tf[k], field),
                                       getattr(tn[k], field)))
    rf = {(r.gu_index, r.tree_age): r.diameter_cm
          for r in factorized.ring_matrix}
    rn = {(r.gu_index, r.tree_age): r.diameter_cm for r in naive.ring_matrix}
    assert rf.keys() == rn.keys()
    for k in rf:
        worst = max(worst, rel_dev(rf[k], rn[k]))
    bf = {(b.gu_index, b.pa): b for b in factorized.branch_compartments}
    bn = {(b.gu_index, b.pa): b for b in naive.branch_compartments}
    assert bf.keys() == bn.keys()
    for k in bf:
        assert bf[k].count == bn[k].count
        for field in ("wood_g", "leaf_g", "axis_length_cm"):
            worst = max(worst, rel_dev(getattr(bf[k], field),
                                       getattr(bn[k], field)))
    worst = max(worst, rel_dev(factorized.total_wood_g, naive.total_wood_g))
    worst = max(worst, rel_dev(factorized.total_leaf_ever_g,
                               naive.total_leaf_ever_g))
    return worst


@pytest.mark.parametrize("script_name", sorted(FIXTURE_SCRIPTS))
@pytest.mark.parametrize("env_name", sorted(ENVIRONMENTS))
def test_factorized_engine_matches_enumerated_reference(
        params, zones, script_name, env_name, tmp_path):
    p = params.with_values(v_env=(560.0, ENVIRONMENTS[env_name]))
    ds = script_only_dataset(FIXTURE_SCRIPTS[script_name])
    factorized = simulate(p, zones, ds, tree_index=1)
    naive = simulate_naive(p, zones, ds, tree_index=1)
    assert compare_outputs(factorized, naive) < TOL
    check_topology(factorized, tmp_path)


def test_multiplicities_match_enumerated_axis_counts(params, zones):
    ds = script_only_dataset(FIXTURE_SCRIPTS["branchy"])
    p = params.with_values(v_env=(560.0, 4000.0))
    factorized = simulate(p, zones, ds, tree_index=1)
    naive = simulate_naive(p, zones, ds, tree_index=1)
    fact_counts = {}
    for cls in factorized.topology["axis_classes"]:
        key = f"{cls['pa']}_{cls['birth_cycle']}"
        fact_counts[key] = fact_counts.get(key, 0) + cls["multiplicity"]
    assert fact_counts == naive.topology["axis_counts"]


def test_reference_engine_is_slower_but_fast_enough(params, zones):
    ds = script_only_dataset(FIXTURE_SCRIPTS["branchy"])
    p = params.with_values(v_env=(560.0, 4000.0))
    start = time.perf_counter()
    simulate_naive(p, zones, ds, tree_index=1)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("kwargs, message", [
    ({"cycles": 0}, "need at least one growth cycle"),
    ({"tree_index": 5}, "tree index 5 but only 2 environment factors"),
    ({"cycles": 99}, "99 cycles requested but the trunk script ends at 6"),
    ({"tree_index": -1}, "negative tree index -1"),
])
def test_reference_engine_checks_the_run_request(params, zones, kwargs,
                                                  message):
    ds = script_only_dataset(FIXTURE_SCRIPTS["branchy"])
    for run in (simulate, simulate_naive):
        with pytest.raises(SimulationError) as err:
            run(params, zones, ds, **kwargs)
        assert str(err.value) == message


def test_an_in_cycle_failure_names_its_cycle_on_both_engines(params, zones):
    """A run whose production diverges in its third cycle fails alike on
    both engines: the same type and message, the cycle named once."""
    p = params.with_values(v_env=(1e14, 1e14))
    ds = script_only_dataset(tree1_script()[:7])
    failures = []
    for run in (simulate, simulate_naive):
        with pytest.raises(SimulationError) as err:
            run(p, zones, ds)
        failures.append((type(err.value), str(err.value), err.value.cycle))
    assert failures[0] == failures[1]
    assert failures[0][1:] == (
        "cycle 3: production diverged: 1686322566191715.8", 3)


def five_pas(params, zones):
    """pa_max = 5 (each per-PA vector repeats its PA-4 entry, PA-4 units
    get an unbranched zone), and its zone rules without and with a zone of
    PA-5 laterals on PA-2 units."""
    p = params.with_values(pa_max=5, **{
        name: getattr(params, name) + getattr(params, name)[-1:]
        for name in ("p_s", "p_rg", "allom_a", "allom_b")})
    rules = zones.rules + (ZoneRule(4, 0, m1=1.0, m2=1.02, m_max=7),)
    zone_2_5 = ZoneRule(2, 5, m1=1.0, m2=1.1, m_max=2, a1=0.0, a2=0.6)
    return p, ZoneRuleSet(rules), ZoneRuleSet(rules + (zone_2_5,))


def test_a_zone_of_axillary_pa_5_is_grown(params, zones):
    # the acrotonic order reaches every axillary PA, not only 2 to 4
    p, without, with_5 = five_pas(params, zones)
    assert validate_parameters(p, with_5) == []
    assert [r.axillary_pa for r in with_5.zones_of(2)] == [0, 5, 4, 3, 2]
    ds = script_only_dataset(tree2_script())
    signatures = [simulate(p, z, ds, tree_index=1,
                           cycles=20).structure_signature
                  for z in (without, with_5)]
    assert signatures[0] != signatures[1]


@pytest.mark.parametrize("script_name", ["mixed", "branchy"])
def test_five_pas_match_enumerated_reference(params, zones, script_name):
    p, _, with_5 = five_pas(params, zones)
    ds = script_only_dataset(FIXTURE_SCRIPTS[script_name])
    factorized = simulate(p, with_5, ds, tree_index=1)
    naive = simulate_naive(p, with_5, ds, tree_index=1)
    assert any(key.startswith("5_") for key in naive.topology["axis_counts"])
    assert compare_outputs(factorized, naive) < TOL


def test_a_valid_file_whose_foliage_demand_underflows(tmp_path):
    # a seed of 1e-26 g and a trunk allometry of 1e-280 make trunk
    # internodes near 1e-301 cm long under about 1e-24 cm² of leaves: the
    # products underflow, so the foliage-weighted ring demand is zero in
    # cycles 1 and 2 and both engines drop the Pressler term, as an event
    # and not as a warning
    text = Path(fixture_path("species.params")).read_text(encoding="utf-8")
    for key, value in (("q0", "1e-26"), ("allom_a", "1e-280, 3.0, 3.0, 0.5")):
        text, edits = re.subn(rf"^{key} = .*$", f"{key} = {value}", text,
                              flags=re.M)
        assert edits == 1
    path = tmp_path / "underflow.params"
    path.write_text(text, encoding="utf-8")
    params, zones, _ = read_parameter_file(str(path))
    dataset = script_only_dataset(tree1_script())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factorized, naive = (run(params, zones, dataset, cycles=6)
                             for run in (simulate, simulate_naive))
    assert factorized.events == naive.events == [
        (1, PRESSLER_DROP, None, None), (2, PRESSLER_DROP, None, None)]
    # values this small are compared relative to themselves
    assert compare_outputs(factorized, naive) < TOL
