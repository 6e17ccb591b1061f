import json
import math
import os

import pytest

from treesink import engine
from treesink.calibration import apply_candidate
from treesink.core import TrunkScriptEntry
from treesink.fileio import write_simulation_output
from treesink.synthetic import (reference_parameters, reference_zone_rules,
                                script_only_dataset)
from treesink.topology import OrganogenesisPlan, plan_holds

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def src_env():
    """The environment for a subprocess that imports the package from
    ``src`` (prepended to any PYTHONPATH already set)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.fixture
def params():
    return reference_parameters()


@pytest.fixture
def zones():
    return reference_zone_rules()


@pytest.fixture
def small_script():
    """6-cycle trunk script mixing scripted branch kinds."""
    return (
        TrunkScriptEntry(1, 3),
        TrunkScriptEntry(2, 4, ((4, 1),)),
        TrunkScriptEntry(3, 4, ((3, 1),)),
        TrunkScriptEntry(4, 5, ((2, 1), (4, 1))),
        TrunkScriptEntry(5, 5, ((3, 2),)),
        TrunkScriptEntry(6, 5),
    )


@pytest.fixture
def small_dataset(small_script):
    return script_only_dataset(small_script)


def fixture_path(name):
    return os.path.join(FIXTURE_DIR, name)


def check_interval_ends(params, zones, values, free, intervals, plans):
    """Check the structural intervals of the zone coefficients ``free`` at
    ``values`` against :func:`plan_holds`: at each end strictly inside its
    bounds every plan of ``plans`` (the runs' decisions at ``values``)
    holds, and one float outward some plan fails.  Returns the ends
    checked."""
    ends = 0
    for p in free:
        for end, bound, outward in zip(intervals[p.name], (p.lower, p.upper),
                                       (-math.inf, math.inf)):
            if end in (None, bound):
                continue
            ends += 1
            for x, held in ((end, True), (math.nextafter(end, outward), False)):
                cand, cand_zones = apply_candidate(params, zones,
                                                   {**values, p.name: x})
                assert all(plan_holds(plan, cand_zones, cand)
                           for plan in plans) == held, (p.name, x)
    return ends


def grow_unit(state, cls, cycle, layout, *values):
    """Add branch class ``cls``'s next growth unit at ``cycle``, with the
    zone ``layout`` that the state's plan for that cycle gives its PA (the
    plan is recorded here): a hand-built state keeps its units' layouts
    where a run keeps them, in the plans it expanded."""
    plans = state.decisions[0]
    while len(plans) < cycle:
        plans.append(OrganogenesisPlan(0.0))
    plans[cycle - 1].gu_layouts[cls.pa] = layout
    cls.append_gu(cycle, sum(c for _, c in layout), *values)


def step_with_rings(state, params, zones, dataset, tree_index, final_cycle):
    """Run one engine step of a one-column state; return its
    CycleAllocation and, per axis class, the per-instance ring increments of
    that cycle (the change in each metamer's cumulative ring mass across the
    step)."""
    before = [cls.cum_ring[0].copy() for cls in state.classes]
    [alloc] = engine.step(state, [params], zones, dataset, tree_index,
                          final_cycle)
    incs = []
    for i, cls in enumerate(state.classes):
        inc = cls.cum_ring[0].copy()
        if i < len(before):
            inc[:before[i].size] -= before[i]
        incs.append(inc)
    return alloc, incs


def reference_topology(state) -> dict:
    """The topology dict of a finished tree, built by walking its classes
    and their growth units (``TreeState.growth_units``) into dicts and
    lists: a reference independent of the tree's own text renderer."""
    return {"cycle": state.cycle, "axis_classes": [{
        "pa": cls.pa,
        "birth_cycle": cls.birth_cycle,
        "multiplicity": cls.multiplicity,
        "growth_units": [{
            "rank": rank,
            "birth_cycle": birth,
            "metamer_count": count,
            "zone_counts": (None if layout is None else
                            {str(k): v for k, v in sorted(layout)}),
            "borne_axes": [{
                "metamer_rank": row,
                "axillary_pa": state.classes[child].pa,
                "axis_birth_cycle": state.classes[child].birth_cycle,
                "per_instance_count": 1} for row, child in laterals],
        } for rank, birth, _start, count, layout, laterals
            in state.growth_units(cls.index)],
    } for cls in state.classes]}


def reference_signature(topology: dict) -> tuple:
    """The structure signature that a :func:`reference_topology` dict
    describes: per class (PA, birth cycle, multiplicity, its units), per
    unit (rank, birth cycle, metamer count, zone layout by zone PA or None,
    its laterals as (metamer rank, child class key, 1))."""
    return tuple((cls["pa"], cls["birth_cycle"], cls["multiplicity"], tuple(
        (gu["rank"], gu["birth_cycle"], gu["metamer_count"],
         None if gu["zone_counts"] is None else tuple(sorted(
             (int(k), v) for k, v in gu["zone_counts"].items())),
         tuple((b["metamer_rank"], (b["axillary_pa"], b["axis_birth_cycle"]),
                b["per_instance_count"]) for b in gu["borne_axes"]))
        for gu in cls["growth_units"])) for cls in topology["axis_classes"])


def check_topology(output, out_dir) -> None:
    """Check a full engine run against the references of its tree: the
    topology.json it writes into ``out_dir`` is ``json.dumps(reference,
    indent=1, sort_keys=True)`` and a newline, ``output.topology`` equals
    the reference and ``output.structure_signature`` the reference's
    signature."""
    reference = reference_topology(output.topology_tree)
    write_simulation_output(out_dir, output)
    with open(os.path.join(out_dir, "topology.json"), "rb") as fh:
        assert fh.read() == (json.dumps(reference, indent=1, sort_keys=True)
                             + "\n").encode()
    assert output.topology == reference
    assert output.structure_signature == reference_signature(reference)
