"""Bundled synthetic material: a reference species configuration and two
deterministic trunk scripts ("tree-1-like", 21 cycles, and "tree-2-like",
46 cycles) plus target generation, so the full simulate/fit pipeline can be
exercised without field data.

The reference configuration describes a shade-tolerant broadleaf with
long/short shoot dimorphism: scale-free values (allometry exponent, sinks,
ring exponent, foliage-mixing coefficient, internode/leaf ratios, specific
leaf weight schedule) sit at the package defaults, and the per-tree
environment factors are in this package's gram convention (g·m⁻² per
cycle), the younger tree's set below the older one's.
"""

from __future__ import annotations

import os

from .calibration import AnnealSchedule, FitSpec, FreeParameter
from .core import (BranchObservation, GrowthParameters, TargetDataset,
                   TrunkScriptEntry, ZoneRuleSet, default_zone_rules)
from .engine import SimulationOutput, simulate

#: ring-instrumented trunk growth units of the bundled trees
TREE1_RING_GUS = (2, 5, 8, 11, 14, 17)
TREE2_RING_GUS = (2, 6, 10, 14, 18, 22, 26, 30, 34, 38, 42, 46)


def reference_parameters() -> GrowthParameters:
    return GrowthParameters()


def reference_zone_rules() -> ZoneRuleSet:
    return default_zone_rules()


def _metamer_count(g: int, age: int) -> int:
    if g <= 2:
        return 4
    if g <= 4:
        return 5
    if g <= 8:
        return 6
    if g <= max(10, age - 16):
        return 8
    if g <= age - 6:
        return 7
    return 6


_EARLY_BRANCHES = {3: ((4, 1),), 4: ((4, 1),), 5: ((4, 1),),
                   6: ((3, 1),), 8: ((3, 1),)}


def tree2_script() -> tuple[TrunkScriptEntry, ...]:
    """46-cycle trunk script: short shoots on the young stem ramp the bud
    demand up gently, then a steady mix of long (PA 2, PA 3) and short
    (PA 4) branches; late units keep adding branches so the bud population
    keeps growing through the decline phase."""
    entries = []
    for g in range(1, 47):
        branches: list[tuple[int, int]] = []
        if g in _EARLY_BRANCHES:
            branches.extend(_EARLY_BRANCHES[g])
        elif 9 <= g <= 34:   # by g % 4
            branches += ([(2, 1)], [(3, 1)], [(3, 1), (4, 1)], [(3, 2)])[g % 4]
        elif 35 <= g <= 44:
            branches.append((3, 1) if g % 2 == 1 else (4, 1))
        entries.append(TrunkScriptEntry(
            gu_index=g, metamer_count=_metamer_count(g, 46),
            branches=tuple(branches)))
    return tuple(entries)


def tree1_script() -> tuple[TrunkScriptEntry, ...]:
    """21-cycle trunk script for the younger, more suppressed tree."""
    entries = []
    for g in range(1, 22):
        branches: list[tuple[int, int]] = []
        if g in _EARLY_BRANCHES:
            branches.extend(_EARLY_BRANCHES[g])
        elif 9 <= g <= 18:   # by g % 4
            branches.append(((3, 1), (2, 1), (3, 1), (4, 1))[g % 4])
        elif g == 19:
            branches.append((3, 1))
        entries.append(TrunkScriptEntry(
            gu_index=g, metamer_count=_metamer_count(g, 21),
            branches=tuple(branches)))
    return tuple(entries)


def script_only_dataset(script) -> TargetDataset:
    return TargetDataset(trunk_script=tuple(script))


def dataset_from_output(output: SimulationOutput, script,
                        ring_gus=None) -> TargetDataset:
    """Shape a simulation into a measurement dataset: full trunk profile,
    ring histories of the instrumented growth units, averaged order-2
    branch compartments."""
    rings = tuple(r for r in output.ring_matrix
                  if ring_gus is None or r.gu_index in ring_gus)
    branches = tuple(BranchObservation(b.gu_index, b.pa, b.wood_g, b.leaf_g)
                     for b in output.branch_compartments)
    return TargetDataset(trunk_script=tuple(script),
                         trunk_profile=tuple(output.trunk_profile),
                         ring_matrix=rings, branch_compartments=branches)


def generate_synthetic_target(params: GrowthParameters, zones: ZoneRuleSet,
                              script, tree_index: int,
                              ring_gus=None) -> TargetDataset:
    """Simulate a tree with the given configuration and freeze its outputs
    as a target dataset (the synthetic-identification ground truth)."""
    output = simulate(params, zones, script_only_dataset(script),
                      tree_index=tree_index)
    return dataset_from_output(output, script, ring_gus=ring_gus)


def reference_fit_spec(n_trees: int = 2, seed: int = 1,
                       perturbation=None) -> FitSpec:
    """Fit setup covering the ten continuous and ten zone coefficients.

    By default every initial sits at the reference species value (the
    starting point a refit against new measurements would use);
    ``perturbation`` maps (name, reference value) to a different initial,
    e.g. a seeded ±30% factor for round-trip exercises.
    """
    params = reference_parameters()
    zones = reference_zone_rules()
    truth = {
        "sp0": params.sp0, "alpha": params.alpha, "p_r": params.p_r,
        "gamma": params.gamma, "lambda_mix": params.lambda_mix,
        "p_rg_2": params.p_rg[1], "p_rg_3": params.p_rg[2],
        "p_rg_4": params.p_rg[3],
    }
    for t in range(n_trees):
        truth[f"v_{t + 1}"] = params.v_env[t]
    bounds = {
        "sp0": (0.003, 0.08), "alpha": (0.45, 0.95), "p_r": (0.2, 12.0),
        "gamma": (0.5, 5.0), "lambda_mix": (0.0, 1.0),
        "p_rg_2": (0.005, 0.6), "p_rg_3": (0.005, 0.6),
        "p_rg_4": (0.001, 0.3),
    }
    for t in range(n_trees):
        bounds[f"v_{t + 1}"] = (150.0, 2500.0)
    continuous = []
    for name, value in truth.items():
        lo, hi = bounds[name]
        init = perturbation(name, value) if perturbation is not None \
            else value
        init = min(max(init, lo), hi)
        continuous.append(FreeParameter(name, lo, hi, init))

    topo_truth = {}
    for rule in zones.rules:
        topo_truth[f"m2_{rule.bearer_pa}_{rule.axillary_pa}"] = rule.m2
        if rule.branching:
            topo_truth[f"a2_{rule.bearer_pa}_{rule.axillary_pa}"] = rule.a2
    topological = []
    for name, value in sorted(topo_truth.items()):
        lo, hi = (0.0, 3.0) if name.startswith("m2_") else (0.0, 1.5)
        init = perturbation(name, value) if perturbation is not None \
            else min(max(value, lo), hi)
        topological.append(FreeParameter(name, lo, hi,
                                         min(max(init, lo), hi)))
    return FitSpec(
        continuous=continuous, topological=topological,
        schedule=AnnealSchedule(t0=0.5, cooling=0.8, steps_per_t=10,
                                t_stop_ratio=5e-2, step_scale=0.3),
        seed=seed, refit_every=4, max_nfev=60,
        stop_objective=1e-12, polish_rounds=5)


def write_bundled_fixtures(out_dir) -> list[str]:
    """Regenerate the repo's fixture files: the species parameter file (with
    a ready-to-run [fit] section) and the two synthetic targets."""
    from .fileio import write_parameter_file, write_target_file

    os.makedirs(out_dir, exist_ok=True)
    params = reference_parameters()
    zones = reference_zone_rules()
    paths = []

    params_path = os.path.join(out_dir, "species.params")
    write_parameter_file(params_path, params, zones,
                         fit_spec=reference_fit_spec())
    paths.append(params_path)

    for name, script, index, ring_gus in (
            ("tree1.target.csv", tree1_script(), 0, TREE1_RING_GUS),
            ("tree2.target.csv", tree2_script(), 1, TREE2_RING_GUS)):
        dataset = generate_synthetic_target(params, zones, script, index,
                                            ring_gus=ring_gus)
        path = os.path.join(out_dir, name)
        write_target_file(path, dataset)
        paths.append(path)
    return paths
