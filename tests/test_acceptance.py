"""Acceptance suite: one test per criterion, each printing its verdict.

The heavyweight synthetic-identification fit is shared between the
round-trip and interval-semantics criteria through a module-scoped fixture.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from treesink.calibration import (apply_candidate, default_weights,
                                  fit_topology, objective)
from treesink.engine import simulate, start_state
from treesink.fileio import (parse_target_file, read_parameter_file,
                             write_parameter_file, write_target_file)
from treesink.oracle import simulate_naive
from treesink.sourcesink import solve_global_demand
from treesink.synthetic import (reference_fit_spec, reference_parameters,
                                reference_zone_rules, script_only_dataset,
                                tree1_script, tree2_script,
                                generate_synthetic_target, TREE1_RING_GUS,
                                TREE2_RING_GUS)

from conftest import fixture_path, src_env, step_with_rings
from test_factorization import FIXTURE_SCRIPTS, compare_outputs

TRUTH_CONTINUOUS = {"sp0": 0.015, "alpha": 0.73, "p_r": 2.3, "gamma": 2.95,
                    "lambda_mix": 0.13, "p_rg_2": 0.1, "p_rg_3": 0.05,
                    "p_rg_4": 0.01, "v_1": 560.0, "v_2": 1000.0}


def verdict(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def run_to_state(params, zones, dataset, tree_index=0):
    """Step a full run; return the final state and, per cycle, the
    CycleAllocation with the per-class ring increments of that cycle."""
    state = start_state([params], zones, dataset)
    cycles = [step_with_rings(state, params, zones, dataset, tree_index,
                              dataset.tree_age)
              for _ in range(dataset.tree_age)]
    return state, cycles


# ----------------------------------------------------------------------
# 1. implicit-demand solver against a bracketed bisection oracle
# ----------------------------------------------------------------------

def test_criterion_1_demand_solver_grid():
    def bisect(d_s, p_r, gamma, q):
        def f(d):
            return d - d_s - p_r * (q / d) ** gamma
        lo = d_s
        hi = d_s + p_r * (q / max(d_s, 1e-9)) ** gamma
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    start = time.perf_counter()
    points = 0
    worst = 0.0
    for d_s in (0.1, 1.0, 9.25, 40.0, 100.0):
        for p_r in (0.1, 1.0, 2.3, 10.0):
            for gamma in (0.0, 0.5, 1.0, 2.95, 4.0):
                for q in (0.01, 0.5, 3.0, 20.0, 100.0):
                    d = solve_global_demand(d_s, p_r, gamma, q)
                    worst = max(worst, abs(d - bisect(d_s, p_r, gamma, q)))
                    points += 1
    elapsed = time.perf_counter() - start
    verdict(1, points >= 500 and worst < 1e-10 and elapsed < 1.0,
            f"{points} grid points, worst |delta D| = {worst:.2e}, "
            f"{elapsed:.2f} s")


# ----------------------------------------------------------------------
# 2. conservation on the bundled fixtures
# ----------------------------------------------------------------------

def test_criterion_2_conservation():
    params, zones, _ = read_parameter_file(fixture_path("species.params"))
    ok = True
    details = []
    for name, index in (("tree1.target.csv", 0), ("tree2.target.csv", 1)):
        dataset = parse_target_file(fixture_path(name))
        state, cycles = run_to_state(params, zones, dataset, index)
        for alloc, incs in cycles:
            q, q_s, q_r = alloc.q, alloc.q_s, alloc.q_r
            ok &= abs(q_s + q_r - q) <= 1e-9 * max(q, 1e-30)
            ring_total = sum(cls.multiplicity * float(inc.sum())
                             for cls, inc in zip(state.classes, incs))
            ok &= abs(ring_total - q_r) <= 1e-9 * max(q_r, 1e-30)
        produced = params.q0 + sum(alloc.q for alloc, _ in cycles)
        materialized = (state.wood_totals()[1][0]
                        + state.total_leaf_mass_ever()[0]
                        + state.pending_fund[0])
        balance = abs(materialized - produced) / produced
        ok &= balance < 1e-6
        details.append(f"{name}: whole-run balance {balance:.2e}")
    verdict(2, ok, "; ".join(details))


# ----------------------------------------------------------------------
# 3. factorization equivalence on small fixtures
# ----------------------------------------------------------------------

def test_criterion_3_factorization_equivalence():
    params = reference_parameters()
    zones = reference_zone_rules()
    start = time.perf_counter()
    worst = 0.0
    for name, script in sorted(FIXTURE_SCRIPTS.items()):
        ds = script_only_dataset(script)
        factorized = simulate(params, zones, ds, tree_index=1)
        naive = simulate_naive(params, zones, ds, tree_index=1)
        worst = max(worst, compare_outputs(factorized, naive))
    elapsed = time.perf_counter() - start
    verdict(3, worst < 1e-9 and elapsed < 5.0,
            f"{len(FIXTURE_SCRIPTS)} fixtures, worst relative deviation "
            f"{worst:.2e}, {elapsed:.2f} s")


# ----------------------------------------------------------------------
# 4. Pressler and pool limits of the ring partition
# ----------------------------------------------------------------------

def test_criterion_4_pressler_limit():
    base = reference_parameters().with_values(
        p_rg=(1.0, 1.0, 1.0, 1.0),
        allom_a=(2.0, 2.0, 2.0, 2.0), allom_b=(0.0, 0.0, 0.0, 0.0))
    zones = reference_zone_rules()
    dataset = script_only_dataset(FIXTURE_SCRIPTS["branchy"])

    state, cycles = run_to_state(base.with_values(lambda_mix=1.0), zones,
                                 dataset, 1)
    _bounds, [s_above] = state.foliage_above()
    worst = 0.0
    ratio_ref = None
    for inc, s in zip(np.concatenate(cycles[-1][1]), s_above):
        if s == 0.0:
            worst = max(worst, abs(inc))
            continue
        r = inc / s
        if ratio_ref is None:
            ratio_ref = r
        worst = max(worst, abs(r - ratio_ref) / abs(ratio_ref))

    _state0, cycles0 = run_to_state(base.with_values(lambda_mix=0.0), zones,
                                    dataset, 1)
    incs0 = np.concatenate(cycles0[-1][1])
    spread = (incs0.max() - incs0.min()) / incs0.max()
    verdict(4, worst < 1e-9 and spread < 1e-9,
            f"foliage-proportionality deviation {worst:.2e}; "
            f"pool-mode spread {spread:.2e}")


# ----------------------------------------------------------------------
# 5. qualitative production/demand trajectory of the large tree
# ----------------------------------------------------------------------

def test_criterion_5_ratio_trajectory():
    params, zones, _ = read_parameter_file(fixture_path("species.params"))
    dataset = parse_target_file(fixture_path("tree2.target.csv"))
    out = simulate(params, zones, dataset, tree_index=1)
    ratios = out.ratio_series
    m = int(np.argmax(ratios))
    interior = 0 < m < len(ratios) - 1
    rising = all(ratios[i] < ratios[i + 1] for i in range(m))
    falling = all(ratios[i] > ratios[i + 1] for i in range(m, len(ratios) - 1))
    q_r = [a.q_r for a in out.allocations]
    rings_falling = all(q_r[i] > q_r[i + 1] for i in range(m, len(q_r) - 1))
    verdict(5, interior and rising and falling and rings_falling,
            f"single interior maximum at cycle {m + 1} "
            f"(peak ratio {max(ratios):.2f} g), ring allocation declines "
            f"after it: {rings_falling}")


# ----------------------------------------------------------------------
# 6 + 8. synthetic identification round-trip and interval semantics
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def roundtrip_fit():
    """The criterion's round trip: continuous initials pushed ±30% off the
    generating values, zone coefficients starting from the bundled species
    configuration (the reference-estimate starting point a refit uses)."""
    from dataclasses import replace

    params = reference_parameters()
    zones = reference_zone_rules()
    targets = [
        generate_synthetic_target(params, zones, tree1_script(), 0,
                                  ring_gus=TREE1_RING_GUS),
        generate_synthetic_target(params, zones, tree2_script(), 1,
                                  ring_gus=TREE2_RING_GUS),
    ]
    rng = np.random.default_rng(2024)

    def perturb(name, value):
        if name.startswith(("m2_", "a2_")):
            return value
        return value * (1.0 + 0.3 * (2.0 * rng.random() - 1.0))

    spec = replace(reference_fit_spec(seed=17, perturbation=perturb),
                   max_nfev=400)
    start = time.perf_counter()
    result = fit_topology(spec, params, zones, targets)
    elapsed = time.perf_counter() - start
    return result, spec, targets, elapsed


def test_criterion_6_synthetic_roundtrip(roundtrip_fit):
    result, _, _, elapsed = roundtrip_fit
    zones = reference_zone_rules()
    worst_name, worst = "", 0.0
    for name, truth in TRUTH_CONTINUOUS.items():
        rel = abs(result.continuous[name] - truth) / abs(truth)
        if rel > worst:
            worst_name, worst = name, rel
    truth_topo = {}
    for rule in zones.rules:
        truth_topo[f"m2_{rule.bearer_pa}_{rule.axillary_pa}"] = rule.m2
        if rule.branching:
            truth_topo[f"a2_{rule.bearer_pa}_{rule.axillary_pa}"] = rule.a2
    outside = []
    for name, (lo, hi) in result.intervals.items():
        tv = truth_topo[name]
        if (lo is not None and tv < lo - 1e-9) or \
                (hi is not None and tv > hi + 1e-9):
            outside.append(name)
    v_ordered = result.continuous["v_1"] < result.continuous["v_2"]
    ok = (worst <= 0.05 and not outside and v_ordered and elapsed < 600.0)
    verdict(6, ok,
            f"worst continuous {worst_name} at {worst:.2%}; "
            f"truths outside intervals: {outside or 'none'}; "
            f"v1 < v2: {v_ordered}; {elapsed:.0f} s")


def test_criterion_8_interval_semantics(roundtrip_fit):
    result, spec, targets, _ = roundtrip_fit
    params = reference_parameters()
    zones = reference_zone_rules()
    weights = default_weights(targets)
    merged_best = dict(result.topology)
    merged_best.update(result.continuous)

    def signatures(values):
        cand_p, cand_z = apply_candidate(params, zones, values)
        return tuple(
            simulate(cand_p, cand_z, ds, tree_index=i,
                     with_topology=False).structure_signature
            for i, ds in enumerate(targets))

    def outputs(values):
        """Every numeric output of each tree's run, and the objective."""
        cand_p, cand_z = apply_candidate(params, zones, values)
        runs = [simulate(cand_p, cand_z, ds, tree_index=i,
                         with_topology=False)
                for i, ds in enumerate(targets)]
        return [(out.structure_signature, out.allocations, out.trunk_profile,
                 out.ring_matrix, out.branch_compartments) for out in runs
                ] + [objective(values, params, zones, targets, weights)]

    ref_sigs = signatures(merged_best)
    ref_obj = objective(merged_best, params, zones, targets, weights)
    ref_outputs = outputs(merged_best)
    bounds = {p.name: (p.lower, p.upper) for p in spec.topological}
    checked = interior_failures = boundary_failures = 0
    for name, (lo, hi) in result.intervals.items():
        p_lo, p_hi = bounds[name]
        lo_eff = p_lo if lo is None else lo
        hi_eff = p_hi if hi is None else hi
        samples = np.linspace(lo_eff, hi_eff, 12)[1:-1]
        for x in samples:
            trial = dict(merged_best)
            trial[name] = float(x)
            checked += 1
            if signatures(trial) != ref_sigs:
                interior_failures += 1
                continue
            if objective(trial, params, zones, targets,
                         weights) != ref_obj:
                interior_failures += 1
        for edge, direction in ((lo, -1.0), (hi, +1.0)):
            if edge is None:
                continue
            x = edge + direction * 2e-3
            if not (p_lo <= x <= p_hi):
                continue
            trial = dict(merged_best)
            trial[name] = x
            if outputs(trial) == ref_outputs:
                boundary_failures += 1
    verdict(8, interior_failures == 0 and boundary_failures == 0,
            f"{checked} interior samples bit-identical; "
            f"{interior_failures} interior failures, "
            f"{boundary_failures} boundary failures")


# ----------------------------------------------------------------------
# 7. refit robustness under multiplicative ring noise
# ----------------------------------------------------------------------

def test_criterion_7_noisy_ring_refit():
    from dataclasses import replace as dc_replace
    from treesink.core import RingObservation

    params = reference_parameters()
    zones = reference_zone_rules()
    targets = [
        generate_synthetic_target(params, zones, tree1_script(), 0,
                                  ring_gus=TREE1_RING_GUS),
        generate_synthetic_target(params, zones, tree2_script(), 1,
                                  ring_gus=TREE2_RING_GUS),
    ]
    noise = np.random.default_rng(404)
    noisy = []
    for ds in targets:
        rows = tuple(
            RingObservation(r.gu_index, r.tree_age,
                            r.diameter_cm
                            * (1.0 + 0.05 * float(noise.standard_normal())))
            for r in ds.ring_matrix)
        noisy.append(dc_replace(ds, ring_matrix=rows))

    rng = np.random.default_rng(99)
    def perturb(name, value):
        if name.startswith(("m2_", "a2_")):
            return value
        return value * (1.0 + 0.2 * (2.0 * rng.random() - 1.0))
    spec = reference_fit_spec(seed=7, perturbation=perturb)
    from dataclasses import replace as spec_replace
    from treesink.calibration import AnnealSchedule
    spec = spec_replace(
        spec, schedule=AnnealSchedule(t0=0.5, cooling=0.7, steps_per_t=6,
                                      t_stop_ratio=0.1, step_scale=0.25),
        polish_rounds=2, stop_objective=None)
    stages = []
    start = time.perf_counter()
    result = fit_topology(spec, params, zones, noisy, stages)
    elapsed = time.perf_counter() - start
    assert sum(s.evaluations for s in stages) == result.evaluations
    r2 = result.r_squared.get("ring_diameter", float("nan"))
    verdict(7, r2 >= 0.9 and elapsed < 600.0,
            f"ring-class R^2 = {r2:.4f} under 5% noise, {elapsed:.0f} s")


# ----------------------------------------------------------------------
# 9. fit determinism through the command line
# ----------------------------------------------------------------------

def test_criterion_9_fit_determinism(tmp_path, params, zones, small_script):
    from treesink.calibration import AnnealSchedule, FitSpec, FreeParameter
    from treesink.synthetic import dataset_from_output

    out = simulate(params, zones, script_only_dataset(small_script))
    target_path = tmp_path / "small.target.csv"
    write_target_file(target_path, dataset_from_output(out, small_script))
    spec = FitSpec(
        continuous=[FreeParameter("v_1", 150.0, 2500.0, 700.0)],
        topological=[FreeParameter("m2_2_4", 0.0, 3.0, 0.8),
                     FreeParameter("a2_2_4", 0.0, 1.5, 0.4)],
        schedule=AnnealSchedule(t0=0.5, cooling=0.7, steps_per_t=5,
                                t_stop_ratio=0.1, step_scale=0.3),
        seed=12, polish_rounds=2, max_nfev=40)
    params_path = tmp_path / "species.params"
    write_parameter_file(params_path, params.with_values(v_env=(560.0,)),
                         zones, fit_spec=spec)

    blobs = []
    for run_dir in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "treesink.cli", "fit",
             "--params", str(params_path), "--target", str(target_path),
             "--out", str(tmp_path / run_dir), "--seed", "12"],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        blobs.append((tmp_path / run_dir / "fit_result.json").read_bytes())
    verdict(9, blobs[0] == blobs[1],
            f"two seeded fit invocations produced byte-identical JSON "
            f"({len(blobs[0])} bytes)")
