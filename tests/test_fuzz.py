"""Seeded fuzzing: every failure is typed and located.

One-value mutations of the bundled parameter and target files, tree2's
included, either parse or raise a ParseError naming the file and a line,
and the CLI's validate, simulate and (but on tree2) oracle answer them with
an exit code, never a traceback.  Parameter sets drawn inside the fit
bounds give, batched, what each gives alone, zone coefficients drawn over
their fit bounds simulate or fail typed, and drawn short runs give what the
enumerated oracle gives and grow every branch unit from its cycle's plan.  A run whose recorded plans all hold under other
zone coefficients repeats bit for bit, and batch columns that depart give
what each gives alone.  The seeds and case counts are fixed, so every run
checks the same cases.
"""

from pathlib import Path

import math

import numpy as np
import pytest

from treesink import cli, engine
from treesink.calibration import (FitSpec, apply_candidate,
                                  compute_intervals, default_weights,
                                  weighted_residuals)
from treesink.core import (TRUNK_PA, ParseError, TreesinkError,
                           TrunkScriptEntry)
from treesink.engine import simulate, simulate_batch
from treesink.fileio import parse_target_file, read_parameter_file
from treesink.oracle import simulate_naive
from treesink.synthetic import (generate_synthetic_target,
                                reference_fit_spec, reference_parameters,
                                reference_zone_rules, script_only_dataset,
                                tree1_script)
from treesink.topology import plan_holds

from conftest import check_interval_ends, fixture_path
from test_factorization import TOL, compare_outputs

#: what a mutated value becomes
TOKENS = ("", "abc", "nan", "inf", "-inf", "-1", "0", "-0", "1e308",
          "1e-308", "0.5", "3", "7", "2.5e3", "1, 2", "true", "PA9x1",
          "PA2x0", "=")
#: keys inserted on a random line
UNKNOWN_KEYS = ("bogus = 1", "init_k_beer = 1.0", "bound_q0 = 0.1, 2",
                "weight_bogus = 2", "zone_9_9 = 1, 1, 1")


def _mutations(name, seed, cases, inserted=0):
    """The texts of ``cases`` single-value mutations of the fixture
    ``name``'s data lines, then of ``inserted`` insertions of a line holding
    an unknown key."""
    lines = Path(fixture_path(name)).read_text().splitlines()
    data = [i for i, line in enumerate(lines)
            if line.strip() and line[0] not in "#["]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(cases):
        i = int(rng.choice(data))
        key, sep, values = lines[i].rpartition("=")
        cells = values.split(",")
        cells[rng.integers(len(cells))] = str(rng.choice(TOKENS))
        out.append(lines[:i] + [key + sep + ",".join(cells)] + lines[i + 1:])
    for _ in range(inserted):
        i = int(rng.integers(len(lines) + 1))
        out.append(lines[:i] + [str(rng.choice(UNKNOWN_KEYS))] + lines[i:])
    return ["\n".join(text) + "\n" for text in out]


PARAMS_CASES = _mutations("species.params", 11, 60, inserted=15)
TARGET_CASES = _mutations("tree1.target.csv", 12, 40)
TREE2_TARGET_CASES = _mutations("tree2.target.csv", 16, 40)


def _parses_or_is_located(read, path):
    try:
        read(path)
    except ParseError as exc:
        assert exc.path == path and exc.line is not None, str(exc)


def _answers(tmp_path, params, target, commands, tree_index="0"):
    """Each of ``commands`` (validate, simulate or oracle, the last two for
    3 cycles) on the files ``params`` and ``target`` exits 0, 1 or 2."""
    for command in commands:
        run = ["--cycles", "3", "--tree-index", tree_index,
               "--out", str(tmp_path / command)]
        assert cli.main([command, "--params", str(params),
                         "--target", str(target),
                         *(run if command != "validate" else [])]) \
            in (0, 1, 2), command


@pytest.mark.parametrize("text", PARAMS_CASES,
                         ids=map(str, range(len(PARAMS_CASES))))
def test_mutated_parameter_file(tmp_path, capsys, text):
    path = tmp_path / "species.params"
    path.write_text(text)
    _parses_or_is_located(read_parameter_file, path)
    _answers(tmp_path, path, fixture_path("tree1.target.csv"),
             ("validate", "simulate", "oracle"))
    capsys.readouterr()


@pytest.mark.parametrize("text", TARGET_CASES,
                         ids=map(str, range(len(TARGET_CASES))))
def test_mutated_target_file(tmp_path, capsys, text):
    path = tmp_path / "tree1.target.csv"
    path.write_text(text)
    _parses_or_is_located(parse_target_file, path)
    _answers(tmp_path, fixture_path("species.params"), path,
             ("validate", "simulate", "oracle"))
    capsys.readouterr()


@pytest.mark.parametrize("text", TREE2_TARGET_CASES,
                         ids=map(str, range(len(TREE2_TARGET_CASES))))
def test_mutated_tree2_target_file(tmp_path, capsys, text):
    path = tmp_path / "tree2.target.csv"
    path.write_text(text)
    _parses_or_is_located(parse_target_file, path)
    _answers(tmp_path, fixture_path("species.params"), path,
             ("validate", "simulate"), tree_index="1")
    capsys.readouterr()


@pytest.mark.parametrize("seed", range(4))
def test_batch_of_drawn_parameters_equals_single_runs(seed):
    # test_golden.py's 8-cycle script
    script = tuple(
        TrunkScriptEntry(g, 4 if g <= 2 else 5,
                         ((3, 1),) if g in (3, 5, 7) else
                         ((2, 1),) if g == 6 else ())
        for g in range(1, 9))
    dataset = script_only_dataset(script)
    params, zones = reference_parameters(), reference_zone_rules()
    free = reference_fit_spec().continuous
    rng = np.random.default_rng(seed)
    columns = [apply_candidate(params, zones, {
        p.name: float(rng.uniform(p.lower, p.upper)) for p in free})[0]
        for _ in range(4)]
    for p, batched in zip(columns,
                          simulate_batch(columns, zones, dataset)):
        try:
            alone = simulate(p, zones, dataset, with_topology=False,
                             with_signature=False)
        except TreesinkError as exc:
            assert type(batched) is type(exc)
            assert str(batched) == str(exc)
        else:
            assert vars(batched) == vars(alone)


def _zone_draws(seed, cases):
    """``cases`` draws of every zone rule's m2 and branching a2, with v_1,
    gamma and p_r, each uniform over its reference fit bounds."""
    spec = reference_fit_spec()
    free = spec.topological + [p for p in spec.continuous
                               if p.name in ("v_1", "gamma", "p_r")]
    rng = np.random.default_rng(seed)
    return [{p.name: float(rng.uniform(p.lower, p.upper)) for p in free}
            for _ in range(cases)]


ZONE_CASES = _zone_draws(13, 40)


@pytest.mark.parametrize("draw", ZONE_CASES,
                         ids=map(str, range(len(ZONE_CASES))))
def test_drawn_zone_coefficients_simulate_or_fail_typed(draw):
    params, zones = apply_candidate(reference_parameters(),
                                    reference_zone_rules(), draw)
    try:
        out = simulate(params, zones, script_only_dataset(tree1_script()))
    except TreesinkError:
        return
    assert out.cycles == 21
    assert all(math.isfinite(v) for row in (
        out.trunk_profile + out.ring_matrix + out.branch_compartments)
        for v in vars(row).values())


def _oracle_draws(seed, cases):
    """``cases`` short runs: a 4-8-cycle trunk script of 3-7 metamers and
    0-2 scripted branch PAs per entry, and every reference fit parameter
    uniform over its bounds (every zone's m2 over [0, 3] and a2 over
    [0, 1.5]), with v_2 up to 5,000."""
    spec = reference_fit_spec()
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(cases):
        script = tuple(TrunkScriptEntry(g, int(rng.integers(3, 8)), tuple(
            (int(pa), 1) for pa in sorted(rng.choice(
                [2, 3, 4], size=int(rng.integers(3)), replace=False))))
            for g in range(1, int(rng.integers(4, 9)) + 1))
        values = {p.name: float(rng.uniform(
            p.lower, 5000.0 if p.name == "v_2" else p.upper))
            for p in spec.continuous + spec.topological}
        draws.append((script, values))
    return draws


ORACLE_CASES = _oracle_draws(14, 60)


def _engine_run(script, values, engine):
    params, zones = apply_candidate(reference_parameters(),
                                    reference_zone_rules(), values)
    return engine(params, zones, script_only_dataset(script), tree_index=1)


@pytest.mark.parametrize("script, values", ORACLE_CASES,
                         ids=map(str, range(len(ORACLE_CASES))))
def test_drawn_runs_match_the_enumerated_oracle(script, values):
    try:
        factorized = _engine_run(script, values, simulate)
    except TreesinkError as exc:
        with pytest.raises(TreesinkError) as err:
            _engine_run(script, values, simulate_naive)
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
        return
    # equal branch counts, every value within the factorization gate
    assert compare_outputs(factorized,
                           _engine_run(script, values, simulate_naive)) < TOL


def test_the_oracle_draws_reach_partial_runs_and_slack():
    """The drawn runs distribute axes over partly taken runs and leave
    slack, which the fixed factorization cases do not."""
    partial = slack = 0
    for script, values in ORACLE_CASES:
        try:
            output = _engine_run(script, values, simulate)
        except TreesinkError:
            continue
        slack += sum("slack" in note for note in output.notes)
        partial += sum(0 < taken < group.positions
                       for plan in output.decisions
                       for _, groups, counts, _ in plan.zone_groups
                       for group, taken in zip(groups, counts))
    assert partial > 0 and slack > 0


def _units_follow_their_plans(output) -> int:
    """Check that every branch class of ``output`` grew one unit a cycle
    from its birth to the end, each with the zone layout its birth cycle's
    plan gave its PA, and that each unit's zone counts sum to its metamer
    count; the trunk's units have no zone counts.  Returns the branch units
    checked."""
    checked = 0
    for cls in output.topology["axis_classes"]:
        units = cls["growth_units"]
        if cls["pa"] == TRUNK_PA:
            assert all(u["zone_counts"] is None for u in units)
            continue
        assert [u["birth_cycle"] for u in units] == list(
            range(cls["birth_cycle"], output.cycles + 1))
        for u in units:
            layout = output.decisions[u["birth_cycle"] - 1].gu_layouts[
                cls["pa"]]
            assert u["zone_counts"] == {str(k): v for k, v in sorted(layout)}
            assert sum(u["zone_counts"].values()) == u["metamer_count"]
            checked += 1
    return checked


def test_branch_units_grow_one_a_cycle_with_their_plans_layout():
    """The fixture trees' full runs and the drawn short runs: a branch
    unit's layout is read from its birth cycle's plan, which holds only
    because every branch class grows one unit a cycle with its PA's
    layout."""
    params, zones, _spec = read_parameter_file(fixture_path("species.params"))
    checked = 0
    for tree_index in (0, 1):
        dataset = parse_target_file(
            fixture_path(f"tree{tree_index + 1}.target.csv"))
        checked += _units_follow_their_plans(
            simulate(params, zones, dataset, tree_index=tree_index))
    for script, values in ORACLE_CASES:
        try:
            output = _engine_run(script, values, simulate)
        except TreesinkError:
            continue
        checked += _units_follow_their_plans(output)
    assert checked > 1000


#: seed 15's runs, and seed 27's, whose probes also reach departures of
#: the pending plan alone
REPLAY_CASES = _oracle_draws(15, 25) + _oracle_draws(27, 10)


def test_a_run_whose_plans_hold_repeats_bit_for_bit():
    """Zone-coefficient probes of drawn short runs: wherever every plan the
    run recorded holds under the probe's zone rules, a fresh run at the
    probe gives the recorded residuals bit for bit, so a fit may reuse
    them.  Some probes change only the pending plan's outcome.  Each
    structural interval is the range where every plan holds: at its ends
    inside the bounds they all hold, one float outward one fails."""
    params, zones = reference_parameters(), reference_zone_rules()
    topological = reference_fit_spec().topological
    spec = FitSpec(continuous=[], topological=topological)
    rng = np.random.default_rng(17)
    held = departed = pending = ends = 0
    for script, values in REPLAY_CASES:
        try:
            target = generate_synthetic_target(params, zones, script, 0)
            weights = default_weights([target])
            recorded = weighted_residuals(values, params, zones, [target],
                                          weights)
        except TreesinkError:
            continue
        run = simulate(*apply_candidate(params, zones, values), target,
                       with_topology=False, with_signature=False)
        ends += check_interval_ends(
            params, zones, values, topological,
            compute_intervals(spec, values, params, zones, [target]),
            run.decisions)
        for _ in range(6):
            p = topological[int(rng.integers(len(topological)))]
            step = float(rng.choice([1e-4, 1e-2, 0.2])) * (p.upper - p.lower)
            probe = {**values, p.name: float(np.clip(
                values[p.name] + step * rng.standard_normal(), p.lower,
                p.upper))}
            cand, cand_zones = apply_candidate(params, zones, probe)
            holds = [plan_holds(plan, cand_zones, cand)
                     for plan in run.decisions]
            if all(holds):
                held += 1
                assert weighted_residuals(probe, params, zones, [target],
                                          weights).tobytes() \
                    == recorded.tobytes(), probe
            else:
                departed += 1
                pending += all(holds[:-1])
    assert held > 50 and departed > 10 and pending > 0 and ends > 100


def test_departing_batch_columns_equal_their_single_runs(monkeypatch):
    """Drawn batches of a short run and three columns a small step away in
    one continuous value: some stay batched, some depart and fall back to
    single runs, and every column gives what it gives alone."""
    params, zones = reference_parameters(), reference_zone_rules()
    continuous = [p.name for p in reference_fit_spec().continuous]
    rng = np.random.default_rng(18)
    runs, run = [], engine._run

    def counted(columns, *args):
        runs.append(len(columns))
        return run(columns, *args)

    monkeypatch.setattr(engine, "_run", counted)
    fell_back = []
    for script, values in _oracle_draws(16, 20):
        columns = [values]
        for name in rng.choice(continuous, size=3):
            step = 10 ** rng.uniform(-4, -1) * rng.choice([-1.0, 1.0])
            columns.append({**values, name: values[name] * (1 + step)})
        applied = [apply_candidate(params, zones, v)[0] for v in columns]
        _, cand_zones = apply_candidate(params, zones, values)
        dataset = script_only_dataset(script)
        runs.clear()
        batched = simulate_batch(applied, cand_zones, dataset, tree_index=1)
        fell_back.append(len(runs) > 1)
        for p, result in zip(applied, batched):
            try:
                alone = simulate(p, cand_zones, dataset, tree_index=1,
                                 with_topology=False, with_signature=False)
            except TreesinkError as exc:
                assert (type(result), str(result)) == (type(exc), str(exc))
            else:
                assert vars(result) == vars(alone)
    assert 0 < sum(fell_back) < len(fell_back)
