"""Seeded fuzzing: every failure is typed and located.

One-value mutations of the bundled parameter and target files, tree2's
included, either parse or raise a ParseError naming the file and a line,
and the CLI's validate, simulate and oracle, and validate and fit on a copy
with the fit schedule capped, answer them with an exit code, never a
traceback: 1 from each command wherever validate on the same file gives 1.
Parameter sets drawn inside the fit bounds give, batched, what each gives
alone, zone coefficients drawn over their fit bounds simulate or fail
typed, and drawn short runs give what the enumerated oracle gives and grow
every branch unit from its cycle's plan; each finished run of both draws
writes the topology.json, topology and signature of its tree's reference
walk (``conftest.check_topology``).  A run whose recorded plans all
hold under other zone coefficients repeats bit for bit, and batch columns
that depart give what each gives alone.  At each finite end of each range
(core.RANGES) of each number of the bundled parameter file, one number
outside fails every command at its line, and the end, or one float inside
an open end, fails on a relation alone, at a line, or validates and gives
the same short run, or the same failure, on both engines.  The seeds and case
counts are fixed, so every run checks the same cases.
"""

from pathlib import Path

import math
import re

import numpy as np
import pytest

from treesink import cli, engine
from treesink.calibration import (AnnealSchedule, FitSpec, apply_candidate,
                                  compute_intervals, default_weights,
                                  weighted_residuals)
from treesink.core import (RANGES, TRUNK_PA, ParseError, TreesinkError,
                           TrunkScriptEntry, ValidationError)
from treesink.engine import SLACK, simulate, simulate_batch
from treesink.fileio import (_FIT_SETTINGS, parse_target_file,
                             read_parameter_file)
from treesink.oracle import simulate_naive
from treesink.synthetic import (generate_synthetic_target,
                                reference_fit_spec, reference_parameters,
                                reference_zone_rules, script_only_dataset,
                                tree1_script)
from treesink.topology import plan_holds

from conftest import check_interval_ends, check_topology, fixture_path
from test_core import INTEGER_ROWS
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


#: the bundled targets, in their trees' order
TREES = (fixture_path("tree1.target.csv"), fixture_path("tree2.target.csv"))
#: [fit] settings rewritten after each mutation, so that a drawn file's
#: fit makes one least-squares evaluation and, at any objective below 1e300,
#: stops there: no annealing, final refit or polish
FIT_CAPS = {"anneal_steps": "0", "anneal_t_stop": "1", "max_nfev": "1",
            "stop_objective": "1e300", "polish_rounds": "0"}


def _capped(text):
    """The parameter file ``text`` with each FIT_CAPS key's value set."""
    for key, value in FIT_CAPS.items():
        text, found = re.subn(rf"^{key}\s*=.*$", f"{key} = {value}", text,
                              flags=re.M)
        assert found == 1, key
    return text


def _codes(tmp_path, params, targets, tree, commands):
    """Each of ``commands`` on the parameter file ``params``: validate and
    fit on every target, simulate and oracle on tree ``tree``'s for 3
    cycles.  Each exits 0, 1 or 2, and where validate exits 1 every command
    does."""
    codes = {}
    for command in commands:
        argv = [command, "--params", str(params)]
        if command in ("validate", "fit"):
            argv += [a for target in targets for a in ("--target", target)]
        else:
            argv += ["--target", targets[tree], "--cycles", "3",
                     "--tree-index", str(tree)]
        if command != "validate":
            argv += ["--out", str(tmp_path / command)]
        codes[command] = cli.main(argv)
    assert set(codes.values()) <= {0, 1, 2}, codes
    if codes["validate"] == 1:
        assert set(codes.values()) == {1}, codes


def _answers(tmp_path, capsys, params, targets, tree):
    """validate, simulate and oracle on ``params`` as it is, then validate
    and fit on its copy with the fit schedule capped, none printing a
    traceback."""
    _codes(tmp_path, params, targets, tree, ("validate", "simulate", "oracle"))
    capped = tmp_path / "capped.params"
    capped.write_text(_capped(Path(params).read_text()))
    _codes(tmp_path, capped, targets, tree, ("validate", "fit"))
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("text", PARAMS_CASES,
                         ids=map(str, range(len(PARAMS_CASES))))
def test_mutated_parameter_file(tmp_path, capsys, text):
    path = tmp_path / "species.params"
    path.write_text(text)
    _parses_or_is_located(read_parameter_file, path)
    _answers(tmp_path, capsys, path, TREES, 0)


def _mutated_target(tmp_path, capsys, text, tree):
    """The checks of tree ``tree``'s target file mutated to ``text``."""
    path = tmp_path / "mutated.target.csv"
    path.write_text(text)
    _parses_or_is_located(parse_target_file, path)
    targets = list(TREES)
    targets[tree] = str(path)
    _answers(tmp_path, capsys, fixture_path("species.params"), targets, tree)


@pytest.mark.parametrize("text", TARGET_CASES,
                         ids=map(str, range(len(TARGET_CASES))))
def test_mutated_target_file(tmp_path, capsys, text):
    _mutated_target(tmp_path, capsys, text, 0)


@pytest.mark.parametrize("text", TREE2_TARGET_CASES,
                         ids=map(str, range(len(TREE2_TARGET_CASES))))
def test_mutated_tree2_target_file(tmp_path, capsys, text):
    _mutated_target(tmp_path, capsys, text, 1)


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
def test_drawn_zone_coefficients_simulate_or_fail_typed(draw, tmp_path):
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
    check_topology(out, tmp_path)


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
def test_drawn_runs_match_the_enumerated_oracle(script, values, tmp_path):
    try:
        factorized = _engine_run(script, values, simulate)
    except TreesinkError as exc:
        with pytest.raises(TreesinkError) as err:
            _engine_run(script, values, simulate_naive)
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
        return
    # equal branch counts and events, every value within the factorization
    # gate
    naive = _engine_run(script, values, simulate_naive)
    assert compare_outputs(factorized, naive) < TOL
    check_topology(factorized, tmp_path)


def test_the_oracle_draws_reach_partial_runs_and_slack():
    """The drawn runs distribute axes over partly taken runs and leave
    slack, which the fixed factorization cases do not."""
    partial = slack = 0
    for script, values in ORACLE_CASES:
        try:
            output = _engine_run(script, values, simulate)
        except TreesinkError:
            continue
        slack += sum(kind == SLACK for _, kind, *_ in output.events)
        partial += sum(0 < taken < group.positions
                       for plan in output.decisions
                       for _, groups, counts, *_ in plan.zone_groups
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
    single runs, and every column gives what it gives alone.  A column
    departs only where its plans do not hold, so a batch can keep columns
    whose axis totals, and with them their slack events, differ."""
    params, zones = reference_parameters(), reference_zone_rules()
    continuous = [p.name for p in reference_fit_spec().continuous]
    rng = np.random.default_rng(18)
    runs, run = [], engine._run

    def counted(columns, *args):
        runs.append(len(columns))
        return run(columns, *args)

    monkeypatch.setattr(engine, "_run", counted)
    fell_back, slack_differs = [], []
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
        slack_differs.append(len(runs) == 1 and len(
            {tuple(each.events) for each in batched
             if not isinstance(each, TreesinkError)}) > 1)
        for p, result in zip(applied, batched):
            try:
                alone = simulate(p, cand_zones, dataset, tree_index=1,
                                 with_topology=False, with_signature=False)
            except TreesinkError as exc:
                assert (type(result), str(result)) == (type(exc), str(exc))
            else:
                assert vars(result) == vars(alone)
    assert 0 < sum(fell_back) < len(fell_back) and any(slack_differs)


def _range_sites():
    """The bundled parameter file's lines, with a weight_trunk_mass line
    added to its [fit] section, and (RANGES row, line index, index in the
    line's comma list) of each of their numbers that has a range."""
    lines = Path(fixture_path("species.params")).read_text().splitlines()
    lines.append("weight_trunk_mass = 1.0")
    settings = {key: f"annealing {f.name}" if owner is AnnealSchedule
                else f.name for key, (owner, f) in _FIT_SETTINGS.items()}
    sites = []
    for i, line in enumerate(lines):
        key, _, value = line.partition(" = ")
        cells = value.split(", ")
        rows = ([key] * len(cells) if key in RANGES else
                ["m1", "", "", "a1"] if key.startswith("zone_") else
                [settings.get(key, "weight" if key.startswith("weight_")
                              else "")])
        sites += [(row, i, j) for j, row in enumerate(rows[:len(cells)])
                  if row in RANGES]
    return lines, sites


RANGE_LINES, RANGE_SITES = _range_sites()
TARGETS = [parse_target_file(path) for path in TREES]


def _range_end_values(row):
    """(value, inside) at each finite end of ``row``: one number outside
    (a float, or an integer row's next integer), the end itself, and one
    float inside an open end."""
    low, high, ends = RANGES[row]
    values = []
    for end, closed, outward in ((low, ends[0] == "[", -math.inf),
                                 (high, ends[1] == "]", math.inf)):
        if math.isinf(end):
            continue
        if row in INTEGER_ROWS:
            values += [(end + (1 if outward > 0 else -1), False), (end, True)]
            continue
        end = float(end)
        values += [(math.nextafter(end, outward), False), (end, closed)]
        if not closed:
            values.append((math.nextafter(end, -outward), True))
    return values


def _both_engines(params, zones, tree):
    """simulate and oracle of tree ``tree``'s first 3 cycles: within TOL of
    each other, or the same runtime failure (exit 2 on the command line)."""
    runs = []
    for run in (simulate, simulate_naive):
        try:
            runs.append(run(params, zones, TARGETS[tree], tree_index=tree,
                            cycles=3))
        except TreesinkError as exc:
            assert not isinstance(exc, (ValidationError, ParseError)), exc
            runs.append(exc)
    factorized, naive = runs
    if isinstance(factorized, TreesinkError) or \
            isinstance(naive, TreesinkError):
        assert (type(factorized), str(factorized)) == \
            (type(naive), str(naive))
        return str(factorized)
    assert compare_outputs(factorized, naive) < TOL
    return None


@pytest.mark.parametrize("row, line, cell", RANGE_SITES, ids=[
    f"{row}@{line + 1}:{cell + 1}" for row, line, cell in RANGE_SITES])
def test_every_range_end_of_the_parameter_file(tmp_path, capsys, row, line,
                                               cell):
    # one number outside an end fails every command at its line, on a
    # range violation of the row's key (its zone's, a weight's own); the end
    # (or one float inside an open one) validates, and the two engines
    # agree on it, or fails on a relation alone, at a line of the file
    path = tmp_path / "species.params"
    key, sep, value = RANGE_LINES[line].partition(" = ")
    keys = ((tuple(map(int, key.split("_")[1:])),) if key.startswith("zone_")
            else (key if row == "weight" else row,))
    for number, inside in _range_end_values(row):
        cells = value.split(", ")
        cells[cell] = repr(number)
        path.write_text("\n".join(RANGE_LINES[:line]
                                  + [key + sep + ", ".join(cells)]
                                  + RANGE_LINES[line + 1:]) + "\n")
        if not inside:
            with pytest.raises(ParseError) as caught:
                read_parameter_file(path)
            first = caught.value.violations[0]
            assert (first.kind, first.keys) == ("range", keys), first
            for command in ("validate", "simulate", "oracle", "fit"):
                argv = [command, "--params", str(path),
                        "--target", TREES[0]]
                if command != "validate":
                    argv += ["--out", str(tmp_path / command)]
                if command == "fit":
                    argv += ["--target", TREES[1]]
                assert cli.main(argv) == 1, (command, number)
                out, err = capsys.readouterr()
                assert out == "" and err.startswith(
                    f"error: {path}:{line + 1}: "), (command, err)
                assert not (tmp_path / command).exists()
            continue
        code = cli.main(["validate", "--params", str(path)])
        out, err = capsys.readouterr()
        if code == 1:
            assert out == "" and re.match(
                rf"error: {re.escape(str(path))}:\d+: ", err), (number, err)
            with pytest.raises(ParseError) as caught:
                read_parameter_file(path)
            assert {v.kind for v in caught.value.violations} == \
                {"relation"}, caught.value.violations
            continue
        assert (code, out, err) == (0, "parameters: pass\n", ""), (number, err)
        if line < RANGE_LINES.index("[fit]"):
            params, zones, _ = read_parameter_file(path)
            _both_engines(params, zones, 1 if (row, cell) == ("v_env", 1)
                          else 0)
