"""Seeded fuzzing: every failure is typed and located.

One-value mutations of the bundled parameter and target files either parse
or raise a ParseError naming the file and a line, and the CLI answers them
with an exit code, never a traceback.  Parameter sets drawn inside the fit
bounds give, batched, what each gives alone, and zone coefficients drawn
over their fit bounds simulate or fail typed.  The seeds and case counts
are fixed, so every run checks the same cases.
"""

from pathlib import Path

import math

import numpy as np
import pytest

from treesink import cli
from treesink.calibration import apply_candidate
from treesink.core import ParseError, TreesinkError, TrunkScriptEntry
from treesink.engine import simulate, simulate_batch
from treesink.fileio import parse_target_file, read_parameter_file
from treesink.synthetic import (reference_fit_spec, reference_parameters,
                                reference_zone_rules, script_only_dataset,
                                tree1_script)

from conftest import fixture_path

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


def _parses_or_is_located(read, path):
    try:
        read(path)
    except ParseError as exc:
        assert exc.path == path and exc.line is not None, str(exc)


@pytest.mark.parametrize("text", PARAMS_CASES,
                         ids=map(str, range(len(PARAMS_CASES))))
def test_mutated_parameter_file(tmp_path, capsys, text):
    path = tmp_path / "species.params"
    path.write_text(text)
    _parses_or_is_located(read_parameter_file, path)
    target = fixture_path("tree1.target.csv")
    assert cli.main(["validate", "--params", str(path),
                     "--target", target]) in (0, 1, 2)
    assert cli.main(["simulate", "--params", str(path), "--target", target,
                     "--cycles", "3", "--out", str(tmp_path / "out")]) \
        in (0, 1, 2)
    capsys.readouterr()


@pytest.mark.parametrize("text", TARGET_CASES,
                         ids=map(str, range(len(TARGET_CASES))))
def test_mutated_target_file(tmp_path, capsys, text):
    path = tmp_path / "tree1.target.csv"
    path.write_text(text)
    _parses_or_is_located(parse_target_file, path)
    params = fixture_path("species.params")
    assert cli.main(["validate", "--params", params,
                     "--target", str(path)]) in (0, 1, 2)
    assert cli.main(["simulate", "--params", params, "--target", str(path),
                     "--cycles", "3", "--out", str(tmp_path / "out")]) \
        in (0, 1, 2)
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
