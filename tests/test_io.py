import json
import math
import os
import subprocess
import sys

import pytest

from treesink.core import ParseError, ZoneRule, ZoneRuleSet
from treesink.engine import simulate
from treesink.fileio import (parse_target_file, read_parameter_file,
                             write_parameter_file, write_simulation_output,
                             write_target_file)
from treesink.synthetic import (dataset_from_output, reference_fit_spec,
                                script_only_dataset)

from conftest import fixture_path


class TestParameterFile:
    def test_round_trip_identity(self, params, zones, tmp_path):
        spec = reference_fit_spec()
        path = tmp_path / "species.params"
        write_parameter_file(path, params, zones, fit_spec=spec)
        params2, zones2, spec2 = read_parameter_file(path)
        assert params2 == params
        assert zones2.eq_fixed == zones.eq_fixed
        assert zones2.rule_map() == zones.rule_map()
        assert spec2.continuous == spec.continuous
        assert spec2.topological == spec.topological
        assert spec2.schedule == spec.schedule
        assert spec2.seed == spec.seed
        assert spec2.refit_every == spec.refit_every
        assert spec2.max_nfev == spec.max_nfev
        assert spec2.stop_objective == spec.stop_objective
        assert spec2.polish_rounds == spec.polish_rounds

    def test_bundled_parameter_file_parses(self):
        params, zones, spec = read_parameter_file(
            fixture_path("species.params"))
        assert params.sp0 == pytest.approx(0.015)
        assert params.v_env == (560.0, 1000.0)
        assert zones.get(2, 4).m2 == pytest.approx(1.1)
        assert spec is not None and len(spec.topological) == 10

    def test_infinite_cap_round_trips(self, params, tmp_path):
        zones = ZoneRuleSet(rules=(
            ZoneRule(2, 0, m1=1.0, m2=0.4, m_max=math.inf),
            ZoneRule(2, 4, m1=1.0, m2=1.0, m_max=2.0, a1=0.0, a2=0.5),
        ))
        path = tmp_path / "p.params"
        write_parameter_file(path, params, zones)
        _, zones2, _ = read_parameter_file(path)
        assert math.isinf(zones2.get(2, 0).m_max)

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "bad.params"
        path.write_text("sp0 = 0.015\nbogus_key = 3\n")
        with pytest.raises(ParseError) as err:
            read_parameter_file(path)
        assert "bogus_key" in str(err.value)
        assert ":2:" in str(err.value)

    def test_non_numeric_value_reports_location(self, tmp_path):
        path = tmp_path / "bad.params"
        path.write_text("sp0 = fifteen\n")
        with pytest.raises(ParseError) as err:
            read_parameter_file(path)
        assert "fifteen" in str(err.value)


class TestTargetFile:
    def test_round_trip_identity(self, params, zones, small_script, tmp_path):
        out = simulate(params, zones, script_only_dataset(small_script))
        dataset = dataset_from_output(out, small_script)
        path = tmp_path / "tree.target.csv"
        write_target_file(path, dataset)
        dataset2 = parse_target_file(path)
        assert dataset2 == dataset

    def test_bundled_fixtures_are_fresh(self, tmp_path):
        # the committed fixture files must match what the generator produces
        from treesink.synthetic import write_bundled_fixtures
        for path in write_bundled_fixtures(tmp_path):
            name = os.path.basename(path)
            with open(path, "rb") as regenerated, \
                    open(fixture_path(name), "rb") as committed:
                assert regenerated.read() == committed.read(), \
                    f"fixtures/{name} is stale; rerun write_bundled_fixtures"

    def test_bundled_targets_parse(self):
        ds1 = parse_target_file(fixture_path("tree1.target.csv"))
        ds2 = parse_target_file(fixture_path("tree2.target.csv"))
        assert ds1.tree_age == 21
        assert ds2.tree_age == 46
        assert len({r.gu_index for r in ds2.ring_matrix}) == 12
        assert ds1.branch_compartments and ds2.branch_compartments

    def test_empty_branches_section_is_valid(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "[script]\ngu_index,metamer_count,branches\n1,3,\n2,3,\n"
            "[trunk]\ngu_index,mass_g,diameter_cm,length_cm\n"
            "[rings]\ngu_index,tree_age,diameter_cm\n"
            "[branches]\ngu_index,pa,wood_g,leaf_g\n")
        dataset = parse_target_file(path)
        assert dataset.tree_age == 2
        assert dataset.branch_compartments == ()

    def test_decreasing_ring_deflagged_with_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "[script]\ngu_index,metamer_count,branches\n1,3,\n2,3,\n"
            "[trunk]\ngu_index,mass_g,diameter_cm,length_cm\n"
            "[rings]\ngu_index,tree_age,diameter_cm\n"
            "1,1,0.5\n1,2,0.4\n"
            "[branches]\ngu_index,pa,wood_g,leaf_g\n")
        with pytest.raises(ParseError) as err:
            parse_target_file(path)
        assert "decreases" in str(err.value)

    def test_non_numeric_cell_location(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "[script]\ngu_index,metamer_count,branches\n1,três,\n"
            "[trunk]\ngu_index,mass_g,diameter_cm,length_cm\n"
            "[rings]\ngu_index,tree_age,diameter_cm\n"
            "[branches]\ngu_index,pa,wood_g,leaf_g\n")
        with pytest.raises(ParseError) as err:
            parse_target_file(path)
        assert ":3:" in str(err.value)

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("[script]\ngu_index,metamer_count,branches\n1,3,\n")
        with pytest.raises(ParseError) as err:
            parse_target_file(path)
        assert "missing sections" in str(err.value)

    def test_bad_branch_spec(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "[script]\ngu_index,metamer_count,branches\n1,3,2x1\n"
            "[trunk]\ngu_index,mass_g,diameter_cm,length_cm\n"
            "[rings]\ngu_index,tree_age,diameter_cm\n"
            "[branches]\ngu_index,pa,wood_g,leaf_g\n")
        with pytest.raises(ParseError):
            parse_target_file(path)


class TestSimulationOutputFiles:
    def test_written_files_and_schemas(self, params, zones, small_script,
                                       tmp_path):
        out = simulate(params, zones, script_only_dataset(small_script))
        written = write_simulation_output(tmp_path, out)
        names = {os.path.basename(p) for p in written}
        assert names == {"cycles.csv", "trunk.csv", "rings.csv",
                         "branches.csv", "topology.json"}
        header = (tmp_path / "cycles.csv").read_text().splitlines()[0]
        assert header.split(",") == ["cycle", "q_g", "d", "d_s", "d_r",
                                     "q_s_g", "q_r_g", "ratio_g",
                                     "blade_area_m2"]
        topo = json.loads((tmp_path / "topology.json").read_text())
        assert topo["axis_classes"][0]["pa"] == 1


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "treesink.cli", *argv],
        capture_output=True, text=True)


class TestCli:
    def test_simulate_writes_artifacts(self, tmp_path):
        result = run_cli("simulate", "--params",
                         fixture_path("species.params"),
                         "--target", fixture_path("tree1.target.csv"),
                         "--out", str(tmp_path / "out"))
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "out" / "cycles.csv").exists()
        assert (tmp_path / "out" / "topology.json").exists()

    def test_simulate_with_synthetic_script(self, tmp_path):
        result = run_cli("simulate", "--params",
                         fixture_path("species.params"),
                         "--synthetic-script", "tree1",
                         "--out", str(tmp_path / "out"))
        assert result.returncode == 0, result.stderr

    def test_simulate_without_script_fails_validation(self, tmp_path):
        result = run_cli("simulate", "--params",
                         fixture_path("species.params"),
                         "--out", str(tmp_path / "out"))
        assert result.returncode == 1
        assert "error" in result.stderr

    def test_validate_rejects_bad_lambda(self, tmp_path):
        bad = tmp_path / "bad.params"
        text = open(fixture_path("species.params")).read()
        bad.write_text(text.replace("\nlambda_mix = 0.13",
                                    "\nlambda_mix = 1.2", 1))
        result = run_cli("validate", "--params", str(bad))
        assert result.returncode == 1
        assert "lambda_mix" in result.stdout

    def test_fit_section_init_outside_bounds_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.params"
        text = open(fixture_path("species.params")).read()
        bad.write_text(text.replace("init_lambda_mix = 0.13",
                                    "init_lambda_mix = 1.2"))
        result = run_cli("validate", "--params", str(bad))
        assert result.returncode == 1
        assert "error" in result.stderr and "lambda_mix" in result.stderr

    @pytest.mark.parametrize("old,new,where", [
        ("bound_sp0 = 0.003, 0.08", "bound_sp0 = 0.003, abc", ":36: "),
        ("init_sp0 = 0.015", "init_sp0 = 0.015\nweight_bogus = 2", ": "),
        ("\npa_max = 4\n", "\npa_max = inf\n", ":14: ")])
    def test_bad_number_is_located_parse_error(self, tmp_path, old, new,
                                               where):
        bad = tmp_path / "bad.params"
        text = open(fixture_path("species.params")).read()
        assert old in text
        bad.write_text(text.replace(old, new))
        targets = ("--target", fixture_path("tree1.target.csv"),
                   "--target", fixture_path("tree2.target.csv"))
        for extra in ((), ("--out", str(tmp_path / "out"))):
            result = run_cli("fit" if extra else "validate",
                             "--params", str(bad), *targets, *extra)
            assert result.returncode == 1, result.stderr
            assert result.stderr.startswith(f"error: {bad}{where}")
            assert "Traceback" not in result.stderr

    def test_validate_passes_bundled_files(self):
        result = run_cli("validate", "--params",
                         fixture_path("species.params"),
                         "--target", fixture_path("tree1.target.csv"))
        assert result.returncode == 0
        assert "pass" in result.stdout

    def test_oracle_command_matches_simulate(self, tmp_path, params, zones,
                                             small_script):
        target = tmp_path / "small.target.csv"
        out = simulate(params, zones, script_only_dataset(small_script))
        write_target_file(target, dataset_from_output(out, small_script))
        write_parameter_file(tmp_path / "p.params", params, zones)
        r1 = run_cli("simulate", "--params", str(tmp_path / "p.params"),
                     "--target", str(target), "--out", str(tmp_path / "a"))
        r2 = run_cli("oracle", "--params", str(tmp_path / "p.params"),
                     "--target", str(target), "--out", str(tmp_path / "b"))
        assert r1.returncode == 0 and r2.returncode == 0, r2.stderr
        for name in ("trunk.csv", "rings.csv", "branches.csv"):
            a = (tmp_path / "a" / name).read_text().splitlines()
            b = (tmp_path / "b" / name).read_text().splitlines()
            assert len(a) == len(b)
            for la, lb in zip(a[1:], b[1:]):
                va = [float(x) for x in la.split(",")]
                vb = [float(x) for x in lb.split(",")]
                assert va == pytest.approx(vb, rel=1e-9)

    def test_runtime_failure_exit_code(self, tmp_path):
        # a target whose script is too short for the requested cycles
        result = run_cli("simulate", "--params",
                         fixture_path("species.params"),
                         "--target", fixture_path("tree1.target.csv"),
                         "--cycles", "99", "--out", str(tmp_path / "out"))
        assert result.returncode == 2
        assert "error" in result.stderr

    def test_oracle_bad_tree_index_is_runtime_failure(self, tmp_path):
        result = run_cli("oracle", "--params",
                         fixture_path("species.params"),
                         "--target", fixture_path("tree1.target.csv"),
                         "--tree-index", "5", "--out", str(tmp_path / "out"))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert ("error: tree index 5 but only 2 environment factors"
                in result.stderr)

    @pytest.mark.parametrize("entry", [1, 2])
    def test_out_of_range_scripted_branch_is_runtime_failure(self, tmp_path,
                                                             entry):
        lines = open(fixture_path("tree1.target.csv")).read().splitlines()
        assert lines[1 + entry] == f"{entry},4,"
        lines[1 + entry] = f"{entry},4,PA7x1"
        target = tmp_path / "bad.target.csv"
        target.write_text("\n".join(lines) + "\n")
        result = run_cli("simulate", "--params",
                         fixture_path("species.params"),
                         "--target", str(target),
                         "--out", str(tmp_path / "out"))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert (f"error: script entry {entry}: branch PA 7 outside 2..4"
                in result.stderr)


class TestRunConfig:
    def test_programmatic_invocation(self, tmp_path, capsys):
        from treesink.cli import EXIT_OK, RunConfig, run
        config = RunConfig(command="simulate",
                           params_path=fixture_path("species.params"),
                           synthetic_script="tree1",
                           out_dir=str(tmp_path / "out"))
        assert run(config) == EXIT_OK
        assert (tmp_path / "out" / "cycles.csv").exists()

    def test_invariants_enforced(self, tmp_path):
        from treesink.cli import EXIT_VALIDATION, RunConfig, run
        config = RunConfig(command="fit",
                           params_path=fixture_path("species.params"),
                           out_dir=str(tmp_path))
        assert run(config) == EXIT_VALIDATION
        config = RunConfig(command="simulate",
                           params_path=fixture_path("species.params"),
                           out_dir=str(tmp_path))
        assert run(config) == EXIT_VALIDATION
