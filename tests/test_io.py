import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from treesink.calibration import (AnnealSchedule, FitResult, FitSpec,
                                   FreeParameter, PredictedObserved)
from treesink.core import (MEASUREMENTS, BranchRow, GrowthParameters,
                           ParseError, Profiles, RingObservation,
                           TrunkObservation, TrunkScriptEntry, ZoneRule,
                           ZoneRuleSet)
from treesink.engine import simulate
from treesink.fileio import (_FIT_SETTINGS, _fmt, _parse_branch_spec,
                             _write_json, parse_target_file,
                             read_parameter_file, write_fit_result,
                             write_parameter_file, write_simulation_output,
                             write_target_file)
from treesink.oracle import simulate_naive
from treesink.synthetic import (dataset_from_output, reference_fit_spec,
                                script_only_dataset)

from conftest import check_topology, fixture_path, src_env


class TestParameterFile:
    def test_round_trip_identity(self, params, zones, tmp_path):
        spec = reference_fit_spec()
        path = tmp_path / "species.params"
        write_parameter_file(path, params, zones, fit_spec=spec)
        params2, zones2, spec2 = read_parameter_file(path)
        assert params2 == params
        assert zones2.eq_fixed == zones.eq_fixed
        assert {r.key: r for r in zones2.rules} == \
            {r.key: r for r in zones.rules}
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
            ZoneRule(3, 0, m1=1.0, m2=1.0, m_max=math.inf),
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

    @pytest.mark.parametrize("old,new,line,message", [
        ("free_continuous = sp0,", "free_continuous = sp0, sp0,", 34,
         "free parameter sp0 listed twice"),
        ("free_topology = a2_2_2,", "free_topology = sp0, a2_2_2,", 35,
         "free parameter sp0 listed twice"),
        # two faults, k_beer in free_topology and no bound_k_beer: the
        # missing bound, a parse error, is reported before any rule
        ("free_topology = a2_2_2,", "free_topology = k_beer, a2_2_2,", 35,
         "missing bound_k_beer for free parameter k_beer"),
        ("free_continuous = sp0,", "free_continuous = m2_2_0, sp0,", 34,
         "zone coefficient m2_2_0 belongs in free_topology")])
    def test_bad_free_list_is_located(self, tmp_path, old, new, line,
                                      message):
        bad = tmp_path / "bad.params"
        text = Path(fixture_path("species.params")).read_text()
        assert old in text
        bad.write_text(text.replace(old, new))
        with pytest.raises(ParseError) as err:
            read_parameter_file(bad)
        assert err.value.line == line
        assert str(err.value) == f"{bad}:{line}: {message}"

    def test_fit_spec_checks_free_names(self):
        sp0 = FreeParameter("sp0", 0.003, 0.08, 0.015)
        k_beer = FreeParameter("k_beer", 0.5, 2.0, 1.0)
        m2 = FreeParameter("m2_2_0", 0.0, 3.0, 0.42)
        for continuous, topological, message in (
                ([sp0, sp0], [], "sp0 listed twice"),
                ([sp0], [sp0], "sp0 listed twice"),
                ([], [k_beer], "k_beer is not a zone coefficient"),
                ([m2], [], "m2_2_0 belongs in free_topology")):
            with pytest.raises(ValueError, match=message):
                FitSpec(continuous=continuous, topological=topological)

    def test_non_numeric_value_reports_location(self, tmp_path):
        path = tmp_path / "bad.params"
        path.write_text("sp0 = fifteen\n")
        with pytest.raises(ParseError) as err:
            read_parameter_file(path)
        assert "fifteen" in str(err.value)

    @pytest.mark.parametrize("old,new,message", [
        ("anneal_cooling = 0.8", "anneal_cooling = 1.0",
         "annealing cooling must be in (0, 1): 1.0"),
        ("anneal_cooling = 0.8", "anneal_cooling = inf",
         "non-finite anneal_cooling: 'inf'"),
        ("anneal_t_stop = 0.05", "anneal_t_stop = 0",
         "annealing t_stop_ratio must be > 0: 0.0"),
        ("anneal_t0 = 0.5", "weight_trunk_mass = inf",
         "non-finite weight_trunk_mass: 'inf'"),
        ("anneal_t0 = 0.5", "weight_ring_diameter = nan",
         "non-finite weight_ring_diameter: 'nan'"),
        ("seed = 1", "seed = -1", "seed must be >= 0: -1"),
        ("max_nfev = 60", "max_nfev = 0", "max_nfev must be >= 1: 0"),
        ("refit_every = 4", "refit_every = -2",
         "refit_every must be >= 1: -2"),
        ("polish_rounds = 5", "polish_rounds = -1",
         "polish_rounds must be >= 0: -1"),
        ("anneal_step_scale = 0.3", "anneal_step_scale = -0.3",
         "annealing step_scale must be > 0: -0.3"),
        ("stop_objective = 1e-12", "stop_objective = nan",
         "non-finite stop_objective: 'nan'"),
        # too large for a float, or for an integer a float holds exactly
        ("stop_objective = 1e-12", "stop_objective = 1e999",
         "stop_objective out of range: '1e999'"),
        ("max_nfev = 60", "max_nfev = 1e16", "max_nfev out of range: '1e16'"),
        ("max_nfev = 60", "max_nfev = 2.5",
         "max_nfev must be an integer: '2.5'"),
        ("bound_sp0 = 0.003, 0.08", "bound_sp0 = 0.015, 0.015",
         "sp0: bounds must be finite, lower < upper: 0.015, 0.015")])
    def test_bad_fit_value_is_located(self, tmp_path, old, new, message):
        lines = Path(fixture_path("species.params")).read_text().split("\n")
        line = lines.index(old) + 1
        lines[line - 1] = new
        path = tmp_path / "bad.params"
        path.write_text("\n".join(lines))
        with pytest.raises(ParseError) as err:
            read_parameter_file(path)
        assert str(err.value) == f"{path}:{line}: {message}"

    def test_each_fit_rule_runs_once_per_read(self, monkeypatch):
        # the [fit] section's free parameters and settings are each checked
        # once, where the fit set-up is built, and located from there
        built, checked = Counter(), Counter()
        post_init = FreeParameter.__post_init__

        def count_post_init(free):
            built[free.name] += 1
            post_init(free)

        monkeypatch.setattr(FreeParameter, "__post_init__", count_post_init)
        for module in [m for name, m in sys.modules.items()
                       if name.partition(".")[0] == "treesink"
                       and hasattr(m, "check_range")]:
            def count_check(name, *args, check=module.check_range):
                checked[name] += 1
                return check(name, *args)
            monkeypatch.setattr(module, "check_range", count_check)
        spec = read_parameter_file(fixture_path("species.params"))[2]
        free = [p.name for p in spec.continuous + spec.topological]
        assert len(free) == 20 and built == Counter(free)
        rows = [f"annealing {f.name}" if owner is AnnealSchedule else f.name
                for owner, f in _FIT_SETTINGS.values()]
        assert len(rows) == 11   # each checked but the flag nested_refit
        assert {row: checked[row] for row in rows} == \
            {row: int(row != "nested_refit") for row in rows}

    def test_default_init_lies_inside_any_finite_bounds(self, tmp_path):
        # the midpoint of bounds whose sum overflows is still finite
        text = Path(fixture_path("species.params")).read_text()
        old = "bound_sp0 = 0.003, 0.08\ninit_sp0 = 0.015\n"
        assert old in text
        path = tmp_path / "p.params"
        path.write_text(text.replace(old, "bound_sp0 = 1e308, 1.7e308\n"))
        sp0 = read_parameter_file(path)[2].continuous[0]
        assert sp0.name == "sp0" and 1e308 < sp0.init < 1.7e308

    def test_anneal_schedule_rejects_an_endless_cooling(self):
        for bad in ({"cooling": 1.0}, {"t0": 0.0}, {"steps_per_t": -1},
                    {"step_scale": math.nan}, {"step_scale": 0.0}):
            with pytest.raises(ValueError, match="annealing"):
                AnnealSchedule(**bad)


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

    def test_branch_spec_is_case_insensitive(self, tmp_path):
        assert _parse_branch_spec("PA2X1", "t.csv", 1) == \
            _parse_branch_spec("PA2x1", "t.csv", 1) == ((2, 1),)
        text = Path(fixture_path("tree1.target.csv")).read_text()
        assert "\n3,5,PA4x1\n" in text
        datasets = []
        for spec in ("PA4x1", "PA4X1", "pa4x1"):
            path = tmp_path / f"{spec}.target.csv"
            path.write_text(text.replace("\n3,5,PA4x1\n", f"\n3,5,{spec}\n"))
            datasets.append(parse_target_file(path))
        assert datasets[0].trunk_script[2].branches == ((4, 1),)
        assert datasets[1] == datasets[0] == datasets[2]

    @pytest.mark.parametrize("line,old,new,col,message", [
        (26, "\n", ",999\n", 5,
         "extra cell beyond the [trunk] header: '999'"),
        (5, "PA4x1\n", "PA4x1;2x1\n", 3,
         "branch spec must look like PA2x1: '2x1'"),
        # a row whose key repeats an earlier row of its section
        (27, "2,35.01151533622043,3.308012540649849,4.52630524487958\n",
         "1,999,3.308012540649849,4.52630524487958\n", 1,
         "trunk GU 1 given twice, first at line 26"),
        (50, "2,3,1.2111317385247418\n", "2,2,1.2111317385247418\n", 1,
         "ring GU 2 age 2 given twice, first at line 49"),
        (127, "4,4,2.438385881390635,2.1826323234750182\n",
         "3,4,2.438385881390635,2.1826323234750182\n", 1,
         "branch GU 3 PA 4 given twice, first at line 126")])
    def test_bad_target_cell_is_located(self, tmp_path, line, old, new, col,
                                        message):
        text = Path(fixture_path("tree1.target.csv")).read_text()
        lines = text.splitlines(keepends=True)
        assert lines[line - 1].endswith(old)
        lines[line - 1] = lines[line - 1][:-len(old)] + new
        path = tmp_path / "bad.target.csv"
        path.write_text("".join(lines))
        with pytest.raises(ParseError) as err:
            parse_target_file(path)
        assert str(err.value) == f"{path}:{line}:{col}: {message}"

    def test_invalid_rows_are_located(self, tmp_path):
        # validate_target's row violations each name their row's line
        text = Path(fixture_path("tree1.target.csv")).read_text()
        lines = text.splitlines(keepends=True)
        assert lines[3] == "2,4,\n"
        lines[3] = "1,4,\n"
        old = "4,4,2.438385881390635,2.1826323234750182\n"
        assert lines[126] == old
        lines[126] = "4,4,-" + old[4:]
        path = tmp_path / "bad.target.csv"
        path.write_text("".join(lines))
        with pytest.raises(ParseError) as err:
            parse_target_file(path)
        assert str(err.value) == (
            f"{path}:4: invalid target data: script entry 2: gu_index 1 out "
            f"of order; branch row GU 4 PA 4: negative mass (line 127)")
        assert err.value.line == 4


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


class TestJsonWriter:
    """Every JSON file is the bytes of ``json.dumps(x, indent=1,
    sort_keys=True)`` and a newline: ``_write_json`` calls it, and the
    engine's topology.json is the text its finished tree renders."""

    @staticmethod
    def assert_json_bytes(path, data):
        expected = json.dumps(data, indent=1, sort_keys=True) + "\n"
        assert Path(path).read_bytes() == expected.encode()

    @pytest.mark.parametrize("tree_index", [0, 1])
    def test_engine_topology(self, params, zones, tmp_path, tree_index):
        dataset = parse_target_file(
            fixture_path(f"tree{tree_index + 1}.target.csv"))
        check_topology(simulate(params, zones, dataset,
                                tree_index=tree_index), tmp_path)

    def test_zone_keys_sort_as_strings(self, tmp_path):
        # PA 2 units with zones of axillary PA 0, 2 and 10 (as strings "10"
        # sorts before "2") and scripted PA 11 short shoots (zone "-1")
        params = GrowthParameters(
            pa_max=11, p_s=(5.25,) * 10 + (1.0,),
            p_rg=(1.0,) + (0.1,) * 9 + (0.01,),
            allom_a=(3.0,) * 10 + (0.5,), allom_b=(0.8,) * 10 + (0.4,))
        zones = ZoneRuleSet(rules=(
            ZoneRule(2, 0, m1=1.0, m2=0.42, m_max=6),
            ZoneRule(2, 10, m1=1.0, m2=1.1, m_max=2, a1=0.0, a2=0.6),
            ZoneRule(2, 2, m1=0.0, m2=0.6, m_max=1, a1=0.0, a2=0.05),
            *(ZoneRule(pa, 0, m1=1.0, m2=1.02, m_max=7)
              for pa in range(3, 11))))
        script = tuple(TrunkScriptEntry(g, 5, ((2, 1), (11, 1)) if g % 2
                                        else ()) for g in range(1, 9))
        out = simulate(params, zones, script_only_dataset(script))
        check_topology(out, tmp_path)
        # the file's, and so the parse's, key order
        keys = {tuple(gu["zone_counts"] or ())
                for cls in out.topology["axis_classes"]
                for gu in cls["growth_units"]}
        assert {("0", "10", "2"), ("-1",)} <= keys

    def test_oracle_topology(self, params, zones, small_dataset, tmp_path):
        out = simulate_naive(params, zones, small_dataset)
        assert out.topology["naive"] is True
        write_simulation_output(tmp_path, out)
        self.assert_json_bytes(tmp_path / "topology.json", out.topology)

    @pytest.mark.parametrize("intervals", [
        {"a2_2_4": (0.4645, None), "m2_2_0": (None, 0.75),
         "a2_3_4": (None, None)}, {}], ids=["open-ends", "no-intervals"])
    def test_fit_result(self, tmp_path, intervals):
        result = FitResult(
            continuous={"sp0": 0.015, "v_1": 558.8514117979618},
            topology={"a2_2_4": 0.6}, intervals=intervals, v_env=[],
            objective=0.0, trace=[], r_squared={"tree1": math.nan},
            predicted_observed=[], evaluations=11)
        write_fit_result(tmp_path, result)
        summary = {k: v for k, v in vars(result).items()
                   if k != "predicted_observed"}
        self.assert_json_bytes(tmp_path / "fit_result.json", summary)

    def test_scalars(self, tmp_path):
        data = {"inf": [math.inf, -math.inf, math.nan, -0.0, 1e-300],
                "text": ["é ü → \u2603", '100% "quoted"', "tab\tline\n"],
                '100% "key"': {"%s": None, "%(x)s": [True, False]},
                "numpy": np.float64(0.1), "tuple": (1, (2.5, "3")),
                "empty": [{}, [], ""], "big": 2 ** 70}
        _write_json(tmp_path / "x.json", data)
        self.assert_json_bytes(tmp_path / "x.json", data)
        for top in (3, "x", None, [], {}, [[[]]], {1: "a"}):
            _write_json(tmp_path / "top.json", top)
            self.assert_json_bytes(tmp_path / "top.json", top)

    # an int key alone is written as its text (test_scalars); beside str
    # keys it cannot be sorted, as a None key cannot
    @pytest.mark.parametrize("data", [
        {"a": {"b": 1, 1: "c"}}, {"a": [{"b": 1, None: 2}]},
        {"a": {"b": {(1,): 2}}}, {"a": object()}, [np.int64(3)],
        {"a": [[{1, 2}]]}],
        ids=["int-key", "none-key", "deep-tuple-key", "object", "numpy-int",
             "set"])
    def test_unsupported_input_is_a_type_error(self, tmp_path, data):
        with pytest.raises(TypeError):
            _write_json(tmp_path / "x.json", data)


class TestCsvWriter:
    """Each CSV row is the bytes of ``",".join(map(_fmt, values))`` over
    its fields: every row type the writers write."""

    EDGES = (math.nan, math.inf, -math.inf, -0.0, 1e-300, 0.1, 2.5e15, 7)

    @staticmethod
    def assert_rows(path, rows):
        body = Path(path).read_bytes().decode().split("\n")[1:]
        assert body == [",".join(_fmt(getattr(row, f.name))
                                 for f in dataclasses.fields(row))
                        for row in rows] + [""]

    @pytest.mark.parametrize("engine", [simulate, simulate_naive])
    def test_simulation_rows(self, params, zones, small_dataset, tmp_path,
                             engine):
        dataset = (parse_target_file(fixture_path("tree2.target.csv"))
                   if engine is simulate else small_dataset)
        out = engine(params, zones, dataset, tree_index=1)
        write_simulation_output(tmp_path, out)
        self.assert_rows(tmp_path / "cycles.csv", out.allocations)
        for m in MEASUREMENTS:
            self.assert_rows(tmp_path / f"{m.section}.csv",
                             getattr(out, m.field))

    def test_edge_values(self, params, zones, small_dataset, tmp_path):
        # the rows are views of the output's profile record, so the edge
        # values go into its tables: six trunk GUs, one ring age (3) of
        # eight GUs born then, and a PA-3 branch cell of count 4 on six GUs
        out = simulate(params, zones, small_dataset)
        edges = [float(v) for v in self.EDGES]
        triples = np.array([edges[i:i + 3] for i in range(6)])
        rings = np.full((3, len(edges)), np.nan)
        rings[2] = edges
        branches = np.full((6, 3, 3), np.nan)
        branches[:, 2] = triples
        counts = np.zeros((6, 3), int)
        counts[:, 2] = 4
        out.profiles = Profiles(triples, rings, np.full(len(edges), 3),
                                branches, counts)
        rows = {"trunk_profile": [TrunkObservation(i + 1, *edges[i:i + 3])
                                  for i in range(6)],
                "ring_matrix": [RingObservation(i + 1, 3, v)
                                for i, v in enumerate(edges)],
                "branch_compartments": [BranchRow(i + 1, 3, 4, *edges[i:i + 3])
                                        for i in range(6)]}
        out.allocations = [dataclasses.replace(a, q=v, ratio=v)
                           for a, v in zip(out.allocations, self.EDGES)]
        write_simulation_output(tmp_path, out)
        self.assert_rows(tmp_path / "cycles.csv", out.allocations)
        for m in MEASUREMENTS:
            self.assert_rows(tmp_path / f"{m.section}.csv", rows[m.field])

    def test_target_rows(self, params, zones, small_script, tmp_path):
        out = simulate(params, zones, script_only_dataset(small_script))
        dataset = dataclasses.replace(
            dataset_from_output(out, small_script),
            trunk_profile=tuple(TrunkObservation(1, *self.EDGES[i:i + 3])
                                for i in range(6)))
        write_target_file(tmp_path / "t.csv", dataset)
        text = (tmp_path / "t.csv").read_text()
        for m in MEASUREMENTS:
            rows = getattr(dataset, m.field)
            section = text.split(f"[{m.section}]\n")[1].split("\n[")[0]
            assert section.split("\n")[1:] == [
                ",".join(_fmt(getattr(row, f.name))
                         for f in dataclasses.fields(row))
                for row in rows] + ([""] if m is MEASUREMENTS[-1] else [])

    def test_fit_rows(self, tmp_path):
        pvo = [PredictedObserved(tree=1 + i % 2, data_class=c, observed=v,
                                 simulated=w)
               for i, (c, v, w) in enumerate(zip(
                   ["trunk_mass", "ring_diameter", "branch_leaf"] * 3,
                   self.EDGES, reversed(self.EDGES)))]
        result = FitResult(continuous={}, topology={}, intervals={},
                           v_env=[], objective=0.0, trace=[], r_squared={},
                           predicted_observed=pvo, evaluations=1)
        write_fit_result(tmp_path, result)
        self.assert_rows(tmp_path / "predicted_vs_observed.csv", pvo)


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "treesink.cli", *argv],
        capture_output=True, text=True, env=src_env())


def _run_overflowing(tmp_path, command, line, *python_options):
    """``command`` on the bundled parameters with ``line`` replacing the
    line it names (after checking that they validate): on both bundled
    targets for ``fit``, else on tree 1, writing to ``tmp_path/out``."""
    params = tmp_path / "overflow.params"
    text, found = re.subn(rf"^{line.split(' = ')[0]} = .*$", line,
                          Path(fixture_path("species.params")).read_text(),
                          flags=re.M)
    assert found == 1
    params.write_text(text)
    targets = [fixture_path(f"tree{i}.target.csv")
               for i in ((1, 2) if command == "fit" else (1,))]
    argv = [arg for target in targets for arg in ("--target", target)]
    assert run_cli("validate", "--params", str(params),
                   *argv).returncode == 0
    return subprocess.run(
        [sys.executable, *python_options, "-m", "treesink.cli", command,
         "--params", str(params), *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=src_env())


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
        text = Path(fixture_path("species.params")).read_text()
        bad.write_text(text.replace("\nlambda_mix = 0.13",
                                    "\nlambda_mix = 1.2", 1))
        result = run_cli("validate", "--params", str(bad))
        assert result.returncode == 1
        assert result.stderr == \
            f"error: {bad}:10: lambda_mix must be in [0, 1]: 1.2\n"

    def test_non_finite_zone_coefficient_fails_without_traceback(
            self, tmp_path):
        bad = tmp_path / "bad.params"
        text = Path(fixture_path("species.params")).read_text()
        bad.write_text(text.replace("zone_2_4 = 1.0, 1.1, 2, 0.0, 0.6",
                                    "zone_2_4 = 1.0, nan, 2, 0.0, 0.6"))
        result = run_cli("validate", "--params", str(bad))
        assert result.returncode == 1
        assert result.stderr == f"error: {bad}:27: non-finite m2: 'nan'\n"
        result = run_cli("simulate", "--params", str(bad),
                         "--synthetic-script", "tree1",
                         "--out", str(tmp_path / "out"))
        assert result.returncode == 1
        assert result.stderr == f"error: {bad}:27: non-finite m2: 'nan'\n"
        assert not (tmp_path / "out").exists()

    def test_fit_section_init_outside_bounds_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.params"
        text = Path(fixture_path("species.params")).read_text()
        bad.write_text(text.replace("init_lambda_mix = 0.13",
                                    "init_lambda_mix = 1.2"))
        result = run_cli("validate", "--params", str(bad))
        assert result.returncode == 1
        assert "error" in result.stderr and "lambda_mix" in result.stderr

    @pytest.mark.parametrize("old,new,where", [
        ("bound_sp0 = 0.003, 0.08", "bound_sp0 = 0.003, abc", ":36: "),
        ("init_sp0 = 0.015", "init_sp0 = 0.015\nweight_bogus = 2", ":38: "),
        ("\npa_max = 4\n", "\npa_max = inf\n", ":14: "),
        ("zone_2_0 = 1.0", "zone_2_x = 1.0", ":26: "),
        ("eq_fixed = true", "eq_fixed = maybe", ":25: "),
        ("nested_refit = false", "nested_refit = maybe", ":82: "),
        # free names the file's parameters cannot take
        ("free_continuous = sp0,",
         "bound_bogus = 0.0, 1.0\nfree_continuous = bogus, sp0,", ":35: "),
        ("p_rg_2, p_rg_3", "p_rg_0, p_rg_3", ":34: "),
        ("v_1, v_2", "v_1, v_3", ":34: "),
        ("a2_2_2, a2_2_3", "a2_2_0, a2_2_3", ":35: "),
        ("bound_sp0 = 0.003, 0.08\n", "", ":34: "),
        # a free list naming what it may not hold
        ("free_topology = a2_2_2,",
         "bound_k_beer = 0.5, 2.0\nfree_topology = k_beer, a2_2_2,",
         ":36: "),
        ("free_continuous = sp0,", "free_continuous = sp0, sp0,", ":34: "),
        # a key given twice in one section, [species] the same as none
        ("\nsp0 = 0.015\n", "\nsp0 = 0.015\nsp0 = 0.05\n", ":21: "),
        ("\n[zones]\n", "\n[species]\nsp0 = 0.05\n[zones]\n", ":25: "),
        ("seed = 1", "seed = 3\nseed = 7", ":87: "),
        ("seed = 1", "seed = 1\nbogus = 1", ":87: "),
        ("init_sp0 = 0.015", "init_sp0 = 5.0", ":37: "),
        ("seed = 1", "seed = 1\ninit_k_beer = 1.0", ":87: ")])
    def test_bad_number_is_located_parse_error(self, tmp_path, old, new,
                                               where):
        bad = tmp_path / "bad.params"
        text = Path(fixture_path("species.params")).read_text()
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

    @pytest.mark.parametrize("line,col,text", [
        (26, 1, "inf"),    # [trunk] gu_index
        (26, 2, "nan"),    # [trunk] mass_g
        (3, 2, "nan"),     # [script] metamer_count
        (49, 3, "inf")])   # [rings] diameter_cm
    def test_non_finite_target_cell_is_located(self, tmp_path, line, col,
                                               text):
        lines = Path(fixture_path("tree1.target.csv")).read_text().split("\n")
        cells = lines[line - 1].split(",")
        cells[col - 1] = text
        lines[line - 1] = ",".join(cells)
        bad = tmp_path / "bad.target.csv"
        bad.write_text("\n".join(lines))
        result = run_cli("validate", "--params",
                         fixture_path("species.params"), "--target", str(bad))
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith(f"error: {bad}:{line}:{col}: "
                                        f"non-finite ")
        assert "Traceback" not in result.stderr

    def test_cli_imports_without_scipy(self):
        result = subprocess.run(
            [sys.executable, "-c", "import sys, treesink.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
            capture_output=True, text=True, env=src_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

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
        lines = Path(fixture_path("tree1.target.csv")).read_text().splitlines()
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

    @pytest.mark.parametrize("command,line,message", [
        ("simulate", "p_s = 1e-320, 5.25, 5.25, 1.0",
         "a rounding rule met the non-finite value inf"),
        ("oracle", "p_s = 1e-320, 5.25, 5.25, 1.0",
         "a rounding rule met the non-finite value inf"),
        ("simulate", "wood_density = 1e-320",
         "a trunk, ring or branch value is not finite"),
        ("simulate", "allom_a = 1e308, 3.0, 3.0, 0.5",
         "a trunk, ring or branch value is not finite"),
        ("simulate", "p_rg = 1.0, 1e308, 1e308, 1e308",
         "a trunk, ring or branch value is not finite"),
        ("fit", "wood_density = 1e-320",
         "continuous fit found no feasible candidate"),
        ("oracle", "wood_density = 1e-320",
         "a trunk, ring or branch value is not finite"),
        ("oracle", "allom_a = 1e308, 3.0, 3.0, 0.5",
         "a trunk, ring or branch value is not finite"),
    ])
    def test_overflow_is_runtime_failure(self, tmp_path, command, line,
                                         message):
        # values that pass validation but overflow in a run fail with exit
        # 2, print no warning and write no file; in a subprocess, as
        # numpy's overflow warnings are errors under pytest
        result = _run_overflowing(tmp_path, command, line)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "Warning" not in result.stderr
        assert f"error: {message}" in result.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,message", [
        ("simulate", "a trunk, ring or branch value is not finite"),
        ("oracle", "a trunk, ring or branch value is not finite"),
        ("fit", "continuous fit found no feasible candidate"),
    ])
    def test_overflow_fails_the_run_under_warnings_as_errors(
            self, tmp_path, command, message):
        # no numpy floating-point warning leaves a run: with warnings
        # turned into errors, the overflow fails the run as it does without
        result = _run_overflowing(tmp_path, command, "wood_density = 1e-320",
                                  "-W", "error")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert result.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["fit", "--params", fixture_path("species.params")],
         "the following arguments are required: --target"),
        (["simulate", "--params", fixture_path("species.params"),
          "--synthetic-script", "tree1", "--cycles", "abc"],
         "argument --cycles: invalid int value: 'abc'"),
        (["grow", "--params", fixture_path("species.params")],
         "argument command: invalid choice: 'grow'"),
        (["simulate", "--params", fixture_path("species.params"),
          "--synthetic-script", "tree1", "--cycles", "0"],
         "argument --cycles: must be >= 1: 0"),
        (["simulate", "--params", fixture_path("species.params"),
          "--synthetic-script", "tree1", "--tree-index", "-1"],
         "argument --tree-index: must be >= 0: -1"),
        (["oracle", "--params", fixture_path("species.params"),
          "--target", fixture_path("tree1.target.csv"), "--cycles", "0"],
         "argument --cycles: must be >= 1: 0"),
        (["oracle", "--params", fixture_path("species.params"),
          "--target", fixture_path("tree1.target.csv"), "--tree-index", "-1"],
         "argument --tree-index: must be >= 0: -1"),
        (["simulate", "--params", fixture_path("species.params"),
          "--target", fixture_path("tree1.target.csv"),
          "--synthetic-script", "tree2"],
         "argument --synthetic-script: not allowed with argument --target"),
        (["simulate", "--params", fixture_path("species.params"),
          "--target", fixture_path("tree1.target.csv"),
          "--target", fixture_path("tree2.target.csv")],
         "argument --target: given more than once"),
        (["oracle", "--params", fixture_path("species.params"),
          "--target", fixture_path("tree1.target.csv"),
          "--target", fixture_path("tree2.target.csv")],
         "argument --target: given more than once"),
        (["simulate", "--params", fixture_path("species.params")],
         "one of the arguments --target --synthetic-script is required"),
        (["fit", "--params", fixture_path("species.params"),
          "--target", fixture_path("tree1.target.csv"),
          "--target", fixture_path("tree2.target.csv"), "--seed", "-1"],
         "argument --seed: must be >= 0: -1"),
        (["simulate", "--params", fixture_path("species.params"),
          "--synthetic-script", "tree1", "--plots"],
         "unrecognized arguments: --plots"),
        (["fit", "--params", fixture_path("species.params"),
          "--target", fixture_path("tree1.target.csv"),
          "--target", fixture_path("tree2.target.csv"), "--plots"],
         "unrecognized arguments: --plots")],
        ids=["fit-without-target", "cycles-not-an-int", "unknown-command",
             "simulate-zero-cycles", "simulate-negative-tree-index",
             "oracle-zero-cycles", "oracle-negative-tree-index",
             "simulate-target-and-script", "simulate-two-targets",
             "oracle-two-targets", "simulate-without-input",
             "fit-negative-seed", "simulate-plots", "fit-plots"])
    def test_usage_error_is_validation_failure(self, tmp_path, argv,
                                               message):
        out = tmp_path / "out"
        result = run_cli(*argv, "--out", str(out))
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith("usage: treesink")
        assert message in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    def test_help_exits_zero(self):
        result = run_cli("simulate", "--help")
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("usage: treesink simulate")


class TestRunConfig:
    """Invocations of ``cli.main`` in process."""

    def test_programmatic_invocation(self, tmp_path, capsys):
        from treesink.cli import EXIT_OK, main
        assert main(["simulate", "--params", fixture_path("species.params"),
                     "--synthetic-script", "tree1",
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert (tmp_path / "out" / "cycles.csv").exists()

    def test_invariants_enforced(self, tmp_path, capsys):
        from treesink.cli import EXIT_VALIDATION, main
        assert main(["fit", "--params", fixture_path("species.params"),
                     "--out", str(tmp_path / "fit")]) == EXIT_VALIDATION
        assert capsys.readouterr().err.endswith(
            "error: the following arguments are required: --target\n")
        assert main(["simulate", "--params", fixture_path("species.params"),
                     "--out", str(tmp_path / "sim")]) == EXIT_VALIDATION
        assert capsys.readouterr().err.endswith("error: one of the arguments "
                                                "--target --synthetic-script "
                                                "is required\n")
        assert not (tmp_path / "fit").exists()
        assert not (tmp_path / "sim").exists()

    def test_v_env_count_must_match_the_targets(self, tmp_path, capsys):
        from treesink.cli import main
        code = main(["fit", "--params", fixture_path("species.params"),
                     "--target", fixture_path("tree1.target.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == ("error: parameter file carries 2 "
                                           "v_env entries for 1 targets\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content,reason", [
        (None, "cannot read: No such file or directory"),
        (b"sp0 = \xff\n", "not UTF-8 text: invalid start byte")])
    def test_unreadable_parameter_file_is_a_parse_error(
            self, tmp_path, capsys, content, reason):
        from treesink.cli import EXIT_VALIDATION, main
        path = tmp_path / "species.params"
        if content is not None:
            path.write_bytes(content)
        assert main(["validate", "--params", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    def test_directory_as_target_is_a_parse_error(self, tmp_path, capsys):
        from treesink.cli import EXIT_VALIDATION, main
        assert main(["validate", "--params", fixture_path("species.params"),
                     "--target", str(tmp_path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == \
            f"error: {tmp_path}: cannot read: Is a directory\n"

    def test_output_directory_that_is_a_file_fails(self, tmp_path, capsys):
        from treesink.cli import EXIT_RUNTIME, main
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["simulate", "--params", fixture_path("species.params"),
                     "--synthetic-script", "tree1",
                     "--out", str(out)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: {out}: File exists\n"

    @pytest.mark.parametrize("key,value,violation", [
        ("k_beer", "-1.0", "k_beer must be > 0: -1.0"),   # fixed
        ("sp0", "-1.0", "sp0 must be > 0: -1.0")])        # free
    def test_fit_rejects_the_parameters_validate_rejects(
            self, tmp_path, capsys, key, value, violation):
        from treesink.cli import EXIT_VALIDATION, main
        bad = tmp_path / "bad.params"
        text, found = re.subn(rf"^{key} = .*$", f"{key} = {value}",
                              Path(fixture_path("species.params")).read_text(),
                              flags=re.M)
        assert found == 1
        bad.write_text(text)
        line = text.split("\n").index(f"{key} = {value}") + 1
        assert main(["validate", "--params", str(bad)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {bad}:{line}: {violation}\n"
        assert main(["fit", "--params", str(bad),
                     "--target", fixture_path("tree1.target.csv"),
                     "--target", fixture_path("tree2.target.csv"),
                     "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {bad}:{line}: {violation}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("length,code,err", [
        ("7e155", 0, ""),
        # 1e-300 · 1e308² overflows: no candidate is feasible, and no
        # overflow warning leaves the fit (warnings are errors here)
        ("1e308", 2, "error: continuous fit found no feasible candidate\n")])
    def test_a_given_weight_replaces_the_default(self, tmp_path, capsys,
                                                 length, code, err):
        # trunk_length's pooled mean is above 1e154, so its default weight
        # 1/mean² is not finite; a weight the [fit] section gives is used
        # instead, and the fit (one least-squares evaluation) runs
        from treesink.cli import main
        lines = Path(fixture_path("tree1.target.csv")).read_text().split("\n")
        row = lines.index("[trunk]") + 2
        lines[row] = ",".join(lines[row].split(",")[:3] + [length])
        target = tmp_path / "tree1.target.csv"
        target.write_text("\n".join(lines))
        text = Path(fixture_path("species.params")).read_text() \
            .replace("max_nfev = 60", "max_nfev = 1") \
            .replace("stop_objective = 1e-12", "stop_objective = 1e300")
        params = tmp_path / "species.params"
        argv = ["fit", "--params", str(params), "--target", str(target),
                "--target", fixture_path("tree2.target.csv")]
        params.write_text(text)
        assert main(argv + ["--out", str(tmp_path / "default")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: trunk_length observations cannot be weighted")
        params.write_text(text + "weight_trunk_length = 1e-300\n")
        assert main(argv + ["--out", str(tmp_path / "given")]) == code
        assert capsys.readouterr().err == err
        if code == 0:
            result = json.loads((tmp_path / "given" / "fit_result.json")
                                .read_text())
            assert 0 < result["objective"] < 1e12   # 1e-300 · (7e155 - sim)²

    def test_a_number_out_of_range_fails_at_its_line(self, tmp_path, capsys):
        from treesink.cli import main
        bad = tmp_path / "bad.params"
        text = Path(fixture_path("species.params")).read_text()
        assert text.split("\n")[4] == "alpha = 0.73"
        bad.write_text(text.replace("\nalpha = 0.73\n", "\nalpha = 1.5\n"))
        targets = ["--target", fixture_path("tree1.target.csv")]
        for command, extra in (
                ("validate", targets), ("simulate", targets),
                ("oracle", targets), ("fit", targets + [
                    "--target", fixture_path("tree2.target.csv")])):
            out = ["--out", str(tmp_path / command)] \
                if command != "validate" else []
            assert main([command, "--params", str(bad), *extra, *out]) == 1
            assert capsys.readouterr() == (
                "", f"error: {bad}:5: alpha must be in (0, 1]: 1.5\n")
            assert not (tmp_path / command).exists()

    @pytest.mark.parametrize("old,new,line,violation,others,keys", [
        ("p_s = 5.25, 5.25, 5.25, 1.0", "p_s = 5.25, 5.25, 5.25", 13,
         "p_s must have one entry per physiological age (4), got 3", (),
         ("p_s", "pa_max")),
        ("p_rg = 1.0,", "p_rg = 0.9,", 12,
         "p_rg(1) must equal 1 exactly (reference value): 0.9", (),
         ("p_rg",)),
        ("slw_values = 0.0072, 0.0093", "slw_values = 0.0072", 19,
         "slw schedule needs matching, nonempty age/value lists", (),
         ("slw_values", "slw_ages")),
        ("slw_ages = 21.0, 46.0", "slw_ages = 46.0, 21.0", 18,
         "slw ages must be strictly increasing", (), ("slw_ages",)),
        ("v_env = 560.0, 1000.0", "v_env =", 21,
         "v_env must carry at least one per-tree entry", (), ("v_env",)),
        ("zone_2_0 = 1.0, 0.42, 6", "zone_2_0 = 1.0, 0.42, 0.5", 26,
         "zone Z^20: m_max must be >= m1", (), ((2, 0),)),
        ("zone_2_4 = 1.0,", "zone_2_4 = 0.5,", 27,
         "zone Z^24: fixed-coefficient rule requires m1 = 1, got 0.5", (),
         ((2, 4),)),
        ("zone_2_3 = 1.0, 0.1, 2, 0.0,", "zone_2_3 = 1.0, 0.1, 2, 0.5,", 28,
         "zone Z^23: fixed-coefficient rule requires a1 = 0, got 0.5", (),
         ((2, 3),)),
        ("zone_3_0 =", "zone_4_0 =", 30,
         "zone Z^40: bearer PA must lie in 2..3", (), ((4, 0), "pa_max")),
        ("zone_3_4 =", "zone_3_5 =", 31,
         "zone Z^35: axillary PA must be 0 or in 2..4", (),
         ((3, 5), "pa_max")),
        ("zone_2_2 = 0.0, 0.1, 1, 0.0, 0.05", "zone_2_2 = 0.0, 0.1, 1", 29,
         "zone Z^22: branching zones need a1 and a2", (), ((2, 2),)),
        ("zone_3_0 = 1.0, 1.02, 7", "zone_3_0 = 1.0, 1.02, 7, 0.0, 0.1", 30,
         "zone Z^30: unbranched zones carry no axis coefficients", (),
         ((3, 0),)),
        ("zone_2_2 =", "zone_2_04 = 1.0, 1.1, 2, 0.0, 0.6\nzone_2_2 =", 29,
         "duplicate zone Z^24", (), ((2, 4),)),
        ("allom_a = 3.0,", "allom_a = 0.0,", 3,
         "allom_a(1) must be nonzero, or the trunk has no length to grow: "
         "0.0", (), ("allom_a",)),
        # every other vector and every zone fails too, each at its line
        ("pa_max = 4", "pa_max = 2", 13,
         "p_s must have one entry per physiological age (2), got 4; ",
         (12, 3, 4, 26, 27, 27, 28, 28, 29, 30, 31, 31), ("p_s", "pa_max")),
        # a file of one line: the vectors it leaves to their defaults, and
        # the zones it lacks, fail at the line of pa_max, which they relate
        (None, "pa_max = 3", 1, "; ".join(
            f"{name} must have one entry per physiological age (3), got 4"
            for name in ("p_s", "p_rg", "allom_a", "allom_b")) + "; [zones] "
         "must give each bearer PA in 2..2 a zone rule: PA 2 has none", (),
         ("p_s", "pa_max")),
        # no zone for PA 3, which every run lays out: at the [zones] header
        ("zone_3_0 = 1.0, 1.02, 7\nzone_3_4 = 1.0, 1.45, 2, 0.0, 0.575", "",
         24, "[zones] must give each bearer PA in 2..3 a zone rule: PA 3 "
         "has none", (), ("[zones]", "pa_max")),
        # no [zones] section and no pa_max line: the same, at no line
        (None, "sp0 = 0.02", None, "[zones] must give each bearer PA in "
         "2..3 a zone rule: PA 2 has none", (), ("[zones]", "pa_max"))],
        ids=["vector length", "p_rg(1)", "slw lengths", "slw ages",
             "empty v_env", "m_max", "fixed m1", "fixed a1", "bearer PA",
             "axillary PA", "no a1 a2", "unbranched a1 a2", "duplicate zone",
             "allom_a(1)", "pa_max", "pa_max alone", "zone coverage",
             "no zones"])
    def test_a_broken_relation_fails_at_its_line(self, tmp_path, capsys, old,
                                                 new, line, violation, others,
                                                 keys):
        # each relation between numbers that a file can break fails all four
        # commands when the file is read, at the line of the first key it
        # relates that the file sets, if any (``old`` None: the file is
        # ``new``)
        from treesink.cli import main
        bad = tmp_path / "bad.params"
        text = Path(fixture_path("species.params")).read_text()
        if old is not None:
            assert text.count(f"\n{old}") == 1
        bad.write_text(new if old is None else
                       text.replace(f"\n{old}", f"\n{new}"))
        with pytest.raises(ParseError) as caught:
            read_parameter_file(bad)
        assert caught.value.line == line
        assert {v.kind for v in caught.value.violations} == {"relation"}
        assert caught.value.violations[0].keys == keys
        at = f"{bad}:{line}:" if line else f"{bad}:"
        targets = ["--target", fixture_path("tree1.target.csv")]
        for command, extra in (
                ("validate", targets), ("simulate", targets),
                ("oracle", targets), ("fit", targets + [
                    "--target", fixture_path("tree2.target.csv")])):
            out = ["--out", str(tmp_path / command)] \
                if command != "validate" else []
            assert main([command, "--params", str(bad), *extra, *out]) == 1
            captured = capsys.readouterr()
            assert captured.out == "", command
            assert captured.err.startswith(f"error: {at} {violation}")
            assert captured.err.endswith("\n") if others else \
                captured.err == f"error: {at} {violation}\n"
            assert re.findall(r"\(line (\d+)\)", captured.err) == \
                [str(n) for n in others]
            assert not (tmp_path / command).exists()

    def test_fit_fails_a_script_no_run_can_take(self, tmp_path, capsys):
        # a branch PA above pa_max: validate passes the target, which it
        # checks alone, and fit fails it before any run, as simulate and
        # oracle do, and writes nothing
        from treesink.cli import main
        lines = Path(fixture_path("tree1.target.csv")).read_text().split("\n")
        assert (lines[4], lines[125][:4]) == ("3,5,PA4x1", "3,4,")
        lines[4] = "3,5,PA5x1"
        del lines[125]   # the branch row of GU 3's PA-4 branch
        target = tmp_path / "tree1.target.csv"
        target.write_text("\n".join(lines))
        argv = ["--params", fixture_path("species.params"),
                "--target", str(target)]
        assert main(["validate", *argv]) == 0
        assert capsys.readouterr() == (
            f"parameters: pass\ntarget {target}: pass\n", "")
        for command, extra in (("simulate", []), ("oracle", []), (
                "fit", ["--target", fixture_path("tree2.target.csv")])):
            out = tmp_path / command
            assert main([command, *argv, *extra, "--out", str(out)]) == 2
            assert capsys.readouterr() == (
                "", "error: script entry 3: branch PA 5 outside 2..4\n")
            assert not out.exists(), command


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


class TestNonFiniteInput:
    """A nan, inf or -inf anywhere in either input file fails validate,
    simulate, oracle and fit alike when the file is read: exit 1, an error
    at its line (and column, in a target file), and no output.  The one
    exception is ``inf`` for a zone's m_max, which means no cap."""

    @staticmethod
    def check_each_command(tmp_path, capsys, params, target, where):
        """Each command on ``params`` and ``target`` (fit adds tree 2's)
        exits 1 with an error at ``where`` and writes nothing; only
        validate prints, the report of a good parameter file read before a
        bad target."""
        from treesink.cli import main
        report = "" if where.startswith(str(params)) else "parameters: pass\n"
        for command in ("validate", "simulate", "oracle", "fit"):
            out = tmp_path / command
            argv = [command, "--params", str(params), "--target", str(target)]
            if command == "fit":
                argv += ["--target", fixture_path("tree2.target.csv")]
            code = main(argv + (["--out", str(out)]
                                if command != "validate" else []))
            captured = capsys.readouterr()
            assert (code, captured.out) == (
                1, report if command == "validate" else ""), (command, where)
            assert captured.err.startswith(f"error: {where} non-finite "), \
                (command, captured.err)
            assert not out.exists(), command

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_every_parameter_file_number(self, tmp_path, capsys, token):
        # each scalar, vector entry, zone field and [fit] number in turn
        lines = Path(fixture_path("species.params")).read_text().split("\n")
        path, swept = tmp_path / "species.params", 0
        for i, line in enumerate(lines):
            key, sep, value = line.partition(" = ")
            cells = value.split(", ") if sep else []
            for j in (j for j, c in enumerate(cells) if _is_number(c)):
                if key.startswith("zone_") and j == 2 and token == "inf":
                    continue   # m_max = inf: test_an_infinite_cap_parses
                mutated = key + sep + ", ".join(cells[:j] + [token]
                                                + cells[j + 1:])
                path.write_text("\n".join(lines[:i] + [mutated]
                                          + lines[i + 1:]))
                self.check_each_command(tmp_path, capsys, path,
                                        fixture_path("tree1.target.csv"),
                                        f"{path}:{i + 1}:")
                swept += 1
        # 35 species numbers, 26 zone fields, 70 [fit] numbers
        assert swept == 131 - (6 if token == "inf" else 0)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_every_target_file_column(self, tmp_path, capsys, token):
        # each numeric cell of each section's first row in turn
        lines = Path(fixture_path("tree1.target.csv")).read_text().split("\n")
        path, swept = tmp_path / "tree1.target.csv", 0
        for i in range(1, len(lines)):
            if not lines[i - 1].startswith("gu_index,"):   # a header
                continue
            cells = lines[i].split(",")
            for j in (j for j, c in enumerate(cells) if _is_number(c)):
                mutated = ",".join(cells[:j] + [token] + cells[j + 1:])
                path.write_text("\n".join(lines[:i] + [mutated]
                                          + lines[i + 1:]))
                self.check_each_command(tmp_path, capsys,
                                        fixture_path("species.params"), path,
                                        f"{path}:{i + 1}:{j + 1}:")
                swept += 1
        assert swept == 2 + 4 + 3 + 4   # [script] to [branches]

    def test_an_infinite_cap_parses(self, tmp_path, capsys):
        from treesink.cli import main
        text = Path(fixture_path("species.params")).read_text()
        path = tmp_path / "species.params"
        for spelling, ok in (("inf", True), ("INF", True),
                             ("Infinity", False), ("+inf", False)):
            path.write_text(text.replace("zone_2_4 = 1.0, 1.1, 2,",
                                         f"zone_2_4 = 1.0, 1.1, {spelling},"))
            if ok:
                _, zones, _ = read_parameter_file(path)
                assert zones.get(2, 4).m_max == math.inf
            assert main(["validate", "--params", str(path)]) == (0 if ok
                                                                  else 1)
            assert capsys.readouterr().err == ("" if ok else (
                f"error: {path}:27: non-finite m_max: {spelling!r}\n"))

    @pytest.mark.parametrize("count", ["9" * 5000, str(2 ** 53 + 1)])
    def test_a_branch_count_too_large_to_hold_is_located(self, tmp_path,
                                                         count):
        # too many digits for int(), or more than a float holds exactly: a
        # located error, not a ValueError or a rounded count
        text = Path(fixture_path("tree1.target.csv")).read_text()
        path = tmp_path / "tree1.target.csv"
        path.write_text(text.replace("\n3,5,PA4x1\n", f"\n3,5,PA4x{count}\n"))
        with pytest.raises(ParseError) as err:
            parse_target_file(path)
        assert (err.value.line, err.value.column) == (5, 3)
        assert str(err.value) == (f"{path}:5:3: branch spec out of range: "
                                  f"{count!r}")
