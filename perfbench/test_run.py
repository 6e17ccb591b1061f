"""Tests of the benchmark itself: wrong results are counted as failed, counts
repeat, the result line carries exactly the declared metrics, and no
wrapper outlives the traced pass.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SIM = bench.WORKLOADS["simulate46"]


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path / "out")


@pytest.fixture
def sim_setup():
    ts, inputs, *_ = bench.timed_setups(SIM, 0, repeats=1)
    return ts, inputs


def test_reference_run_passes(sim_setup):
    ts, inputs = sim_setup
    result = bench.run_pass(SIM, ts, inputs, 0, bench.load_reference())
    assert (result.attempted, result.failed) == (1, 0), result.failures
    assert result.counts[0]["structure.metamers_represented"] == 125307


def test_dropped_ring_mass_is_counted_as_failed(sim_setup, monkeypatch):
    ts, inputs = sim_setup
    partition = ts.engine._partition_rings_factorized

    def drop_half(state, params, q_r, cycle):
        partition(state, params, 0.5 * q_r, cycle)

    monkeypatch.setattr(ts.engine, "_partition_rings_factorized", drop_half)
    result = bench.run_pass(SIM, ts, inputs, 0, None)
    assert result.failed == result.attempted == 1
    assert any("mass balance" in f for f in result.failures)


def test_perturbed_reference_is_counted_as_failed(sim_setup):
    ts, inputs = sim_setup
    reference = bench.load_reference()
    reference["trunk_profile"][10][0] *= 1 + 1e-7
    result = bench.run_pass(SIM, ts, inputs, 0, reference)
    assert result.failed == 1
    assert any("trunk profile deviates" in f for f in result.failures)


def test_fit_checks_reject_wrong_results(tmp_path):
    for name in ("fit_small", "fit_bundled"):
        workload = bench.WORKLOADS[name]
        ts, inputs, *_ = bench.timed_setups(workload, 0, repeats=1)
        truth = {"m2_2_0": 0.42, "a2_2_4": 0.6} if name == "fit_small" \
            else {p.name: p.init for p in inputs.spec.topological}
        wrong = ts.calibration.FitResult(
            continuous={}, topology=truth,
            intervals={n: (v + 0.1, None) for n, v in truth.items()},
            v_env=list(inputs.params.v_env), objective=1e-3, trace=[],
            r_squared={}, predicted_observed=[])
        written = ts.fileio.write_fit_result(tmp_path / name, wrong)
        failures, _ = workload.check(ts, inputs, (wrong, written), None)
        assert any("objective" in f for f in failures)
        assert sum("outside" in f for f in failures) == len(truth)


def test_host_speed_rescales_by_the_probes_of_the_interval():
    host = bench.HostSpeed()
    host.starts = bench.array("d", [0.0, 1.0, 2.0, 3.0])
    for probe in (0.005, 0.01):
        # the probe after the interval does not count
        host.durations = bench.array("d", [probe, probe, probe, 0.5])
        ran, norm = host.normalize(0.5, 2.5)
        assert ran == pytest.approx(2.0 - 2 * probe)
        assert norm == pytest.approx(ran * bench.PROBE_NOMINAL_S / probe)


def test_counts_repeat_for_the_same_seed():
    counts = []
    for seed in (3, 3, 1):
        ts, inputs, *_ = bench.timed_setups(SIM, seed, repeats=1)
        counts.append(bench.run_pass(SIM, ts, inputs, 0, None).counts[0])
    assert counts[0] == counts[1]
    assert counts[0]["digest.signature"] != counts[2]["digest.signature"]


def test_traced_pass_restores_every_wrapped_function(sim_setup):
    ts, inputs = sim_setup
    points = bench.wrap_points(ts)
    before = [bench._raw(owner, attr) for owner, attr, _ in points]
    tracer = bench.Tracer()
    tracer.install(points)
    try:
        assert all(hasattr(bench._raw(o, a), "perfbench_wrapped")
                   for o, a, _ in points)
        traced = bench.run_pass(SIM, ts, inputs, 0, None, tracer=tracer)
    finally:
        tracer.uninstall()
    assert [bench._raw(owner, attr) for owner, attr, _ in points] == before
    assert traced.failed == 0
    layers = {name.split(".")[0] for name, calls in tracer.calls.items()
              if calls}
    assert {"core", "engine", "fileio", "sourcesink", "structure",
            "topology"} <= layers


def test_result_line_carries_exactly_the_declared_metrics():
    report = bench.run("simulate46", 0, 0, True)
    assert report["correct"], report["failures"]
    assert report["traced"]["left_installed"] == []
    e2e, layers = bench.declared_metrics()
    for trace, declared in ((False, e2e), (True, layers)):
        line = bench.result_line(report, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(declared)
        assert all(line["metrics"][n]["unit"] == d["unit"]
                   for n, d in declared.items())
    assert all(v > 0 for v in (report["op_ms"]["p50"],
                               report["setup_s"]["value"],
                               report["peak_rss_mb"]["value"]))


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(bench.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(bench.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate46",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
