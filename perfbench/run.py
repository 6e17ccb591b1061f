#!/usr/bin/env python3
"""treesink benchmark: three closed-loop workloads, timed end to end and per
module.

Run from the repository root:

    python3 perfbench/run.py --workload simulate46 --seed 0 \
        --seconds 20 --trace 0

Every run is one process, one Python thread and one client.  It sets the
program up several times (import plus fixture parsing, or building the small
target) and reports the median as ``setup_s``, then runs the workload's
operation back to back until ``--seconds`` have passed, checking every
result.  The host is shared and its speed drifts, so ``setup_s`` and
``op_ms`` are rescaled to a nominal host speed by probes sampled during the
run (``HostSpeed``); the raw wall times are reported beside them.
``--trace 1`` runs the same untraced pass, then a traced pass in
which the public functions of each ``src/treesink`` module are wrapped where
their callers look them up; the wrappers are removed afterwards.

Workloads (why each was chosen is in ``WORKLOADS`` below):

* ``simulate46``: one operation is a CLI-shaped ``simulate`` of the 46-cycle
  fixture tree (topology, signature, output files) followed by one
  profile-only ``simulate`` (the call shape calibration uses).
* ``fit_bundled``: one operation is the bundled ``treesink fit`` on both
  fixture trees, from ``fit_topology`` through ``write_fit_result``.
* ``fit_small``: one operation is one small identification chain (8-cycle
  tree, annealing to its stop temperature, polish, intervals) written with
  ``write_fit_result``; a run cycles through ``SMALL_CHAINS`` seeded chains.

Stdout carries a human-readable table, a full report (``report {...}``,
with the environment, exact counts, every failure and, when traced, every
per-layer figure) and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics.  Those are
the figures every workload produces; per-layer figures only some workloads
produce (calibration stage times, the topology dump, each writer) are in the
report.  The traced
pass's spans are written to ``.bench_build/perfbench/spans_<workload>.jsonl``.
Exit code 2 means the program could not be found or set up; no result line
is printed then.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
OUT = ROOT / ".bench_build" / "perfbench"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
REFERENCE_PATH = (Path(__file__).resolve().parent
                  / "reference_simulate46_seed0.json")

#: set-up is repeated this many times per run and reported as the median;
#: the first repeat also pays the numpy/scipy import
SETUP_REPEATS = 9
#: seeded identification chains a ``fit_small`` run cycles through
SMALL_CHAINS = 10
#: the factorization tests' relative tolerance
PROFILE_RTOL = 1e-9
#: whole-run mass balance tolerance (relative), as acceptance criterion 2
BALANCE_RTOL = 1e-6
#: thread pools of the numeric libraries are pinned to one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MODULES = ("core", "sourcesink", "topology", "structure", "engine",
           "calibration", "fileio", "synthetic")
#: host-speed sampling (see ``HostSpeed``): loop steps of one probe, the
#: wall time between probes, and the probe duration normalized times are
#: rescaled to (about its duration on the 2-core host the benchmark was
#: written on)
PROBE_STEPS = 500
PROBE_INTERVAL_S = 0.25
PROBE_NOMINAL_S = 0.0025


class SetupError(Exception):
    """The program or its fixtures cannot be found or loaded."""


# ----------------------------------------------------------------------
# program loading
# ----------------------------------------------------------------------

def load_program() -> SimpleNamespace:
    """Import every treesink module afresh and return them by short name.

    Earlier imports are dropped from ``sys.modules`` first, so each call pays
    the program's whole import cost (numpy and scipy stay imported)."""
    if not (SRC / "treesink" / "__init__.py").is_file():
        raise SetupError(f"no treesink package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "treesink" or m.startswith("treesink.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(**{
        name: importlib.import_module(f"treesink.{name}") for name in MODULES})


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _files_digest(paths) -> tuple[int, str]:
    """(total bytes, digest of the concatenated contents) of written files."""
    h = hashlib.sha256()
    total = 0
    for path in paths:
        data = Path(path).read_bytes()
        total += len(data)
        h.update(data)
    return total, h.hexdigest()[:16]


def structure_sizes(topology: dict) -> dict[str, int]:
    """Classes, stored metamers and represented metamers of a topology dump."""
    stored = represented = 0
    for cls in topology["axis_classes"]:
        n = sum(gu["metamer_count"] for gu in cls["growth_units"])
        stored += n
        represented += cls["multiplicity"] * n
    return {"structure.classes": len(topology["axis_classes"]),
            "structure.metamers_stored": stored,
            "structure.metamers_represented": represented}


def _inside(value: float, interval) -> bool:
    lo, hi = interval
    return (lo is None or value >= lo) and (hi is None or value <= hi)


class HostSpeed:
    """Samples the host's speed while the benchmark measures.

    The host this benchmark runs on is shared, and its speed drifts by tens
    of percent over seconds to minutes, slowing the program and any other
    code alike.  While active, a timer signal runs a short fixed reference
    computation (small numpy array scans plus Python container churn, the
    mix of the program's inner loops; not part of the program) every
    ``PROBE_INTERVAL_S`` and records how long it took.  ``normalize``
    removes the probes' own time from an interval and rescales the rest by
    ``PROBE_NOMINAL_S / mean probe duration`` over that interval, giving the
    time the work would have taken at a nominal host speed."""

    def __init__(self):
        import numpy as np
        self._base = np.arange(512, dtype=float)
        self._cumsum = np.cumsum
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame):
        self._sample()

    def _sample(self):
        cumsum, base = self._cumsum, self._base
        t0 = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(PROBE_STEPS):
            seg = base[i % 256:i % 256 + 256]
            acc += float(cumsum(seg[::-1])[::-1][0])
            table[i % 97] = (i, acc, [acc] * 3)
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def normalize(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds the work in [t0, t1) ran, excluding probes; the same
        rescaled to the nominal host speed by the probes taken during the
        interval and the last one before it)."""
        first = max(bisect.bisect_right(self.starts, t0) - 1, 0)
        end = bisect.bisect_left(self.starts, t1)
        ran = (t1 - t0) - sum(self.durations[first + 1:end])
        speed = statistics.fmean(self.durations[first:end])
        return ran, ran * PROBE_NOMINAL_S / speed


@dataclass
class OpRecord:
    """One operation's start and end (perf_counter), its timed parts and
    what it returned."""

    start: float
    end: float
    parts: dict[str, float]
    payload: object


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class Simulate46:
    """The engine on its own.  The per-cycle phases in structure, topology
    and sourcesink dominate; calibration is absent.  The full half runs
    beside the profile-only half, so a faster step that makes the
    signature, the topology dump or the writers slower shows."""

    name = "simulate46"
    parts = ("simulate_ms", "sim_profile_ms")
    variants = 1

    def setup(self, ts, seed):
        params, zones, _ = ts.fileio.read_parameter_file(
            FIXTURES / "species.params")
        dataset = ts.fileio.parse_target_file(FIXTURES / "tree2.target.csv")
        if seed != 0:
            factor = random.Random(seed).uniform(0.9, 1.1)
            v_env = list(params.v_env)
            v_env[1] *= factor
            params = params.with_values(v_env=tuple(v_env))
        return SimpleNamespace(params=params, zones=zones, dataset=dataset,
                               seed=seed)

    def op(self, ts, inputs, out_dir, variant):
        p, z, ds = inputs.params, inputs.zones, inputs.dataset
        t0 = time.perf_counter()
        full = ts.engine.simulate(p, z, ds, tree_index=1)
        written = ts.fileio.write_simulation_output(out_dir, full)
        t1 = time.perf_counter()
        profile = ts.engine.simulate(p, z, ds, tree_index=1,
                                     with_topology=False, with_signature=False)
        t2 = time.perf_counter()
        return OpRecord(t0, t2, {"simulate_ms": (t1 - t0) * 1e3,
                                  "sim_profile_ms": (t2 - t1) * 1e3},
                        (full, profile, written))

    def check(self, ts, inputs, payload, reference):
        full, profile, written = payload
        failures = []
        produced = inputs.params.q0 + sum(a.q for a in full.allocations)
        materialized = (full.total_wood_g + full.total_leaf_ever_g
                        + full.pending_shoot_fund_g)
        balance = abs(materialized - produced) / produced
        if not balance < BALANCE_RTOL:
            failures.append(f"whole-run mass balance off by {balance:.3e}")
        for a in full.allocations:
            if abs(a.q_s + a.q_r - a.q) > PROFILE_RTOL * max(a.q, 1e-30):
                failures.append(f"cycle {a.cycle}: q_s + q_r != q")
                break
        if profile.trunk_profile != full.trunk_profile:
            failures.append("profile-only trunk profile differs from full run")
        sig = _digest(repr(full.structure_signature).encode())
        if inputs.seed == 0 and reference is not None:
            if sig != reference["signature"]:
                failures.append("structure signature differs from reference")
            rows = [(t.mass_g, t.diameter_cm, t.length_cm)
                    for t in full.trunk_profile]
            ref_rows = reference["trunk_profile"]
            if len(rows) != len(ref_rows):
                failures.append("trunk profile length differs from reference")
            else:
                worst = max(abs(a - b) / max(abs(a), abs(b), 1e-30)
                            for row, ref in zip(rows, ref_rows)
                            for a, b in zip(row, ref))
                if worst > PROFILE_RTOL:
                    failures.append(
                        f"trunk profile deviates {worst:.3e} from reference")
        nbytes, files = _files_digest(written)
        counts = dict(structure_sizes(full.topology))
        counts.update({"fileio.bytes_written": nbytes,
                       "digest.signature": sig, "digest.files": files})
        return failures, counts


class FitBundled:
    """The bundled ``treesink fit``.  It converges at once, so interval
    bisection (calibration intervals plus structure signatures) does nearly
    all the work and the continuous stage almost none."""

    name = "fit_bundled"
    parts = ("fit_s",)
    variants = 1

    def setup(self, ts, seed):
        params, zones, spec = ts.fileio.read_parameter_file(
            FIXTURES / "species.params")
        targets = [ts.fileio.parse_target_file(FIXTURES / name)
                   for name in ("tree1.target.csv", "tree2.target.csv")]
        return SimpleNamespace(params=params, zones=zones, targets=targets,
                               spec=replace(spec, seed=seed))

    def op(self, ts, inputs, out_dir, variant):
        t0 = time.perf_counter()
        result = ts.calibration.fit_topology(inputs.spec, inputs.params,
                                             inputs.zones, inputs.targets)
        written = ts.fileio.write_fit_result(out_dir, result)
        t1 = time.perf_counter()
        return OpRecord(t0, t1, {"fit_s": t1 - t0}, (result, written))

    def check(self, ts, inputs, payload, reference):
        result, written = payload
        failures = []
        if not result.objective <= inputs.spec.stop_objective:
            failures.append(f"objective {result.objective!r} above "
                            f"stop_objective {inputs.spec.stop_objective!r}")
        for p in inputs.spec.topological:
            kind, bearer, axillary = p.name.split("_")
            species = getattr(inputs.zones.get(int(bearer), int(axillary)),
                              kind)
            interval = result.intervals.get(p.name)
            if interval is None or not _inside(species, interval):
                failures.append(f"species {p.name} = {species} outside "
                                f"interval {interval}")
        counts = _fit_counts(ts, inputs.params, inputs.zones, inputs.targets,
                             result, written)
        return failures, counts


def _small_script(ts):
    """The 8-cycle trunk script of demos/04_identification_roundtrip.py."""
    return tuple(
        ts.core.TrunkScriptEntry(g, 4 if g <= 2 else 5,
                                 ((3, 1),) if g in (3, 5, 7) else
                                 ((2, 1),) if g == 6 else ())
        for g in range(1, 9))


class FitSmall:
    """The demos/04 identification with annealing run to its stop
    temperature, so annealing, polish and intervals all run.  Simulations
    take a few milliseconds, so per-simulation fixed costs (validation,
    candidate application, the seed plan) dominate.

    One operation is one chain; the run cycles through ``SMALL_CHAINS``
    seeded chains, so the median covers many chains and each chain's
    counts and written bytes are checked again when it repeats."""

    name = "fit_small"
    parts = ("fit_s",)
    variants = SMALL_CHAINS

    def setup(self, ts, seed):
        params = ts.synthetic.reference_parameters()
        zones = ts.synthetic.reference_zone_rules()
        target = ts.synthetic.generate_synthetic_target(
            params, zones, _small_script(ts), 0)
        truth = {"v_1": params.v_env[0], "gamma": params.gamma,
                 "m2_2_0": zones.get(2, 0).m2, "a2_2_4": zones.get(2, 4).a2}
        cal = ts.calibration
        rng = random.Random(seed)
        specs = [cal.FitSpec(
            continuous=[cal.FreeParameter("v_1", 150.0, 2500.0, 900.0),
                        cal.FreeParameter("gamma", 0.5, 5.0, 2.0)],
            topological=[cal.FreeParameter("m2_2_0", 0.0, 3.0, 1.0),
                         cal.FreeParameter("a2_2_4", 0.0, 1.5, 0.2)],
            schedule=cal.AnnealSchedule(t0=0.5, cooling=0.75, steps_per_t=8,
                                        t_stop_ratio=5e-2, step_scale=0.3),
            seed=rng.randrange(2 ** 31), stop_objective=None,
            polish_rounds=3, max_nfev=40) for _ in range(SMALL_CHAINS)]
        return SimpleNamespace(params=params, zones=zones, targets=[target],
                               truth=truth, specs=specs)

    def op(self, ts, inputs, out_dir, variant):
        t0 = time.perf_counter()
        result = ts.calibration.fit_topology(inputs.specs[variant],
                                             inputs.params, inputs.zones,
                                             inputs.targets)
        written = ts.fileio.write_fit_result(
            os.path.join(out_dir, f"chain{variant}"), result)
        t1 = time.perf_counter()
        return OpRecord(t0, t1, {"fit_s": t1 - t0}, (result, written))

    def check(self, ts, inputs, payload, reference):
        result, written = payload
        failures = []
        if not result.objective <= 1e-12:
            failures.append(f"objective {result.objective!r} above 1e-12")
        for name in ("m2_2_0", "a2_2_4"):
            interval = result.intervals.get(name)
            if interval is None or not _inside(inputs.truth[name], interval):
                failures.append(f"true {name} outside {interval}")
        counts = _fit_counts(ts, inputs.params, inputs.zones, inputs.targets,
                             result, written)
        return failures, counts


def _fit_counts(ts, params, zones, targets, result, written):
    """Exact counts of a fit operation: evaluations, written bytes and
    digest, and the structure of the largest fitted tree (simulated again
    from the fitted values, outside the timed region)."""
    nbytes, files = _files_digest(written)
    fitted_params, fitted_zones = ts.calibration.apply_candidate(
        params, zones, {**result.continuous, **result.topology})
    tree = len(targets) - 1
    output = ts.engine.simulate(fitted_params, fitted_zones, targets[tree],
                                tree_index=tree, with_signature=False)
    counts = dict(structure_sizes(output.topology))
    counts.update({"calibration.evaluations": result.evaluations,
                   "fileio.bytes_written": nbytes, "digest.files": files})
    return counts


#: why each workload is in the benchmark is in its class docstring
WORKLOADS = {w.name: w for w in (Simulate46(), FitBundled(), FitSmall())}


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

def wrap_points(ts) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) of every function the traced pass
    wraps.  Each is rebound where its caller looks it up: the modules
    import by name, so e.g. ``simulate`` is rebound in engine, calibration
    and synthetic."""
    e, c, t, s, f = (ts.engine, ts.calibration, ts.topology, ts.structure,
                     ts.fileio)
    return [
        (e, "simulate", "engine.simulate"),
        (c, "simulate", "engine.simulate"),
        (ts.synthetic, "simulate", "engine.simulate"),
        (e, "step", "engine.step"),
        (c, "extract_targets", "engine.extract_targets"),
        (e, "validate_parameters", "core.validate"),
        (e, "validate_script", "core.validate"),
        (e, "seed_plan", "topology.seed_plan"),
        (e, "organogenesis_step", "topology.organogenesis_step"),
        (e, "production", "sourcesink"),
        (e, "solve_global_demand", "sourcesink"),
        (e, "ring_demand", "sourcesink"),
        (e, "allocate_shoots", "sourcesink"),
        (t, "shoot_demand", "sourcesink"),
        (s.AxisClass, "append_gu", "structure.append_gu"),
        (s.AxisClass, "record_rings", "structure.record_rings"),
        (s.TreeState, "ring_partition_arrays", "structure.ring_partition"),
        (s.TreeState, "total_blade_area_cm2", "structure.blade_area"),
        (s.TreeState, "structure_signature", "structure.signature"),
        (s.TreeState, "topology_dump", "structure.topology_dump"),
        (f, "read_parameter_file", "fileio.read"),
        (f, "parse_target_file", "fileio.read"),
        (f, "write_simulation_output", "fileio.write_simulation_output"),
        (f, "write_fit_result", "fileio.write_fit_result"),
        (c, "fit_topology", "calibration.fit_topology"),
        (c, "fit_continuous", "calibration.continuous"),
        (c, "compute_intervals", "calibration.intervals"),
        (c, "weighted_residuals", "calibration.objective"),
    ]


#: calibration stage a simulation belongs to, by its innermost stage span
_STAGES = {"calibration.continuous": "continuous",
           "calibration.intervals": "intervals",
           "calibration.fit_topology": "search"}


class Tracer:
    """Spans around the wrapped functions, kept in memory.

    Each span has a name, start, end, the span that caused it and the
    operation it belongs to; self time (duration minus wrapped children) and
    call counts are accumulated as spans close."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.stage_sims: dict[str, int] = {}
        self.active = False
        self.op = -1
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s[name] = self.incl_s[name] = 0.0
            self.calls[name] = 0
        return self._ids[name]

    def install(self, points) -> None:
        for owner, attr, name in points:
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            setattr(owner, attr, self._wrapper(original, name))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrapper(self, fn, name):
        name_id = self._id(name)
        stage_of_sim = name == "engine.simulate"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if stage_of_sim:
                tracer._count_stage()
            frame = tracer._enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        traced.perfbench_wrapped = fn
        return traced

    def _count_stage(self) -> None:
        for frame in reversed(self._stack):
            stage = _STAGES.get(self.names[frame[1]])
            if stage is not None:
                self.stage_sims[stage] = self.stage_sims.get(stage, 0) + 1
                return

    def _enter(self, name_id: int) -> list:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        start = time.perf_counter()
        self.span_start.append(start - self._t0)
        self.span_end.append(0.0)
        frame = [idx, name_id, start, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        idx, name_id, start, children = frame
        duration = end - start
        self.span_end[idx] = end - self._t0
        name = self.names[name_id]
        self.self_s[name] += duration - children
        self.incl_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration

    def snapshot(self) -> dict[str, float]:
        """Current cumulative counters, for per-operation deltas."""
        snap = {f"{n}.calls": c for n, c in self.calls.items()}
        snap.update({f"{n}.self_s": s for n, s in self.self_s.items()})
        snap.update({f"{n}.incl_s": s for n, s in self.incl_s.items()})
        snap.update({f"stage.{n}.sims": c
                     for n, c in self.stage_sims.items()})
        return snap

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: name, start and end (s from
        the tracer's creation), parent span index (-1 for none) and
        operation index (-1 for set-up)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        quoted = [json.dumps(name) for name in self.names]
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_name)):
                fh.write(f"[{quoted[self.span_name[i]]},"
                         f"{self.span_start[i]:.9f},{self.span_end[i]:.9f},"
                         f"{self.span_parent[i]},{self.span_op[i]}]\n")


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------

@dataclass
class PassResult:
    op_seconds: list[float] = field(default_factory=list)
    op_norm_seconds: list[float] = field(default_factory=list)
    op_variants: list[int] = field(default_factory=list)
    parts: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict[int, dict] = field(default_factory=dict)  # per variant
    count_mismatches: list[str] = field(default_factory=list)
    op_deltas: list[dict] = field(default_factory=list)


def diff_counts(expected: dict, counts: dict, label: str) -> list[str]:
    """Every key whose exact count differs between two records."""
    return [f"{label}: {key} {counts.get(key)!r} != {expected.get(key)!r}"
            for key in sorted(set(counts) | set(expected))
            if counts.get(key) != expected.get(key)]


def run_pass(workload, ts, inputs, seconds: float, reference,
             tracer: Tracer | None = None,
             host: HostSpeed | None = None) -> PassResult:
    """Run ``workload``'s operations back to back, checking every result
    outside the timed region, and stop before an operation that would, at
    the mean duration so far, end after ``seconds``.  Operation ``i`` is
    variant ``i % workload.variants``; one operation always runs, and a
    traced pass runs every variant once.  Counts must repeat exactly each
    time a variant runs again.  With ``host`` sampling, operation times
    exclude the probes and are also reported normalized."""
    out_dir = str(OUT / workload.name)
    result = PassResult(parts={p: [] for p in workload.parts})
    min_ops = workload.variants if tracer is not None else 1
    start = time.perf_counter()
    while result.attempted < min_ops or (time.perf_counter() - start) * (
            1 + 1 / result.attempted) <= seconds:
        index = result.attempted
        variant = index % workload.variants
        result.attempted += 1
        if tracer is not None:
            before = tracer.snapshot()
            tracer.op, tracer.active = index, True
        try:
            try:
                record = workload.op(ts, inputs, out_dir, variant)
            finally:
                if tracer is not None:
                    tracer.active = False
                    result.op_deltas.append(_delta(before, tracer.snapshot()))
            failures, counts = workload.check(ts, inputs, record.payload,
                                              reference)
        except Exception:  # an operation that raises counts as failed
            result.failed += 1
            result.failures.append(f"op {index}: {traceback.format_exc()}")
            continue
        if failures:
            result.failed += 1
            result.failures.extend(f"op {index}: {f}" for f in failures)
        expected = result.counts.setdefault(variant, counts)
        result.count_mismatches += diff_counts(expected, counts, f"op {index}")
        ran, norm = (host.normalize(record.start, record.end) if host
                     else (record.end - record.start,) * 2)
        result.op_seconds.append(ran)
        result.op_norm_seconds.append(norm)
        result.op_variants.append(variant)
        for key, value in record.parts.items():
            result.parts[key].append(value)
    exact = [{k: v for k, v in d.items()
              if v and k.endswith((".calls", ".sims"))}
             for d in result.op_deltas]
    for i in range(workload.variants, len(exact)):
        result.count_mismatches += diff_counts(
            exact[i % workload.variants], exact[i], f"traced op {i}")
    return result


def _delta(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def timed_setups(workload, seed: int, repeats: int = SETUP_REPEATS,
                 host: HostSpeed | None = None):
    """Load the program and the workload's inputs ``repeats`` times; return
    the last (modules, inputs) and every set-up time, raw and normalized."""
    times, norm = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ts = load_program()
        inputs = workload.setup(ts, seed)
        t1 = time.perf_counter()
        ran, scaled = host.normalize(t0, t1) if host else (t1 - t0,) * 2
        times.append(ran)
        norm.append(scaled)
    return ts, inputs, times, norm


def load_reference():
    if not REFERENCE_PATH.is_file():
        return None
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, inclusive method); the
    single value when there is only one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


OUTPUT_COUNTS = ("fileio.bytes_written", "structure.classes",
                 "structure.metamers_stored", "structure.metamers_represented")


def per_layer(traced: PassResult, variants: int) -> dict[str, float]:
    """Per-operation means over the traced pass's first operation of each
    variant: self times in ms, calls, simulations per calibration stage,
    calibration stage times (inclusive) and the output counts."""
    cycle = traced.op_deltas[:variants]
    n = len(cycle)
    total: dict[str, float] = {}
    for counts in traced.counts.values():
        for key in OUTPUT_COUNTS:
            total[key] = total.get(key, 0) + counts[key]
    for delta in cycle:
        for key, value in delta.items():
            total[key] = total.get(key, 0) + value
    total["stage.all.sims"] = sum(total.get(f"stage.{s}.sims", 0) for s in
                                  ("continuous", "search", "intervals"))
    mean = {k: v / n for k, v in total.items()}
    mean = {k: int(v) if isinstance(v, float) and v.is_integer()
            and not k.endswith("_s") else v for k, v in mean.items()}

    def self_ms(*names):
        return sum(mean.get(f"{x}.self_s", 0.0) for x in names) * 1e3

    def incl_ms(name):
        return mean.get(f"{name}.incl_s", 0.0) * 1e3

    def calls(name):
        return mean.get(f"{name}.calls", 0)

    def sims(stage):
        return mean.get(f"stage.{stage}.sims", 0)

    fit_ms = incl_ms("calibration.fit_topology")
    stage_ms = {s: incl_ms(f"calibration.{s}")
                for s in ("continuous", "intervals")}
    op_ms = statistics.fmean(traced.op_seconds[:variants]) * 1e3
    return {
        **{key: mean[key] for key in OUTPUT_COUNTS},
        "engine.step.ms": self_ms("engine.step"),
        "engine.collect.ms": self_ms("engine.simulate"),
        "engine.extract_targets.ms": self_ms("engine.extract_targets"),
        "engine.simulate.calls": calls("engine.simulate"),
        "engine.extract_targets.calls": calls("engine.extract_targets"),
        "core.validate.ms": self_ms("core.validate"),
        "topology.seed_plan.ms": self_ms("topology.seed_plan"),
        "topology.organogenesis_step.ms":
            self_ms("topology.organogenesis_step"),
        "topology.organogenesis_step.calls":
            calls("topology.organogenesis_step"),
        "sourcesink.ms": self_ms("sourcesink"),
        "sourcesink.calls": calls("sourcesink"),
        "structure.append_gu.ms": self_ms("structure.append_gu"),
        "structure.append_gu.calls": calls("structure.append_gu"),
        "structure.ring_partition.ms": self_ms("structure.ring_partition"),
        "structure.record_rings.ms": self_ms("structure.record_rings"),
        "structure.blade_area.ms": self_ms("structure.blade_area"),
        "structure.signature.ms": self_ms("structure.signature"),
        "structure.signature.calls": calls("structure.signature"),
        "structure.topology_dump.ms": self_ms("structure.topology_dump"),
        "structure.topology_dump.calls": calls("structure.topology_dump"),
        "fileio.write.ms": self_ms("fileio.write_simulation_output",
                                   "fileio.write_fit_result"),
        "fileio.write_simulation_output.ms":
            self_ms("fileio.write_simulation_output"),
        "fileio.write_fit_result.ms": self_ms("fileio.write_fit_result"),
        "calibration.sims": sims("all"),
        "calibration.sim_share": (incl_ms("engine.simulate") / op_ms
                                  if fit_ms > 0 and op_ms > 0 else 0.0),
        "calibration.sim_share.base_ms": op_ms,
        "calibration.objective.calls": calls("calibration.objective"),
        "calibration.objective.ms": incl_ms("calibration.objective"),
        "calibration.continuous.ms": stage_ms["continuous"],
        "calibration.continuous.sims": sims("continuous"),
        "calibration.search.ms": (fit_ms - stage_ms["continuous"]
                                  - stage_ms["intervals"]),
        "calibration.search.sims": sims("search"),
        "calibration.intervals.ms": stage_ms["intervals"],
        "calibration.intervals.sims": sims("intervals"),
    }


def tracing_overhead_ms(plain: PassResult, traced: PassResult) -> float:
    """Traced minus untraced operation time in ms: the median of each
    variant's times, differenced per variant and averaged over the variants
    both passes ran."""
    def medians(result):
        times: dict[int, list[float]] = {}
        for variant, sec in zip(result.op_variants, result.op_seconds):
            times.setdefault(variant, []).append(sec)
        return {v: statistics.median(t) for v, t in times.items()}

    a, b = medians(plain), medians(traced)
    common = a.keys() & b.keys()
    if not common:
        return float("nan")
    return statistics.fmean(b[v] - a[v] for v in common) * 1e3


def environment() -> dict:
    """Versions, processor count, thread settings, cache size and commit."""
    import numpy
    import scipy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0))
           if hasattr(os, "sched_getaffinity") else None,
           "threads": {v: os.environ.get(v) for v in THREAD_VARS},
           "llc_bytes": _llc_bytes(), "commit": _git_commit()}
    return env


def _llc_bytes():
    """Largest cache size the C library reports (glibc sysconf levels 3, 2
    and 1d), or None where it is not available."""
    try:
        import ctypes
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
    except (OSError, AttributeError):
        return None
    for name in (194, 191, 188):  # _SC_LEVEL3/2_CACHE_SIZE, _SC_LEVEL1_DCACHE
        size = libc.sysconf(name)
        if size > 0:
            return size
    return None


def _git_commit():
    """The checkout's commit read from .git, or None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def declared_metrics() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric declarations of BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full report."""
    workload = WORKLOADS[workload_name]
    reference = load_reference()
    with HostSpeed() as host:
        ts, inputs, setup_raw, setup_norm = timed_setups(workload, seed,
                                                         host=host)
        plain = run_pass(workload, ts, inputs, seconds, reference, host=host)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    op_ms = [s * 1e3 for s in plain.op_norm_seconds] or [float("nan")]
    wall_ms = [s * 1e3 for s in plain.op_seconds] or [float("nan")]
    report = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "environment": environment(),
        "setup_s": {"value": statistics.median(setup_norm), "unit": "s",
                    "n": len(setup_norm), "wall_p50":
                    statistics.median(setup_raw), "wall": setup_raw},
        "op_ms": {"p50": statistics.median(op_ms),
                  "p90": percentile(op_ms, 90), "n": len(op_ms),
                  "unit": "ms"},
        "wall_op_ms": {"p50": statistics.median(wall_ms),
                       "p90": percentile(wall_ms, 90), "n": len(wall_ms),
                       "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "host_probe": {"samples": len(host.durations),
                       "p50_ms": statistics.median(host.durations) * 1e3,
                       "nominal_ms": PROBE_NOMINAL_S * 1e3},
        "parts": {name: {"p50": statistics.median(v),
                         "p90": percentile(v, 90), "n": len(v)}
                  for name, v in plain.parts.items() if v},
        "attempted": plain.attempted, "failed": plain.failed,
        "counts": plain.counts, "count_mismatches": plain.count_mismatches,
        "failures": plain.failures,
    }
    if trace:
        tracer = Tracer()
        points = wrap_points(ts)
        tracer.install(points)
        try:
            tracer.active = True
            traced_inputs = workload.setup(ts, seed)
            tracer.active = False
            setup_read_ms = tracer.self_s.get("fileio.read", 0.0) * 1e3
            traced = run_pass(workload, ts, traced_inputs, seconds,
                              reference, tracer=tracer)
        finally:
            tracer.uninstall()
        leftover = [f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in points
                    if hasattr(_raw(o, a), "perfbench_wrapped")]
        tracer.dump(OUT / f"spans_{workload_name}.jsonl")
        layers = per_layer(traced, workload.variants)
        layers["fileio.read.ms"] = setup_read_ms
        traced_ms = [s * 1e3 for s in traced.op_seconds] or [float("nan")]
        layers["tracing_overhead.ms"] = tracing_overhead_ms(plain, traced)
        report["layers"] = layers
        report["traced"] = {
            "attempted": traced.attempted, "failed": traced.failed,
            "op_ms_p50": statistics.median(traced_ms), "n": len(traced_ms),
            "spans": len(tracer.span_name), "wrapped": len(points),
            "left_installed": leftover}
        report["attempted"] += traced.attempted
        report["failed"] += traced.failed
        report["failures"] += traced.failures
        report["count_mismatches"] += traced.count_mismatches
        for variant in plain.counts.keys() & traced.counts.keys():
            report["count_mismatches"] += diff_counts(
                plain.counts[variant], traced.counts[variant],
                f"traced pass, variant {variant}")
        if leftover:
            report["count_mismatches"].append(
                f"wrappers left installed: {leftover}")
    report["failed_ratio"] = report["failed"] / report["attempted"]
    report["correct"] = (report["failed"] == 0
                         and not report["count_mismatches"])
    return report


def _raw(owner, attr):
    return owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)


def result_line(report: dict, trace: bool) -> dict:
    """The result object printed last: every declared end-to-end metric,
    or with tracing every declared per-layer metric."""
    e2e, layers = declared_metrics()
    if trace:
        metrics = {name: {"value": report["layers"][name],
                          "unit": decl["unit"]}
                   for name, decl in layers.items()}
    else:
        values = {"op_ms.p50": report["op_ms"]["p50"],
                  "setup_s": report["setup_s"]["value"],
                  "peak_rss_mb": report["peak_rss_mb"]["value"]}
        metrics = {name: {"value": values[name], "unit": decl["unit"]}
                   for name, decl in e2e.items()}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_table(report: dict) -> None:
    w = report["workload"]
    print(f"perfbench {w} seed={report['seed']} "
          f"seconds={report['seconds']}")
    print("  environment " + json.dumps(report["environment"]))
    op = report["op_ms"]
    wall = report["wall_op_ms"]
    rows = [("setup_s", report["setup_s"]["value"], "s",
             f"median of {report['setup_s']['n']} set-ups, normalized"),
            ("setup_s.wall", report["setup_s"]["wall_p50"], "s", "raw"),
            ("op_ms.p50", op["p50"], "ms", f"n={op['n']}, normalized"),
            ("op_ms.p90", op["p90"], "ms", f"n={op['n']}, normalized"),
            ("wall_op_ms.p50", wall["p50"], "ms", f"n={wall['n']}, raw"),
            ("wall_op_ms.p90", wall["p90"], "ms", f"n={wall['n']}, raw"),
            ("peak_rss_mb", report["peak_rss_mb"]["value"], "MB", "")]
    for name, part in report["parts"].items():
        unit = "s" if name.endswith("_s") else "ms"
        rows.append((f"{name}.p50", part["p50"], unit, f"n={part['n']}"))
        if part["n"] > 1:
            rows.append((f"{name}.p90", part["p90"], unit,
                         f"n={part['n']}, "
                         f"{part['n'] - int(0.9 * part['n'])} beyond"))
    rows.append(("failed_ratio", report["failed_ratio"], "",
                 f"{report['failed']} of {report['attempted']} operations"))
    for variant, counts in report["counts"].items():
        rows.append((f"counts[{variant}]", json.dumps(counts), "",
                     "exact, repeated per variant"))
    for name, value in report.get("layers", {}).items():
        rows.append((name, value, "", "traced, per operation"))
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:36s} {shown:>18s} {unit:3s} {note}")
    for line in report["failures"][:20] + report["count_mismatches"][:20]:
        print(f"  FAIL {line.splitlines()[-1] if line else line}")


def write_reference() -> None:
    """Record the seed-0 ``simulate46`` signature and trunk profile that
    later runs are checked against."""
    ts = load_program()
    inputs = WORKLOADS["simulate46"].setup(ts, 0)
    full = ts.engine.simulate(inputs.params, inputs.zones, inputs.dataset,
                              tree_index=1)
    reference = {
        "signature": _digest(repr(full.structure_signature).encode()),
        "sizes": structure_sizes(full.topology),
        "trunk_profile": [[t.mass_g, t.diameter_cm, t.length_cm]
                          for t in full.trunk_profile]}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n",
                              encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="treesink benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the simulate46 seed-0 reference")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.dont_write_bytecode = True
    try:
        if args.write_reference:
            write_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if not BENCHMARK_JSON.is_file():
            raise SetupError(f"missing {BENCHMARK_JSON}")
        report = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except (SetupError, ImportError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    print_table(report)
    print("report " + json.dumps(report, default=str))
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
