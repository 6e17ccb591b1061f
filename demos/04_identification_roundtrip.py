"""A compact identification round trip.

Targets are generated from known parameter values, the initial guesses are
pushed away from them, and the global fit (bounded least squares for the
continuous parameters, simulated annealing plus a neighbour-basin walk for
the zone coefficients) recovers the truth.  Because the zone coefficients
act through integer roundings, each is reported as the interval of values
reproducing every simulated output bit for bit, not a point estimate.
Each stage of the fit leaves a record of what it ran, printed first.

This demo keeps the tree small and frees only a handful of parameters so
it finishes in well under a minute; `treesink fit` with the bundled
fixtures runs the full twenty-parameter problem.

Run from the repository root:  python demos/04_identification_roundtrip.py
"""

import time

from treesink.calibration import (AnnealSchedule, FitSpec, FreeParameter,
                                  fit_topology)
from treesink.core import TrunkScriptEntry
from treesink.synthetic import (generate_synthetic_target,
                                reference_parameters, reference_zone_rules)

params = reference_parameters()
zones = reference_zone_rules()
script = tuple(
    TrunkScriptEntry(g, 4 if g <= 2 else 5,
                     ((3, 1),) if g in (3, 5, 7) else
                     ((2, 1),) if g == 6 else ())
    for g in range(1, 9))
target = generate_synthetic_target(params, zones, script, 0)

truth = {"v_1": params.v_env[0], "gamma": params.gamma,
         "m2_2_0": zones.get(2, 0).m2, "a2_2_4": zones.get(2, 4).a2}
spec = FitSpec(
    continuous=[FreeParameter("v_1", 150.0, 2500.0, 900.0),
                FreeParameter("gamma", 0.5, 5.0, 2.0)],
    topological=[FreeParameter("m2_2_0", 0.0, 3.0, 1.0),
                 FreeParameter("a2_2_4", 0.0, 1.5, 0.2)],
    schedule=AnnealSchedule(t0=0.5, cooling=0.75, steps_per_t=8,
                            t_stop_ratio=5e-2, step_scale=0.3),
    seed=7, stop_objective=1e-12, polish_rounds=3, max_nfev=40)

stages = []
start = time.perf_counter()
result = fit_topology(spec, params, zones, [target], stages)
elapsed = time.perf_counter() - start

print("stage    evaluations  runs  columns  replays  best       temperature"
      "  accepted")
for s in stages:   # only anneal's records carry a temperature
    at = "" if s.temperature is None else \
        f"{s.temperature:.3e}  {s.accepted:8d}"
    print(f"{s.stage:8s} {s.evaluations:11d} {s.runs:5d} {s.columns:8d} "
          f"{s.replays:8d}  {s.best:.3e}  {at}")
print(f"\nfit finished in {elapsed:.1f} s after {result.evaluations} "
      f"model evaluations; objective {result.objective:.3e}\n")
print("continuous parameters (estimate vs truth):")
for name in ("v_1", "gamma"):
    print(f"  {name:6s} {result.continuous[name]:10.4f}   "
          f"truth {truth[name]:g}")
print("\nzone coefficients (interval vs truth):")
for name, (lo, hi) in sorted(result.intervals.items()):
    hi_text = "inf" if hi is None else f"{hi:.3f}"
    inside = (lo is None or truth[name] >= lo) and \
        (hi is None or truth[name] <= hi)
    print(f"  {name:7s} [{lo:.3f}, {hi_text}]   truth {truth[name]:g} "
          f"({'inside' if inside else 'outside'})")
print("\nany value inside an interval reproduces every simulated output bit")
print("for bit, which is why a point estimate would overstate what the")
print("data can resolve.")
