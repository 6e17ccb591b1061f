"""File formats.

Parameter file: line-oriented UTF-8 ``key = value`` text with ``#``
comments; arrays are comma lists; ``[zones]`` holds one ``zone_I_K`` line
per zone (m1, m2, m_max[, a1, a2], with ``inf`` allowed for m_max) and
``[fit]`` the calibration setup.  Target file: sectioned CSV with fixed
headers, sections ``[script]``, ``[trunk]``, ``[rings]``, ``[branches]``.

All numeric output is written in full-precision decimal text (repr), so a
write/read round trip reproduces every value exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

from .calibration import AnnealSchedule, FitResult, FitSpec, FreeParameter
from .core import (BranchObservation, GrowthParameters, ParseError,
                   RingObservation, TargetDataset, TrunkObservation,
                   TrunkScriptEntry, ZoneRule, ZoneRuleSet, validate_target)
from .engine import SimulationOutput

_LIST_FIELDS = {"v_env", "p_s", "p_rg", "slw_ages", "slw_values",
                "allom_a", "allom_b"}
_INT_FIELDS = {"pa_max", "short_shoot_metamers"}
_FLOAT_FIELDS = {"sp0", "alpha", "k_beer", "q0", "p_r", "gamma", "lambda_mix",
                 "root_fraction", "internode_leaf_ratio_short",
                 "internode_leaf_ratio_long", "long_short_shoot_ratio",
                 "wood_density"}


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_float(text, path, line_no, what="value", kind=float):
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"non-numeric {what}: {text!r}", path, line_no) \
            from None
    if kind is int and not value.is_integer():
        raise ParseError(f"{what} must be an integer: {text!r}", path, line_no)
    return kind(value)


def _parse_lines(path):
    """Yield (line number, section, key, value) for key=value lines."""
    section = ""
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                continue
            if "=" not in line:
                raise ParseError(f"expected key = value, got {line!r}",
                                 path, line_no)
            key, value = line.split("=", 1)
            yield line_no, section, key.strip(), value.strip()


def read_parameter_file(path) -> tuple[GrowthParameters, ZoneRuleSet,
                                       FitSpec | None]:
    """Parse a parameter file into growth parameters, zone rules, and the
    optional fit specification."""
    plain: dict[str, object] = {}
    zone_rules: list[ZoneRule] = []
    eq_fixed = True
    fit_lines: dict[str, tuple[int, str]] = {}

    for line_no, section, key, value in _parse_lines(path):
        if section in ("", "parameters", "species"):
            if key in _LIST_FIELDS:
                items = [v for v in value.split(",") if v.strip()]
                plain[key] = tuple(_parse_float(v, path, line_no, key)
                                   for v in items)
            elif key in _INT_FIELDS:
                plain[key] = _parse_float(value, path, line_no, key, int)
            elif key in _FLOAT_FIELDS:
                plain[key] = _parse_float(value, path, line_no, key)
            else:
                raise ParseError(f"unknown parameter {key!r}", path, line_no)
        elif section == "zones":
            if key == "eq_fixed":
                eq_fixed = value.lower() in ("1", "true", "yes")
            elif key.startswith("zone_"):
                parts = key.split("_")
                if len(parts) != 3:
                    raise ParseError(f"zone key must be zone_I_K: {key!r}",
                                     path, line_no)
                fields = [v.strip() for v in value.split(",")]
                if len(fields) not in (3, 5):
                    raise ParseError(
                        "zone line needs m1, m2, m_max[, a1, a2]",
                        path, line_no)
                m_max = math.inf if fields[2].lower() == "inf" \
                    else _parse_float(fields[2], path, line_no, "m_max")
                a1 = a2 = None
                if len(fields) == 5:
                    a1 = _parse_float(fields[3], path, line_no, "a1")
                    a2 = _parse_float(fields[4], path, line_no, "a2")
                zone_rules.append(ZoneRule(
                    bearer_pa=int(parts[1]), axillary_pa=int(parts[2]),
                    m1=_parse_float(fields[0], path, line_no, "m1"),
                    m2=_parse_float(fields[1], path, line_no, "m2"),
                    m_max=m_max, a1=a1, a2=a2))
            else:
                raise ParseError(f"unknown zones key {key!r}", path, line_no)
        elif section == "fit":
            fit_lines[key] = (line_no, value)
        else:
            raise ParseError(f"unknown section [{section}]", path, line_no)

    params = GrowthParameters(**plain)
    zones = ZoneRuleSet(rules=tuple(zone_rules), eq_fixed=eq_fixed)
    fit_spec = _build_fit_spec(fit_lines, path) if fit_lines else None
    return params, zones, fit_spec


def _build_fit_spec(fit_lines: dict[str, tuple[int, str]], path) -> FitSpec:
    def pop(key, default=None):
        return fit_lines.pop(key, (None, default))[1]

    def num(key, default=None, kind=float):   # ``default`` without a line
        if key not in fit_lines:
            return default
        line_no, text = fit_lines.pop(key)
        return _parse_float(text, path, line_no, key, kind)

    def free_list(key):
        raw = pop(key, "")
        names = [n.strip() for n in raw.split(",") if n.strip()]
        out = []
        for name in names:
            line_no, bound = fit_lines.pop(f"bound_{name}", (None, None))
            if bound is None:
                raise ParseError(f"missing bound_{name} for free parameter "
                                 f"{name}", path)
            ends = bound.split(",")
            if len(ends) != 2:
                raise ParseError(f"bound_{name} needs lower, upper", path,
                                 line_no)
            lo, hi = (_parse_float(v, path, line_no, f"bound_{name}")
                      for v in ends)
            init = num(f"init_{name}", 0.5 * (lo + hi))
            try:
                out.append(FreeParameter(name=name, lower=lo, upper=hi,
                                         init=init))
            except ValueError as exc:
                raise ParseError(str(exc), path, line_no) from None
        return out

    continuous = free_list("free_continuous")
    topological = free_list("free_topology")
    weights = {key[7:]: num(key) for key in list(fit_lines)
               if key.startswith("weight_")}
    schedule = AnnealSchedule(
        t0=num("anneal_t0", AnnealSchedule.t0),
        cooling=num("anneal_cooling", AnnealSchedule.cooling),
        steps_per_t=num("anneal_steps", AnnealSchedule.steps_per_t, int),
        t_stop_ratio=num("anneal_t_stop", AnnealSchedule.t_stop_ratio),
        step_scale=num("anneal_step_scale", AnnealSchedule.step_scale))
    try:
        spec = FitSpec(
            continuous=continuous, topological=topological,
            weights=weights or None, schedule=schedule,
            seed=num("seed", 0, int),
            refit_every=num("refit_every", 5, int),
            nested_refit=str(pop("nested_refit", "false")).lower()
            in ("1", "true", "yes"),
            max_nfev=num("max_nfev", None, int),
            stop_objective=num("stop_objective"),
            polish_rounds=num("polish_rounds", 4, int))
    except ValueError as exc:
        raise ParseError(f"[fit]: {exc}", path) from None
    if fit_lines:
        stray = ", ".join(sorted(fit_lines))
        raise ParseError(f"unknown [fit] keys: {stray}", path)
    return spec


def write_parameter_file(path, params: GrowthParameters, zones: ZoneRuleSet,
                         fit_spec: FitSpec | None = None) -> None:
    lines = ["# species parameters (masses g, areas m², lengths cm)"]
    for key in sorted(_FLOAT_FIELDS | _INT_FIELDS | _LIST_FIELDS):
        value = getattr(params, key)
        if key in _LIST_FIELDS:
            lines.append(f"{key} = " + ", ".join(_fmt(v) for v in value))
        else:
            lines.append(f"{key} = {_fmt(value)}")
    lines.append("")
    lines.append("[zones]")
    lines.append(f"eq_fixed = {'true' if zones.eq_fixed else 'false'}")
    for rule in zones.rules:
        fields = [_fmt(rule.m1), _fmt(rule.m2),
                  "inf" if math.isinf(rule.m_max) else _fmt(rule.m_max)]
        if rule.branching:
            fields += [_fmt(rule.a1), _fmt(rule.a2)]
        lines.append(f"zone_{rule.bearer_pa}_{rule.axillary_pa} = "
                     + ", ".join(fields))
    if fit_spec is not None:
        lines.append("")
        lines.append("[fit]")
        lines.append("free_continuous = "
                      + ", ".join(p.name for p in fit_spec.continuous))
        lines.append("free_topology = "
                      + ", ".join(p.name for p in fit_spec.topological))
        for p in fit_spec.continuous + fit_spec.topological:
            lines.append(f"bound_{p.name} = {_fmt(p.lower)}, {_fmt(p.upper)}")
            lines.append(f"init_{p.name} = {_fmt(p.init)}")
        if fit_spec.weights:
            for cls, w in sorted(fit_spec.weights.items()):
                lines.append(f"weight_{cls} = {_fmt(w)}")
        sched = fit_spec.schedule
        lines.append(f"anneal_t0 = {_fmt(sched.t0)}")
        lines.append(f"anneal_cooling = {_fmt(sched.cooling)}")
        lines.append(f"anneal_steps = {sched.steps_per_t}")
        lines.append(f"anneal_t_stop = {_fmt(sched.t_stop_ratio)}")
        lines.append(f"anneal_step_scale = {_fmt(sched.step_scale)}")
        lines.append(f"refit_every = {fit_spec.refit_every}")
        lines.append(f"nested_refit = "
                     f"{'true' if fit_spec.nested_refit else 'false'}")
        if fit_spec.max_nfev is not None:
            lines.append(f"max_nfev = {fit_spec.max_nfev}")
        if fit_spec.stop_objective is not None:
            lines.append(f"stop_objective = {_fmt(fit_spec.stop_objective)}")
        lines.append(f"polish_rounds = {fit_spec.polish_rounds}")
        lines.append(f"seed = {fit_spec.seed}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# target files
# ----------------------------------------------------------------------

_TARGET_HEADERS = {
    "script": ["gu_index", "metamer_count", "branches"],
    "trunk": ["gu_index", "mass_g", "diameter_cm", "length_cm"],
    "rings": ["gu_index", "tree_age", "diameter_cm"],
    "branches": ["gu_index", "pa", "wood_g", "leaf_g"],
}


def _parse_branch_spec(text, path, line_no):
    """e.g. ``PA2x1;PA3x2`` -> ((2, 1), (3, 2)); empty means no branches."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for i, part in enumerate(text.split(";")):
        part = part.strip()
        if not part.upper().startswith("PA") or "x" not in part.lower():
            raise ParseError(f"branch spec must look like PA2x1: {part!r}",
                             path, line_no, i + 1)
        body = part[2:]
        pa_text, _, count_text = body.partition("x")
        try:
            out.append((int(pa_text), int(count_text)))
        except ValueError:
            raise ParseError(f"bad branch spec numbers: {part!r}",
                             path, line_no, i + 1) from None
    return tuple(out)


def parse_target_file(path) -> TargetDataset:
    """Parse and validate a sectioned target CSV; every violation is
    reported with its location."""
    sections: dict[str, list[tuple[int, list[str]]]] = {}
    section = None
    expect_header = False
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in _TARGET_HEADERS:
                    raise ParseError(f"unknown section [{section}]",
                                     path, line_no)
                if section in sections:
                    raise ParseError(f"duplicate section [{section}]",
                                     path, line_no)
                sections[section] = []
                expect_header = True
                continue
            if section is None:
                raise ParseError("data before any section header",
                                 path, line_no)
            cells = next(csv.reader(io.StringIO(line)))
            if expect_header:
                if [c.strip() for c in cells] != _TARGET_HEADERS[section]:
                    raise ParseError(
                        f"[{section}] header must be "
                        f"{','.join(_TARGET_HEADERS[section])}",
                        path, line_no)
                expect_header = False
                continue
            sections[section].append((line_no, cells))

    missing = [s for s in _TARGET_HEADERS if s not in sections]
    if missing:
        raise ParseError("missing sections: "
                         + ", ".join(f"[{s}]" for s in missing), path)

    def cell_float(cells, idx, line_no, what):
        if idx >= len(cells):
            raise ParseError(f"missing column {what}", path, line_no, idx + 1)
        try:
            return float(cells[idx])
        except ValueError:
            raise ParseError(f"non-numeric {what}: {cells[idx]!r}",
                             path, line_no, idx + 1) from None

    def cell_int(cells, idx, line_no, what):
        value = cell_float(cells, idx, line_no, what)
        if value != int(value):
            raise ParseError(f"{what} must be an integer: {value!r}",
                             path, line_no, idx + 1)
        return int(value)

    script = []
    for line_no, cells in sections["script"]:
        script.append(TrunkScriptEntry(
            gu_index=cell_int(cells, 0, line_no, "gu_index"),
            metamer_count=cell_int(cells, 1, line_no, "metamer_count"),
            branches=_parse_branch_spec(cells[2] if len(cells) > 2 else "",
                                        path, line_no)))
    trunk = [TrunkObservation(
        gu_index=cell_int(c, 0, n, "gu_index"),
        mass_g=cell_float(c, 1, n, "mass_g"),
        diameter_cm=cell_float(c, 2, n, "diameter_cm"),
        length_cm=cell_float(c, 3, n, "length_cm"))
        for n, c in sections["trunk"]]
    rings = [RingObservation(
        gu_index=cell_int(c, 0, n, "gu_index"),
        tree_age=cell_int(c, 1, n, "tree_age"),
        diameter_cm=cell_float(c, 2, n, "diameter_cm"))
        for n, c in sections["rings"]]
    branches = [BranchObservation(
        gu_index=cell_int(c, 0, n, "gu_index"),
        pa=cell_int(c, 1, n, "pa"),
        wood_g=cell_float(c, 2, n, "wood_g"),
        leaf_g=cell_float(c, 3, n, "leaf_g"))
        for n, c in sections["branches"]]

    dataset = TargetDataset(trunk_script=tuple(script),
                            trunk_profile=tuple(trunk),
                            ring_matrix=tuple(rings),
                            branch_compartments=tuple(branches))
    report = validate_target(dataset)
    if not report.ok:
        raise ParseError("invalid target data: "
                         + "; ".join(report.violations), path)
    return dataset


def write_target_file(path, dataset: TargetDataset) -> None:
    lines = ["[script]", ",".join(_TARGET_HEADERS["script"])]
    for e in dataset.trunk_script:
        spec = ";".join(f"PA{pa}x{count}" for pa, count in e.branches)
        lines.append(f"{e.gu_index},{e.metamer_count},{spec}")
    lines.append("[trunk]")
    lines.append(",".join(_TARGET_HEADERS["trunk"]))
    for t in dataset.trunk_profile:
        lines.append(f"{t.gu_index},{_fmt(t.mass_g)},{_fmt(t.diameter_cm)},"
                     f"{_fmt(t.length_cm)}")
    lines.append("[rings]")
    lines.append(",".join(_TARGET_HEADERS["rings"]))
    for r in dataset.ring_matrix:
        lines.append(f"{r.gu_index},{r.tree_age},{_fmt(r.diameter_cm)}")
    lines.append("[branches]")
    lines.append(",".join(_TARGET_HEADERS["branches"]))
    for b in dataset.branch_compartments:
        lines.append(f"{b.gu_index},{b.pa},{_fmt(b.wood_g)},{_fmt(b.leaf_g)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# simulation and fit outputs
# ----------------------------------------------------------------------

def write_simulation_output(out_dir, output: SimulationOutput) -> list[str]:
    """Write cycles.csv, trunk.csv, rings.csv, branches.csv and
    topology.json; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def emit(name, header, rows):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        written.append(path)

    emit("cycles.csv",
         ["cycle", "q_g", "d", "d_s", "d_r", "q_s_g", "q_r_g", "ratio_g",
          "blade_area_m2"],
         [(a.cycle, a.q, a.d, a.d_s, a.d_r, a.q_s, a.q_r, a.ratio, a.s_blade)
          for a in output.allocations])
    emit("trunk.csv", ["gu_index", "mass_g", "diameter_cm", "length_cm"],
         [(t.gu_index, t.mass_g, t.diameter_cm, t.length_cm)
          for t in output.trunk_profile])
    emit("rings.csv", ["gu_index", "tree_age", "diameter_cm"],
         [(r.gu_index, r.tree_age, r.diameter_cm)
          for r in output.ring_matrix])
    emit("branches.csv",
         ["gu_index", "pa", "count", "wood_g", "leaf_g", "axis_length_cm"],
         [(b.gu_index, b.pa, b.count, b.wood_g, b.leaf_g, b.axis_length_cm)
          for b in output.branch_compartments])

    topo_path = os.path.join(out_dir, "topology.json")
    with open(topo_path, "w", encoding="utf-8") as fh:
        json.dump(output.topology, fh, indent=1, sort_keys=True)
        fh.write("\n")
    written.append(topo_path)
    return written


def fit_result_to_dict(result: FitResult) -> dict:
    return {
        "continuous": result.continuous,
        "topology": result.topology,
        "intervals": {name: [lo, hi]
                      for name, (lo, hi) in sorted(result.intervals.items())},
        "v_env": result.v_env,
        "objective": result.objective,
        "r_squared": result.r_squared,
        "evaluations": result.evaluations,
        "trace": result.trace,
    }


def write_fit_result(out_dir, result: FitResult) -> list[str]:
    """Write fit_result.json plus the predicted-vs-observed CSV."""
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "fit_result.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(fit_result_to_dict(result), fh, indent=1, sort_keys=True)
        fh.write("\n")
    csv_path = os.path.join(out_dir, "predicted_vs_observed.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("tree,data_class,observed,simulated\n")
        for row in result.predicted_observed:
            fh.write(f"{row.tree},{row.data_class},{_fmt(row.observed)},"
                     f"{_fmt(row.simulated)}\n")
    return [json_path, csv_path]
