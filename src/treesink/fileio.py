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
import re
from dataclasses import fields
from operator import attrgetter

from .calibration import (AnnealSchedule, FitResult, FitSpec, FreeParameter,
                          PredictedObserved, apply_candidate,
                          check_free_names, check_setting, check_weight)
from .core import (MEASUREMENTS, GrowthParameters, ParseError, TargetDataset,
                   TrunkScriptEntry, ZoneRule, ZoneRuleSet, validate_target)
from .engine import SimulationOutput
from .sourcesink import CycleAllocation

#: parameter name -> its annotation: "float", "int" or a tuple of floats
_PARAMETER_TYPES = {f.name: f.type for f in fields(GrowthParameters)}
_FLAGS = {"true": True, "yes": True, "1": True,
          "false": False, "no": False, "0": False}


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


def _parse_flag(text, path, line_no, what):
    flag = _FLAGS.get(text.strip().lower())
    if flag is None:
        raise ParseError(f"{what} must be true/false/yes/no/1/0: {text!r}",
                         path, line_no)
    return flag


def _read_lines(path) -> list[str]:
    """The lines of an input file, or a ParseError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read: {exc.strerror}", path) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason}", path) from None


def _parse_lines(path):
    """Yield (line number, section, key, value) for key=value lines, the
    section "" before any header and for [parameters] or [species].  A key
    given twice in one section is an error at its second line."""
    section = ""
    first_line: dict[tuple[str, str], int] = {}
    for line_no, raw in enumerate(_read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section in ("parameters", "species"):
                section = ""
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value, got {line!r}",
                             path, line_no)
        key, value = (text.strip() for text in line.split("=", 1))
        first = first_line.setdefault((section, key), line_no)
        if first != line_no:
            raise ParseError(f"{key} given twice, first at line {first}",
                             path, line_no)
        yield line_no, section, key, value


def read_parameter_file(path) -> tuple[GrowthParameters, ZoneRuleSet,
                                       FitSpec | None]:
    """Parse a parameter file into growth parameters, zone rules, and the
    optional fit specification."""
    plain: dict[str, object] = {}
    zone_rules: list[ZoneRule] = []
    eq_fixed = True
    fit_lines: dict[str, tuple[int, str]] = {}

    for line_no, section, key, value in _parse_lines(path):
        if not section:
            kind = _PARAMETER_TYPES.get(key)
            if kind is None:
                raise ParseError(f"unknown parameter {key!r}", path, line_no)
            if kind.startswith("tuple"):
                items = [v for v in value.split(",") if v.strip()]
                plain[key] = tuple(_parse_float(v, path, line_no, key)
                                   for v in items)
            else:
                plain[key] = _parse_float(value, path, line_no, key,
                                          int if kind == "int" else float)
        elif section == "zones":
            if key == "eq_fixed":
                eq_fixed = _parse_flag(value, path, line_no, key)
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
                    bearer_pa=_parse_float(parts[1], path, line_no,
                                           "bearer PA", int),
                    axillary_pa=_parse_float(parts[2], path, line_no,
                                             "axillary PA", int),
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
    fit_spec = (_build_fit_spec(fit_lines, path, params, zones)
                if fit_lines else None)
    return params, zones, fit_spec


#: AnnealSchedule field -> its [fit] key
_ANNEAL_KEYS = {"t0": "anneal_t0", "cooling": "anneal_cooling",
                "steps_per_t": "anneal_steps", "t_stop_ratio": "anneal_t_stop",
                "step_scale": "anneal_step_scale"}

#: the other FitSpec settings, each its own [fit] key, and their types
_SETTING_KINDS = {"seed": int, "refit_every": int, "nested_refit": bool,
                  "max_nfev": int, "stop_objective": float,
                  "polish_rounds": int}


def _build_fit_spec(fit_lines: dict[str, tuple[int, str]], path,
                    params: GrowthParameters, zones: ZoneRuleSet) -> FitSpec:
    def num(key, default=None, kind=float):   # ``default`` without a line
        if key not in fit_lines:
            return default
        line_no, text = fit_lines.pop(key)
        if kind is bool:
            return _parse_flag(text, path, line_no, key)
        return _parse_float(text, path, line_no, key, kind)

    def located(line_no, check, *args):
        """``check(*args)``, its ValueError a ParseError at ``line_no``."""
        try:
            return check(*args)
        except ValueError as exc:
            raise ParseError(str(exc), path, line_no) from None

    def free_list(key, topological=False, earlier=()):
        list_line, raw = fit_lines.pop(key, (None, ""))
        names = [n.strip() for n in raw.split(",") if n.strip()]
        located(list_line, check_free_names, names, topological, earlier)
        out = []
        for name in names:
            located(list_line, apply_candidate, params, zones, {name: 0.0})
            line_no, bound = fit_lines.pop(f"bound_{name}", (None, None))
            if bound is None:
                raise ParseError(f"missing bound_{name} for free parameter "
                                 f"{name}", path, list_line)
            ends = bound.split(",")
            if len(ends) != 2:
                raise ParseError(f"bound_{name} needs lower, upper", path,
                                 line_no)
            lo, hi = (_parse_float(v, path, line_no, f"bound_{name}")
                      for v in ends)
            located(line_no, FreeParameter, name, lo, hi, lo)   # the bounds
            init_line = fit_lines.get(f"init_{name}", (None,))[0]
            init = num(f"init_{name}", 0.5 * (lo + hi))
            out.append(located(init_line, FreeParameter, name, lo, hi, init))
        return out

    continuous = free_list("free_continuous")
    topological = free_list("free_topology", True,
                            [p.name for p in continuous])
    weights = {}
    for key in [k for k in fit_lines if k.startswith("weight_")]:
        line_no, data_class = fit_lines[key][0], key[7:]
        weights[data_class] = num(key)
        located(line_no, check_weight, data_class, weights[data_class])
    schedule = {}
    for name, key in _ANNEAL_KEYS.items():
        line_no = fit_lines.get(key, (None,))[0]
        schedule[name] = num(key, getattr(AnnealSchedule, name),
                             int if name == "steps_per_t" else float)
        located(line_no, check_setting, f"annealing {name}",
                schedule[name])
    settings = {}
    for name, kind in _SETTING_KINDS.items():
        line_no = fit_lines.get(name, (None,))[0]
        settings[name] = num(name, getattr(FitSpec, name), kind)
        located(line_no, check_setting, name, settings[name])
    spec = FitSpec(   # its checks were made above, each at its line
        continuous=continuous, topological=topological,
        weights=weights or None, schedule=AnnealSchedule(**schedule),
        **settings)
    if fit_lines:
        stray = ", ".join(sorted(fit_lines))
        raise ParseError(f"unknown [fit] keys: {stray}", path,
                         min(fit_lines.values())[0])
    return spec


def write_parameter_file(path, params: GrowthParameters, zones: ZoneRuleSet,
                         fit_spec: FitSpec | None = None) -> None:
    lines = ["# species parameters (masses g, areas m², lengths cm)",
             "# p_s, p_rg, allom_a, allom_b: one value per PA 1..pa_max; "
             "v_env: one per tree"]
    for key in sorted(_PARAMETER_TYPES):
        value = getattr(params, key)
        if isinstance(value, tuple):
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
        for name, key in _ANNEAL_KEYS.items():
            lines.append(f"{key} = {_fmt(getattr(fit_spec.schedule, name))}")
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

#: target-file section -> its columns, the fields of its row type
_TARGET_COLUMNS = {"script": fields(TrunkScriptEntry),
                   **{m.section: fields(m.row) for m in MEASUREMENTS}}
_TARGET_HEADERS = {s: [f.name for f in c] for s, c in _TARGET_COLUMNS.items()}
_BRANCHES_COLUMN = _TARGET_HEADERS["script"].index("branches") + 1


def _parse_branch_spec(text, path, line_no):
    """e.g. ``PA2x1;PA3x2`` -> ((2, 1), (3, 2)); empty means no branches."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in map(str.strip, text.split(";")):
        match = re.fullmatch(r"PA(\d+)x(\d+)", part, re.IGNORECASE)
        if match is None:
            raise ParseError(f"branch spec must look like PA2x1: {part!r}",
                             path, line_no, _BRANCHES_COLUMN)
        out.append((int(match[1]), int(match[2])))
    return tuple(out)


def parse_target_file(path) -> TargetDataset:
    """Parse and validate a sectioned target CSV; every violation is
    reported with its location."""
    sections: dict[str, list[tuple[int, list[str]]]] = {}
    section = None
    expect_header = False
    for line_no, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _TARGET_HEADERS:
                raise ParseError(f"unknown section [{section}]", path, line_no)
            if section in sections:
                raise ParseError(f"duplicate section [{section}]",
                                 path, line_no)
            sections[section] = []
            expect_header = True
            continue
        if section is None:
            raise ParseError("data before any section header", path, line_no)
        cells = next(csv.reader(io.StringIO(line)))
        if expect_header:
            if [c.strip() for c in cells] != _TARGET_HEADERS[section]:
                raise ParseError(
                    f"[{section}] header must be "
                    f"{','.join(_TARGET_HEADERS[section])}",
                    path, line_no)
            expect_header = False
            continue
        width = len(_TARGET_HEADERS[section])
        if len(cells) > width:
            raise ParseError(f"extra cell beyond the [{section}] header: "
                             f"{cells[width]!r}", path, line_no, width + 1)
        sections[section].append((line_no, cells))

    missing = [s for s in _TARGET_HEADERS if s not in sections]
    if missing:
        raise ParseError("missing sections: "
                         + ", ".join(f"[{s}]" for s in missing), path)

    def numbers(cells, line_no, columns):
        """The row's first cells, each the finite number its column's
        annotation asks for: "int" or "float"."""
        out = []
        for col, (text, column) in enumerate(zip(cells, columns), start=1):
            where = (path, line_no, col)
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"non-numeric {column.name}: {text!r}",
                                 *where) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite {column.name}: {text!r}", *where)
            if column.type == "int" and not value.is_integer():
                raise ParseError(f"{column.name} must be an integer: "
                                 f"{value!r}", *where)
            out.append(int(value) if column.type == "int" else value)
        if len(cells) < len(columns):
            raise ParseError(f"missing column {columns[len(cells)].name}",
                             path, line_no, len(cells) + 1)
        return out

    def measured(m):
        """The rows of section ``m``, each with a key of its own."""
        rows, first_line = [], {}
        for n, c in sections[m.section]:
            rows.append(m.row(*numbers(c, n, _TARGET_COLUMNS[m.section])))
            first = first_line.setdefault(attrgetter(*m.key)(rows[-1]), n)
            if first != n:
                raise ParseError(f"{m.label.format_map(vars(rows[-1]))} given "
                                 f"twice, first at line {first}", path, n, 1)
        return tuple(rows)

    script = tuple(TrunkScriptEntry(
        *numbers(c, n, _TARGET_COLUMNS["script"][:2]),
        _parse_branch_spec(c[2] if len(c) > 2 else "", path, n))
        for n, c in sections["script"])
    dataset = TargetDataset(trunk_script=script, **{
        m.field: measured(m) for m in MEASUREMENTS})
    report = validate_target(dataset)
    if not report.ok:
        # located at the first row's line, naming any other row's
        lines = [row and sections[row[0]][row[1]][0] for row in report.rows]
        first = next(filter(None, lines), None)
        raise ParseError("invalid target data: " + "; ".join(
            v if n in (None, first) else f"{v} (line {n})"
            for v, n in zip(report.violations, lines)), path, first)
    return dataset


def write_target_file(path, dataset: TargetDataset) -> None:
    lines = ["[script]", ",".join(_TARGET_HEADERS["script"])]
    for e in dataset.trunk_script:
        spec = ";".join(f"PA{pa}x{count}" for pa, count in e.branches)
        lines.append(f"{e.gu_index},{e.metamer_count},{spec}")
    for m in MEASUREMENTS:
        header = _TARGET_HEADERS[m.section]
        lines += [f"[{m.section}]", ",".join(header)]
        lines += (",".join(map(_fmt, values)) for values
                  in map(attrgetter(*header), getattr(dataset, m.field)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# simulation and fit outputs
# ----------------------------------------------------------------------

def _write_rows(path, row_type, rows, header=None) -> str:
    """Write dataclass rows as CSV, one column per field, under ``header``
    (default: the field names); returns the path."""
    names = [f.name for f in fields(row_type)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header or names) + "\n")
        for values in map(attrgetter(*names), rows):
            fh.write(",".join(map(_fmt, values)) + "\n")
    return path


def _write_json(path, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def write_simulation_output(out_dir, output: SimulationOutput) -> list[str]:
    """Write cycles.csv, one CSV per measured section (trunk.csv, rings.csv,
    branches.csv) and topology.json; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = [_write_rows(
        os.path.join(out_dir, "cycles.csv"), CycleAllocation,
        output.allocations, ["cycle", "q_g", "d", "d_s", "d_r", "q_s_g",
                             "q_r_g", "ratio_g", "blade_area_m2"])]
    written += [_write_rows(os.path.join(out_dir, f"{m.section}.csv"),
                            m.output_row, getattr(output, m.field))
                for m in MEASUREMENTS]
    written.append(_write_json(os.path.join(out_dir, "topology.json"),
                               output.topology))
    return written


def write_fit_result(out_dir, result: FitResult) -> list[str]:
    """Write fit_result.json (every FitResult field but the rows) plus the
    predicted-vs-observed CSV."""
    os.makedirs(out_dir, exist_ok=True)
    summary = {k: v for k, v in vars(result).items()
               if k != "predicted_observed"}
    return [_write_json(os.path.join(out_dir, "fit_result.json"), summary),
            _write_rows(os.path.join(out_dir, "predicted_vs_observed.csv"),
                        PredictedObserved, result.predicted_observed)]
