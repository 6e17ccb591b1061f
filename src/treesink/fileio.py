"""File formats.

Parameter file: line-oriented UTF-8 ``key = value`` text with ``#``
comments; arrays are comma lists; ``[zones]`` holds one ``zone_I_K`` line
per zone (m1, m2, m_max[, a1, a2]) and ``[fit]`` the calibration setup.
Target file: sectioned CSV with fixed headers, sections ``[script]``,
``[trunk]``, ``[rings]``, ``[branches]``.  ``_parse_float`` reads every
number of both files: each must be finite, or it is a ParseError at its
line (and column); only a zone's m_max may be the text ``inf``, no cap.
Once a file is read, ``validate_parameters`` or ``validate_target`` checks
it whole.  Each number outside its range (``core.RANGES``) and each broken
relation is a ``core.Violation`` naming the keys it relates, located at the
line of the first of them the file sets (a parameter, a zone, the
``[zones]`` header, a target row); the ParseError carrying them all is at
the first located one's line (``_located_report``).  The ``[fit]`` section
is only parsed here: the fit types (FreeParameter, AnnealSchedule, FitSpec)
and ``apply_candidate`` check it, once, as it is built, and their
Violation is located the same way: a name rule at its ``free_`` list's
line, as a name the parameters cannot take, a bound at ``bound_NAME``, an
init at ``init_NAME``, a weight or setting at its own line.

All numeric output is written in full-precision decimal text (repr), so a
write/read round trip reproduces every value exactly.  JSON outputs have a
one-space indent and sorted keys and end with a newline: the bytes of
Python's ``json`` module with ``indent=1, sort_keys=True``.  The engine's
topology.json is that text rendered by its finished tree
(``TreeState.topology_text``); ``_write_json`` writes every other with
``json.dumps``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import fields
from operator import attrgetter

from .calibration import (AnnealSchedule, FitResult, FitSpec, FreeParameter,
                          PredictedObserved, apply_candidate)
from .core import (MEASUREMENTS, GrowthParameters, InvalidValue, ParseError,
                   TargetDataset, TrunkScriptEntry, ZoneRule, ZoneRuleSet,
                   validate_parameters, validate_target)
from .engine import SimulationOutput
from .sourcesink import CycleAllocation

#: parameter name -> its annotation: "float", "int" or a tuple of floats
_PARAMETER_TYPES = {f.name: f.type for f in fields(GrowthParameters)}
_FLAGS = {"true": True, "yes": True, "1": True,
          "false": False, "no": False, "0": False}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_float(text, path, line_no, what="value", kind="float",
                 column=None):
    """The finite number ``text`` holds, an int below 2**53 in magnitude
    (so exact) if the annotation ``kind`` is one; else a ParseError at
    ``line_no`` (and ``column``)."""
    try:
        value = float(text)   # which ignores the spaces around a number
    except ValueError:
        problem = "non-numeric {}"
    else:
        if value - value != 0.0:   # nan or inf, spelled so or too large
            problem = "non-finite {}" if text.strip().lstrip("+-")[:1] \
                .isalpha() else "{} out of range"
        elif kind == "float" or not kind.startswith("int"):
            return value
        elif not value.is_integer():
            problem = "{} must be an integer"
        elif abs(value) < 2 ** 53:
            return int(value)
        else:
            problem = "{} out of range"
    raise ParseError(f"{problem.format(what)}: {text.strip()!r}", path,
                     line_no, column)


def _located_report(report, path, lines, prefix=""):
    """Nothing if ``report`` passes; else a ParseError carrying its
    violations.  Each is located at the line ``lines`` gives the first of
    its keys the file sets; the error is at the first located one's line,
    and each violation located elsewhere names its own."""
    at = [next(filter(None, map(lines.get, v.keys)), None) for v in report]
    first = next(filter(None, at), None)
    if report:
        raise ParseError(prefix + "; ".join(
            v.message if n in (None, first) else f"{v.message} (line {n})"
            for v, n in zip(report, at)), path, first, violations=report)


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


def _parse_lines(path, headers):
    """Yield (line number, section, key, value) for key=value lines, the
    section "" before any header and for [parameters] or [species], and
    set ``headers["[section]"]`` to each section header's first line.  A
    key given twice in one section is an error at its second line."""
    section = ""
    first_line: dict[tuple[str, str], int] = {}
    for line_no, raw in enumerate(_read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            headers.setdefault(f"[{section}]", line_no)
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
    optional fit specification; the parameters and zone rules validated,
    each violation at the line of the parameter or zone it concerns."""
    plain: dict[str, object] = {}
    zone_rules: list[ZoneRule] = []
    eq_fixed = True
    fit_lines: dict[str, tuple[int, str]] = {}
    # parameter name, zone key or "[section]" header -> its line
    lines: dict[object, int] = {}

    for line_no, section, key, value in _parse_lines(path, lines):
        if not section:
            kind = _PARAMETER_TYPES.get(key)
            if kind is None:
                raise ParseError(f"unknown parameter {key!r}", path, line_no)
            if kind.startswith("tuple"):
                items = [v for v in value.split(",") if v.strip()]
                plain[key] = tuple(_parse_float(v, path, line_no, key)
                                   for v in items)
            else:
                plain[key] = _parse_float(value, path, line_no, key, kind)
            lines[key] = line_no
        elif section == "zones":
            if key == "eq_fixed":
                eq_fixed = _parse_flag(value, path, line_no, key)
            elif key.startswith("zone_"):
                parts = key.split("_")
                if len(parts) != 3:
                    raise ParseError(f"zone key must be zone_I_K: {key!r}",
                                     path, line_no)
                cells = [v.strip() for v in value.split(",")]
                if len(cells) not in (3, 5):
                    raise ParseError(
                        "zone line needs m1, m2, m_max[, a1, a2]",
                        path, line_no)
                pas = [_parse_float(pa, path, line_no, what, "int") for pa,
                       what in zip(parts[1:], ("bearer PA", "axillary PA"))]
                coefficients = {   # m_max alone may be inf: no cap
                    name: math.inf if name == "m_max" and text.lower() == "inf"
                    else _parse_float(text, path, line_no, name)
                    for name, text in zip(("m1", "m2", "m_max", "a1", "a2"),
                                          cells)}
                zone_rules.append(ZoneRule(*pas, **coefficients))
                lines[zone_rules[-1].key] = line_no
            else:
                raise ParseError(f"unknown zones key {key!r}", path, line_no)
        elif section == "fit":
            fit_lines[key] = (line_no, value)
        else:
            raise ParseError(f"unknown section [{section}]", path, line_no)

    params = GrowthParameters(**plain)
    zones = ZoneRuleSet(rules=tuple(zone_rules), eq_fixed=eq_fixed)
    _located_report(validate_parameters(params, zones), path, lines)
    fit_spec = (_build_fit_spec(fit_lines, path, params, zones)
                if fit_lines else None)   # its free names need valid ones
    return params, zones, fit_spec


#: [fit] setting key -> (AnnealSchedule or FitSpec, the field it sets), in
#: the order the writer lists them; a value's type is the field's annotation
_FIT_SETTINGS = {key: (owner, {f.name: f for f in fields(owner)}[name])
                 for key, owner, name in (
                     ("anneal_t0", AnnealSchedule, "t0"),
                     ("anneal_cooling", AnnealSchedule, "cooling"),
                     ("anneal_steps", AnnealSchedule, "steps_per_t"),
                     ("anneal_t_stop", AnnealSchedule, "t_stop_ratio"),
                     ("anneal_step_scale", AnnealSchedule, "step_scale"),
                     *((name, FitSpec, name) for name in (
                         "refit_every", "nested_refit", "max_nfev",
                         "stop_objective", "polish_rounds", "seed")))}


def _build_fit_spec(fit_lines: dict[str, tuple[int, str]], path,
                    params: GrowthParameters, zones: ZoneRuleSet) -> FitSpec:
    """Parse the [fit] section, each number or flag at its line, then build
    its FitSpec once: an InvalidValue of the fit types' checks, or of a free
    name the parameters cannot take, is located at the line that sets the
    first of its keys."""
    lines: dict[str, int] = {}   # [fit] key, free name or RANGES row -> line

    def num(key, default=None, kind="float", row=None):  # kind: annotation
        if key not in fit_lines:
            return default
        line_no, text = fit_lines.pop(key)
        lines[row or key] = line_no
        if kind == "bool":
            return _parse_flag(text, path, line_no, key)
        return _parse_float(text, path, line_no, key, kind)

    lists, ends = {}, {}   # free list key -> its names; name -> lo, hi, init
    for key in ("free_continuous", "free_topology"):
        lines[key], raw = fit_lines.pop(key, (None, ""))
        lists[key] = [n.strip() for n in raw.split(",") if n.strip()]
        for name in (n for n in lists[key] if n not in ends):
            line_no, bound = fit_lines.pop(f"bound_{name}", (None, None))
            if bound is None:
                raise ParseError(f"missing bound_{name} for free parameter "
                                 f"{name}", path, lines[key])
            lines[f"bound_{name}"] = line_no
            if len(bound.split(",")) != 2:
                raise ParseError(f"bound_{name} needs lower, upper", path,
                                 line_no)
            lo, hi = (_parse_float(v, path, line_no, f"bound_{name}")
                      for v in bound.split(","))
            ends[name] = lo, hi, num(f"init_{name}", 0.5 * lo + 0.5 * hi)
    weights = {key[7:]: num(key) for key in list(fit_lines)
               if key.startswith("weight_")}
    settings = {AnnealSchedule: {}, FitSpec: {}}
    for key, (owner, f) in _FIT_SETTINGS.items():
        row = f"annealing {f.name}" if owner is AnnealSchedule else f.name
        settings[owner][f.name] = num(key, f.default, f.type, row)
    if fit_lines:
        stray = ", ".join(sorted(fit_lines))
        raise ParseError(f"unknown [fit] keys: {stray}", path,
                         min(fit_lines.values())[0])
    for key, names in lists.items():   # apply_candidate's keys: the names
        lines.update(dict.fromkeys(names, lines[key]))
    try:
        free = {name: FreeParameter(name, *e) for name, e in ends.items()}
        spec = FitSpec(
            continuous=[free[n] for n in lists["free_continuous"]],
            topological=[free[n] for n in lists["free_topology"]],
            weights=weights or None,
            schedule=AnnealSchedule(**settings[AnnealSchedule]),
            **settings[FitSpec])
        apply_candidate(params, zones, dict.fromkeys(free, 0.0))
    except InvalidValue as exc:
        _located_report([exc.violation], path, lines)
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
    lines += ["", "[zones]", f"eq_fixed = {_fmt(zones.eq_fixed)}"]
    for rule in zones.rules:
        fields = [_fmt(rule.m1), _fmt(rule.m2), _fmt(rule.m_max)]
        if rule.branching:
            fields += [_fmt(rule.a1), _fmt(rule.a2)]
        lines.append(f"zone_{rule.bearer_pa}_{rule.axillary_pa} = "
                     + ", ".join(fields))
    if fit_spec is not None:
        lines += ["", "[fit]"]
        lines.append("free_continuous = "
                      + ", ".join(p.name for p in fit_spec.continuous))
        lines.append("free_topology = "
                      + ", ".join(p.name for p in fit_spec.topological))
        for p in fit_spec.continuous + fit_spec.topological:
            lines.append(f"bound_{p.name} = {_fmt(p.lower)}, {_fmt(p.upper)}")
            lines.append(f"init_{p.name} = {_fmt(p.init)}")
        for cls, w in sorted((fit_spec.weights or {}).items()):
            lines.append(f"weight_{cls} = {_fmt(w)}")
        for key, (owner, f) in _FIT_SETTINGS.items():
            value = getattr(fit_spec.schedule if owner is AnnealSchedule
                            else fit_spec, f.name)
            if value is not None:
                lines.append(f"{key} = {_fmt(value)}")
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
        out.append(tuple(_parse_float(digits, path, line_no, "branch spec",
                                      "int", _BRANCHES_COLUMN)
                         for digits in match.groups()))
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
        cells = next(csv.reader((line,)))
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
        """The row's first cells, each the number its column's annotation
        asks for."""
        out = [_parse_float(text, path, line_no, column.name, column.type,
                            col) for col, (text, column)
               in enumerate(zip(cells, columns), start=1)]
        if len(cells) < len(columns):
            raise ParseError(f"missing column {columns[len(cells)].name}",
                             path, line_no, len(cells) + 1)
        return out

    def measured(m):
        """The rows of section ``m``, each with a key of its own."""
        rows, first_line, key = [], {}, attrgetter(*m.key)
        for n, c in sections[m.section]:
            rows.append(m.row(*numbers(c, n, _TARGET_COLUMNS[m.section])))
            first = first_line.setdefault(key(rows[-1]), n)
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
    _located_report(validate_target(dataset), path, {
        (s, k): n for s, rows in sections.items()
        for k, (n, _) in enumerate(rows)}, "invalid target data: ")
    return dataset


def write_target_file(path, dataset: TargetDataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[script]\n" + ",".join(_TARGET_HEADERS["script"]) + "\n")
        for e in dataset.trunk_script:
            spec = ";".join(f"PA{pa}x{count}" for pa, count in e.branches)
            fh.write(f"{e.gu_index},{e.metamer_count},{spec}\n")
        for m in MEASUREMENTS:
            fh.write(f"[{m.section}]\n"
                     + ",".join(_TARGET_HEADERS[m.section]) + "\n")
            fh.writelines(_csv_rows(m.row, getattr(dataset, m.field)))


# ----------------------------------------------------------------------
# simulation and fit outputs
# ----------------------------------------------------------------------

def _csv_rows(row_type, rows):
    """The CSV lines of dataclass ``rows``: one %-format each, giving what
    ``_fmt`` gives for each field's type (no row type has a bool field)."""
    line = ",".join("%r" if f.type == "float" else "%s"
                    for f in fields(row_type)) + "\n"
    return map(line.__mod__, map(attrgetter(*(
        f.name for f in fields(row_type))), rows))


def _write_rows(path, row_type, rows, header=None) -> str:
    """Write dataclass rows as CSV under ``header`` (default: the field
    names); returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header or (f.name for f in fields(row_type)))
                 + "\n")
        fh.writelines(_csv_rows(row_type, rows))
    return path


def _write_text(path, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _write_json(path, data) -> str:
    return _write_text(path, json.dumps(data, indent=1, sort_keys=True) + "\n")


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
    # the finished tree's text; without one, the oracle's topology (or {})
    tree, path = output.topology_tree, os.path.join(out_dir, "topology.json")
    written.append(_write_json(path, output.topology) if tree is None
                   else _write_text(path, tree.topology_text()))
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
