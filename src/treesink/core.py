"""Core domain types: species parameters, branching-zone rules, measurement
targets and their validation.

Unit conventions used throughout the package:

* masses in grams,
* individual leaf areas in cm^2,
* whole-plant blade area S and the characteristic crown surface in m^2
  (the cm^2 -> m^2 conversion happens in one place, the engine's blade-area
  update),
* internode lengths and diameters in cm,
* the production/demand ratio Q/D is carried in grams everywhere it enters
  the topology and ring-demand rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import NamedTuple

import numpy as np

CM2_PER_M2 = 1.0e4

#: physiological age of the trunk
TRUNK_PA = 1


class TreesinkError(Exception):
    """Base class for package errors."""


class ValidationError(TreesinkError):
    """Raised when a configuration fails validation and a run was requested."""


class SimulationError(TreesinkError):
    """Raised when a growth simulation cannot proceed; ``cycle`` is the
    growth cycle it failed in, once known."""

    def __init__(self, message, cycle=None):
        super().__init__(message)
        self.cycle = cycle


class AllocationError(TreesinkError):
    """Raised on inconsistent allocation state (demand zero, supply positive)."""


class AlignmentError(TreesinkError):
    """Raised when simulated output cannot be aligned with a target dataset."""


class ParseError(TreesinkError):
    """Raised on malformed parameter or target files; carries file location."""

    def __init__(self, message, path=None, line=None, column=None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
            if line is not None:
                loc += f"{line}:"
                if column is not None:
                    loc += f"{column}:"
            loc += " "
        super().__init__(loc + message)
        self.path = path
        self.line = line
        self.column = column


def round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero.

    Python's built-in round() is banker's rounding; the topology rules need
    the conventional half-away behaviour (e.g. 2.5 -> 3).
    """
    if x >= 0.0:
        return int(math.floor(x + 0.5))
    return -int(math.floor(-x + 0.5))


@dataclass(frozen=True)
class GrowthParameters:
    """Species-level constants plus per-tree environment factors.

    ``p_s``, ``p_rg``, ``allom_a`` and ``allom_b`` are indexed by
    physiological age (PA), entry 0 = PA 1 (the trunk).  The highest PA is
    the short-shoot class; all lower PAs are long shoots.
    """

    v_env: tuple[float, ...] = (560.0, 1000.0)  # g·m⁻² per cycle, one per tree
    sp0: float = 0.015          # characteristic crown surface, m²
    alpha: float = 0.73         # crown-surface allometry exponent
    k_beer: float = 1.0         # light-extinction coefficient
    q0: float = 1.0             # seed biomass, g
    pa_max: int = 4             # number of physiological ages
    p_s: tuple[float, ...] = (5.25, 5.25, 5.25, 1.0)   # shoot sink per PA
    p_r: float = 2.3            # ring-compartment sink
    gamma: float = 2.95         # ring-demand exponent
    lambda_mix: float = 0.13    # foliage-influence coefficient for rings, [0,1]
    p_rg: tuple[float, ...] = (1.0, 0.1, 0.05, 0.01)   # linear ring sink per PA
    root_fraction: float = 0.0  # gross production diverted underground
    internode_leaf_ratio_short: float = 0.065
    internode_leaf_ratio_long: float = 0.7
    slw_ages: tuple[float, ...] = (21.0, 46.0)          # tree ages, cycles
    slw_values: tuple[float, ...] = (0.0072, 0.0093)    # g·cm⁻², clamped outside
    allom_a: tuple[float, ...] = (3.0, 3.0, 3.0, 0.5)   # length = a·m^b, cm from g
    allom_b: tuple[float, ...] = (0.8, 0.8, 0.8, 0.4)
    wood_density: float = 0.9   # fresh wood, g·cm⁻³
    short_shoot_metamers: int = 3

    def slw_at(self, tree_age: float) -> float:
        """Specific leaf weight (g·cm⁻²) at a given tree age, piecewise linear
        between the schedule knots and clamped outside their range."""
        return float(np.interp(tree_age, self.slw_ages, self.slw_values))

    def internode_leaf_ratio(self, pa: int) -> float:
        return (self.internode_leaf_ratio_short if pa == self.pa_max
                else self.internode_leaf_ratio_long)

    def with_values(self, **kwargs) -> "GrowthParameters":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ZoneRule:
    """Plasticity coefficients of one branching zone.

    A zone groups the metamers of a PA ``bearer_pa`` growth unit that bear
    axillary buds of PA ``axillary_pa`` (0 = unbranched zone).  Metamer
    counts follow min(round(m1 + m2·Q/D), m_max); whole-tree axis counts
    follow round(N·(a1 + a2·Q/D)).  Unbranched zones carry no axis
    coefficients.
    """

    bearer_pa: int
    axillary_pa: int
    m1: float
    m2: float
    m_max: float = math.inf
    a1: float | None = None
    a2: float | None = None

    @property
    def key(self) -> tuple[int, int]:
        return (self.bearer_pa, self.axillary_pa)

    @property
    def branching(self) -> bool:
        return self.axillary_pa != 0


#: basal-to-apical ordering of axillary PAs within a growth unit (acrotony:
#: the unbranched zone sits at the base, the most vigorous laterals at the top)
ZONE_SEQUENCE = (0, 4, 3, 2)


@dataclass(frozen=True)
class ZoneRuleSet:
    """Default growth-unit topology: one ZoneRule per zone, plus the flag
    pinning the fixed coefficients (m1 = 1 everywhere except the PA2-on-PA2
    zone where m1 = 0, and a1 = 0 for every branching zone)."""

    rules: tuple[ZoneRule, ...]
    eq_fixed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "_by_key", {r.key: r for r in self.rules})

    def get(self, bearer_pa: int, axillary_pa: int) -> ZoneRule | None:
        return self._by_key.get((bearer_pa, axillary_pa))

    def zones_of(self, bearer_pa: int) -> list[ZoneRule]:
        """Zones of a growth unit, basal to apical."""
        out = []
        for k in ZONE_SEQUENCE:
            rule = self._by_key.get((bearer_pa, k))
            if rule is not None:
                out.append(rule)
        return out

    def with_rule(self, rule: ZoneRule) -> "ZoneRuleSet":
        rules = tuple(rule if r.key == rule.key else r for r in self.rules)
        return ZoneRuleSet(rules=rules, eq_fixed=self.eq_fixed)


def default_zone_rules() -> ZoneRuleSet:
    """Reference growth-unit topology for the bundled beech-like species:
    PA-2 units carry the four zones (unbranched, short, long, reiteration),
    PA-3 units carry the unbranched and short-shoot zones only."""
    return ZoneRuleSet(rules=(
        ZoneRule(2, 0, m1=1.0, m2=0.42, m_max=6),
        ZoneRule(2, 4, m1=1.0, m2=1.10, m_max=2, a1=0.0, a2=0.60),
        ZoneRule(2, 3, m1=1.0, m2=0.10, m_max=2, a1=0.0, a2=0.10),
        ZoneRule(2, 2, m1=0.0, m2=0.10, m_max=1, a1=0.0, a2=0.05),
        ZoneRule(3, 0, m1=1.0, m2=1.02, m_max=7),
        ZoneRule(3, 4, m1=1.0, m2=1.45, m_max=2, a1=0.0, a2=0.575),
    ))


@dataclass(frozen=True)
class TrunkScriptEntry:
    """Imposed topology of one trunk growth unit: its metamer count and the
    lateral branches it bears, as (branch PA, count) pairs."""

    gu_index: int
    metamer_count: int
    branches: tuple[tuple[int, int], ...] = ()

    def branch_total(self) -> int:
        return sum(c for _, c in self.branches)


@dataclass(frozen=True)
class RingObservation:
    gu_index: int
    tree_age: int
    diameter_cm: float


@dataclass(frozen=True)
class TrunkObservation:
    gu_index: int
    mass_g: float
    diameter_cm: float
    length_cm: float


@dataclass(frozen=True)
class BranchObservation:
    """Averaged order-2 branch compartments for one (bearing GU, PA) pair."""

    gu_index: int
    pa: int
    wood_g: float
    leaf_g: float


@dataclass(frozen=True)
class BranchRow:
    """A simulated BranchObservation, with the branch count and mean axis
    length."""

    gu_index: int
    pa: int
    count: int
    wood_g: float
    leaf_g: float
    axis_length_cm: float


class Measurement(NamedTuple):
    """One measured section: its TargetDataset and SimulationOutput field,
    its target-file section (``<section>.csv`` in a simulation's output),
    the target and simulated row types, the fields rows align on, the label
    of an unserved target row, and each objective data class with its value
    field."""

    field: str
    section: str
    row: type
    output_row: type
    key: tuple[str, ...]
    label: str
    classes: tuple[tuple[str, str], ...]


#: the measured sections, in residual order
MEASUREMENTS = (
    Measurement("trunk_profile", "trunk", TrunkObservation, TrunkObservation,
                ("gu_index",), "trunk GU {gu_index}",
                (("trunk_mass", "mass_g"), ("trunk_diameter", "diameter_cm"),
                 ("trunk_length", "length_cm"))),
    Measurement("ring_matrix", "rings", RingObservation, RingObservation,
                ("gu_index", "tree_age"), "ring GU {gu_index} age {tree_age}",
                (("ring_diameter", "diameter_cm"),)),
    Measurement("branch_compartments", "branches", BranchObservation,
                BranchRow, ("gu_index", "pa"), "branch GU {gu_index} PA {pa}",
                (("branch_wood", "wood_g"), ("branch_leaf", "leaf_g"))),
)

#: data classes of the fitting objective, in output order
TARGET_CLASSES = tuple(c for m in MEASUREMENTS for c, _ in m.classes)


@dataclass(frozen=True)
class TargetDataset:
    """Measurement targets for one tree: the forced trunk topology script,
    the trunk profile, the ring-diameter matrix and order-2 branch
    compartment masses."""

    trunk_script: tuple[TrunkScriptEntry, ...]
    trunk_profile: tuple[TrunkObservation, ...] = ()
    ring_matrix: tuple[RingObservation, ...] = ()
    branch_compartments: tuple[BranchObservation, ...] = ()

    @property
    def tree_age(self) -> int:
        return len(self.trunk_script)

    def script_entry(self, cycle: int) -> TrunkScriptEntry:
        if cycle < 1 or cycle > len(self.trunk_script):
            raise SimulationError(f"trunk script has no entry for cycle {cycle}")
        entry = self.trunk_script[cycle - 1]
        if entry.gu_index != cycle:
            raise SimulationError(
                f"trunk script entry {cycle} carries gu_index {entry.gu_index}")
        return entry


@dataclass
class ValidationReport:
    """Outcome of configuration validation: passes when no violations were
    collected.  Validation is report-valued; callers that need an exception
    use :meth:`raise_if_failed`."""

    violations: list[str] = field(default_factory=list)
    # per violation, the (target file section, row index) it concerns
    rows: list[tuple[str, int] | None] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str, row: tuple[str, int] | None = None) -> None:
        self.violations.append(message)
        self.rows.append(row)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise ValidationError("; ".join(self.violations))

    def __str__(self) -> str:
        if self.ok:
            return "pass"
        return "\n".join(f"violation: {v}" for v in self.violations)


def _check_pa_vector(report, name, values, pa_max, positive=True):
    if len(values) != pa_max:
        report.add(f"{name} must have one entry per physiological age "
                   f"({pa_max}), got {len(values)}")
        return
    if positive and any(v <= 0 for v in values):
        report.add(f"{name} entries must be positive")


def validate_parameters(params: GrowthParameters,
                        zones: ZoneRuleSet | None = None) -> ValidationReport:
    """Validate a parameter set (and optionally zone rules) against the model
    invariants.  Returns a report; a passing report is a precondition of
    every simulation."""
    rep = ValidationReport()
    p = params

    for f in fields(p):
        value = getattr(p, f.name)
        if not all(map(math.isfinite,
                       value if isinstance(value, tuple) else (value,))):
            rep.add(f"{f.name} must be finite: {value!r}")
    if not (0.0 < p.alpha <= 1.0):
        rep.add(f"alpha out of (0, 1]: {p.alpha}")
    if not (0.0 <= p.lambda_mix <= 1.0):
        rep.add(f"lambda_mix out of [0,1]: {p.lambda_mix}")
    if p.gamma < 0.0:
        rep.add(f"gamma must be >= 0: {p.gamma}")
    if p.sp0 <= 0.0:
        rep.add(f"sp0 must be positive: {p.sp0}")
    if p.k_beer <= 0.0:
        rep.add(f"k_beer must be positive: {p.k_beer}")
    if p.q0 <= 0.0:
        rep.add(f"q0 must be positive: {p.q0}")
    if p.p_r <= 0.0:
        rep.add(f"p_r must be positive: {p.p_r}")
    if not (0.0 <= p.root_fraction < 1.0):
        rep.add(f"root_fraction out of [0,1): {p.root_fraction}")
    if p.pa_max < 2:
        rep.add(f"pa_max must be at least 2: {p.pa_max}")

    _check_pa_vector(rep, "p_s", p.p_s, p.pa_max)
    _check_pa_vector(rep, "p_rg", p.p_rg, p.pa_max)
    _check_pa_vector(rep, "allom_a", p.allom_a, p.pa_max, positive=False)
    _check_pa_vector(rep, "allom_b", p.allom_b, p.pa_max, positive=False)
    if len(p.p_rg) == p.pa_max and p.p_rg[0] != 1.0:
        rep.add(f"p_rg(1) must equal 1 exactly (reference value): {p.p_rg[0]}")
    if any(a < 0 for a in p.allom_a) or any(b < 0 for b in p.allom_b):
        rep.add("allometry coefficients must be nonnegative")

    if not p.v_env:
        rep.add("v_env must carry at least one per-tree entry")
    elif any(v <= 0 for v in p.v_env):
        rep.add("v_env entries must be positive")

    if len(p.slw_ages) != len(p.slw_values) or not p.slw_ages:
        rep.add("slw schedule needs matching, nonempty age/value lists")
    else:
        if any(v <= 0 for v in p.slw_values):
            rep.add("slw values must be positive")
        if any(b <= a for a, b in zip(p.slw_ages, p.slw_ages[1:])):
            rep.add("slw ages must be strictly increasing")
    if p.internode_leaf_ratio_short <= 0 or p.internode_leaf_ratio_long <= 0:
        rep.add("internode/leaf ratios must be positive")
    if p.wood_density <= 0:
        rep.add(f"wood_density must be positive: {p.wood_density}")
    if p.short_shoot_metamers < 1:
        rep.add(f"short_shoot_metamers must be >= 1: {p.short_shoot_metamers}")

    if zones is not None:
        _validate_zones(rep, zones, p.pa_max)
    return rep


def _validate_zones(rep: ValidationReport, zones: ZoneRuleSet, pa_max: int):
    seen = set()
    for rule in zones.rules:
        name = f"zone Z^{rule.bearer_pa}{rule.axillary_pa}"
        if rule.key in seen:
            rep.add(f"duplicate {name}")
        seen.add(rule.key)
        if not (2 <= rule.bearer_pa <= pa_max - 1):
            rep.add(f"{name}: bearer PA must lie in 2..{pa_max - 1}")
        if rule.axillary_pa != 0 and not (2 <= rule.axillary_pa <= pa_max):
            rep.add(f"{name}: axillary PA must be 0 or in 2..{pa_max}")
        for coef in ("m1", "m2", "a1", "a2"):
            value = getattr(rule, coef)
            if value is not None and not math.isfinite(value):
                rep.add(f"{name}: {coef} must be finite: {value!r}")
        if math.isnan(rule.m_max):   # an infinite cap means no cap
            rep.add(f"{name}: m_max must be a number: {rule.m_max!r}")
        if rule.m1 < 0:
            rep.add(f"{name}: m1 must be >= 0")
        if rule.m_max < rule.m1:
            rep.add(f"{name}: m_max must be >= m1")
        if rule.branching:
            if rule.a1 is None or rule.a2 is None:
                rep.add(f"{name}: branching zones need a1 and a2")
            elif rule.a1 < 0:
                rep.add(f"{name}: a1 must be >= 0")
        else:
            if rule.a1 is not None or rule.a2 is not None:
                rep.add(f"{name}: unbranched zones carry no axis coefficients")
        if zones.eq_fixed:
            want_m1 = 0.0 if rule.key == (2, 2) else 1.0
            if rule.m1 != want_m1:
                rep.add(f"{name}: fixed-coefficient rule requires m1 = "
                        f"{want_m1:g}, got {rule.m1:g}")
            if rule.branching and rule.a1 not in (None, 0.0):
                rep.add(f"{name}: fixed-coefficient rule requires a1 = 0, "
                        f"got {rule.a1:g}")


def validate_script(dataset: TargetDataset) -> ValidationReport:
    """Check the trunk script alone: the part of a target dataset a
    simulation actually consumes."""
    rep = ValidationReport()
    if not dataset.trunk_script:
        rep.add("trunk script is empty")
    for i, entry in enumerate(dataset.trunk_script, start=1):
        add = partial(rep.add, row=("script", i - 1))
        if entry.gu_index != i:
            add(f"script entry {i}: gu_index {entry.gu_index} out of order")
        if entry.metamer_count < 1:
            add(f"script entry {i}: metamer_count must be >= 1")
        if entry.branch_total() > entry.metamer_count:
            add(f"script entry {i}: more branches ({entry.branch_total()}) "
                f"than metamers ({entry.metamer_count})")
        for pa, count in entry.branches:
            if pa < 2:
                add(f"script entry {i}: branch PA must be >= 2, got {pa}")
            if count < 1:
                add(f"script entry {i}: branch count must be >= 1")
    return rep


def validate_target(dataset: TargetDataset) -> ValidationReport:
    """Check a target dataset's full invariants (script coverage, ring
    monotonicity, nonnegative masses)."""
    rep = validate_script(dataset)
    age = dataset.tree_age
    for k, obs in enumerate(dataset.trunk_profile):
        add = partial(rep.add, row=("trunk", k))
        if not (1 <= obs.gu_index <= age):
            add(f"trunk row GU {obs.gu_index}: index outside 1..{age}")
        if min(obs.mass_g, obs.diameter_cm, obs.length_cm) < 0:
            add(f"trunk row GU {obs.gu_index}: negative value")
    by_gu: dict[int, list[tuple[int, RingObservation]]] = {}
    for k, obs in enumerate(dataset.ring_matrix):
        add = partial(rep.add, row=("rings", k))
        by_gu.setdefault(obs.gu_index, []).append((k, obs))
        if not (1 <= obs.gu_index <= age):
            add(f"ring row GU {obs.gu_index}: index outside 1..{age}")
        if obs.tree_age < obs.gu_index or obs.tree_age > age:
            add(f"ring row GU {obs.gu_index}: tree_age {obs.tree_age} "
                f"outside {obs.gu_index}..{age}")
        if obs.diameter_cm < 0:
            add(f"ring row GU {obs.gu_index}: negative diameter")
    for gu, rows in by_gu.items():
        rows = sorted(rows, key=lambda r: r[1].tree_age)
        for (_, a), (k, b) in zip(rows, rows[1:]):
            if b.diameter_cm < a.diameter_cm:
                rep.add(f"ring row GU {gu} age {b.tree_age}: diameter "
                        f"decreases ({a.diameter_cm:g} -> {b.diameter_cm:g})",
                        ("rings", k))
    scripted = {}
    for entry in dataset.trunk_script:
        for pa, count in entry.branches:
            scripted[(entry.gu_index, pa)] = count
    for k, obs in enumerate(dataset.branch_compartments):
        add = partial(rep.add, row=("branches", k))
        if min(obs.wood_g, obs.leaf_g) < 0:
            add(f"branch row GU {obs.gu_index} PA {obs.pa}: negative mass")
        if (obs.gu_index, obs.pa) not in scripted:
            add(f"branch row GU {obs.gu_index} PA {obs.pa}: no such "
                f"branch in the trunk script")
    return rep
