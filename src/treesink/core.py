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

Each number of a parameter set, zone rule or fit setting has one range, a
row of ``RANGES`` checked by :func:`range_violation` alone; the relations
between numbers are :func:`validate_parameters`' (``p_rg(1) = 1``, ...).
Every broken rule is one :class:`Violation` record: the keys it relates,
its message and its kind, ``"range"`` for a row of RANGES and
``"relation"`` for any other rule.  A ValidationReport is the list of
them, and each error that reports one (InvalidValue, ValidationError,
ParseError) carries it as data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

CM2_PER_M2 = 1.0e4

#: physiological age of the trunk
TRUNK_PA = 1


class TreesinkError(Exception):
    """Base class for package errors."""


class Violation(NamedTuple):
    """One broken rule of an input: ``keys`` is every key it relates (a
    parameter or fit setting name, a zone key (bearer, axillary),
    ``"[zones]"``, a target file's (section, row index)), the one it
    concerns most first; ``kind`` is ``"range"`` for a number outside its
    row of RANGES, ``"relation"`` for any other rule."""

    keys: tuple
    message: str
    kind: str = "relation"


class InvalidValue(ValueError):
    """A ValueError carrying its Violation (keys, message[, kind]):
    :func:`check_range`'s, and the fit set-up's checks of a free parameter,
    bound or weight."""

    def __init__(self, *violation):
        self.violation = Violation(*violation)
        super().__init__(self.violation.message)


class ValidationError(TreesinkError):
    """Raised when an input fails validation: a configuration a run was
    requested with, or (a ParseError) an input file; ``violations`` are
    the Violations it reports."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


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


class ParseError(ValidationError):
    """Raised on malformed parameter or target files; carries the file
    location, its message led by each of ``path``, ``line`` and ``column``
    up to the first None, and the Violations of a file that reads but does
    not validate."""

    def __init__(self, message, path=None, line=None, column=None,
                 violations=()):
        given = (path, line, column, None)
        at = "".join(f"{each}:" for each in given[:given.index(None)])
        super().__init__(f"{at} {message}" if at else message, violations)
        self.path, self.line, self.column = path, line, column


def round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero.

    Python's built-in round() is banker's rounding; the topology rules need
    the conventional half-away behaviour (e.g. 2.5 -> 3).
    """
    if not math.isfinite(x):   # int() would raise no package error
        raise SimulationError(f"a rounding rule met the non-finite value {x}")
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


@dataclass(frozen=True)
class ZoneRuleSet:
    """Default growth-unit topology: one ZoneRule per zone, plus the flag
    pinning the fixed coefficients (m1 = 1 everywhere except the PA2-on-PA2
    zone where m1 = 0, and a1 = 0 for every branching zone)."""

    rules: tuple[ZoneRule, ...]
    eq_fixed: bool = True

    def __post_init__(self):
        by_key = {r.key: r for r in self.rules}
        object.__setattr__(self, "_by_key", by_key)
        # acrotony: a growth unit's unbranched zone sits at its base, then
        # its laterals from the highest axillary PA up to the most vigorous
        zones: dict[int, tuple[ZoneRule, ...]] = {}
        for rule in sorted(by_key.values(), key=lambda r: (
                r.axillary_pa != 0, -r.axillary_pa)):
            zones[rule.bearer_pa] = zones.get(rule.bearer_pa, ()) + (rule,)
        object.__setattr__(self, "_zones", zones)

    def get(self, bearer_pa: int, axillary_pa: int) -> ZoneRule | None:
        return self._by_key.get((bearer_pa, axillary_pa))

    def zones_of(self, bearer_pa: int) -> tuple[ZoneRule, ...]:
        """Zones of a growth unit, basal to apical."""
        return self._zones.get(bearer_pa, ())

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


class Profiles:
    """The measured profiles of one run as arrays, the one record its rows
    are read from and a fit gathers its residuals from.

    ``trunk`` is GU × (mass, diameter, length); ``rings`` is age × GU
    diameters, a cell measured from its GU's birth (``births``) on;
    ``branches`` is GU × PA × (wood, leaf, axis length), the mean of the
    ``counts`` branches of its cell.  Index i of an axis is GU, age or PA
    i + 1, and a cell no row measures holds NaN.  Each section's rows are
    built from its table on first read."""

    def __init__(self, trunk: np.ndarray, rings: np.ndarray,
                 births: np.ndarray, branches: np.ndarray, counts: np.ndarray):
        self.trunk, self.rings, self.births = trunk, rings, births
        self.branches, self.counts = branches, counts

    def __eq__(self, other) -> bool:
        """Equal when every table has the same shape, type and bits."""
        return type(other) is Profiles and all(
            (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
            for a, b in zip(self._tables(), other._tables()))

    def _tables(self) -> tuple[np.ndarray, ...]:
        return self.trunk, self.rings, self.births, self.branches, self.counts

    def sections(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per MEASUREMENTS section, its table, with one axis per key field
        (index = key − 1) then the value fields, and the cells it serves."""
        return ((self.trunk, np.ones(len(self.trunk), bool)),
                (self.rings.T[..., None],
                 self.births[:, None] <= np.arange(1, len(self.rings) + 1)),
                (self.branches, self.counts > 0))

    @cached_property
    def trunk_profile(self) -> tuple[TrunkObservation, ...]:
        return tuple(TrunkObservation(gu, *values)
                     for gu, values in enumerate(self.trunk.tolist(), 1))

    @cached_property
    def ring_matrix(self) -> tuple[RingObservation, ...]:
        ages, gus = self.sections()[1][1].T.nonzero()   # age by age
        return tuple(map(RingObservation, (gus + 1).tolist(),
                         (ages + 1).tolist(), self.rings[ages, gus].tolist()))

    @cached_property
    def branch_compartments(self) -> tuple[BranchRow, ...]:
        cells = self.counts.nonzero()
        return tuple(map(BranchRow, *((each + 1).tolist() for each in cells),
                         self.counts[cells].tolist(),
                         *self.branches[cells].T.tolist()))


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

    @cached_property
    def alignment(self) -> tuple[list[np.ndarray], np.ndarray, list[str]]:
        """What aligning a run reads of the dataset, built on first use:
        per MEASUREMENTS section, each row's cell in the section's
        :meth:`Profiles.sections` table (key − 1), then every observed
        value and its data class, in residual order."""
        sections = [(m, getattr(self, m.field)) for m in MEASUREMENTS]
        return ([np.array([[getattr(t, f) for f in m.key] for t in rows],
                          int).reshape(len(rows), len(m.key)) - 1
                 for m, rows in sections],
                np.concatenate([np.array([[getattr(t, v) for _, v in m.classes]
                                          for t in rows], float).ravel()
                                for m, rows in sections]),
                [c for m, rows in sections for _ in rows for c, _ in m.classes])

    @cached_property
    def script_violations(self) -> tuple[Violation, ...]:
        """The trunk script's violations (:func:`validate_script`), found
        on first use: a dataset's script never changes."""
        rep = ValidationReport()
        if not self.trunk_script:
            rep.add((), "trunk script is empty")
        for i, entry in enumerate(self.trunk_script, start=1):
            at, total = (("script", i - 1),), entry.branch_total()
            if entry.gu_index != i:
                rep.add(at, f"script entry {i}: gu_index {entry.gu_index} "
                        "out of order")
            if entry.metamer_count < 1:
                rep.add(at, f"script entry {i}: metamer_count must be >= 1")
            if total > entry.metamer_count:
                rep.add(at, f"script entry {i}: more branches ({total}) "
                        f"than metamers ({entry.metamer_count})")
            for pa, count in entry.branches:
                if pa < 2:
                    rep.add(at, f"script entry {i}: branch PA must be >= 2, "
                            f"got {pa}")
                if count < 1:
                    rep.add(at, f"script entry {i}: branch count must be >= 1")
        return tuple(rep)

    def script_entry(self, cycle: int) -> TrunkScriptEntry:
        if cycle < 1 or cycle > len(self.trunk_script):
            raise SimulationError(f"trunk script has no entry for cycle {cycle}")
        entry = self.trunk_script[cycle - 1]
        if entry.gu_index != cycle:
            raise SimulationError(
                f"trunk script entry {cycle} carries gu_index {entry.gu_index}")
        return entry


class ValidationReport(list):
    """Outcome of configuration validation: the Violations found, in the
    order found, so it passes when empty.  Validation is report-valued;
    callers that need an exception use :meth:`raise_if_failed`."""

    def add(self, keys: tuple, message: str, kind: str = "relation") -> None:
        self.append(Violation(keys, message, kind))

    def raise_if_failed(self) -> None:
        if self:
            raise ValidationError("; ".join(v.message for v in self), self)


#: each number's own range, as (low, high, closed ends): every parameter
#: (a vector's row holds for each entry), the zone fields m1 and a1, each
#: fit setting (a FitSpec field, or "annealing" and an AnnealSchedule
#: field) and a class weight.  Any other number must be finite.
RANGES = {
    **dict.fromkeys(("v_env", "sp0", "k_beer", "q0", "p_s", "p_r", "p_rg",
                     "internode_leaf_ratio_short", "slw_values",
                     "wood_density", "annealing t0", "annealing t_stop_ratio",
                     "annealing step_scale", "weight"), (0, math.inf, "()")),
    **dict.fromkeys(("gamma", "allom_a", "allom_b", "m1", "a1",
                     "annealing steps_per_t", "seed", "polish_rounds"),
                    (0, math.inf, "[)")),
    "alpha": (0, 1, "(]"), "lambda_mix": (0, 1, "[]"),
    "root_fraction": (0, 1, "[)"), "pa_max": (2, math.inf, "[)"),
    "short_shoot_metamers": (1, math.inf, "[)"),
    # a long shoot's leaf takes m / (1 + r) of its mass m, which is all of
    # it once 1 + r rounds to 1, and leaves the internode no wood
    "internode_leaf_ratio_long": (2 ** -53, math.inf, "()"),
    # a cooling of 1 never ends the annealing, numpy seeds from integers
    # >= 0 only, scipy needs max_nfev >= 1, and the fit would silently
    # reinterpret a lower step scale, refit cadence or polish count
    "annealing cooling": (0, 1, "()"), "max_nfev": (1, math.inf, "[)"),
    "refit_every": (1, math.inf, "[)")}
#: each row's open bounds: low <= v exactly when nextafter(low, -inf) < v
_OPEN = {name: (low if ends[0] == "(" else math.nextafter(low, -math.inf),
                high if ends[1] == ")" else math.nextafter(high, math.inf))
         for name, (low, high, ends) in RANGES.items()}
_FINITE = (-math.inf, math.inf)


def range_violation(name: str, value,
                    label: str | None = None) -> Violation | None:
    """None if ``value`` is None or inside the row ``name`` of RANGES, else
    its range Violation, of key ``label`` (default ``name``): ``KEY must be
    finite: VALUE``, else ``KEY must be > 0: V`` (``>= 1``, ``in (0, 1]``
    alike) for the first entry outside, plus ``(i)`` after KEY if it is a
    tuple's entry i.  An end is printed as the number it is: 0, or 2**-53
    in full."""
    if value is None:
        return None
    low, high = _OPEN.get(name, _FINITE)
    entries = value if type(value) is tuple else (value,)
    for v in entries:
        if not low < v < high:
            break
    else:
        return None
    key = label or name
    if not all(map(math.isfinite, entries)):
        return Violation((key,), f"{key} must be finite: {value!r}", "range")
    entry = f"{key}({entries.index(v) + 1})" if entries is value else key
    low, high, ends = RANGES[name]
    condition = (f"{'>' if ends[0] == '(' else '>='} {low!r}"
                 if high == math.inf else
                 f"in {ends[0]}{low!r}, {high!r}{ends[1]}")
    return Violation((key,), f"{entry} must be {condition}: {v!r}", "range")


def check_range(name: str, value, label: str | None = None) -> None:
    """Raise InvalidValue carrying ``range_violation``'s Violation, if any."""
    if violation := range_violation(name, value, label):
        raise InvalidValue(*violation)


def validate_parameters(params: GrowthParameters,
                        zones: ZoneRuleSet | None = None) -> ValidationReport:
    """Validate a parameter set (and optionally zone rules): each number in
    its range (RANGES), and the relations between them, each violation
    keyed by the parameter names or zone key it relates.  Returns a report;
    a passing report is a precondition of every simulation."""
    p = params
    rep = ValidationReport(filter(None, map(range_violation, vars(p),
                                            vars(p).values())))

    for name in ("p_s", "p_rg", "allom_a", "allom_b"):
        if (n := len(getattr(p, name))) != p.pa_max:
            rep.add((name, "pa_max"), f"{name} must have one entry per "
                    f"physiological age ({p.pa_max}), got {n}")
    if len(p.p_rg) == p.pa_max and p.p_rg[0] != 1.0:
        rep.add(("p_rg",), "p_rg(1) must equal 1 exactly (reference "
                f"value): {p.p_rg[0]}")
    if p.allom_a and p.allom_a[0] == 0:   # cycle 1 grows the trunk alone
        rep.add(("allom_a",), "allom_a(1) must be nonzero, or the trunk "
                f"has no length to grow: {p.allom_a[0]}")
    if not p.v_env:
        rep.add(("v_env",), "v_env must carry at least one per-tree entry")
    if len(p.slw_ages) != len(p.slw_values) or not p.slw_ages:
        rep.add(("slw_values", "slw_ages"),
                "slw schedule needs matching, nonempty age/value lists")
    elif any(b <= a for a, b in zip(p.slw_ages, p.slw_ages[1:])):
        rep.add(("slw_ages",), "slw ages must be strictly increasing")

    if zones is not None:
        _validate_zones(rep, zones, p.pa_max)
    return rep


def _validate_zones(rep: ValidationReport, zones: ZoneRuleSet, pa_max: int):
    seen = set()
    for rule in zones.rules:
        name, at = f"zone Z^{rule.bearer_pa}{rule.axillary_pa}", (rule.key,)
        if rule.key in seen:
            rep.add(at, f"duplicate {name}")
        seen.add(rule.key)
        if not (2 <= rule.bearer_pa <= pa_max - 1):
            rep.add(at + ("pa_max",),
                    f"{name}: bearer PA must lie in 2..{pa_max - 1}")
        if rule.axillary_pa != 0 and not (2 <= rule.axillary_pa <= pa_max):
            rep.add(at + ("pa_max",),
                    f"{name}: axillary PA must be 0 or in 2..{pa_max}")
        for coef in ("m1", "m2", "a1", "a2"):
            if violation := range_violation(coef, getattr(rule, coef)):
                rep.add(at, f"{name}: {violation.message}", "range")
        if math.isnan(rule.m_max):   # an infinite cap means no cap
            rep.add(at, f"{name}: m_max must be a number: {rule.m_max!r}")
        if rule.m_max < rule.m1:
            rep.add(at, f"{name}: m_max must be >= m1")
        if rule.branching:
            if rule.a1 is None or rule.a2 is None:
                rep.add(at, f"{name}: branching zones need a1 and a2")
        elif rule.a1 is not None or rule.a2 is not None:
            rep.add(at, f"{name}: unbranched zones carry no axis coefficients")
        if zones.eq_fixed:
            want_m1 = 0.0 if rule.key == (2, 2) else 1.0
            if rule.m1 != want_m1:
                rep.add(at, f"{name}: fixed-coefficient rule requires m1 = "
                        f"{want_m1:g}, got {rule.m1:g}")
            if rule.branching and rule.a1 not in (None, 0.0):
                rep.add(at, f"{name}: fixed-coefficient rule requires a1 = "
                        f"0, got {rule.a1:g}")
    # a run lays out a unit of each PA below the short shoots' from its
    # first cycle on, so each needs a zone; the lowest without one is named
    bearers, bare = {bearer for bearer, _ in seen}, 2
    while bare in bearers:
        bare += 1
    if bare < pa_max:
        rep.add(("[zones]", "pa_max"), "[zones] must give each bearer PA in "
                f"2..{pa_max - 1} a zone rule: PA {bare} has none")


def validate_script(dataset: TargetDataset) -> ValidationReport:
    """Check the trunk script alone: the part of a target dataset a
    simulation actually consumes (``dataset.script_violations``)."""
    return ValidationReport(dataset.script_violations)


def validate_target(dataset: TargetDataset) -> ValidationReport:
    """Check a target dataset's full invariants (script coverage, ring
    monotonicity, nonnegative masses), each violation keyed by its row's
    (section, index)."""
    rep = validate_script(dataset)
    age = dataset.tree_age
    for k, obs in enumerate(dataset.trunk_profile):
        at, label = (("trunk", k),), f"trunk row GU {obs.gu_index}"
        if not (1 <= obs.gu_index <= age):
            rep.add(at, f"{label}: index outside 1..{age}")
        if min(obs.mass_g, obs.diameter_cm, obs.length_cm) < 0:
            rep.add(at, f"{label}: negative value")
    by_gu: dict[int, list[tuple[int, RingObservation]]] = {}
    for k, obs in enumerate(dataset.ring_matrix):
        at, label = (("rings", k),), f"ring row GU {obs.gu_index}"
        by_gu.setdefault(obs.gu_index, []).append((k, obs))
        if not (1 <= obs.gu_index <= age):
            rep.add(at, f"{label}: index outside 1..{age}")
        if obs.tree_age < obs.gu_index or obs.tree_age > age:
            rep.add(at, f"{label}: tree_age {obs.tree_age} outside "
                    f"{obs.gu_index}..{age}")
        if obs.diameter_cm < 0:
            rep.add(at, f"{label}: negative diameter")
    for gu, rows in by_gu.items():
        rows = sorted(rows, key=lambda r: r[1].tree_age)
        for (_, a), (k, b) in zip(rows, rows[1:]):
            if b.diameter_cm < a.diameter_cm:
                rep.add((("rings", k),), f"ring row GU {gu} age {b.tree_age}:"
                        f" diameter decreases ({a.diameter_cm:g} -> "
                        f"{b.diameter_cm:g})")
    scripted = {(entry.gu_index, pa) for entry in dataset.trunk_script
                for pa, _ in entry.branches}
    for k, obs in enumerate(dataset.branch_compartments):
        at = (("branches", k),)
        label = f"branch row GU {obs.gu_index} PA {obs.pa}"
        if min(obs.wood_g, obs.leaf_g) < 0:
            rep.add(at, f"{label}: negative mass")
        if (obs.gu_index, obs.pa) not in scripted:
            rep.add(at, f"{label}: no such branch in the trunk script")
    return rep
