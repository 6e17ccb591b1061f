"""Factorized tree architecture.

All axes of the same physiological age born at the same growth cycle develop
identically (same growth-unit layouts, same lateral assignments, same ring
increments), so the tree is stored as a collection of :class:`AxisClass`
objects carrying a multiplicity instead of one object per axis.  Leaves live
one cycle: a leaf is live if its growth unit was born at the current cycle.

The tree owns every per-metamer value in one :class:`Arena`.  A growth
unit's metamers are alike when they expand, so the arena stores their
internode mass, length, leaf mass and leaf area once per growth unit, and
only the cumulative ring mass, which depends on a metamer's position, once
per metamer (for the bundled tree2 with ten parameter columns, 1.3 MB of
floats instead of 3.6 MB).  Both tables keep each class's columns
contiguous (base to apex, growth units in rank order) and the classes in
creation order, so the per-cycle ring partition and foliage scans are
whole-arena operations.  The unit table is the only record of a growth
unit: its class, birth cycle, metamer count, first metamer row and zone
layout are columns, and its rank is its place among its class's units.  A
class holds no arrays, only its index into the arena's class offsets.

A tree may carry K parameter columns: K runs that share every decision
(classes, growth units, laterals, multiplicities) but not their masses.
Each field then has one row per column, and every per-column quantity a
method returns has a leading axis of length K.  Per-column reductions run
along a contiguous last axis, so each column's bits are those of a
one-column tree.

A metamer can bear at most one lateral axis, created the cycle after the
metamer's own expansion (or together with it for trunk-scripted branches).
The laterals are one tree-level edge list (bearing class, bearing row,
child class, per-instance count), grouped by bearing class in class order
and in creation order within each class.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .core import GrowthParameters, SimulationError

# rows of Arena.units (a column per growth unit): the owning class index,
# the unit's birth cycle, its metamer count, its first metamer row in its
# class and its zone layout (an index into Arena.layouts, -1 for an unzoned
# unit), then its fields
CLASS, BIRTH, SIZE, START, LAYOUT = range(5)
# the per-instance fields (Arena.field), each with one row per parameter
# column: the first four per growth unit, the ring per metamer
INTERNODE_MASS, LENGTH, LEAF_MASS, LEAF_AREA, CUM_RING = range(5)
# rows of Arena.edges (a column per lateral; ROW is class-local)
BEARER, ROW, CHILD, COUNT = range(4)


def _merged(table: np.ndarray, new: np.ndarray, order: np.ndarray
            ) -> np.ndarray:
    """The columns of ``table`` and then ``new`` (as many rows), taken in
    ``order``."""
    out = np.empty((len(table), order.size), table.dtype)
    for field_row, old, added in zip(out, table, new):   # faster by rows
        np.concatenate((old, added)).take(order, out=field_row)
    return out


def _class_order(classes: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The order that puts the columns of class index ``classes`` and then
    ``new`` by class, each class's columns contiguous and in insertion
    order."""
    return np.argsort(np.concatenate((classes, new)), kind="stable")


class Arena:
    """Every per-metamer value and every lateral of one tree.

    ``units`` has one column per growth unit (rows CLASS to LAYOUT, then
    INTERNODE_MASS to LEAF_AREA with one row per parameter column),
    ``metamer_class`` and ``cum_ring`` (one row per column) one per
    metamer, and ``edges`` one per lateral (rows BEARER..COUNT), each
    grouped by class in class order, with the class offsets
    ``unit_bounds``, ``bounds`` and ``edge_bounds`` (lists of ``n_classes +
    1`` column indices).  ``layouts`` maps each distinct zone layout, a
    tuple of (axillary PA, metamer count) blocks, to its index.  Appends
    queue until the next read merges them in one pass, one array at a
    time.  The classes and their tree both hold the arena, which holds
    neither, so a finished tree is freed without waiting for the cycle
    collector.
    """

    __slots__ = ("units", "sizes", "layouts", "metamer_class", "cum_ring",
                 "edges", "unit_bounds", "bounds", "edge_bounds",
                 "queued_rows", "queued_edges", "n_classes", "columns")

    def __init__(self, columns: int = 1):
        self.columns = columns
        self.units = np.zeros((LAYOUT + 1 + 4 * columns, 0))
        self.sizes = np.zeros(0, np.intp)
        self.layouts: dict[tuple, int] = {}
        self.metamer_class = np.zeros(0)
        self.cum_ring = np.zeros((columns, 0))
        self.edges = np.zeros((4, 0), dtype=np.int64)
        self.unit_bounds = self.bounds = self.edge_bounds = [0]
        self.queued_rows: list[tuple] = []
        self.queued_edges: list[tuple] = []
        self.n_classes = 0

    def unit_field(self, row: int) -> np.ndarray:
        """The (columns, units) rows of a field a unit's metamers share."""
        start = LAYOUT + 1 + row * self.columns
        return self.units[start:start + self.columns]

    def field(self, row: int) -> np.ndarray:
        """The (columns, metamers) array of one field: the ring array
        itself, or a unit field repeated over each unit's metamers."""
        if row == CUM_RING:
            return self.cum_ring
        return np.repeat(self.unit_field(row), self.sizes, axis=1)

    def settle(self) -> None:
        """Merge the queued growth units and laterals: a fixed number of
        array operations, whatever the number of classes or appends."""
        n = self.n_classes
        if not (self.queued_rows or self.queued_edges
                or len(self.bounds) != n + 1):
            return
        if self.queued_rows:
            added = np.array(self.queued_rows).T
            self.units = _merged(self.units, added, _class_order(
                self.units[CLASS], added[CLASS]))
            self.sizes = self.units[SIZE].astype(np.intp)
            # the new metamers, their rings at zero
            new = np.repeat(added[CLASS], added[SIZE].astype(np.intp))
            order = _class_order(self.metamer_class, new)
            self.metamer_class = np.concatenate(
                (self.metamer_class, new)).take(order)
            self.cum_ring = _merged(
                self.cum_ring, np.zeros((self.columns, new.size)), order)
            self.queued_rows = []
        if self.queued_edges:
            added = np.array(self.queued_edges).T
            self.edges = _merged(self.edges, added, _class_order(
                self.edges[BEARER], added[BEARER]))
            self.queued_edges = []
        classes = np.arange(n + 1)
        self.unit_bounds = np.searchsorted(self.units[CLASS],
                                           classes).tolist()
        self.bounds = np.searchsorted(self.metamer_class, classes).tolist()
        self.edge_bounds = np.searchsorted(self.edges[BEARER],
                                           classes).tolist()

    def segment(self, idx: int) -> tuple[int, int]:
        """Value columns of class ``idx``."""
        self.settle()
        return self.bounds[idx], self.bounds[idx + 1]

    def segment_sums(self, per_metamer: np.ndarray) -> np.ndarray:
        """(columns, classes): per class, the sum of each row of
        ``per_metamer`` (aligned with the settled arena) over its
        segment."""
        b, add = self.bounds, np.add.reduce
        sums = [add(per_metamer[:, s:e], axis=1) for s, e in zip(b, b[1:])]
        return np.array(sums).reshape(-1, len(per_metamer)).T.copy()


def _arena_field(row: int) -> property:
    """A copy of a class's (columns, metamers) values of one arena field,
    base to apex."""
    def get(self: AxisClass) -> np.ndarray:
        s, e = self.arena.segment(self.index)
        return self.arena.field(row)[:, s:e].copy()
    return property(get)


class AxisClass:
    """All axes sharing (physiological age, birth cycle), with multiplicity.

    It joins its tree's arena as the next class, ``index``; its metamers
    and growth units are that segment of the arena, ``n_metamers`` counts
    the metamers appended so far, and ``bearing_rows`` holds the
    class-local rows that bear a lateral.
    """

    __slots__ = ("arena", "index", "pa", "birth_cycle", "multiplicity",
                 "n_metamers", "bearing_rows")

    def __init__(self, arena: Arena, pa: int, birth_cycle: int,
                 multiplicity: int):
        self.arena = arena
        self.index = arena.n_classes
        arena.n_classes += 1
        self.pa = pa
        self.birth_cycle = birth_cycle
        self.multiplicity = multiplicity
        self.n_metamers = 0
        self.bearing_rows: set[int] = set()

    internode_mass = _arena_field(INTERNODE_MASS)
    length = _arena_field(LENGTH)
    cum_ring = _arena_field(CUM_RING)

    @property
    def key(self) -> tuple[int, int]:
        return (self.pa, self.birth_cycle)

    def append_gu(self, birth_cycle: int, zone_layout: list[tuple[int, int]] | None,
                  metamer_count: int, *values: float) -> None:
        """Add the next growth unit; per-metamer values are uniform within
        the shoot.  ``values`` are its internode mass, length, leaf mass and
        leaf area, each once per column, field by field.  ``zone_layout``
        lists (axillary PA, metamer count) blocks base to apex; None means
        an unzoned unit (trunk or short shoot).  Its metamers enter the
        arena when it is next read."""
        if metamer_count < 1:
            raise SimulationError("growth units carry at least one metamer")
        if zone_layout is not None and \
                sum(c for _, c in zone_layout) != metamer_count:
            raise SimulationError("zone layout does not cover the growth unit")
        arena = self.arena
        if len(values) != 4 * arena.columns:
            raise SimulationError(
                f"{len(values)} metamer values for {arena.columns} columns")
        layout = -1 if zone_layout is None else arena.layouts.setdefault(
            tuple(zone_layout), len(arena.layouts))
        arena.queued_rows.append((self.index, birth_cycle, metamer_count,
                                  self.n_metamers, layout, *values))
        self.n_metamers += metamer_count

    def record_rings(self, increments: np.ndarray) -> None:
        """Add one cycle's per-instance ring increments to every metamer of
        the first column."""
        s, e = self.arena.segment(self.index)
        if increments.size != e - s:
            raise SimulationError(
                f"ring increment vector size {increments.size} != "
                f"{e - s} metamers")
        self.arena.cum_ring[0, s:e] += increments

    def set_child(self, flat_idx: int, child_class_idx: int,
                  per_instance_count: int) -> None:
        """Record a lateral borne by one metamer (at most one, ever)."""
        if not 0 <= flat_idx < self.n_metamers:
            raise SimulationError(f"no metamer row {flat_idx} in the class")
        if flat_idx in self.bearing_rows:
            raise SimulationError("metamer already bears a lateral")
        self.bearing_rows.add(flat_idx)
        self.arena.queued_edges.append(
            (self.index, flat_idx, child_class_idx, per_instance_count))


@dataclass
class TreeState:
    """Complete factorized state of one simulated tree over ``columns``
    parameter columns; its classes share its arena.  The per-column cycle
    state holds one entry per column."""

    cycle: int = 0
    columns: int = 1
    classes: list[AxisClass] = field(init=False, default_factory=list)
    class_index: dict[tuple[int, int], int] = field(init=False,
                                                    default_factory=dict)
    # previous-cycle Q/D driving organogenesis
    ratio_lagged: list[float] = field(default_factory=list)
    # OrganogenesisPlans for cycle+1, and the Q_s committed to them
    pending_plans: list = field(default_factory=list)
    pending_fund: list[float] = field(default_factory=list)
    # (cycle, (columns, trunk metamers) per-instance ring increments)
    trunk_rings: list[tuple[int, np.ndarray]] = field(init=False,
                                                      default_factory=list)
    # per column, the expanded OrganogenesisPlans: the decisions the
    # architecture rests on, with that column's ratios and shoot demands
    decisions: list[list] = field(init=False)
    # per column, the run's notes (distribution slack, a dropped Pressler
    # term)
    notes: list[list[str]] = field(init=False)
    arena: Arena = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.arena = Arena(self.columns)
        self.decisions = [[] for _ in range(self.columns)]
        self.notes = [[] for _ in range(self.columns)]

    def add_class(self, pa: int, birth_cycle: int, multiplicity: int) -> AxisClass:
        key = (pa, birth_cycle)
        if key in self.class_index:
            raise SimulationError(f"axis class {key} already exists")
        cls = AxisClass(self.arena, pa, birth_cycle, multiplicity)
        self.class_index[key] = cls.index
        self.classes.append(cls)
        return cls

    def get_class(self, pa: int, birth_cycle: int) -> AxisClass | None:
        idx = self.class_index.get((pa, birth_cycle))
        return None if idx is None else self.classes[idx]

    # ------------------------------------------------------------------
    # foliage scans
    # ------------------------------------------------------------------

    def _live_totals(self, row: int) -> np.ndarray:
        """(columns, classes): per class, the per-instance total of the
        LEAF_AREA or LEAF_MASS ``row`` over the leaves alive at the current
        cycle: those of the units born then."""
        arena = self.arena
        arena.settle()
        # each live unit's metamer value × their count, added to its class
        totals = np.zeros((self.columns, len(self.classes)))
        live = np.flatnonzero(arena.units[BIRTH] == self.cycle)
        classes = arena.units[CLASS].take(live).astype(int)
        np.add.at(totals, (slice(None), classes), arena.unit_field(row).take(
            live, axis=1) * arena.units[SIZE].take(live))
        return totals

    def _instance_total(self, per_class: np.ndarray) -> np.ndarray:
        """Per column, the sum over the classes of multiplicity × value,
        added in class order."""
        if not self.classes:
            return np.zeros(self.columns)
        mult = np.array([cls.multiplicity for cls in self.classes], float)
        return np.cumsum(mult * per_class, axis=1)[:, -1]

    def total_blade_area_cm2(self) -> np.ndarray:
        """Per column, the blade area of the leaves alive at the current
        cycle."""
        return self._instance_total(self._live_totals(LEAF_AREA))

    def _subtree_totals(self, own: np.ndarray) -> np.ndarray:
        """(columns, classes) per-instance subtree sums of the per-class
        values ``own``, resolved bottom-up: children are always created
        after their parent class, so one reverse pass suffices.  Each class
        adds its laterals in creation order."""
        arena = self.arena
        arena.settle()
        totals = own.copy()
        b, add = arena.edge_bounds, np.add.reduce
        child, count = arena.edges[CHILD], arena.edges[COUNT]
        for idx in range(own.shape[1] - 1, -1, -1):
            s, e = b[idx], b[idx + 1]
            if s < e:
                totals[:, idx] += add(
                    count[s:e] * totals.take(child[s:e], axis=1), axis=1)
        return totals

    def foliage_above(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-instance live foliage area at or above each metamer: its own
        leaf, every leaf distal on its axis, and the full subtrees of
        laterals borne at or above it, counting the leaves born at the
        current cycle.  Returns (class offsets, (columns, metamers) areas):
        the areas of class ``i`` are ``areas[:, bounds[i]:bounds[i + 1]]``,
        aligned with its arena segment."""
        totals = self._subtree_totals(self._live_totals(LEAF_AREA))
        arena = self.arena
        edges, leaf = arena.edges, arena.unit_field(LEAF_AREA)
        bounds = np.array(arena.bounds)
        leaf = np.where(arena.units[BIRTH] == self.cycle, leaf, 0.0)
        seg = np.repeat(leaf, arena.sizes, axis=1)
        seg[:, bounds[edges[BEARER]] + edges[ROW]] += \
            edges[COUNT] * totals.take(edges[CHILD], axis=1)
        # suffix sums per class: each segment apex first in one row of a
        # table padded at the base end, summed sequentially along the rows;
        # one column at a time, as the table holds about 3x the metamers
        sizes = bounds[1:] - bounds[:-1]
        n_classes, width = sizes.size, int(sizes.max(initial=0))
        cell = np.repeat(np.arange(n_classes) * width + bounds[1:] - 1,
                         sizes) - np.arange(seg.shape[1])
        table = np.empty((n_classes, width))
        flat = table.reshape(-1)
        for row in seg:
            table.fill(0.0)
            flat[cell] = row
            np.cumsum(table, axis=1, out=table)
            flat.take(cell, out=row)
        return bounds, seg

    def ring_partition_arrays(self, p_rg) -> tuple[
            np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-metamer arrays for the ring partition, over the whole arena:
        (class offsets, (columns, metamers) foliage at or above, (columns,
        metamers) ring sink × length weight, instance multiplicity), with
        ``p_rg`` the ring sinks by PA, one row per column."""
        bounds, s_a = self.foliage_above()
        arena = self.arena
        pa = np.array([cls.pa for cls in self.classes], np.intp)
        unit_pa = pa.take(arena.units[CLASS].astype(np.intp))
        sink = np.asarray(p_rg, float).reshape(self.columns, -1).take(
            unit_pa - 1, axis=1)
        sink *= arena.unit_field(LENGTH)
        mult = np.array([cls.multiplicity for cls in self.classes], float)
        return (bounds, s_a, np.repeat(sink, arena.sizes, axis=1),
                np.repeat(mult, bounds[1:] - bounds[:-1]))

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    def _own_wood(self) -> np.ndarray:
        """(columns, classes) per-instance wood mass (internodes +
        rings)."""
        arena = self.arena
        arena.settle()
        return arena.segment_sums(arena.field(INTERNODE_MASS)
                                  + arena.field(CUM_RING))

    def subtree_wood_totals(self) -> np.ndarray:
        """(columns, classes) per-instance wood mass (internodes + rings)
        of each class's subtree."""
        return self._subtree_totals(self._own_wood())

    def subtree_leaf_mass_totals(self) -> np.ndarray:
        """(columns, classes) live leaf mass of each class's subtree."""
        return self._subtree_totals(self._live_totals(LEAF_MASS))

    def total_wood_mass(self) -> np.ndarray:
        return self._instance_total(self._own_wood())

    def total_leaf_mass_ever(self) -> np.ndarray:
        arena = self.arena
        arena.settle()
        return self._instance_total(arena.segment_sums(arena.field(LEAF_MASS)))

    def growth_units(self, idx: int) -> list[tuple]:
        """Class ``idx``'s growth units base to apex, read from the arena's
        unit table: (rank, birth cycle, first class-local metamer row,
        metamer count, zone layout or None, laterals), with the laterals it
        bears as (metamer rank, child class index, per-instance count),
        base to apex."""
        arena = self.arena
        arena.settle()
        s, e = arena.unit_bounds[idx:idx + 2]
        birth, size, start, layout = arena.units[BIRTH:LAYOUT + 1, s:e].astype(
            int).tolist()
        borne: list[list] = [[] for _ in birth]
        s, e = arena.edge_bounds[idx:idx + 2]
        for row, child, count in sorted(zip(*arena.edges[ROW:, s:e].tolist())):
            u = bisect_right(start, row) - 1
            borne[u].append((row - start[u] + 1, child, count))
        layouts = [*arena.layouts, None]     # LAYOUT -1 reads None
        return list(zip(range(1, len(birth) + 1), birth, start, size,
                        [layouts[i] for i in layout], borne))

    def topology_dump(self) -> dict:
        """JSON-ready description of the factorized architecture."""
        return {"cycle": self.cycle, "axis_classes": [{
            "pa": cls.pa,
            "birth_cycle": cls.birth_cycle,
            "multiplicity": cls.multiplicity,
            "growth_units": [{
                "rank": rank,
                "birth_cycle": birth,
                "metamer_count": count,
                "zone_counts": (None if layout is None else
                                {str(k): v for k, v in sorted(layout)}),
                "borne_axes": [{
                    "metamer_rank": row,
                    "axillary_pa": self.classes[child].pa,
                    "axis_birth_cycle": self.classes[child].birth_cycle,
                    "per_instance_count": n} for row, child, n in laterals],
            } for rank, birth, _start, count, layout, laterals
                in self.growth_units(cls.index)],
        } for cls in self.classes]}

    def structure_signature(self) -> tuple:
        """Canonical, hashable summary of the discrete architecture: class
        keys, multiplicities, growth-unit zone layouts and lateral links.
        Two simulations with equal signatures produced bit-identical
        topologies."""
        return tuple((cls.pa, cls.birth_cycle, cls.multiplicity, tuple(
            (rank, birth, count,
             None if layout is None else tuple(sorted(layout)),
             tuple((row, self.classes[child].key, n)
                   for row, child, n in laterals))
            for rank, birth, _start, count, layout, laterals
            in self.growth_units(cls.index)))
            for cls in self.classes)


def expand_shoot_values(params: GrowthParameters, pa: int, shoot_mass: float,
                        metamer_count: int, tree_age: int,
                        slw: float | None = None
                        ) -> tuple[float, float, float, float]:
    """Per-metamer (internode mass, length, leaf mass, leaf area) for a shoot
    of the given PA and total mass, split uniformly over its metamers and
    into internode/leaf by the fixed class ratio.  ``slw`` may carry a
    precomputed specific leaf weight for the tree age."""
    if metamer_count < 1:
        raise SimulationError(f"shoot of PA {pa} needs at least one metamer")
    r = params.internode_leaf_ratio(pa)
    m = shoot_mass / metamer_count
    leaf = m / (1.0 + r)
    internode = m - leaf
    length = params.allom_a[pa - 1] * internode ** params.allom_b[pa - 1] \
        if internode > 0 else 0.0
    area = leaf / (params.slw_at(tree_age) if slw is None else slw)
    return internode, length, leaf, area


def metamer_diameter(wood_mass: float, length: float, wood_density: float
                     ) -> float:
    """External diameter (cm) of a metamer treated as a cylinder holding its
    cumulative wood mass."""
    if wood_mass <= 0.0:
        return 0.0
    if length <= 0.0:
        raise SimulationError(
            f"metamer with wood mass {wood_mass:g} g but zero length")
    volume = wood_mass / wood_density
    return float(np.sqrt(4.0 * volume / (np.pi * length)))


def metamer_diameters(wood_mass: np.ndarray, length: np.ndarray,
                      wood_density, out: np.ndarray | None = None
                      ) -> np.ndarray:
    """Vectorized :func:`metamer_diameter`, shaped like ``wood_mass``;
    ``length`` and ``wood_density`` broadcast against it (one density per
    column, say).  ``out`` may be ``wood_mass`` itself."""
    wood_mass = np.asarray(wood_mass, dtype=float)
    length = np.asarray(length, dtype=float)
    ok = wood_mass > 0.0
    if np.any(ok & (length <= 0.0)):
        raise SimulationError("metamer with wood mass but zero length")
    volume = np.multiply(wood_density, np.pi) * length
    out = np.multiply(wood_mass, 4.0, out=out)
    np.divide(out, volume, out=out, where=ok)
    np.sqrt(out, out=out, where=ok)
    out[~ok] = 0.0
    return out
