"""Factorized tree architecture.

All axes of the same physiological age born at the same growth cycle develop
identically (same growth-unit layouts, same lateral assignments, same ring
increments), so the tree is stored as a collection of :class:`AxisClass`
objects carrying a multiplicity instead of one object per axis.  Leaves live
one cycle: a leaf is live if its growth unit was born at the current cycle.

The tree owns every value in one :class:`Arena`: the four fields a growth
unit's metamers share once per unit (for the bundled tree2 with ten
parameter columns, 1.37 MB of floats instead of 3.56 MB), the cumulative
ring, which depends on a metamer's position, once per metamer, and the
laterals as one edge list.  A unit's zone layout stays in the plan it grew
from (``TreeState.decisions``).  Each table keeps a class's columns
contiguous, and the classes in creation order, so the per-cycle ring
partition and foliage scans are whole-arena operations; the foliage
suffix sums read only the held metamers (those of live units, the bearers
and each class's apex), every parameter column in one table.  Growth
enters once a cycle: every class of one PA grows the same shoot, so one
block of units names them all, and one :meth:`Arena.grow` call merges
every block and the cycle's laterals.  Reads take the tables as they are.

A tree may carry K parameter columns: K runs that share every decision
(classes, growth units, laterals, multiplicities) but not their masses.
Each field then has one row per column, and every per-column quantity a
method returns has a leading axis of length K.  Per-column reductions run
along a contiguous last axis, so each column's bits are those of a
one-column tree.  A metamer bears at most one lateral axis, created the
cycle after the metamer's own expansion (or with it for trunk-scripted
branches).
"""

from __future__ import annotations

import gc
import json
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .core import TRUNK_PA, GrowthParameters, SimulationError

# rows of Arena.units (a column per growth unit): the owning class index,
# the unit's birth cycle and its metamer count, then its fields
CLASS, BIRTH, SIZE = range(3)
# the per-instance fields (Arena.field), each with one row per parameter
# column: the first four per growth unit, the ring per metamer
INTERNODE_MASS, LENGTH, LEAF_MASS, LEAF_AREA, CUM_RING = range(5)
# rows of Arena.edges (a column per lateral; ROW is class-local): class
# BEARER's metamer ROW bears one instance of class CHILD per instance
BEARER, ROW, CHILD = range(3)
#: elements merged at once: a small table merges whole, a large one a few
#: rows at a time, which keeps each gather in cache
MERGE_CHUNK = 8192


#: topology.json's objects (:meth:`TreeState.topology_text`), keys sorted,
#: each line indented one space per depth as ``json.dumps(indent=1)`` does
_TREE = '{\n "axis_classes": %s,\n "cycle": %d\n}\n'
_CLASS = ('  {\n   "birth_cycle": %d,\n   "growth_units": %s,\n'
          '   "multiplicity": %d,\n   "pa": %d\n  }')
_UNIT = ('    {\n     "birth_cycle": %d,\n     "borne_axes": %s,\n'
         '     "metamer_count": %d,\n     "rank": %d,\n'
         '     "zone_counts": %s\n    }')
_LATERAL = ('      {\n       "axillary_pa": %d,\n'
            '       "axis_birth_cycle": %d,\n       "metamer_rank": %d,\n'
            '       "per_instance_count": 1\n      }')


def _json_block(items: list[str], pad: str, ends: str = "[]") -> str:
    """The JSON list (``ends`` "{}": object) of the rendered ``items``, one
    a line, its closing bracket indented by ``pad``."""
    if not items:
        return ends
    return ends[0] + "\n" + ",\n".join(items) + "\n" + pad + ends[1]


@contextmanager
def _collector_paused():
    """Pause the cyclic collector: a topology or a signature is thousands
    of containers, none cyclic, and without a pause every few hundred
    would start a collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _merged(table: np.ndarray, new: np.ndarray, classes, added
            ) -> np.ndarray:
    """The columns of ``table`` and then ``new`` (as many rows) by class:
    ``classes`` and ``added`` are their columns' class indices, and each
    class's columns stay contiguous and in insertion order."""
    order = np.argsort(np.concatenate((classes, added)), kind="stable")
    out = np.empty((len(table), order.size), table.dtype)
    step = max(1, MERGE_CHUNK // max(order.size, 1))
    for i in range(0, len(table), step):
        np.concatenate((table[i:i + step], new[i:i + step]), axis=1).take(
            order, axis=1, out=out[i:i + step], mode="clip")  # unbuffered
    return out


class Arena:
    """Every per-metamer value and every lateral of one tree.

    ``units`` has one column per growth unit (rows CLASS to SIZE, then
    INTERNODE_MASS to LEAF_AREA with one row per parameter column): a
    unit's rank is its place among its class's units and its first row
    the sum of their sizes.  ``cum_ring`` (one row per column) has one
    column per metamer, and ``edges`` one per lateral (rows BEARER..CHILD),
    in creation order within each class.  ``unit_bounds``, ``bounds`` and
    ``edge_bounds`` are their class offsets.  :meth:`add_class` and
    :meth:`grow` are the only writers of these tables and offsets, besides
    the ring increments added in place, and each drops ``live``, the cached
    live-leaf totals of :class:`TreeState`.  The classes and their tree
    hold the arena, which holds neither, so a finished tree is freed
    without waiting for the cycle collector.
    """

    __slots__ = ("units", "sizes", "cum_ring", "edges", "unit_bounds",
                 "bounds", "edge_bounds", "columns", "live")

    def __init__(self, columns: int = 1):
        self.columns = columns
        self.units = np.zeros((SIZE + 1 + 4 * columns, 0))
        self.sizes = np.zeros(0, np.intp)
        self.cum_ring = np.zeros((columns, 0))
        self.edges = np.zeros((3, 0), dtype=np.int64)
        self.unit_bounds, self.bounds, self.edge_bounds = [0], [0], [0]
        self.live: tuple = ()

    def add_class(self) -> int:
        """Register the next class, with no unit and no lateral yet, and
        return its index."""
        for offsets in (self.unit_bounds, self.bounds, self.edge_bounds):
            offsets.append(offsets[-1])
        self.live = ()
        return len(self.bounds) - 2

    def grow(self, units, edges=((), (), ())) -> None:
        """Merge growth units and laterals into the tables, in a fixed
        number of array operations whatever the number of classes or
        blocks.  ``units`` holds blocks (classes, birth cycle, metamer
        count, values) of alike units, the next of each class in
        ``classes``, with ``values`` the per-metamer internode mass,
        length, leaf mass and leaf area, field by field.  ``edges`` holds
        (bearers, rows, children): class ``bearers[i]``'s metamer row
        ``rows[i]`` bears one instance of class ``children[i]`` per
        instance.  Each row must exist and bear one lateral at most; a grow
        that raises changes nothing."""
        table, ring, linked = self.units, self.cum_ring, self.edges
        if units:
            for _, _, count, values in units:
                if count < 1:
                    raise SimulationError(
                        "growth units carry at least one metamer")
                if len(values) != 4 * self.columns:
                    raise SimulationError(f"{len(values)} metamer values "
                                          f"for {self.columns} columns")
            # CLASS per unit, the other rows shared by a block
            added = np.array([(0, birth, count, *values) for
                              _, birth, count, values in units]).T.repeat(
                [len(block[0]) for block in units], axis=1)
            added[CLASS] = np.concatenate([block[0] for block in units])
            # the metamers so far by class, then the new ones, rings at zero
            grown = added[SIZE].astype(np.intp)
            ring = _merged(ring, np.zeros((self.columns, grown.sum())),
                           table[CLASS].repeat(self.sizes),
                           added[CLASS].repeat(grown))
            table = _merged(table, added, table[CLASS], added[CLASS])
        sizes = table[SIZE].astype(np.intp)
        ids = np.arange(len(self.bounds))
        unit_bounds = table[CLASS].searchsorted(ids)
        bounds = np.concatenate(([0], sizes.cumsum())).take(
            unit_bounds).tolist()
        for bearer, row in zip(*edges[:2]):
            if not 0 <= row < bounds[bearer + 1] - bounds[bearer]:
                raise SimulationError(f"no metamer row {row} in the class")
        if len(edges[0]):
            new = np.array(edges, np.int64)
            linked = _merged(linked, new, linked[BEARER], new[BEARER])
            # each (bearer, row) once: sorted keys differ from the next (a
            # stable sort: the default kind's first call raised peak RSS)
            borne = np.sort(linked[BEARER] * bounds[-1] + linked[ROW],
                            kind="stable")
            if (borne[1:] == borne[:-1]).any():
                raise SimulationError("metamer already bears a lateral")
        self.units, self.sizes, self.cum_ring, self.edges = (table, sizes,
                                                             ring, linked)
        self.unit_bounds, self.bounds = unit_bounds.tolist(), bounds
        self.edge_bounds = linked[BEARER].searchsorted(ids).tolist()
        self.live = ()

    def unit_field(self, row: int) -> np.ndarray:
        """The (columns, units) rows of a field a unit's metamers share."""
        start = SIZE + 1 + row * self.columns
        return self.units[start:start + self.columns]

    def field(self, row: int) -> np.ndarray:
        """The (columns, metamers) array of one field: the ring array
        itself, or a unit field repeated over each unit's metamers."""
        if row == CUM_RING:
            return self.cum_ring
        return self.unit_field(row).repeat(self.sizes, axis=1)

    def segment_sums(self, per_metamer: np.ndarray) -> np.ndarray:
        """(columns, classes): per class, the sum of each row of
        ``per_metamer`` (aligned with the arena) over its segment."""
        b, add = self.bounds, np.add.reduce
        sums = [add(per_metamer[:, s:e], axis=1) for s, e in zip(b, b[1:])]
        return np.array(sums).reshape(-1, len(per_metamer)).T.copy()


def _arena_field(row: int) -> property:
    """A copy of a class's (columns, metamers) values of one arena field,
    base to apex."""
    def get(self: AxisClass) -> np.ndarray:
        arena, i = self.arena, self.index
        if row == CUM_RING:
            s, e = arena.bounds[i:i + 2]
            return arena.cum_ring[:, s:e].copy()
        u, v = arena.unit_bounds[i:i + 2]
        return arena.unit_field(row)[:, u:v].repeat(arena.sizes[u:v], axis=1)
    return property(get)


class AxisClass:
    """All axes sharing (physiological age, birth cycle), with multiplicity.

    It joins its tree's arena as the next class, ``index``; its metamers
    and growth units are that segment of the arena.
    """

    __slots__ = ("arena", "index", "pa", "birth_cycle", "multiplicity")

    def __init__(self, arena: Arena, pa: int, birth_cycle: int,
                 multiplicity: int):
        self.arena = arena
        self.index = arena.add_class()
        self.pa = pa
        self.birth_cycle = birth_cycle
        self.multiplicity = multiplicity

    internode_mass = _arena_field(INTERNODE_MASS)
    length = _arena_field(LENGTH)
    cum_ring = _arena_field(CUM_RING)
    n_metamers = property(lambda self: self.arena.bounds[self.index + 1]
                          - self.arena.bounds[self.index])

    @property
    def key(self) -> tuple[int, int]:
        return (self.pa, self.birth_cycle)

    def append_gu(self, birth_cycle: int, metamer_count: int,
                  *values: float) -> None:
        """Add the next growth unit: :meth:`Arena.grow` on this class
        alone."""
        self.arena.grow([([self.index], birth_cycle, metamer_count, values)])

    def record_rings(self, increments: np.ndarray) -> None:
        """Add one cycle's per-instance ring increments to every metamer of
        the first column."""
        s, e = self.arena.bounds[self.index:self.index + 2]
        if increments.size != e - s:
            raise SimulationError(
                f"ring increment vector size {increments.size} != "
                f"{e - s} metamers")
        self.arena.cum_ring[0, s:e] += increments


@dataclass
class TreeState:
    """Complete factorized state of one simulated tree over ``columns``
    parameter columns; its classes share its arena.  The per-column cycle
    state holds one entry per column."""

    cycle: int = 0
    columns: int = 1
    classes: list[AxisClass] = field(init=False, default_factory=list)
    # previous-cycle Q/D driving organogenesis
    ratio_lagged: list[float] = field(default_factory=list)
    # OrganogenesisPlans for cycle+1, and the Q_s committed to them
    pending_plans: list = field(default_factory=list)
    pending_fund: list[float] = field(default_factory=list)
    # per cycle, the (columns, trunk metamers) per-instance ring increments
    trunk_rings: list[np.ndarray] = field(init=False, default_factory=list)
    # per column, the expanded OrganogenesisPlans: the decisions the
    # architecture rests on, with that column's ratios and shoot demands
    decisions: list[list] = field(init=False)
    # per column, the cycles whose ring partition dropped the Pressler term
    pressler_drops: list[list[int]] = field(init=False)
    arena: Arena = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.arena = Arena(self.columns)
        self.decisions = [[] for _ in range(self.columns)]
        self.pressler_drops = [[] for _ in range(self.columns)]

    def add_class(self, pa: int, birth_cycle: int, multiplicity: int) -> AxisClass:
        cls = AxisClass(self.arena, pa, birth_cycle, multiplicity)
        self.classes.append(cls)
        return cls

    # ------------------------------------------------------------------
    # foliage scans
    # ------------------------------------------------------------------

    def _live_totals(self, row: int) -> np.ndarray:
        """(columns, classes): per class, the per-instance total of the
        LEAF_AREA or LEAF_MASS ``row`` over the leaves alive at the current
        cycle: those of the units born then.  A cycle reads the blade area
        twice, so the arena keeps the last result until it next grows."""
        arena, key = self.arena, (self.cycle, row)
        if arena.live and arena.live[0] == key:
            return arena.live[1]
        # each live unit's metamer value × their count, added to its class
        totals = np.zeros((self.columns, len(self.classes)))
        live = (arena.units[BIRTH] == self.cycle).nonzero()[0]
        classes = arena.units[CLASS].take(live).astype(int)
        np.add.at(totals, (slice(None), classes), arena.unit_field(row).take(
            live, axis=1) * arena.units[SIZE].take(live))
        arena.live = (key, totals)
        return totals

    def _instance_total(self, per_class: np.ndarray) -> np.ndarray:
        """Per column, the sum over the classes of multiplicity × value,
        added in class order."""
        if not self.classes:
            return np.zeros(self.columns)
        mult = np.array([cls.multiplicity for cls in self.classes], float)
        return (mult * per_class).cumsum(axis=1)[:, -1]

    def total_blade_area_cm2(self) -> np.ndarray:
        """Per column, the blade area of the leaves alive at the current
        cycle."""
        return self._instance_total(self._live_totals(LEAF_AREA))

    def _subtree_totals(self, own: np.ndarray) -> np.ndarray:
        """(columns, classes) per-instance subtree sums of the per-class
        values ``own``, resolved bottom-up: children are always created
        after their parent class, so one reverse pass suffices.  Each class
        adds its laterals in creation order in one ``np.add.reduce`` (a
        segmented ``reduceat`` adds in another order), one column by row."""
        arena = self.arena
        totals = own.copy()
        b, add, child = arena.edge_bounds, np.add.reduce, arena.edges[CHILD]
        row = totals[0] if len(totals) == 1 else None
        for idx in range(own.shape[1] - 1, -1, -1):
            s, e = b[idx], b[idx + 1]
            if s < e and row is not None:
                row[idx] += add(row.take(child[s:e]))
            elif s < e:
                totals[:, idx] += add(totals.take(child[s:e], axis=1), axis=1)
        return totals

    def foliage_above(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-instance live foliage area at or above each metamer: its own
        leaf, every leaf distal on its axis, and the full subtrees of
        laterals borne at or above it, counting the leaves born at the
        current cycle.  Returns (class offsets, (columns, metamers) areas):
        the areas of class ``i`` are ``areas[:, bounds[i]:bounds[i + 1]]``,
        aligned with its arena segment.  Only the held metamers (those of a
        live unit, the bearers, each class's apex) enter the scan: any other
        adds an exact +0.0, which leaves a nonnegative sum's bits as they
        are."""
        arena = self.arena
        edges, sizes, bounds = arena.edges, arena.sizes, np.array(arena.bounds)
        if not bounds[-1]:
            return bounds, np.zeros((self.columns, 0))
        totals = self._subtree_totals(self._live_totals(LEAF_AREA))
        live = arena.units[BIRTH] == self.cycle
        bearer = bounds.take(edges[BEARER]) + edges[ROW]
        held = live.repeat(sizes)
        held[bearer] = True
        held[bounds[1:] - 1] = True
        held = held.nonzero()[0]
        # each held metamer's live leaf (by its unit), plus its lateral's
        seg = np.where(live, arena.unit_field(LEAF_AREA), 0.0).take(
            sizes.cumsum().searchsorted(held, "right"), axis=1)
        seg[:, held.searchsorted(bearer)] += totals.take(edges[CHILD], axis=1)
        # suffix sums: each class's held metamers apex first in one row of a
        # table padded at the base end, every column summed in one call
        first = held.searchsorted(bounds)
        counts = first[1:] - first[:-1]
        width = int(counts.max())
        cell = (first[1:] + np.arange(-1, counts.size * width - 1, width)
                ).repeat(counts) - np.arange(held.size)
        table = np.zeros((self.columns, counts.size * width))
        table[:, cell] = seg
        rows = table.reshape(self.columns, -1, width)
        rows.cumsum(axis=-1, out=rows)
        # each metamer takes the sum of the nearest held one at or above it
        return bounds, table.take(cell, axis=1).repeat(
            held - np.concatenate(([-1], held[:-1])), axis=1)

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
        return (bounds, s_a, sink.repeat(arena.sizes, axis=1),
                mult.repeat(bounds[1:] - bounds[:-1]))

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    def wood_totals(self) -> tuple[np.ndarray, np.ndarray]:
        """The (columns, classes) per-instance wood mass (internodes +
        rings) of each class's subtree, and each column's whole wood mass:
        both sums of one per-class sum."""
        arena = self.arena
        own = arena.segment_sums(arena.field(INTERNODE_MASS)
                                 + arena.field(CUM_RING))
        return self._subtree_totals(own), self._instance_total(own)

    def subtree_leaf_mass_totals(self) -> np.ndarray:
        """(columns, classes) live leaf mass of each class's subtree."""
        return self._subtree_totals(self._live_totals(LEAF_MASS))

    def total_leaf_mass_ever(self) -> np.ndarray:
        arena = self.arena
        return self._instance_total(arena.segment_sums(arena.field(LEAF_MASS)))

    def growth_units(self, idx: int) -> list[tuple]:
        """Class ``idx``'s growth units base to apex, read from the arena's
        unit table: (rank, birth cycle, first class-local metamer row,
        metamer count, zone layout or None, laterals), with the laterals it
        bears as (metamer rank, child class index), base to apex.  A branch
        unit born at cycle b has the layout that cycle's plan gave its PA;
        a trunk unit has none."""
        arena = self.arena
        s, e = arena.unit_bounds[idx:idx + 2]
        birth, size = arena.units[BIRTH:SIZE + 1, s:e].astype(int).tolist()
        start = [0, *accumulate(size)][:-1]
        borne: list[list] = [[] for _ in birth]
        s, e = arena.edge_bounds[idx:idx + 2]
        for row, child in sorted(zip(*arena.edges[ROW:, s:e].tolist())):
            u = bisect_right(start, row) - 1
            borne[u].append((row - start[u] + 1, child))
        pa, plans = self.classes[idx].pa, self.decisions[0]
        layouts = [None if pa == TRUNK_PA else plans[b - 1].gu_layouts[pa]
                   for b in birth]
        return list(zip(range(1, len(birth) + 1), birth, start, size,
                        layouts, borne))

    def topology_text(self) -> str:
        """The text of topology.json: what ``json.dumps`` gives for the
        architecture with ``indent=1, sort_keys=True``, and a newline.  One
        pass over :meth:`growth_units` fills one ``%``-template per class,
        growth unit and lateral, each with its keys in sorted order; a zone
        layout's text is made once per (PA, birth cycle)."""
        classes, zone_texts = self.classes, {None: "null"}
        axes = [(cls.pa, cls.birth_cycle) for cls in classes]
        out = []
        for cls in classes:
            units = []
            for rank, birth, _, count, layout, laterals in self.growth_units(
                    cls.index):
                key = None if layout is None else (cls.pa, birth)
                if key not in zone_texts:   # keys as strings sort: "10" < "2"
                    zone_texts[key] = _json_block([
                        f'      "{k}": {v}' for k, v in sorted(
                            (str(k), v) for k, v in layout)], "     ", "{}")
                units.append(_UNIT % (birth, _json_block([
                    _LATERAL % (*axes[child], row) for row, child in laterals],
                    "     "), count, rank, zone_texts[key]))
            out.append(_CLASS % (cls.birth_cycle, _json_block(units, "   "),
                                 cls.multiplicity, cls.pa))
        return _TREE % (_json_block(out, " "), self.cycle)

    @_collector_paused()
    def topology_dump(self) -> dict:
        """JSON-ready description of the factorized architecture: the parse
        of :meth:`topology_text`."""
        return json.loads(self.topology_text())

    @_collector_paused()
    def structure_signature(self) -> tuple:
        """Canonical, hashable summary of the discrete architecture: class
        keys, multiplicities, growth-unit zone layouts and lateral links.
        Two simulations with equal signatures produced bit-identical
        topologies."""
        return tuple((cls.pa, cls.birth_cycle, cls.multiplicity, tuple(
            (rank, birth, count,
             None if layout is None else tuple(sorted(layout)),
             tuple((row, self.classes[child].key, 1)
                   for row, child in laterals))
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


def metamer_diameters(wood_mass: np.ndarray, length: np.ndarray,
                      wood_density, out: np.ndarray | None = None
                      ) -> np.ndarray:
    """External diameters (cm) of metamers treated as cylinders holding
    their cumulative wood mass, shaped like ``wood_mass``; ``length`` and
    ``wood_density`` broadcast against it (one density per column, say).
    ``out`` may be ``wood_mass`` itself."""
    wood_mass = np.atleast_1d(np.asarray(wood_mass, dtype=float))
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
