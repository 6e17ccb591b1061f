"""Factorized tree architecture.

All axes of the same physiological age born at the same growth cycle develop
identically (same growth-unit layouts, same lateral assignments, same ring
increments), so the tree is stored as a collection of :class:`AxisClass`
objects carrying a multiplicity instead of one object per axis.  Leaves live
one cycle, so the live foliage of a class is its newest growth unit's.

The tree owns every per-metamer value in one :class:`Arena`: one column per
metamer, each class's metamers contiguous (base to apex, growth units in
rank order) and the classes in creation order, so the per-cycle ring
partition and foliage scans are whole-arena operations.  A class holds no
arrays, only its index into the arena's class offsets.

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

# rows of Arena.values (a column per metamer): the owning class index and
# the growth unit's birth cycle, then the per-instance values
CLASS, BIRTH, INTERNODE_MASS, LENGTH, LEAF_MASS, LEAF_AREA, CUM_RING = range(7)
# rows of Arena.edges (a column per lateral; ROW is class-local)
BEARER, ROW, CHILD, COUNT = range(4)


@dataclass
class GUInfo:
    """Bookkeeping for one growth unit inside an axis class."""

    rank: int                 # 1-based index along the axis
    birth_cycle: int
    start: int                # first metamer row of the unit in its class
    count: int
    zone_counts: dict[int, int] | None  # axillary PA -> metamer count
    leaf_area: float          # per-instance totals of the unit's leaves
    leaf_mass: float


@dataclass(frozen=True)
class MetamerCohort:
    """Read-only view of one metamer cohort (all identical instances across
    the tree)."""

    pa: int
    birth_cycle: int
    gu_rank: int
    rank: int                  # position along the bearing growth unit
    multiplicity: int
    internode_mass: float
    internode_length: float
    leaf_mass: float
    leaf_area: float
    ring_mass: float           # cumulative ring increments, per instance
    borne_axes: dict[int, int]  # axillary PA -> per-instance count


def _class_ordered(table: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``table`` with the columns ``new`` added, stably ordered by their
    first field (the class index): each class's columns stay contiguous and
    in insertion order."""
    order = np.argsort(np.concatenate((table[0], new[0])), kind="stable")
    out = np.empty((len(table), order.size), table.dtype)
    for field_row, old, added in zip(out, table, new):   # faster by rows
        np.concatenate((old, added)).take(order, out=field_row)
    return out


class Arena:
    """Every per-metamer value and every lateral of one tree.

    ``values`` has one column per metamer (rows CLASS..CUM_RING) and
    ``edges`` one per lateral (rows BEARER..COUNT), each grouped by class
    in class order, with the class offsets ``bounds`` and ``edge_bounds``
    (lists of ``n_classes + 1`` column indices).  Appends queue until the
    next read merges them in one pass.  The classes and their tree both
    hold the arena, which holds neither, so a finished tree is freed
    without waiting for the cycle collector.
    """

    __slots__ = ("values", "edges", "bounds", "edge_bounds", "queued_rows",
                 "queued_edges", "n_classes")

    def __init__(self):
        self.values = np.zeros((7, 0))
        self.edges = np.zeros((4, 0), dtype=np.int64)
        self.bounds = self.edge_bounds = [0]
        self.queued_rows: list[tuple] = []
        self.queued_edges: list[tuple] = []
        self.n_classes = 0

    def settle(self) -> None:
        """Merge the queued growth units and laterals: a fixed number of
        array operations, whatever the number of classes or appends."""
        n = self.n_classes
        if not (self.queued_rows or self.queued_edges
                or len(self.bounds) != n + 1):
            return
        if self.queued_rows:
            blocks = np.array(self.queued_rows).T   # the fields, then counts
            self.values = _class_ordered(self.values, np.repeat(
                blocks[:-1], blocks[-1].astype(np.intp), axis=1))
            self.queued_rows = []
        if self.queued_edges:
            self.edges = _class_ordered(self.edges,
                                        np.array(self.queued_edges).T)
            self.queued_edges = []
        self.bounds = np.searchsorted(self.values[CLASS],
                                      np.arange(n + 1)).tolist()
        self.edge_bounds = np.searchsorted(self.edges[BEARER],
                                           np.arange(n + 1)).tolist()

    def segment(self, idx: int) -> tuple[int, int]:
        """Value columns of class ``idx``."""
        self.settle()
        return self.bounds[idx], self.bounds[idx + 1]

    def segment_sums(self, per_metamer: np.ndarray) -> list[float]:
        """Per class, the sum of ``per_metamer`` (aligned with the settled
        arena) over its segment."""
        b = self.bounds
        return [float(per_metamer[s:e].sum()) for s, e in zip(b, b[1:])]


def _arena_field(row: int) -> property:
    """A class's read-only view of one arena field, base to apex."""
    def get(self: AxisClass) -> np.ndarray:
        s, e = self.arena.segment(self.index)
        view = self.arena.values[row, s:e]
        view.flags.writeable = False
        return view
    return property(get)


class AxisClass:
    """All axes sharing (physiological age, birth cycle), with multiplicity.

    It joins its tree's arena as the next class, ``index``; its metamers
    are that segment of the arena, and a metamer's birth cycle and rank
    follow from ``gus``.  ``bearing_rows`` holds the class-local rows that
    bear a lateral.
    """

    __slots__ = ("arena", "index", "pa", "birth_cycle", "multiplicity", "gus",
                 "bearing_rows")

    def __init__(self, arena: Arena, pa: int, birth_cycle: int,
                 multiplicity: int):
        self.arena = arena
        self.index = arena.n_classes
        arena.n_classes += 1
        self.pa = pa
        self.birth_cycle = birth_cycle
        self.multiplicity = multiplicity
        self.gus: list[GUInfo] = []
        self.bearing_rows: set[int] = set()

    internode_mass = _arena_field(INTERNODE_MASS)
    length = _arena_field(LENGTH)
    leaf_mass = _arena_field(LEAF_MASS)
    leaf_area = _arena_field(LEAF_AREA)
    cum_ring = _arena_field(CUM_RING)

    @property
    def key(self) -> tuple[int, int]:
        return (self.pa, self.birth_cycle)

    @property
    def n_metamers(self) -> int:
        return self.gus[-1].start + self.gus[-1].count if self.gus else 0

    def append_gu(self, birth_cycle: int, zone_layout: list[tuple[int, int]] | None,
                  metamer_count: int, internode_mass: float, length: float,
                  leaf_mass: float, leaf_area: float) -> GUInfo:
        """Add the next growth unit; per-metamer values are uniform within
        the shoot.  ``zone_layout`` lists (axillary PA, metamer count) blocks
        base to apex; None means an unzoned unit (trunk or short shoot).
        Its metamers enter the arena when it is next read."""
        if metamer_count < 1:
            raise SimulationError("growth units carry at least one metamer")
        if zone_layout is not None and \
                sum(c for _, c in zone_layout) != metamer_count:
            raise SimulationError("zone layout does not cover the growth unit")
        n = metamer_count
        gu = GUInfo(rank=len(self.gus) + 1, birth_cycle=birth_cycle,
                    start=self.n_metamers, count=n,
                    zone_counts=(None if zone_layout is None
                                 else dict(zone_layout)),
                    leaf_area=leaf_area * n, leaf_mass=leaf_mass * n)
        self.gus.append(gu)
        self.arena.queued_rows.append((self.index, birth_cycle, internode_mass,
                                       length, leaf_mass, leaf_area, 0.0, n))
        return gu

    def record_rings(self, increments: np.ndarray) -> None:
        """Add one cycle's per-instance ring increments to every metamer."""
        s, e = self.arena.segment(self.index)
        if increments.size != e - s:
            raise SimulationError(
                f"ring increment vector size {increments.size} != "
                f"{e - s} metamers")
        self.arena.values[CUM_RING, s:e] += increments

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

    def laterals_by_gu(self) -> list[list[tuple[int, int, int]]]:
        """Per growth unit, the laterals it bears as (metamer rank, child
        class index, per-instance count), base to apex."""
        out: list[list[tuple[int, int, int]]] = [[] for _ in self.gus]
        starts = [gu.start for gu in self.gus]
        arena = self.arena
        arena.settle()
        s, e = arena.edge_bounds[self.index], arena.edge_bounds[self.index + 1]
        for row, child, count in sorted(zip(*arena.edges[ROW:, s:e].tolist())):
            g = bisect_right(starts, row) - 1
            out[g].append((row - starts[g] + 1, child, count))
        return out

    def cohorts(self, tree: TreeState) -> list[MetamerCohort]:
        s, e = self.arena.segment(self.index)
        values = self.arena.values[INTERNODE_MASS:, s:e].T.tolist()
        out = []
        for gu, laterals in zip(self.gus, self.laterals_by_gu()):
            borne = {rank: {tree.classes[child].pa: count}
                     for rank, child, count in laterals}
            for rank in range(1, gu.count + 1):
                internode, length, leaf_mass, leaf_area, ring = \
                    values[gu.start + rank - 1]
                out.append(MetamerCohort(
                    pa=self.pa, birth_cycle=gu.birth_cycle,
                    gu_rank=gu.rank, rank=rank,
                    multiplicity=self.multiplicity,
                    internode_mass=internode, internode_length=length,
                    leaf_mass=leaf_mass, leaf_area=leaf_area,
                    ring_mass=ring, borne_axes=borne.get(rank, {})))
        return out


@dataclass
class TreeState:
    """Complete factorized state of one simulated tree; its classes share
    its arena."""

    cycle: int = 0
    classes: list[AxisClass] = field(default_factory=list)
    class_index: dict[tuple[int, int], int] = field(default_factory=dict)
    ratio_lagged: float = 0.0         # previous-cycle Q/D driving organogenesis
    pending_plan: object = None       # OrganogenesisPlan for cycle+1
    pending_fund: float = 0.0         # Q_s committed to the pending plan
    # (cycle, per-instance ring increments of every trunk metamer) per cycle
    trunk_rings: list[tuple[int, np.ndarray]] = field(default_factory=list)
    # the expanded OrganogenesisPlans: the decisions the architecture rests on
    decisions: list = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    arena: Arena = field(default_factory=Arena, init=False, repr=False,
                         compare=False)

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

    @property
    def trunk(self) -> AxisClass:
        return self.classes[0]

    def cohorts(self) -> list[MetamerCohort]:
        out = []
        for cls in self.classes:
            out.extend(cls.cohorts(self))
        return out

    # ------------------------------------------------------------------
    # foliage scans
    # ------------------------------------------------------------------

    def _live_totals(self, name: str, live_cycle: int | None) -> list[float]:
        """Per class, the per-instance ``leaf_area`` or ``leaf_mass`` of the
        leaves alive at ``live_cycle``: every leaf for None, else the
        newest growth unit's if it was born at ``live_cycle`` (which must
        be the current cycle, so that no growth unit is younger)."""
        if live_cycle is None:
            arena = self.arena
            arena.settle()
            return arena.segment_sums(
                arena.values[LEAF_AREA if name == "leaf_area" else LEAF_MASS])
        return [getattr(cls.gus[-1], name)
                if cls.gus and cls.gus[-1].birth_cycle == live_cycle else 0.0
                for cls in self.classes]

    def total_blade_area_cm2(self, live_cycle: int | None = None) -> float:
        if live_cycle is None:
            live_cycle = self.cycle
        areas = self._live_totals("leaf_area", live_cycle)
        return sum(cls.multiplicity * area
                   for cls, area in zip(self.classes, areas))

    def _subtree_totals(self, own: list[float]) -> np.ndarray:
        """Per-instance subtree sums of the per-class values ``own``,
        resolved bottom-up: children are always created after their parent
        class, so one reverse pass suffices.  Each class adds its laterals
        in creation order."""
        arena = self.arena
        arena.settle()
        totals = np.array(own)
        b = arena.edge_bounds
        child, count = arena.edges[CHILD], arena.edges[COUNT]
        for idx in range(len(own) - 1, -1, -1):
            s, e = b[idx], b[idx + 1]
            if s < e:
                totals[idx] = own[idx] + float(
                    (count[s:e] * totals[child[s:e]]).sum())
        return totals

    def foliage_above(self, live_cycle: int | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Per-instance foliage area at or above each metamer: its own leaf,
        every leaf distal on its axis, and the full subtrees of laterals
        borne at or above it.  Returns (class offsets, areas): the areas
        of class ``i`` are ``areas[bounds[i]:bounds[i + 1]]``, aligned with
        its arena segment.  ``live_cycle`` is None (every leaf) or the
        current cycle."""
        totals = self._subtree_totals(self._live_totals("leaf_area",
                                                        live_cycle))
        values, edges = self.arena.values, self.arena.edges
        bounds = np.array(self.arena.bounds)
        if live_cycle is None:
            seg = values[LEAF_AREA].copy()
        else:
            seg = np.where(values[BIRTH] == live_cycle, values[LEAF_AREA], 0.0)
        seg[bounds[edges[BEARER]] + edges[ROW]] += \
            edges[COUNT] * totals[edges[CHILD]]
        # suffix sums per class: each segment apex first in one row of a
        # table padded at the base end, summed sequentially along the rows
        sizes = bounds[1:] - bounds[:-1]
        n_classes, width = sizes.size, int(sizes.max(initial=0))
        cell = np.repeat(np.arange(n_classes) * width + bounds[1:] - 1,
                         sizes) - np.arange(seg.size)
        table = np.zeros(n_classes * width)
        table[cell] = seg
        suffix = np.cumsum(table.reshape(n_classes, width), axis=1)
        return bounds, suffix.ravel()[cell]

    def ring_partition_arrays(self, p_rg, live_cycle: int | None
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                         np.ndarray]:
        """Per-metamer arrays for the ring partition, over the whole arena:
        (class offsets, foliage at or above, ring sink × length weight,
        instance multiplicity)."""
        bounds, s_a = self.foliage_above(live_cycle)
        sizes = bounds[1:] - bounds[:-1]
        sink = np.array([p_rg[cls.pa - 1] for cls in self.classes], float)
        mult = np.array([cls.multiplicity for cls in self.classes], float)
        return (bounds, s_a,
                np.repeat(sink, sizes) * self.arena.values[LENGTH],
                np.repeat(mult, sizes))

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    def _own_wood(self) -> list[float]:
        """Per class, the per-instance wood mass (internodes + rings)."""
        arena = self.arena
        arena.settle()
        return arena.segment_sums(arena.values[INTERNODE_MASS]
                                  + arena.values[CUM_RING])

    def subtree_wood_totals(self) -> np.ndarray:
        """Per-instance wood mass (internodes + rings) of each class's
        subtree."""
        return self._subtree_totals(self._own_wood())

    def subtree_leaf_mass_totals(self, live_cycle: int | None = None
                                 ) -> np.ndarray:
        return self._subtree_totals(self._live_totals("leaf_mass", live_cycle))

    def total_wood_mass(self) -> float:
        return sum(cls.multiplicity * wood
                   for cls, wood in zip(self.classes, self._own_wood()))

    def total_leaf_mass_ever(self) -> float:
        return sum(cls.multiplicity * leaf for cls, leaf
                   in zip(self.classes, self._live_totals("leaf_mass", None)))

    def topology_dump(self) -> dict:
        """JSON-ready description of the factorized architecture."""
        classes = []
        for cls in self.classes:
            gus = []
            for gu, laterals in zip(cls.gus, cls.laterals_by_gu()):
                borne = [{"metamer_rank": rank,
                          "axillary_pa": self.classes[child].pa,
                          "axis_birth_cycle": self.classes[child].birth_cycle,
                          "per_instance_count": count}
                         for rank, child, count in laterals]
                gus.append({
                    "rank": gu.rank,
                    "birth_cycle": gu.birth_cycle,
                    "metamer_count": gu.count,
                    "zone_counts": ({str(k): v for k, v
                                     in sorted(gu.zone_counts.items())}
                                    if gu.zone_counts else None),
                    "borne_axes": borne,
                })
            classes.append({
                "pa": cls.pa,
                "birth_cycle": cls.birth_cycle,
                "multiplicity": cls.multiplicity,
                "growth_units": gus,
            })
        return {"cycle": self.cycle, "axis_classes": classes}

    def structure_signature(self) -> tuple:
        """Canonical, hashable summary of the discrete architecture: class
        keys, multiplicities, growth-unit zone layouts and lateral links.
        Two simulations with equal signatures produced bit-identical
        topologies."""
        sig = []
        for cls in self.classes:
            gus = []
            for gu, laterals in zip(cls.gus, cls.laterals_by_gu()):
                borne = tuple((rank, self.classes[child].key, count)
                              for rank, child, count in laterals)
                zones = (tuple(sorted(gu.zone_counts.items()))
                         if gu.zone_counts else None)
                gus.append((gu.rank, gu.birth_cycle, gu.count, zones, borne))
            sig.append((cls.pa, cls.birth_cycle, cls.multiplicity, tuple(gus)))
        return tuple(sig)


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
                      wood_density: float) -> np.ndarray:
    """Vectorized :func:`metamer_diameter`."""
    wood_mass = np.asarray(wood_mass, dtype=float)
    length = np.asarray(length, dtype=float)
    if np.any((wood_mass > 0.0) & (length <= 0.0)):
        raise SimulationError("metamer with wood mass but zero length")
    out = np.zeros_like(wood_mass)
    ok = wood_mass > 0.0
    out[ok] = np.sqrt(4.0 * wood_mass[ok]
                      / (wood_density * np.pi * length[ok]))
    return out
