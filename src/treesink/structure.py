"""Factorized tree architecture.

All axes of the same physiological age born at the same growth cycle develop
identically (same growth-unit layouts, same lateral assignments, same ring
increments), so the tree is stored as a collection of :class:`AxisClass`
objects carrying a multiplicity instead of one object per axis.  Each class
keeps flat per-metamer arrays (base to apex, growth units in rank order) so
the per-cycle ring partition and foliage scans are vectorized.  Leaves live
one cycle, so the live foliage of a class is its newest growth unit's.

A metamer can bear at most one lateral axis, created the cycle after the
metamer's own expansion (or together with it for trunk-scripted branches);
the link is stored as an index into the tree's class list plus a
per-instance count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import GrowthParameters, SimulationError


@dataclass
class GUInfo:
    """Bookkeeping for one growth unit inside an axis class."""

    rank: int                 # 1-based index along the axis
    birth_cycle: int
    start: int                # first metamer index in the class arrays
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


class AxisClass:
    """All axes sharing (physiological age, birth cycle), with multiplicity.

    Only what varies per metamer is stored per metamer: five float arrays,
    base to apex.  A metamer's birth cycle and rank follow from ``gus``.
    The laterals are three link arrays in creation order (bearing metamer
    row, child class index, per-instance count); the subtree sums add them
    in that order.
    """

    __slots__ = ("pa", "birth_cycle", "multiplicity", "gus",
                 "internode_mass", "length", "leaf_mass", "leaf_area",
                 "cum_ring", "child_rows", "child_idx", "child_count")

    def __init__(self, pa: int, birth_cycle: int, multiplicity: int):
        self.pa = pa
        self.birth_cycle = birth_cycle
        self.multiplicity = multiplicity
        self.gus: list[GUInfo] = []
        self.internode_mass = np.zeros(0)
        self.length = np.zeros(0)
        self.leaf_mass = np.zeros(0)
        self.leaf_area = np.zeros(0)
        self.cum_ring = np.zeros(0)
        self.child_rows = np.zeros(0, dtype=np.int64)
        self.child_idx = np.zeros(0, dtype=np.int64)
        self.child_count = np.zeros(0, dtype=np.int64)

    @property
    def key(self) -> tuple[int, int]:
        return (self.pa, self.birth_cycle)

    @property
    def n_metamers(self) -> int:
        return self.cum_ring.size

    def append_gu(self, birth_cycle: int, zone_layout: list[tuple[int, int]] | None,
                  metamer_count: int, internode_mass: float, length: float,
                  leaf_mass: float, leaf_area: float) -> GUInfo:
        """Add the next growth unit; per-metamer values are uniform within
        the shoot.  ``zone_layout`` lists (axillary PA, metamer count) blocks
        base to apex; None means an unzoned unit (trunk or short shoot)."""
        if metamer_count < 1:
            raise SimulationError("growth units carry at least one metamer")
        if zone_layout is not None and \
                sum(c for _, c in zone_layout) != metamer_count:
            raise SimulationError("zone layout does not cover the growth unit")
        n = metamer_count
        gu = GUInfo(rank=len(self.gus) + 1, birth_cycle=birth_cycle,
                    start=self.n_metamers, count=n,
                    zone_counts=(None if zone_layout is None
                                 else {k: c for k, c in zone_layout}),
                    leaf_area=leaf_area * n, leaf_mass=leaf_mass * n)
        self.gus.append(gu)
        self.internode_mass = np.concatenate(
            (self.internode_mass, np.full(n, internode_mass)))
        self.length = np.concatenate((self.length, np.full(n, length)))
        self.leaf_mass = np.concatenate((self.leaf_mass, np.full(n, leaf_mass)))
        self.leaf_area = np.concatenate((self.leaf_area, np.full(n, leaf_area)))
        self.cum_ring = np.concatenate((self.cum_ring, np.zeros(n)))
        return gu

    def record_rings(self, increments: np.ndarray) -> None:
        """Add one cycle's per-instance ring increments to every metamer."""
        if increments.size != self.n_metamers:
            raise SimulationError(
                f"ring increment vector size {increments.size} != "
                f"{self.n_metamers} metamers")
        self.cum_ring += increments

    def set_child(self, flat_idx: int, child_class_idx: int,
                  per_instance_count: int) -> None:
        """Record a lateral borne by one metamer (at most one, ever)."""
        if not 0 <= flat_idx < self.n_metamers:
            raise SimulationError(f"no metamer row {flat_idx} in the class")
        if flat_idx in self.child_rows.tolist():   # faster than ndarray ==
            raise SimulationError("metamer already bears a lateral")
        self.child_rows = np.concatenate((self.child_rows, [flat_idx]))
        self.child_idx = np.concatenate((self.child_idx, [child_class_idx]))
        self.child_count = np.concatenate((self.child_count,
                                           [per_instance_count]))

    def laterals_by_gu(self) -> list[list[tuple[int, int, int]]]:
        """Per growth unit, the laterals it bears as (metamer rank, child
        class index, per-instance count), base to apex."""
        out: list[list[tuple[int, int, int]]] = [[] for _ in self.gus]
        if not self.child_rows.size:
            return out
        order = np.argsort(self.child_rows)
        rows = self.child_rows[order]
        gu_of = np.searchsorted([gu.start for gu in self.gus], rows,
                                side="right") - 1
        for row, g, child, count in zip(rows.tolist(), gu_of.tolist(),
                                        self.child_idx[order].tolist(),
                                        self.child_count[order].tolist()):
            out[g].append((row - self.gus[g].start + 1, child, count))
        return out

    def live_slice_start(self, live_cycle: int | None) -> int:
        """First index of the metamers whose leaves are alive at
        ``live_cycle``: every metamer for None, else the newest growth
        unit's if it was born at ``live_cycle``, else none.  ``live_cycle``
        must be None or the state's current cycle, so that no growth unit
        is younger than it and the live leaves are a tail slice."""
        if live_cycle is None:
            return 0
        if self.gus and self.gus[-1].birth_cycle == live_cycle:
            return self.gus[-1].start
        return self.n_metamers

    def cohorts(self, tree: "TreeState") -> list[MetamerCohort]:
        out = []
        for gu, laterals in zip(self.gus, self.laterals_by_gu()):
            borne = {rank: {tree.classes[child].pa: count}
                     for rank, child, count in laterals}
            for rank in range(1, gu.count + 1):
                j = gu.start + rank - 1
                out.append(MetamerCohort(
                    pa=self.pa, birth_cycle=gu.birth_cycle,
                    gu_rank=gu.rank, rank=rank,
                    multiplicity=self.multiplicity,
                    internode_mass=float(self.internode_mass[j]),
                    internode_length=float(self.length[j]),
                    leaf_mass=float(self.leaf_mass[j]),
                    leaf_area=float(self.leaf_area[j]),
                    ring_mass=float(self.cum_ring[j]),
                    borne_axes=borne.get(rank, {})))
        return out


@dataclass
class TreeState:
    """Complete factorized state of one simulated tree."""

    cycle: int = 0
    classes: list[AxisClass] = field(default_factory=list)
    class_index: dict[tuple[int, int], int] = field(default_factory=dict)
    ratio_lagged: float = 0.0         # previous-cycle Q/D driving organogenesis
    pending_plan: object = None       # OrganogenesisPlan for cycle+1
    pending_fund: float = 0.0         # Q_s committed to the pending plan
    # (cycle, per-instance ring increments of every trunk metamer) per cycle
    trunk_rings: list[tuple[int, np.ndarray]] = field(default_factory=list)
    # per expanded plan: (ratio used, PAs grown with a layout, the
    # plan's zone_groups), the rounding decisions the architecture rests on
    decisions: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_class(self, pa: int, birth_cycle: int, multiplicity: int) -> AxisClass:
        key = (pa, birth_cycle)
        if key in self.class_index:
            raise SimulationError(f"axis class {key} already exists")
        cls = AxisClass(pa, birth_cycle, multiplicity)
        self.class_index[key] = len(self.classes)
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

    def _live_sum(self, cls: AxisClass, field_name: str,
                  live_cycle: int | None) -> float:
        """Per-instance ``leaf_area`` or ``leaf_mass`` of the leaves alive
        at ``live_cycle`` (None or the current cycle, as in
        :meth:`AxisClass.live_slice_start`)."""
        if live_cycle is None:
            return float(getattr(cls, field_name).sum())
        if cls.gus and cls.gus[-1].birth_cycle == live_cycle:
            return getattr(cls.gus[-1], field_name)
        return 0.0

    def total_blade_area_cm2(self, live_cycle: int | None = None) -> float:
        if live_cycle is None:
            live_cycle = self.cycle
        return sum(cls.multiplicity
                   * self._live_sum(cls, "leaf_area", live_cycle)
                   for cls in self.classes)

    def _subtree_totals(self, own_fn) -> np.ndarray:
        """Resolve per-instance subtree sums bottom-up; children are always
        created after their parent class, so one reverse pass suffices."""
        totals = np.zeros(len(self.classes))
        for idx in range(len(self.classes) - 1, -1, -1):
            cls = self.classes[idx]
            own = own_fn(cls)
            if cls.child_rows.size:
                own += float((cls.child_count * totals[cls.child_idx]).sum())
            totals[idx] = own
        return totals

    def subtree_leaf_totals(self, live_cycle: int | None = None) -> np.ndarray:
        """Per-instance live-leaf area of the full subtree rooted at each
        axis class (its own leaves plus all borne sub-axes, recursively).
        ``live_cycle=None`` counts every leaf regardless of age; otherwise
        it must be the current cycle."""
        return self._subtree_totals(
            lambda cls: self._live_sum(cls, "leaf_area", live_cycle))

    def foliage_above(self, live_cycle: int | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Per-instance foliage area at or above each metamer: its own leaf,
        every leaf distal on its axis, and the full subtrees of laterals
        borne at or above it.  Returns (segment bounds, areas): the areas
        of class ``i`` are ``areas[bounds[i]:bounds[i + 1]]``, aligned with
        its flat metamer arrays.  ``live_cycle`` is None (every leaf) or the
        current cycle."""
        totals = self.subtree_leaf_totals(live_cycle)
        sizes = np.array([cls.n_metamers for cls in self.classes],
                         dtype=np.int64)
        bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        s_a = np.zeros(int(bounds[-1]))
        for i, cls in enumerate(self.classes):
            s, e = int(bounds[i]), int(bounds[i + 1])
            seg = s_a[s:e]
            ls = cls.live_slice_start(live_cycle)
            seg[ls:] = cls.leaf_area[ls:]
            if cls.child_rows.size:
                seg[cls.child_rows] += cls.child_count * totals[cls.child_idx]
            # arrays run base to apex: suffix sum = leaves at or above
            s_a[s:e] = np.cumsum(seg[::-1])[::-1]
        return bounds, s_a

    def ring_partition_arrays(self, p_rg, live_cycle: int | None
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                         np.ndarray]:
        """Fused per-metamer arrays for the ring partition, concatenated over
        all classes in order: (segment bounds, foliage at or above, ring
        sink × length weight, instance multiplicity)."""
        bounds, s_a = self.foliage_above(live_cycle)
        weight = np.empty(s_a.size)
        mult = np.empty(s_a.size)
        for i, cls in enumerate(self.classes):
            s, e = int(bounds[i]), int(bounds[i + 1])
            weight[s:e] = p_rg[cls.pa - 1] * cls.length
            mult[s:e] = cls.multiplicity
        return bounds, s_a, weight, mult

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    def subtree_wood_totals(self) -> np.ndarray:
        """Per-instance wood mass (internodes + rings) of each class's
        subtree."""
        return self._subtree_totals(
            lambda cls: float((cls.internode_mass + cls.cum_ring).sum()))

    def subtree_leaf_mass_totals(self, live_cycle: int | None = None
                                 ) -> np.ndarray:
        return self._subtree_totals(
            lambda cls: self._live_sum(cls, "leaf_mass", live_cycle))

    def total_wood_mass(self) -> float:
        return sum(cls.multiplicity * float((cls.internode_mass
                                             + cls.cum_ring).sum())
                   for cls in self.classes)

    def total_leaf_mass_ever(self) -> float:
        return sum(cls.multiplicity * float(cls.leaf_mass.sum())
                   for cls in self.classes)

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
