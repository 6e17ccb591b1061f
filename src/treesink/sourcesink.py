"""Scalar numerics of production, demand and allocation.

All functions here are pure and unit-agnostic: production returns biomass in
the mass unit the environment factor carries, demands are sink sums, and the
allocation helpers just divide supplies proportionally to sinks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import AllocationError, SimulationError


@dataclass(frozen=True)
class CycleAllocation:
    """Per-cycle record of production and its two-compartment split."""

    cycle: int
    q: float        # production
    d: float        # solved global demand
    d_s: float      # shoot-compartment demand
    d_r: float      # ring-compartment demand
    q_s: float      # biomass to new shoots
    q_r: float      # biomass to rings
    ratio: float    # q / d
    s_blade: float  # blade area driving production, m²


def production(s_blade: float, v: float, sp0: float, alpha: float,
               k_beer: float = 1.0) -> float:
    """Biomass produced by a crown of total blade area ``s_blade`` (m²).

    The crown's projected surface scales allometrically with blade area,
    Sp = sp0·(S/sp0)^alpha, and light capture saturates following Beer's
    law, so the production is

        v · sp0 · (S/sp0)^alpha · (1 - exp(-k·(S/sp0)^(1-alpha))).

    The result carries the mass unit of ``v`` (per m² per cycle).
    """
    if s_blade < 0:
        raise SimulationError(f"blade area must be nonnegative: {s_blade}")
    if sp0 <= 0:
        raise SimulationError(f"sp0 must be positive: {sp0}")
    if s_blade == 0.0:
        return 0.0
    x = s_blade / sp0
    return v * sp0 * x ** alpha * (1.0 - math.exp(-k_beer * x ** (1.0 - alpha)))


def shoot_demand(bud_counts: dict[int, float], p_s) -> float:
    """Total demand of the planned shoots: sum over PAs of count × sink."""
    total = 0.0
    for pa, count in sorted(bud_counts.items()):
        if count < 0:
            raise SimulationError(f"negative bud count for PA {pa}")
        total += count * p_s[pa - 1]
    return total


def ring_demand(ratio: float, p_r: float, gamma: float) -> float:
    """Demand of the ring compartment: p_r · (Q/D)^gamma."""
    if ratio < 0:
        raise SimulationError(f"production/demand ratio must be >= 0: {ratio}")
    return p_r * ratio ** gamma


def solve_global_demand(d_s: float, p_r: float, gamma: float, q: float,
                        tol: float = 1e-12, max_iter: int = 100) -> float:
    """Solve D = d_s + p_r·(q/D)^gamma for the unique positive root.

    f(D) = D - d_s - p_r·q^gamma·D^-gamma is strictly increasing on (0, inf),
    so the Newton iteration from the upper starting point
    D0 = d_s + p_r·(q/max(d_s, eps))^gamma converges monotonically; if it
    fails to reach the residual tolerance it falls back to bisection on the
    bracket [d_s, D0], which always contains the root.
    """
    if d_s < 0 or p_r < 0:
        raise SimulationError("demands and sinks must be nonnegative")
    if q < 0:
        raise SimulationError("production must be nonnegative")
    if d_s == 0.0 and p_r == 0.0:
        raise SimulationError("global demand undefined: no sinks at all")
    if gamma == 0.0:
        return d_s + p_r
    if p_r == 0.0 or q == 0.0:
        return d_s
    if d_s == 0.0:
        # D^(1+gamma) = p_r·q^gamma has a closed form
        return (p_r * q ** gamma) ** (1.0 / (1.0 + gamma))

    c = p_r * q ** gamma

    def f(d):
        return d - d_s - c * d ** (-gamma)

    hi = d_s + p_r * (q / max(d_s, 1e-9)) ** gamma
    lo = d_s
    d = hi
    for _ in range(max_iter):
        res = f(d)
        if abs(res) < tol:
            return d
        deriv = 1.0 + gamma * c * d ** (-gamma - 1.0)
        step = res / deriv
        nxt = d - step
        if nxt <= 0.0:
            break
        d = nxt
    else:
        if abs(f(d)) < tol:
            return d

    # bisection fallback; f(lo) <= 0 <= f(hi) by construction
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def allocate_shoots(q_s: float, d_s: float, bud_counts: dict[int, float],
                    p_s) -> dict[int, float]:
    """Per-shoot biomass by PA: each shoot of PA k receives p_s(k)·q_s/d_s.

    The per-PA, per-instance masses sum (weighted by counts) to ``q_s``
    exactly.
    """
    if q_s > 0.0 and d_s <= 0.0:
        raise AllocationError(
            f"shoot supply {q_s:g} with zero shoot demand")
    if d_s <= 0.0:
        return {pa: 0.0 for pa in bud_counts}
    scale = q_s / d_s
    return {pa: p_s[pa - 1] * scale for pa in bud_counts}


def ring_coefficients(q_r: float, d_pool: float, d_pressler: float,
                      lambda_mix: float) -> tuple[float, float, bool]:
    """The ring partition's (pool, Pressler, dropped) coefficients: an
    instance of sink·length weight ``w`` and foliage above ``S_a`` receives
    (pool + Pressler·S_a)·w·q_r, where ``d_pool`` and ``d_pressler`` are
    the demands sum N·w and sum N·S_a·w.  Zero supply gives zero
    coefficients; with no foliage anywhere the Pressler term is dropped
    (``dropped``) and the pool takes the whole supply."""
    if q_r == 0.0:
        return 0.0, 0.0, False
    if d_pool == 0.0:
        raise AllocationError(f"ring supply {q_r:g} with no woody "
                              f"sink·length weight to receive it")
    dropped = lambda_mix > 0.0 and d_pressler == 0.0
    lam = 0.0 if dropped else lambda_mix
    return ((1.0 - lam) / d_pool, lam / d_pressler if lam > 0.0 else 0.0,
            dropped)


def partition_rings(q_r: float, cohorts, lambda_mix: float, p_rg):
    """Distribute the ring-compartment biomass over metamer cohorts.

    ``cohorts`` is an iterable of (multiplicity, pa, length, leaf_above)
    tuples; the return value is the per-instance ring increment for each, in
    input order, with the coefficients of :func:`ring_coefficients` over the
    demands

        d_pool     = sum  N·p_rg(pa)·l
        d_pressler = sum  N·S_a·p_rg(pa)·l

    which conserves q_r exactly.  When the tree carries no foliage at all the
    Pressler term is dropped for the cycle (pool-only partition) instead of
    failing; a warning is emitted because this cannot happen in a normal run.
    """
    rows = list(cohorts)
    if q_r < 0:
        raise SimulationError(f"ring supply must be >= 0: {q_r}")
    d_pool = 0.0
    d_pressler = 0.0
    for mult, pa, length, s_a in rows:
        w = p_rg[pa - 1] * length
        d_pool += mult * w
        d_pressler += mult * s_a * w

    pool, pressler, dropped = ring_coefficients(q_r, d_pool, d_pressler,
                                                lambda_mix)
    if dropped:
        warnings.warn("no foliage anywhere: Pressler term dropped for "
                      "this cycle", RuntimeWarning, stacklevel=2)
    out = []
    for _, pa, length, s_a in rows:
        w = p_rg[pa - 1] * length
        out.append((w * pool + s_a * w * pressler) * q_r)
    return out
