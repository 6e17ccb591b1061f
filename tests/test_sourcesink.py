import math
import warnings

import numpy as np
import pytest

from treesink.core import AllocationError, SimulationError
from treesink.sourcesink import (allocate_shoots, partition_rings, production,
                                 ring_coefficients, ring_demand, shoot_demand,
                                 solve_global_demand)
from treesink.structure import expand_shoot_values

# frozen by an independent bisection run (300 halvings) before the solver
# was wired in: d_s=9.25, p_r=2.3, gamma=2.95, q=3.0
BISECTION_REFERENCE = 9.33090228631244


def bisection_oracle(d_s, p_r, gamma, q, iters=200):
    def f(d):
        return d - d_s - p_r * (q / d) ** gamma
    lo = d_s
    hi = d_s + p_r * (q / max(d_s, 1e-9)) ** gamma
    if f(hi) < 0:
        hi = hi * 2 + 1
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestProduction:
    def test_zero_foliage(self):
        assert production(0.0, 0.1, 0.015, 0.73) == 0.0

    def test_characteristic_surface_point(self):
        # S = sp0 collapses the formula to v·sp0·(1 - 1/e)
        expected = 0.1 * 0.015 * (1.0 - math.exp(-1.0))
        assert production(0.015, 0.1, 0.015, 0.73) == pytest.approx(
            expected, rel=1e-12)
        assert expected == pytest.approx(9.4818e-4, rel=1e-4)

    def test_alpha_one_collapses_to_linear_light_capture(self):
        for s in (0.001, 0.015, 2.0, 40.0):
            assert production(s, 0.3, 0.015, 1.0) == pytest.approx(
                0.3 * s * (1.0 - math.exp(-1.0)), rel=1e-12)

    def test_strictly_increasing_in_blade_area(self):
        grid = np.linspace(0.0, 5.0, 200)
        values = [production(s, 0.7, 0.015, 0.73) for s in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_negative_area_rejected(self):
        with pytest.raises(SimulationError):
            production(-1.0, 0.1, 0.015, 0.73)

    def test_extinction_coefficient(self):
        # S = sp0 with extinction k: v·sp0·(1 - e^-k)
        for k in (0.5, 1.0, 2.0):
            assert production(0.015, 0.1, 0.015, 0.73, k_beer=k) == \
                pytest.approx(0.1 * 0.015 * (1 - math.exp(-k)), rel=1e-12)


class TestShootDemand:
    def test_empty(self):
        assert shoot_demand({}, (5.25, 5.25, 5.25, 1.0)) == 0.0
        assert shoot_demand({2: 0.0, 4: 0.0}, (5.25, 5.25, 5.25, 1.0)) == 0.0

    def test_hand_sum(self):
        d = shoot_demand({2: 1, 4: 4}, (5.25, 5.25, 5.25, 1.0))
        assert d == pytest.approx(9.25)

    def test_linearity(self):
        p_s = (5.25, 5.25, 5.25, 1.0)
        base = shoot_demand({2: 3, 3: 2, 4: 7}, p_s)
        doubled = shoot_demand({2: 6, 3: 4, 4: 14}, p_s)
        assert doubled == pytest.approx(2 * base, rel=1e-12)


class TestGlobalDemand:
    def test_gamma_zero(self):
        assert solve_global_demand(4.0, 2.5, 0.0, 10.0) == pytest.approx(6.5)

    def test_no_ring_sink(self):
        assert solve_global_demand(4.0, 0.0, 2.0, 10.0) == 4.0

    def test_frozen_bisection_point(self):
        d = solve_global_demand(9.25, 2.3, 2.95, 3.0)
        assert d == pytest.approx(BISECTION_REFERENCE, abs=1e-10)

    def test_residual_tolerance(self):
        d = solve_global_demand(9.25, 2.3, 2.95, 3.0)
        assert abs(d - 9.25 - 2.3 * (3.0 / d) ** 2.95) < 1e-12

    def test_matches_bisection_on_grid(self):
        rng = np.random.default_rng(42)
        count = 0
        for d_s in (0.1, 1.0, 9.25, 40.0, 100.0):
            for p_r in (0.1, 1.0, 2.3, 10.0):
                for gamma in (0.0, 0.5, 1.0, 2.95, 4.0):
                    for q in (0.01, 0.5, 3.0, 20.0, 100.0):
                        d = solve_global_demand(d_s, p_r, gamma, q)
                        ref = bisection_oracle(d_s, p_r, gamma, q)
                        assert abs(d - ref) < 1e-10, (d_s, p_r, gamma, q)
                        count += 1
        assert count == 500

    def test_zero_area_sink_edge(self):
        assert solve_global_demand(0.0, 2.0, 1.0, 4.0) == pytest.approx(
            math.sqrt(8.0))

    def test_monotone_in_production_and_shoot_demand(self):
        qs = np.linspace(0.1, 50.0, 40)
        ds = [solve_global_demand(5.0, 2.3, 2.95, q) for q in qs]
        assert all(b >= a for a, b in zip(ds, ds[1:]))
        d_grid = np.linspace(0.5, 50.0, 40)
        dd = [solve_global_demand(x, 2.3, 2.95, 3.0) for x in d_grid]
        assert all(b >= a for a, b in zip(dd, dd[1:]))

    def test_no_sinks_rejected(self):
        with pytest.raises(SimulationError):
            solve_global_demand(0.0, 0.0, 1.0, 5.0)


class TestRingDemand:
    def test_unit_ratio(self):
        assert ring_demand(1.0, 2.3, 2.95) == pytest.approx(2.3)

    def test_power_law_point(self):
        assert ring_demand(2.0, 2.3, 2.95) == pytest.approx(17.773228,
                                                            rel=1e-6)

    def test_gamma_zero_flat(self):
        for ratio in (0.1, 1.0, 7.3):
            assert ring_demand(ratio, 2.3, 0.0) == pytest.approx(2.3)

    def test_consistent_with_solver(self):
        d = solve_global_demand(9.25, 2.3, 2.95, 3.0)
        assert ring_demand(3.0 / d, 2.3, 2.95) == pytest.approx(d - 9.25,
                                                                abs=1e-10)


class TestAllocateShoots:
    P_S = (5.25, 5.25, 5.25, 1.0)

    def test_single_bud_takes_everything(self):
        for pa in (1, 2, 3, 4):
            masses = allocate_shoots(7.5, self.P_S[pa - 1], {pa: 1}, self.P_S)
            assert masses[pa] == pytest.approx(7.5)

    def test_hand_allocation(self):
        masses = allocate_shoots(9.25, 9.25, {2: 1, 4: 4}, self.P_S)
        assert masses[2] == pytest.approx(5.25)
        assert masses[4] == pytest.approx(1.0)

    def test_total_conserved(self):
        buds = {1: 1, 2: 3, 3: 5, 4: 20}
        d_s = shoot_demand(buds, self.P_S)
        masses = allocate_shoots(13.7, d_s, buds, self.P_S)
        total = sum(masses[pa] * n for pa, n in buds.items())
        assert total == pytest.approx(13.7, rel=1e-12)

    def test_zero_demand_with_supply_is_error(self):
        with pytest.raises(AllocationError):
            allocate_shoots(1.0, 0.0, {}, self.P_S)

    def test_long_shoot_split(self, params):
        # a 1.7 g long shoot (ratio 0.7) puts 0.7 g into the internode,
        # 1.0 g into leaf
        internode, _, leaf, _ = expand_shoot_values(params, 2, 1.7, 1, 1)
        assert internode == pytest.approx(0.7)
        assert leaf == pytest.approx(1.0)

    def test_short_shoot_split(self, params):
        # PA 4 is the short-shoot class (ratio 0.065)
        internode, _, leaf, _ = expand_shoot_values(params, 4, 1.065, 1, 1)
        assert leaf == pytest.approx(1.0)
        assert internode == pytest.approx(0.065)


class TestPartitionRings:
    P_RG = (1.0, 0.1, 0.05, 0.01)

    def test_pool_mode_splits_by_weight(self):
        # two cohorts with sink·length·count weights 1 and 3
        rows = [(1, 1, 1.0, 5.0), (3, 1, 1.0, 2.0)]
        incs, dropped = partition_rings(4.0, rows, 0.0, self.P_RG)
        assert not dropped
        assert incs[0] == pytest.approx(incs[1], rel=1e-12)
        assert incs[0] == pytest.approx(1.0)
        total = sum(m * i for (m, _, _, _), i in zip(rows, incs))
        assert total == pytest.approx(4.0, rel=1e-12)

    def test_pressler_mode_proportional_to_foliage(self):
        rows = [(1, 1, 2.0, 6.0), (1, 1, 2.0, 2.0)]
        incs, dropped = partition_rings(1.0, rows, 1.0, self.P_RG)
        assert not dropped
        assert incs[0] / incs[1] == pytest.approx(3.0, rel=1e-12)

    def test_zero_supply(self):
        rows = [(1, 1, 1.0, 1.0), (2, 2, 3.0, 0.5)]
        assert partition_rings(0.0, rows, 0.5, self.P_RG) == \
            ([0.0, 0.0], False)

    def test_mixed_mode_conserves(self):
        rng = np.random.default_rng(3)
        rows = [(int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                 float(rng.uniform(0.1, 4.0)), float(rng.uniform(0.0, 9.0)))
                for _ in range(30)]
        for lam in (0.0, 0.13, 0.5, 1.0):
            incs, _ = partition_rings(11.0, rows, lam, self.P_RG)
            total = sum(m * i for (m, _, _, _), i in zip(rows, incs))
            assert total == pytest.approx(11.0, rel=1e-9)

    def test_leafless_cycle_drops_pressler_with_warning(self):
        # the drop is returned, not warned: no warning is raised even
        # when every warning is an error
        rows = [(1, 1, 1.0, 0.0), (1, 1, 3.0, 0.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            incs, dropped = partition_rings(2.0, rows, 0.8, self.P_RG)
        assert dropped
        assert sum(incs) == pytest.approx(2.0)
        assert incs[1] == pytest.approx(3 * incs[0], rel=1e-12)

    def test_no_structure_with_supply_is_error(self):
        with pytest.raises(AllocationError):
            partition_rings(2.0, [], 0.0, self.P_RG)

    def test_coefficients(self):
        # (q_r, d_pool, d_pressler, lambda) -> (pool, Pressler, dropped):
        # a Pressler term is dropped only when it would have received supply
        assert ring_coefficients(2.0, 4.0, 8.0, 0.5) == (0.125, 0.0625, False)
        assert ring_coefficients(2.0, 4.0, 0.0, 0.8) == (0.25, 0.0, True)
        assert ring_coefficients(2.0, 4.0, 0.0, 0.0) == (0.25, 0.0, False)
        assert ring_coefficients(0.0, 0.0, 0.0, 0.8) == (0.0, 0.0, False)
        with pytest.raises(AllocationError):
            ring_coefficients(2.0, 0.0, 0.0, 0.8)
