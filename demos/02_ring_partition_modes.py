"""The two ring-allocation modes and their mixing coefficient.

Ring biomass reaches each metamer through a blend of two rules: a uniform
pool (every metamer by its sink × length, wherever its leaves are) and a
foliage-weighted rule (proportional to the leaf surface above the metamer,
the classical pipe-model reading).  The blend coefficient can be anything
in [0, 1]; the bundled species sits near 0.13, i.e. mostly pool-like.

This demo builds one small tree and partitions the same ring budget under
several blends, showing how the increment profile along the trunk tilts
toward the leafy top as the foliage mode takes over.

Run from the repository root:  python demos/02_ring_partition_modes.py
"""

from treesink.core import TrunkScriptEntry
from treesink.sourcesink import partition_rings
from treesink.synthetic import (reference_parameters, reference_zone_rules,
                                script_only_dataset)
from treesink import engine

params = reference_parameters()
zones = reference_zone_rules()
script = (TrunkScriptEntry(1, 3), TrunkScriptEntry(2, 4, ((3, 1),)),
          TrunkScriptEntry(3, 4, ((2, 1),)), TrunkScriptEntry(4, 5),
          TrunkScriptEntry(5, 5, ((4, 1),)), TrunkScriptEntry(6, 5))
dataset = script_only_dataset(script)

state = engine.start_state([params], zones, dataset)
for _ in range(dataset.tree_age):
    engine.step(state, [params], zones, dataset, 0, dataset.tree_age)

# the trunk's metamers with their foliage-above, as (multiplicity, PA,
# length, leaf surface above) rows for the partition primitive; it returns
# the increments and whether it dropped the foliage (Pressler) term, which
# it does only when the foliage-weighted demand is zero
trunk = state.classes[0]
# its growth units, base to apex, from the tree's unit table: (rank, birth
# cycle, first metamer row, metamer count, zone layout, laterals)
base_gu, *_, top_gu = state.growth_units(trunk.index)
bounds, s_above = state.foliage_above()
s_above = s_above[0, bounds[0]:bounds[1]]   # the one parameter column
rows = [(1, trunk.pa, float(length), float(s_a))
        for length, s_a in zip(trunk.length[0], s_above)]

budget = 10.0
print(f"distributing {budget:g} g of ring biomass over "
      f"{len(rows)} trunk metamers\n")
print("blend    base-GU share   top-GU share")
for lam in (0.0, 0.13, 0.5, 1.0):
    incs, dropped = partition_rings(budget, rows, lam, params.p_rg)
    assert not dropped   # this tree carries foliage
    base = sum(incs[:base_gu[3]])
    top = sum(incs[top_gu[2]:])
    print(f"{lam:5.2f} {base / budget:14.1%} {top / budget:14.1%}")

print("\nwith the pure foliage rule every increment is proportional to the")
print("leaf surface above the metamer; the pool rule ignores position.")
incs_pool, _ = partition_rings(budget, rows, 0.0, params.p_rg)
incs_pipe, _ = partition_rings(budget, rows, 1.0, params.p_rg)
print("\nrank  length(cm)  foliage above(cm2)  pool(g)  foliage-rule(g)")
for i in (0, len(rows) // 2, len(rows) - 1):
    print(f"{i + 1:4d} {rows[i][2]:11.2f} {rows[i][3]:19.1f} "
          f"{incs_pool[i]:8.3f} {incs_pipe[i]:8.3f}")
