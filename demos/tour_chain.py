"""The degeneration engine: limit line bundles on a chain of elliptic
curves.

A degree-4 line bundle with 3 sections on a genus-3 curve degenerates,
on the chain E^1 u E^2 u E^3, to a tuple of "aspects" related by chip
firing.  This tour replays that specimen end to end and then runs the
branch-and-bound searches behind the (non)existence theorem at desk
scale.
"""

from bnkit import (
    chip_fire,
    count_grd,
    h0_chain,
    is_r_positive,
    min_h0,
    prefix_fire,
    restrict,
    rho,
    search_limit_bundles,
    star_components,
    vanishing_tables,
)
from bnkit.chain import aspects_str, parse_aspects

L = parse_aspects("0,4;2,2;0,4")
print("The specimen: aspects O(4p^1), O(2p^1 + 2p^2), O(4p^2) on a 3-chain,")
print(f"serialized as {aspects_str(L)!r} (ends read free point first).")
print()

print("Chip firing moves degree between adjacent components:")
dist = (4, 0, 0)
print(f"  start {dist}")
for i in (1, 1, 2):
    dist = prefix_fire(dist, i)
    print(f"  fire across node {i} -> {dist}")
print(f"  chip_fire of the middle vertex of (3,1,0): {chip_fire((3, 1, 0), 2)}")
print()

print("Each degree distribution determines one limit; its components are the")
print("aspects twisted down at the nodes:")
for comp in restrict(L, (3, 0, 1)):
    print(f"  base {comp.base}, twists ({comp.left_twist}, {comp.right_twist}), "
          f"degree {comp.degree}, h0 {comp.h0()}")
print()

print("Exact section counts by the gluing sweep:")
for dist in [(4, 0, 0), (3, 0, 1), (1, 2, 1), (0, 4, 0), (2, 1, 1)]:
    print(f"  h0 at {dist}: {h0_chain(L, dist)}")
print(f"  minimum over the windowed distribution space: {min_h0(L)}")
print(f"  2-positive: {is_r_positive(L, 2).is_r_positive}, "
      f"3-positive: {is_r_positive(L, 3).is_r_positive}")
print()

t = vanishing_tables(L, 2)
print("Vanishing tables (thresholds at each node guaranteeing section counts):")
for i, row in enumerate(t.a_rows):
    print(f"  a({i}, .) = {row}")
stars = star_components(L, 2)
print(f"Star pairs (components whose aspect is forced): {stars.pairs}")
print()

print("Branch-and-bound searches over symbolic aspect tuples:")
for g, r, d in [(2, 1, 1), (3, 2, 4), (4, 1, 3)]:
    res = search_limit_bundles(g, r, d)
    line = (f"  (g, r, d) = ({g}, {r}, {d}): rho = {rho(g, r, d)}, "
            f"exact tuples {res.count_exact}, with generic {res.count_with_generic}")
    if rho(g, r, d) == 0:
        line += f"  [N(g, r, d) = {count_grd(g, r, d)}]"
    print(line)
print()
print("rho < 0 finds nothing (nonexistence); at rho = 0 the isolated exact")
print("tuples match the tableaux count exactly.")
