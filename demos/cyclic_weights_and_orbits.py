"""Cyclically symmetric tilings and their weighted enumerations.

A tiling of the equilateral cored hexagon C_a(m) is cyclically symmetric
when the 120-degree rotation about the core maps it to itself.  Weighting
each such tiling by w^n (n the ray statistic) for a sixth root of unity w,
or by (-1)^(n6) (n6 the orbit statistic of one fundamental domain), gives
counts with closed forms; at m = 0 these specialize to weighted counts of
cyclically symmetric plane partitions.
"""

from cored_hexagons import (
    CoredHexagon,
    Region,
    build_n6_matrix,
    count_weighted,
    det_fraction_free,
    enumerate_cyclic_tilings,
    rhs_case10,
    rhs_omega_det,
    statistic_n,
    statistic_n6,
    tiling_to_plane_partition,
)
from cored_hexagons.exactnum import cyclo_to_dict
from cored_hexagons.tilings import plane_partition_diagonal_count, plane_partition_size

print(__doc__)

a, m = 3, 2
region = Region(CoredHexagon(a, a, a, m))
tilings = list(enumerate_cyclic_tilings(region))
print(f"C_{a}({m}) has {len(tilings)} cyclically symmetric tilings; statistics:")
print("  n  values:", sorted(statistic_n(t, region) for t in tilings))
print("  n6 values:", sorted(statistic_n6(t, region) for t in tilings))

print()
print("weighted counts against their closed forms")
print("-" * 60)
for weight, case in [("one", "one"), ("minus1", "minus1"), ("omega3", "third"), ("omega6", "sixth")]:
    oracle = count_weighted(CoredHexagon(a, a, a, m), weight, cyclic=True)
    rhs = rhs_omega_det(a, m, case)
    shown = cyclo_to_dict(oracle) if case in ("third", "sixth") else oracle
    print(f"sum of {weight:7s} over cyclic tilings = {shown}   (closed form agrees: {oracle == rhs})")

print()
print("the orbit-signed count and its determinant")
print("-" * 60)
for a, m in [(2, 1), (3, 2), (4, 3)]:
    oracle = count_weighted(CoredHexagon(a, a, a, m), "minus1-n6")
    det = det_fraction_free(build_n6_matrix(a, m))
    rhs = rhs_case10(a, m)
    print(f"a={a}, m={m}:  sum (-1)^n6 = {oracle}  det = {det}  branch formula = {rhs}")

print()
print("at m = 0 the statistics become plane-partition quantities:")
print("n counts the cubes on the main diagonal, n6 the off-diagonal orbits")
print("-" * 60)
region = Region(CoredHexagon(3, 3, 3, 0))
for tiling in enumerate_cyclic_tilings(region):
    pp = tiling_to_plane_partition(tiling, region)
    m1 = plane_partition_diagonal_count(pp)
    m6 = (plane_partition_size(pp) - m1) // 3
    flat = "".join(str(v) for row in pp for v in row)
    print(f"heights {flat}:  n = {statistic_n(tiling, region)} = m1 = {m1},"
          f"  n6 = {statistic_n6(tiling, region)} = m6 = {m6}")
