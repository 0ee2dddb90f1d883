"""Count the lozenge tilings of a cored hexagon three independent ways.

The hexagon has side lengths a, b+m, c, a+m, b, c+m and an equilateral
triangle of side m removed from its center.  The package computes the
number of tilings by

  1. a transfer matrix over perfect matchings of unit triangles,
  2. an exact integer determinant coming from nonintersecting lattice
     paths, and
  3. a closed-form quotient of hyperfactorials,

and all three must agree exactly.
"""

from fractions import Fraction

from cored_hexagons import (
    CoredHexagon,
    build_cored_matrix,
    count_cored_formula,
    count_weighted,
    det_fraction_free,
    macmahon_box,
)

print(__doc__)

print("plain enumeration, core of even side")
print("-" * 60)
for a, b, c, m in [(1, 1, 1, 0), (3, 5, 1, 2), (2, 5, 1, 2), (3, 3, 3, 2)]:
    hexagon = CoredHexagon(a, b, c, m)
    eps = 0 if hexagon.placement == "centered" else Fraction(1, 2)
    oracle = count_weighted(hexagon, "one")
    det = det_fraction_free(build_cored_matrix(a, b, c, m, eps))
    formula = count_cored_formula(a, b, c, m)
    marker = "ok" if oracle == det == formula else "MISMATCH"
    print(f"C_{{{a},{b},{c}}}({m}):  brute={oracle}  det={det}  formula={formula}  [{marker}]")

print()
print("the (-1)-enumeration, core of odd side")
print("-" * 60)
print("Each tiling is weighted by (-1)^n where n counts the lozenge edges")
print("on the extension of the core side parallel to the sides a, a+m.")
for a, b, c, m in [(2, 2, 2, 1), (1, 2, 2, 1), (3, 2, 4, 1), (1, 1, 1, 1)]:
    hexagon = CoredHexagon(a, b, c, m)
    eps = 0 if hexagon.placement == "centered" else Fraction(1, 2)
    oracle = count_weighted(hexagon, "minus1")
    det = det_fraction_free(build_cored_matrix(a, b, c, m, eps))
    formula = count_cored_formula(a, b, c, m, signed=True)
    marker = "ok" if oracle == det == formula else "MISMATCH"
    print(f"C_{{{a},{b},{c}}}({m}):  brute={oracle}  det={det}  formula={formula}  [{marker}]")

print()
print("with no core the count collapses to the boxed plane partition formula")
print("-" * 60)
for a, b, c in [(2, 2, 2), (3, 5, 1), (6, 6, 6)]:
    print(f"L(C_{{{a},{b},{c}}}(0)) = {count_cored_formula(a, b, c, 0)}"
          f" = macmahon_box = {macmahon_box(a, b, c)}")
