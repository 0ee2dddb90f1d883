"""The determinant det(wI + B) for all sixth roots of unity w.

B = B(a, m) is the binomial matrix with entries binom(m+i+j, j).  For
w = 1 the determinant counts cyclically symmetric lozenge tilings of the
cored hexagon with all sides equal; the other roots give weighted counts.
Each evaluation has a closed product form, verified here against the exact
fraction-free determinant over the corresponding cyclotomic ring.
"""

from cored_hexagons import (
    build_B,
    build_omega_shift,
    det_fraction_free,
    omega3,
    omega6,
    rhs_omega_det,
)
from cored_hexagons.exactnum import cyclo_to_dict
from cored_hexagons.lgv import matrix_mul, plus_scaled

print(__doc__)

a, m = 4, 3
cases = [
    ("w = 1", 1, "one"),
    ("w = -1", -1, "minus1"),
    ("w primitive 3rd root", omega3(), "third"),
    ("w primitive 6th root", omega6(), "sixth"),
]
print(f"size a = {a}, parameter m = {m}")
print("-" * 60)
for label, omega, case in cases:
    det = det_fraction_free(build_omega_shift(a, m, omega))
    rhs = rhs_omega_det(a, m, case)
    shown = cyclo_to_dict(det) if case in ("third", "sixth") else det
    print(f"{label:24s} det = {shown}")
    print(f"{'':24s} closed form agrees: {det == rhs}")

print()
print("block factorizations over the cyclotomic rings")
print("-" * 60)
print("det(I + B^3)  = det(I + B)  * |det(wI + B)|^2   (w a 3rd root)")
print("det(-I + B^3) = det(-I + B) * |det(wI + B)|^2   (w a 6th root)")
for a, m in [(3, 2), (5, 4), (6, 8)]:
    B = build_B(a, m)
    B3 = matrix_mul(matrix_mul(B, B), B)
    plus = det_fraction_free(plus_scaled(B3, 1))
    plus_rhs = det_fraction_free(plus_scaled(B, 1)) * det_fraction_free(
        build_omega_shift(a, m, omega3())
    ).norm()
    minus = det_fraction_free(plus_scaled(B3, -1))
    minus_rhs = det_fraction_free(plus_scaled(B, -1)) * det_fraction_free(
        build_omega_shift(a, m, omega6())
    ).norm()
    print(f"a={a}, m={m}:  det(I+B^3) = {plus} ({'ok' if plus == plus_rhs else 'FAIL'})"
          f",  det(-I+B^3) = {minus} ({'ok' if minus == minus_rhs else 'FAIL'})")
