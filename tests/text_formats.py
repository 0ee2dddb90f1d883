"""Plain-text forms of regions, tilings and matrices, for the fixtures under
tests/data and the serialization tests.

A region is one `region a b c m placement` line and one `cell x y U|D` line
per unit triangle; a tiling one `pair x1 y1 U|D x2 y2 U|D` line per lozenge;
a matrix a `ring name rows cols` line and one line of entries per row, a
cyclotomic entry written `c0+c1t`.
"""

from __future__ import annotations

from fractions import Fraction

from cored_hexagons.exactnum import TRACE, CycloElement, value_to_str
from cored_hexagons.lgv import ExactMatrix
from cored_hexagons.tilings import DOWN, UP, Region, Tiling


def region_to_text(region: Region) -> str:
    h = region.hexagon
    lines = [f"region {h.a} {h.b} {h.c} {h.m} {h.placement}"]
    for x, y, orient in region.cells:
        lines.append(f"cell {x} {y} {'U' if orient == UP else 'D'}")
    return "\n".join(lines) + "\n"


def tiling_to_text(tiling: Tiling) -> str:
    lines = []
    for (x1, y1, o1), (x2, y2, o2) in tiling.pairs:
        lines.append(
            f"pair {x1} {y1} {'U' if o1 == UP else 'D'} "
            f"{x2} {y2} {'U' if o2 == UP else 'D'}"
        )
    return "\n".join(lines) + "\n"


def tiling_from_text(text: str) -> Tiling:
    pairs = []
    for line in text.strip().splitlines():
        parts = line.split()
        if not parts or parts[0] != "pair":
            continue
        x1, y1 = int(parts[1]), int(parts[2])
        o1 = UP if parts[3] == "U" else DOWN
        x2, y2 = int(parts[4]), int(parts[5])
        o2 = UP if parts[6] == "U" else DOWN
        pairs.append(((x1, y1, o1), (x2, y2, o2)))
    return Tiling(tuple(sorted(tuple(sorted(p)) for p in pairs)))


def matrix_values(matrix: ExactMatrix) -> list[list]:
    """The entries as exact values, rebuilt from the coordinate rows and the
    row denominators: Fractions, or CycloElements in the matrix's ring."""

    def value(x, den):
        if matrix.ring in TRACE:
            return CycloElement.of(matrix.ring, Fraction(x[0], den), Fraction(x[1], den))
        return Fraction(x, den)

    return [[value(x, den) for x in row] for row, den in zip(matrix.rows, matrix.dens)]


def matrix_to_text(matrix: ExactMatrix) -> str:
    lines = [f"ring {matrix.ring} {matrix.nrows} {matrix.ncols}"]
    for row in matrix_values(matrix):
        parts = []
        for v in row:
            if isinstance(v, CycloElement):
                parts.append(f"{value_to_str(v.c0)}+{value_to_str(v.c1)}t")
            else:
                parts.append(value_to_str(v))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
