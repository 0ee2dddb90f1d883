"""Plain-text forms of regions, tilings and matrices, for the fixtures under
tests/data and the serialization tests.

A region is one `region a b c m placement` line and one `cell x y U|D` line
per unit triangle; a tiling, a partner tuple over a region's cells, one
`pair x1 y1 U|D x2 y2 U|D` line per lozenge; a matrix a `ring name rows
cols` line and one line of entries per row, a cyclotomic entry written
`c0+c1t`.  `matrix_of` builds a matrix from exact entries, the way the
tests write small matrices by hand.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from cored_hexagons.exactnum import TRACE, CycloElement, value_to_str
from cored_hexagons.lgv import ExactMatrix, _matrix
from cored_hexagons.tilings import DOWN, UP, Region, Tiling


def _cell_text(cell) -> str:
    x, y, orient = cell
    return f"{x} {y} {'U' if orient == UP else 'D'}"


def region_to_text(region: Region) -> str:
    h = region.hexagon
    lines = [f"region {h.a} {h.b} {h.c} {h.m} {h.placement}"]
    lines += [f"cell {_cell_text(cell)}" for cell in region.cells]
    return "\n".join(lines) + "\n"


def tiling_to_text(tiling: Tiling, region: Region) -> str:
    """One line per lozenge, its two cells in lattice order, the lines
    sorted the same way."""
    cells = region.cells
    pairs = sorted(tuple(sorted((cells[i], cells[j]))) for i, j in enumerate(tiling) if i < j)
    return "\n".join(f"pair {_cell_text(u)} {_cell_text(v)}" for u, v in pairs) + "\n"


def tiling_from_text(text: str, region: Region) -> Tiling:
    """The partner tuple of the lozenges listed in `text`; a cell that no
    line names is left paired with -1."""
    partner = [-1] * len(region.cells)
    for line in text.strip().splitlines():
        parts = line.split()
        if not parts or parts[0] != "pair":
            continue
        u, v = (
            region.cell_index[(int(x), int(y), UP if o == "U" else DOWN)]
            for x, y, o in (parts[1:4], parts[4:7])
        )
        partner[u], partner[v] = v, u
    return tuple(partner)


def matrix_of(values, ring: str | None = None) -> ExactMatrix:
    """The matrix of exact entries (ints, Fractions or CycloElements), each
    row over the lcm of its coordinates' denominators; the ring defaults to
    the smallest that holds every entry.  The inverse of `matrix_values`."""
    values = [tuple(row) for row in values]
    if ring is None:
        rings = {v.ring for row in values for v in row if isinstance(v, CycloElement)}
        if len(rings) > 1:
            raise ValueError("cannot mix the two cyclotomic rings")
        ring = rings.pop() if rings else None
    rows, dens = [], []
    for row in values:
        if ring in TRACE:
            # adding to zero moves a rational entry of either ring into `ring`
            row = [CycloElement.of(ring, 0) + v for v in row]
            row = [x for v in row for x in (v.c0, v.c1)]
        den = lcm(*(x.denominator for x in row))
        row = [x.numerator * (den // x.denominator) for x in row]
        rows.append(list(zip(row[::2], row[1::2])) if ring in TRACE else row)
        dens.append(den)
    return _matrix(rows, dens, ring)


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
