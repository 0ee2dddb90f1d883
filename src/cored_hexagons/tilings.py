"""Cored-hexagon regions, matching-level tiling counts, enumeration, and
tiling statistics.

Every region is one flat list of slots, one per orientation and place of
the bounding box, line by line in sweep order with a padding place per
line, each holding a cell's index or -1 (see `Region`); the views
`Region.cells` and `Region.cell_index` are derived from it on demand.
Every count runs a frontier transfer matrix.  Plain and (-1)-weighted
counts step straight through the slot pairs (U in slot k, D in slot k+1),
with one state bit per up cell ahead, since a down cell is reached only
from its own up cell.  Cyclically symmetric counts run over the orbits of
the 120-degree rotation, where the matrix keeps a histogram of the
statistic mod 6 and applies the weight once: the rotation is an affine map
read through the slot array, each orbit of lozenges is read off the slots
at its lowest up cell, where its weight is folded, and the packed residue
counts are reduced only where a product by a factor other than 1 is formed.
Backtracking, which reads its branches off the slots too, is left only for
the enumeration generators.  Nothing here uses the determinant or
closed-form routes that these counts check.

A tiling is a perfect matching of the region's cells, held as the tuple of
their partners: entry i is the index of the cell that cell i shares its
lozenge with, cells numbered in sweep order.  The enumerators yield the
search's partner arrays as such tuples, and the statistics n and n6, the
symmetry test and the path bijection read them directly.

Lattice conventions (fixed once, validated by the pinned counts in the test
suite):

* Vertices live on the triangular lattice spanned by f1 = (1, 0) and
  f2 = (0, 1), embedded in the plane as f1 -> (1, 0), f2 -> (1/2, sqrt3/2).
* The up-triangle  U(x, y) has vertices (x, y), (x+1, y), (x, y+1).
* The down-triangle D(x, y) has vertices (x+1, y), (x, y+1), (x+1, y+1).
* U(x, y) is adjacent to D(x, y), D(x-1, y) and D(x, y-1).
* The hexagon with clockwise sides a, b+m, c, a+m, b, c+m has vertices
  (-c-m, c+m) -> (-c-m, a+c+m) -> (b-c, a+c+m) -> (b, a+m) -> (b, 0) -> (0, 0),
  so the side of length a runs along x = -c-m and the side of length a+m
  along x = b.
* The core is the down-pointing triangle with vertices (x0, y0),
  (x0, y0+m), (x0-m, y0+m) where x0 = (b-c)/2 and y0 = (a+c)/2 for the
  centered placement, y0 = (a+c-1)/2 when the core is shifted half a unit
  toward the side of length b.
* The reference ray extends the core side parallel to the sides of lengths
  a and a+m, away from the core starting at (x0, y0+m); its unit segments
  are the edges {(x0, y), (x0, y+1)}, y >= y0+m, up to where the line
  x = x0 leaves the hexagon, even if the hexagon has no cells.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from math import prod
from types import MappingProxyType
from typing import Callable, Iterator, Optional, Sequence

from .exactnum import TRACE, CycloElement, omega3, omega6, pair_mul

UP = 0
DOWN = 1

Cell = tuple[int, int, int]
Graph = Sequence[Sequence[tuple[int, int]]]
Tiling = tuple[int, ...]  # entry i: the index of the cell paired with cell i

WEIGHT_ONE = "one"
WEIGHT_MINUS1 = "minus1"
WEIGHT_OMEGA3 = "omega3"
WEIGHT_OMEGA6 = "omega6"
WEIGHT_MINUS1_N6 = "minus1-n6"

WEIGHTS = (WEIGHT_ONE, WEIGHT_MINUS1, WEIGHT_OMEGA3, WEIGHT_OMEGA6, WEIGHT_MINUS1_N6)
CYCLIC_WEIGHTS = (WEIGHT_OMEGA3, WEIGHT_OMEGA6, WEIGHT_MINUS1_N6)

DEFAULT_CELL_CAP = 120

CENTERED = "centered"
SHIFTED_TOWARD_B = "shifted-toward-b"


class CellCapError(RuntimeError):
    """The region exceeds the configured brute-force cap."""


def default_cell_cap() -> int:
    value = os.environ.get("CORED_HEX_CELL_CAP")
    if not value:
        return DEFAULT_CELL_CAP
    try:
        cap = int(value)
    except ValueError:
        raise ValueError(f"CORED_HEX_CELL_CAP must be an integer, got {value!r}") from None
    if cap < 0:
        raise ValueError(f"CORED_HEX_CELL_CAP must be nonnegative, got {value!r}")
    return cap


def normalize_sides(a: int, b: int, c: int) -> tuple[tuple[int, int, int], str]:
    """Rotate the side labels so the parity-deviant side (if any) comes first.

    Rotating the hexagon by 120 degrees turns C_{a,b,c}(m) into C_{c,a,b}(m),
    so the relabelings below leave the region unchanged.  Returns the new
    triple and which rotation was applied ('abc' means none).
    """
    pa, pb, pc = a % 2, b % 2, c % 2
    if pa == pb == pc or (pb == pc != pa):
        return (a, b, c), "abc"
    if pa == pc != pb:
        return (b, c, a), "bca"
    return (c, a, b), "cab"


@dataclass(frozen=True)
class CoredHexagon:
    """Parameter record for the hexagon a, b+m, c, a+m, b, c+m minus a core
    of side m.  Requires b = c (mod 2); use normalize_sides for raw input."""

    a: int
    b: int
    c: int
    m: int

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.m) < 0:
            raise ValueError("side lengths must be nonnegative")
        if self.b % 2 != self.c % 2:
            raise ValueError(
                f"sides b={self.b}, c={self.c} differ in parity; relabel so the "
                "deviant side is a (see normalize_sides)"
            )

    @property
    def placement(self) -> str:
        return CENTERED if self.a % 2 == self.b % 2 else SHIFTED_TOWARD_B

    @property
    def core_position(self) -> tuple[int, int]:
        x0 = (self.b - self.c) // 2
        if self.placement == CENTERED:
            y0 = (self.a + self.c) // 2
        else:
            y0 = (self.a + self.c - 1) // 2
        return x0, y0

    @property
    def cell_count(self) -> int:
        a, b, c, m = self.a, self.b, self.c, self.m
        return 2 * (a * b + b * c + c * a) + 2 * m * (a + b + c)


def _sweeps_rows(hexagon: CoredHexagon) -> bool:
    """Sweep by rows when a > b: lines run along the shorter of b+c+m, a+c+m."""
    return hexagon.a > hexagon.b


class Region:
    """A cored hexagon's cells and the reference ray, built on one flat list
    of slots.

    The sweep runs along the lines `_sweeps_rows` picks; relabelling sides
    instead would move the ray and can flip the sign of the (-1)-count.
    With p the line (x for columns, y for rows), q the place along it and
    L the line length plus one padding place, slot
    ((p - p0) * L + (q - q0)) * 2 + orient holds a cell's index or -1, and
    cells are numbered in slot order; a last line of padding follows.
    U(x, y) lies in the region when -c-m <= x < b, 0 <= y < a+c+m and
    0 <= x+y < a+b+m, D(x, y) when 0 <= x+y+1 < a+b+m, unless x < x0,
    y < y0+m and x+y+orient >= x0+y0 (the core).  Every edge is slot
    arithmetic: U(x, y) in slot k meets D(x, y) in slot k+1, and D(x, y)
    meets U(x+1, y), U(x, y+1), one in slot k+1 on the same line and one in
    slot k+2L-1 on the next.  `find` reads one slot; `cells` and
    `cell_index` are read-only views derived on demand."""

    def __init__(self, hexagon: CoredHexagon):
        self.hexagon = hexagon
        a, b, c, m = self.a, self.b, self.c, self.m = hexagon.a, hexagon.b, hexagon.c, hexagon.m
        x0, y0 = self.x0, self.y0 = hexagon.core_position
        self._rows = rows = _sweeps_rows(hexagon)
        self._box = xs, ys = range(-c - m, b), range(a + c + m)
        lines, along = (ys, xs) if rows else (xs, ys)
        self._stride = stride = 2 * len(along) + 2
        core_line, core_along = (y0 + m, x0) if rows else (x0, y0 + m)
        top, apex = a + b + m, x0 + y0
        # a last line of padding takes D's next-line lookups off the end,
        # and an up cell's previous-line lookups off the start
        slots = [-1] * (stride * (len(lines) + 1))
        self.slot_of = where = []
        for p in lines:
            at = (p - lines.start) * stride - 2 * along.start
            for q in range(max(along.start, -p - 1), min(along.stop, top - p)):
                s, k = p + q, at + 2 * q
                free = p >= core_line or q >= core_along
                if s >= 0 and (free or s < apex):
                    slots[k] = len(where)
                    where.append(k)
                if s + 1 < top and (free or s + 1 < apex):
                    slots[k + 1] = len(where)
                    where.append(k + 1)
        assert len(where) == hexagon.cell_count, (len(where), hexagon.cell_count)
        assert 2 * sum(map((1).__and__, where)) == len(where), "up/down cell counts must balance"
        self.slots = slots
        # the reference ray outward from the core to where the line x = x0
        # leaves the hexagon: (D(x0-1, y), U(x0, y)), -1 if missing
        ray = range(y0 + m, min(a + c + m, top - x0))
        self.reference_ray = tuple((self.find(x0 - 1, y, DOWN), self.find(x0, y, UP)) for y in ray)

    def find(self, x: int, y: int, orient: int) -> int:
        """The index of the cell (x, y, orient), or -1 when the region lacks
        it; a point outside the bounding box reads no slot."""
        xs, ys = self._box
        return self.slots[self._slot(x, y, orient)] if x in xs and y in ys else -1

    def _slot(self, x: int, y: int, orient: int) -> int:
        """The slot of the point (x, y, orient), unchecked."""
        p, q = (y, x - self._box[0].start) if self._rows else (x - self._box[0].start, y)
        return p * self._stride + 2 * q + orient

    def _cell(self, k: int) -> Cell:
        """The cell (x, y, orient) in slot k."""
        p, r = divmod(k, self._stride)
        u, y = (r >> 1, p) if self._rows else (p, r >> 1)
        return u + self._box[0].start, y, r & 1

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        """The cells (x, y, orient) in index order, for tests and demos."""
        return tuple(map(self._cell, self.slot_of))

    @cached_property
    def cell_index(self) -> MappingProxyType:
        """The index of each cell (x, y, orient), for tests and demos."""
        return MappingProxyType({cell: i for i, cell in enumerate(self.cells)})

    def _symmetry(self, name: str, image: Callable[..., tuple[int, int]]) -> tuple[int, ...]:
        """Index map of the cell symmetry (x, y, o) -> (image(x, y, o), o),
        an integer affine map.  Only defined for a = b = c, where it maps the
        region onto itself.  The slot of the image of the cell in slot k is
        affine in k // L, (k % L) >> 1 and k & 1, fixed by four points, and
        is read through the slot array."""
        if not (self.a == self.b == self.c):
            raise ValueError(f"{name} needs a hexagon with a = b = c")
        cell, slot, stride = self._cell, self._slot, self._stride
        base, line, place, orient = (slot(*image(*cell(k)), k & 1) for k in (0, stride, 2, 1))
        rest = [base + (r >> 1) * (place - base) + (r & 1) * (orient - base) for r in range(stride)]
        slots, step = self.slots, line - base
        mapping = [slots[k // stride * step + rest[k % stride]] for k in self.slot_of]
        assert -1 not in mapping, f"{name} leaves the region"
        return tuple(mapping)

    @cached_property
    def rotation(self) -> tuple[int, ...]:
        """Index map of the 120-degree rotation about the core centroid,
        (x, y, o) -> (2x0 + y0 - 1 - o - x - y, x + y0 - x0 + m, o)."""
        dx, dy = 2 * self.x0 + self.y0 - 1, self.y0 - self.x0 + self.m
        return self._symmetry("rotation", lambda x, y, o: (dx - o - x - y, x + dy))

    @cached_property
    def reflection(self) -> tuple[int, ...]:
        """Index map of the reflection fixing the core's ray-side edge
        setwise, (x, y, o) -> (x, x0 + 2y0 + m - 1 - o - x - y, o)."""
        dy = self.x0 + 2 * self.y0 + self.m - 1
        return self._symmetry("reflection", lambda x, y, o: (x, dy - o - x - y))

    @cached_property
    def _n6_weights(self) -> dict[tuple[int, int], int]:
        """Weight x on the lozenge (sigma U(x, y), sigma D(x, y)) for 0 <= x < a
        and a-1-x <= y <= 2a+m-2-x, sigma the reflection: the horizontal
        lozenges of one fundamental domain, cut along the core side's ray line
        and the third lattice direction, each by its distance to the domain's
        border along the core, so that on a cyclically symmetric tiling the
        weights of its lozenges sum to n6.  Conjugating by sigma makes the
        m = 0 specialization count the off-diagonal cube orbits of the plane
        partition, not their complement of the same parity.  Weight 0 is left
        out.  Here x0 = 0 and y0 = a, so sigma gives (U(x, t), D(x, t-1)) with
        1 <= t = 2a+m-1-x-y <= a+m."""
        find, a, m = self.find, self.a, self.m
        ts = range(1, a + m + 1)
        return {(find(x, t, UP), find(x, t - 1, DOWN)): x for x in range(1, a) for t in ts}

    @cached_property
    def _up_rotation(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The up cells in index order and their images under `rotation`."""
        ups = tuple(i for i, k in enumerate(self.slot_of) if not k & 1)
        return ups, tuple(map(self.rotation.__getitem__, ups))

    def __repr__(self) -> str:
        h = self.hexagon
        return f"Region(C_{{{h.a},{h.b},{h.c}}}({h.m}), {len(self.slot_of)} cells)"


def _check_cap(units: int, cap: Optional[int]) -> None:
    limit = default_cell_cap() if cap is None else cap
    if limit < 0:
        raise ValueError(f"cap must be nonnegative, got {limit}")
    if units > limit:
        raise CellCapError(
            f"region needs {units} search units, above the cap {limit}; "
            "raise the cap explicitly or via CORED_HEX_CELL_CAP"
        )


def _matchings(region: Region, cyclic: bool) -> Iterator[list[int]]:
    """Backtracking over perfect matchings: always branch on the first
    uncovered cell, whose free neighbours are all later cells, so it
    branches over its later neighbours, read off the slot array: the cell
    in slot k+1 and, for a down cell, the one in slot k+2L-1 on the next
    line, L as in `Region`.  U(x+1, y) comes first: beside D(x, y) on a
    row, ahead on a column.  The search keeps its own stack, so region
    size is bounded by the cap alone, not the recursion limit.  It yields
    one partner array, updated in place, per matching.

    With cyclic=True it ranges over rotation-invariant matchings: each
    placement fixes the whole orbit of three lozenges, so coverage stays
    invariant and a free cell always has its whole orbit free."""
    slots, n = region.slots, len(region.slot_of)
    ahead = (1, region._stride - 1) if region._rows else (region._stride - 1, 1)
    later = [
        [j for j in (slots[k + d] for d in (ahead if k & 1 else (1,))) if j >= 0]
        for k in region.slot_of
    ]
    # with the identity in place of the rotation, the three lozenges of a
    # placement coincide
    rot = region.rotation if cyclic else range(n)
    partner = [-1] * n
    stack = []  # (cell, iterator over its untried neighbours)
    i = 0
    while True:
        while i < n and partner[i] >= 0:
            i += 1
        if i == n:
            yield partner
        else:
            stack.append((i, iter(later[i])))
        while stack:
            i, options = stack[-1]
            j = partner[i]
            if j >= 0:
                i2, j2 = rot[i], rot[j]
                for u in (i, j, i2, j2, rot[i2], rot[j2]):
                    partner[u] = -1
            for j in options:
                if partner[j] < 0:
                    break
            else:
                stack.pop()
                continue
            # i, i2, i3 are distinct cells of one orientation and j, j2, j3
            # distinct cells of the other, so the lozenges never collide
            i2, j2 = rot[i], rot[j]
            i3, j3 = rot[i2], rot[j2]
            partner[i], partner[i2], partner[i3] = j, j2, j3
            partner[j], partner[j2], partner[j3] = i, i2, i3
            i += 1
            break
        else:
            return


def check_weight(hexagon: CoredHexagon, weight: str, cyclic: Optional[bool] = None) -> bool:
    """Whether a count of `hexagon` by `weight` ranges over the cyclically
    symmetric tilings, cyclic=None taking the weight's own domain.  An
    unknown weight, a cyclic-only weight with cyclic=False and a cyclic
    count of a hexagon without a = b = c raise ValueError."""
    if weight not in WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}")
    if cyclic is None:
        cyclic = weight in CYCLIC_WEIGHTS
    if weight in CYCLIC_WEIGHTS and not cyclic:
        raise ValueError(f"weight {weight!r} is defined on cyclic tilings only")
    if cyclic and not (hexagon.a == hexagon.b == hexagon.c):
        raise ValueError("cyclically symmetric tilings need a = b = c")
    return cyclic


def enumerate_tilings(region: Region, cap: Optional[int] = None) -> Iterator[Tiling]:
    _check_cap(len(region.slot_of), cap)
    return map(tuple, _matchings(region, cyclic=False))


def enumerate_cyclic_tilings(region: Region, cap: Optional[int] = None) -> Iterator[Tiling]:
    check_weight(region.hexagon, WEIGHT_ONE, cyclic=True)
    _check_cap(region.hexagon.cell_count // 3, cap)  # the cap counts rotation orbits
    return map(tuple, _matchings(region, cyclic=True))


def _pair_count(region: Region, signed: bool) -> int:
    """The number of tilings of a region, or with signed=True their sum of
    (-1)^(lozenges straddling the reference ray), by a transfer matrix over
    its slot pairs in order, U in slot k and D in slot k+1.  U's only later
    neighbour is its D, and D is reached only from its U, so a state is the
    bitmask of the up cells from slot k on already covered, bit j for slot
    k+2j.  A free U pairs with its D, or the state dies when D is missing; a
    covered or missing U hands the step to D, which moves to the free up cell
    in slot k+2 (bit 1) or k+L (bit L/2), L as in `Region`, if it is there.
    A straddle, D(x0-1, y) to U(x0, y), is the move to the next line in the
    column sweep, along the line in the row sweep.  Pairs without cells are
    shifted past."""
    slots, stride = region.slots, region._stride
    line = 1 << (stride >> 1)
    flips = {region.slot_of[w] for w, e in region.reference_ray if signed and min(w, e) >= 0}
    flipped = (-1, 1) if region._rows else (1, -1)
    # the pairs that hold a cell, then one past the last
    pairs = list(dict.fromkeys(k & -2 for k in region.slot_of))
    pairs.append(pairs[-1] + 2 if pairs else 0)
    states = {0: 1}
    for k, after in zip(pairs, pairs[1:]):
        gap, advanced = (after - k) >> 1, {}
        if slots[k + 1] < 0:
            for mask, value in states.items():
                if mask & 1:
                    key = mask >> gap
                    advanced[key] = advanced.get(key, 0) + value
            states = advanced
            continue
        up = slots[k] >= 0
        near = 2 if slots[k + 2] >= 0 else 0
        far = line if slots[k + stride] >= 0 else 0
        sign_near, sign_far = flipped if k + 1 in flips else (1, 1)
        for mask, value in states.items():
            if up and not mask & 1:
                key = mask >> gap
                advanced[key] = advanced.get(key, 0) + value
                continue
            if near and not mask & near:
                key = (mask | near) >> gap
                advanced[key] = advanced.get(key, 0) + sign_near * value
            if far and not mask & far:
                key = (mask | far) >> gap
                advanced[key] = advanced.get(key, 0) + sign_far * value
        states = advanced
    return states.get(0, 0)


def _frontier_count(graph: Graph, modulus: int = 0) -> int:
    """Sum over the perfect matchings of a graph of the product of their
    edge factors, by a transfer matrix over the vertices in order.

    graph[i] lists the edges from vertex i to later vertices j as
    (1 << (j - i), factor).  A state is the bitmask of the vertices from the
    current one on that are already covered, bit 0 being the current vertex;
    its value is the weighted number of ways to reach it.  A covered vertex
    is shifted out, a free one is paired along an edge with a free later
    vertex.  A forced step is fused with the next: when vertex i's only
    edge goes to i+1, with factor 1, and no other edge reaches i+1, bit 1
    is always clear at i, so one pass over the states does both vertices,
    pairing a free i with i+1 or letting i+1 take its own edges once i is
    covered.  With a modulus, a product by a factor other than 1 is reduced
    by it, and so is the final value; sums are left as they come, so no
    pass rebuilds the states, and the result is the same for any modulus."""
    # an edge into i+1 from another vertex than i spans two steps or more
    spanned = {
        i + bit.bit_length() - 1 for i, moves in enumerate(graph) for bit, _ in moves if bit > 2
    }
    states = {0: 1}
    i = 0
    while i < len(graph):
        moves = graph[i]
        fused = len(moves) == 1 and moves[0] == (2, 1) and i + 1 not in spanned
        if fused:
            moves = graph[i + 1]
        advanced: dict[int, int] = {}
        for mask, value in states.items():
            if mask & 1:
                mask >>= 1
                if not fused:
                    advanced[mask] = advanced.get(mask, 0) + value
                    continue
            elif fused:
                key = mask >> 2
                advanced[key] = advanced.get(key, 0) + value
                continue
            for bit, factor in moves:
                if not mask & bit:
                    key = (mask | bit) >> 1
                    if modulus and factor != 1:
                        advanced[key] = advanced.get(key, 0) + factor * value % modulus
                    else:
                        advanced[key] = advanced.get(key, 0) + factor * value
        states = advanced
        i += 1 + fused
    return states.get(0, 0) % modulus if modulus else states.get(0, 0)


def _orbit_edges(
    region: Region, lozenge_weight: dict[tuple[int, int], int]
) -> list[list[tuple[int, int]]]:
    """The orbit graph: edges[o] lists (p, e) for each orbit of three
    lozenges joining cell orbit o to a later one p, with e the sum of their
    weights mod 6; lozenge_weight is keyed (up cell, down cell), and a
    lozenge it lacks weighs 0.

    The rotation acts freely on the cells and keeps their orientations, so
    its orbits, numbered by their lowest cell, form a bipartite graph on a
    third of the cells.  A lozenge orbit is read once, off the slot array,
    at the one lozenge whose up cell u is lowest in its orbit: u in slot k
    meets the down cells in slots k+1, k-1 and k-2L+1, L as in `Region`.
    On the first line k-2L+1 is negative and wraps to the last line, which
    is padding.  The weights are folded onto those lozenges in one pass."""
    rot, slots, slot_of, stride = region.rotation, region.slots, region.slot_of, region._stride
    lowest = [i for i, j in enumerate(rot) if i < j and i < rot[j]]
    orbit = [0] * len(rot)
    for o, i in enumerate(lowest):
        orbit[i] = orbit[rot[i]] = orbit[rot[rot[i]]] = o
    # the lozenge with the lowest up cell of its orbit is two turns away at most
    folded: dict[tuple[int, int], int] = {}
    for (up, down), weight in lozenge_weight.items():
        while lowest[orbit[up]] != up:
            up, down = rot[up], rot[down]
        folded[up, down] = (folded.get((up, down), 0) + weight) % 6
    edges: list[list[tuple[int, int]]] = [[] for _ in lowest]
    for o, up in enumerate(lowest):
        k = slot_of[up]
        if k & 1:
            continue
        for down in (slots[k + 1], slots[k - 1], slots[k - stride + 1]):
            if down >= 0:
                p, e = orbit[down], folded.get((up, down), 0)
                if o < p:
                    edges[o].append((p, e))
                else:
                    edges[p].append((o, e))
    return edges


def _orbit_histogram(region: Region, lozenge_weight: dict[tuple[int, int], int]) -> list[int]:
    """hist[r] is the number of rotation-invariant tilings whose lozenges'
    weights sum to r mod 6, keyed as in `_orbit_edges`: the perfect
    matchings of the orbit graph are the invariant tilings.

    The transfer matrix runs over the orbits in Z[q]/(q^6 - 1) at q = 2^B:
    an edge's factor is 2^(B (e mod 6)), and a product by it is reduced
    modulo 2^(6B) - 1, which turns the slots of the six residue counts, B
    bits each, by e.  A partial count never exceeds the product of the
    out-degrees, which is below 2^(B-1), so no slot carries, not even in
    the unreduced sums, and every value stays below 2^(6B)."""
    edges = _orbit_edges(region, lozenge_weight)
    bits = prod(len(out) or 1 for out in edges).bit_length() + 1
    factor = [1 << (bits * e) for e in range(6)]
    graph = [[(1 << (j - i), factor[e]) for j, e in out] for i, out in enumerate(edges)]
    packed = _frontier_count(graph, (1 << (6 * bits)) - 1)
    return [(packed >> (bits * r)) & ((1 << bits) - 1) for r in range(6)]


def statistic_n(tiling: Tiling, region: Region) -> int:
    """Number of ray segments that are lozenge edges (not interior to a
    lozenge); equals the number of lattice paths passing the core on the
    reference-ray side."""
    return sum(min(west, east) < 0 or tiling[west] != east for west, east in region.reference_ray)


def statistic_n6(tiling: Tiling, region: Region) -> int:
    """Sum of distances of the horizontal lozenges of one fundamental domain
    to its border along the core (see `Region._n6_weights`); defined for
    cyclically symmetric tilings."""
    if not is_cyclically_symmetric(tiling, region):
        raise ValueError("statistic is defined for cyclically symmetric tilings only")
    return sum(w for (up, down), w in region._n6_weights.items() if tiling[up] == down)


def is_cyclically_symmetric(tiling: Tiling, region: Region) -> bool:
    """Whether the 120-degree rotation r maps the tiling t to itself,
    t(r(x)) = r(t(x)) for every cell x; only defined for a = b = c.  The up
    cells decide: every down cell d is t(u) for the up cell u = t(d), and
    t is an involution, so t(r(u)) = r(t(u)) = r(d) gives
    t(r(d)) = r(u) = r(t(d))."""
    rot, (ups, turned) = region.rotation, region._up_rotation
    return [tiling[r] for r in turned] == [rot[tiling[u]] for u in ups]


def cyclic_histogram(hexagon: CoredHexagon, n6: bool = False, cap: Optional[int] = None) -> list[int]:
    """hist[r] is the number of cyclically symmetric tilings of `hexagon`
    whose statistic, n6 or n, is r mod 6, by one transfer matrix over the
    rotation orbits; the cap counts orbits, a third of the cells.
    `apply_weight` reads every cyclic weight of the statistic off it."""
    check_weight(hexagon, WEIGHT_ONE, cyclic=True)
    # the size is known before any cell is listed
    _check_cap(hexagon.cell_count // 3, cap)
    region = Region(hexagon)
    if n6:
        return _orbit_histogram(region, region._n6_weights)
    # n = ray length - straddles; a ray pair is (west down cell, east up cell)
    ray = region.reference_ray
    by_straddles = _orbit_histogram(region, {(e, w): 1 for w, e in ray if min(w, e) >= 0})
    return [by_straddles[(len(ray) - r) % 6] for r in range(6)]


def apply_weight(hist: Sequence[int], weight: str) -> int | CycloElement:
    """The sum of weight^r hist[r] over a histogram of a statistic mod 6:
    the sum for one, the alternating sum for minus1 and minus1-n6, and for
    omega3 and omega6 the sum of hist[r] omega^r in Z[omega]."""
    if weight == WEIGHT_ONE:
        return sum(hist)
    if weight in (WEIGHT_MINUS1, WEIGHT_MINUS1_N6):
        return sum(hist[0::2]) - sum(hist[1::2])
    # sum of h_r omega^r by Horner's rule; omega is its ring's tau, the pair (0, 1)
    ring = (omega3() if weight == WEIGHT_OMEGA3 else omega6()).ring
    mul, total = pair_mul(TRACE[ring]), (0, 0)
    for h in reversed(hist):
        c0, c1 = mul(total, (0, 1))
        total = (c0 + h, c1)
    return CycloElement.of(ring, *total)


def count_weighted(
    hexagon: CoredHexagon, weight: str, cap: Optional[int] = None, cyclic: Optional[bool] = None
) -> int | CycloElement:
    """Exact weighted count at the level of matchings.

    Weights one and minus1 range over all tilings by default and are
    counted by the transfer matrix over the slot pairs (`_pair_count`):
    (-1)^n(T) is (-1)^(ray length) times (-1)^(ray-straddling lozenges).
    Weights omega3, omega6 and minus1-n6 range over the cyclically
    symmetric tilings; pass cyclic=True to restrict one/minus1 to them too.
    A cyclic count is the weight applied to `cyclic_histogram` of its
    statistic, n6 for minus1-n6 and n otherwise."""
    if check_weight(hexagon, weight, cyclic):
        return apply_weight(cyclic_histogram(hexagon, weight == WEIGHT_MINUS1_N6, cap), weight)
    _check_cap(hexagon.cell_count, cap)
    region = Region(hexagon)
    if weight == WEIGHT_ONE:
        return _pair_count(region, signed=False)
    return (-1) ** len(region.reference_ray) * _pair_count(region, signed=True)


def tiling_to_paths(tiling: Tiling, region: Region) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The standard bijection onto nonintersecting paths from the side of
    length a (and the core side parallel to it) to the side of length a+m,
    in orthogonal coordinates where every step is east (X+1, Y) or south
    (X, Y-1).  Paths A_1, ..., A_a start on the side of length a and
    A_{a+1}, ..., A_{a+m} on the core side; the path from A_i ends at E_j
    with j = Y_end + 1."""
    a, b, c, m, find = region.a, region.b, region.c, region.m, region.find
    paths = []
    # the paths start on the side of length a, then on the core side
    bases = [(-c - m, c + m + i) for i in range(a)]
    for x, y in bases + [(region.x0, region.y0 + t) for t in range(m)]:
        vertices = [(x + y, y)]
        while x < b:
            u = find(x, y, UP)
            assert u >= 0, "path left the region"
            p = tiling[u]
            if p == find(x, y, DOWN):
                x += 1
            elif p == find(x, y - 1, DOWN):
                x += 1
                y -= 1
            else:
                raise AssertionError("path stepped onto an interior edge")
            vertices.append((x + y, y))
        paths.append(tuple(vertices))
    all_vertices = [v for path in paths for v in path]
    assert len(set(all_vertices)) == len(all_vertices), "paths must be vertex-disjoint"
    return tuple(paths)


def tiling_to_plane_partition(tiling: Tiling, region: Region) -> list[list[int]]:
    """For m = 0: the boxed plane partition as an a x b array of column
    heights bounded by c, weakly decreasing along rows and columns."""
    if region.m != 0:
        raise ValueError("plane partitions correspond to tilings with m = 0")
    rows = []
    for path in tiling_to_paths(tiling, region):
        # the height of an east step is the number of south steps after it
        remaining, heights = path[0][1] - path[-1][1], []
        for (_, y1), (_, y2) in zip(path, path[1:]):
            if y2 < y1:
                remaining -= 1
            else:
                heights.append(remaining)
        rows.append(heights)
    rows.reverse()
    for row in rows:
        assert all(h1 >= h2 for h1, h2 in zip(row, row[1:]))
    for r1, r2 in zip(rows, rows[1:]):
        assert all(h1 >= h2 for h1, h2 in zip(r1, r2)), "rows must decrease"
    return rows


def plane_partition_size(heights: list[list[int]]) -> int:
    return sum(sum(row) for row in heights)


def plane_partition_diagonal_count(heights: list[list[int]]) -> int:
    """Number of cubes (i, i, i) on the main diagonal, 1-based."""
    size = min(len(heights), len(heights[0]) if heights else 0)
    return sum(heights[r][r] >= r + 1 for r in range(size))
