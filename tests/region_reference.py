"""Test references for `tilings.Region`: the region read off tuple keys.

These are the former forms of the region build: the cells listed straight
from the nine lattice inequalities, one (x, y, orient) tuple each, an index
dict over them, the forward edges found by one dict lookup per neighbour,
the rotation and reflection mapped cell tuple to cell tuple, and the
reference ray walked through the dict.  The slot-array region must agree
with them exactly, in both sweep orders.  `reference_signed_graph` is the
former input of the (-1)-count: the graph with its ray edges rewritten.
`reference_matchings` is the former search of the enumerators, which
branched over that graph.

`reference_orbit_edges` is the former orbit graph of the cyclic counts:
a walk over every forward edge of that graph that keeps the lozenges
whose up cell is lowest in its rotation orbit.  `reference_statistic_n6`
is the former path walk of `statistic_n6`, one `Region.find` per cell it
looks at.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterator

from cored_hexagons.tilings import DOWN, UP, CoredHexagon, Region, Tiling

Cell = tuple[int, int, int]


def reference_cells(hexagon: CoredHexagon, by_rows: bool) -> Iterator[Cell]:
    """The cells of the region, column by column (x outer, y inner) or row
    by row (y outer, x inner), U(x, y) right before D(x, y).

    U(x, y) lies in the hexagon when -c-m <= x < b, 0 <= y < a+c+m and
    0 <= x+y <= a+b+m-1; D(x, y) shifts the x+y bounds by -1.  A cell lies
    in the core when x < x0, y < y0+m and x+y >= x0+y0 (x0+y0-1 for D),
    which no cell does for m = 0."""
    a, b, c, m = hexagon.a, hexagon.b, hexagon.c, hexagon.m
    x0, y0 = hexagon.core_position
    xs, ys = range(-c - m, b), range(a + c + m)
    outer, inner = (ys, xs) if by_rows else (xs, ys)
    for p in outer:
        for q in range(max(inner.start, -p - 1), min(inner.stop, a + b + m - p)):
            x, y = (q, p) if by_rows else (p, q)
            for orient in (UP, DOWN):
                s = x + y + orient
                if 0 <= s < a + b + m and (x >= x0 or y >= y0 + m or s < x0 + y0):
                    yield x, y, orient


def reference_graph(cells: tuple[Cell, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Edges from each cell to its later neighbours as (1 << (j - i), 1):
    U(x, y) -> D(x, y), and D(x, y) -> U(x+1, y), U(x, y+1) in that order."""
    index = {cell: i for i, cell in enumerate(cells)}
    graph = []
    for i, (x, y, orient) in enumerate(cells):
        if orient == UP:
            later = (index.get((x, y, DOWN)),)
        else:
            later = (index.get((x + 1, y, UP)), index.get((x, y + 1, UP)))
        graph.append(tuple((1 << (j - i), 1) for j in later if j is not None))
    return tuple(graph)


def reference_ray(hexagon: CoredHexagon, cells: tuple[Cell, ...]) -> tuple[tuple[int, int], ...]:
    """Segments of the reference ray, ordered outward from the core, as
    index pairs (west cell D(x0-1, y), east cell U(x0, y)) with -1 for a
    missing flank.  The ray runs while its upper end (x0, y+1) lies in the
    closed hexagon, so an empty region's ray has segments too."""
    index = {cell: i for i, cell in enumerate(cells)}
    a, b, c, m = hexagon.a, hexagon.b, hexagon.c, hexagon.m
    x0, y = hexagon.core_position
    y += m
    segments = []
    while y + 1 <= a + c + m and x0 + y + 1 <= a + b + m:
        segments.append((index.get((x0 - 1, y, DOWN), -1), index.get((x0, y, UP), -1)))
        y += 1
    return tuple(segments)


def reference_signed_graph(region: Region) -> list:
    """The region's graph with factor -1 on each lozenge that straddles the
    reference ray, the edge D(x0-1, y) -> U(x0, y): the former input of the
    (-1)-count's transfer matrix."""
    graph = list(reference_graph(region.cells))
    for west, east in region.reference_ray:
        if min(west, east) >= 0:
            straddle = 1 << (east - west)
            graph[west] = [(bit, -1 if bit == straddle else 1) for bit, _ in graph[west]]
    return graph


def reference_matchings(hexagon: CoredHexagon, by_rows: bool, cyclic: bool) -> Iterator[Tiling]:
    """The tilings, or with cyclic=True the rotation-invariant ones, as
    partner tuples in the order of the former search: branch on the first
    uncovered cell over its edges in `reference_graph`, and with cyclic=True
    place the whole orbit of three lozenges under `reference_rotation`."""
    cells = tuple(reference_cells(hexagon, by_rows))
    n = len(cells)
    later = [[i + bit.bit_length() - 1 for bit, _ in out]
             for i, out in enumerate(reference_graph(cells))]
    rot = reference_rotation(hexagon, cells) if cyclic else range(n)
    partner = [-1] * n
    stack = []  # (cell, iterator over its untried neighbours)
    i = 0
    while True:
        while i < n and partner[i] >= 0:
            i += 1
        if i == n:
            yield tuple(partner)
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
            i2, j2 = rot[i], rot[j]
            i3, j3 = rot[i2], rot[j2]
            partner[i], partner[i2], partner[i3] = j, j2, j3
            partner[j], partner[j2], partner[j3] = i, i2, i3
            i += 1
            break
        else:
            return


def reference_symmetry(
    hexagon: CoredHexagon,
    cells: tuple[Cell, ...],
    linear: Callable[[int, int], tuple[int, int]],
) -> tuple[int, ...]:
    """Index map of the cell symmetry whose linear part, in tripled
    coordinates about the core centroid, is `linear` (a = b = c)."""
    index = {cell: i for i, cell in enumerate(cells)}
    x0, y0 = hexagon.core_position
    ox, oy = 3 * x0 - hexagon.m, 3 * y0 + 2 * hexagon.m
    mapping = []
    for x, y, orient in cells:
        offset = 1 + orient
        qx, qy = linear(3 * x + offset - ox, 3 * y + offset - oy)
        qx, qy = qx + ox - offset, qy + oy - offset
        assert qx % 3 == 0 and qy % 3 == 0
        mapping.append(index[(qx // 3, qy // 3, orient)])
    return tuple(mapping)


def reference_rotation(hexagon: CoredHexagon, cells: tuple[Cell, ...]) -> tuple[int, ...]:
    return reference_symmetry(hexagon, cells, lambda ux, uy: (-ux - uy, ux))


def reference_reflection(hexagon: CoredHexagon, cells: tuple[Cell, ...]) -> tuple[int, ...]:
    return reference_symmetry(hexagon, cells, lambda ux, uy: (ux, -ux - uy))


def reference_orbit_edges(
    cells: tuple[Cell, ...], rotation: tuple[int, ...], lozenge_weight: dict[tuple[int, int], int]
) -> Counter:
    """The multiset of orbit edges (low orbit, high orbit, folded weight):
    each lozenge orbit read from the graph at the lozenge whose up cell is
    lowest in its orbit, weighing the sum mod 6 of the weights, keyed (up
    cell, down cell), of its three lozenges.  Orbits are numbered by their
    lowest cell."""
    rot = rotation
    lowest = [i for i in range(len(rot)) if i < rot[i] and i < rot[rot[i]]]
    orbit = [0] * len(rot)
    for o, i in enumerate(lowest):
        orbit[i] = orbit[rot[i]] = orbit[rot[rot[i]]] = o
    folded: dict[tuple[int, int], int] = {}
    for (up, down), weight in lozenge_weight.items():
        while lowest[orbit[up]] != up:
            up, down = rot[up], rot[down]
        folded[up, down] = (folded.get((up, down), 0) + weight) % 6
    edges: Counter = Counter()
    for i, moves in enumerate(reference_graph(cells)):
        for bit, _ in moves:
            j = i + bit.bit_length() - 1
            up, down = (j, i) if cells[i][2] == DOWN else (i, j)
            if lowest[orbit[up]] == up:
                low, high = sorted((orbit[up], orbit[down]))
                edges[low, high, folded.get((up, down), 0)] += 1
    return edges


def reference_statistic_n6(tiling: Tiling, region: Region) -> int:
    """n6 of a cyclically symmetric tiling: the paths of one fundamental
    domain walked through `Region.find`, conjugated by the reflection."""
    sigma, find, a, m = region.reflection, region.find, region.a, region.m
    total = 0
    for j in range(a):
        start_up, start_down = find(j, a - 1 - j, UP), find(j, a - 1 - j, DOWN)
        if min(start_up, start_down) < 0 or sigma[tiling[sigma[start_up]]] != start_down:
            continue
        total += j
        x, y = j, a - j
        while True:
            u = find(x, y, UP)
            assert u >= 0, "statistic path left the region"
            p = sigma[tiling[sigma[u]]]
            if p == find(x, y, DOWN):
                total += x
                y += 1
            elif p == find(x - 1, y, DOWN):
                if x == 0:
                    assert a + m <= y < 2 * a + m, (x, y)
                    break
                x -= 1
                y += 1
            else:
                raise AssertionError("statistic path stepped onto an interior edge")
    return total
