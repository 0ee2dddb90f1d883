import ast
import inspect
import itertools
import os
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cored_hexagons import tilings
from cored_hexagons.exactnum import omega3, omega6
from cored_hexagons.formulas import (
    OMEGA_MINUS_ONE,
    OMEGA_ONE,
    OMEGA_SIXTH,
    OMEGA_THIRD,
    count_cored_formula,
    macmahon_box,
    rhs_case10,
    rhs_omega_det,
)
from cored_hexagons.lgv import build_cored_matrix, det_fraction_free
from cored_hexagons.tilings import (
    CellCapError,
    CoredHexagon,
    DOWN,
    Region,
    UP,
    apply_weight,
    count_weighted,
    cyclic_histogram,
    default_cell_cap,
    enumerate_cyclic_tilings,
    enumerate_tilings,
    is_cyclically_symmetric,
    normalize_sides,
    plane_partition_diagonal_count,
    plane_partition_size,
    statistic_n,
    statistic_n6,
    tiling_to_paths,
    tiling_to_plane_partition,
)
from region_reference import (
    reference_cells,
    reference_graph,
    reference_matchings,
    reference_orbit_edges,
    reference_ray,
    reference_reflection,
    reference_rotation,
    reference_signed_graph,
    reference_statistic_n6,
)
from text_formats import region_to_text, tiling_from_text, tiling_to_text

DATA = os.path.join(os.path.dirname(__file__), "data")


def read_data(name):
    with open(os.path.join(DATA, name)) as fh:
        return fh.read()


def load_tiling(name, region):
    tiling = tiling_from_text(read_data(name), region)
    assert is_perfect_matching(tiling, region), name
    return tiling


def is_perfect_matching(tiling, region):
    """Whether the partner tuple pairs every cell with another cell along
    an edge of the region's reference graph, each pair read the same from
    both ends."""
    edges = {
        (i, i + bit.bit_length() - 1)
        for i, moves in enumerate(reference_graph(region.cells))
        for bit, _ in moves
    }
    return len(tiling) == len(region.cells) and all(
        0 <= j < len(tiling) and tiling[j] == i and (min(i, j), max(i, j)) in edges
        for i, j in enumerate(tiling)
    )


class TestRegion:
    def test_cell_counts(self):
        for a, b, c, m in [(3, 5, 1, 2), (2, 5, 1, 2), (1, 1, 1, 0), (4, 0, 0, 3)]:
            h = CoredHexagon(a, b, c, m)
            region = Region(h)
            assert len(region.cells) == h.cell_count
            ups = sum(1 for cell in region.cells if cell[2] == UP)
            assert 2 * ups == len(region.cells)

    def test_empty_region(self):
        assert Region(CoredHexagon(0, 0, 0, 4)).cells == ()

    def test_graph_holds_every_lozenge_once(self):
        # reference: each up cell U(x, y) meets D(x, y), D(x-1, y) and
        # D(x, y-1); a > b sweeps by rows, a <= b by columns
        for sides in itertools.product(range(5), repeat=4):
            if sides[1] % 2 != sides[2] % 2:
                continue
            region = Region(CoredHexagon(*sides))
            index = region.cell_index
            lozenges = set()
            for x, y, orient in region.cells:
                if orient == UP:
                    for down in ((x, y, DOWN), (x - 1, y, DOWN), (x, y - 1, DOWN)):
                        if down in index:
                            lozenges.add(tuple(sorted((index[(x, y, UP)], index[down]))))
            edges = [
                (i, i + bit.bit_length() - 1, factor)
                for i, moves in enumerate(reference_graph(region.cells))
                for bit, factor in moves
            ]
            assert all(factor == 1 for _, _, factor in edges), sides
            assert len(edges) == len(lozenges), sides
            assert {(i, j) for i, j, _ in edges} == lozenges, sides

    @pytest.mark.parametrize("rows", [False, True], ids=["columns", "rows"])
    def test_slots_match_the_tuple_key_reference(self, monkeypatch, rows):
        # every a, b, c <= 5 and m <= 4, each shape forced into both sweeps
        monkeypatch.setattr(tilings, "_sweeps_rows", lambda hexagon: rows)
        for a, b, c, m in itertools.product(range(6), range(6), range(6), range(5)):
            if b % 2 != c % 2:
                continue
            hexagon = CoredHexagon(a, b, c, m)
            region = Region(hexagon)
            cells = tuple(reference_cells(hexagon, rows))
            assert region.cells == cells, (a, b, c, m)
            assert region.reference_ray == reference_ray(hexagon, cells), (a, b, c, m)

    @pytest.mark.parametrize("rows", [False, True], ids=["columns", "rows"])
    def test_affine_symmetries_match_the_tuple_key_reference_up_to_a_6_m_8(
        self, monkeypatch, rows
    ):
        # the oracle draws C_a(m) up to m = 8; every such region, and a = 6
        # past it, each forced into both sweeps
        monkeypatch.setattr(tilings, "_sweeps_rows", lambda hexagon: rows)
        for a, m in itertools.product(range(7), range(9)):
            hexagon = CoredHexagon(a, a, a, m)
            region = Region(hexagon)
            cells = tuple(reference_cells(hexagon, rows))
            assert region.rotation == reference_rotation(hexagon, cells), (a, m)
            assert region.reflection == reference_reflection(hexagon, cells), (a, m)

    @pytest.mark.parametrize("rows", [False, True], ids=["columns", "rows"])
    def test_a_lookup_outside_the_box_finds_no_cell(self, monkeypatch, rows):
        # the box is -c-m <= x < b, 0 <= y < a+c+m; a step or two past any
        # side must neither reach a cell of another line nor wrap around
        # the slot list
        monkeypatch.setattr(tilings, "_sweeps_rows", lambda hexagon: rows)
        for sides in [(3, 1, 1, 1), (2, 4, 2, 1), (3, 3, 3, 2), (0, 2, 2, 1), (4, 0, 0, 3)]:
            a, b, c, m = sides
            region = Region(CoredHexagon(*sides))
            xs, ys = range(-c - m - 2, b + 2), range(-2, a + c + m + 2)
            for x, y, orient in itertools.product(xs, ys, (UP, DOWN)):
                expected = region.cell_index.get((x, y, orient), -1)
                assert region.find(x, y, orient) == expected, (sides, x, y, orient)
            assert region.find(-10**6, 0, UP) == region.find(0, 10**6, DOWN) == -1

    def test_counts_build_no_derived_view(self, monkeypatch):
        # neither the counts nor the enumerators read the tuple-keyed views:
        # plain and (-1)-counts run over the slot pairs, in both sweeps,
        # cyclic counts over orbits read off the slots, and the search reads
        # its branches off the slots too
        def refuse(region):
            raise AssertionError("a count or an enumerator read a derived view")

        for view in ("cells", "cell_index"):
            monkeypatch.setattr(tilings.Region, view, property(refuse))
        for sides in ((3, 2, 2, 1), (2, 3, 1, 1)):
            for weight in ("one", "minus1"):
                assert count_weighted(CoredHexagon(*sides), weight) == count_cored_formula(
                    *sides, signed=weight == "minus1"
                )
        for weight in tilings.WEIGHTS:
            count_weighted(CoredHexagon(3, 3, 3, 2), weight, cyclic=True)
        for sides in ((2, 2, 2, 1), (3, 1, 1, 2)):
            region = Region(CoredHexagon(*sides))
            assert sum(1 for _ in enumerate_tilings(region)) == count_weighted(region.hexagon, "one")
        region = Region(CoredHexagon(3, 3, 3, 2))
        assert sum(1 for _ in enumerate_cyclic_tilings(region)) == count_weighted(
            region.hexagon, "one", cyclic=True
        ) > 1

    @pytest.mark.parametrize("sides", [(3, 1, 1, 1), (4, 2, 0, 2), (2, 1, 3, 2), (3, 2, 2, 1)])
    def test_row_swept_regions_enumerate_what_they_count(self, sides):
        # a > b: the cells run by rows, and the search branches over the
        # same forward edges as the counts
        hexagon = CoredHexagon(*sides)
        assert tilings._sweeps_rows(hexagon)
        region = Region(hexagon)
        assert region.cells == tuple(reference_cells(hexagon, by_rows=True))
        found = list(enumerate_tilings(region))
        assert len(set(found)) == len(found) == count_weighted(hexagon, "one")
        signed = sum((-1) ** statistic_n(t, region) for t in found)
        assert signed == count_weighted(hexagon, "minus1")

    def test_placements(self):
        assert CoredHexagon(3, 5, 1, 2).placement == "centered"
        assert CoredHexagon(2, 5, 1, 2).placement == "shifted-toward-b"
        with pytest.raises(ValueError):
            CoredHexagon(1, 2, 3, 1)

    def test_normalize_sides(self):
        assert normalize_sides(1, 3, 5) == ((1, 3, 5), "abc")
        assert normalize_sides(2, 5, 1) == ((2, 5, 1), "abc")
        assert normalize_sides(1, 2, 3) == ((2, 3, 1), "bca")
        assert normalize_sides(1, 3, 2) == ((2, 1, 3), "cab")

    def test_centered_count_symmetric_in_b_c(self):
        # the centered region is congruent under any relabeling, so both
        # plain and signed counts are symmetric in b and c
        for weight, m in (("one", 2), ("minus1", 1)):
            assert count_weighted(CoredHexagon(3, 5, 1, m), weight) == count_weighted(
                CoredHexagon(3, 1, 5, m), weight
            )

    def test_shifted_swap_is_the_mirror_placement(self):
        # swapping b and c in the shifted case selects the alternative
        # equally-central core position: a different region, each matching
        # its own closed formula
        for b, c in ((5, 1), (1, 5)):
            assert count_weighted(CoredHexagon(2, b, c, 2), "one") == (
                count_cored_formula(2, b, c, 2)
            )


class TestEnumeration:
    def test_unit_hexagon(self):
        assert count_weighted(CoredHexagon(1, 1, 1, 0), "one") == 2

    def test_empty_region_has_one_tiling(self):
        assert count_weighted(CoredHexagon(0, 0, 0, 5), "one") == 1

    def test_unique_tiling_when_b_c_zero(self):
        for a, m in [(2, 1), (3, 2), (4, 3)]:
            assert count_weighted(CoredHexagon(a, 0, 0, m), "one") == 1

    def test_oracle_vs_macmahon(self):
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    if b % 2 != c % 2:
                        continue
                    h = CoredHexagon(a, b, c, 0)
                    assert count_weighted(h, "one") == macmahon_box(a, b, c)

    def test_bad_cell_cap_env_is_named(self, monkeypatch):
        monkeypatch.setenv("CORED_HEX_CELL_CAP", "abc")
        with pytest.raises(ValueError, match="CORED_HEX_CELL_CAP .*'abc'"):
            default_cell_cap()

    def test_cap_is_a_resource_error(self):
        with pytest.raises(CellCapError):
            count_weighted(CoredHexagon(3, 3, 3, 2), "one", cap=10)

    @pytest.mark.parametrize("weight, cyclic", [("one", False), ("omega3", True)])
    def test_cap_is_checked_before_the_region_is_built(self, monkeypatch, weight, cyclic):
        def refuse(hexagon):
            raise AssertionError("region built before the cap check")

        # every region asks _sweeps_rows for its sweep direction first
        monkeypatch.setattr(tilings, "_sweeps_rows", refuse)
        with pytest.raises(CellCapError):
            count_weighted(CoredHexagon(200, 200, 200, 0), weight, cyclic=cyclic)

    def test_parameter_errors_come_before_the_cap(self):
        huge = CoredHexagon(200, 200, 200, 0)
        with pytest.raises(ValueError, match="unknown weight"):
            count_weighted(huge, "two", cap=1)
        with pytest.raises(ValueError, match="cyclic tilings only"):
            count_weighted(huge, "omega6", cap=1, cyclic=False)
        with pytest.raises(ValueError, match="a = b = c"):
            count_weighted(CoredHexagon(200, 200, 0, 0), "omega3", cap=1)
        # a negative cap is a domain error, not a cap that the region exceeds
        for weight, cyclic in [("one", False), ("minus1", False), ("one", True), ("omega3", True)]:
            with pytest.raises(ValueError, match="cap must be nonnegative, got -1"):
                count_weighted(CoredHexagon(0, 0, 0, 0), weight, cap=-1, cyclic=cyclic)

    @pytest.mark.parametrize("n6", [False, True])
    def test_cyclic_histogram_checks_its_domain_and_cap_before_the_region(self, monkeypatch, n6):
        def refuse(hexagon):
            raise AssertionError("region built before the checks")

        monkeypatch.setattr(tilings, "_sweeps_rows", refuse)
        monkeypatch.delenv("CORED_HEX_CELL_CAP", raising=False)
        with pytest.raises(ValueError, match="a = b = c"):
            cyclic_histogram(CoredHexagon(200, 200, 0, 0), n6, cap=1)
        # the cap counts rotation orbits, a third of the cells
        with pytest.raises(CellCapError, match="needs 80000 search units, above the cap 120"):
            cyclic_histogram(CoredHexagon(200, 200, 200, 0), n6)
        with pytest.raises(ValueError, match="cap must be nonnegative, got -1"):
            cyclic_histogram(CoredHexagon(0, 0, 0, 0), n6, cap=-1)

    def test_signed_count_all_odd_is_zero(self):
        assert count_weighted(CoredHexagon(1, 1, 1, 1), "minus1") == 0
        assert count_weighted(CoredHexagon(3, 1, 1, 1), "minus1") == 0

    def test_signed_count_b_c_zero(self):
        # unique tiling of weight (-1)^ceil(a/2) for any a and m: its ray
        # runs ceil(a/2) segments, none straddled, and so does the empty
        # region's at m = 0, which runs along the degenerate hexagon
        for a in range(1, 7):
            for m in range(4):
                hexagon = CoredHexagon(a, 0, 0, m)
                assert len(Region(hexagon).reference_ray) == (a + 1) // 2, (a, m)
                assert count_weighted(hexagon, "minus1") == (-1) ** ((a + 1) // 2), (a, m)


def admissible(max_cells):
    """Every admissible (a, b, c, m) with entries up to max_cells // 2 and
    at most max_cells cells; past that only empty regions (two of a, b, c
    zero and m = 0, or a = b = c = 0) remain, since a nonempty region has
    at least twice as many cells as its largest entry."""
    top = max_cells // 2 + 1
    for a in range(top):
        for b in range(top):
            for c in range(b % 2, top, 2):
                for m in range(top):
                    if CoredHexagon(a, b, c, m).cell_count > max_cells:
                        break
                    yield a, b, c, m


@st.composite
def random_graphs(draw):
    """A multigraph on up to 10 vertices as (n, edges (u, v, factor), a
    vertex order, a modulus or 0)."""
    n = draw(st.integers(0, 10))
    edges = []
    if n >= 2:
        vertex = st.integers(0, n - 1)
        drawn = draw(st.lists(st.tuples(vertex, vertex, st.integers(-3, 3)), max_size=16))
        edges = [(u, v, factor) for u, v, factor in drawn if u != v]
        # a path through consecutive vertices makes forced steps likely
        if draw(st.booleans()):
            edges += [(v, v + 1, draw(st.integers(-3, 3))) for v in range(n - 1)]
    order = draw(st.permutations(range(n)))
    modulus = draw(st.sampled_from([0, 0, 7, (1 << 12) - 1]))
    return n, edges, order, modulus


def matching_sum(n, edges):
    """Sum over the perfect matchings of the multigraph of the product of
    their edge factors, by pairing the lowest free vertex every way."""
    def total(free):
        if not free:
            return 1
        low = min(free)
        result = 0
        for u, v, factor in edges:
            if low in (u, v):
                other = v if u == low else u
                if other in free:
                    result += factor * total(free - {low, other})
        return result

    return total(frozenset(range(n)))


class TestFrontierCount:
    def test_matches_backtracking_up_to_60_cells(self):
        for sides in admissible(60):
            hexagon = CoredHexagon(*sides)
            region = Region(hexagon)
            plain = signed = 0
            for tiling in enumerate_tilings(region):
                plain += 1
                signed += (-1) ** statistic_n(tiling, region)
            assert count_weighted(hexagon, "one") == plain, sides
            assert count_weighted(hexagon, "minus1") == signed, sides

    @given(
        st.tuples(
            st.integers(0, 8), st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)
        ).filter(
            lambda t: t[1] % 2 == t[2] % 2 and CoredHexagon(*t).cell_count <= 400
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_determinant_and_formula(self, sides):
        # the lattice-path determinant is the plain count for even m and the
        # (-1)-count for odd m
        a, b, c, m = sides
        signed = m % 2 == 1
        eps = 0 if a % 2 == b % 2 else Fraction(1, 2)
        dp = count_weighted(CoredHexagon(*sides), "minus1" if signed else "one", cap=400)
        assert dp == det_fraction_free(build_cored_matrix(a, b, c, m, eps))
        assert dp == count_cored_formula(a, b, c, m, signed=signed)

    def test_row_and_column_sweeps_agree_up_to_120_cells(self, monkeypatch):
        # the sweep rule picks one order per region; the other order must
        # give the same plain and signed count
        def counts(sides):
            hexagon = CoredHexagon(*sides)
            return count_weighted(hexagon, "one"), count_weighted(hexagon, "minus1")

        expected = {sides: counts(sides) for sides in admissible(120)}
        sweeps_rows = tilings._sweeps_rows
        monkeypatch.setattr(tilings, "_sweeps_rows", lambda hexagon: not sweeps_rows(hexagon))
        for sides, values in expected.items():
            assert counts(sides) == values, sides

    @pytest.mark.parametrize("rows", [False, True], ids=["columns", "rows"])
    def test_slot_pairs_equal_the_graph_transfer_matrix_up_to_120_cells(self, monkeypatch, rows):
        # every tuple forced into both sweeps; the (-1)-count against the
        # graph with its ray edges rewritten
        monkeypatch.setattr(tilings, "_sweeps_rows", lambda hexagon: rows)
        for sides in admissible(120):
            region = Region(CoredHexagon(*sides))
            plain, signed = tilings._pair_count(region, False), tilings._pair_count(region, True)
            assert plain == tilings._frontier_count(reference_graph(region.cells)), sides
            assert signed == tilings._frontier_count(reference_signed_graph(region)), sides

    @pytest.mark.parametrize("rows", [False, True], ids=["columns", "rows"])
    def test_slot_pair_states_claim_only_cells_of_the_region(self, monkeypatch, rows):
        # bit j of a state claims the up cell in slot k+2j; read off a line
        # trace at the head of each step, every claimed cell is there, so no
        # move reaches a missing cell, not even on the padding line past the
        # last, where a claim could never be met and would only cost states
        monkeypatch.setattr(tilings, "_sweeps_rows", lambda hexagon: rows)
        code = tilings._pair_count.__code__
        lines, first = inspect.getsourcelines(tilings._pair_count)
        head = [line.strip() for line in lines].index("gap, advanced = (after - k) >> 1, {}")
        head += first
        claims = []

        def step(frame, event, arg):
            if event == "line" and frame.f_lineno == head:
                k, slots = frame.f_locals["k"], frame.f_locals["slots"]
                for mask in frame.f_locals["states"]:
                    bits = range(mask.bit_length())
                    claims.extend(slots[k + 2 * j] for j in bits if mask >> j & 1)
            return step

        def call(frame, event, arg):
            return step if frame.f_code is code else None

        previous = sys.gettrace()
        for sides in ((3, 2, 2, 1), (2, 3, 1, 2), (4, 0, 2, 1), (1, 4, 2, 3), (3, 3, 3, 0)):
            region = Region(CoredHexagon(*sides))
            sys.settrace(call)
            try:
                tilings._pair_count(region, signed=True)
            finally:
                sys.settrace(previous)
        assert claims and min(claims) >= 0

    def test_counts_equal_the_formula_at_every_m_up_to_120_cells(self):
        # the determinant meets the (-1)-count at odd m only; here both
        # weights meet the formula at every m, zero sides and empty regions
        # included
        for sides in admissible(120):
            for weight in ("one", "minus1"):
                assert count_weighted(CoredHexagon(*sides), weight) == count_cored_formula(
                    *sides, signed=weight == "minus1"
                ), (sides, weight)

    @given(random_graphs())
    @settings(max_examples=300, deadline=None)
    @example((4, [(0, 1, 2), (1, 2, 3), (1, 3, -1), (2, 3, 5)], [0, 1, 2, 3], 0))
    @example((4, [(0, 1, 4), (0, 2, 2), (0, 3, 1), (1, 2, 3), (2, 3, 5)], [0, 1, 2, 3], 0))
    @example((6, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (0, 5, 7)],
              [0, 1, 2, 3, 4, 5], 11))
    @example((4, [(0, 1, 1), (1, 2, 3), (1, 3, -1), (2, 3, 5)], [0, 1, 2, 3], 0))
    @example((6, [(0, 1, 1), (0, 3, 2), (1, 2, 1), (2, 3, 3), (2, 5, 5), (3, 4, 1), (4, 5, 7)],
              [0, 1, 2, 3, 4, 5], 11))
    def test_transfer_loop_matches_brute_force(self, drawn):
        # the examples hold a forced step (0's only later edge goes to 1,
        # which nothing else reaches) of factor 2, a vertex 1 whose only
        # later edge goes to 2 while 0 reaches 2 too, and a chain of forced
        # steps of factors 3 to 6 under a modulus, none of them fused, as
        # only steps of factor 1 are; then the first again with factor 1,
        # and two fused steps of factor 1 between other factors under a
        # modulus
        n, edges, order, modulus = drawn
        position = {vertex: p for p, vertex in enumerate(order)}
        graph = [[] for _ in range(n)]
        for u, v, factor in edges:
            i, j = sorted((position[u], position[v]))
            graph[i].append((1 << (j - i), factor))
        expected = matching_sum(n, edges)
        assert tilings._frontier_count(graph, modulus) == (
            expected % modulus if modulus else expected
        )

    def test_passes_fuse_by_in_degree(self):
        # every pass of the transfer loop starts at the vertex the in-degree
        # rule gives: a step of factor 1 from i to i+1, i's only edge, is
        # fused with the next when no other edge reaches i+1; read off a
        # line trace of the loop on plain, (-1) and orbit graphs
        def pass_starts(graph):
            reached = [0] * (len(graph) + 1)
            for i, moves in enumerate(graph):
                for bit, _ in moves:
                    reached[i + bit.bit_length() - 1] += 1
            starts, i = [], 0
            while i < len(graph):
                starts.append(i)
                i += 1 + (list(graph[i]) == [(2, 1)] and reached[i + 1] == 1)
            return starts

        code = tilings._frontier_count.__code__
        lines, first = inspect.getsourcelines(tilings._frontier_count)
        loop_line = first + [line.strip() for line in lines].index("moves = graph[i]")
        traced = []

        def step(frame, event, arg):
            if event == "line" and frame.f_lineno == loop_line:
                traced[-1][1].append(frame.f_locals["i"])
            return step

        def call(frame, event, arg):
            if frame.f_code is code:
                traced.append((frame.f_locals["graph"], []))
                return step
            return None

        def regions(*tuples):
            return [Region(CoredHexagon(*sides)) for sides in tuples]

        runs = {
            "plain": lambda: [tilings._frontier_count(reference_graph(region.cells)) for region in
                              regions((4, 2, 2, 0), (3, 1, 3, 2), (1, 3, 3, 2), (2, 3, 1, 3))],
            "minus1": lambda: [tilings._frontier_count(reference_signed_graph(region))
                               for region in
                               regions((4, 2, 2, 1), (3, 3, 3, 1), (1, 3, 3, 2), (2, 4, 2, 3))],
            "orbit": lambda: [count_weighted(CoredHexagon(a, a, a, m), weight) for a, m, weight in
                              ((3, 1, "omega3"), (4, 2, "omega6"), (4, 1, "minus1-n6"))],
        }
        previous = sys.gettrace()
        for kind, run in runs.items():
            traced.clear()
            sys.settrace(call)
            try:
                run()
            finally:
                sys.settrace(previous)
            assert traced, kind
            for graph, starts in traced:
                assert starts == pass_starts(graph), kind
            passes = sum(len(starts) for _, starts in traced)
            assert passes < sum(len(graph) for graph, _ in traced), f"{kind}: nothing fused"

    def test_imports_neither_lgv_nor_formulas(self):
        # the matching-level oracle must stay independent of the routes it checks
        modules = set()
        for node in ast.walk(ast.parse(inspect.getsource(tilings))):
            if isinstance(node, ast.ImportFrom):
                modules.add(node.module or "")
            elif isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
        assert {name.rsplit(".", 1)[-1] for name in modules}.isdisjoint({"lgv", "formulas"})


def weighted(hist, omega):
    """The sum of omega ** r over a histogram of a statistic mod 6, each
    power one multiply past the last."""
    total, power = 0, 1
    for h in hist:
        total, power = total + h * power, power * omega
    return total


class TestOrbitCount:
    def test_matches_backtracking_up_to_80_orbits(self):
        # every C_a(m) with a <= 5, m <= 8 and at most 80 rotation orbits
        for a in range(6):
            for m in range(9):
                hexagon = CoredHexagon(a, a, a, m)
                if hexagon.cell_count // 3 > 80:
                    continue
                region = Region(hexagon)
                hist_n, hist_n6 = [0] * 6, [0] * 6
                for tiling in enumerate_cyclic_tilings(region, cap=80):
                    assert is_cyclically_symmetric(tiling, region)
                    # n6 is scored by the path walk, independent of the
                    # lozenge weights that statistic_n6 and the histogram sum
                    n6 = reference_statistic_n6(tiling, region)
                    assert statistic_n6(tiling, region) == n6
                    hist_n[statistic_n(tiling, region) % 6] += 1
                    hist_n6[n6 % 6] += 1
                assert cyclic_histogram(hexagon, cap=80) == hist_n, (a, m)
                assert cyclic_histogram(hexagon, n6=True, cap=80) == hist_n6, (a, m)
                expected = {
                    "one": weighted(hist_n, 1),
                    "minus1": weighted(hist_n, -1),
                    "omega3": weighted(hist_n, omega3()),
                    "omega6": weighted(hist_n, omega6()),
                    "minus1-n6": weighted(hist_n6, -1),
                }
                for weight, value in expected.items():
                    assert count_weighted(hexagon, weight, cap=80, cyclic=True) == value, (
                        a, m, weight
                    )
                    hist = hist_n6 if weight == "minus1-n6" else hist_n
                    assert apply_weight(hist, weight) == value, (a, m, weight)

    def test_row_and_column_sweeps_agree_up_to_a_5_m_8(self, monkeypatch):
        # the other sweep renumbers the cells, and with them the orbits, their
        # representatives and the order of the transfer matrix
        def histograms(a, m):
            hexagon = CoredHexagon(a, a, a, m)
            return [cyclic_histogram(hexagon, n6, cap=130) for n6 in (False, True)]

        expected = {(a, m): histograms(a, m) for a in range(6) for m in range(9)}
        sweeps_rows = tilings._sweeps_rows
        monkeypatch.setattr(tilings, "_sweeps_rows", lambda hexagon: not sweeps_rows(hexagon))
        for (a, m), hists in expected.items():
            assert histograms(a, m) == hists, (a, m)

    @pytest.mark.parametrize("rows", [False, True], ids=["columns", "rows"])
    def test_slot_read_orbit_edges_equal_the_graph_walk_up_to_a_6_m_8(self, monkeypatch, rows):
        # every C_a(m) the oracle draws, and a = 6 past it, each forced into
        # both sweeps, under the weights of n and of n6; a lowest up cell on
        # the first line reads slot k-2L+1 wrapped round to the end, and
        # some on later lines find no down cell in slot k-1
        monkeypatch.setattr(tilings, "_sweeps_rows", lambda hexagon: rows)
        first_line = missing = 0
        for a, m in itertools.product(range(7), range(9)):
            hexagon = CoredHexagon(a, a, a, m)
            region = Region(hexagon)
            cells = tuple(reference_cells(hexagon, rows))
            rotation = reference_rotation(hexagon, cells)
            ray = {(east, west): 1 for west, east in region.reference_ray if min(west, east) >= 0}
            for weights in (ray, region._n6_weights):
                edges = tilings._orbit_edges(region, weights)
                read = Counter((o, p, e) for o, out in enumerate(edges) for p, e in out)
                assert read == reference_orbit_edges(cells, rotation, weights), (a, m, weights)
            stride = region._stride
            ups = [
                k for i, k in enumerate(region.slot_of)
                if k % 2 == 0 and i < rotation[i] and i < rotation[rotation[i]]
            ]
            first_line += sum(k < stride for k in ups)
            missing += sum(k > stride and region.slots[k - 1] < 0 for k in ups)
        assert first_line and missing

    def test_n6_weights_follow_the_reference_walk_in_the_row_sweep(self, monkeypatch):
        # a = b = c sweeps by columns, where the tests above score n6 by the
        # path walk; forced into rows, the lozenge weights must follow
        monkeypatch.setattr(tilings, "_sweeps_rows", lambda hexagon: True)
        checked = 0
        for a, m in itertools.product(range(5), range(4)):
            region = Region(CoredHexagon(a, a, a, m))
            for tiling in enumerate_cyclic_tilings(region, cap=80):
                assert statistic_n6(tiling, region) == reference_statistic_n6(tiling, region)
                checked += 1
        assert checked > 1000, checked

    @pytest.mark.parametrize("rows", [False, True], ids=["columns", "rows"])
    def test_cyclic_enumeration_follows_the_reference_search_up_to_60_orbits(
        self, monkeypatch, rows
    ):
        # every C_a(m) of at most 60 orbits, each forced into both sweeps: the
        # same tilings in the same order as the search over the tuple-keyed
        # graph and rotation
        monkeypatch.setattr(tilings, "_sweeps_rows", lambda hexagon: rows)
        compared = 0
        for a, m in itertools.product(range(6), range(30)):
            hexagon = CoredHexagon(a, a, a, m)
            if hexagon.cell_count // 3 > 60:
                continue
            found = list(enumerate_cyclic_tilings(Region(hexagon), cap=60))
            assert found == list(reference_matchings(hexagon, rows, cyclic=True)), (a, m)
            compared += len(found)
        assert compared > 1000, compared

    def test_enumeration_wraps_the_partner_arrays_of_the_search(self):
        region = Region(CoredHexagon(3, 3, 3, 2))
        expected = [tuple(p) for p in tilings._matchings(region, cyclic=True)]
        assert len(expected) > 1
        assert list(enumerate_cyclic_tilings(region)) == expected

    def test_matches_the_closed_forms_up_to_a_7_m_5(self):
        # up to 168 orbits at C_7(5), past the default cap
        for a in range(8):
            for m in range(6):
                hexagon = CoredHexagon(a, a, a, m)
                for weight, case in (
                    ("one", OMEGA_ONE),
                    ("minus1", OMEGA_MINUS_ONE),
                    ("omega3", OMEGA_THIRD),
                    ("omega6", OMEGA_SIXTH),
                ):
                    assert count_weighted(hexagon, weight, cap=168, cyclic=True) == (
                        rhs_omega_det(a, m, case)
                    ), (a, m, weight)
                assert count_weighted(hexagon, "minus1-n6", cap=168) == rhs_case10(a, m), (a, m)


class TestStatisticN:
    def test_figure_example(self):
        # the worked example tiling of C_{5,3,1}(2) has two lozenge edges on
        # the extension of the core side
        region = Region(CoredHexagon(5, 3, 1, 2))
        tiling = load_tiling("ray_example.txt", region)
        assert statistic_n(tiling, region) == 2

    def test_b_c_zero_value(self):
        for a, m in [(2, 1), (4, 3), (4, 2)]:
            region = Region(CoredHexagon(a, 0, 0, m))
            (tiling,) = list(enumerate_tilings(region))
            assert statistic_n(tiling, region) == a // 2

    def test_m_zero_counts_diagonal_boxes(self):
        region = Region(CoredHexagon(2, 2, 2, 0))
        for tiling in enumerate_tilings(region):
            pp = tiling_to_plane_partition(tiling, region)
            assert statistic_n(tiling, region) == plane_partition_diagonal_count(pp)

    def test_rotation_invariance_for_cyclic_tilings(self):
        region = Region(CoredHexagon(3, 3, 3, 2))
        rot = region.rotation
        for tiling in enumerate_cyclic_tilings(region):
            rotated = [-1] * len(tiling)
            for i, j in enumerate(tiling):
                rotated[rot[i]] = rot[j]
            assert statistic_n(tuple(rotated), region) == statistic_n(tiling, region)


class TestCyclic:
    def test_figure_tiling_is_cyclic(self):
        region = Region(CoredHexagon(3, 3, 3, 2))
        tiling = load_tiling("cyclic_example.txt", region)
        assert is_cyclically_symmetric(tiling, region)

    def test_extreme_tilings_are_cyclic(self):
        region = Region(CoredHexagon(2, 2, 2, 0))
        cyclic = [
            t for t in enumerate_tilings(region) if is_cyclically_symmetric(t, region)
        ]
        full_or_empty = []
        for t in cyclic:
            pp = tiling_to_plane_partition(t, region)
            size = plane_partition_size(pp)
            if size in (0, 8):
                full_or_empty.append(size)
        assert sorted(full_or_empty) == [0, 8]

    def test_cyclic_enumeration_matches_filter(self):
        for a, m in [(2, 1), (3, 0), (3, 2)]:
            region = Region(CoredHexagon(a, a, a, m))
            filtered = {
                t for t in enumerate_tilings(region) if is_cyclically_symmetric(t, region)
            }
            direct = set(enumerate_cyclic_tilings(region))
            assert filtered == direct

    def test_the_up_cells_decide_the_symmetry(self):
        # against t(r(x)) = r(t(x)) on every cell, on every tiling of C_a(m)
        # with a <= 3 and m <= 2, symmetric or not; C_3(2) has 13,608
        seen = set()
        for a, m in itertools.product(range(4), range(3)):
            region = Region(CoredHexagon(a, a, a, m))
            rot = region.rotation
            for tiling in enumerate_tilings(region):
                every_cell = [tiling[r] for r in rot] == [rot[p] for p in tiling]
                assert is_cyclically_symmetric(tiling, region) == every_cell, (a, m)
                seen.add(every_cell)
        assert seen == {True, False}

    def test_needs_equilateral(self):
        region = Region(CoredHexagon(2, 4, 2, 1))
        tiling = next(enumerate_tilings(region))
        with pytest.raises(ValueError):
            is_cyclically_symmetric(tiling, region)


class TestEnumeratedTilings:
    @pytest.mark.parametrize("sides", [(2, 2, 2, 1), (3, 1, 1, 2)], ids=["columns", "rows"])
    def test_every_tiling_is_a_perfect_matching_of_the_graph(self, sides):
        # a <= b sweeps the cells by columns, a > b by rows
        region = Region(CoredHexagon(*sides))
        found = list(enumerate_tilings(region))
        assert len(found) == count_weighted(region.hexagon, "one") > 1
        assert all(is_perfect_matching(t, region) for t in found)

    @pytest.mark.parametrize("rows", [False, True], ids=["columns", "rows"])
    def test_enumeration_follows_the_reference_search_up_to_60_cells(self, monkeypatch, rows):
        # every admissible region of at most 60 cells, each forced into both
        # sweeps: the same tilings in the same order as the search over the
        # tuple-keyed graph
        monkeypatch.setattr(tilings, "_sweeps_rows", lambda hexagon: rows)
        compared = 0
        for sides in admissible(60):
            hexagon = CoredHexagon(*sides)
            found = list(enumerate_tilings(Region(hexagon)))
            assert found == list(reference_matchings(hexagon, rows, cyclic=False)), sides
            compared += len(found)
        assert compared > 10000, compared

    @pytest.mark.parametrize("rows", [False, True], ids=["columns", "rows"])
    def test_every_cyclic_tiling_is_a_rotation_invariant_matching(self, monkeypatch, rows):
        # a = b = c sweeps by columns; the row order is forced here
        monkeypatch.setattr(tilings, "_sweeps_rows", lambda hexagon: rows)
        hexagon = CoredHexagon(3, 3, 3, 2)
        region = Region(hexagon)
        assert region.cells == tuple(reference_cells(hexagon, rows))
        rot = region.rotation
        found = list(enumerate_cyclic_tilings(region))
        assert len(found) == count_weighted(hexagon, "one", cyclic=True) > 1
        for tiling in found:
            assert is_perfect_matching(tiling, region)
            assert all(tiling[rot[i]] == rot[j] for i, j in enumerate(tiling))


class TestLazyEnumeration:
    def test_errors_raise_at_the_call(self):
        region = Region(CoredHexagon(3, 3, 3, 2))
        with pytest.raises(CellCapError):
            enumerate_tilings(region, cap=10)
        with pytest.raises(CellCapError):
            enumerate_cyclic_tilings(region, cap=10)
        with pytest.raises(ValueError):
            enumerate_cyclic_tilings(Region(CoredHexagon(2, 4, 2, 1)))
        for enumerate_ in (enumerate_tilings, enumerate_cyclic_tilings):
            with pytest.raises(ValueError, match="cap must be nonnegative, got -1"):
                enumerate_(Region(CoredHexagon(0, 0, 0, 0)), cap=-1)

    def test_search_deeper_than_the_recursion_limit(self):
        region = Region(CoredHexagon(14, 14, 14, 14))
        assert len(region.cells) // 2 > sys.getrecursionlimit()
        assert is_perfect_matching(next(enumerate_tilings(region, cap=3000)), region)
        assert is_perfect_matching(next(enumerate_cyclic_tilings(region, cap=3000)), region)


class TestStatisticN6:
    def test_figure_example(self):
        # the worked example: distances 2+1+0+0+0 of the five horizontal
        # lozenges in one fundamental domain
        region = Region(CoredHexagon(3, 3, 3, 2))
        tiling = load_tiling("orbit_example.txt", region)
        assert statistic_n6(tiling, region) == 3

    def test_m_zero_counts_off_diagonal_orbits(self):
        for a in (1, 2, 3):
            region = Region(CoredHexagon(a, a, a, 0))
            for tiling in enumerate_cyclic_tilings(region):
                pp = tiling_to_plane_partition(tiling, region)
                m1 = plane_partition_diagonal_count(pp)
                m6 = (plane_partition_size(pp) - m1) // 3
                assert statistic_n6(tiling, region) == m6

    def test_empty_plane_partition(self):
        region = Region(CoredHexagon(3, 3, 3, 0))
        empties = [
            t
            for t in enumerate_cyclic_tilings(region)
            if plane_partition_size(tiling_to_plane_partition(t, region)) == 0
        ]
        assert len(empties) == 1
        assert statistic_n6(empties[0], region) == 0

    def test_non_cyclic_rejected(self):
        region = Region(CoredHexagon(2, 2, 2, 1))
        non_cyclic = [
            t
            for t in enumerate_tilings(region)
            if not is_cyclically_symmetric(t, region)
        ]
        with pytest.raises(ValueError):
            statistic_n6(non_cyclic[0], region)


def paths_to_tiling(paths, region):
    """Inverse of tiling_to_paths: path steps fix two lozenge orientations,
    the remaining cells pair into the third."""
    index = region.cell_index
    partner = [-1] * len(region.cells)

    def place(i, j):
        assert partner[i] < 0 and partner[j] < 0, "overlapping lozenges"
        partner[i] = j
        partner[j] = i

    for path in paths:
        for (x1, y1), (x2, y2) in zip(path, path[1:]):
            bx, by = x1 - y1, y1
            if (x2, y2) == (x1 + 1, y1):
                place(index[(bx, by, UP)], index[(bx, by, DOWN)])
            elif (x2, y2) == (x1, y1 - 1):
                place(index[(bx, by, UP)], index[(bx, by - 1, DOWN)])
            else:
                raise ValueError("steps must be east or south")
    for i, (x, y, orient) in enumerate(region.cells):
        if orient == UP and partner[i] < 0:
            place(i, index[(x - 1, y, DOWN)])
    assert all(p >= 0 for p in partner), "paths do not determine a tiling"
    return tuple(partner)


def path_sign(paths):
    """The sign of the permutation sending each path's start to its end:
    the path from A_i ends at E_j with j = Y_end + 1."""
    sigma = [path[-1][1] + 1 for path in paths]
    seen = [False] * len(sigma)
    sign = 1
    for i in range(len(sigma)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = sigma[j] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class TestPaths:
    @pytest.mark.parametrize("sides", [(2, 2, 2, 1), (3, 1, 1, 2), (2, 3, 1, 1), (1, 2, 2, 2)])
    def test_bijection_round_trip(self, sides):
        region = Region(CoredHexagon(*sides))
        for tiling in enumerate_tilings(region):
            paths = tiling_to_paths(tiling, region)
            assert paths_to_tiling(paths, region) == tiling

    def test_start_and_end_coordinates(self):
        a, b, c, m = 3, 5, 1, 2
        region = Region(CoredHexagon(a, b, c, m))
        tiling = next(enumerate_tilings(region))
        paths = tiling_to_paths(tiling, region)
        starts = [(i - 1, c + m + i - 1) for i in range(1, a + 1)]
        starts += [
            ((a + b) // 2 + i - a - 1, (a + c) // 2 + i - a - 1)
            for i in range(a + 1, a + m + 1)
        ]
        assert [path[0] for path in paths] == starts
        for X, Y in (path[-1] for path in paths):
            assert X - Y == b

    def test_shifted_start_coordinates(self):
        a, b, c, m = 2, 5, 1, 2
        region = Region(CoredHexagon(a, b, c, m))
        tiling = next(enumerate_tilings(region))
        core_starts = [path[0] for path in tiling_to_paths(tiling, region)[a:]]
        expected = [
            ((a + b - 1) // 2 + i - a - 1, (a + c - 1) // 2 + i - a - 1)
            for i in range(a + 1, a + m + 1)
        ]
        assert list(core_starts) == expected

    @pytest.mark.parametrize("sides", [(2, 2, 2, 1), (1, 2, 2, 1), (3, 1, 1, 1)])
    def test_sign_tracks_statistic_for_odd_core(self, sides):
        region = Region(CoredHexagon(*sides))
        for tiling in enumerate_tilings(region):
            paths = tiling_to_paths(tiling, region)
            assert path_sign(paths) == (-1) ** statistic_n(tiling, region)

    @pytest.mark.parametrize("sides", [(2, 2, 2, 2), (1, 2, 2, 2), (2, 1, 1, 0)])
    def test_sign_is_plus_one_for_even_core(self, sides):
        region = Region(CoredHexagon(*sides))
        for tiling in enumerate_tilings(region):
            assert path_sign(tiling_to_paths(tiling, region)) == 1


class TestPlanePartitions:
    def test_distinct_arrays_match_box_count(self):
        for a, b, c in [(2, 2, 2), (2, 1, 3), (1, 2, 2)]:
            region = Region(CoredHexagon(a, b, c, 0))
            arrays = {
                tuple(map(tuple, tiling_to_plane_partition(t, region)))
                for t in enumerate_tilings(region)
            }
            assert len(arrays) == macmahon_box(a, b, c)

    def test_extremes(self):
        region = Region(CoredHexagon(2, 2, 2, 0))
        sizes = sorted(
            plane_partition_size(tiling_to_plane_partition(t, region))
            for t in enumerate_tilings(region)
        )
        assert sizes[0] == 0 and sizes[-1] == 8

    def test_monotone_and_bounded(self):
        a, b, c = 2, 3, 3
        region = Region(CoredHexagon(a, b, c, 0))
        for tiling in enumerate_tilings(region):
            pp = tiling_to_plane_partition(tiling, region)
            assert len(pp) == a and all(len(row) == b for row in pp)
            assert all(0 <= v <= c for row in pp for v in row)

    def test_requires_m_zero(self):
        region = Region(CoredHexagon(1, 1, 1, 1))
        tiling = next(enumerate_tilings(region))
        with pytest.raises(ValueError):
            tiling_to_plane_partition(tiling, region)


small_hexagons = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
).filter(lambda t: t[1] % 2 == t[2] % 2)


class TestRandomRegions:
    @given(small_hexagons)
    @settings(max_examples=25, deadline=None)
    def test_paths_are_disjoint_and_invertible(self, sides):
        region = Region(CoredHexagon(*sides))
        for tiling in enumerate_tilings(region):
            paths = tiling_to_paths(tiling, region)
            assert paths_to_tiling(paths, region) == tiling

    @given(small_hexagons)
    @settings(max_examples=25, deadline=None)
    def test_statistic_n_bounded_by_ray(self, sides):
        region = Region(CoredHexagon(*sides))
        for tiling in enumerate_tilings(region):
            n = statistic_n(tiling, region)
            assert 0 <= n <= len(region.reference_ray)


class TestPolynomialityInCore:
    @pytest.mark.parametrize("abc", [(1, 1, 1), (2, 2, 2), (2, 1, 1), (1, 1, 3)])
    def test_plain_count_is_polynomial_in_m(self, abc):
        # finite differences of the brute-force counts stabilize at some
        # degree D and the degree-D interpolant predicts two more values
        values = [count_weighted(CoredHexagon(*abc, m), "one") for m in range(8)]
        degree = None
        row = values[:6]
        d = 0
        while any(v != 0 for v in row):
            row = [y - x for x, y in zip(row, row[1:])]
            d += 1
            assert len(row) >= 2, f"no stabilization for {abc}"
        degree = d - 1
        # vanishing (D+1)-st differences over the extended window = the
        # interpolant hits the two extra values exactly
        row = list(values)
        for _ in range(degree + 1):
            row = [y - x for x, y in zip(row, row[1:])]
        assert all(v == 0 for v in row), (abc, degree, values)


class TestSerialization:
    def test_round_trip(self):
        region = Region(CoredHexagon(2, 2, 2, 1))
        tiling = next(enumerate_tilings(region))
        assert tiling_from_text(tiling_to_text(tiling, region), region) == tiling

    def test_golden_region(self):
        expected = read_data("region_1_1_1_0.txt")
        assert region_to_text(Region(CoredHexagon(1, 1, 1, 0))) == expected

    def test_golden_tiling(self):
        region = Region(CoredHexagon(5, 3, 1, 2))
        tiling = load_tiling("ray_example.txt", region)
        expected = read_data("ray_example.txt")
        assert tiling_to_text(tiling, region) == expected
