import time

import pytest
from hypothesis import example, given, settings, strategies as st

from topocbt import simplicial
from topocbt.simplicial import (
    MAX_CELLS,
    Simplex,
    SimplicialComplex,
    betti_by_stage,
    betti_from_generators,
    close_by_dimension,
    complex_to_text,
    generators_from_text,
)
from oracles import (
    SplitMix64,
    UnionFind,
    all_subsets_closure,
    betti_from_cells,
    cells_of,
    complex_from_text,
    dense_betti,
    gf2_matmul,
    read_complex,
    subsets,
    vertices as oracle_vertices,
)


def closed(*vertex_tuples):
    return SimplicialComplex.from_simplices([Simplex(t) for t in vertex_tuples])


# -- simplex basics ---------------------------------------------------------

def test_simplex_rejects_duplicates_and_disorder():
    with pytest.raises(ValueError):
        Simplex((1, 1, 2))
    with pytest.raises(ValueError):
        Simplex((2, 1))
    with pytest.raises(ValueError):
        Simplex(())
    with pytest.raises(ValueError):
        Simplex(tuple(sorted((3, 3))))


def test_simplex_dimension_and_faces():
    s = Simplex((0, 1, 2))
    assert s.dimension == 2
    faces = SimplicialComplex.from_simplices([s]).members() - {s}
    assert sorted(f.vertices for f in faces) == [
        (0,), (0, 1), (0, 2), (1,), (1, 2), (2,)
    ]
    assert sorted(f.vertices for f in s.boundary()) == [(0, 1), (0, 2), (1, 2)]


# -- closure by construction ---------------------------------------------------

def test_the_constructor_closes_its_generators():
    assert SimplicialComplex([(0, 1)]) == SimplicialComplex([(0,), (1,), (0, 1)])
    assert SimplicialComplex([(0, 1)]).betti_numbers() == (1, 0)
    assert SimplicialComplex([[0, 1, 2]]).betti_numbers() == (1, 0, 0)
    assert SimplicialComplex.from_simplices([Simplex((0, 1, 2))]).betti_numbers() == (1, 0, 0)
    with pytest.raises(ValueError):
        SimplicialComplex([(1, 0)])


@pytest.mark.parametrize("cell", [(1, 0), (2, 2), (), (-1,), (0, "1")], ids=repr)
def test_the_constructor_checks_each_generator_by_the_simplex_rule(cell):
    with pytest.raises(ValueError):
        SimplicialComplex([(0, 1, 2), cell])


# -- boundary matrices --------------------------------------------------------

def test_boundary_matrix_hollow_triangle():
    c = closed((0, 1), (1, 2), (0, 2))
    b1 = c.boundary_matrix(1)
    assert (len(b1.data), len(b1.data[0])) == (3, 3)
    assert all(sum(col) == 2 for col in zip(*b1.data))


def test_boundary_matrix_of_solid_tetrahedron_top():
    c = closed((0, 1, 2, 3))
    b3 = c.boundary_matrix(3)
    assert (len(b3.data), len(b3.data[0])) == (4, 1)
    assert sum(map(sum, b3.data)) == 4


def test_boundary_matrix_k_out_of_range():
    c = closed((0, 1))
    with pytest.raises(ValueError):
        c.boundary_matrix(0)
    with pytest.raises(ValueError):
        c.boundary_matrix(2)


def test_boundary_matrix_column_ordering_canonical():
    c = closed((0, 1, 2), (1, 2, 3))
    b2 = c.boundary_matrix(2)
    assert [s.vertices for s in b2.cols] == [(0, 1, 2), (1, 2, 3)]
    assert [s.vertices for s in b2.rows] == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


# -- betti numbers -------------------------------------------------------------

def test_betti_empty_and_point():
    assert SimplicialComplex().betti_numbers() == ()
    assert closed((0,)).betti_numbers() == (1,)


def test_betti_linked_tetrahedron_triangle_edge():
    c = closed((0, 1, 2, 3), (4, 5, 6), (3, 4))
    assert c.betti_numbers() == (1, 0, 0, 0)


def test_betti_circle_and_sphere():
    # a hollow triangle is a circle
    circle = closed((0, 1), (1, 2), (0, 2))
    assert len(circle) == 6
    assert circle.betti_numbers() == (1, 1)
    # the boundary of a tetrahedron is a 2-sphere
    sphere = closed((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert Simplex((0, 1, 2, 3)) not in sphere
    assert sphere.betti_numbers() == (1, 0, 1)


def test_remove_top_cell_leaves_hollow_triangle():
    top = Simplex((0, 1, 2))
    c = SimplicialComplex.from_simplices(s for s in closed((0, 1, 2)) if s != top)
    assert top not in c
    assert len(c) == 6
    assert c.betti_numbers() == (1, 1)


# minimal triangulations whose homology needs higher ranks and clearing
TORUS = [(i % 7, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [(i % 7, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
PROJECTIVE_PLANE = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                    (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]


@pytest.mark.parametrize("tops, betti", [
    (TORUS, (1, 2, 1)),
    (PROJECTIVE_PLANE, (1, 1, 1)),  # over GF(2) the projective plane has b1 = b2 = 1
    ([(0, 1, 2, 3, 4, 5)], (1, 0, 0, 0, 0, 0)),
    ([(0, 1, 2, 3, 4), (3, 4, 5, 6, 7), (0, 7)], (1, 1, 0, 0, 0)),
], ids=["torus", "projective-plane", "5-simplex", "two-4-simplices-in-a-ring"])
def test_bitset_betti_on_known_spaces(tops, betti):
    generators = [tuple(sorted(t)) for t in tops]
    c = SimplicialComplex.from_simplices(Simplex(g) for g in generators)
    assert dense_betti(c) == betti
    assert c.betti_numbers() == betti
    assert betti_from_cells(close_by_dimension(generators)) == betti


def test_close_by_dimension_groups_the_closure():
    cells = close_by_dimension([(0, 1, 2), (2, 3), (1, 2)])
    assert cells == [{(0,), (1,), (2,), (3,)}, {(0, 1), (0, 2), (1, 2), (2, 3)}, {(0, 1, 2)}]
    assert close_by_dimension([]) == []
    assert betti_from_cells([]) == ()


def test_betti_counts_components():
    c = closed((0, 1), (2, 3), (5,))
    assert c.betti_numbers()[0] == 3


def test_euler_characteristic_examples():
    assert closed((0, 1, 2)).euler_characteristic() == 1
    hollow = closed((0, 1), (1, 2), (0, 2))
    assert hollow.euler_characteristic() == 0


# -- randomized properties -----------------------------------------------------

def random_complex(rng: SplitMix64, max_vertices=12, max_dim=4) -> SimplicialComplex:
    n_vertices = rng.randrange(1, max_vertices)
    simplices = []
    for _ in range(rng.randrange(1, 8)):
        size = rng.randrange(1, min(max_dim + 1, n_vertices))
        pool = list(range(n_vertices))
        rng.shuffle(pool)
        simplices.append(Simplex(tuple(sorted(pool[:size]))))
    return SimplicialComplex.from_simplices(simplices)


def euler_by_count(c: SimplicialComplex) -> int:
    return sum((-1) ** s.dimension for s in c)


def components_by_unionfind(c: SimplicialComplex) -> int:
    uf = UnionFind()
    for v in oracle_vertices(c):
        uf.find(v)
    for s in c.simplices_of_dim(1):
        uf.union(*s.vertices)
    return uf.component_count()


@pytest.mark.parametrize("seed", range(40))
def test_euler_betti_identity_and_component_oracle(seed):
    c = random_complex(SplitMix64(seed))
    betti = c.betti_numbers()
    assert sum((-1) ** k * b for k, b in enumerate(betti)) == euler_by_count(c)
    assert betti[0] == components_by_unionfind(c)


@pytest.mark.parametrize("seed", range(25))
def test_boundary_of_boundary_vanishes(seed):
    c = random_complex(SplitMix64(seed + 1000))
    for k in range(1, c.dimension):
        prod = gf2_matmul(c.boundary_matrix(k).data, c.boundary_matrix(k + 1).data)
        assert not any(map(any, prod))


generators_on_12_vertices = st.lists(
    st.sets(st.integers(0, 11), min_size=1, max_size=6).map(lambda vs: tuple(sorted(vs))),
    min_size=1, max_size=10,
)


@given(generators_on_12_vertices)
@settings(max_examples=150, deadline=None)
def test_bitset_betti_equals_dense_ranks(generators):
    c = SimplicialComplex.from_simplices(Simplex(g) for g in generators)
    betti = betti_from_cells(close_by_dimension(generators))
    assert betti == c.betti_numbers() == dense_betti(c)
    assert betti[0] == components_by_unionfind(c)
    assert sum((-1) ** k * b for k, b in enumerate(betti)) == euler_by_count(c)


@given(st.integers(0, 2**50), st.integers(0, 2**50))
@settings(max_examples=60, deadline=None)
def test_betti_invariant_under_relabeling(seed, perm_seed):
    c = random_complex(SplitMix64(seed))
    vertices = oracle_vertices(c)
    shuffled = list(vertices)
    SplitMix64(perm_seed).shuffle(shuffled)
    # scatter ids into a sparse range as well
    mapping = {v: 3 * w + 17 for v, w in zip(vertices, shuffled)}
    cells = {tuple(sorted(mapping[v] for v in s.vertices)) for s in c}
    relabeled = SimplicialComplex(cells)
    assert cells_of(relabeled) == all_subsets_closure(cells) == cells
    assert relabeled.betti_numbers() == c.betti_numbers()


# -- Betti numbers from the generators against the closure ---------------------

@st.composite
def generator_lists(draw):
    """Generator lists for the cone rewrite: wide generators that overlap,
    nest or repeat, with or without their vertex generators, and now and
    then a wide one that meets nothing."""
    generators = draw(st.lists(
        st.sets(st.integers(0, 11), min_size=1, max_size=9).map(lambda vs: tuple(sorted(vs))),
        min_size=1, max_size=8,
    ))
    for g in list(generators):  # a face of a generator, or the whole generator again
        if draw(st.booleans()):
            generators.append(draw(st.sampled_from(sorted(subsets(g)))))
    if draw(st.booleans()):
        generators.append(tuple(range(20, 20 + draw(st.integers(1, 9)))))
    if draw(st.booleans()):
        generators.extend((v,) for v in sorted({v for g in generators for v in g}))
    return draw(st.permutations(generators))


@given(generator_lists())
@settings(max_examples=300, deadline=None)
def test_betti_from_generators_equals_the_closure(generators):
    assert betti_from_generators(generators) == betti_from_cells(close_by_dimension(generators))


# thirty 13-simplices through vertex 0, otherwise apart, each with an edge
# out to a vertex of its own: a tree of wide tops
HUB = [g for t in range(30) for top in [(0, *range(13 * t + 1, 13 * t + 14))] for g in (top, (top[-1], 1000 + t))]
# three 29-simplices each pair of which shares at least 28 vertices, each
# vertex with an edge out to a path: 32 routes from the tops to the path
THREE_OVERLAP = [tuple(range(t, t + 30)) for t in (1, 2, 3)] + [(v, 1000 + v) for v in range(1, 33)] \
    + [(1000 + v, 1001 + v) for v in range(1, 32)]


@pytest.mark.parametrize("generators, betti", [
    ([], ()),
    ([(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)], (1,) + (0,) * 9),
    ([(0, 1), (2, 3, 4, 5, 6, 7)], (2, 0, 0, 0, 0, 0)),
    ([(0, 1, 2, 3, 4), (0, 1, 2, 3, 4), (1, 2, 3)], (1, 0, 0, 0, 0)),
    ([tuple(sorted(t)) for t in TORUS], (1, 2, 1)),
    # a path from the last vertex of a 39-simplex back to its first: one loop
    ([tuple(range(40)), (39, 40), (40, 41), (0, 41)], (1, 1) + (0,) * 38),
    # two 40-simplices sharing a 25-vertex face, which neither one's cone
    # alone could drop (2^26 faces), and a path between their ends
    ([tuple(range(40)), tuple(range(15, 55)), (0, 60), (54, 60)], (1, 1) + (0,) * 38),
    # three 44-simplices, each pair sharing a 22-vertex face and no vertex
    # common to all three: a hollow triangle
    ([tuple(range(44)), tuple(range(22, 66)), (*range(44, 66), *range(22))], (1, 1) + (0,) * 42),
    (HUB, (1,) + (0,) * 13),
    (THREE_OVERLAP, (1, 31) + (0,) * 28),
], ids=["empty", "lone-simplex", "wide-meets-nothing", "nested-and-repeated", "torus", "40-vertex-loop",
        "shared-wide-face", "hollow-triangle-of-wide-faces", "hub", "three-overlap"])
def test_betti_from_generators_on_known_spaces(monkeypatch, generators, betti):
    def no_closure(generators):
        raise AssertionError("face closure enumerated")

    monkeypatch.setattr(simplicial, "close_by_dimension", no_closure)
    assert betti_from_generators(generators) == betti


@pytest.mark.parametrize("generators", [HUB, THREE_OVERLAP], ids=["hub", "three-overlap"])
def test_wide_tops_through_a_shared_vertex_are_coned_to_nothing_the_pass_closes(monkeypatch, generators):
    # the tops share a vertex, so one cone over their traces on the edges
    # stands for all of them and leaves no generator of 3 or more vertices
    faces = []  # what each reduction may close
    check = simplicial._check_face_budget
    monkeypatch.setattr(simplicial, "_check_face_budget", lambda n: faces.append(n) or check(n))
    betti_from_generators(generators)
    assert faces == [0]


# -- a filtration's stages --------------------------------------------------------

def cells_between(lo, hi):
    return st.sets(st.integers(0, 9), min_size=lo, max_size=hi).map(lambda vs: tuple(sorted(vs)))


@st.composite
def filtrations(draw):
    """Stages of generators: one to four wide ones past the coning
    threshold, which may share vertices, faces and repeats of drawn
    generators entered before or after them, and stages left empty."""
    stages = [[] for _ in range(draw(st.integers(1, 5), label="stages"))]

    def enter(g):
        stages[draw(st.integers(0, len(stages) - 1), label="stage")].append(g)

    for g in draw(st.lists(cells_between(5, 6), min_size=1, max_size=4), label="wide"):
        enter(g)
    for g in draw(st.lists(cells_between(1, 4), max_size=6), label="generators"):
        enter(g)
    for g in draw(st.lists(st.sampled_from([g for stage in stages for g in stage]), max_size=3), label="nested"):
        enter(draw(st.sampled_from(sorted(subsets(g))), label="face or repeat"))
    return stages


@given(filtrations())
@example([[(0, 1)], [(0, 1, 2, 3, 4)]])  # a face, then the top that holds it
@example([[(0, 1, 2, 3, 4)], [(0, 1)]])  # a top, then a face of it
@example([[(0, 1, 2, 3, 4)], [], [(0, 1, 2, 3, 4)]])  # a repeat, past a stage with no generator
@example([[], [(0, 1, 2, 3, 4, 5)], [(1, 2, 3, 4, 5, 6)], [(0, 6)]])  # two wide tops sharing a face, apart
@example([[(0, 6), (1, 2, 3, 4, 5, 6)], [(0, 1, 2, 3, 4, 5)]])  # the later one entered first
@settings(max_examples=150, deadline=None)
def test_every_stage_equals_its_own_reduction_and_the_dense_oracle(stages):
    total = sum(map(len, stages))
    assert any(len(g) >= 3 and 2 ** len(g) > total for stage in stages for g in stage)  # one is coned
    by_stage = betti_by_stage(stages)
    assert len(by_stage) == len(stages)
    held = []  # the generators of the stages so far
    for stage, betti in zip(stages, by_stage):
        held += stage
        assert betti == betti_from_generators(held)
        assert betti == (dense_betti(SimplicialComplex(held)) if held else ())


def test_two_wide_tops_entered_apart_share_their_face_without_a_closure(monkeypatch):
    # two 40-simplices sharing a 39-vertex face: coning either alone
    # would keep 2^39 faces of it, past the budget
    def no_closure(generators):
        raise AssertionError("face closure enumerated")

    monkeypatch.setattr(simplicial, "close_by_dimension", no_closure)
    first, second = tuple(range(40)), tuple(range(1, 41))
    ring = [(0, 41), (41, 40)]  # a path between their two free vertices closes one loop
    assert betti_by_stage([[first], ring, [second]]) == [(1,) + (0,) * 39, (1,) + (0,) * 39, (1, 1) + (0,) * 38]
    assert betti_by_stage([[second, *ring], [first]]) == [(1,) + (0,) * 39, (1, 1) + (0,) * 38]


# -- the face budget -------------------------------------------------------------

def test_the_constructor_refuses_a_closure_past_the_face_budget(monkeypatch):
    def no_closure(generators):  # what would be enumerated is not the point here
        return []

    monkeypatch.setattr(simplicial, "close_by_dimension", no_closure)
    # generators inside another one add no cells: the vertices and an edge of the 22-simplex
    at_budget = [tuple(range(22)), *((v,) for v in range(23)), (0, 1)]  # 2^22 - 1 + 1 cells at most
    SimplicialComplex(at_budget)
    with pytest.raises(ValueError, match=f"^the face closure may hold {MAX_CELLS + 2} cells, "
                                         f"more than the budget of {MAX_CELLS}$"):
        SimplicialComplex([tuple(range(22)), (22, 23)])


def test_text_reading_refuses_the_line_that_passes_the_face_budget():
    wide = " ".join(map(str, range(30)))
    # "0 1" and "5 6" lie inside the wide line and add no cells
    with pytest.raises(ValueError, match=f"^line 4: the face closure may hold {3 + 2**30 - 1} cells"):
        complex_from_text(f"40 41\n0 1\n# the next line alone may close to 2^30 - 1 cells\n{wide}\n5 6\n")


def test_text_reading_counts_each_face_once():
    # the text of a 13-simplex's closure: 2^14 - 1 lines, whose sums of
    # 2^|line| - 1 add up to 3^14 - 2^14, past the budget
    closure = SimplicialComplex([tuple(range(14))])
    assert 3**14 - 2**14 > MAX_CELLS
    assert complex_from_text(complex_to_text(closure)) == closure


def widths_summing_to(total, wide):
    """Line widths w whose 2^w - 1 cells add up to ``total``: the ``wide``
    ones that fit, then the widest that fits, again and again."""
    widths = []
    for w in wide:
        if (1 << w) - 1 <= total:
            widths.append(w)
            total -= (1 << w) - 1
    while total:
        w = (total + 1).bit_length() - 1
        widths.append(w)
        total -= (1 << w) - 1
    return widths


@given(data=st.data(), past=st.sampled_from([-1, 0, 1]))
@settings(max_examples=60, deadline=None)
def test_the_face_budget_holds_at_its_bound(data, past):
    total = MAX_CELLS + past
    widths = widths_summing_to(total, data.draw(st.lists(st.integers(2, 22), max_size=4), label="wide"))
    widths = data.draw(st.permutations(widths), label="order")
    first, lines = 0, []  # disjoint vertex ranges: no line lies inside another
    for w in widths:
        lines.append(tuple(range(first, first + w)))
        first += w
    text, numbers = [], []  # the file's lines; each generator's line number
    for i, line in enumerate(lines):
        # a comment, or a face or repeat of a line above, adds no cells
        above = [" ".join(map(str, g[:2])) for g in lines[:i]]
        text += data.draw(st.lists(st.sampled_from(["# a comment", *above]), max_size=2))
        text.append(" ".join(map(str, line)))
        numbers.append(len(text))
    text = "\n".join(text) + "\n"
    closed = []  # what the constructor asked to close, which no case enumerates
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplicial, "close_by_dimension", lambda generators: closed.append(generators) or [])
        if past <= 0:
            assert generators_from_text(text) == lines
            SimplicialComplex(lines)
            assert closed == [lines]
            return
        faces = 0  # the line whose cells pass the budget is named
        for line, passing in zip(lines, numbers):
            faces += (1 << len(line)) - 1
            if faces > MAX_CELLS:
                break
        budget = f"the face closure may hold {total} cells, more than the budget of {MAX_CELLS}$"
        with pytest.raises(ValueError, match=f"^line {passing}: {budget}"):
            generators_from_text(text)
        with pytest.raises(ValueError, match=f"^{budget}"):
            SimplicialComplex(lines)
        assert closed == []


def test_the_one_pass_refuses_what_the_cones_cannot_shrink():
    # each 23-simplex shares 22 vertices with the first: no cone has fewer faces
    top = tuple(range(23))
    generators = [top] + [tuple(sorted(set(top) - {v} | {100 + v})) for v in top]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^the face closure may hold [0-9]+ cells, more than the budget of"):
        betti_from_generators(generators)
    assert time.perf_counter() - start < 1


# -- the cell store against all-subsets brute force -----------------------------

@given(st.data())
@settings(max_examples=100, deadline=None)
def test_constructor_equals_all_subsets(data):
    generators = data.draw(generators_on_12_vertices, label="generators")
    for g in list(generators):  # nested (a face of a generator) or repeated (the whole generator)
        if data.draw(st.booleans()):
            generators.append(data.draw(st.sampled_from(sorted(subsets(g)))))
    expected = all_subsets_closure(generators)
    c = SimplicialComplex(generators)
    assert c == SimplicialComplex.from_simplices(map(Simplex, generators))
    assert {s.vertices for s in c.members()} == {s.vertices for s in c} == cells_of(c) == expected
    top = max(map(len, expected))
    assert c.simplex_counts() == [sum(len(f) == size for f in expected) for size in range(1, top + 1)]
    assert len(c) == len(expected)
    assert c.dimension == top - 1
    probes = data.draw(st.lists(st.sets(st.integers(0, 12), min_size=1, max_size=7), max_size=10))
    for cell in expected | {tuple(sorted(p)) for p in probes}:
        assert (Simplex(cell) in c) == (cell in expected)
    assert complex_from_text(complex_to_text(c)) == c

    # any subset of the cells, closed or not, generates its own closure
    removed = data.draw(st.sets(st.sampled_from(sorted(expected))), label="removed")
    kept = expected - removed
    assert cells_of(SimplicialComplex(kept)) == all_subsets_closure(kept)


# -- text format ---------------------------------------------------------------

def test_text_round_trip(tmp_path):
    c = closed((0, 1, 2, 3), (4, 5, 6), (3, 4))
    path = tmp_path / "complex.txt"
    path.write_text(complex_to_text(c))
    assert read_complex(path).members() == c.members()


def test_text_reading_applies_closure():
    c = complex_from_text("# a bare triangle line\n0 1 2\n")
    assert len(c) == 7
    assert cells_of(c) == subsets((0, 1, 2))


def test_text_rejects_bad_lines():
    with pytest.raises(ValueError, match="line 2"):
        complex_from_text("0 1\n2 2\n")


# str.splitlines() also breaks at these; the formats break lines at "\n" only
NOT_NEWLINES = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@pytest.mark.parametrize("sep", NOT_NEWLINES, ids=lambda sep: f"U+{ord(sep):04X}")
def test_text_line_numbers_count_newlines_only(sep):
    with pytest.raises(ValueError, match=r"^line 1: "):
        complex_from_text(f"0 1{sep}2 2\n")


def test_text_output_is_sorted_and_stable():
    c = closed((2, 7), (0, 1))
    text = complex_to_text(c)
    assert text.splitlines() == ["0", "1", "2", "7", "0 1", "2 7"]
