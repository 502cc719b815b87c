"""Abstract simplicial complexes over integer vertices.

A simplex is a strictly ascending tuple of vertex ids.  A complex is
closed under faces by construction: its one constructor checks each
generator by the ``Simplex`` rule, keeps the generators that lie inside
no other and stores their face closure from :func:`close_by_dimension`,
the one face-closure routine.  It holds its cells grouped by dimension,
``cells[k]`` being the frozenset of its k-cells as ascending tuples
(the sorted vertex sequences of Boissonnat & Maria's simplex tree).  A
face becomes a ``Simplex`` only where a caller asks for members.
Enumerating a closure is held to a budget: one that may pass
``MAX_CELLS`` cells is refused first.

Betti numbers over GF(2) have one routine,
:func:`betti_from_generators`; a complex takes its numbers from the
generators its constructor kept.  No closure is enumerated: each wide
generator, alone or with the generator it shares most with, is swapped
for a cone over their intersections with the others, which keeps the
homology, then one pass gives the vertices, edges and components, and
only generators of 3 or more vertices are closed, within the face
budget, for a column reduction whose columns are Python ints used as
bitsets, with clearing.  Ranks do not depend on any ordering, so
results are bit-for-bit reproducible.  The dense boundary matrices,
tuples of 0/1 rows (:meth:`SimplicialComplex.boundary_matrix` with
``gf2_rank``), and the Betti numbers of an enumerated closure stay
with the tests as their independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from typing import Iterable, Iterator, Sequence

from .gf2 import gf2_rank

Cell = tuple[int, ...]

# The face-enumeration budget, part of a run's work budget (scenario.py):
# a face closure keeps its cells, up to CELL_BYTES each (tracemalloc,
# CPython 3.11.7, rounded up to a power of two), within MEMORY_BUDGET
# bytes.  The closure of generators g holds at most the sum of
# 2**|g| - 1 cells over the g that lie inside no other, and a closure
# whose sum passes MAX_CELLS is refused before any face is enumerated.
MEMORY_BUDGET = 2**30
CELL_BYTES = 256
MAX_CELLS = MEMORY_BUDGET // CELL_BYTES


@dataclass(frozen=True, order=True)
class Simplex:
    """A k-simplex stored as its k+1 vertices in strictly ascending order."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        vs = self.vertices
        if not isinstance(vs, tuple):
            object.__setattr__(self, "vertices", tuple(vs))
            vs = self.vertices
        if len(vs) == 0:
            raise ValueError("a simplex needs at least one vertex")
        for v in vs:
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"vertex ids must be non-negative integers, got {v!r}")
        if any(a >= b for a, b in zip(vs, vs[1:])):
            raise ValueError(f"vertices must be strictly ascending, got {vs}")

    @classmethod
    def of(cls, *vertices: int) -> "Simplex":
        """Build a simplex from vertices in any order (duplicates rejected)."""
        return cls(tuple(sorted(vertices)))

    @property
    def dimension(self) -> int:
        return len(self.vertices) - 1

    def boundary(self) -> Iterator["Simplex"]:
        """Codimension-1 faces (the GF(2) boundary support)."""
        if len(self.vertices) == 1:
            return
        for combo in combinations(self.vertices, len(self.vertices) - 1):
            yield Simplex(combo)


@dataclass(frozen=True)
class BoundaryMatrix:
    """GF(2) boundary map from k-simplices (columns) to (k-1)-simplices (rows)."""

    k: int
    rows: tuple[Simplex, ...]
    cols: tuple[Simplex, ...]
    data: tuple[tuple[int, ...], ...]  # one row per (k-1)-simplex

    def rank(self) -> int:
        return gf2_rank(self.data)


class SimplicialComplex:
    """An immutable complex, closed under faces by construction, held as
    ``cells[k]``: its k-cells.

    The constructor takes generators as ascending vertex tuples, checks
    each by :class:`Simplex`'s rule and stores, as ``generators``, those
    that lie inside no other, and their face closure; it refuses
    generators whose closure may pass ``MAX_CELLS``.
    """

    __slots__ = ("cells", "generators")

    def __init__(self, cells: Iterable[Sequence[int]] = ()) -> None:
        generators = _maximal(Simplex(cell).vertices for cell in cells)
        _check_face_budget(sum((1 << len(g)) - 1 for g in generators))
        self.cells = tuple(map(frozenset, close_by_dimension(generators)))
        self.generators = tuple(generators)

    @classmethod
    def from_simplices(cls, simplices: Iterable[Simplex]) -> "SimplicialComplex":
        """The face closure of the given simplices."""
        return cls(s.vertices for s in simplices)

    # -- membership ----------------------------------------------------

    def __len__(self) -> int:
        return sum(map(len, self.cells))

    def __iter__(self) -> Iterator[Simplex]:
        return (Simplex(cell) for level in self.cells for cell in level)

    def __contains__(self, s: Simplex) -> bool:
        k = len(s.vertices) - 1
        return k < len(self.cells) and s.vertices in self.cells[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self)} simplices, dim {self.dimension})"

    def members(self) -> frozenset[Simplex]:
        return frozenset(self)

    @property
    def dimension(self) -> int:
        """Highest simplex dimension present; -1 for the empty complex."""
        return len(self.cells) - 1

    def vertices(self) -> list[int]:
        return sorted({v for level in self.cells for cell in level for v in cell})

    def simplices_of_dim(self, k: int) -> list[Simplex]:
        """k-simplices in canonical (lexicographic) order."""
        if not 0 <= k < len(self.cells):
            return []
        return [Simplex(cell) for cell in sorted(self.cells[k])]

    def simplex_counts(self) -> list[int]:
        """Number of k-simplices for k = 0..dimension."""
        return [len(level) for level in self.cells]

    # -- topology ------------------------------------------------------

    def boundary_matrix(self, k: int) -> BoundaryMatrix:
        """The GF(2) boundary map for dimension k, 1 <= k <= dimension.

        Rows are the (k-1)-simplices and columns the k-simplices, both
        in lexicographic order.  This dense path is the tests' oracle;
        :meth:`betti_numbers` does not use it.
        """
        if k < 1 or k > self.dimension:
            raise ValueError(f"k={k} out of range 1..{self.dimension}")
        rows = self.simplices_of_dim(k - 1)
        cols = self.simplices_of_dim(k)
        row_index = {s: i for i, s in enumerate(rows)}
        data = [[0] * len(cols) for _ in rows]
        for j, s in enumerate(cols):
            for face in s.boundary():
                data[row_index[face]][j] = 1
        return BoundaryMatrix(k=k, rows=tuple(rows), cols=tuple(cols), data=tuple(map(tuple, data)))

    def betti_numbers(self) -> tuple[int, ...]:
        """Betti numbers (b_0 .. b_dim) over GF(2); () for the empty complex."""
        return betti_from_generators(self.generators)

    def euler_characteristic(self) -> int:
        """Alternating sum of simplex counts by dimension."""
        return sum((-1) ** k * n for k, n in enumerate(self.simplex_counts()))


# -- Betti numbers from vertex tuples ------------------------------------


def _check_face_budget(faces: int) -> None:
    """Refuse a face closure that may hold more than ``MAX_CELLS`` cells."""
    if faces > MAX_CELLS:
        raise ValueError(f"the face closure may hold {faces} cells, more than the budget of {MAX_CELLS}")


def close_by_dimension(generators: Iterable[Cell]) -> list[set[Cell]]:
    """The face closure of ascending vertex tuples: cells[k] holds the k-cells."""
    cells: list[set[Cell]] = []
    for g in generators:
        while len(cells) < len(g):
            cells.append(set())
        for size in range(1, len(g) + 1):
            cells[size - 1].update(combinations(g, size))
    return cells


def betti_from_generators(generators: Sequence[Cell]) -> tuple[int, ...]:
    """Betti numbers over GF(2) of the face closure of ascending vertex
    tuples, without enumerating that closure; () when there are none.

    Wide generators are first replaced, alone or in pairs, by cones over
    their intersections (:func:`_cone_wide`), which keeps the homology.
    Then one pass over the generators gives the rest: union-find over
    each generator's vertices gives rank d1, a set of their edges gives
    n1, and only the generators with 3 or more vertices are closed, at
    dimension 2 and up, for the higher ranks.  Coning never raises a
    dimension but can lower the top one, so the vector is padded with
    zeros to the input's top dimension.

    b_k = n_k - rank(d_k) - rank(d_{k+1}).  Rank dk for k >= 2 is the
    number of pivots of a column reduction run from the top dimension
    down, with clearing (Chen & Kerber, "Persistent homology computation
    with a twist", 2011): a reduced column of d(k+1) is a boundary, so
    d(k) maps it to zero; its pivot is its first k-cell, whose column in
    d(k) is therefore a sum of later columns and is skipped.

    The generators the pass closes are held to the face budget: when
    the sum of 2^|g| - 1 over them passes ``MAX_CELLS`` the pass is
    refused (``ValueError``) before it enumerates any face.
    """
    if not generators:
        return ()
    widest = max(map(len, generators))
    if widest >= 3 and 2**widest > len(generators):
        generators = _cone_wide(generators)
    # union-find inline: with a union-find class's method calls the
    # betti-history benchmark ran 11% slower (median 976 vs 1,092 txn/s,
    # 2-vCPU container, CPython 3.11.7)
    parent: dict[int, int] = {}

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    edges: set[Cell] = set()
    closed: list[Cell] = []  # the generators of 3 or more vertices
    for g in generators:
        head = g[0]
        parent.setdefault(head, head)
        if len(g) == 1:
            continue
        if len(g) == 2:
            edges.add(g)
        else:
            closed.append(g)
        a = root(head)
        for v in g[1:]:
            b = root(parent.setdefault(v, v))
            if a != b:
                parent[b] = a
    _check_face_budget(sum((1 << len(g)) - 1 for g in closed))
    upper: list[set[Cell]] = []  # upper[k - 2] holds the k-cells
    for g in closed:
        edges.update(combinations(g, 2))
        while len(upper) < len(g) - 2:
            upper.append(set())
        for size in range(3, len(g) + 1):
            upper[size - 3].update(combinations(g, size))
    counts = ([len(parent), len(edges), *map(len, upper)] + [0] * widest)[:widest]
    ranks = [0] * (widest + 1)  # ranks[k] is rank d_k
    ranks[1] = len(parent) - sum(1 for v, p in parent.items() if v == p)
    if upper:
        ordered = [[], sorted(edges), *map(sorted, upper)]  # ordered[k] holds the k-cells
        cleared: set[int] = set()
        for k in range(len(ordered) - 1, 1, -1):
            ranks[k], cleared = _reduced_rank(ordered[k], ordered[k - 1], cleared)
    return tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(widest))


def _cone_wide(generators: Sequence[Cell]) -> list[Cell]:
    """Generators whose face closure has the same homology as that of
    ``generators``, with each wide generator, alone or together with the
    generator it shares most with, replaced by a cone over their
    intersections with the others where that has fewer faces.

    Take K = L ∪ X for a contractible subcomplex X and the complex L of
    the other generators.  X and the cone from a new apex over L ∩ X
    are both contractible and both meet L in exactly L ∩ X, so swapping
    one for the other keeps K's homotopy type (Hatcher, *Algebraic
    Topology*, Prop. 0.17); an X that meets nothing becomes the apex
    alone.  X is Δ(T) for a generator T, or Δ(T) ∪ Δ(g) for a g that
    meets T, contractible since Δ(T ∩ g) is; L ∩ X is the closure of the
    intersections h ∩ T (and h ∩ g) over the other generators h.  The
    cone holds about Σ 2^|h ∩ T| cells where Δ(T) holds 2^|T|.  Coning
    T together with g drops their shared face, which two deals over one
    replicated block both hold, where T's own cone would keep it.

    A generator T is wide when its closure outweighs one pass over the
    list: |T| >= 3 and 2^|T| > len(generators).  Generators that lie
    inside another are dropped first, then each wide one is weighed in
    turn against the list as rewritten so far, as are the wide cone
    generators with fewer vertices than the T they replace; the
    intersections are found through an index from each vertex to the
    generators that hold it.  An apex is a fresh negative id, so each
    cone generator stays ascending.
    """
    current = dict(enumerate(_maximal(generators)))
    holding: dict[int, dict[int, None]] = {}  # vertex -> ids of the generators that hold it
    for i, g in current.items():
        for v in g:
            holding.setdefault(v, {})[i] = None

    def wide(g: Cell) -> bool:
        return len(g) >= 3 and 2 ** len(g) > len(generators)

    def meets(i: int, *others: int) -> dict[int, list[int]]:
        """Generator id -> its intersection with generator i, others skipped."""
        found: dict[int, list[int]] = {}
        for v in current[i]:
            for j in holding[v]:
                if j != i and j not in others:
                    found.setdefault(j, []).append(v)
        return found

    def cells(faces: dict[Cell, None]) -> int:
        return sum(1 << len(face) for face in faces)

    queue = [i for i, g in current.items() if wide(g)]
    next_id = len(current)
    apex = 0
    for i in queue:  # grows while it is read
        if i not in current:  # coned together with an earlier one
            continue
        top = current[i]
        found = meets(i)
        # () gives the apex alone
        faces = dict.fromkeys(map(tuple, found.values())) or {(): None}
        best, dropped = cells(faces), (i,)
        if found:
            j = max(found, key=lambda j: len(found[j]))
            pair = [f for k, f in found.items() if k != j] + list(meets(j, i).values())
            pair_faces = dict.fromkeys(map(tuple, pair)) or {(): None}
            pair_cells = cells(pair_faces) - (1 << len(current[j]))  # g's own faces go too
            if pair_cells < best:
                faces, best, dropped = pair_faces, pair_cells, (i, j)
        if best >= 1 << len(top):
            continue
        apex -= 1
        for d in dropped:
            for v in current.pop(d):
                del holding[v][d]
        for face in faces:
            current[next_id] = cone = (apex, *face)
            for v in cone:
                holding.setdefault(v, {})[next_id] = None
            if wide(cone) and len(cone) < len(top):
                queue.append(next_id)
            next_id += 1
    return list(current.values())


def _maximal(generators: Iterable[Cell]) -> list[Cell]:
    """The distinct generators that lie inside no other one, in order.

    Each is checked only against the longer kept ones that hold its
    vertex held by the fewest of them, so generators of one size, such
    as the edges of a graph, are never checked against each other."""
    distinct = list(dict.fromkeys(generators))
    kept: set[Cell] = set()
    holders: dict[int, list[set[int]]] = {}  # vertex -> the longer kept generators that hold it
    longer: list[Cell] = []  # the kept generators of the last size, indexed once a shorter size comes
    for _, group in groupby(sorted(distinct, key=len, reverse=True), key=len):
        for h in longer:
            members = set(h)
            for v in h:
                holders.setdefault(v, []).append(members)
        longer = [g for g in group if not any(h.issuperset(g) for h in min((holders.get(v, ()) for v in g), key=len))]
        kept.update(longer)
    return [g for g in distinct if g in kept]


def _reduced_rank(cols: list[Cell], rows: list[Cell], cleared: set[int]) -> tuple[int, set[int]]:
    """GF(2) rank of the boundary map from ``cols`` to ``rows`` (both
    sorted), skipping the column indices in ``cleared``, and the set of
    pivot row indices.

    A column is an int whose bit i is set when rows[i] is a facet of its
    cell; a reduced column's pivot is its lowest set bit.  Since rows
    are sorted, a cell's lowest facet is the cell less its last vertex,
    so a column whose pivot is new is stored as its cell and turned into
    bits only when a later column must be reduced by it.
    """
    index = {cell: i for i, cell in enumerate(rows)}

    def bits(cell: Cell) -> int:
        col = 0
        for face in combinations(cell, len(cell) - 1):
            col |= 1 << index[face]
        return col

    pivots: dict[int, Cell | int] = {}
    for j, cell in enumerate(cols):
        if j in cleared:
            continue
        low = index[cell[:-1]]
        if low not in pivots:
            pivots[low] = cell
            continue
        col = bits(cell)
        while col:
            low = (col & -col).bit_length() - 1
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                break
            if isinstance(other, tuple):
                other = pivots[low] = bits(other)
            col ^= other
    return len(pivots), set(pivots)


# -- text format -------------------------------------------------------
#
# One simplex per line: ascending base-10 vertex ids (ASCII digits only)
# separated by single spaces.  Lines starting with '#' are comments.
# Reading gives the lines that lie inside no other
# (``generators_from_text``): their face closure is the complex written,
# so complex_to_text round-trips the member set, and ``betti --complex``
# closes nothing.  Reading refuses lines whose closure may pass
# ``MAX_CELLS`` cells, naming the line at which the count, taken in file
# order over the lines that lie inside no other, passes it.


def text_order(complex_: SimplicialComplex) -> list[Cell]:
    """Cells in file line order: by size, then lexicographically."""
    return [cell for level in complex_.cells for cell in sorted(level)]


def complex_to_text(complex_: SimplicialComplex) -> str:
    return "".join(" ".join(map(str, cell)) + "\n" for cell in text_order(complex_))


def generators_from_text(text: str) -> list[Cell]:
    """The distinct lines of a complex file that lie inside no other, in
    file order, as ascending vertex tuples.  Refuses, naming the line, a
    malformed line or the line at which the most cells their closure can
    hold passes ``MAX_CELLS``; no face is enumerated."""
    lines: dict[Cell, int] = {}  # each distinct line -> the number of its first occurrence
    for lineno, raw in enumerate(text.split("\n"), start=1):
        try:
            if not raw.isascii():
                raise ValueError("the complex format is ASCII text")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            for tok in tokens:
                if not tok.isdigit():
                    raise ValueError(f"vertex ids are base-10 digits, got {tok!r}")
            lines.setdefault(Simplex(tuple(int(tok) for tok in tokens)).vertices, lineno)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    generators = _maximal(lines)
    try:
        _check_face_budget(sum((1 << len(g)) - 1 for g in generators))
    except ValueError as exc:  # name the line that passes it
        faces = 0  # the most cells the closure of the lines so far can hold
        for cell in generators:
            faces += (1 << len(cell)) - 1
            if faces > MAX_CELLS:
                raise ValueError(f"line {lines[cell]}: {exc}") from exc
    return generators


def read_generators(path) -> list[Cell]:
    """:func:`generators_from_text` of a complex file."""
    # undecodable bytes become lone surrogates, which the reader rejects
    # with their line number
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        return generators_from_text(fh.read())
