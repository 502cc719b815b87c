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

Betti numbers over GF(2) have one routine, :func:`betti_by_stage`: it
takes a filtration, stages of generators whose closures nest, and
gives every stage's numbers from one reduction.
:func:`betti_from_generators` is its one-stage case; a complex takes
its numbers from the generators its constructor kept.  No closure is
enumerated: the wide generators through a shared vertex are swapped
together for one cone over their intersections with the others, which
keeps every stage's homology, then one pass gives the vertices, edges
and components, and only generators of 3 or more vertices are closed,
within the face budget, for one column reduction in the order the
cells enter, whose columns are Python ints used as bitsets, with
clearing.  Ranks do not depend on any ordering, so results are
bit-for-bit reproducible.  The dense boundary matrices, tuples of 0/1
rows (:meth:`SimplicialComplex.boundary_matrix` with ``gf2_rank``), and
the Betti numbers of an enumerated closure stay with the tests as their
independent oracles.
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


@dataclass(frozen=True, order=True, slots=True)
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

    @property
    def dimension(self) -> int:
        return len(self.vertices) - 1

    def boundary(self) -> Iterator["Simplex"]:
        """Codimension-1 faces (the GF(2) boundary support)."""
        if len(self.vertices) == 1:
            return
        for combo in combinations(self.vertices, len(self.vertices) - 1):
            yield Simplex(combo)


@dataclass(frozen=True, slots=True)
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
        generators = list(_maximal(dict.fromkeys((Simplex(cell).vertices for cell in cells), 0)))
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
    tuples, without enumerating that closure; () when there are none:
    the one-stage case of :func:`betti_by_stage`."""
    return betti_by_stage([generators])[0]


def betti_by_stage(stages: Sequence[Sequence[Cell]]) -> list[tuple[int, ...]]:
    """Betti numbers over GF(2) of every complex of a filtration, from one
    reduction and without enumerating a closure: entry s is that of the
    face closure of the generators of ``stages[0]`` through
    ``stages[s]``, () while there are none.

    Each distinct generator enters at the first stage that holds it.
    When one is wide, those that lie inside another entered no later are
    dropped (:func:`_maximal`), and the wide ones through a shared
    vertex are replaced together by one cone over their intersections
    with the generators of every stage (:func:`_cone_wide`), which keeps
    the homology of every stage.  Then one pass over the generators,
    stage by stage, gives the rest: union-find over each generator's
    vertices gives rank d1 at the end of each stage, and only the
    generators with 3 or more vertices are closed, within the face
    budget, for the higher ranks.  Coning never
    raises a dimension but can lower the top one, so each vector is
    padded with zeros to the top dimension of its stage's input.

    b_k = n_k - rank(d_k) - rank(d_{k+1}) over the cells entered by
    then.  Each dimension's cells are numbered in the order they enter,
    so a stage's complex is a prefix of every boundary map's columns,
    and one column reduction in that order, each column reduced by
    earlier ones only, gives the rank of every prefix: its number of
    nonzero reduced columns (Edelsbrunner, Letscher & Zomorodian,
    "Topological persistence and simplification", 2002).  Ranks for
    k >= 2 are reduced from the top dimension down, with clearing (Chen
    & Kerber, "Persistent homology computation with a twist", 2011): a
    reduced column of d(k+1) is a cycle whose pivot is its latest
    k-cell, so that cell's column in d(k) is a sum of earlier ones,
    reduces to zero and is skipped.

    The generators the pass closes are held to the face budget: when
    the sum of 2^|g| - 1 over them passes ``MAX_CELLS`` the pass is
    refused (``ValueError``) before it enumerates any face.
    """
    entered: dict[Cell, int] = {}  # each distinct generator -> the first stage that holds it
    widths: list[int] = []  # per stage: the widest generator of its input so far
    widest = total = 0
    for s, generators in enumerate(stages):
        for g in generators:
            entered.setdefault(g, s)
        widest = max(widest, max(map(len, generators), default=0))
        widths.append(widest)
        total += len(generators)
    kept = entered
    if widest >= 3 and 2**widest > total:
        kept = _cone_wide(_maximal(entered), total)
    _check_face_budget(sum((1 << len(g)) - 1 for g in kept if len(g) >= 3))
    by_stage: list[list[Cell]] = [[] for _ in stages]
    for g, s in kept.items():
        by_stage[s].append(g)
    # union-find inline: with a union-find class's method calls the
    # betti-history benchmark ran 11% slower (median 976 vs 1,092 txn/s,
    # 2-vCPU container, CPython 3.11.7)
    parent: dict[int, int] = {}

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    merges = 0  # rank d1: the vertices less the components
    levels: list[dict[Cell, None]] = [{}]  # levels[k - 1] holds the k-cells, k >= 1, in the order they enter
    counts: list[list[int]] = []  # counts[s][k]: n_k at the end of stage s
    ranks: list[list[int]] = []  # ranks[s][k]: rank d_k at the end of stage s
    for generators in by_stage:
        for g in generators:
            head = g[0]
            a = root(parent.setdefault(head, head))
            for v in g[1:]:
                b = root(parent.setdefault(v, v))
                if a != b:
                    parent[b] = a
                    merges += 1
            if len(g) == 2:
                levels[0][g] = None
            elif len(g) > 2:
                while len(levels) < len(g) - 1:
                    levels.append({})
                for size in range(2, len(g) + 1):
                    levels[size - 2].update(dict.fromkeys(combinations(g, size)))
        counts.append([len(parent), *map(len, levels)])
        ranks.append([0, merges])
    dims = max(len(levels) + 1, widest)
    counts = [count + [0] * (dims - len(count)) for count in counts]
    ranks = [rank + [0] * dims for rank in ranks]
    if len(levels) > 1:  # 2-cells: the ranks above d1 are reduced
        ends = [[count[k] for count in counts] for k in range(len(levels) + 1)]  # ends[k][s]: n_k after stage s
        ordered = [[], *(_stagewise(level, ends[k]) for k, level in enumerate(levels, start=1))]
        cleared: set[int] = set()
        for k in range(len(levels), 1, -1):
            by_end, cleared = _reduced_ranks(ordered[k], ordered[k - 1], ends[k], ends[k - 1], cleared)
            for rank, r in zip(ranks, by_end):
                rank[k] = r
    return [tuple(count[k] - rank[k] - rank[k + 1] for k in range(width))
            for count, rank, width in zip(counts, ranks, widths)]


def _cone_wide(entered: dict[Cell, int], total: int) -> dict[Cell, int]:
    """Generators, each with the stage it enters, whose face closure at
    every stage has the same homology as that of ``entered`` (distinct
    generators, none inside another entered no later), with the wide
    generators through a shared vertex replaced by one cone over their
    intersections with the others where that has fewer faces.  ``total``
    is the count of generators the caller was given.

    A generator T is wide when its closure outweighs one pass over the
    list: |T| >= 3 and 2^|T| > ``total``.  Take the vertex v of T that
    the most wide generators hold; the cluster X is every wide generator
    that holds v, and L_s the closure of the other generators entered by
    stage s.  The union Δ(X_s) of the members entered by s is
    star-shaped from v, so it is contractible while it is not empty.
    The traces h ∩ T_j of the other generators h on each member T_j
    span C; Z = a * C, for a fresh apex a, enters its apex at the first
    member's stage and each trace at the stage of its member.  Then Z_s
    = a * C_s is a cone, so contractible, and Z_s ∩ L_s = C_s ∩ L_s =
    Δ(X_s) ∩ L_s: each trace of an h entered by s lies in both, and a
    trace meets L_s in traces of its member too.  Any contractible Z_s
    that meets L_s exactly where Δ(X_s) does can stand for it: by
    Mayer–Vietoris both unions have the same homology (Hatcher,
    *Algebraic Topology*, §2.2).

    X is replaced only where the cone holds fewer faces: Σ 2^|c| over
    its generators c, the apex and a joined to each distinct trace,
    against Σ_j 2^|T_j|.  So every replacement lowers Σ 2^|g| over the
    list, and the rewriting ends.  Each wide generator is weighed in
    turn against the list as rewritten so far, as are the cone
    generators that are still wide; the traces are found through an
    index from each vertex to the generators that hold it.  An apex is a
    fresh negative id, below every earlier one, so each cone generator
    stays ascending.
    """
    current = dict(enumerate(entered))
    stage = dict(enumerate(entered.values()))  # generator id -> the stage it enters
    holding: dict[int, dict[int, None]] = {}  # vertex -> ids of the generators that hold it
    for i, g in current.items():
        for v in g:
            holding.setdefault(v, {})[i] = None

    def wide(g: Cell) -> bool:
        return len(g) >= 3 and 2 ** len(g) > total

    queue = [i for i, g in current.items() if wide(g)]
    next_id = len(current)
    apex = -1
    for i in queue:  # grows while it is read
        if i not in current:  # coned with an earlier cluster
            continue
        hub = max(current[i], key=lambda v: sum(wide(current[j]) for j in holding[v]))
        members = dict.fromkeys(j for j in holding[hub] if wide(current[j]))
        cones = {(apex,): min(stage[j] for j in members)}
        for j in members:
            found: dict[int, list[int]] = {}  # other generator id -> its trace on member j
            for v in current[j]:
                for h in holding[v]:
                    if h not in members:
                        found.setdefault(h, []).append(v)
            for face in found.values():
                cone = (apex, *face)
                cones[cone] = min(cones.get(cone, stage[j]), stage[j])
        if sum(1 << len(cone) for cone in cones) >= sum(1 << len(current[j]) for j in members):
            continue
        apex -= 1
        for j in members:
            for v in current.pop(j):
                del holding[v][j]
        for cone, entry in cones.items():
            current[next_id], stage[next_id] = cone, entry
            for v in cone:
                holding.setdefault(v, {})[next_id] = None
            if wide(cone):
                queue.append(next_id)
            next_id += 1
    return {g: stage[i] for i, g in current.items()}


def _maximal(entered: dict[Cell, int]) -> dict[Cell, int]:
    """The generators of ``entered``, each mapped to the stage it enters,
    that lie inside no other one entered at the same stage or before, in
    order; with one stage, the generators that lie inside no other.

    Each is checked only against the longer kept ones that hold its
    vertex held by the fewest of them, so generators of one size, such
    as the edges of a graph, are never checked against each other.  A
    generator inside a dropped one lies inside the kept one that dropped
    it, which entered no later."""
    kept: set[Cell] = set()
    holders: dict[int, list[tuple[set[int], int]]] = {}  # vertex -> the longer kept generators that hold it
    longer: list[Cell] = []  # the kept generators of the last size, indexed once a shorter size comes

    def inside(g: Cell) -> bool:
        s = entered[g]
        return any(t <= s and h.issuperset(g) for h, t in min((holders.get(v, ()) for v in g), key=len))

    for _, group in groupby(sorted(entered, key=len, reverse=True), key=len):
        for h in longer:
            held = set(h), entered[h]
            for v in h:
                holders.setdefault(v, []).append(held)
        longer = [g for g in group if not inside(g)]
        kept.update(longer)
    return {g: s for g, s in entered.items() if g in kept}


def _stagewise(cells: Iterable[Cell], ends: Sequence[int]) -> list[Cell]:
    """Cells in the order they entered, ``ends[s]`` of them by the end
    of stage s, with each stage's in descending order: the order
    :func:`_reduced_ranks` takes."""
    cells = list(cells)
    out: list[Cell] = []
    start = 0
    for end in ends:
        out += sorted(cells[start:end], reverse=True)
        start = end
    return out


def _reduced_ranks(cols: list[Cell], rows: list[Cell], ends: Sequence[int], row_ends: Sequence[int],
                   cleared: set[int]) -> tuple[list[int], set[int]]:
    """The GF(2) rank of the boundary map from ``cols[:end]`` to ``rows``
    for each ``end`` of ``ends``, skipping the column indices in
    ``cleared``, and the set of pivot row indices.  Stage s holds
    ``cols[ends[s - 1]:ends[s]]`` and ``rows[row_ends[s - 1]:row_ends[s]]``,
    each in descending order (:func:`_stagewise`).

    A column is an int whose bit i is set when rows[i] is a facet of its
    cell, reduced by the earlier columns only, so a prefix's rank is its
    count of nonzero reduced columns; a reduced column's pivot is its
    highest set bit, its latest row.  A cell's lexicographically first
    facet is the cell less its last vertex, so that is its latest facet
    when it entered at the cell's own stage, which one stage always
    gives.  A column whose pivot is new is stored as its cell and turned
    into bits only when a later column must be reduced by it.
    """
    index = {cell: i for i, cell in enumerate(rows)}

    def bits(cell: Cell) -> int:
        col = 0
        for face in combinations(cell, len(cell) - 1):
            col |= 1 << index[face]
        return col

    pivots: dict[int, Cell | int] = {}
    ranks: list[int] = []
    start = 0
    for end, first_row in zip(ends, [0, *row_ends]):
        for j in range(start, end):
            if j in cleared:
                continue
            cell = cols[j]
            low = index[cell[:-1]]
            if low < first_row:  # entered at an earlier stage than the cell
                low = max(map(index.__getitem__, combinations(cell, len(cell) - 1)))
            if low not in pivots:
                pivots[low] = cell
                continue
            col = bits(cell)
            while col:
                low = col.bit_length() - 1
                other = pivots.get(low)
                if other is None:
                    pivots[low] = col
                    break
                if isinstance(other, tuple):
                    other = pivots[low] = bits(other)
                col ^= other
        ranks.append(len(pivots))
        start = end
    return ranks, set(pivots)


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
    generators = list(_maximal(dict.fromkeys(lines, 0)))
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
