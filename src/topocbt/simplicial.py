"""Abstract simplicial complexes over integer vertices.

A simplex is a strictly ascending tuple of vertex ids.  A complex is
closed under faces by construction: its one constructor checks each
generator by the ``Simplex`` rule and stores the face closure from
:func:`close_by_dimension`, the one face-closure routine.  It holds its
cells grouped by dimension, ``cells[k]`` being the frozenset of its
k-cells as ascending tuples (the sorted vertex sequences of Boissonnat
& Maria's simplex tree).  A face becomes a ``Simplex`` only where a
caller asks for members.  Betti numbers over GF(2) come from those
cells (:func:`betti_from_cells`): rank d1 is the vertex count less the
union-find component count, and rank dk for k >= 2 comes from a column
reduction whose columns are Python ints used as bitsets, with
clearing.  Ranks do not depend on any ordering, so results are
bit-for-bit reproducible.  The dense boundary matrices, tuples of 0/1
rows (:meth:`SimplicialComplex.boundary_matrix` with ``gf2_rank``),
stay as the tests' independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .gf2 import gf2_rank
from .unionfind import UnionFind

Cell = tuple[int, ...]


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
    each by :class:`Simplex`'s rule and stores their face closure.
    """

    __slots__ = ("cells",)

    def __init__(self, cells: Iterable[Sequence[int]] = ()) -> None:
        generators = [Simplex(cell).vertices for cell in cells]
        self.cells = tuple(map(frozenset, close_by_dimension(generators)))

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
        return betti_from_cells(self.cells)

    def euler_characteristic(self) -> int:
        """Alternating sum of simplex counts by dimension."""
        return sum((-1) ** k * n for k, n in enumerate(self.simplex_counts()))


# -- Betti numbers from vertex tuples ------------------------------------


def close_by_dimension(generators: Iterable[Cell]) -> list[set[Cell]]:
    """The face closure of ascending vertex tuples: cells[k] holds the k-cells."""
    cells: list[set[Cell]] = []
    for g in generators:
        while len(cells) < len(g):
            cells.append(set())
        for size in range(1, len(g) + 1):
            cells[size - 1].update(combinations(g, size))
    return cells


def betti_from_cells(cells: Sequence[Iterable[Cell]]) -> tuple[int, ...]:
    """Betti numbers over GF(2) of a closed complex given as cells[k] = its
    k-cells (ascending vertex tuples); () when there are none.  Every
    caller hands in a closure: ``SimplicialComplex.cells`` or the output
    of :func:`close_by_dimension`.

    b_k = n_k - rank(d_k) - rank(d_{k+1}).  Rank d1 is the vertex count
    less the union-find component count.  Rank dk for k >= 2 is the
    number of pivots of a column reduction run from the top dimension
    down, with clearing (Chen & Kerber, "Persistent homology computation
    with a twist", 2011): a reduced column of d(k+1) is a boundary, so
    d(k) maps it to zero; its pivot is its first k-cell, whose column in
    d(k) is therefore a sum of later columns and is skipped.
    """
    ordered = [sorted(c) for c in cells]
    dim = len(ordered) - 1
    if dim < 0:
        return ()
    counts = [len(c) for c in ordered]
    ranks = [0] * (dim + 2)
    cleared: set[int] = set()
    for k in range(dim, 1, -1):
        ranks[k], cleared = _reduced_rank(ordered[k], ordered[k - 1], cleared)
    if dim >= 1:
        uf = UnionFind()
        for (v,) in ordered[0]:
            uf.find(v)
        for a, b in ordered[1]:
            uf.union(a, b)
        ranks[1] = counts[0] - uf.component_count()
    return tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(dim + 1))


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
# Reading applies face closure, so complex_to_text -> complex_from_text
# round-trips the member set.


def text_order(complex_: SimplicialComplex) -> list[Cell]:
    """Cells in file line order: by size, then lexicographically."""
    return [cell for level in complex_.cells for cell in sorted(level)]


def complex_to_text(complex_: SimplicialComplex) -> str:
    return "".join(" ".join(map(str, cell)) + "\n" for cell in text_order(complex_))


def complex_from_text(text: str) -> SimplicialComplex:
    cells = []
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
            cells.append(Simplex(tuple(int(tok) for tok in tokens)).vertices)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return SimplicialComplex(cells)


def read_complex(path) -> SimplicialComplex:
    # undecodable bytes become lone surrogates, which the reader rejects
    # with their line number
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        return complex_from_text(fh.read())
