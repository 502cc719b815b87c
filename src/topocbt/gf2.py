"""Dense linear algebra over GF(2): the tests' independent oracle.

A matrix is a sequence of rows of 0/1 ints.  Row reduction XORs whole
rows.  Pivoting is deterministic: columns are scanned left to right
and the first nonzero row at or below the current pivot row is chosen,
so identical inputs always reduce identically.  This is the plain dense
algorithm on purpose, independent of the column bitsets with clearing
that :func:`topocbt.simplicial.betti_from_generators`, the package's
one Betti routine, uses.
"""

from __future__ import annotations

from typing import Sequence

Matrix = Sequence[Sequence[int]]


def gf2_row_echelon(matrix: Matrix) -> tuple[list[list[int]], list[int]]:
    """Reduce a binary matrix (rows of equal length) to row-echelon form
    over GF(2); returns (echelon, pivot_cols), the pivot column indices,
    whose length is the GF(2) rank."""
    reduced = [[x & 1 for x in row] for row in matrix]
    n_rows = len(reduced)
    n_cols = len(reduced[0]) if reduced else 0
    if any(len(row) != n_cols for row in reduced):
        raise ValueError("every row needs the same length")

    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(n_cols):
        if pivot_row >= n_rows:
            break
        found = next((i for i in range(pivot_row, n_rows) if reduced[i][col]), None)
        if found is None:
            continue
        reduced[pivot_row], reduced[found] = reduced[found], reduced[pivot_row]
        pivot = reduced[pivot_row]
        for i in range(pivot_row + 1, n_rows):
            if reduced[i][col]:
                reduced[i] = [a ^ b for a, b in zip(reduced[i], pivot)]
        pivot_cols.append(col)
        pivot_row += 1
    return reduced, pivot_cols


def gf2_rank(matrix: Matrix) -> int:
    """GF(2) rank of a dense binary matrix. Empty matrices have rank 0."""
    return len(gf2_row_echelon(matrix)[1])

