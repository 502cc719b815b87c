import pytest
from hypothesis import given, strategies as st

from topocbt.gf2 import gf2_rank, gf2_row_echelon
from oracles import SplitMix64, gf2_matmul


def test_rank_identity():
    assert gf2_rank([[int(i == j) for j in range(4)] for i in range(4)]) == 4


def test_rank_zero_and_empty():
    assert gf2_rank([[0] * 5 for _ in range(3)]) == 0
    assert gf2_rank([]) == 0
    assert gf2_rank([[], [], []]) == 0


def test_rank_dependent_rows_mod2():
    # row3 = row1 XOR row2, so rank drops to 2
    m = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    assert gf2_rank(m) == 2


def test_rank_char2_differs_from_rationals():
    # invertible over Q, singular over GF(2)
    m = [[1, 1], [1, 1]]
    assert gf2_rank(m) == 1


def test_echelon_pivots_deterministic():
    m = [[0, 1, 1], [1, 1, 0], [1, 0, 1]]
    r1, p1 = gf2_row_echelon(m)
    r2, p2 = gf2_row_echelon(m)
    assert r1 == r2 == [[1, 1, 0], [0, 1, 1], [0, 0, 0]]
    assert p1 == p2 == [0, 1]
    assert m == [[0, 1, 1], [1, 1, 0], [1, 0, 1]]


def test_echelon_rejects_ragged_rows():
    with pytest.raises(ValueError):
        gf2_row_echelon([[1, 0], [1]])


def test_matmul_mod2():
    a = [[1, 1], [0, 1]]
    b = [[1, 0], [1, 1]]
    assert gf2_matmul(a, b) == [[0, 1], [1, 1]]


@given(st.integers(0, 2**30))
def test_rank_bounds_random(seed):
    rng = SplitMix64(seed)
    n_rows, n_cols = rng.randrange(1, 7), rng.randrange(1, 7)
    m = [[rng.below(2) for _ in range(n_cols)] for _ in range(n_rows)]
    r = gf2_rank(m)
    assert 0 <= r <= min(len(m), len(m[0]))
    # rank is invariant under row shuffles
    shuffled = list(m)
    rng.shuffle(shuffled)
    assert gf2_rank(shuffled) == r
