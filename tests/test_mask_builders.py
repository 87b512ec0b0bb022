"""Differential tests of the `spaces` mask builders against the full-width
doubling loops they replaced (tests/doubling_kernels.py): the diagonal and
the strict order grown from a seed over their own coordinates, and the top
coordinate folded by halving."""

import random

import pytest

import doubling_kernels as full_width
from baokit.spaces import TupleSpace, cylinder, diag, fold_top, strictly_below

SMALL = [(u, n) for u in range(1, 10) for n in range(1, 5)]
WIDE = [(16, 5), (65, 3), (129, 3)]


def _runs(u: int):
    """The whole base (None) and every nonempty run of base values."""
    return [None] + [range(a, b) for a in range(u) for b in range(a + 1, u + 1)]


def _values(space: TupleSpace, rng: random.Random, count: int = 3) -> list[int]:
    return [0, space.full_mask] + [rng.getrandbits(space.size) for _ in range(count)]


@pytest.mark.parametrize("u, n", SMALL)
def test_diagonals_and_orders_match_the_doubling_loops(u, n):
    space = TupleSpace(u, n)
    for i in range(n):
        for j in range(n):
            assert diag(space, i, j) == full_width.diag(space, i, j), (i, j)
            assert strictly_below(space, i, j) == full_width.strictly_below(space, i, j), (i, j)


@pytest.mark.parametrize("u, n", SMALL)
def test_folds_match_the_full_width_fold_on_every_run(u, n):
    space = TupleSpace(u, n)
    rng = random.Random(u * 100 + n)
    xs = _values(space, rng)
    for coord in range(n):
        for values in _runs(u):
            got, want = cylinder(space, coord, values), full_width.cylinder(space, coord, values)
            assert [got(x) for x in xs] == [want(x) for x in xs], (coord, values)
    for dimension in range(1, n):
        for values in _runs(u):
            got = fold_top(space, values, dimension)
            want = full_width.fold_top(space, values, dimension)
            assert [got(x) for x in xs] == [want(x) for x in xs], (dimension, values)


@pytest.mark.parametrize("u, n", WIDE)
def test_wide_masks_match_the_doubling_loops(u, n):
    space = TupleSpace(u, n)
    rng = random.Random(u + n)
    xs = [rng.getrandbits(space.size)]
    for i in range(n):
        for j in range(n):
            if i != j:
                assert diag(space, i, j) == full_width.diag(space, i, j), (i, j)
                assert strictly_below(space, i, j) == full_width.strictly_below(space, i, j)
    for coord in range(n):
        for values in (None, range(0, 1), range(u // 3, u - 2), range(u - 1, u)):
            got, want = cylinder(space, coord, values), full_width.cylinder(space, coord, values)
            assert [got(x) for x in xs] == [want(x) for x in xs], (coord, values)
    for dimension in range(1, n):
        for values in (None, range(1, u - 1)):
            got = fold_top(space, values, dimension)
            want = full_width.fold_top(space, values, dimension)
            assert [got(x) for x in xs] == [want(x) for x in xs], (dimension, values)
