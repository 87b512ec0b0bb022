"""Small tests of the reference computations, on hand-worked cases.

    python3 -m pytest perfbench/test_oracles.py -q
"""

import random
from dataclasses import dataclass

import oracles
from workloads import relabel


# Stand-ins for the AST classes; the evaluators read only class names and
# attributes.
@dataclass(frozen=True)
class Atom:
    rel: str
    args: tuple


@dataclass(frozen=True)
class Eq:
    left: int
    right: int


@dataclass(frozen=True)
class Not:
    body: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Exists:
    var: int
    body: object


@dataclass(frozen=True)
class Forall:
    var: int
    body: object


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    op: tuple


@dataclass(frozen=True)
class App:
    op: tuple
    args: tuple


def bits_of(u, n, tuples):
    return sum(1 << oracles.encode(t, u) for t in tuples)


def test_tuple_coding_puts_coordinate_zero_lowest():
    assert oracles.encode((1, 0), 3) == 1
    assert oracles.encode((0, 1), 3) == 3
    assert all(oracles.encode(oracles.decode(p, 3, 3), 3) == p for p in range(27))


def test_cyl_frees_one_coordinate():
    x = bits_of(2, 2, [(0, 1)])
    assert oracles.cyl(x, 2, 2, 0) == bits_of(2, 2, [(0, 1), (1, 1)])
    assert oracles.cyl(x, 2, 2, 1) == bits_of(2, 2, [(0, 0), (0, 1)])
    assert oracles.cyl(0, 2, 2, 0) == 0


def test_subst_replaces_coordinate_i_by_j():
    x = bits_of(2, 2, [(1, 1)])
    # s[0 := s_1] = (s_1, s_1) lies in x exactly when s_1 = 1.
    assert oracles.subst(x, 2, 2, 0, 1) == bits_of(2, 2, [(0, 1), (1, 1)])
    y = bits_of(3, 2, [(2, 2)])
    assert oracles.subst(y, 3, 2, 1, 0) == bits_of(3, 2, [(2, v) for v in range(3)])


def test_diag_is_the_equal_coordinates():
    assert oracles.diag(2, 2, 0, 1) == bits_of(2, 2, [(0, 0), (1, 1)])
    assert oracles.diag(3, 3, 0, 2) == bits_of(3, 3, [(a, b, a) for a in range(3)
                                                      for b in range(3)])


def test_bitwise_kernels_agree_with_whole_results():
    rng = random.Random(0)
    x = rng.getrandbits(27)
    for p in range(27):
        assert oracles.cyl_bit(x, 3, 3, 1, p) == oracles.bit(oracles.cyl(x, 3, 3, 1), p)
        assert oracles.subst_bit(x, 3, 3, 2, 0, p) == oracles.bit(
            oracles.subst(x, 3, 3, 2, 0), p)
        assert oracles.diag_bit(3, 3, 0, 1, p) == oracles.bit(oracles.diag(3, 3, 0, 1), p)


def test_compose_chains_pairs():
    r = 1 << (0 * 2 + 1)  # (0, 1)
    s = 1 << (1 * 2 + 0)  # (1, 0)
    assert oracles.compose(r, s, 2) == 1 << 0  # (0, 0)
    assert oracles.compose(s, r, 2) == 1 << 3  # (1, 1)
    assert oracles.compose(r, r, 2) == 0


def test_term_bit_follows_the_definitions():
    x = bits_of(2, 2, [(0, 1)])
    term = App(("and", ()), (App(("cyl", (0,)), (Var(0),)), Const(("diag", (0, 1)))))
    got = sum(1 << p for p in range(4) if oracles.term_bit(term, {0: x}, 2, 2, p))
    assert got == bits_of(2, 2, [(1, 1)])
    swap = App(("subst", (0, 1)), (Var(0),))
    assert [oracles.term_bit(swap, {0: x}, 2, 2, p) for p in range(4)] == [
        False, False, False, False]


def test_satisfaction_scans_every_assignment():
    rows = {"E": {(0, 1)}}
    has_successor = Exists(1, Atom("E", (0, 1)))
    assert oracles.satisfaction(has_successor, 2, 2, rows) == bits_of(2, 2, [(0, 0), (0, 1)])
    nothing_below = Forall(1, Not(Atom("E", (1, 0))))
    assert oracles.satisfaction(nothing_below, 2, 2, rows) == bits_of(2, 2, [(0, 0), (0, 1)])
    loop_free = And(Atom("E", (0, 1)), Not(Eq(0, 1)))
    assert oracles.satisfaction(loop_free, 2, 2, rows) == bits_of(2, 2, [(0, 1)])


def test_closure_of_a_boolean_generator():
    assert oracles.closure([0b0011], [], [], 0b1111) == {0, 0b0011, 0b1100, 0b1111}


def test_closure_of_the_diagonal_in_ca_2_2():
    constants, unary = oracles.set_algebra_ops("CA", 2, 2)
    d = oracles.diag(2, 2, 0, 1)
    assert oracles.closure([d], constants, unary, 0b1111) == {0, d, 0b1111 ^ d, 0b1111}


def test_closure_of_a_point_in_df_2_2_is_everything():
    _, unary = oracles.set_algebra_ops("DF", 2, 2)
    got = oracles.closure([bits_of(2, 2, [(0, 1)])], [], unary, 0b1111)
    assert got == set(range(16))


def test_closure_refuses_to_pass_its_cap():
    try:
        oracles.closure([0b0101], [], [], 0b1111, cap=3)
    except ValueError:
        return
    raise AssertionError("closure grew past its cap")


def test_relabelling_commutes_with_the_operators():
    rng = random.Random(1)
    u, n = 3, 3
    x = rng.getrandbits(u**n)
    base, coords = [2, 0, 1], [1, 2, 0]

    def move(bits):
        return relabel(bits, u, n, base, coords)

    for i in range(n):
        assert move(oracles.cyl(x, u, n, i)) == oracles.cyl(move(x), u, n, coords[i])
        for j in range(n):
            if i != j:
                assert move(oracles.subst(x, u, n, i, j)) == oracles.subst(
                    move(x), u, n, coords[i], coords[j])
                assert move(oracles.diag(u, n, i, j)) == oracles.diag(
                    u, n, coords[i], coords[j])


def test_finite_ordinal_codes():
    assert oracles.finite_ordinal_codes(5) == [0, 1, 3, 11, 2059]


def test_kuratowski_codes():
    assert oracles.kuratowski_code(0, 0) == 2  # {{0}}
    assert oracles.kuratowski_code(0, 1) == 10  # {{0}, {0, 1}}
    assert oracles.kuratowski_code(1, 0) == 12
