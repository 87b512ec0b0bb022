"""Relations as Elements of TupleSpace(u, 2), against the relation type,
the pair-by-pair converse and the composition by shifts they replaced
(tests/relation_kernels.py)."""

import operator
import random

import pytest

import relation_kernels as old
from baokit import RaElement, RelationAlgebra, SetAlgebra, SpaceMismatchError, TupleSpace
from baokit import spaces
from baokit.spaces import Element, compose_bits, join_rows, split_rows, transpose


def _relations(rng, u, count):
    """Random relations on a base of size u, with the empty, the full and
    the identity relation and the two corner pairs among them."""
    full = (1 << u * u) - 1
    fixed = [0, full, sum(1 << a * (u + 1) for a in range(u)), 1 << u - 1, 1 << u * (u - 1)]
    return fixed + [rng.getrandbits(u * u) for _ in range(count)]


@pytest.mark.parametrize("u", [*range(1, 21), 100, 257])
def test_transpose_matches_the_pair_by_pair_converse(u):
    rng = random.Random(u)
    space = TupleSpace(u, 2)
    for bits in _relations(rng, u, 6 if u < 100 else 2):
        assert transpose(space, bits) == old.converse_bits(u, bits), bits
    # sparse relations, as the quasiprojections are
    for _ in range(4):
        bits = sum(1 << rng.randrange(u * u) for _ in range(rng.randrange(2 * u)))
        assert transpose(space, bits) == old.converse_bits(u, bits)


_BINARY = [operator.and_, operator.or_, operator.xor, operator.sub,
           operator.le, operator.lt, operator.eq, operator.ne]


@pytest.mark.parametrize("u", [1, 2, 3, 4, 5, 7, 8, 9])
def test_relation_values_match_the_old_relation_type(u):
    rng = random.Random(100 + u)
    ra = RelationAlgebra(u)
    rels = _relations(rng, u, 8)
    for x in rels:
        new, was = RaElement(u, x), old.RaElement(u, x)
        assert ra.from_bits(x) == new and ra.contains(new)
        assert new.bits == was.bits and bool(new) == bool(was) and new.count == was.count
        assert (~new).bits == (~was).bits
        assert list(new.pairs()) == list(was.pairs())
        assert new.serialize() == was.serialize() and repr(new) == repr(was)
        assert RaElement.deserialize(was.serialize()) == new
        assert ra.converse(new).bits == old.converse_bits(u, x)
        assert ra.element(was.pairs()) == new
        for a in range(u):
            for b in range(u):
                assert new.has_pair(a, b) == was.has_pair(a, b)
        for y in rng.sample(rels, 4):
            for op in _BINARY:
                got, want = op(new, RaElement(u, y)), op(was, old.RaElement(u, y))
                assert getattr(got, "bits", got) == getattr(want, "bits", want), op
                assert type(got) is (RaElement if isinstance(want, old.RaElement) else bool)
    # the bits beyond u*u are cut off alike
    assert RaElement(u, -1).bits == old.RaElement(u, -1).bits == ra.one.bits
    assert ra.identity.bits == sum(1 << a * (u + 1) for a in range(u))


def test_relations_on_other_bases_do_not_combine():
    r, s = RaElement(2, 1), RaElement(3, 1)
    for op in _BINARY[:6]:
        with pytest.raises(SpaceMismatchError):
            op(r, s)
    assert r != s
    with pytest.raises(SpaceMismatchError):
        RelationAlgebra(2).compose(r, s)


@pytest.mark.parametrize("u", [1, 2, 3])
def test_a_relation_is_not_a_set_element_of_the_same_space(u):
    ca, ra = SetAlgebra("CA", u, 2), RelationAlgebra(u)
    assert ca.space == ra.space
    for bits in (0, 1, (1 << u * u) - 1):
        x, r = ca.from_bits(bits), ra.from_bits(bits)
        assert x != r and r != x and x.bits == r.bits
        assert type(x) is Element and type(r) is RaElement
        assert not ca.contains(r) and not ra.contains(x)
        assert ca.key(r) is None and ra.key(x) is None
        for op in _BINARY[:6]:
            with pytest.raises(TypeError):
                op(x, r)
            with pytest.raises(TypeError):
                op(r, x)
        assert len({x, r}) == 2


def test_converse_at_the_largest_base_is_an_involution():
    """The padded path at u = 4,095, checked without the quadratic oracle:
    conv(conv(r)) = r, and conv(r) holds (b, a) exactly where r holds (a, b)."""
    u = 4095
    ra = RelationAlgebra(u)
    rng = random.Random(4095)
    r = ra.random_element(rng)
    back = ra.converse(r)
    assert ra.converse(back) == r
    for _ in range(200):
        a, b = rng.randrange(u), rng.randrange(u)
        assert back.has_pair(b, a) == r.has_pair(a, b)
    corners = ra.element([(0, u - 1), (u - 1, 0), (1, 2)])
    assert set(ra.converse(corners).pairs()) == {(u - 1, 0), (0, u - 1), (2, 1)}


def _compose_cases(rng, u):
    """The empty, full and identity relations, a functional, a sparse and
    two dense ones, by name."""
    return {
        "empty": 0,
        "full": (1 << u * u) - 1,
        "identity": sum(1 << a * (u + 1) for a in range(u)),
        "functional": sum(1 << a * u + rng.randrange(u) for a in range(u)),
        "sparse": sum(1 << rng.randrange(u * u) for _ in range(max(1, u * u // 64))),
        "dense": rng.getrandbits(u * u),
        "denser": rng.getrandbits(u * u) | rng.getrandbits(u * u),
    }


@pytest.mark.parametrize("sliced_from", [None, 1])
@pytest.mark.parametrize("u", [*range(1, 21), 64, 100, 128, 257])
def test_compose_matches_the_composition_by_shifts(monkeypatch, u, sliced_from):
    """Every pair of cases, at the stated threshold and with the rows split
    by halving at every u, so that the walk over split rows and the Four
    Russians' tables meet small and ragged bases too."""
    if sliced_from is not None:
        monkeypatch.setattr(spaces, "SLICED_FROM", sliced_from)
    rng = random.Random(u)
    cases = _compose_cases(rng, u)
    for r_name, r in cases.items():
        for s_name, s in cases.items():
            assert compose_bits(u, r, s) == old.compose_bits(u, r, s), (r_name, s_name)


@pytest.mark.parametrize("width, count", [(1, 1), (1, 5), (3, 7), (8, 8), (9, 3), (100, 17)])
def test_rows_split_and_join_back(width, count):
    rng = random.Random(width * count)
    rows = [rng.getrandbits(width) for _ in range(count)]
    bits = sum(row << a * width for a, row in enumerate(rows))
    assert split_rows(bits, width, count) == rows
    assert join_rows(list(rows), width) == bits
