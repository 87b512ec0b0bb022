import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_call_kernels as per_call
from baokit import (
    CapacityError,
    Element,
    InputError,
    RaElement,
    RelationAlgebra,
    SetAlgebra,
    SpaceMismatchError,
    TupleSpace,
    cyl,
    diag,
    subst,
)
from baokit.spaces import cylinder, diagonal_at, relation_bits, strictly_below


def scan_element(ambient, predicate):
    return ambient.element([s for s in ambient.space.tuples() if predicate(s)])


def test_encode_decode_roundtrip():
    for u, n in ((1, 1), (2, 3), (3, 2), (5, 4)):
        space = TupleSpace(u, n)
        for idx in range(space.size):
            assert space.encode(space.decode(idx)) == idx


def test_space_capacity_cap():
    with pytest.raises(CapacityError):
        TupleSpace(2, 25)


def test_huge_dimensions_fail_before_any_power():
    # u**n and the per-coordinate list are never built for such n
    for u in (1, 2, 10**20):
        with pytest.raises(CapacityError):
            TupleSpace(u, 10**20)
    assert TupleSpace(1, 30).size == 1 and TupleSpace(2, 24).size == 2**24


def test_cyl_examples():
    amb = SetAlgebra("CA", 2, 2)
    x = amb.element([(0, 1)])
    assert set(cyl(0, x).tuples()) == {(0, 1), (1, 1)}
    assert cyl(1, amb.zero).is_zero()
    assert x <= cyl(0, x)


def test_cyl_against_scan_on_order_generator():
    amb = SetAlgebra("CA", 3, 3)
    x = scan_element(amb, lambda s: s[0] < s[1])
    members = set(x.tuples())
    # brute-force oracle: exists a value for coordinate 0
    expected = amb.element(
        [
            s
            for s in amb.space.tuples()
            if any((t, s[1], s[2]) in members for t in range(3))
        ]
    )
    assert cyl(0, x) == expected
    assert cyl(0, x) == scan_element(amb, lambda s: s[1] >= 1)


def test_diag_examples():
    amb2 = SetAlgebra("CA", 2, 2)
    assert set(diag(amb2.space, 0, 1).tuples()) == {(0, 0), (1, 1)}
    assert diag(amb2.space, 1, 1).is_full()
    amb3 = SetAlgebra("CA", 2, 3)
    assert diag(amb3.space, 0, 1).count == sum(
        1 for s in amb3.space.tuples() if s[0] == s[1]
    )
    assert diag(amb3.space, 0, 1).count == 4


def test_subst_examples():
    amb = SetAlgebra("SC", 2, 2)
    x = amb.element([(1, 1)])
    assert set(subst(0, 1, x).tuples()) == {(0, 1), (1, 1)}
    assert subst(0, 1, amb.one).is_full()
    # no s has (s_1, s_1) == (0, 1)
    assert subst(0, 1, amb.element([(0, 1)])).is_zero()


def test_subst_matches_scan_oracle():
    rng = random.Random(5)
    amb = SetAlgebra("SC", 3, 3)
    for _ in range(25):
        x = amb.random_element(rng)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                expected = scan_element(
                    amb,
                    lambda s, i=i, j=j: (
                        tuple(s[j] if c == i else s[c] for c in range(3))
                        in set(x.tuples())
                    ),
                )
                assert subst(i, j, x) == expected


@st.composite
def kernel_cases(draw):
    """An element of a space with u <= 4 and n <= 3, two coordinates and a
    nonempty run of base values."""
    u, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    space = TupleSpace(u, n)
    x = Element(space, draw(st.integers(0, space.full_mask)))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    lo = draw(st.integers(0, u - 1))
    return x, i, j, range(lo, draw(st.integers(lo + 1, u)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=kernel_cases())
def test_kernels_match_tuple_scan(case):
    x, i, j, values = case
    space = x.space
    members = set(x.tuples())

    def scan(predicate) -> Element:
        bits = 0
        for s in space.tuples():
            if predicate(s):
                bits |= 1 << space.encode(s)
        return Element(space, bits)

    def put(s, coord, value):
        return s[:coord] + (value,) + s[coord + 1:]

    base = range(space.base_size)
    assert cyl(i, x) == scan(lambda s: any(put(s, i, t) in members for t in base))
    assert diag(space, i, j) == scan(lambda s: s[i] == s[j])
    if i != j:
        assert subst(i, j, x) == scan(lambda s: put(s, i, s[j]) in members)
    # the relativized cylindrification of window quantifiers: c_i(D . x)
    ranged = scan(lambda s: s[i] in values)
    assert cyl(i, ranged & x) == scan(lambda s: any(put(s, i, t) in members for t in values))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=kernel_cases(), rows=st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=8),
       arity=st.integers(0, 3), data=st.data())
def test_raw_kernels_match_tuple_scan(case, rows, arity, data):
    x, i, j, values = case
    space = x.space
    u, n = space.base_size, space.dimension
    members = set(x.tuples())

    def scan(predicate) -> int:
        return sum(1 << space.encode(s) for s in space.tuples() if predicate(s))

    def put(s, coord, value):
        return s[:coord] + (value,) + s[coord + 1:]

    assert cylinder(space, i, values)(x.bits) == scan(
        lambda s: any(put(s, i, t) in members for t in values))
    assert cylinder(space, i)(x.bits) == cyl(i, x).bits
    assert strictly_below(space, i, j) == scan(lambda s: s[i] < s[j])
    # coordinates may repeat; rows are cut down to the base
    coords = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity)))
    table = {tuple(v % u for v in row[:arity]) for row in rows}
    assert relation_bits(space, coords, table) == scan(
        lambda s: tuple(s[c] for c in coords) in table)


def test_ranged_cylinder_rejects_runs_outside_the_base():
    space = TupleSpace(3, 2)
    for values in (range(0, 4), range(1, 1), range(0, 3, 2), range(-1, 2)):
        with pytest.raises(ValueError):
            cylinder(space, 1, values)


def test_subst_rejects_equal_coordinates():
    amb = SetAlgebra("SC", 2, 2)
    with pytest.raises(ValueError):
        subst(1, 1, amb.one)


def test_space_mismatch_is_hard_error():
    a = SetAlgebra("CA", 2, 2)
    b = SetAlgebra("CA", 3, 2)
    with pytest.raises(SpaceMismatchError):
        _ = a.one & b.one


def test_coordinate_out_of_range():
    amb = SetAlgebra("CA", 2, 2)
    with pytest.raises(IndexError):
        cyl(2, amb.one)


def test_boolean_axioms_randomized():
    rng = random.Random(0)
    amb = SetAlgebra("CA", 3, 3)
    full = amb.one
    for _ in range(1000):
        x, y, z = (amb.random_element(rng) for _ in range(3))
        assert (x & y) | z == (x | z) & (y | z)
        assert ~(x & y) == ~x | ~y
        assert x & ~x == amb.zero
        assert x | ~x == full
        assert (x & y) & z == x & (y & z)


def test_cylindrification_properties():
    rng = random.Random(1)
    for kind, u, n in (("CA", 2, 2), ("SC", 3, 3), ("DF", 2, 3)):
        amb = SetAlgebra(kind, u, n)
        for _ in range(60):
            x, y = amb.random_element(rng), amb.random_element(rng)
            for i in range(n):
                assert x <= cyl(i, x)
                assert cyl(i, cyl(i, x)) == cyl(i, x)
                assert cyl(i, x | y) == cyl(i, x) | cyl(i, y)
            assert cyl(0, amb.zero).is_zero()


def test_substitution_is_boolean_endomorphism():
    rng = random.Random(2)
    amb = SetAlgebra("SC", 3, 2)
    for _ in range(60):
        x, y = amb.random_element(rng), amb.random_element(rng)
        assert subst(0, 1, x | y) == subst(0, 1, x) | subst(0, 1, y)
        assert subst(0, 1, ~x) == ~subst(0, 1, x)


def test_discriminator_behavior():
    disc = ("disc", ())
    amb = SetAlgebra("CA", 2, 2)
    assert amb.apply(disc, amb.zero).is_zero()
    assert amb.apply(disc, amb.element([(0, 1)])).is_full()
    amb3 = SetAlgebra("CA", 2, 3)
    # iterated-cylindrification oracle by scan
    d01 = diag(amb3.space, 0, 1)
    out = d01
    for i in range(3):
        out = cyl(i, out)
    assert amb3.apply(disc, d01) == out
    assert amb3.apply(disc, d01).is_full()


def test_ra_operations():
    ra = RelationAlgebra(2)
    r = ra.element([(0, 1)])
    s = ra.element([(1, 0)])
    assert set(ra.compose(r, s).pairs()) == {(0, 0)}
    assert set(ra.converse(r).pairs()) == {(1, 0)}
    assert set(ra.identity.pairs()) == {(0, 0), (1, 1)}
    assert ra.residual(r, s) == ~r | s


def test_ra_identities_full_scan():
    for u in (1, 2, 3):
        ra = RelationAlgebra(u)
        rng = random.Random(u)
        rels = [ra.random_element(rng) for _ in range(12)]
        for r in rels:
            assert ra.compose(r, ra.identity) == r
            assert ra.compose(ra.identity, r) == r
            for s in rels:
                assert ra.converse(ra.compose(r, s)) == ra.compose(
                    ra.converse(s), ra.converse(r)
                )
                for t in rels[:4]:
                    assert ra.compose(ra.compose(r, s), t) == ra.compose(
                        r, ra.compose(s, t)
                    )


def test_ra_compose_matches_pair_scan():
    ra = RelationAlgebra(3)
    rng = random.Random(9)
    for _ in range(20):
        r, s = ra.random_element(rng), ra.random_element(rng)
        expected = {
            (a, c)
            for a in range(3)
            for c in range(3)
            if any(r.has_pair(a, b) and s.has_pair(b, c) for b in range(3))
        }
        assert set(ra.compose(r, s).pairs()) == expected


def test_element_serialization_roundtrip():
    rng = random.Random(3)
    amb = SetAlgebra("CA", 3, 3)
    for _ in range(10):
        x = amb.random_element(rng)
        assert Element.deserialize(x.serialize()) == x
    ra = RelationAlgebra(3)
    r = ra.random_element(rng)
    assert RaElement.deserialize(r.serialize()) == r


def test_element_text_names_a_number_that_does_not_parse():
    for read, text, token in (
        (Element.deserialize, "space:x,2:ff", "'x'"),
        (Element.deserialize, "space:2,2:fg", "'fg'"),
        (RaElement.deserialize, "rel:2:zz", "'zz'"),
        (RaElement.deserialize, "rel:two:f", "'two'"),
    ):
        with pytest.raises(InputError, match=token):
            read(text)


@pytest.mark.parametrize("read, text", [
    (Element.deserialize, "space:0,2:f"),
    (Element.deserialize, "space:2,0:f"),
    (RaElement.deserialize, "rel:0:f"),
])
def test_element_text_with_a_zero_base_or_dimension_names_the_token(read, text):
    with pytest.raises(InputError, match="'0' is below 1"):
        read(text)


# -- the kept kernels of the Element path ---------------------------------------


def outcome(f, *args):
    """What a call gives: the type, space and bits of its value, or the
    type and text of the error it raises."""
    try:
        value = f(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value.space, value.bits


def kept_ints(table) -> list:
    """Every int held in the closures of the kernels `table` keeps."""
    out, todo = [], list(table.functions.values())
    while todo:
        for cell in getattr(todo.pop(), "__closure__", None) or ():
            value = cell.cell_contents
            if isinstance(value, int):
                out.append(value)
            elif callable(value):
                todo.append(value)
            elif isinstance(value, (list, tuple)):
                todo += [v for v in value if callable(v)]
                out += [v for v in value if isinstance(v, int)]
    return out


@pytest.mark.parametrize("u", [1, 2, 3, 4, 5, 16])
def test_the_element_path_matches_the_kernels_built_per_call(u):
    """cyl, subst and diag on kept kernels give the bits and types of the
    per-call builds for every coordinate and ordered pair, with the calls
    on two equal but distinct spaces interleaved."""
    rng = random.Random(u)
    for n in range(1, 5):
        first, second = TupleSpace(u, n), TupleSpace(u, n)
        size = first.size
        patterns = (0, first.full_mask, rng.getrandbits(size), 1 << size - 1,
                    rng.getrandbits(max(size - u, 1)),  # below the top group
                    rng.getrandbits(u) << u * rng.randrange(size // u))  # one group
        values = [Element(space, bits) for bits in patterns for space in (first, second)]
        if n == 2:
            values.append(RaElement(u, rng.getrandbits(size)))
        coords = range(n)
        for x in values:
            for i in coords:
                assert outcome(cyl, i, x) == outcome(per_call.cyl, i, x), (n, i)
                assert cyl(i, x).space is x.space
                for j in coords:
                    assert outcome(subst, i, j, x) == outcome(per_call.subst, i, j, x), (n, i, j)
                    assert outcome(diag, x.space, i, j) == outcome(per_call.diag, x.space, i, j)


def test_the_element_path_raises_the_errors_of_the_per_call_builds():
    """A bad coordinate raises IndexError before i == j raises ValueError;
    a relation, a value of another type and a non-value raise as before."""
    space = TupleSpace(3, 3)
    x = Element(space, random.Random(1).getrandbits(space.size))
    relation = RaElement(3, 0b101)
    calls = [(cyl, (c, x)) for c in (-1, 3, 7)]
    calls += [(subst, (i, j, x)) for i, j in ((3, 3), (-1, -1), (0, 3), (3, 0), (1, 1), (2, 2))]
    calls += [(diag, (space, i, j)) for i, j in ((3, 3), (0, 3), (-1, 0))]
    calls += [(subst, (0, 1, relation)), (subst, (1, 0, relation)), (subst, (1, 1, relation)),
              (subst, (0, 1, 5)), (cyl, (0, 5)), (subst, (0, 1, "x"))]
    for f, args in calls:
        got = outcome(f, *args)
        assert got == outcome(getattr(per_call, f.__name__), *args), (f.__name__, args)
        assert issubclass(got[0], Exception), (f.__name__, args)
    assert outcome(subst, 3, 3, x)[0] is IndexError
    assert outcome(subst, 1, 1, x)[0] is ValueError
    assert outcome(subst, 0, 1, relation)[0] is TypeError


def test_a_kernel_whose_build_raised_is_not_kept(monkeypatch):
    import baokit.spaces

    space = TupleSpace(4, 3)
    x = Element(space, random.Random(2).getrandbits(space.size))
    with pytest.raises(IndexError):
        cyl(3, x)
    assert space.operators.functions == {}

    def failing(*args):
        raise MemoryError("no room for the kernel")

    monkeypatch.setattr(baokit.spaces, "cylinder", failing)
    for call in (lambda: cyl(1, x), lambda: subst(1, 0, x)):
        with pytest.raises(MemoryError):
            call()
    assert space.operators.functions == {}
    monkeypatch.undo()
    assert cyl(1, x) == per_call.cyl(1, x)
    assert subst(1, 0, x) == per_call.subst(1, 0, x)


def test_subst_keeps_no_diagonal_on_the_space():
    """Kept diagonals, one per pair, grew the peak RSS of perfbench's
    `wide`, so subst over every pair keeps cylinder kernels alone, and no
    int those kernels hold is a diagonal."""
    for u, n in ((3, 3), (5, 4), (16, 3)):
        space = TupleSpace(u, n)
        x = Element(space, random.Random(u).getrandbits(space.size))
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for i, j in pairs:
            subst(i, j, x)
        table = space.operators
        assert set(table.functions) == {("cyl", (i,)) for i in range(n)}
        diagonals = {diagonal_at(space, i, j) for i, j in pairs}
        assert diagonals.isdisjoint(kept_ints(table))


def test_a_set_algebra_runs_the_table_of_its_space():
    amb = SetAlgebra("CA", 3, 3)
    assert amb.operators is amb.space.operators
    x = amb.random_element(random.Random(4))
    assert cyl(1, x) == amb.apply(("cyl", (1,)), x)
    assert set(amb.operators.functions) == {("cyl", (1,))}
