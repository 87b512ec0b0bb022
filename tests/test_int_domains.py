"""The int path of `algebras` and `freeness` against the value-level path
it replaced (`element_path`), over full, relativized and product domains:
the same atoms in the same order, carriers, hereditary closure, serialize
text, closure caps, isomorphisms and extensions."""

import random
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import element_path as ep
from baokit import (
    ClosureCapError,
    FiniteAlgebra,
    PreconditionError,
    RaElement,
    RelationAlgebra,
    SetAlgebra,
    SpaceMismatchError,
    atoms,
    extend_homomorphism,
    find_isomorphism,
    generate_subalgebra,
    is_hereditary_closed,
    product,
    relativize,
)
from baokit.algebras import ProductDomain, RelativizedDomain, _split
from baokit.freeness import ExtensionConflict
from baokit.spaces import Element, TupleSpace
from test_refinement import scan_hereditary


def _ambients():
    return [
        SetAlgebra("BA", 2, 2),
        SetAlgebra("DF", 2, 2),
        SetAlgebra("SC", 2, 2),
        SetAlgebra("CA", 2, 2),
        SetAlgebra("CA", 3, 2),
        SetAlgebra("SC", 2, 3),
        RelationAlgebra(2),
        RelationAlgebra(3),
    ]


def domains(rng) -> list:
    """(label, domain, a function drawing a value of it) of every kind."""
    out = []
    for amb in _ambients():
        out.append((f"full {amb!r}", amb, amb.random_element))
        b = amb.random_element(rng)
        out.append((f"relativized {amb!r}", RelativizedDomain(amb, b.bits),
                    lambda r, amb=amb, b=b: amb.random_element(r) & b))
    ca, sc, ra = SetAlgebra("CA", 2, 2), SetAlgebra("SC", 2, 2), RelationAlgebra(2)
    for left, right in ((ca, ca), (sc, SetAlgebra("SC", 3, 2)), (ra, ra)):
        out.append((f"product {left!r} x {right!r}", ProductDomain(left, right),
                    lambda r, left=left, right=right: (left.random_element(r),
                                                       right.random_element(r))))
    b = sc.random_element(rng)
    inner = RelativizedDomain(sc, b.bits)
    out.append(("product relativized x full", ProductDomain(inner, sc),
                lambda r: (sc.random_element(r) & b, sc.random_element(r))))
    return out


DOMAINS = domains(random.Random(31))


def _outcome(fn):
    try:
        return fn()
    except ClosureCapError as exc:
        return "cap", exc.partial_size


def _check_against_values(domain, gens):
    values = ep.element_domain(domain)
    new = generate_subalgebra(domain, gens, cap=1 << 16)
    old = ep.generate_subalgebra(values, gens, cap=1 << 16)
    assert atoms(new) == old.atoms
    assert list(new.carrier) == list(old.carrier)
    # a cap that the closure passes fails in the same round, at the same size
    for cap in (1 << k for k in range(len(new.atom_bits) + 1)):
        got = _outcome(lambda: atoms(generate_subalgebra(domain, gens, cap=cap)))
        assert got == _outcome(lambda: ep.generate_subalgebra(values, gens, cap=cap).atoms)
    closed = scan_hereditary(values, {values.key(x): x for x in old.carrier[:512]})
    for x in new.carrier[:512]:
        assert is_hereditary_closed(new, x) == ep.is_hereditary_closed(old, x)
        if new.size <= 512:
            assert is_hereditary_closed(new, x) == (values.key(x) in closed)
    if new.size <= 256 and all(isinstance(x, (Element, RaElement)) for x in new.carrier):
        assert new.serialize() == old.serialize()
    return new, old


@pytest.mark.parametrize("label,domain,draw", DOMAINS, ids=[d[0] for d in DOMAINS])
def test_generation_matches_the_value_path(label, domain, draw):
    rng = random.Random(label)
    for count in (0, 1, 1, 2):
        _check_against_values(domain, [draw(rng) for _ in range(count)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(DOMAINS) - 1), st.integers(0, 2), st.randoms(use_true_random=False))
def test_generation_matches_the_value_path_on_drawn_generators(index, count, rng):
    _, domain, draw = DOMAINS[index]
    _check_against_values(domain, [draw(rng) for _ in range(count)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=6), st.lists(st.integers(0, 255), max_size=6))
def test_split_matches_the_value_split(blocks, splitters):
    # cells: the nonzero differences of a chain of unions, so disjoint
    amb = SetAlgebra("BA", 8, 1)
    cells, seen = [], 0
    for bits in blocks:
        if bits & ~seen:
            cells.append(bits & ~seen)
            seen |= bits
    got = _split(cells, splitters)
    values = ep.FullDomain(amb)
    wrap = amb.from_bits
    want = ep._split(values, list(map(wrap, cells)), list(map(wrap, splitters)))
    assert got == [x.bits for x in want]


def _catalogue(rng) -> list:
    """Small algebras, by signature, with products and relativizations."""
    out = []
    for amb in (SetAlgebra("CA", 2, 2), SetAlgebra("SC", 2, 2), RelationAlgebra(2)):
        whole = generate_subalgebra(amb, [amb.random_element(rng)], cap=64)
        consts = generate_subalgebra(amb, [])
        b = whole.carrier[rng.randrange(len(whole.carrier))]
        family = [whole, consts, relativize(whole, b), product(consts, consts)]
        family.append(product(relativize(whole, b), consts))
        out.append([alg for alg in family if len(atoms(alg)) <= 5])
    return out


def _values(alg):
    """The value-level twin of an algebra: its domain's twin and atoms."""
    return ep.Algebra(ep.element_domain(alg.domain), atoms(alg))


def test_isomorphisms_match_the_value_path():
    found = 0
    for family in _catalogue(random.Random(5)):
        for left, right in iproduct(family, repeat=2):
            got = find_isomorphism(left, right)
            want = ep.find_isomorphism(_values(left), _values(right))
            assert (got is None) == (want is None)
            if got is None:
                continue
            found += 1
            assert atoms(got.graph) == want.atoms
            assert got.mapping == {left.domain.key(x): y for x, y in want.carrier}
    assert found >= 8


def test_extensions_match_the_value_path():
    rng = random.Random(9)
    seen = set()
    for family in _catalogue(random.Random(6)):
        for source, target in iproduct(family, repeat=2):
            for count in (0, 1, 1, 2):
                gens = rng.choices(source.carrier, k=count)
                images = rng.choices(target.carrier, k=count)
                want = ep.extend_homomorphism(_values(source), gens, _values(target), images)
                try:
                    got = extend_homomorphism(source, gens, target, images)
                except PreconditionError:
                    assert want == "does not generate"
                    seen.add(want)
                    continue
                if isinstance(got, ExtensionConflict):
                    assert want == ("conflict", got.images[1])
                    assert got.element == source.zero and got.images[0] == target.zero
                else:
                    assert want[0] == "map"
                    assert atoms(got.graph) == want[1].atoms
                    assert got.mapping == {
                        source.domain.key(x): y for x, y in want[1].carrier
                    }
                seen.add(want[0] if isinstance(want, tuple) else want)
    assert seen == {"conflict", "does not generate", "map"}


def test_product_keys_are_packed_ints_in_pair_order():
    ca = SetAlgebra("CA", 2, 2)
    alg = generate_subalgebra(ca, [ca.element([(0, 1)])])
    squared = product(alg, alg)
    values = ep.element_domain(squared.domain)
    keys = [squared.domain.key(x) for x in squared.carrier]
    assert keys == sorted(keys) == list(squared.carrier_bits)
    assert [values.key(x) for x in squared.carrier] == sorted(map(values.key, squared.carrier))
    assert all(k == values.key(x)[0] << 4 | values.key(x)[1]
               for k, x in zip(keys, squared.carrier))


# -- values outside the domain ------------------------------------------------

def _ca_subalgebra():
    ca = SetAlgebra("CA", 2, 2)
    return ca, generate_subalgebra(ca, [ca.element([(0, 1)])])


FOREIGN = {
    "element of u=3": Element(TupleSpace(3, 2), 1),
    "int": 5,
    "str": "x",
    "relation": RaElement(2, 1),
    "pair": (SetAlgebra("CA", 2, 2).one, SetAlgebra("CA", 2, 2).one),
    "unhashable": [1],
}


@pytest.mark.parametrize("name", sorted(FOREIGN))
def test_a_value_outside_the_domain_is_not_a_member(name):
    _, alg = _ca_subalgebra()
    v = FOREIGN[name]
    assert v not in alg
    with pytest.raises(PreconditionError, match="b must belong to the carrier"):
        is_hereditary_closed(alg, v)
    with pytest.raises(PreconditionError, match="b must belong to the carrier"):
        relativize(alg, v)
    with pytest.raises(SpaceMismatchError):
        generate_subalgebra(alg.domain, [v])


def test_values_outside_other_domains_are_not_members():
    ca, alg = _ca_subalgebra()
    read = FiniteAlgebra.deserialize(alg.serialize())
    squared = product(alg, alg)
    rel = relativize(alg, alg.carrier[1])
    pair = FOREIGN["element of u=3"], FOREIGN["element of u=3"]
    outside = [v for name, v in FOREIGN.items() if name != "pair"]
    for algebra in (read, squared, rel):
        for v in outside + [pair, (ca.one,), (ca.one, 5)]:
            assert v not in algebra
    # an algebra read back holds bits 1, yet an Element of another space is not its value
    assert any(v.bits == 1 for v in read.carrier) and FOREIGN["element of u=3"] not in read
    assert FOREIGN["pair"] in squared and FOREIGN["pair"] not in read
    # below the top of the ambient, yet outside the relativization
    assert ca.one not in rel and alg.carrier[1] in rel
    # a pair whose right part passes the width of the right top
    wide = RelativizedDomain(ca, 1)
    pairs = FiniteAlgebra.from_atoms(ProductDomain(ca, wide), [1 << 1, 1])
    assert (ca.zero, ca.from_bits(2)) not in pairs and (ca.zero, ca.from_bits(1)) in pairs
