import random

import pytest

from baokit import (
    ClosureCapError,
    FiniteAlgebra,
    PreconditionError,
    RelationAlgebra,
    SetAlgebra,
    Signature,
    atom_below,
    atoms,
    decompose_by_zero_dimensional,
    diag,
    discriminator_value,
    find_isomorphism,
    free_boolean_algebra,
    generate_subalgebra,
    is_hereditary_closed,
    principal_ideal,
    product,
    relativize,
)
from baokit.algebras import TableDomain


def diag_algebra():
    amb = SetAlgebra("CA", 2, 2)
    return amb, generate_subalgebra(amb, [diag(amb.space, 0, 1)])


def test_closure_of_diagonal_is_four_elements():
    amb, alg = diag_algebra()
    d01 = diag(amb.space, 0, 1)
    assert len(alg.carrier) == 4
    assert set(alg.carrier) == {amb.zero, d01, ~d01, amb.one}
    # oracle: cylinders of both nonextremes are full, by scan
    members = set(d01.tuples())
    for x in (d01, ~d01):
        tuples = set(x.tuples())
        c0 = {s for s in amb.space.tuples() if any((t, s[1]) in tuples for t in range(2))}
        assert len(c0) == 4


def test_closure_of_one_is_trivial():
    # no generators at all give the same: the subalgebra of the constants
    for kind in ("BA", "DF", "SC"):
        amb = SetAlgebra(kind, 2, 2)
        for gens in ([amb.one], []):
            alg = generate_subalgebra(amb, gens)
            assert alg.carrier == (amb.zero, amb.one)
    # with diagonals, the constants always join the closure
    amb, diagonal = diag_algebra()
    for gens in ([amb.one], []):
        alg = generate_subalgebra(amb, gens)
        assert alg.carrier == diagonal.carrier
        assert diag(amb.space, 0, 1) in alg


def test_closure_cap_reports_partial_size():
    amb = SetAlgebra("SC", 2, 3)
    x = amb.element([s for s in amb.space.tuples() if s[0] < s[1]])
    with pytest.raises(ClosureCapError) as info:
        generate_subalgebra(amb, [x], cap=10)
    assert info.value.partial_size > 10


def test_closure_is_idempotent():
    amb, alg = diag_algebra()
    again = generate_subalgebra(amb, list(alg.carrier), cap=16)
    assert again.carrier == alg.carrier


def test_atoms_examples():
    amb, alg = diag_algebra()
    d01 = diag(amb.space, 0, 1)
    assert set(atoms(alg)) == {d01, ~d01}
    ba = SetAlgebra("BA", 2, 1)
    two = generate_subalgebra(ba, [ba.one])
    assert atoms(two) == [ba.one]
    free2, _ = free_boolean_algebra(2)
    assert len(atoms(free2)) == 4


def test_atoms_are_minimal_by_scan():
    rng = random.Random(4)
    amb = SetAlgebra("CA", 2, 3)
    for _ in range(5):
        alg = generate_subalgebra(amb, [amb.random_element(rng)], cap=1024)
        ats = atoms(alg)
        for a in ats:
            assert not a.is_zero()
            for y in alg.carrier:
                if not y.is_zero() and y != a:
                    assert not y < a
        for x in alg.carrier:
            if not x.is_zero():
                assert any(a <= x for a in ats)
        for a in ats:
            for b in ats:
                if a != b:
                    assert (a & b).is_zero()


def test_atom_below_examples():
    amb, alg = diag_algebra()
    d01 = diag(amb.space, 0, 1)
    assert atom_below(alg, amb.one, d01) == ~d01
    # b = 0: any atom below a comes back
    a = d01
    assert atom_below(alg, a, amb.zero) == d01
    with pytest.raises(PreconditionError):
        atom_below(alg, d01, d01)


def test_atom_below_minimality_randomized():
    rng = random.Random(7)
    amb = SetAlgebra("CA", 2, 2)
    for _ in range(10):
        g = amb.random_element(rng)
        alg = generate_subalgebra(amb, [g], cap=256)
        for a in alg.carrier:
            for b in alg.carrier:
                if a.is_zero() or (a & ~b).is_zero():
                    continue
                atom = atom_below(alg, a, b)
                assert atom <= a & ~b
                for y in alg.carrier:
                    if not y.is_zero() and y != atom:
                        assert not y < atom


def test_relativize_free_ba():
    free2, gens = free_boolean_algebra(2)
    g0, g1 = gens
    rel = relativize(free2, g0)
    assert len(rel.carrier) == 4
    sub = generate_subalgebra(rel.domain, [g1 & g0], cap=8)
    assert len(sub.carrier) == 4  # g1.g0 freely generates the relativization
    assert relativize(free2, free2.one).carrier == free2.carrier
    assert relativize(free2, free2.zero).is_degenerate


def test_relativize_atom_split():
    rng = random.Random(11)
    free3, _ = free_boolean_algebra(3)
    carrier = free3.carrier
    for _ in range(8):
        b = carrier[rng.randrange(len(carrier))]
        below = relativize(free3, b)
        above = relativize(free3, ~b)
        assert len(atoms(below)) + len(atoms(above)) == len(atoms(free3))


def test_principal_ideal_examples():
    amb, alg = diag_algebra()
    d01 = diag(amb.space, 0, 1)
    assert principal_ideal(alg, amb.zero).members == (amb.zero,)
    ideal = principal_ideal(alg, d01)
    assert ideal.closure == amb.one
    assert set(ideal.members) == set(alg.carrier)
    free2, gens = free_boolean_algebra(2)
    ba_ideal = principal_ideal(free2, gens[0])
    assert set(ba_ideal.members) == {x for x in free2.carrier if x <= gens[0]}


def test_ideal_closure_matches_discriminator():
    amb, alg = diag_algebra()
    for b in alg.carrier:
        assert principal_ideal(alg, b).closure == discriminator_value(alg, b)


def test_ideal_members_downward_and_join_closed():
    free2, gens = free_boolean_algebra(2)
    ideal = principal_ideal(free2, gens[0])
    members = set(ideal.members)
    for x in members:
        for y in free2.carrier:
            if y <= x:
                assert y in members
    for x in members:
        for y in members:
            assert (x | y) in members


def test_product_structure():
    two = generate_subalgebra(SetAlgebra("BA", 2, 1), [SetAlgebra("BA", 2, 1).one])
    four = product(two, two)
    assert len(four.carrier) == 4
    assert len(atoms(four)) == 2


def test_product_of_relativizations_isomorphic():
    rng = random.Random(13)
    free3, _ = free_boolean_algebra(3)
    for _ in range(4):
        b = free3.carrier[rng.randrange(len(free3.carrier))]
        left = relativize(free3, b)
        right = relativize(free3, ~b)
        assert find_isomorphism(product(left, right), free3) is not None


def test_product_of_generated_algebra_not_simple():
    amb = SetAlgebra("SC", 2, 3)
    x = amb.element([s for s in amb.space.tuples() if s[0] < s[1]])
    alg = generate_subalgebra(amb, [x], cap=256)
    doubled = product(alg, alg)
    value = discriminator_value(doubled, (x, amb.zero))
    assert value != doubled.one
    assert value == (amb.one, amb.zero)


def test_decompose_examples():
    free2, gens = free_boolean_algebra(2)
    for b in free2.carrier:
        decomposition = decompose_by_zero_dimensional(free2, b)
        assert len(decomposition.below.carrier) * len(decomposition.above.carrier) == len(
            free2.carrier
        )
    amb, alg = diag_algebra()
    with pytest.raises(PreconditionError) as info:
        decompose_by_zero_dimensional(alg, diag(amb.space, 0, 1))
    assert info.value.witness is not None


def test_decompose_b_equals_one():
    free1, _ = free_boolean_algebra(1)
    decomposition = decompose_by_zero_dimensional(free1, free1.one)
    assert decomposition.above.is_degenerate
    assert len(decomposition.below.carrier) == len(free1.carrier)


def test_hereditary_closed_examples():
    amb, alg = diag_algebra()
    assert is_hereditary_closed(alg, amb.zero)
    # -c0 -d01 evaluates to 0 over this base, by scan
    d01 = diag(amb.space, 0, 1)
    members = set((~d01).tuples())
    c0 = {s for s in amb.space.tuples() if any((t, s[1]) in members for t in range(2))}
    assert len(c0) == 4
    target = ~amb.element(c0)
    assert target.is_zero()
    assert is_hereditary_closed(alg, target)
    assert not is_hereditary_closed(alg, amb.one)


def test_hereditary_closed_identity_tables():
    values = ["bottom", "a", "b", "top"]
    meets = {
        ("bottom", v): "bottom" for v in values
    }
    meets.update({(v, "bottom"): "bottom" for v in values})
    meets.update({("top", v): v for v in values})
    meets.update({(v, "top"): v for v in values})
    meets.update({("a", "a"): "a", ("b", "b"): "b", ("a", "b"): "bottom", ("b", "a"): "bottom"})
    joins = {
        (x, y): min((z for z in values if meets[(z, x)] == x and meets[(z, y)] == y),
                    key=values.index)
        for x in values
        for y in values
    }
    compl = {("bottom",): "top", ("top",): "bottom", ("a",): "b", ("b",): "a"}
    tables = {
        "zero": {(): "bottom"},
        "one": {(): "top"},
        "and": meets,
        "or": joins,
        "not": compl,
        "cyl:0": {(v,): v for v in values},
    }
    domain = TableDomain(Signature("DF", 1), values, tables)
    alg = FiniteAlgebra(domain, values)
    assert is_hereditary_closed(alg, "top")


def test_atom_bound_under_hereditarily_closed_two_generators():
    # |atoms below a hereditarily closed b| stays under 2**m for m generators
    rng = random.Random(17)
    amb = SetAlgebra("CA", 2, 2)
    for _ in range(6):
        gens = [amb.random_element(rng), amb.random_element(rng)]
        alg = generate_subalgebra(amb, gens, cap=2048)
        ats = atoms(alg)
        for b in alg.carrier:
            if is_hereditary_closed(alg, b):
                inside = [a for a in ats if a <= b]
                assert len(inside) <= 4


def test_atom_below_succeeds_throughout_generated_algebras():
    # single- and doubly-generated subalgebras are atomic: the search
    # succeeds whenever its precondition holds
    rng = random.Random(19)
    for amb in (SetAlgebra("CA", 2, 2), SetAlgebra("SC", 2, 3)):
        for _ in range(3):
            alg = generate_subalgebra(amb, [amb.random_element(rng)], cap=4096)
            for a in alg.carrier:
                for b in alg.carrier:
                    if a.is_zero() or (a & ~b).is_zero():
                        continue
                    assert atom_below(alg, a, b) is not None


def test_serialize_golden():
    amb, alg = diag_algebra()
    golden = (
        "baokit-algebra 1\n"
        "signature CA 2\n"
        "space 2 2\n"
        "carrier 4\n"
        "elem 0\n"
        "elem 6\n"
        "elem 9\n"
        "elem f\n"
        "zero 0\n"
        "one 3\n"
        "table not 3 2 1 0\n"
        "table and 0 0 0 0 0 1 0 1 0 0 2 2 0 1 2 3\n"
        "table or 0 1 2 3 1 1 3 3 2 3 2 3 3 3 3 3\n"
        "table cyl:0 0 3 3 3\n"
        "table cyl:1 0 3 3 3\n"
        "table diag:0,1 2\n"
    )
    assert alg.serialize() == golden


def test_serialize_roundtrip():
    amb, alg = diag_algebra()
    text = alg.serialize()
    back = FiniteAlgebra.deserialize(text)
    assert len(back.carrier) == len(alg.carrier)
    assert set(atoms(back)) == set(atoms(alg))
    assert back.serialize().splitlines()[3:] == text.splitlines()[3:]


def _builders():  # label, algebra, the domain line `serialize` writes
    rng = random.Random(23)
    for kind, u, n in (("CA", 2, 2), ("DF", 2, 2), ("SC", 2, 2)):
        amb = SetAlgebra(kind, u, n)
        yield f"generated {kind}", generate_subalgebra(amb, [amb.random_element(rng)]), "space 2 2"
    ra = RelationAlgebra(2)
    yield "generated RA", generate_subalgebra(ra, [ra.random_element(rng)]), "rel 2"
    amb, alg = diag_algebra()
    yield "relativized", relativize(alg, diag(amb.space, 0, 1)), "relativized(space 2 2)"
    yield "relativized to 0", relativize(alg, amb.zero), "relativized(space 2 2)"
    for k in range(4):
        yield f"free k={k}", free_boolean_algebra(k)[0], f"space {2**k} 1"


BUILDERS = list(_builders())


@pytest.mark.parametrize("label,algebra,domain_line", BUILDERS, ids=[b[0] for b in BUILDERS])
def test_serialize_roundtrip_every_builder(label, algebra, domain_line):
    text = algebra.serialize()
    assert text.splitlines()[2] == domain_line
    back = FiniteAlgebra.deserialize(text)
    key = algebra.domain.key
    assert [x.bits for x in back.carrier] == [key(x) for x in algebra.carrier], label
    assert [a.bits for a in atoms(back)] == [key(a) for a in atoms(algebra)], label
    assert back.serialize().splitlines()[3:] == text.splitlines()[3:], label
    assert FiniteAlgebra.deserialize(back.serialize()).serialize() == back.serialize()


def test_a_full_algebra_is_the_domain_of_its_subalgebras():
    rng = random.Random(5)
    for amb in (SetAlgebra("CA", 2, 2), RelationAlgebra(2)):
        assert generate_subalgebra(amb, [amb.random_element(rng)]).domain is amb


def test_serialize_product_refused():
    free1, _ = free_boolean_algebra(1)
    with pytest.raises(PreconditionError):
        product(free1, free1).serialize()


def test_deserialize_truncated_text_is_value_error():
    _, alg = diag_algebra()
    lines = alg.serialize().splitlines()
    for cut in range(len(lines)):
        with pytest.raises(ValueError):
            FiniteAlgebra.deserialize("\n".join(lines[:cut]) + "\n")
    with pytest.raises(ValueError):
        FiniteAlgebra.deserialize("\n".join(lines[:-1] + [lines[-1] + " 7"]) + "\n")


def _square_tables(**extra):
    values = ["bottom", "a", "b", "top"]
    sets = {"bottom": set(), "a": {1}, "b": {2}, "top": {1, 2}}
    name = {frozenset(v): k for k, v in sets.items()}
    tables = {
        "zero": {(): "bottom"},
        "one": {(): "top"},
        "and": {(x, y): name[frozenset(sets[x] & sets[y])] for x in values for y in values},
        "or": {(x, y): name[frozenset(sets[x] | sets[y])] for x in values for y in values},
        "not": {(x,): name[frozenset({1, 2} - sets[x])] for x in values},
        "cyl:0": {(v,): v for v in values},
    }
    tables.update(extra)
    return values, tables


def test_outside_carrier_checked_exactly():
    values, tables = _square_tables()
    alg = FiniteAlgebra(TableDomain(Signature("DF", 1), values, tables), values)
    assert atoms(alg) == ["a", "b"]
    assert "b" in alg and "elsewhere" not in alg
    # not the set of joins of its atoms: "b" is missing
    with pytest.raises(ValueError):
        FiniteAlgebra(TableDomain(Signature("DF", 1), values, tables), ["bottom", "a", "top"])
    # not additive: the top is not sent to the join of the images of a and b
    values, tables = _square_tables(**{"cyl:0": {("bottom",): "bottom", ("a",): "a",
                                                 ("b",): "b", ("top",): "a"}})
    with pytest.raises(ValueError, match="additive"):
        FiniteAlgebra(TableDomain(Signature("DF", 1), values, tables), values)
    # not normal
    values, tables = _square_tables(**{"cyl:0": {(v,): "top" for v in values}})
    with pytest.raises(ValueError, match="normal"):
        FiniteAlgebra(TableDomain(Signature("DF", 1), values, tables), values)
