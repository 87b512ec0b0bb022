import random

import pytest

from baokit import (
    CapacityError,
    ClosureCapError,
    FiniteAlgebra,
    InputError,
    PreconditionError,
    RelationAlgebra,
    SetAlgebra,
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
    # the converse table of the algebra of Id and its complement is the
    # identity, so each atom is fixed and the top is hereditarily closed
    ra = RelationAlgebra(2)
    text = generate_subalgebra(ra, [ra.identity]).serialize()
    assert "table conv 0 1 2 3\n" in text
    back = FiniteAlgebra.deserialize(text)
    assert is_hereditary_closed(back, back.one)


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
    assert back.serialize() == text


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
    amb = SetAlgebra("SC", 2, 3)
    alg = generate_subalgebra(amb, [amb.element([(0, 1, 0)])])
    inner = relativize(alg, alg.carrier[-2])  # each cut drops the lowest atom
    twice = relativize(inner, inner.carrier[-2])
    yield "doubly relativized", twice, "relativized(relativized(space 2 3))"
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
    assert back.serialize() == text, label


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


def test_outside_carrier_checked_exactly():
    amb, _ = diag_algebra()
    d01 = diag(amb.space, 0, 1)
    alg = FiniteAlgebra(amb, [amb.zero, d01, ~d01, amb.one])
    assert atoms(alg) == [~d01, d01]
    assert ~d01 in alg and "elsewhere" not in alg
    # not the set of joins of its atoms: ~d01 is missing
    with pytest.raises(InputError, match="joins"):
        FiniteAlgebra(amb, [amb.zero, d01, amb.one])
    # the joins of its atoms, but c_0 of the atom {(0, 0)} is not among them
    point = amb.element([(0, 0)])
    with pytest.raises(InputError, match="closed under cyl:0"):
        FiniteAlgebra(amb, [amb.zero, point, ~point, amb.one])


def test_deserialize_checks_every_row_against_the_domain():
    # each row must be the named domain's own operation on the elems: a
    # changed entry is refused and its row named, Boolean rows and constants too
    _, alg = diag_algebra()
    text = alg.serialize()
    for name, row, changed in (
        ("cyl:0", "table cyl:0 0 3 3 3", "table cyl:0 0 3 3 2"),
        ("cyl:0", "table cyl:0 0 3 3 3", "table cyl:0 1 3 3 3"),
        ("not", "table not 3 2 1 0", "table not 3 1 2 0"),
        ("or", "table or 0 1 2 3 1 1 3 3", "table or 0 1 2 3 1 1 3 2"),
        ("diag:0,1", "table diag:0,1 2", "table diag:0,1 1"),
        ("zero", "zero 0", "zero 3"),
    ):
        assert row in text
        with pytest.raises(InputError, match=f"table '{name}'"):
            FiniteAlgebra.deserialize(text.replace(row, changed))


def test_deserialize_signature_must_fit_the_domain():
    _, alg = diag_algebra()
    text = alg.serialize()
    assert text.startswith("baokit-algebra 1\nsignature CA 2\nspace 2 2\n")
    for header in (
        "signature CA 3\nspace 2 2",  # the dimension is the space's n
        "signature BA 2\nspace 2 2",  # a BA writes 0
        "signature RA 0\nspace 2 2",  # RA goes with rel
        "signature CA 2\nrel 2",
        "signature XY 2\nspace 2 2",
        "signature CA 2\nspace 0 2",
        "signature CA 2\ntables",
        "signature CA 2\nrelativized(space 2 2",
    ):
        with pytest.raises(InputError):
            FiniteAlgebra.deserialize(text.replace("signature CA 2\nspace 2 2", header))
    # relativized: the one row fixes the top, and the elems lie below it
    rel = relativize(alg, alg.carrier[1]).serialize()
    assert FiniteAlgebra.deserialize(rel).one.bits == alg.carrier_bits[1]
    with pytest.raises(InputError):
        FiniteAlgebra.deserialize(rel.replace("elem 0\n", "elem f\n"))


def test_deserialize_names_a_number_that_does_not_parse():
    _, alg = diag_algebra()
    text = alg.serialize()
    for old, new, token in (
        ("signature CA 2", "signature CA x", "'x'"),
        ("elem 6", "elem zz", "'zz'"),
        ("carrier 4", "carrier four", "'four'"),
        ("space 2 2", "space 2 two", "'two'"),
        ("one 3", "one three", "'three'"),
    ):
        with pytest.raises(InputError, match=token):
            FiniteAlgebra.deserialize(text.replace(old, new))


def test_deserialize_refuses_elems_outside_the_domain_or_listed_twice():
    _, alg = diag_algebra()
    text = alg.serialize()
    with pytest.raises(InputError, match="elem 1f lies outside"):
        FiniteAlgebra.deserialize(text.replace("elem f\n", "elem 1f\n"))
    with pytest.raises(InputError, match="twice"):
        FiniteAlgebra.deserialize(text.replace("elem 9\n", "elem 6\n"))


def test_serialize_past_256_elements_is_a_capacity_error():
    free, _ = free_boolean_algebra(4)
    with pytest.raises(CapacityError, match="256 elements"):
        free.serialize()
