from itertools import combinations, product as iproduct

import pytest

from baokit import (
    CapacityError,
    FiniteAlgebra,
    PreconditionError,
    SetAlgebra,
    atoms,
    diag,
    extend_homomorphism,
    find_isomorphism,
    free_boolean_algebra,
    generate_subalgebra,
    is_independent,
    product,
    splitting_check,
)
from baokit.algebras import SetDomain
from baokit.example import example_algebra
from baokit.freeness import ExtensionConflict, Homomorphism


def two_element():
    amb = SetAlgebra("BA", 2, 1)
    return generate_subalgebra(amb, [amb.one])


def test_free_ba_sizes_and_atoms():
    for k in range(4):
        algebra, gens = free_boolean_algebra(k)
        assert len(algebra.carrier) == 2 ** (2**k)
        assert len(atoms(algebra)) == 2**k
        assert len(gens) == k
    with pytest.raises(CapacityError):
        free_boolean_algebra(5)


def test_free_ba_generators_generate():
    algebra, gens = free_boolean_algebra(2)
    sub = generate_subalgebra(algebra.domain, gens, cap=16)
    assert len(sub.carrier) == 16


def test_extend_homomorphism_always_works_into_two():
    free2, gens = free_boolean_algebra(2)
    two = two_element()
    for images in iproduct(two.carrier, repeat=2):
        result = extend_homomorphism(free2, gens, two, list(images))
        assert isinstance(result, Homomorphism)
        # verify on a sample of the carrier
        for x in free2.carrier[:8]:
            for y in free2.carrier[:8]:
                assert result(free2.meet(x, y)) == two.meet(result(x), result(y))


def test_extend_homomorphism_identity():
    free1, gens = free_boolean_algebra(1)
    result = extend_homomorphism(free1, gens, free1, gens)
    assert isinstance(result, Homomorphism)
    assert all(result(x) == x for x in free1.carrier)


def test_extend_homomorphism_conflict_witness():
    # two disjoint atoms cannot map to overlapping values
    free2, gens = free_boolean_algebra(2)
    a1 = free2.meet(gens[0], free2.compl(gens[1]))
    a2 = free2.meet(gens[1], free2.compl(gens[0]))
    sub = generate_subalgebra(free2.domain, [a1, a2], cap=16)
    free1, (g,) = free_boolean_algebra(1)
    conflict = extend_homomorphism(sub, [a1, a2], free1, [g, g])
    assert isinstance(conflict, ExtensionConflict)
    assert len(conflict.images) == 2


def test_extend_homomorphism_nongenerating_reported():
    free2, gens = free_boolean_algebra(2)
    two = two_element()
    with pytest.raises(PreconditionError):
        extend_homomorphism(free2, [gens[0]], two, [two.one])


def test_independence_examples():
    free2, gens = free_boolean_algebra(2)
    assert is_independent(free2, gens)
    assert not is_independent(free2, [gens[0], free2.meet(gens[0], gens[1])])
    assert not is_independent(free2, [free2.zero])
    # a two-element redundant set cannot generate the sixteen-element algebra
    sub = generate_subalgebra(
        free2.domain, [gens[0], free2.meet(gens[0], gens[1])], cap=16
    )
    assert len(sub.carrier) == 8


def test_independence_with_probe_family():
    amb = SetAlgebra("CA", 2, 2)
    alg = generate_subalgebra(amb, [diag(amb.space, 0, 1)])
    # a diagonal constant is never free: homomorphisms must fix it
    assert not is_independent(alg, [diag(amb.space, 0, 1)], probe_family=[alg])
    with pytest.raises(PreconditionError):
        is_independent(alg, [diag(amb.space, 0, 1)], probe_family=[])
    # against the degenerate one-element probe every map extends
    from baokit import relativize

    degenerate = relativize(alg, amb.zero)
    assert is_independent(alg, [diag(amb.space, 0, 1)], probe_family=[degenerate])


def test_find_isomorphism_free_ba_products():
    for k in (1, 2):
        bigger, _ = free_boolean_algebra(k + 1)
        smaller, _ = free_boolean_algebra(k)
        squared = product(smaller, smaller)
        iso = find_isomorphism(bigger, squared)
        assert iso is not None
        # verified bijective homomorphism
        images = {squared.domain.key(iso(x)) for x in bigger.carrier}
        assert len(images) == len(bigger.carrier)
        for x in bigger.carrier[:10]:
            for y in bigger.carrier[:10]:
                assert squared.domain.key(iso(bigger.meet(x, y))) == squared.domain.key(
                    squared.meet(iso(x), iso(y))
                )


def test_find_isomorphism_identity_and_mismatch():
    free1, _ = free_boolean_algebra(1)
    assert find_isomorphism(free1, free1) is not None
    amb = SetAlgebra("CA", 2, 1)
    ca1 = generate_subalgebra(amb, [diag(amb.space, 0, 0)])
    assert len(ca1.carrier) == 2
    # same carrier size as the two-element BA, different signature
    two = two_element()
    assert find_isomorphism(two, ca1) is None
    free2, _ = free_boolean_algebra(2)
    assert find_isomorphism(free1, free2) is None


def test_splitting_examples():
    free3, gens = free_boolean_algebra(3)
    assert splitting_check(free3, gens, gens[0], gens[2])
    assert splitting_check(free3, gens, free3.meet(gens[0], gens[1]), gens[2])
    atom = atoms(free3)[0]
    with pytest.raises(PreconditionError):
        splitting_check(free3, gens, atom, gens[2])


def test_splitting_exhaustive_small():
    for k in (2, 3):
        algebra, gens = free_boolean_algebra(k)
        for y in gens:
            rest = [g for g in gens if g != y]
            sub = generate_subalgebra(algebra.domain, rest, cap=len(algebra.carrier))
            for a in sub.carrier:
                if a.is_zero():
                    continue
                assert splitting_check(algebra, gens, a, y)


def test_algebras_past_sys_maxsize_reach_the_budgets():
    # 64 atoms: len() of such an algebra raises OverflowError
    example = example_algebra(4)
    big = example.algebra
    with pytest.raises(CapacityError):  # the 10-atom budget
        find_isomorphism(big, big)
    with pytest.raises(CapacityError):  # the probe's carrier, 2**64 elements
        is_independent(big, [example.generator], probe_family=[big])
    ambient = SetAlgebra("BA", 64, 1)
    gens = [
        ambient.from_bits(sum(1 << f for f in range(64) if (f >> i) & 1))
        for i in range(6)
    ]
    free6 = FiniteAlgebra.from_atoms(
        SetDomain(ambient), [ambient.from_bits(1 << f) for f in range(64)]
    )
    assert splitting_check(free6, gens, gens[0], gens[5])


def test_freeness_transfer_map_counts():
    # independent generating sets of the same size induce the same number
    # of maps into the two-element algebra
    two = two_element()
    free2, gens = free_boolean_algebra(2)
    candidates = []
    for pair in combinations(free2.carrier, 2):
        try:
            sub = generate_subalgebra(free2.domain, list(pair), cap=16)
        except Exception:
            continue
        if len(sub.carrier) == 16 and is_independent(free2, list(pair)):
            candidates.append(pair)
    assert gens[0:2] not in candidates or True
    assert candidates, "some independent generating pair exists"
    for pair in candidates[:6]:
        extending = 0
        for images in iproduct(two.carrier, repeat=2):
            if isinstance(
                extend_homomorphism(free2, list(pair), two, list(images)), Homomorphism
            ):
                extending += 1
        assert extending == len(two.carrier) ** 2
