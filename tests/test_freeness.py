import random
from itertools import combinations, permutations, product as iproduct

import pytest

from baokit import (
    CapacityError,
    FiniteAlgebra,
    PreconditionError,
    RelationAlgebra,
    SetAlgebra,
    atoms,
    decompose_by_zero_dimensional,
    diag,
    extend_homomorphism,
    find_isomorphism,
    free_boolean_algebra,
    generate_subalgebra,
    is_independent,
    principal_ideal,
    product,
    relativize,
    splitting_check,
)
from baokit.example import example_algebra
from baokit.freeness import ExtensionConflict, Homomorphism
from element_path import element_domain


def closure_extend(source, gens, target, images):
    """The all-pairs carrier closure that extend_homomorphism replaced: grow
    the pair relation under every operation until it stabilizes; the first
    element given two images is the conflict.  A homomorphism comes back as
    its mapping, source key -> target value."""
    sdom, tdom = element_domain(source.domain), element_domain(target.domain)
    skey = source.domain.key

    mapping: dict = {}
    frontier: list = []

    def record(x, y):
        k = skey(x)
        known = mapping.get(k)
        if known is None:
            mapping[k] = (x, y)
            frontier.append((x, y))
            return None
        if tdom.key(known[1]) != tdom.key(y):
            return ExtensionConflict(x, (known[1], y))
        return None

    seeds = [(source.zero, target.zero), (source.one, target.one)]
    for op, arity in source.operator_descriptors():
        if arity == 0:
            seeds.append((sdom.apply(op), tdom.apply(op)))
    seeds.extend(zip(gens, images))
    for x, y in seeds:
        conflict = record(x, y)
        if conflict:
            return conflict

    while frontier:
        batch, frontier = frontier, []
        pairs = list(mapping.values())
        for x, y in batch:
            conflict = record(sdom.compl(x), tdom.compl(y))
            if conflict:
                return conflict
            for op, arity in source.operator_descriptors():
                if arity == 1:
                    conflict = record(sdom.apply(op, x), tdom.apply(op, y))
                    if conflict:
                        return conflict
            for x2, y2 in pairs:
                for sx, sy in (
                    (sdom.meet(x, x2), tdom.meet(y, y2)),
                    (sdom.join(x, x2), tdom.join(y, y2)),
                ):
                    conflict = record(sx, sy)
                    if conflict:
                        return conflict
                for op, arity in source.operator_descriptors():
                    if arity == 2:
                        conflict = record(
                            sdom.apply(op, x, x2), tdom.apply(op, y, y2)
                        )
                        if conflict:
                            return conflict
                        conflict = record(
                            sdom.apply(op, x2, x), tdom.apply(op, y2, y)
                        )
                        if conflict:
                            return conflict

    if len(mapping) != len(source.carrier):
        raise PreconditionError(
            f"generators span only {len(mapping)} of {len(source.carrier)} elements"
        )
    return {k: y for k, (x, y) in mapping.items()}


def permutation_isomorphism(left, right):
    """The search that find_isomorphism replaced: try each bijection of the
    atoms and check every operator on (tuples of) atoms directly.  Returns
    the mapping, left key -> right value, or None."""
    if left.signature != right.signature or left.size != right.size:
        return None
    latoms, ratoms = atoms(left), atoms(right)
    ldom, rdom = element_domain(left.domain), element_domain(right.domain)

    def image(x, perm):
        out = right.zero
        for a, b in zip(latoms, perm):
            if ldom.key(ldom.meet(a, x)) == ldom.key(a):
                out = rdom.join(out, b)
        return out

    def respects_ops(perm):
        for op, arity in left.operator_descriptors():
            for idx in iproduct(range(len(latoms)), repeat=arity):
                got = rdom.apply(op, *(perm[i] for i in idx))
                want = image(ldom.apply(op, *(latoms[i] for i in idx)), perm)
                if rdom.key(got) != rdom.key(want):
                    return False
        return True

    for perm in permutations(ratoms):
        if respects_ops(perm):
            return {left.domain.key(x): image(x, perm) for x in left.carrier}
    return None


def meet_loop_independent(algebra, ys) -> bool:
    """The Boolean branch is_independent replaced: every meet of the ys and
    their complements is nonzero."""
    dom = element_domain(algebra.domain)
    for mask in range(1 << len(ys)):
        acc = algebra.one
        for i, y in enumerate(ys):
            acc = dom.meet(acc, y if (mask >> i) & 1 else dom.compl(y))
        if dom.key(acc) == dom.key(algebra.zero):
            return False
    return True


def catalogue() -> dict:
    """Small algebras of four signatures; the Boolean ones include the
    one-element algebra."""
    free = {f"F({k})": free_boolean_algebra(k)[0] for k in range(3)}
    ca2 = SetAlgebra("CA", 2, 2)
    ca3 = SetAlgebra("CA", 3, 2)
    df = SetAlgebra("DF", 2, 2)
    ra = RelationAlgebra(2)
    return {
        "BA": {**free, "one-element": relativize(free["F(1)"], free["F(1)"].zero)},
        "CA_2": {
            "diagonal u=2": generate_subalgebra(ca2, [diag(ca2.space, 0, 1)]),
            "constants u=3": generate_subalgebra(ca3, []),
            "full u=2": generate_subalgebra(ca2, [ca2.element([(0, 0)])]),
        },
        "DF_2": {
            "constants": generate_subalgebra(df, []),
            "point": generate_subalgebra(df, [df.element([(0, 1)])]),
        },
        "RA_2": {
            "constants": generate_subalgebra(ra, []),
            "full": generate_subalgebra(ra, [ra.element([(0, 1)])]),
        },
    }


def outcome(extend, source, gens, target, images):
    """What an extension gives, in comparable form: the type of result,
    with the mapping by keys for a homomorphism (or a mapping)."""
    try:
        result = extend(source, gens, target, images)
    except PreconditionError:
        return "does not generate"
    if isinstance(result, ExtensionConflict):
        return "conflict"
    key = target.domain.key
    mapping = result if isinstance(result, dict) else result.mapping
    return {k: key(y) for k, y in mapping.items()}


def extension_cases(rng):
    """(source, gens, target, images) over every same-signature pair of the
    catalogue: no generators, every single generator with every image, and
    a sample of generator pairs."""
    for family in catalogue().values():
        for source, target in iproduct(family.values(), repeat=2):
            yield source, [], target, []
            for x, y in iproduct(source.carrier, target.carrier):
                yield source, [x], target, [y]
            for _ in range(60):
                yield (source, rng.choices(source.carrier, k=2),
                       target, rng.choices(target.carrier, k=2))


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
        free_boolean_algebra(13)


def test_huge_free_ba_rank_fails_before_any_power():
    for k in (-1, 10**20):  # 4**k is never built
        with pytest.raises(CapacityError):
            free_boolean_algebra(k)


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
                assert result(x & y) == result(x) & result(y)


def test_extend_homomorphism_identity():
    free1, gens = free_boolean_algebra(1)
    result = extend_homomorphism(free1, gens, free1, gens)
    assert isinstance(result, Homomorphism)
    assert all(result(x) == x for x in free1.carrier)


def test_extend_homomorphism_conflict_witness():
    # two disjoint atoms cannot map to overlapping values
    free2, gens = free_boolean_algebra(2)
    a1 = gens[0] & ~gens[1]
    a2 = gens[1] & ~gens[0]
    sub = generate_subalgebra(free2.domain, [a1, a2], cap=16)
    free1, (g,) = free_boolean_algebra(1)
    conflict = extend_homomorphism(sub, [a1, a2], free1, [g, g])
    assert isinstance(conflict, ExtensionConflict)
    assert len(conflict.images) == 2


def test_extend_homomorphism_nongenerating_reported():
    free2, gens = free_boolean_algebra(2)
    two = two_element()
    with pytest.raises(PreconditionError, match=r"span only 2\*\*2 of 2\*\*4 elements"):
        extend_homomorphism(free2, [gens[0]], two, [two.one])
    # a generator outside the source spans more than the source
    outside = two.domain.from_bits(1)
    with pytest.raises(PreconditionError, match=r"span only 2\*\*2 of 2\*\*1"):
        extend_homomorphism(two, [outside], two, [two.one])


def test_independence_examples():
    free2, gens = free_boolean_algebra(2)
    assert is_independent(free2, gens)
    assert not is_independent(free2, [gens[0], gens[0] & gens[1]])
    assert not is_independent(free2, [free2.zero])
    # a two-element redundant set cannot generate the sixteen-element algebra
    sub = generate_subalgebra(
        free2.domain, [gens[0], gens[0] & gens[1]], cap=16
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
                left, right = iso(x), iso(y)
                assert iso(x & y) == (left[0] & right[0], left[1] & right[1])


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
    assert splitting_check(free3, gens, gens[0] & gens[1], gens[2])
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
    free6 = FiniteAlgebra.from_atoms(ambient, [1 << f for f in range(64)])
    assert splitting_check(free6, gens, gens[0], gens[5])


def test_freeness_transfer_map_counts():
    # independent generating sets of the same size induce the same number
    # of maps into the two-element algebra
    two = two_element()
    free2, gens = free_boolean_algebra(2)
    candidates = []
    for pair in combinations(free2.carrier, 2):
        sub = generate_subalgebra(free2.domain, list(pair), cap=16)
        if len(sub.carrier) == 16 and is_independent(free2, list(pair)):
            candidates.append(pair)
    assert tuple(gens) in candidates
    assert candidates, "some independent generating pair exists"
    for pair in candidates[:6]:
        extending = 0
        for images in iproduct(two.carrier, repeat=2):
            if isinstance(
                extend_homomorphism(free2, list(pair), two, list(images)), Homomorphism
            ):
                extending += 1
        assert extending == len(two.carrier) ** 2


def test_extend_homomorphism_matches_carrier_closure():
    rng = random.Random(0)
    seen = set()
    for source, gens, target, images in extension_cases(rng):
        got = outcome(extend_homomorphism, source, gens, target, images)
        assert got == outcome(closure_extend, source, gens, target, images)
        seen.add(got if isinstance(got, str) else "homomorphism")
    assert seen == {"conflict", "does not generate", "homomorphism"}


def test_extension_conflict_witness_is_a_zero_atom_of_the_graph():
    # in RA_2 the map (0,1) -> Id breaks comp: (0,1);(0,1) is 0, Id;Id is Id
    ra = RelationAlgebra(2)
    full = generate_subalgebra(ra, [ra.element([(0, 1)])])
    conflict = extend_homomorphism(full, [ra.element([(0, 1)])], full, [ra.identity])
    assert isinstance(conflict, ExtensionConflict)
    assert conflict.element == full.zero
    zero, y = conflict.images
    assert zero == full.zero and y != full.zero
    # a CA constant is fixed: sending -d01 to d01 gives d01 two images
    ca = SetAlgebra("CA", 2, 2)
    d01 = diag(ca.space, 0, 1)
    alg = generate_subalgebra(ca, [d01])
    assert isinstance(extend_homomorphism(alg, [~d01], alg, [d01]), ExtensionConflict)
    assert isinstance(extend_homomorphism(alg, [], alg, []), Homomorphism)


def test_empty_generators_and_one_element_algebras():
    algebras = catalogue()["BA"]
    one = algebras["one-element"]
    for name, alg in algebras.items():
        if name in ("F(0)", "one-element"):  # generated by the constants
            result = extend_homomorphism(alg, [], alg, [])
            assert all(result(x) == x for x in alg.carrier)
        else:
            with pytest.raises(PreconditionError, match=r"span only 2\*\*1 of"):
                extend_homomorphism(alg, [], alg, [])
        # every algebra maps onto the one-element algebra, and that maps
        # into no other: its 0, which is its 1, would have two images
        ats = atoms(alg)
        to_one = extend_homomorphism(alg, ats, one, [one.zero] * len(ats))
        assert isinstance(to_one, Homomorphism)
        from_one = extend_homomorphism(one, [], alg, [])
        assert isinstance(from_one, ExtensionConflict) == (alg is not one)
    assert find_isomorphism(one, one).mapping == {one.domain.key(one.zero): one.zero}


def test_find_isomorphism_matches_permutation_search():
    families = catalogue()
    # products whose atoms come in another order, and products of the
    # same size as a simple algebra, so that a first bijection fails
    for name, small in (("CA_2", SetAlgebra("CA", 1, 2)), ("RA_2", RelationAlgebra(1))):
        family = families[name]
        big, tiny = list(family.values())[0], generate_subalgebra(small, [])
        family["big x tiny"] = product(big, tiny)
        family["tiny x big"] = product(tiny, big)
        family["big x big"] = product(big, big)
    found = 0
    for family in families.values():
        for left, right in iproduct(family.values(), repeat=2):
            got = find_isomorphism(left, right)
            want = permutation_isomorphism(left, right)
            assert (got is None) == (want is None)
            if got is not None:
                found += 1
                key = right.domain.key
                assert {k: key(y) for k, y in got.mapping.items()} == {
                    k: key(y) for k, y in want.items()
                }
    assert found >= 10
    for k in (1, 2):
        bigger, _ = free_boolean_algebra(k + 1)
        smaller, _ = free_boolean_algebra(k)
        squared = product(smaller, smaller)
        got = find_isomorphism(bigger, squared).mapping
        assert got == permutation_isomorphism(bigger, squared)


def test_extend_homomorphism_identity_on_free_ba_4():
    free4, gens = free_boolean_algebra(4)
    result = extend_homomorphism(free4, gens, free4, gens)
    assert isinstance(result, Homomorphism)
    assert len(result.mapping) == 65536
    assert all(result(x) == x for x in free4.carrier)


def test_independence_matches_meet_loop():
    algebras = [free_boolean_algebra(k)[0] for k in range(4)]
    algebras += [two_element(), catalogue()["BA"]["one-element"]]
    rng = random.Random(1)
    for alg in algebras:
        tuples = [ys for n in range(3) for ys in iproduct(alg.carrier, repeat=n)]
        if alg.size <= 16:
            tuples += iproduct(alg.carrier, repeat=3)
        else:
            tuples = rng.sample(tuples, 400) + [
                rng.choices(alg.carrier, k=3) for _ in range(400)
            ]
        for ys in tuples:
            assert is_independent(alg, list(ys)) == meet_loop_independent(alg, ys)


def test_homomorphism_past_the_carrier_budget():
    # F(5) has 2**32 elements: the graph has 32 atoms and no carrier is built
    free5, gens = free_boolean_algebra(5)
    result = extend_homomorphism(free5, gens, free5, gens)
    assert isinstance(result, Homomorphism)
    assert len(atoms(result.graph)) == 32 and result.is_injective()
    assert "mapping" not in vars(result)
    with pytest.raises(CapacityError):
        result.mapping
    decomposition = decompose_by_zero_dimensional(free5, gens[0])
    assert len(atoms(decomposition.below)) == len(atoms(decomposition.above)) == 16
    assert "mapping" not in vars(decomposition)


def test_mappings_are_built_once():
    free2, gens = free_boolean_algebra(2)
    result = extend_homomorphism(free2, gens, free2, gens)
    assert result.mapping is result.mapping
    decomposition = decompose_by_zero_dimensional(free2, gens[0])
    assert decomposition.mapping is decomposition.mapping
    key = free2.domain.key
    assert decomposition.mapping == {
        key(x): (x & gens[0], x & ~gens[0])
        for x in free2.carrier
    }


def test_ideal_membership_matches_members():
    # every value of each algebra's ambient, inside the algebra or not
    for family in catalogue().values():
        for algebra in family.values():
            dom = algebra.domain
            ambient = getattr(dom, "base", dom)
            values = [ambient.from_bits(bits)
                      for bits in range(1 << ambient.one.bits.bit_length())]
            for b in algebra.carrier:
                ideal = principal_ideal(algebra, b)
                assert "members" not in vars(ideal)
                keys = {dom.key(m) for m in ideal.members}
                assert [x in ideal for x in values] == [dom.key(x) in keys for x in values]


def test_is_injective_matches_the_mapping():
    # every extension of the generators of F(2) into F(1)^2
    free2, gens = free_boolean_algebra(2)
    free1, (g,) = free_boolean_algebra(1)
    squared = product(free1, free1)
    key = squared.domain.key
    seen = set()
    for images in iproduct(squared.carrier, repeat=2):
        result = extend_homomorphism(free2, gens, squared, list(images))
        one_to_one = len({key(y) for y in result.mapping.values()}) == free2.size
        assert result.is_injective() == one_to_one
        seen.add(one_to_one)
    assert seen == {True, False}
    images = [(g, g), (free1.zero, free1.zero)]  # g1 -> (0, 0)
    assert not extend_homomorphism(free2, gens, squared, images).is_injective()
