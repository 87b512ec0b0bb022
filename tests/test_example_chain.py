import pytest

from baokit import SetAlgebra, atoms, cyl, discriminator_value, example_algebra
from baokit.example import build_chain, singleton_witnesses, strict_order_generator, threshold


def test_chain_closed_form_u2():
    res = example_algebra(2)
    amb = res.ambient
    assert res.chain.elements[1] == amb.element([s for s in amb.space.tuples() if s[1] >= 1])
    assert res.chain.elements[2].is_zero()
    assert res.chain_distinct == 3


def test_chain_closed_form_u3():
    res = example_algebra(3)
    amb = res.ambient
    for m in range(4):
        expected = amb.element([s for s in amb.space.tuples() if s[1] >= m])
        assert res.chain.elements[m] == expected
    assert res.chain.elements[3].is_zero()
    assert res.chain_distinct == 4


def test_strict_order_generator_matches_tuple_scan():
    for u in range(1, 7):
        amb = SetAlgebra("SC", u, 3)
        want = amb.element([s for s in amb.space.tuples() if s[0] < s[1]])
        assert strict_order_generator(amb) == want


def test_chain_first_step_is_cylindrification():
    for u in (2, 3, 4):
        amb = SetAlgebra("SC", u, 3)
        x = strict_order_generator(amb)
        chain = build_chain(amb, x)
        assert chain.elements[1] == cyl(0, x)


def test_generated_algebra_u2_enumerated():
    res = example_algebra(2)
    assert res.algebra is not None
    assert res.carrier_size == 256  # the full powerset of the 8 triples
    assert res.is_full_powerset
    assert res.atom_count == 8
    assert res.is_simple
    for y in res.chain.elements:
        assert y in res.algebra


def test_generated_algebra_u3_witnessed():
    res = example_algebra(3)
    assert atoms(res.algebra) == singleton_witnesses(res.ambient, res.chain)
    assert res.carrier_size == 2**27
    assert res.atom_count == 27
    assert res.is_simple


def test_algebra_size_past_sys_maxsize():
    # 64 atoms: len() would overflow, so size and repr do not use it
    algebra = example_algebra(4).algebra
    assert algebra.size == 2**64
    assert f"size={2**64}" in repr(algebra)


def test_singleton_witnesses_are_singletons():
    amb = SetAlgebra("SC", 3, 3)
    x = strict_order_generator(amb)
    chain = build_chain(amb, x)
    witnesses = singleton_witnesses(amb, chain)
    assert len(witnesses) == 27
    for i, w in enumerate(witnesses):
        assert w.bits == 1 << i


def test_simplicity_via_closure_u2():
    res = example_algebra(2)
    for v in res.algebra.carrier:
        if not v.is_zero():
            assert discriminator_value(res.algebra, v).is_full()


def test_ca_variant_same_closure_u2():
    res = example_algebra(2, kind="CA")
    assert res.carrier_size == 256
    assert res.atom_count >= 3


def test_atom_count_lower_bound():
    assert example_algebra(3).atom_count >= 3


def test_threshold_helper():
    amb = SetAlgebra("SC", 3, 3)
    t = threshold(amb, 2, 1)
    assert t == amb.element([s for s in amb.space.tuples() if s[2] >= 1])


def test_small_base_rejected():
    with pytest.raises(ValueError):
        example_algebra(1)
