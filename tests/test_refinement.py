"""Generation by partition refinement against a brute-force closure.

The reference closes the generators, 0, 1 and the signature constants
under complement, meet and every operator, all pairs at a time, and reads
the atoms and the hereditarily closed elements off the carrier by scan.
It runs on the value-level twin of each domain (`element_path`).
"""

import random

import pytest

from baokit import (
    CapacityError,
    RaElement,
    RelationAlgebra,
    SetAlgebra,
    atoms,
    example_algebra,
    generate_subalgebra,
    is_hereditary_closed,
)
from baokit.algebras import ProductDomain, RelativizedDomain
from element_path import element_domain


def brute_closure(domain, gens) -> dict:
    key = domain.key
    ops = domain.signature.operator_descriptors()
    seen = {}
    frontier = [domain.zero, domain.one]
    frontier += [domain.apply(op) for op, arity in ops if arity == 0] + list(gens)
    while frontier:
        fresh = {key(v): v for v in frontier if key(v) not in seen}
        seen.update(fresh)
        frontier = []
        everything = list(seen.values())
        for x in fresh.values():
            frontier.append(domain.compl(x))
            frontier += [domain.meet(x, y) for y in everything]
            for op, arity in ops:
                if arity == 1:
                    frontier.append(domain.apply(op, x))
                elif arity == 2:
                    frontier += [domain.apply(op, x, y) for y in everything]
                    frontier += [domain.apply(op, y, x) for y in everything]
    return seen


def scan_atoms(domain, carrier: dict) -> list:
    key = domain.key
    zero = key(domain.zero)

    def below(y, x):
        return key(domain.meet(y, x)) == key(y)

    nonzero = [v for k, v in carrier.items() if k != zero]
    return sorted(
        key(x)
        for x in nonzero
        if not any(below(y, x) and key(y) != key(x) for y in nonzero)
    )


def scan_hereditary(domain, carrier: dict) -> set:
    key = domain.key
    unary = [op for op, arity in domain.signature.operator_descriptors() if arity == 1]
    fixed = {
        k: all(key(domain.apply(op, x)) == k for op in unary) for k, x in carrier.items()
    }
    return {
        kb
        for kb, b in carrier.items()
        if all(fixed[kx] for kx, x in carrier.items() if key(domain.meet(x, b)) == kx)
    }


def mirrored(rng, size: int, image) -> int:
    """A random union of the orbits of the involution `image` on positions.

    Reversing the base is an automorphism of every ambient here, so such
    generators close to proper subalgebras instead of whole powersets."""
    bits = 0
    for p in range(size):
        if p <= image(p) and rng.random() < 0.5:
            bits |= (1 << p) | (1 << image(p))
    return bits


def cases():
    rng = random.Random(2024)
    for kind in ("CA", "DF", "SC"):
        for (u, n), seeds in (((2, 2), 3), ((2, 3), 2), ((3, 2), 2)):
            amb = SetAlgebra(kind, u, n)
            space = amb.space

            def image(p, space=space, u=u):
                return space.encode(tuple(u - 1 - c for c in space.decode(p)))

            for s in range(seeds):
                gens = [amb.random_element(rng)]
                if s:
                    gens = [
                        amb.from_bits(mirrored(rng, space.size, image)) for _ in range(s)
                    ]
                yield f"{kind} u={u} n={n} #{s}", amb, gens
    ra = RelationAlgebra(2)
    yield "RA u=2 #0", ra, [ra.random_element(rng)]
    yield "RA u=2 #1", ra, [RaElement(2, mirrored(rng, 4, lambda p: 3 - p))]
    # Only composition splits the identity here: (0,1);(1,0) = {(0,0)}.
    yield "RA u=2 #2", ra, [ra.element([(0, 1)])]
    ca = SetAlgebra("CA", 2, 3)
    b = ca.random_element(rng)
    yield "relativized CA u=2 n=3", RelativizedDomain(ca, b.bits), [
        ca.random_element(rng) & b
    ]
    sc = SetAlgebra("SC", 2, 2)
    pair = (sc.random_element(rng), sc.random_element(rng))
    yield "product SC u=2 n=2", ProductDomain(sc, sc), [pair]


CASES = list(cases())


def test_enough_cases():
    assert len(CASES) >= 20


@pytest.mark.parametrize("label,domain,gens", CASES, ids=[c[0] for c in CASES])
def test_refinement_matches_brute_force_closure(label, domain, gens):
    values = element_domain(domain)
    key = values.key
    algebra = generate_subalgebra(domain, gens, cap=1 << 16)
    reference = brute_closure(values, gens)
    assert [key(a) for a in atoms(algebra)] == scan_atoms(values, reference)
    assert [key(x) for x in algebra.carrier] == sorted(reference)
    assert len(algebra) == len(reference)
    closed = scan_hereditary(values, reference)
    for kb, b in reference.items():
        assert is_hereditary_closed(algebra, b) == (kb in closed), label


def test_carrier_past_budget_is_refused():
    algebra = example_algebra(3).algebra
    assert len(atoms(algebra)) == 27
    with pytest.raises(CapacityError):
        algebra.carrier
