"""The single-generated substitution algebra over the strict-order generator.

Over the space of triples from a base of size u, the generator is
X = {s : s_0 < s_1}.  The derived chain

    Y_0 = everything,   Y_{m+1} = c_0((c_1(Y_m - X)) . X)

walks down through the threshold sets {s : s_1 >= m} and reaches empty at
m = u, giving u + 1 distinct values.  Substitution instances of the chain
produce every coordinate threshold, hence every singleton tuple, so the
generated subalgebra is the full powerset and is simple.

The subalgebra is generated by atoms, so its u**3 singleton atoms are
found without enumerating the 2**(u**3) elements; `singleton_witnesses`
rebuilds each singleton by the argument above, as an independent check.
"""

from dataclasses import dataclass

from .algebras import FiniteAlgebra, atoms, discriminator_value, generate_subalgebra
from .spaces import Element, SetAlgebra, cyl, strictly_below, subst


@dataclass
class GeneratorChain:
    base_size: int
    generator: Element
    elements: list[Element]  # Y_0 ... Y_u

    def distinct_count(self) -> int:
        return len({y.bits for y in self.elements})


def strict_order_generator(ambient: SetAlgebra) -> Element:
    """X = {s : s_0 < s_1}."""
    return ambient.from_bits(strictly_below(ambient.space, 0, 1))


def threshold(ambient: SetAlgebra, coord: int, m: int) -> Element:
    """The set {s : s_coord >= m}."""
    space = ambient.space
    masks = (space.digit_mask(coord, v) for v in range(m, space.base_size))
    return ambient.from_bits(sum(masks))  # disjoint, so the sum is the union


def build_chain(ambient: SetAlgebra, x: Element) -> GeneratorChain:
    u = ambient.space.base_size
    ys = [ambient.one]
    for _ in range(u):
        prev = ys[-1]
        ys.append(cyl(0, cyl(1, prev - x) & x))
    return GeneratorChain(u, x, ys)


def singleton_witnesses(ambient: SetAlgebra, chain: GeneratorChain) -> list[Element]:
    """Every singleton subset, produced from the chain by substitutions.

    Substitution moves the second-coordinate thresholds onto the other
    coordinates, coordinate sections are threshold differences, and each
    singleton is a meet of three sections.  All steps use only generated
    elements and signature operations, so each witness certifies its own
    membership in the generated subalgebra.
    """
    space = ambient.space
    u = space.base_size
    thresholds = {1: chain.elements}  # index m -> {s : s_1 >= m}
    thresholds[0] = [subst(1, 0, y) for y in chain.elements]
    thresholds[2] = [subst(1, 2, y) for y in chain.elements]
    sections = {
        (coord, m): thresholds[coord][m] - thresholds[coord][m + 1]
        for coord in range(3)
        for m in range(u)
    }
    return [sections[0, a] & sections[1, b] & sections[2, c] for a, b, c in space.tuples()]


@dataclass
class ExampleResult:
    base_size: int
    ambient: SetAlgebra
    generator: Element
    chain: GeneratorChain
    closed_form_verified: bool
    chain_distinct: int
    algebra: FiniteAlgebra
    carrier_size: int
    atom_count: int
    is_simple: bool
    is_full_powerset: bool


def example_algebra(u: int, *, kind: str = "SC") -> ExampleResult:
    """Build the chain and the subalgebra generated by the order element."""
    if u < 2:
        raise ValueError("the construction needs a base with at least 2 elements")
    ambient = SetAlgebra(kind, u, 3)
    x = strict_order_generator(ambient)
    chain = build_chain(ambient, x)

    closed_form = all(
        chain.elements[m] == threshold(ambient, 1, m) for m in range(u + 1)
    )
    full_size = 1 << ambient.space.size
    algebra = generate_subalgebra(ambient, [x], cap=full_size)
    algebra_atoms = atoms(algebra)
    # The discriminator is additive, so it is the top on every nonzero
    # element exactly when it is the top on every atom.
    simple = all(discriminator_value(algebra, a).is_full() for a in algebra_atoms)
    return ExampleResult(
        base_size=u,
        ambient=ambient,
        generator=x,
        chain=chain,
        closed_form_verified=closed_form,
        chain_distinct=chain.distinct_count(),
        algebra=algebra,
        carrier_size=algebra.size,
        atom_count=len(algebra_atoms),
        is_simple=simple,
        is_full_powerset=algebra.size == full_size,
    )
