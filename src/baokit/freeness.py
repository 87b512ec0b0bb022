"""Homomorphism extension, independence, free Boolean algebras, isomorphisms.

A homomorphism out of a finite algebra is known by its graph {(x, h x)},
which is a subalgebra of source x target.  Extension and isomorphism
checking both generate that subalgebra from a few pairs by the one closure,
`generate_subalgebra`, read the answer off its atoms, and keep the graph as
the homomorphism; the map over the whole carrier is built only when read.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product

from .errors import CapacityError, ClosureCapError, PreconditionError, SignatureError
from .algebras import FiniteAlgebra, ProductDomain, SetDomain, atoms, generate_subalgebra
from .spaces import MAX_SPACE_BITS, SetAlgebra


@dataclass
class Homomorphism:
    source: FiniteAlgebra
    target: FiniteAlgebra
    graph: FiniteAlgebra  # the subalgebra {(x, h x)} of source x target

    @cached_property
    def mapping(self) -> dict:  # source value key -> target value
        return {self.source.domain.key(x): y for x, y in self.graph.carrier}

    def __call__(self, v):
        return self.mapping[self.source.domain.key(v)]

    def is_injective(self) -> bool:
        """No atom of the graph is a pair (x, 0), so no atom maps to 0."""
        key = self.target.domain.key
        zero = key(self.target.zero)
        return all(key(y) != zero for _, y in atoms(self.graph))


@dataclass
class ExtensionConflict:
    """The generator map forces two images onto one element."""

    element: object
    images: tuple


def _graph(source, target, pairs, most: int) -> FiniteAlgebra:
    """The subalgebra of source x target generated by `pairs`.

    Raises ClosureCapError as soon as it has more than `most` atoms.  Its
    atoms are disjoint nonzero pairs of the product, so there are never more
    than len(atoms(source)) + len(atoms(target)) of them.
    """
    domain = ProductDomain(source.domain, target.domain)
    return generate_subalgebra(domain, list(pairs), cap=1 << most)


def extend_homomorphism(source, gens, target, images):
    """Extend gens -> images to a homomorphism, or explain why none exists.

    The homomorphism, if any, has as its graph the subalgebra of
    source x target generated by the pairs (gen, image).  That subalgebra
    is the graph of a function exactly when none of its atoms is a pair
    (0, y): such an atom and (0, 0) give 0 two images, and two images
    y1 != y2 of one x give the pair (0, y1 ^ y2), which lies above such an
    atom.  The first such atom in key order is the witness, returned as
    ExtensionConflict(source.zero, (target.zero, y)).  Otherwise the graph
    is a function on the subalgebra the gens generate, and
    PreconditionError is raised when that is not the source.
    """
    if len(gens) != len(images):
        raise ValueError("need exactly one image per generator")
    if source.signature != target.signature:
        raise SignatureError("homomorphisms require a shared signature")
    most = len(atoms(source)) + len(atoms(target))
    graph = _graph(source, target, zip(gens, images), most)
    pairs = atoms(graph)
    skey, zero = source.domain.key, source.domain.key(source.zero)
    for x, y in pairs:
        if skey(x) == zero:
            return ExtensionConflict(source.zero, (target.zero, y))
    span, total = len(pairs), len(atoms(source))
    if span != total:  # more, when some gen lies outside the source
        raise PreconditionError(
            f"generators span only 2**{span} of 2**{total} elements"
        )
    return Homomorphism(source, target, graph)


def is_independent(algebra, ys, probe_family=None) -> bool:
    """Freeness test for a subset of the carrier.

    Boolean signature: every meet of the ys and their complements must be
    nonzero, that is, the ys generate 2**len(ys) atoms.  Other signatures:
    every map into every probe algebra must extend to a homomorphism (the
    probe family stands in for the whole class, which no finite test can
    cover).
    """
    sub = generate_subalgebra(algebra.domain, list(ys), cap=algebra.size)
    if algebra.signature.kind == "BA":
        return len(atoms(sub)) == 1 << len(ys)
    if not probe_family:
        raise PreconditionError("non-Boolean signatures need a probe family")
    for probe in probe_family:
        # reversed, so that the image of ys[0] varies fastest
        for images in product(probe.carrier, repeat=len(ys)):
            if isinstance(extend_homomorphism(sub, list(ys), probe, images[::-1]),
                          ExtensionConflict):
                return False
    return True


def check_free_budget(k: int) -> None:
    """F(k) has 2**k atoms of 2**k bits: k is allowed while their 4**k bits
    fit the space budget."""
    top = (MAX_SPACE_BITS.bit_length() - 1) // 2  # 4**top bits fit, and no 4**k is made
    if not 0 <= k <= top:
        raise CapacityError(f"free Boolean algebras are built for 0 <= k <= {top}, not {k}")


def free_boolean_algebra(k: int) -> tuple[FiniteAlgebra, list]:
    """The free Boolean algebra on k generators, as subsets of the 2**k
    valuations; generator i collects the valuations that set bit i, and
    the atoms are the single valuations."""
    check_free_budget(k)
    ambient = SetAlgebra("BA", 2**k, 1)
    gens = [
        ambient.from_bits(sum(1 << f for f in range(2**k) if (f >> i) & 1))
        for i in range(k)
    ]
    valuations = [ambient.from_bits(1 << f) for f in range(2**k)]
    return FiniteAlgebra.from_atoms(SetDomain(ambient), valuations), gens


def find_isomorphism(left: FiniteAlgebra, right: FiniteAlgebra):
    """A bijective homomorphism, or None.

    Searches over bijections between the atoms, each of which extends to
    a Boolean isomorphism.  The pairs (atom, image) are disjoint and join
    to the top of left x right, so they generate at least len(atoms)
    atoms; the bijection is an isomorphism exactly when they generate no
    more, for then they are the atoms of the graph of the map.  The
    closure stops as soon as it passes that count.
    """
    if left.signature != right.signature or left.size != right.size:
        return None
    latoms, ratoms = atoms(left), atoms(right)
    if len(latoms) > 10:
        raise CapacityError("isomorphism search is budgeted to 10 atoms")
    for perm in permutations(ratoms):
        try:
            graph = _graph(left, right, zip(latoms, perm), len(latoms))
        except ClosureCapError:
            continue
        return Homomorphism(left, right, graph)
    return None


def splitting_check(algebra, freegens, a, y) -> bool:
    """The splitting step behind atomlessness over large generator sets:
    with a generated away from y, both a.y and a.-y must be nonzero."""
    dom = algebra.domain
    key = dom.key
    if key(a) == key(algebra.zero):
        raise PreconditionError("a must be nonzero")
    if not any(key(y) == key(g) for g in freegens):
        raise PreconditionError("y must be one of the free generators")
    rest = [g for g in freegens if key(g) != key(y)]
    if a not in generate_subalgebra(algebra.domain, rest, cap=algebra.size):
        raise PreconditionError("a is not generated by the remaining generators")
    return (
        key(dom.meet(a, y)) != key(algebra.zero)
        and key(dom.meet(a, dom.compl(y))) != key(algebra.zero)
    )
