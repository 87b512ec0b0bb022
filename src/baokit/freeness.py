"""Homomorphism extension, independence, free Boolean algebras, isomorphisms.

The homomorphism machinery works by closing the generator graph: the pair
relation is grown under all operations until it stabilizes, and any element
that acquires two images is returned as a failure witness.
"""

from dataclasses import dataclass
from itertools import permutations, product

from .errors import CapacityError, PreconditionError, SignatureError
from .algebras import FiniteAlgebra, SetDomain, atoms, generate_subalgebra
from .spaces import SetAlgebra


@dataclass
class Homomorphism:
    source: FiniteAlgebra
    target: FiniteAlgebra
    mapping: dict  # source value key -> target value

    def __call__(self, v):
        return self.mapping[self.source.domain.key(v)]


@dataclass
class ExtensionConflict:
    """The generator map forces two images onto one element."""

    element: object
    images: tuple


def extend_homomorphism(source, gens, target, images):
    """Extend gens -> images to a homomorphism, or explain why none exists.

    Returns a Homomorphism when the induced graph closure is functional,
    otherwise an ExtensionConflict naming the doubly-mapped element.
    Raises PreconditionError when gens do not generate the source.
    """
    if len(gens) != len(images):
        raise ValueError("need exactly one image per generator")
    if source.signature != target.signature:
        raise SignatureError("homomorphisms require a shared signature")
    sdom, tdom = source.domain, target.domain
    skey = sdom.key

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
    return Homomorphism(source, target, {k: y for k, (x, y) in mapping.items()})


def is_independent(algebra, ys, probe_family=None) -> bool:
    """Freeness test for a subset of the carrier.

    Boolean signature: every meet of the ys and their complements must be
    nonzero.  Other signatures: every map into every probe algebra must
    extend to a homomorphism (the probe family stands in for the whole
    class, which no finite test can cover).
    """
    dom = algebra.domain
    key = dom.key
    if algebra.signature.kind == "BA":
        for mask in range(1 << len(ys)):
            acc = algebra.one
            for i, y in enumerate(ys):
                acc = dom.meet(acc, y if (mask >> i) & 1 else dom.compl(y))
            if key(acc) == key(algebra.zero):
                return False
        return True
    if not probe_family:
        raise PreconditionError("non-Boolean signatures need a probe family")
    sub = generate_subalgebra(algebra.domain, list(ys), cap=algebra.size)
    for probe in probe_family:
        # reversed, so that the image of ys[0] varies fastest
        for images in product(probe.carrier, repeat=len(ys)):
            if isinstance(extend_homomorphism(sub, list(ys), probe, images[::-1]),
                          ExtensionConflict):
                return False
    return True


def free_boolean_algebra(k: int) -> tuple[FiniteAlgebra, list]:
    """The free Boolean algebra on k generators, as subsets of the 2**k
    valuations; generator i collects the valuations that set bit i, and
    the atoms are the single valuations."""
    if not 0 <= k <= 4:
        raise CapacityError("free Boolean algebras are built for k <= 4")
    ambient = SetAlgebra("BA", 2**k, 1)
    gens = []
    for i in range(k):
        bits = 0
        for f in range(2**k):
            if (f >> i) & 1:
                bits |= 1 << f
        gens.append(ambient.from_bits(bits))
    valuations = [ambient.from_bits(1 << f) for f in range(2**k)]
    return FiniteAlgebra.from_atoms(SetDomain(ambient), valuations), gens


def find_isomorphism(left: FiniteAlgebra, right: FiniteAlgebra):
    """A bijective homomorphism, or None.

    Searches over bijections between the atoms, each of which extends to
    a Boolean isomorphism.  The operators are additive in each argument, so
    a candidate is checked on atoms (tuples of atoms) only.
    """
    if left.signature != right.signature or left.size != right.size:
        return None
    latoms, ratoms = atoms(left), atoms(right)
    if len(latoms) > 10:
        raise CapacityError("isomorphism search is budgeted to 10 atoms")
    ldom, rdom = left.domain, right.domain

    def image(x, perm):
        out = right.zero
        for a, b in zip(latoms, perm):
            if left.le(a, x):
                out = rdom.join(out, b)
        return out

    def respects_ops(perm):
        for op, arity in left.operator_descriptors():
            for idx in product(range(len(latoms)), repeat=arity):
                got = rdom.apply(op, *(perm[i] for i in idx))
                want = image(ldom.apply(op, *(latoms[i] for i in idx)), perm)
                if rdom.key(got) != rdom.key(want):
                    return False
        return True

    for perm in permutations(ratoms):
        if respects_ops(perm):
            mapping = {ldom.key(x): image(x, perm) for x in left.carrier}
            return Homomorphism(left, right, mapping)
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
    if rest:
        sub = generate_subalgebra(algebra.domain, rest, cap=algebra.size)
        if a not in sub:
            raise PreconditionError("a is not generated by the remaining generators")
    elif key(a) not in (key(algebra.zero), key(algebra.one)):
        raise PreconditionError("a is not generated by the remaining generators")
    return (
        key(dom.meet(a, y)) != key(algebra.zero)
        and key(dom.meet(a, dom.compl(y))) != key(algebra.zero)
    )
