"""The value-level path that `baokit.algebras` and `baokit.freeness` replaced,
kept as the oracle of their int path.

Here every domain computes on wrapped values (Elements, RaElements or
pairs) through `zero`, `one`, `meet`, `join`, `compl`, `apply` and a
hashable `key`, an algebra keeps its atoms as values sorted by key, and
refinement meets every cell with every splitter.  `element_domain`
gives the value-level twin of a library domain.
"""

import itertools
from functools import partial

from baokit.algebras import ProductDomain, RelativizedDomain
from baokit.errors import ClosureCapError, PreconditionError
from baokit.signatures import opref_str
from baokit.spaces import Element, FullAlgebra, RaElement


class FullDomain:
    """A full set or relation algebra on its Elements or RaElements."""

    def __init__(self, ambient: FullAlgebra):
        self.ambient = ambient
        self.signature = ambient.signature
        self.zero = ambient.zero
        self.one = ambient.one
        self.apply = ambient.apply
        self.describe = ambient.describe

    def meet(self, a, b):
        return a & b

    def join(self, a, b):
        return a | b

    def compl(self, a):
        return ~a

    def key(self, v):
        return v.bits


class RelativizedValues:
    """The base domain cut down below a fixed element b."""

    def __init__(self, base, b):
        self.base = base
        self.b = b
        self.signature = base.signature
        self.zero = base.zero
        self.one = b

    def meet(self, a, c):
        return self.base.meet(a, c)

    def join(self, a, c):
        return self.base.join(a, c)

    def compl(self, a):
        return self.base.meet(self.b, self.base.compl(a))

    def apply(self, op, *args):
        return self.base.meet(self.b, self.base.apply(op, *args))

    def key(self, v):
        return self.base.key(v)

    def describe(self) -> str:
        return f"relativized({self.base.describe()})"


class ProductValues:
    """Coordinatewise operations on pairs of values."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.signature = left.signature
        self.zero = (left.zero, right.zero)
        self.one = (left.one, right.one)

    def meet(self, a, b):
        return (self.left.meet(a[0], b[0]), self.right.meet(a[1], b[1]))

    def join(self, a, b):
        return (self.left.join(a[0], b[0]), self.right.join(a[1], b[1]))

    def compl(self, a):
        return (self.left.compl(a[0]), self.right.compl(a[1]))

    def apply(self, op, *args):
        return (
            self.left.apply(op, *(a[0] for a in args)),
            self.right.apply(op, *(a[1] for a in args)),
        )

    def key(self, v):
        return (self.left.key(v[0]), self.right.key(v[1]))


def element_domain(domain):
    """The value-level twin of a library domain."""
    if isinstance(domain, FullAlgebra):
        return FullDomain(domain)
    if isinstance(domain, RelativizedDomain):
        return RelativizedValues(element_domain(domain.base), domain.base.from_bits(domain.b))
    if isinstance(domain, ProductDomain):
        return ProductValues(element_domain(domain.left), element_domain(domain.right))
    return domain


def _split(domain, cells, splitters) -> list:
    key = domain.key
    zero = key(domain.zero)
    for s in splitters:
        out = []
        for c in cells:
            inside = domain.meet(c, s)
            k = key(inside)
            if k == zero or k == key(c):
                out.append(c)
            else:
                out += (inside, domain.meet(c, domain.compl(s)))
        cells = out
    return cells


def _top_cells(domain) -> list:
    one = domain.one
    return [] if domain.key(one) == domain.key(domain.zero) else [one]


def joins(domain, atoms) -> tuple:
    out = [domain.zero]
    for a in atoms:
        out += [domain.join(x, a) for x in out]
    return tuple(sorted(out, key=domain.key))


class Algebra:
    """A subalgebra of a value-level domain, as its atoms sorted by key."""

    def __init__(self, domain, atoms):
        self.domain = domain
        self.signature = domain.signature
        self.atoms = sorted(atoms, key=domain.key)
        self.zero = domain.zero
        self.one = domain.one

    @property
    def carrier(self) -> tuple:
        return joins(self.domain, self.atoms)

    def le(self, a, b) -> bool:
        return self.domain.key(self.domain.meet(a, b)) == self.domain.key(a)

    def __contains__(self, v):
        dom = self.domain
        below = self.zero
        for a in self.atoms:
            if self.le(a, v):
                below = dom.join(below, a)
        return dom.key(below) == dom.key(v)

    def serialize(self) -> str:
        carrier = self.carrier
        dom, key = self.domain, self.domain.key
        index = {key(v): i for i, v in enumerate(carrier)}

        def table(fn, arity) -> str:
            return " ".join(
                str(index[key(fn(*args))])
                for args in itertools.product(carrier, repeat=arity)
            )

        dim = self.signature.dimension
        lines = [
            "baokit-algebra 1",
            f"signature {self.signature.kind} {dim if dim else 0}",
            dom.describe(),
            f"carrier {len(carrier)}",
        ]
        lines += [f"elem {v.bits:x}" for v in carrier]
        lines.append(f"zero {index[key(self.zero)]}")
        lines.append(f"one {index[key(self.one)]}")
        lines.append("table not " + table(dom.compl, 1))
        lines.append("table and " + table(dom.meet, 2))
        lines.append("table or " + table(dom.join, 2))
        for op, arity in self.signature.operator_descriptors():
            text = table(partial(dom.apply, op), arity)
            lines.append(f"table {opref_str(op)} {text}")
        return "\n".join(lines) + "\n"


def generate_subalgebra(domain, gens, cap: int = 4096) -> Algebra:
    """Refinement with every cell met with every splitter."""
    key = domain.key
    ops = domain.signature.operator_descriptors()
    seeds = [domain.apply(op) for op, arity in ops if arity == 0] + list(gens)
    cells = _split(domain, _top_cells(domain), seeds)
    used = {key(s) for s in seeds}
    done: set = set()
    while True:
        if 1 << len(cells) > cap:
            raise ClosureCapError(cap, 1 << len(cells))
        fresh = {key(c) for c in cells} - done
        if not fresh:
            return Algebra(domain, cells)
        done |= fresh
        images = {}
        for op, arity in ops:
            for args in itertools.product(cells, repeat=arity):
                if any(key(a) in fresh for a in args):
                    image = domain.apply(op, *args)
                    if key(image) not in used:
                        images[key(image)] = image
        used |= images.keys()
        cells = _split(domain, cells, images.values())


def is_hereditary_closed(algebra: Algebra, b) -> bool:
    """Every atom below b fixed by each unary operator, by `apply`."""
    if b not in algebra:
        raise PreconditionError("b must belong to the carrier")
    key = algebra.domain.key
    return all(
        key(algebra.domain.apply(op, a)) == key(a)
        for a in algebra.atoms
        if algebra.le(a, b)
        for op, arity in algebra.signature.operator_descriptors()
        if arity == 1
    )


def relativize(algebra: Algebra, b) -> Algebra:
    if b not in algebra:
        raise PreconditionError("b must belong to the carrier")
    below = [a for a in algebra.atoms if algebra.le(a, b)]
    return Algebra(RelativizedValues(algebra.domain, b), below)


def product(left: Algebra, right: Algebra) -> Algebra:
    dom = ProductValues(left.domain, right.domain)
    return Algebra(
        dom, [(a, right.zero) for a in left.atoms] + [(left.zero, a) for a in right.atoms]
    )


def extend_homomorphism(source: Algebra, gens, target: Algebra, images):
    """("conflict", y), "does not generate", or ("map", graph)."""
    most = len(source.atoms) + len(target.atoms)
    domain = ProductValues(source.domain, target.domain)
    graph = generate_subalgebra(domain, list(zip(gens, images)), cap=1 << most)
    zero = source.domain.key(source.zero)
    for x, y in graph.atoms:
        if source.domain.key(x) == zero:
            return "conflict", y
    if len(graph.atoms) != len(source.atoms):
        return "does not generate"
    return "map", graph


def find_isomorphism(left: Algebra, right: Algebra):
    """The graph of the first bijection of atoms that generates no more
    atoms than it pairs, or None."""
    if left.signature != right.signature or len(left.atoms) != len(right.atoms):
        return None
    domain = ProductValues(left.domain, right.domain)
    for perm in itertools.permutations(right.atoms):
        pairs = list(zip(left.atoms, perm))
        try:
            return generate_subalgebra(domain, pairs, cap=1 << len(left.atoms))
        except ClosureCapError:
            continue
    return None
