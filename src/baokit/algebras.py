"""Finite Boolean algebras with operators: generation, atoms, ideals, products.

A FiniteAlgebra is stored as its atoms over a value domain.  Every
operator a domain carries is normal and additive in each argument, so an
algebra is fixed by its atoms (Jonsson and Tarski, Boolean algebras with
operators): the carrier is the set of joins of atoms, and an operator is
known once it is known on atoms.

Domains compute on raw ints: a domain has `signature`, `full` (its top),
`operators` (raw-int kernels, as in `spaces`), `describe()`, and at the
boundary `key(value)`, the int of a value (None for any other object),
and `from_bits(int)`, the value back.  Meet, join and complement are `&`,
`|` and `full ^`, and an int is its own key.  A full set or relation
algebra (`spaces.SetAlgebra`, `spaces.RelationAlgebra`) is a domain
itself; the domains here cover relativizations (each result ANDed with
b) and binary products (a pair packed as `left << shift | right`, whose
numeric order is the order of the pairs).  An algebra keeps its atoms as
ints and wraps values only in `atoms`, `carrier`, `zero`, `one`,
`serialize` and the maps it hands out.  Reading a serialized algebra back
rebuilds the domain its text names and checks each table against it.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import CapacityError, ClosureCapError, PreconditionError, SignatureError
from .errors import InputError, SpaceMismatchError
from .signatures import OpRef, Signature, opref_str
from .spaces import Element, Operators, RelationAlgebra, SetAlgebra, read_int


class KernelTable(Operators):
    """The operators of a signature below the top `full`, from the kernels
    `kernel(op)` and the constants `constant(op)`, each taken once."""

    def __init__(self, signature: Signature, full: int, kernel, constant):
        super().__init__(full)
        ops = signature.operator_descriptors()
        self.functions.update((op, kernel(op)) for op, arity in ops if arity)
        self.constants = {op: constant(op) for op, arity in ops if not arity}

    def constant(self, op: OpRef) -> int:
        return self.constants[op] if op in self.constants else super().constant(op)

    def make(self, op: OpRef):
        raise SignatureError(f"unsupported operator {op[0]!r}")


class RelativizedDomain:
    """The base domain cut down below a fixed element b, an int of the base."""

    def __init__(self, base, b: int):
        self.base = base
        self.b = self.full = b
        self.signature = base.signature
        self.key = base.key
        self.from_bits = base.from_bits
        table = base.operators

        def kernel(op):
            f = table.function(op)
            return lambda x, y: f(x, y) & b

        self.operators = KernelTable(self.signature, b, kernel, lambda op: table.constant(op) & b)

    def describe(self) -> str:
        return f"relativized({self.base.describe()})"


class ProductDomain:
    """Coordinatewise operations on pairs of values; the pair of ints
    (x, y) is the int x << shift | y, shift being the width of the right
    top, so pairs compare as ints in the order of (x, y)."""

    def __init__(self, left, right):
        if left.signature != right.signature:
            raise SignatureError("product factors must share a signature")
        self.left, self.right = left, right
        self.signature = left.signature
        self.shift = s = right.full.bit_length()
        self.mask = m = (1 << s) - 1
        self.full = left.full << s | right.full
        lt, rt = left.operators, right.operators

        def kernel(op):
            f, g = lt.function(op), rt.function(op)
            return lambda x, y: f(x >> s, y >> s) << s | g(x & m, y & m)

        self.operators = KernelTable(
            self.signature, self.full, kernel, lambda op: lt.constant(op) << s | rt.constant(op)
        )

    def key(self, v):
        if not (isinstance(v, tuple) and len(v) == 2):
            return None
        x, y = self.left.key(v[0]), self.right.key(v[1])
        if x is None or y is None or y >> self.shift:
            return None
        return x << self.shift | y

    def from_bits(self, bits: int) -> tuple:
        return (self.left.from_bits(bits >> self.shift), self.right.from_bits(bits & self.mask))

    def describe(self) -> str:
        return f"product({self.left.describe()}; {self.right.describe()})"


MAX_CARRIER_ATOMS = 16  # carriers are enumerated up to 2**16 elements


def _bits(domain, v) -> int:
    """The int of a value of the domain; SpaceMismatchError for any other object."""
    x = domain.key(v)
    if x is None:
        raise SpaceMismatchError(f"{v!r} is not a value of the {domain.describe()} domain")
    return x


def _split(cells, splitters) -> list:
    """Refine the cells, disjoint ints, until every splitter is a union of cells."""
    for s in splitters:
        out = []
        for c in cells:
            inside = c & s
            if inside == 0 or inside == c:
                out.append(c)
            else:
                out += (inside, c ^ inside)
        cells = out
    return cells


def _joins(atoms) -> list:
    """Every join of the given disjoint atoms, the join of the atoms i in a
    mask m at index m, which is numeric order: of two joins, the one with
    the highest atom that only one of them holds is the larger.  Refuses
    more than 2**MAX_CARRIER_ATOMS joins before building any."""
    if len(atoms) > MAX_CARRIER_ATOMS:
        raise CapacityError(
            f"2**{len(atoms)} elements are past the "
            f"2**{MAX_CARRIER_ATOMS}-element carrier budget"
        )
    out = [0]
    for a in sorted(atoms):
        out += [x | a for x in out]
    return out


class FiniteAlgebra:
    """A finite subalgebra of a value domain, stored as its atoms: the ints
    `atom_bits`, in numeric order.

    The carrier, the joins of the atoms in numeric order, is built on first
    access and only up to 2**16 elements.  The library builds algebras from
    their atoms (`from_atoms`); the constructor is for carriers that come
    from outside the program, such as the elems of a text `deserialize`
    reads back into the domain it names.
    """

    def __init__(self, domain, carrier):
        """Find the atoms of an outside carrier by refining against it.

        Checks, exactly, that the carrier is the set of joins of its atoms
        and that it is closed under every operator.  Raises InputError, a
        ValueError, when either check fails.
        """
        keys = {domain.key(v) for v in carrier}
        if None in keys:
            raise InputError("carrier holds a value outside its domain")
        self._setup(domain, _split([domain.full] if domain.full else [], keys))
        # the joins by mask, if the size fits: no carrier past 2**16 is built
        if len(keys) != self.size or keys != set(self.carrier_bits):
            raise InputError("carrier is not the set of joins of its atoms")
        # a domain's operators are normal and additive, so the carrier is
        # closed under one when it holds its images of the atoms
        table = domain.operators
        for op, arity in self.operator_descriptors():
            if arity:
                f = table.function(op)
                args = itertools.product(self.atom_bits, repeat=arity)
                images = {f(a[0], a[-1]) for a in args}
            else:
                images = {table.constant(op)}
            if not images <= keys:
                raise InputError(f"carrier not closed under {opref_str(op)}")

    @classmethod
    def from_atoms(cls, domain, atoms) -> "FiniteAlgebra":
        """The algebra whose atoms are the given disjoint nonzero ints."""
        algebra = cls.__new__(cls)
        algebra._setup(domain, atoms)
        return algebra

    def _setup(self, domain, atoms):
        self.domain = domain
        self.signature = domain.signature
        self.atom_bits = tuple(sorted(atoms))
        self.is_degenerate = not self.atom_bits

    @property
    def zero(self):
        return self.domain.from_bits(0)

    @property
    def one(self):
        return self.domain.from_bits(self.domain.full)

    # -- carrier access ----------------------------------------------------

    @property
    def carrier_bits(self) -> list:
        """The carrier as ints, in numeric order."""
        return _joins(self.atom_bits)

    @cached_property
    def carrier(self) -> tuple:
        out = self.carrier_bits
        for i, x in enumerate(out):  # in place, so that each int goes as it is wrapped
            out[i] = self.domain.from_bits(x)
        return tuple(out)

    @property
    def size(self) -> int:
        """2**atoms; unlike len(), not capped at sys.maxsize."""
        return 1 << len(self.atom_bits)

    def __len__(self):
        return self.size

    def __contains__(self, v):
        x = self.domain.key(v)
        if x is None:
            return False
        below = 0
        for a in self.atom_bits:
            if a & x == a:
                below |= a
        return below == x

    @cached_property
    def moved(self) -> int:
        """The join of the atoms some unary operator moves, kept: atoms never change."""
        table = self.domain.operators
        unary = [table.function(op) for op, arity in self.operator_descriptors() if arity == 1]
        return sum(a for a in self.atom_bits if any(f(a, a) != a for f in unary))

    def operator_descriptors(self):
        return self.signature.operator_descriptors()

    # -- serialization ------------------------------------------------------

    def serialize(self) -> str:
        if len(self.atom_bits) > 8:
            raise CapacityError("serialization supported up to 256 elements")
        if not isinstance(self.zero, Element):
            raise PreconditionError("only bitset-backed carriers serialize")
        bits = self.carrier_bits
        dim = self.signature.dimension
        lines = [
            "baokit-algebra 1",
            f"signature {self.signature.kind} {dim if dim else 0}",
            self.domain.describe(),
            f"carrier {len(bits)}",
        ]
        lines += [f"elem {x:x}" for x in bits]
        for name, row in _rows(self.domain, bits).items():
            head = name if name in ("zero", "one") else f"table {name}"
            lines.append(f"{head} {' '.join(row)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def deserialize(cls, text: str) -> "FiniteAlgebra":
        """Read `serialize` output back into the domain its domain line
        names.  The elems must be the joins of their atoms, and every row
        the domain's own operation on them, in the order they are listed;
        raises InputError, a ValueError, naming what differs."""
        lines = [ln.split() for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != ["baokit-algebra", "1"]:
            raise InputError("unknown algebra format")
        if len(lines) < 4 or len(lines[1]) != 3 or lines[3][:1] != ["carrier"]:
            raise InputError("truncated algebra text: incomplete header")
        ambient, levels = _read_domain(*lines[1][1:], " ".join(lines[2]))
        count = read_int(lines[3][-1])
        elems = [ln for ln in lines[4 : 4 + count] if ln[0] == "elem" and len(ln) == 2]
        if len(elems) != count:
            raise InputError(f"truncated algebra text: {len(elems)} of {count} elems")
        bits = [read_int(ln[1], 16) for ln in elems]
        for x in bits:
            if x | ambient.full != ambient.full:
                raise InputError(f"elem {x:x} lies outside the {ambient.describe()} domain")
        if len(set(bits)) != count:
            raise InputError("an elem is listed twice")
        rows = {}
        for ln in lines[4 + count :]:
            is_table = ln[0] == "table" and len(ln) > 1
            name, entries = (ln[1], ln[2:]) if is_table else (ln[0], ln[1:])
            rows[name] = entries
        for op, arity in _BOOLEAN_ROWS + ambient.signature.operator_descriptors():
            if len(rows.get(opref_str(op), ())) != count**arity:
                raise InputError(f"truncated algebra text: table {opref_str(op)!r} incomplete")
        one = read_int(rows["one"][0])
        if not 0 <= one < count:
            raise InputError("table 'one' refers past the carrier")
        domain = ambient
        for _ in range(levels):
            domain = RelativizedDomain(domain, bits[one])
        algebra = cls(domain, [domain.from_bits(x) for x in bits])
        for name, row in _rows(domain, bits).items():
            if rows[name] != row:
                raise InputError(f"table {name!r} is not the {domain.describe()} operation")
        return algebra

    def __repr__(self):
        return f"FiniteAlgebra({self.signature.label}, size={self.size})"


# the rows every algebra text has, ahead of its signature's operators
_BOOLEAN_ROWS = (
    (("zero", ()), 0), (("one", ()), 0), (("not", ()), 1), (("and", ()), 2), (("or", ()), 2)
)


def _rows(domain, bits) -> dict:
    """The rows of the text of an algebra over `domain` whose carrier is
    `bits`, in that order: by the name of each constant and operation, the
    index in `bits`, in decimal, of each image, the arguments row-major."""
    table = domain.operators
    index = {x: str(i) for i, x in enumerate(bits)}
    out = {}
    for op, arity in _BOOLEAN_ROWS + domain.signature.operator_descriptors():
        if arity:
            f = table.function(op)
            row = [index[f(a[0], a[-1])] for a in itertools.product(bits, repeat=arity)]
        else:
            row = [index[table.constant(op)]]
        out[opref_str(op)] = row
    return out


def _read_domain(kind: str, dim: str, desc: str):
    """The full algebra a domain line names, `space u n` or `rel u`, and
    how many `relativized(...)` enclose it; InputError unless the kind and
    dimension of the signature line are the ones `serialize` writes for it."""
    levels = 0
    while desc.startswith("relativized(") and desc.endswith(")"):
        desc, levels = desc[len("relativized(") : -1], levels + 1
    parts, ambient = desc.split(), None
    try:
        if parts[:1] == ["space"] and len(parts) == 3 and kind != "RA":
            ambient = SetAlgebra(kind, read_int(parts[1]), read_int(parts[2]))
        if parts[:1] == ["rel"] and len(parts) == 2 and kind == "RA":
            ambient = RelationAlgebra(read_int(parts[1]))
    except (SignatureError, ValueError) as exc:
        raise InputError(f"cannot read domain {desc!r}: {exc}") from None
    if ambient is None or (ambient.signature.dimension or 0) != read_int(dim):
        raise InputError(f"signature {kind} {dim} does not fit the domain {desc!r}")
    return ambient, levels


def generate_subalgebra(domain, gens, cap: int = 4096) -> FiniteAlgebra:
    """Least subuniverse of a value domain containing `gens`, 0, 1 and the
    signature constants; with no gens, the subalgebra of the constants.

    `domain` is a full SetAlgebra or RelationAlgebra, or any other value
    domain, such as a product or a relativization; it becomes the domain of
    the result.  The atoms are found by partition refinement: start from
    the cells cut out by the constants and the generators, split every cell
    by each operator image of a cell (of a pair of cells, for a binary
    operator), and stop when no cell splits.  Each operator is additive in
    each argument, so the joins of the final cells are closed under it.  Fails with
    ClosureCapError as soon as a round leaves more than log2(cap) cells.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    table = domain.operators
    ops = domain.signature.operator_descriptors()
    seeds = [table.constant(op) for op, arity in ops if arity == 0]
    seeds += [_bits(domain, g) for g in gens]
    kernels = [(table.function(op), arity) for op, arity in ops if arity]
    cells = _split([domain.full] if domain.full else [], seeds)
    used = set(seeds)  # splitters every later partition refines
    done: set = set()  # cells whose images have been taken
    while True:
        if 1 << len(cells) > cap:
            raise ClosureCapError(cap, 1 << len(cells))
        fresh = set(cells) - done
        if not fresh:
            return FiniteAlgebra.from_atoms(domain, cells)
        done |= fresh
        images = {}  # a dict, so that the splitters keep their order
        for f, arity in kernels:
            for args in itertools.product(cells, repeat=arity):
                if not fresh.isdisjoint(args):
                    image = f(args[0], args[-1])
                    if image not in used:
                        images[image] = None
        used |= images.keys()
        cells = _split(cells, images)


def atoms(algebra: FiniteAlgebra) -> list:
    """All minimal nonzero carrier elements, in canonical order."""
    return list(map(algebra.domain.from_bits, algebra.atom_bits))


def atom_below(algebra: FiniteAlgebra, a, b):
    """An atom of the relativization below -b that sits below a.

    `b` is used as given (callers pass an already closed ideal generator).
    The returned element is an atom of the whole algebra as well.
    """
    dom = algebra.domain
    x = _bits(dom, a)
    if x == 0:
        raise PreconditionError("a must be nonzero")
    target = x & dom.full & ~_bits(dom, b)
    if target == 0:
        raise PreconditionError("a . -b is zero; no atom exists below it", witness=a)
    for atom in algebra.atom_bits:
        if atom & target == atom:
            return dom.from_bits(atom)
    raise PreconditionError("no atom found below a . -b (carrier not atomic?)")


def _member(algebra: FiniteAlgebra, b) -> int:
    if b not in algebra:
        raise PreconditionError("b must belong to the carrier")
    return algebra.domain.key(b)


def relativize(algebra: FiniteAlgebra, b) -> FiniteAlgebra:
    """The algebra induced on {x . b}, with operations cut down to b."""
    x = _member(algebra, b)
    below = [a for a in algebra.atom_bits if a & x]
    return FiniteAlgebra.from_atoms(RelativizedDomain(algebra.domain, x), below)


@dataclass
class Ideal:
    """A principal ideal: everything below the operator closure of b."""

    parent: FiniteAlgebra
    generator: object
    closure: object

    @cached_property
    def members(self) -> tuple:
        dom = self.parent.domain
        c = dom.key(self.closure)
        below = [a for a in self.parent.atom_bits if a & ~c == 0]
        return tuple(map(dom.from_bits, _joins(below)))

    def __contains__(self, v):
        dom = self.parent.domain
        return v in self.parent and dom.key(v) & ~dom.key(self.closure) == 0


def _ideal_closure(algebra: FiniteAlgebra, x: int) -> int:
    """The least fixed point above x of joins and every operator."""
    table, full = algebra.domain.operators, algebra.domain.full
    ops = [(table.function(op), arity) for op, arity in algebra.operator_descriptors() if arity]
    while True:
        acc = x
        for f, arity in ops:
            acc |= f(x, x) if arity == 1 else f(x, full) | f(full, x)
        if acc == x:
            return x
        x = acc


def principal_ideal(algebra: FiniteAlgebra, b) -> Ideal:
    """Ideal generated by b: close b under joins and all operators, then
    take everything below the least fixed point."""
    dom = algebra.domain
    return Ideal(algebra, b, dom.from_bits(_ideal_closure(algebra, _bits(dom, b))))


def product(left: FiniteAlgebra, right: FiniteAlgebra) -> FiniteAlgebra:
    dom = ProductDomain(left.domain, right.domain)
    lefts = [a << dom.shift for a in left.atom_bits]
    return FiniteAlgebra.from_atoms(dom, lefts + list(right.atom_bits))


@dataclass
class Decomposition:
    """Rl_b x Rl_-b, reached from the algebra through x -> (x.b, x.-b)."""

    below: FiniteAlgebra
    above: FiniteAlgebra
    algebra: FiniteAlgebra
    b: object

    @cached_property
    def mapping(self) -> dict:  # key of x -> (x.b, x.-b)
        wrap = self.algebra.domain.from_bits
        b, not_b = self.below.domain.full, self.above.domain.full
        return {x: (wrap(x & b), wrap(x & not_b)) for x in self.algebra.carrier_bits}


def decompose_by_zero_dimensional(algebra: FiniteAlgebra, b) -> Decomposition:
    """Split the algebra as Rl_b x Rl_-b through x -> (x.b, x.-b).

    The precondition (every atom under b or the two principal ideals meet
    only in 0) is checked.  The map is a Boolean isomorphism whenever b
    belongs to the algebra; that it preserves the operators is verified on
    atoms, which suffices because the operators are additive.
    """
    dom = algebra.domain
    x = _bits(dom, b)
    not_x = dom.full & ~x
    outside = [a for a in algebra.atom_bits if a & ~x]
    if outside and _ideal_closure(algebra, x) & _ideal_closure(algebra, not_x):
        raise PreconditionError(
            "ideals generated by b and -b overlap; decomposition unavailable",
            witness=dom.from_bits(outside[0]),
        )
    above = relativize(algebra, dom.from_bits(not_x))
    out = Decomposition(relativize(algebra, b), above, algebra, b)
    for op, arity in algebra.operator_descriptors():
        if not arity:
            continue
        f = dom.operators.function(op)
        for args in itertools.product(algebra.atom_bits, repeat=arity):
            whole = f(args[0], args[-1])
            for part in (x, not_x):
                if (f(args[0] & part, args[-1] & part) ^ whole) & part:
                    raise PreconditionError(f"decomposition map breaks {op}")
    return out


def is_hereditary_closed(algebra: FiniteAlgebra, b) -> bool:
    """True when every carrier x below b is fixed by all unary operators.

    The operators are additive, so the atoms below b decide it: b must miss
    every atom that some unary operator moves.
    """
    return _member(algebra, b) & algebra.moved == 0


def discriminator_value(algebra: FiniteAlgebra, x):
    """c_0 ... c_{n-1} x computed inside the algebra's domain."""
    dom = algebra.domain
    out = _bits(dom, x)
    for i in range(algebra.signature.dimension or 0):
        out = dom.operators.function(("cyl", (i,)))(out, out)
    return dom.from_bits(out)
