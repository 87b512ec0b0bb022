"""Finite Boolean algebras with operators: generation, atoms, ideals, products.

A FiniteAlgebra is stored as its atoms, in canonical (key) order, over a
value domain that knows how to compute the Boolean and signature operations
on values.  Every operator a domain carries is normal and additive in each
argument, so an algebra is fixed by its atoms (Jonsson and Tarski, Boolean
algebras with operators): the carrier is the set of joins of atoms, and an
operator is known once it is known on atoms.  A full set or relation
algebra (`spaces.SetAlgebra`, `spaces.RelationAlgebra`) is a domain itself;
the domains here cover relativizations, binary products and explicit
operation tables.  A domain has `signature`, `zero`, `one`, `meet`, `join`,
`compl`, `apply`, `key` (a hashable key of a value) and `describe`.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property, partial

from .errors import CapacityError, ClosureCapError, PreconditionError, SignatureError
from .signatures import OpRef, Signature, opref_str
from .spaces import Element, RaElement, TupleSpace


class RelativizedDomain:
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

    def apply(self, op: OpRef, *args):
        return self.base.meet(self.b, self.base.apply(op, *args))

    def key(self, v):
        return self.base.key(v)

    def describe(self) -> str:
        return f"relativized({self.base.describe()})"


class ProductDomain:
    """Coordinatewise operations on pairs of values."""

    def __init__(self, left, right):
        if left.signature != right.signature:
            raise SignatureError("product factors must share a signature")
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

    def apply(self, op: OpRef, *args):
        return (
            self.left.apply(op, *(a[0] for a in args)),
            self.right.apply(op, *(a[1] for a in args)),
        )

    def key(self, v):
        return (self.left.key(v[0]), self.right.key(v[1]))

    def describe(self) -> str:
        return f"product({self.left.describe()}; {self.right.describe()})"


class TableDomain:
    """Explicit finite operation tables over hashable values."""

    def __init__(self, signature: Signature, values, tables: dict):
        # tables: opref-string -> dict mapping tuples of argument keys to
        # values, plus "and"/"or"/"not"; "zero"/"one" map () to the constant.
        self.signature = signature
        self.values = list(values)
        self.tables = tables

    @property
    def zero(self):
        return self.tables["zero"][()]

    @property
    def one(self):
        return self.tables["one"][()]

    def meet(self, a, b):
        return self.tables["and"][(self.key(a), self.key(b))]

    def join(self, a, b):
        return self.tables["or"][(self.key(a), self.key(b))]

    def compl(self, a):
        return self.tables["not"][(self.key(a),)]

    def apply(self, op: OpRef, *args):
        name = opref_str(op)
        if name == "and":
            return self.meet(*args)
        if name == "or":
            return self.join(*args)
        if name == "not":
            return self.compl(*args)
        if name == "impl":
            return self.join(self.compl(args[0]), args[1])
        return self.tables[name][tuple(map(self.key, args))]

    def key(self, v):
        return getattr(v, "bits", v)

    def describe(self) -> str:
        """The domain line `serialize` writes, which fixes how values read back."""
        v = self.values[0] if self.values else None
        if isinstance(v, Element):
            return f"space {v.space.base_size} {v.space.dimension}"
        if isinstance(v, RaElement):
            return f"rel {v.base_size}"
        return "tables"


MAX_CARRIER_ATOMS = 16  # carriers are enumerated up to 2**16 elements


def _split(domain, cells, splitters) -> list:
    """Refine the cells until every splitter is a union of cells."""
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


def _put(items: tuple, i: int, value) -> tuple:
    return items[:i] + (value,) + items[i + 1 :]


def _joins(domain, atoms) -> tuple:
    """Every join of the given atoms, sorted by key; refuses more than
    2**MAX_CARRIER_ATOMS joins before building any."""
    if len(atoms) > MAX_CARRIER_ATOMS:
        raise CapacityError(
            f"2**{len(atoms)} elements are past the "
            f"2**{MAX_CARRIER_ATOMS}-element carrier budget"
        )
    out = [domain.zero]
    for a in atoms:
        out += [domain.join(x, a) for x in out]
    return tuple(sorted(out, key=domain.key))


class FiniteAlgebra:
    """A finite subalgebra of a value domain, stored as its atoms.

    The carrier, the key-sorted joins of the atoms, is built on first
    access and only up to 2**16 elements.  The library builds algebras from
    their atoms (`from_atoms`); the constructor is for carriers that come
    from outside the program, such as tables read from a file.
    """

    def __init__(self, domain, carrier):
        """Find the atoms of an outside carrier by refining against it.

        Checks, exactly and on every element, that the carrier is the set
        of joins of its atoms (with the Boolean tables acting as on sets of
        atoms) and that every operator table is normal and additive in each
        argument, the condition that generation by refinement relies on.
        Raises ValueError when either check fails.
        """
        values = {domain.key(v): v for v in carrier}
        self._setup(domain, _split(domain, _top_cells(domain), values.values()))
        self._check_carrier(values)

    @classmethod
    def from_atoms(cls, domain, atoms) -> "FiniteAlgebra":
        algebra = cls.__new__(cls)
        algebra._setup(domain, atoms)
        return algebra

    def _setup(self, domain, atoms):
        self.domain = domain
        self.signature = domain.signature
        self._atoms = tuple(sorted(atoms, key=domain.key))
        self.zero = domain.zero
        self.one = domain.one
        self.is_degenerate = not self._atoms
        self._carrier = None

    # -- carrier access ----------------------------------------------------

    @property
    def carrier(self) -> tuple:
        if self._carrier is None:
            self._carrier = _joins(self.domain, self._atoms)
        return self._carrier

    @property
    def size(self) -> int:
        """2**atoms; unlike len(), not capped at sys.maxsize."""
        return 1 << len(self._atoms)

    def __len__(self):
        return self.size

    def __contains__(self, v):
        dom = self.domain
        below = self.zero
        try:
            for a in self._atoms:
                if self.le(a, v):
                    below = dom.join(below, a)
        except KeyError:  # a TableDomain has no entries for outside values
            return False
        return dom.key(below) == dom.key(v)

    def meet(self, a, b):
        return self.domain.meet(a, b)

    def join(self, a, b):
        return self.domain.join(a, b)

    def compl(self, a):
        return self.domain.compl(a)

    def apply(self, op: OpRef, *args):
        return self.domain.apply(op, *args)

    def le(self, a, b) -> bool:
        return self.domain.key(self.domain.meet(a, b)) == self.domain.key(a)

    def operator_descriptors(self):
        return self.signature.operator_descriptors()

    # -- validation of outside carriers -------------------------------------

    def _check_carrier(self, values: dict):
        dom, key = self.domain, self.domain.key
        size = 1 << len(self._atoms)
        full = size - 1
        # Each element as the set of atoms below it, one bit per atom.
        masks = {
            k: sum(1 << i for i, a in enumerate(self._atoms) if self.le(a, v))
            for k, v in values.items()
        }
        by_mask = {m: values[k] for k, m in masks.items()}
        if (
            len(values) != size
            or len(by_mask) != len(values)
            or masks.get(key(self.zero)) != 0
            or masks.get(key(self.one)) != full
        ):
            raise ValueError("carrier is not the set of joins of its atoms")

        def table(fn, arity) -> dict:
            out = {}
            for ms in itertools.product(by_mask, repeat=arity):
                out[ms] = masks.get(key(fn(*(by_mask[m] for m in ms))))
            return out

        for name, fn, arity, want in (
            ("complement", dom.compl, 1, lambda m: full & ~m),
            ("meet", dom.meet, 2, lambda m, n: m & n),
            ("join", dom.join, 2, lambda m, n: m | n),
        ):
            if any(got != want(*ms) for ms, got in table(fn, arity).items()):
                raise ValueError(f"{name} does not act on the atoms below each element")
        for op, arity in self.signature.operator_descriptors():
            images = table(partial(dom.apply, op), arity)
            if None in images.values():
                raise ValueError(f"carrier not closed under {opref_str(op)}")
            # Normal and additive in argument i: f(.., 0, ..) = 0, and
            # f(.., x, ..) joins f(.., a, ..) and f(.., x - a, ..) for the
            # lowest atom a below x.
            for ms, got in images.items():
                for i, m in enumerate(ms):
                    low = m & -m
                    if m == 0:
                        want = 0
                    elif m == low:
                        continue
                    else:
                        want = images[_put(ms, i, low)] | images[_put(ms, i, m ^ low)]
                    if got != want:
                        raise ValueError(
                            f"{opref_str(op)} is not normal and additive "
                            f"in argument {i}"
                        )

    # -- serialization ------------------------------------------------------

    def serialize(self) -> str:
        if len(self._atoms) > 8:
            raise PreconditionError("serialization supported up to 256 elements")
        carrier = self.carrier
        if not all(isinstance(v, (Element, RaElement)) for v in carrier):
            raise PreconditionError("only bitset-backed carriers serialize")
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

    @classmethod
    def deserialize(cls, text: str) -> "FiniteAlgebra":
        """Read `serialize` output; each table's shape comes from its arity."""
        lines = [ln.split() for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != ["baokit-algebra", "1"]:
            raise ValueError("unknown algebra format")
        if len(lines) < 4 or len(lines[1]) != 3 or lines[3][:1] != ["carrier"]:
            raise ValueError("truncated algebra text: incomplete header")
        kind, dim = lines[1][1:]
        signature = Signature(kind, None if kind in ("BA", "RA") else int(dim))
        count = int(lines[3][-1])
        elems = [ln for ln in lines[4 : 4 + count] if ln[0] == "elem" and len(ln) == 2]
        if len(elems) != count:
            raise ValueError(f"truncated algebra text: {len(elems)} of {count} elems")
        values = _read_values(" ".join(lines[2]), [ln[1] for ln in elems])
        rows = {}
        for ln in lines[4 + count :]:
            is_table = ln[0] == "table" and len(ln) > 1
            name, entries = (ln[1], ln[2:]) if is_table else (ln[0], ln[1:])
            rows[name] = [int(e) for e in entries]
        shapes = [("zero", 0), ("one", 0), ("not", 1), ("and", 2), ("or", 2)]
        shapes += [(opref_str(op), a) for op, a in signature.operator_descriptors()]
        tables = {}
        domain = TableDomain(signature, values, tables)
        keys = [domain.key(v) for v in values]
        for name, arity in shapes:
            row = rows.get(name)
            if row is None or len(row) != count**arity:
                raise ValueError(f"truncated algebra text: table {name!r} incomplete")
            if not all(0 <= e < count for e in row):
                raise ValueError(f"table {name!r} refers past the carrier")
            args = itertools.product(keys, repeat=arity)
            tables[name] = {a: values[e] for a, e in zip(args, row)}
        return cls(domain, values)

    def __repr__(self):
        return f"FiniteAlgebra({self.signature.label}, size={self.size})"


def _read_values(desc: str, hexes) -> list:
    """Carrier values for a domain line: `space u n`, `rel u`, or either
    inside any number of `relativized(...)`."""
    while desc.startswith("relativized(") and desc.endswith(")"):
        desc = desc[len("relativized(") : -1]
    parts = desc.split()
    if parts[:1] == ["space"] and len(parts) == 3:
        space = TupleSpace(int(parts[1]), int(parts[2]))
        return [Element(space, int(h, 16)) for h in hexes]
    if parts[:1] == ["rel"] and len(parts) == 2:
        return [RaElement(int(parts[1]), int(h, 16)) for h in hexes]
    raise ValueError(f"cannot deserialize domain {desc!r}")


def generate_subalgebra(domain, gens, cap: int = 4096) -> FiniteAlgebra:
    """Least subuniverse of a value domain containing `gens`, 0, 1 and the
    signature constants; with no gens, the subalgebra of the constants.

    `domain` is a full SetAlgebra or RelationAlgebra, or any other value
    domain, such as a product or a relativization; it becomes the domain of
    the result.  The atoms are found by partition refinement: start from
    the cells cut out by the constants and the generators, split every cell
    by each operator image of a cell (of a pair of cells, for a binary
    operator), and stop when no cell splits.  Each operator is additive in each argument, so the
    joins of the final cells are closed under it.  Fails with
    ClosureCapError as soon as a round leaves more than log2(cap) cells.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    key = domain.key
    ops = domain.signature.operator_descriptors()
    seeds = [domain.apply(op) for op, arity in ops if arity == 0] + list(gens)
    cells = _split(domain, _top_cells(domain), seeds)
    used = {key(s) for s in seeds}  # splitters every later partition refines
    done: set = set()  # cells whose images have been taken
    while True:
        if 1 << len(cells) > cap:
            raise ClosureCapError(cap, 1 << len(cells))
        fresh = {key(c) for c in cells} - done
        if not fresh:
            return FiniteAlgebra.from_atoms(domain, cells)
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


def atoms(algebra: FiniteAlgebra) -> list:
    """All minimal nonzero carrier elements, in canonical order."""
    return list(algebra._atoms)


def atom_below(algebra: FiniteAlgebra, a, b):
    """An atom of the relativization below -b that sits below a.

    `b` is used as given (callers pass an already closed ideal generator).
    The returned element is an atom of the whole algebra as well.
    """
    dom = algebra.domain
    if dom.key(a) == dom.key(algebra.zero):
        raise PreconditionError("a must be nonzero")
    target = dom.meet(a, dom.compl(b))
    if dom.key(target) == dom.key(algebra.zero):
        raise PreconditionError("a . -b is zero; no atom exists below it", witness=a)
    for atom in atoms(algebra):
        if algebra.le(atom, target):
            return atom
    raise PreconditionError("no atom found below a . -b (carrier not atomic?)")


def relativize(algebra: FiniteAlgebra, b) -> FiniteAlgebra:
    """The algebra induced on {x . b}, with operations cut down to b."""
    if b not in algebra:
        raise PreconditionError("b must belong to the carrier")
    below = [a for a in algebra._atoms if algebra.le(a, b)]
    return FiniteAlgebra.from_atoms(RelativizedDomain(algebra.domain, b), below)


@dataclass
class Ideal:
    """A principal ideal: everything below the operator closure of b."""

    parent: FiniteAlgebra
    generator: object
    closure: object

    @cached_property
    def members(self) -> tuple:
        below = [a for a in atoms(self.parent) if self.parent.le(a, self.closure)]
        return _joins(self.parent.domain, below)

    def __contains__(self, v):
        return v in self.parent and self.parent.le(v, self.closure)


def principal_ideal(algebra: FiniteAlgebra, b) -> Ideal:
    """Ideal generated by b: close b under joins and all operators, then
    take everything below the least fixed point."""
    dom = algebra.domain
    key = dom.key
    current = b
    while True:
        acc = current
        for op, arity in algebra.operator_descriptors():
            if arity == 1:
                acc = dom.join(acc, dom.apply(op, current))
            elif arity == 2:
                acc = dom.join(acc, dom.apply(op, current, algebra.one))
                acc = dom.join(acc, dom.apply(op, algebra.one, current))
        if key(acc) == key(current):
            break
        current = acc
    return Ideal(algebra, b, current)


def product(left: FiniteAlgebra, right: FiniteAlgebra) -> FiniteAlgebra:
    if left.signature != right.signature:
        raise SignatureError("product factors must share a signature")
    dom = ProductDomain(left.domain, right.domain)
    return FiniteAlgebra.from_atoms(
        dom,
        [(a, right.zero) for a in left._atoms] + [(left.zero, a) for a in right._atoms],
    )


@dataclass
class Decomposition:
    """Rl_b x Rl_-b, reached from the algebra through x -> (x.b, x.-b)."""

    below: FiniteAlgebra
    above: FiniteAlgebra
    algebra: FiniteAlgebra
    b: object

    def split(self, x) -> tuple:
        dom = self.algebra.domain
        return (dom.meet(x, self.b), dom.meet(x, dom.compl(self.b)))

    @cached_property
    def mapping(self) -> dict:  # key of x -> split(x)
        return {self.algebra.domain.key(x): self.split(x) for x in self.algebra.carrier}


def decompose_by_zero_dimensional(algebra: FiniteAlgebra, b) -> Decomposition:
    """Split the algebra as Rl_b x Rl_-b through x -> (x.b, x.-b).

    The precondition (every atom under b or the two principal ideals meet
    only in 0) is checked.  The map is a Boolean isomorphism whenever b
    belongs to the algebra; that it preserves the operators is verified on
    atoms, which suffices because the operators are additive.
    """
    dom = algebra.domain
    key = dom.key
    not_b = dom.compl(b)
    if not all(algebra.le(atom, b) for atom in atoms(algebra)):
        closures = [principal_ideal(algebra, c).closure for c in (b, not_b)]
        if key(dom.meet(*closures)) != key(algebra.zero):
            witness = next(a for a in atoms(algebra) if not algebra.le(a, b))
            raise PreconditionError(
                "ideals generated by b and -b overlap; decomposition unavailable",
                witness=witness,
            )
    out = Decomposition(relativize(algebra, b), relativize(algebra, not_b), algebra, b)
    pd = ProductDomain(out.below.domain, out.above.domain)
    for op, arity in algebra.operator_descriptors():
        for args in itertools.product(atoms(algebra), repeat=arity):
            got = pd.apply(op, *map(out.split, args))
            if pd.key(got) != pd.key(out.split(dom.apply(op, *args))):
                raise PreconditionError(f"decomposition map breaks {op}")
    return out


def is_hereditary_closed(algebra: FiniteAlgebra, b) -> bool:
    """True when every carrier x below b is fixed by all unary operators.

    The operators are additive, so the atoms below b decide it.
    """
    if b not in algebra:
        raise PreconditionError("b must belong to the carrier")
    key = algebra.domain.key
    return all(
        key(algebra.apply(op, a)) == key(a)
        for a in algebra._atoms
        if algebra.le(a, b)
        for op, arity in algebra.operator_descriptors()
        if arity == 1
    )


def discriminator_value(algebra: FiniteAlgebra, x):
    """c_0 ... c_{n-1} x computed inside the algebra's domain."""
    dim = algebra.signature.dimension
    out = x
    if dim:
        for i in range(dim):
            out = algebra.apply(("cyl", (i,)), out)
    return out
