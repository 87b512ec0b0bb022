"""Tuple spaces over a finite base, with bitset-backed set-algebra elements.

A TupleSpace identifies the u**n tuples over a base of size u with the bit
positions 0 .. u**n - 1 through a mixed-radix code, coordinate 0 least
significant.  Element wraps one such bitset immutably; all operations are
hard errors across distinct spaces.  No kernel scans tuples.  Along
coordinate 0, whose values are runs of u bits, cylindrification takes 7
full-width operations by carries from u = 3 on; along any other it folds
onto digit 0 and spreads back by doubling, O(log u) shifts, and the top
coordinate, whose values are contiguous blocks, is folded by halving.
The diagonal d_ij and the strict order s_a < s_b, for a below b and for a
above it alike, grow by doubling from a seed over their own coordinates,
the ones up to the higher of the two, and are replicated along the
coordinates above it last, so only their last steps work at full width;
neither order is built from the other.  Substitution is c_i(d_ij . x).
A space keeps its digit-zero masks and, made on first use, its kernel
table (`operators`, the one its SetAlgebra runs), so `cyl` and `subst`
build each cylinder kernel once; d_ij is built on each call, as kept
diagonals grew the peak RSS of perfbench's `wide` by 10-14%.  `cylinder`
gives the raw-int kernel of cylindrification, relativized to a run of
values of its coordinate, `fold_top` the same fold of the last coordinate
onto a space of lower dimension, with nothing spread back,
`strictly_below` the order atom s_a < s_b, and `diagonal_at` the
diagonal at chosen values.

A binary relation on a base of size u is an Element of TupleSpace(u, 2),
of the subclass RaElement: the pair (a, b) is the tuple (b, a), at bit
a*u + b, so row a of the u x u bit matrix is a run of u bits.  Converse
swaps the two coordinates, a bit-matrix transpose (`transpose`), and the
identity relation is the diagonal d_01.  RelationAlgebra adds composition
(`compose_bits`, by Four Russians' tables for a dense relation).
SetAlgebra and RelationAlgebra are FullAlgebras, which share their
values' construction, zero, one and apply, and each is the value domain
of its own finite subalgebras, which compute on its raw ints.

An operator table (`SetOperators`, `RelationOperators`) is the one map from
operator names to raw-int kernels; each algebra has one for `apply` (a
SetAlgebra its space's), and term programs and formula plans run tables
too.
"""

import operator
from collections.abc import Iterable, Iterator

from .errors import CapacityError, InputError, SignatureError, SpaceMismatchError
from .signatures import OpRef, Signature

MAX_SPACE_BITS = 1 << 24
SLICED_FROM = 32  # the base size from which compose_bits splits its rows by halving


def read_int(token: str, base: int = 10) -> int:
    """The int a token of element or algebra text spells; else InputError naming it."""
    try:
        return int(token, base)
    except ValueError:
        raise InputError(f"not a base-{base} number: {token!r}") from None


def read_size(token: str) -> int:
    """The base size or dimension a token of element text spells, at least
    1; else InputError naming the token."""
    size = read_int(token)
    if size < 1:
        raise InputError(f"{token!r} is below 1")
    return size


def doubling_shifts(period: int, count: int) -> tuple[int, ...]:
    """Shifts that make `count` copies of a pattern, at offsets 0, period,
    ..., by ORing in a shifted copy of everything so far: O(log count)."""
    shifts = []
    have = 1
    while have < count:
        step = min(have, count - have)
        shifts.append(step * period)
        have += step
    return tuple(shifts)


def _replicate(pattern: int, period: int, count: int) -> int:
    """OR together `count` copies of `pattern` placed at offsets 0, period, ..."""
    for shift in doubling_shifts(period, count):
        pattern |= pattern << shift
    return pattern


def _above(space: "TupleSpace", bits: int, coord: int) -> int:
    """`bits`, a pattern over coordinates 0 .. coord, replicated along every
    coordinate above `coord`."""
    block = space.stride(coord) * space.base_size
    return _replicate(bits, block, space.size // block)


def space_size(base_size: int, dimension: int) -> int:
    """u**n, the size of TupleSpace(u, n), which is built only if this
    raises neither ValueError nor, past the budget, CapacityError."""
    if base_size < 1 or dimension < 1:
        raise ValueError("base size and dimension must both be at least 1")
    # a huge n fails before u**n (or, for u = 1, a list of n entries) is built
    too_big = dimension > (MAX_SPACE_BITS.bit_length() if base_size > 1 else MAX_SPACE_BITS)
    size = None if too_big else base_size**dimension
    if too_big or size > MAX_SPACE_BITS:
        raise CapacityError(
            f"space of {base_size}**{dimension} tuples exceeds the "
            f"2**24-bit desk-scale budget"
        )
    return size


class TupleSpace:
    """The set of all dimension-n tuples over a base {0, ..., u-1}."""

    __slots__ = ("base_size", "dimension", "size", "full_mask", "_digit_zero", "_operators")

    def __init__(self, base_size: int, dimension: int):
        size = space_size(base_size, dimension)
        self.base_size = base_size
        self.dimension = dimension
        self.size = size
        self.full_mask = (1 << size) - 1
        self._digit_zero: list[int | None] = [None] * dimension
        self._operators = None

    @property
    def operators(self) -> "SetOperators":
        """The kernel table of this space, on all its coordinates, made on first use."""
        if self._operators is None:
            self._operators = SetOperators(self, self.dimension)
        return self._operators

    def stride(self, coord: int) -> int:
        return self.base_size**coord

    def check_coord(self, coord: int) -> None:
        if not 0 <= coord < self.dimension:
            raise IndexError(
                f"coordinate {coord} out of range for dimension {self.dimension}"
            )

    def encode(self, tup) -> int:
        if len(tup) != self.dimension:
            raise ValueError(f"expected a {self.dimension}-tuple, got {tup!r}")
        index = 0
        for c in reversed(tup):
            if not 0 <= c < self.base_size:
                raise ValueError(f"coordinate value {c} outside base {self.base_size}")
            index = index * self.base_size + c
        return index

    def decode(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise ValueError(f"tuple index {index} out of range")
        out = []
        for _ in range(self.dimension):
            index, c = divmod(index, self.base_size)
            out.append(c)
        return tuple(out)

    def tuples(self) -> Iterator[tuple[int, ...]]:
        return (self.decode(i) for i in range(self.size))

    def digit_zero_mask(self, coord: int) -> int:
        """Bitmask of all positions whose coordinate `coord` equals 0."""
        self.check_coord(coord)
        cached = self._digit_zero[coord]
        if cached is not None:
            return cached
        mask = _above(self, (1 << self.stride(coord)) - 1, coord)
        self._digit_zero[coord] = mask
        return mask

    def digit_mask(self, coord: int, value: int) -> int:
        """Bitmask of all positions whose coordinate `coord` equals `value`."""
        if not 0 <= value < self.base_size:
            raise ValueError(f"coordinate value {value} outside base {self.base_size}")
        return self.digit_zero_mask(coord) << (value * self.stride(coord))

    def __eq__(self, other):
        return (
            isinstance(other, TupleSpace)
            and self.base_size == other.base_size
            and self.dimension == other.dimension
        )

    def __hash__(self):
        return hash((self.base_size, self.dimension))

    def __repr__(self):
        return f"TupleSpace(base_size={self.base_size}, dimension={self.dimension})"


class Element:
    """An immutable subset of one tuple space, stored as a bitset.  Values
    of different types, such as a relation and a set element, never
    combine or compare equal, even over one space."""

    __slots__ = ("space", "bits")

    def __init__(self, space: TupleSpace, bits: int):
        self.space = space
        self.bits = bits & space.full_mask

    def _peer(self, other: "Element") -> "Element":
        if type(other) is not type(self):
            raise TypeError(f"expected an {type(self).__name__}, got {type(other).__name__}")
        if other.space != self.space:
            raise SpaceMismatchError(
                f"elements of {self.space!r} and {other.space!r} cannot be combined"
            )
        return other

    def __and__(self, other):
        return _value(type(self), self.space, self.bits & self._peer(other).bits)

    def __or__(self, other):
        return _value(type(self), self.space, self.bits | self._peer(other).bits)

    def __xor__(self, other):
        return _value(type(self), self.space, self.bits ^ self._peer(other).bits)

    def __sub__(self, other):
        return _value(type(self), self.space, self.bits ^ (self.bits & self._peer(other).bits))

    def __invert__(self):
        return _value(type(self), self.space, self.space.full_mask ^ self.bits)

    def __le__(self, other):
        return self.bits & self._peer(other).bits == self.bits

    def __lt__(self, other):
        return self <= other and self.bits != other.bits

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.space == other.space
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.space, self.bits))

    def __bool__(self):
        return self.bits != 0

    @property
    def count(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def is_full(self) -> bool:
        return self.bits == self.space.full_mask

    def tuples(self) -> Iterator[tuple[int, ...]]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield self.space.decode(low.bit_length() - 1)
            bits ^= low

    def serialize(self) -> str:
        width = (self.space.size + 3) // 4
        return (
            f"space:{self.space.base_size},{self.space.dimension}:"
            f"{self.bits:0{width}x}"
        )

    @classmethod
    def deserialize(cls, text: str) -> "Element":
        head, _, payload = text.partition(":")
        dims, _, hexbits = payload.partition(":")
        if head != "space" or not hexbits:
            raise InputError(f"malformed element text {text!r}")
        u_str, _, n_str = dims.partition(",")
        space = TupleSpace(read_size(u_str), read_size(n_str))
        return cls(space, read_int(hexbits, 16))

    def __repr__(self):
        return (
            f"Element(u={self.space.base_size}, n={self.space.dimension}, "
            f"count={self.count})"
        )


_new = object.__new__


def _value(cls, space: TupleSpace, bits: int):
    """A value of type `cls`, Element or a subclass, over `space`, holding
    `bits`, which lie below its top; no constructor runs."""
    x = _new(cls)
    x.space = space
    x.bits = bits
    return x


def _check_run(values: range, base_size: int) -> None:
    if values.step != 1 or not 0 <= values.start < values.stop <= base_size:
        raise ValueError(f"{values!r} is not a nonempty run of base values")


def _folding(space: TupleSpace, coord: int, values: range | None):
    """The fold of the run `values` of `coord` (the whole base when None)
    onto digit 0: a function of x, below the space's full mask, whose
    result holds the tuples with coordinate `coord` 0 of c_coord(D . x).

    x is shifted right by values.start steps of `coord`.  Below the top,
    shifted copies of x are ORed in, O(log u) full-width shifts, and digit
    0 is masked.  The top coordinate's values are contiguous blocks of
    its stride, so it is folded by halving: each step ORs the upper half
    of the blocks left onto the lower half, on half the bits of the step
    before, and the last leaves digit 0 alone.
    """
    space.check_coord(coord)
    u = space.base_size
    stride = space.stride(coord)
    if values is None:
        start, count = 0, u
    else:
        _check_run(values, u)
        start, count = values.start * stride, len(values)
    if coord < space.dimension - 1:
        shifts = doubling_shifts(stride, count)
        zero = space.digit_zero_mask(coord)

        def fold(x: int) -> int:
            if start:
                x >>= start
            for shift in shifts:
                x |= x >> shift
            return x & zero

        return fold
    # the blocks of the run; those past it are cut off first
    trim = (1 << count * stride) - 1 if values is not None and values.stop < u else None
    halves = []
    while count > 1:
        count -= count // 2
        halves.append(((1 << count * stride) - 1, count * stride))

    def fold(x: int) -> int:
        if start:
            x >>= start
        if trim is not None:
            x &= trim
        for low, shift in halves:
            x = (x & low) | (x >> shift)
        return x

    return fold


def cylinder(space: TupleSpace, coord: int, values: range | None = None):
    """The kernel x -> c_coord(D . x) on raw bitsets over `space`, where D
    holds the tuples whose coordinate `coord` lies in `values`, a nonempty
    run of base values (the whole base by default).

    Coordinate 0 of a base of 3 or more goes by carries (`_carries`), any
    other run of x is folded onto digit 0 (`_folding`) and replicated u
    times by doubling; D itself is never built.  The kernel ignores a
    second argument, so a straight-line program applies it like any
    binary operator.
    """
    if coord == 0 and space.base_size > 2:
        return _carries(space, values)
    fold = _folding(space, coord, values)
    spread = doubling_shifts(space.stride(coord), space.base_size)

    def kernel(x: int, _=None) -> int:
        x = fold(x)
        for shift in spread:
            x |= x << shift
        return x

    return kernel


def _carries(space: TupleSpace, values: range | None):
    """c_0(D . x) by carries, for u >= 3, each tuple's coordinate-0 values
    a group of u bits: with high the top bit of each group and zero the
    bottom one (the digit-zero mask), t = ((x | high) - zero | x) & high
    marks the nonempty groups (a group borrows from its own top bit only
    when all below it are clear, never from the next) and t - (t >> (u -
    1)) | t fills them.  high and zero are cut to x's whole groups, so a
    narrow x costs its width.  Per Mbit on CPython 3.11: 160 us at u = 3,
    the doubling fold 227; at u = 2, 167 against 103."""
    u, size = space.base_size, space.size
    zero = space.digit_zero_mask(0)
    high = zero << (u - 1)
    run = None
    if values is not None:
        _check_run(values, u)
        run = (zero << values.stop) - (zero << values.start)

    def kernel(x: int, _=None) -> int:
        if run is not None:
            x &= run
        cut = (size - x.bit_length()) // u * u  # the groups above x's highest
        top, bottom = (high >> cut, zero >> cut) if cut else (high, zero)
        t = ((x | top) - bottom | x) & top
        return t - (t >> (u - 1)) | t

    return kernel


def fold_top(space: TupleSpace, values: range | None, dimension: int):
    """The kernel of c_top(D . x), top the last coordinate of `space` and D
    as for `cylinder`, on the tuples whose coordinates from `dimension` up
    are 0, as a bitset over TupleSpace(u, dimension), for 0 < dimension <
    space.dimension.  That is all of it when x does not depend on the
    coordinates dimension .. top - 1.

    The run of the top coordinate is folded onto digit 0 by halving, as
    `cylinder` folds it, and the low u**dimension bits are kept: nothing
    is spread.
    """
    if not 0 < dimension < space.dimension:
        raise ValueError(f"cannot fold {space!r} onto dimension {dimension}")
    fold = _folding(space, space.dimension - 1, values)
    low = (1 << space.base_size**dimension) - 1
    return lambda x, _=None: fold(x) & low


def cyl(coord: int, x: Element) -> Element:
    """Existential projection along `coord`: replace the coordinate freely,
    by the cylinder kernel kept on x's space."""
    space = x.space
    return _value(Element, space, space.operators.function(("cyl", (coord,)))(x.bits))


def diag(space: TupleSpace, i: int, j: int) -> Element:
    """The set of tuples whose coordinates i and j agree (see `diagonal_at`)."""
    if i == j:
        space.check_coord(i)
        return _value(Element, space, space.full_mask)
    return _value(Element, space, diagonal_at(space, i, j))


def diagonal_at(space: TupleSpace, i: int, j: int, values=None) -> int:
    """Bits of {s : s_i = s_j = v for some v in `values`, or any v}.

    With lo and hi the lower and higher of i, j, the seed holds the tuples
    below coordinate hi with coordinate lo at 0 (for i == j, those below
    it).  Copies of it one step of both coordinates apart, at each value or
    u of them by doubling, make the pattern up to coordinate hi, which is
    replicated along those above.
    """
    space.check_coord(i)
    space.check_coord(j)
    lo, hi = min(i, j), max(i, j)
    u, stride_lo, stride_hi = space.base_size, space.stride(lo), space.stride(hi)
    if lo == hi:
        seed, step = (1 << stride_lo) - 1, stride_lo
    else:
        block = stride_lo * u
        seed, step = _replicate((1 << stride_lo) - 1, block, stride_hi // block), stride_lo + stride_hi
    if values is None:
        return _above(space, _replicate(seed, step, u), hi)
    bits = 0
    for v in values:
        if not 0 <= v < u:
            raise ValueError(f"coordinate value {v} outside base {u}")
        bits |= seed << v * step
    return _above(space, bits, hi)


def relation_bits(space: TupleSpace, coords, rows) -> int:
    """Bits of {s : (s[c] for c in coords) is one of `rows`}, rows of one
    length; coordinates and row places are paired as zip pairs them, so
    the shorter of the two counts.

    Each row sets one bit, at its tuple with every other coordinate 0, and
    the result is replicated along each other coordinate, O(log u) shifts.
    A coordinate repeated in `coords` keeps only the rows that agree on it.
    """
    width = len(next(iter(rows), ()))
    if width != len(coords):
        coords = tuple(coords[:width])
        rows = [row[: len(coords)] for row in rows]
    distinct = list(dict.fromkeys(coords))
    if len(distinct) < len(coords):
        first = [coords.index(c) for c in coords]
        keep = list(dict.fromkeys(first))
        rows = [
            [row[k] for k in keep]
            for row in rows
            if all(row[k] == row[j] for k, j in enumerate(first))
        ]
    strides = [space.stride(c) for c in distinct]
    bits = 0
    for row in rows:
        bits |= 1 << sum(map(operator.mul, row, strides))
    for c in range(space.dimension):
        if c not in distinct:
            bits = _replicate(bits, space.stride(c), space.base_size)
    return bits


def strictly_below(space: TupleSpace, a: int, b: int) -> int:
    """Bits of {s : s_a < s_b} (none when a == b).

    The seed y holds the tuples below coordinate hi = max(a, b) with every
    coordinate up to lo = min(a, b) at 0.  At value v of hi, the order is
    2**(v * stride_hi) * y * t_v: y's runs below lo, cut to the values of
    lo under v for a < b, t_v = 2**(v * stride_lo) - 1, or above v for
    a > b, t_v = 2**(u * stride_lo) - 2**((v + 1) * stride_lo).  Summed over
    v, each is u copies of y less u others; the terms hold distinct
    positions, so the subtraction borrows across none.  The result is
    replicated along the coordinates above hi.
    """
    lo, hi = min(a, b), max(a, b)
    space.check_coord(lo)
    space.check_coord(hi)
    if a == b:
        return 0
    u = space.base_size
    stride_lo, stride_hi = space.stride(lo), space.stride(hi)
    block = stride_lo * u
    y = _replicate(1, block, stride_hi // block)
    both = _replicate(y, stride_lo + stride_hi, u)
    if a < b:
        bits = both - _replicate(y, stride_hi, u)
    else:
        bits = _replicate(y << block, stride_hi, u) - (both << stride_lo)
    return _above(space, bits, hi)


def subst(i: int, j: int, x: Element) -> Element:
    """Replacement substitution: tuples s with s[i := s_j] in x, that is
    c_i(d_ij . x), by the cylinder kernel kept on x's space."""
    space = x.space
    space.check_coord(i)
    space.check_coord(j)
    if i == j:
        raise ValueError("substitution needs two distinct coordinates")
    if type(x) is not Element:
        raise TypeError(f"expected an Element, got {type(x).__name__}")
    kernel = space.operators.function(("cyl", (i,)))
    return _value(Element, space, kernel(diagonal_at(space, i, j) & x.bits))


def boolean(name: str, full: int):
    """The Boolean operator `name` ("and", "or", "not", "impl" or "iff") on
    raw bitsets below `full`, as a binary function ("not" ignores its
    second argument); None for any other name."""
    if name == "and":
        return operator.and_
    if name == "or":
        return operator.or_
    if name == "not":
        return lambda x, _: full ^ x
    if name == "impl":
        return lambda x, y: (full ^ x) | y
    if name == "iff":
        return lambda x, y: full ^ x ^ y
    return None


class Operators:
    """The raw-int operators of one value domain, each built on first use
    and kept; all are binary, a unary one ignoring its second argument.
    A subclass builds those past the Boolean ones in make, and its
    constants past 0 and 1."""

    def __init__(self, full: int):
        self.full = full
        self.functions = {}

    def function(self, op: OpRef):
        f = self.functions.get(op)
        if f is None:
            f = self.functions[op] = boolean(op[0], self.full) or self.make(op)
        return f

    def constant(self, op: OpRef) -> int:
        if op[0] == "zero":
            return 0
        if op[0] == "one":
            return self.full
        raise SignatureError(f"unsupported constant {op[0]!r}")


class SetOperators(Operators):
    """The operators of a set algebra on coordinates 0 .. n-1 of `space`:
    c_i, d_ij and s_ij = c_i(d_ij . x) (Henkin, Monk and Tarski,
    Cylindric Algebras I, 1.5).  Every coordinate of `space` from n up is
    left alone, so it may number lanes."""

    def __init__(self, space: TupleSpace, n: int):
        super().__init__(space.full_mask)
        self.space = space
        self.n = n
        self.key = (space.base_size, space.dimension, n)  # same key, same kernels

    def constant(self, op: OpRef) -> int:
        if op[0] == "diag":
            return diag(self.space, *op[1]).bits
        return super().constant(op)

    def make(self, op: OpRef):
        name, params = op
        if name == "cyl":
            return cylinder(self.space, params[0])
        if name == "subst":
            i, j = params
            same = diag(self.space, i, j).bits
            project = cylinder(self.space, i)
            return lambda x, _: project(x & same)
        if name == "disc":  # c_0 ... c_{n-1}: the top exactly when x is nonzero
            kernels = [self.function(("cyl", (c,))) for c in range(self.n)]

            def disc(x, _):
                for kernel in kernels:
                    x = kernel(x)
                return x

            return disc
        raise SignatureError(f"unsupported operator {name!r}")


class FullAlgebra:
    """The algebra of all subsets of one finite set under a signature, and
    the value domain of its finite subalgebras, which compute on the raw
    ints of its operator table (`full`, `operators`, `key`, `from_bits`).
    A subclass fixes `space`, the type of its values (`value`) and owns
    the operator table."""

    value = Element

    @property
    def full(self) -> int:
        return self.operators.full

    @property
    def zero(self):
        return self.from_bits(0)

    @property
    def one(self):
        return self.from_bits(self.operators.full)

    def element(self, tuples: Iterable):
        bits = 0
        for t in tuples:
            bits |= 1 << self.space.encode(t)
        return self.from_bits(bits)

    def from_bits(self, bits: int):
        return _value(self.value, self.space, bits & self.space.full_mask)

    def random_element(self, rng):
        return _value(self.value, self.space, rng.getrandbits(self.space.size))

    def contains(self, x) -> bool:
        # a value made here holds this very space, so `is` settles most calls
        return type(x) is self.value and (x.space is self.space or x.space == self.space)

    def key(self, v) -> int | None:
        """The bits of a value of this algebra; None for any other object."""
        return v.bits if self.contains(v) else None

    def apply(self, op: OpRef, *args):
        if not self.signature.allows(op):
            raise SignatureError(f"{op} is not in the {self.signature.label} signature")
        for a in args:
            if not self.contains(a):
                raise SpaceMismatchError("operand from a different space")
        table = self.operators
        bits = table.function(op)(args[0].bits, args[-1].bits) if args else table.constant(op)
        return self.from_bits(bits)


class SetAlgebra(FullAlgebra):
    """The full algebra of all subsets of a tuple space under one signature."""

    def __init__(self, kind: str, base_size: int, dimension: int):
        if kind == "RA":
            raise SignatureError("use RelationAlgebra for binary relations")
        self.signature = Signature(kind, None if kind == "BA" else dimension)
        self.space = TupleSpace(base_size, dimension)
        self.operators = self.space.operators

    def describe(self) -> str:
        """The domain line `FiniteAlgebra.serialize` writes."""
        return f"space {self.space.base_size} {self.space.dimension}"

    def __repr__(self):
        return (
            f"SetAlgebra({self.signature.label}, base={self.space.base_size}, "
            f"n={self.space.dimension})"
        )


class RaElement(Element):
    """An immutable binary relation on {0, ..., u-1}: an Element of
    TupleSpace(u, 2) whose tuple (b, a) is the pair (a, b), at bit a*u + b."""

    __slots__ = ()

    def __init__(self, base_size: int, bits: int):
        super().__init__(TupleSpace(base_size, 2), bits)

    @property
    def base_size(self) -> int:
        return self.space.base_size

    def has_pair(self, a: int, b: int) -> bool:
        return (self.bits >> (a * self.base_size + b)) & 1 == 1

    def pairs(self) -> Iterator[tuple[int, int]]:
        """The pairs (a, b) in the order of a*u + b."""
        return ((a, b) for b, a in self.tuples())

    def serialize(self) -> str:
        width = (self.space.size + 3) // 4
        return f"rel:{self.base_size}:{self.bits:0{width}x}"

    @classmethod
    def deserialize(cls, text: str) -> "RaElement":
        head, _, payload = text.partition(":")
        u_str, _, hexbits = payload.partition(":")
        if head != "rel" or not hexbits:
            raise InputError(f"malformed relation text {text!r}")
        return cls(read_size(u_str), read_int(hexbits, 16))

    def __repr__(self):
        return f"RaElement(base={self.base_size}, count={self.count})"


def compose_bits(u: int, r: int, s: int) -> int:
    """Relational composition r;s of two relation bitsets on a base of size
    u: row a of r;s is the OR of the rows b of s over the pairs (a, b) of r.

    Below u = SLICED_FROM each row is shifted out of the whole int and r's
    pairs are walked; from there on rows are split by halving and joined by
    pairing, an r with fewer than u*(u + 256)/24 pairs is walked, and a
    denser one goes by the tables of the Four Russians (Arlazarov, Dinic,
    Kronrod and Faradzev 1970), u*u/8 + 32u row ORs.  Measured crossovers
    (CPython 3.11): on random r the tables tie with the shifts at u = 32,
    100 against 97 us; walk and tables tie near u*u/3 pairs at u = 32,
    u*u/10 at 256, u*u/21 at 1,024 and u*u/27 at 4,096, where the tables
    take 0.36 to 0.52 s on random relations and the walk by shifts 6.7 s.
    """
    if u < SLICED_FROM:
        row_mask = (1 << u) - 1
        s_rows = [(s >> (b * u)) & row_mask for b in range(u)]
        out = 0
        for a in range(u):
            row = (r >> (a * u)) & row_mask
            acc = 0
            while row:
                low = row & -row
                acc |= s_rows[low.bit_length() - 1]
                row ^= low
            out |= acc << (a * u)
        return out
    s_rows, r_rows = split_rows(s, u, u), split_rows(r, u, u)
    if r.bit_count() * 24 < u * (u + 256):
        rows = []
        for row in r_rows:
            acc = 0
            while row:
                low = row & -row
                acc |= s_rows[low.bit_length() - 1]
                row ^= low
            rows.append(acc)
        return join_rows(rows, u)
    # per 8 rows of s, one table of the ORs of its 256 subsets, read by r's bytes
    width = (u + 7) >> 3  # bytes a row
    data = b"".join([row.to_bytes(width, "little") for row in r_rows])
    rows = [0] * u
    for group in range(width):
        table = [0]
        for row in s_rows[8 * group : 8 * group + 8]:
            table += [t | row for t in table]
        rows = list(map(operator.or_, rows, map(table.__getitem__, data[group::width])))
    return join_rows(rows, u)


def split_rows(bits: int, width: int, count: int) -> list[int]:
    """The `count` rows of `width` bits of `bits` < 2**(count*width), by halving."""
    parts = [bits]
    for level in reversed(range((count - 1).bit_length())):
        half = width << level
        low = (1 << half) - 1
        parts = [q for p in parts for q in (p & low, p >> half)]
    return parts[:count]


def join_rows(rows: list[int], width: int) -> int:
    """`rows`, each below 2**width, as one bitset, row a from bit a*width."""
    while len(rows) > 1:
        if len(rows) & 1:
            rows.append(0)
        rows = [lo | hi << width for lo, hi in zip(rows[::2], rows[1::2])]
        width *= 2
    return rows[0]


def transpose(space: TupleSpace, bits: int) -> int:
    """The bits of {(s_1, s_0) : s in x}, x a bitset over TupleSpace(u, 2):
    the converse of a relation, the transpose of the u x u bit matrix
    whose row a is bits a*u .. a*u + u - 1.

    With w the power of two at or above u, the rows are first spread to
    length w: for each bit j of a row index, highest first, the rows with
    that bit set move up by 2**j * (w - u), one masked move for all of
    them.  The w x w matrix is transposed by log2 w masked block swaps
    (Warren, Hacker's Delight, 2nd ed., 7-3): for k = w/2, ..., 1 the
    top-right and bottom-left k x k blocks of each 2k x 2k block trade
    places.  The moves undone in reverse order compact the rows back.
    """
    u = space.base_size
    w = 1 << (u - 1).bit_length()
    moves = []  # (the rows that move, how far), in groups of 2k rows
    k = w >> 1
    while k and w != u:
        run = ((1 << k * u) - 1) << k * u  # the upper k rows of a group
        moves.append((_replicate(run, 2 * k * w, -(-u // (2 * k))), k * (w - u)))
        k >>= 1
    for rows, shift in moves:
        moved = bits & rows
        bits ^= moved ^ moved << shift
    k = w >> 1
    cols = _replicate(((1 << k) - 1) << k, w, w)  # the columns with bit k set
    rows = (1 << k * w) - 1  # the rows with bit k clear
    while k:
        shift = k * (w - 1)
        swap = (bits ^ bits >> shift) & cols & rows
        bits ^= swap ^ swap << shift
        k >>= 1
        if k:
            cols ^= cols >> k
            rows ^= rows << k * w
    for rows, shift in reversed(moves):
        moved = bits & rows << shift
        bits ^= moved ^ moved >> shift
    return bits


class RelationOperators(Operators):
    """The operators of the algebra of all binary relations on a base of
    size u: composition, converse and the identity relation d_01."""

    def __init__(self, space: TupleSpace):
        super().__init__(space.full_mask)
        self.space = space
        self.key = (space.base_size,)

    def constant(self, op: OpRef) -> int:
        if op[0] == "id":
            return diag(self.space, 0, 1).bits
        return super().constant(op)

    def make(self, op: OpRef):
        space, u = self.space, self.space.base_size
        if op[0] == "conv":
            return lambda x, _: transpose(space, x)
        if op[0] == "comp":
            return lambda x, y: compose_bits(u, x, y)
        raise SignatureError(f"unsupported operator {op[0]!r}")


class RelationAlgebra(FullAlgebra):
    """All binary relations on a finite base, with ;, converse and Id."""

    value = RaElement

    def __init__(self, base_size: int):
        self.signature = Signature("RA")
        self.space = TupleSpace(base_size, 2)
        self.operators = RelationOperators(self.space)

    @property
    def base_size(self) -> int:
        return self.space.base_size

    @property
    def identity(self) -> RaElement:
        return self.from_bits(self.operators.constant(("id", ())))

    def element(self, pairs: Iterable[tuple[int, int]]) -> RaElement:
        u, bits = self.base_size, 0
        for a, b in pairs:
            if not (0 <= a < u and 0 <= b < u):
                raise ValueError(f"pair ({a}, {b}) outside base {u}")
            bits |= 1 << (a * u + b)
        return self.from_bits(bits)

    def describe(self) -> str:
        """The domain line `FiniteAlgebra.serialize` writes."""
        return f"rel {self.base_size}"

    def compose(self, r: RaElement, s: RaElement) -> RaElement:
        r._peer(s)
        return self.from_bits(compose_bits(self.base_size, r.bits, s.bits))

    def converse(self, r: RaElement) -> RaElement:
        return self.from_bits(transpose(self.space, r.bits))

    def residual(self, r: RaElement, s: RaElement) -> RaElement:
        """Boolean residual r -> s, that is -r + s."""
        return ~r | s

    def __repr__(self):
        return f"RelationAlgebra(base={self.base_size})"
