"""Hereditarily finite sets under the bit-membership coding.

A natural number codes the set whose members are the sets coded by its
set bits, so membership is a single bit test and two sets are equal
exactly when their codes are.  The universe of all sets of rank at most r
is the initial code segment [0, t(r)) with t(0) = 1 and t(k+1) = 2**t(k):
2 at rank 1, 4 at rank 2, 16 at rank 3, 65536 at rank 4.

Pairs are decoded by the literal conditions of the pairing formulas (one
singleton member, at most one loose union element, no empty members), so
the decoder and the formula layer can be played against each other.

Ordinal arithmetic is cardinality arithmetic computed by enumeration:
disjoint copies for sums, tuple counting for products and function
spaces.  Codes of ordinals past 5 do not fit in memory (the code doubles
in bit length as a tower), so set-level results are capped and the value
level carries the larger instances.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _iproduct

from .errors import CapacityError, PreconditionError
from .models import ModelFinite
from .spaces import RaElement, RelationAlgebra

MAX_MEMBER_CODE_BITS = 1 << 20
MAX_ORDINAL = 5  # the largest finite ordinal whose code fits in memory


@lru_cache(maxsize=None)
def tower(r: int) -> int:
    if r < 0:
        raise ValueError("rank must be nonnegative")
    if r == 0:
        return 1
    return 2 ** tower(r - 1)


_rank_cache: dict[int, int] = {0: 0}


def code_rank(code: int) -> int:
    known = _rank_cache.get(code)
    if known is not None:
        return known
    rank = 0
    bits = code
    while bits:
        low = bits & -bits
        member = low.bit_length() - 1
        rank = max(rank, 1 + code_rank(member))
        bits ^= low
    _rank_cache[code] = rank
    return rank


class HFSet:
    """A hereditarily finite set, identified by its membership code."""

    __slots__ = ("code",)

    def __init__(self, code: int):
        if code < 0:
            raise ValueError("codes are nonnegative")
        self.code = code

    @classmethod
    def from_members(cls, members) -> "HFSet":
        code = 0
        for m in members:
            member_code = m.code if isinstance(m, HFSet) else int(m)
            if member_code >= MAX_MEMBER_CODE_BITS:
                raise CapacityError("member code too large to place in a bitset")
            code |= 1 << member_code
        return cls(code)

    @property
    def rank(self) -> int:
        return code_rank(self.code)

    def member_codes(self) -> list[int]:
        out = []
        bits = self.code
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    def members(self) -> list["HFSet"]:
        return [HFSet(c) for c in self.member_codes()]

    def __len__(self):
        return self.code.bit_count()

    def __contains__(self, other: "HFSet") -> bool:
        return (self.code >> other.code) & 1 == 1

    def __eq__(self, other):
        return isinstance(other, HFSet) and self.code == other.code

    def __hash__(self):
        return hash(("hf", self.code))

    def __repr__(self):
        if self.code.bit_length() > 4096:
            return f"HFSet(code with {self.code.bit_length()} bits)"
        return self.braces()

    def braces(self) -> str:
        return "{" + ",".join(m.braces() for m in sorted(self.members(), key=lambda s: s.code)) + "}"


EMPTY = HFSet(0)


class HFUniverse:
    """All sets of rank at most r, codes 0 .. t(r) - 1, membership by bit.
    It keeps the truth sets `models.holds` reads."""

    def __init__(self, rank: int):
        if rank > 4:
            raise CapacityError("universes are built up to rank 4 (65536 sets)")
        self.rank = rank
        self.size = tower(rank)
        self._columns: dict = {}  # (a, width) -> codes below width with bit a set
        self.truth_sets: dict = {}  # see models.holds

    @property
    def carrier_size(self) -> int:
        return self.size

    def sets(self):
        return (HFSet(code) for code in range(self.size))

    def rel_holds(self, name: str, row: tuple) -> bool:
        if name != "E":
            raise KeyError(name)
        a, b = row
        return (b >> a) & 1 == 1

    def section(self, name: str, position: int, others: tuple, mask: int) -> int:
        """The codes t with rel_holds(name, row), row being `others` with t
        put at `position`, as bits, exact below the bit length of `mask`.

        At position 0 they are the members of b, whose code is those bits.
        At position 1 they are the codes with bit a set: runs of 2**a codes
        without it and 2**a with it, built by doubling up to the width of
        the mask and kept.
        """
        if name != "E":
            raise KeyError(name)
        (other,) = others
        if position == 0:
            return other
        if not isinstance(other, int) or other < 0:
            raise ValueError(f"{other!r} is not a code")  # rel_holds fails on it too
        width = mask.bit_length()
        if other >= width.bit_length():
            return 0  # 2**a is past every value below the width
        key = (other, width)
        column = self._columns.get(key)
        if column is None:
            run = 1 << other
            column, period = ((1 << run) - 1) << run, 2 * run
            while period < width:
                column |= column << period
                period *= 2
            column = self._columns[key] = column & ((1 << width) - 1)
        return column

    def model(self) -> ModelFinite:
        """Explicit membership model; only materialized through rank 3."""
        if self.size > 16:
            raise CapacityError("explicit models stop at rank 3; use rel_holds")
        rows = [
            (a, b) for a in range(self.size) for b in range(self.size)
            if (b >> a) & 1
        ]
        return ModelFinite(list(range(self.size)), {"E": rows})

    def extensional(self) -> bool:
        """Distinct sets have distinct extensions.

        Scanned outright through rank 3; the rank-4 universe is checked on
        a seeded sample of pairs, since the full quadratic scan over 65536
        codes is out of desk range (the coding makes the property
        structural anyway: the extension of a code is the code itself).
        """
        import random

        codes = range(self.size)
        if self.size <= 16:
            extents = [
                frozenset(a for a in codes if (b >> a) & 1) for b in codes
            ]
            return len(set(extents)) == len(extents)
        member_count = tower(self.rank - 1)  # only lower-rank sets can be members
        rng = random.Random(0)
        for _ in range(2000):
            a, b = rng.randrange(self.size), rng.randrange(self.size)
            same_ext = all(
                self.rel_holds("E", (c, a)) == self.rel_holds("E", (c, b))
                for c in range(member_count)
            )
            if same_ext != (a == b):
                return False
        return True

    def __repr__(self):
        return f"HFUniverse(rank={self.rank}, size={self.size})"


def hf_universe(rank: int) -> HFUniverse:
    return HFUniverse(rank)


def decode_pair(x: HFSet):
    """The coded pair (first, second), or None when x codes no pair.

    Follows the pairing conditions literally: exactly one singleton
    member, every member nonempty, at most one union element that is not
    witnessed by a singleton member; the second component is read off the
    double-singleton shape or the loose union element.
    """
    members = x.members()
    if not members:
        return None
    if any(len(m) == 0 for m in members):
        return None
    singletons = [m for m in members if len(m) == 1]
    if len(singletons) != 1:
        return None
    first = singletons[0].members()[0]
    union_codes = set()
    for m in members:
        union_codes.update(m.member_codes())
    loose = [
        c for c in sorted(union_codes) if not (x.code >> (1 << c)) & 1
    ]  # union elements whose singleton is not a member of x
    if len(loose) > 1:
        return None
    if len(members) == 1:
        return (first, first)  # x = {{a}}
    if len(loose) != 1:
        return None
    return (first, HFSet(loose[0]))


def kuratowski(a: HFSet, b: HFSet) -> HFSet:
    return HFSet.from_members([HFSet.from_members([a]), HFSet.from_members([a, b])])


def quasiprojection_relations(universe: HFUniverse) -> tuple[RaElement, RaElement]:
    """P_i = {(x, y) : x decodes to a pair whose i-th component is y}."""
    algebra = RelationAlgebra(universe.size)
    p0_bits = 0
    p1_bits = 0
    for code in range(universe.size):
        decoded = decode_pair(HFSet(code))
        if decoded is None:
            continue
        first, second = decoded
        p0_bits |= 1 << (code * universe.size + first.code)
        p1_bits |= 1 << (code * universe.size + second.code)
    return algebra.from_bits(p0_bits), algebra.from_bits(p1_bits)


@dataclass(frozen=True, slots=True)
class OrdinalReport:
    """What the oracles decide of one set.  Reports are immutable, and every
    set that is not an ordinal shares one report, `_NOT_ORDINAL`."""

    is_ord: bool
    is_ford: bool
    value: int | None


_NOT_ORDINAL = OrdinalReport(False, False, None)


def is_ordinal(x: HFSet) -> bool:
    """Transitive, with membership linear on the members.

    The only such set with k members is the ordinal k = (k-1) + {k-1},
    whose largest member k-1 has the largest code.  So x is one exactly
    when its code is its top member's code with that member's bit added,
    and so on down to 0: one bit test per member, no member pairs.
    """
    code = x.code
    while code:
        top = code.bit_length() - 1
        if code != top | (1 << top):
            return False
        code = top
    return True


def _is_zero_or_successor(code: int) -> bool:
    if code == 0:
        return True
    for z in HFSet(code).member_codes():
        if z < code.bit_length() and code == z | (1 << z):
            return True
    return False


def ordinal_oracles(x: HFSet) -> OrdinalReport:
    code = x.code
    top = code.bit_length() - 1  # is_ordinal's first step, which settles most codes
    if code and code != top | (1 << top) or not is_ordinal(x):
        return _NOT_ORDINAL
    ford_ok = all(_is_zero_or_successor(m) for m in x.member_codes())
    return OrdinalReport(True, ford_ok, len(x))


def ordinal_hf(value: int) -> HFSet:
    """The finite ordinal as a set; codes past MAX_ORDINAL do not fit."""
    if value > MAX_ORDINAL:
        raise CapacityError("ordinal codes past 5 exceed the bitset budget")
    code = 0
    for _ in range(value):
        code = code | (1 << code)
    return HFSet(code)


def bijection_exists(a: HFSet, b: HFSet) -> bool:
    return len(a) == len(b)


def sum_value(a: int, b: int) -> int:
    """Cardinality of a disjoint union, counted element by element."""
    return len([(0, i) for i in range(a)] + [(1, j) for j in range(b)])


def prod_value(a: int, b: int) -> int:
    """Cardinality of the cartesian product, enumerated."""
    return sum(1 for _ in _iproduct(range(a), range(b)))


def exp_value(a: int, b: int) -> int:
    """Number of functions from a b-element set into an a-element set."""
    return sum(1 for _ in _iproduct(range(a), repeat=b))


@dataclass
class ArithReport:
    sum: HFSet | None
    prod: HFSet | None
    exp: HFSet | None


def arith_oracles(x: HFSet, y: HFSet) -> ArithReport:
    """Set-level ordinal arithmetic; None marks results past MAX_ORDINAL."""
    rx, ry = ordinal_oracles(x), ordinal_oracles(y)
    if not (rx.is_ford and ry.is_ford):
        raise PreconditionError("arguments must be finite ordinals")

    def settle(value: int) -> HFSet | None:
        return ordinal_hf(value) if value <= MAX_ORDINAL else None

    return ArithReport(
        sum=settle(sum_value(rx.value, ry.value)),
        prod=settle(prod_value(rx.value, ry.value)),
        exp=settle(exp_value(rx.value, ry.value)),
    )


def robinson_model(max_value: int) -> ModelFinite:
    """Finite ordinals 0..max_value with membership and the arithmetic
    graphs filled in from the enumeration oracles."""
    values = list(range(max_value + 1))
    rel = {
        "E": [(a, b) for a in values for b in values if a < b],
        "zero": [(0,)],
        "suc": [(a, a + 1) for a in values if a + 1 <= max_value],
        "leq": [(a, b) for a in values for b in values if a <= b],
        "less": [(a, b) for a in values for b in values if a < b],
        "add": [],
        "mul": [],
        "exp": [],
    }
    for a in values:
        for b in values:
            s = sum_value(a, b)
            if s <= max_value:
                rel["add"].append((a, b, s))
            p = prod_value(a, b)
            if p <= max_value:
                rel["mul"].append((a, b, p))
            e = exp_value(a, b)
            if e <= max_value:
                rel["exp"].append((a, b, e))
    return ModelFinite(values, rel)
