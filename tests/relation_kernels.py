"""The relation value type, converse and composition that `baokit.spaces`
replaced, kept as the oracles of RaElement as an Element of
TupleSpace(u, 2), of `spaces.transpose` and of `spaces.compose_bits`.

Here a relation is its own value type, which repeats every Boolean
operator of Element over a mask of u*u bits, converse moves one pair at a
time, quadratic in the number of pairs, and composition shifts each row
out of the whole u*u-bit int and walks the pairs of r.
"""

from collections.abc import Iterator

from baokit.errors import SpaceMismatchError


class RaElement:
    """An immutable binary relation on {0, ..., u-1}, stored as a bitset.

    The pair (a, b) occupies bit a*u + b.
    """

    __slots__ = ("base_size", "bits")

    def __init__(self, base_size: int, bits: int):
        self.base_size = base_size
        self.bits = bits & ((1 << (base_size * base_size)) - 1)

    def _peer(self, other: "RaElement") -> "RaElement":
        if not isinstance(other, RaElement):
            raise TypeError(f"expected an RaElement, got {type(other).__name__}")
        if other.base_size != self.base_size:
            raise SpaceMismatchError(
                f"relations on bases {self.base_size} and {other.base_size}"
            )
        return other

    @property
    def full_mask(self) -> int:
        return (1 << (self.base_size * self.base_size)) - 1

    def __and__(self, other):
        return RaElement(self.base_size, self.bits & self._peer(other).bits)

    def __or__(self, other):
        return RaElement(self.base_size, self.bits | self._peer(other).bits)

    def __xor__(self, other):
        return RaElement(self.base_size, self.bits ^ self._peer(other).bits)

    def __sub__(self, other):
        return RaElement(self.base_size, self.bits ^ (self.bits & self._peer(other).bits))

    def __invert__(self):
        return RaElement(self.base_size, self.full_mask ^ self.bits)

    def __le__(self, other):
        return self.bits & self._peer(other).bits == self.bits

    def __lt__(self, other):
        return self <= other and self.bits != other.bits

    def __eq__(self, other):
        return (
            isinstance(other, RaElement)
            and self.base_size == other.base_size
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash(("ra", self.base_size, self.bits))

    def __bool__(self):
        return self.bits != 0

    @property
    def count(self) -> int:
        return self.bits.bit_count()

    def has_pair(self, a: int, b: int) -> bool:
        return (self.bits >> (a * self.base_size + b)) & 1 == 1

    def pairs(self) -> Iterator[tuple[int, int]]:
        u = self.base_size
        bits = self.bits
        while bits:
            low = bits & -bits
            pos = low.bit_length() - 1
            yield divmod(pos, u)
            bits ^= low

    def serialize(self) -> str:
        width = (self.base_size * self.base_size + 3) // 4
        return f"rel:{self.base_size}:{self.bits:0{width}x}"

    @classmethod
    def deserialize(cls, text: str) -> "RaElement":
        head, _, payload = text.partition(":")
        u_str, _, hexbits = payload.partition(":")
        if head != "rel" or not hexbits:
            raise ValueError(f"malformed relation text {text!r}")
        return cls(int(u_str), int(hexbits, 16))

    def __repr__(self):
        return f"RaElement(base={self.base_size}, count={self.count})"


def converse_bits(u: int, r: int) -> int:
    """The converse of a relation bitset on a base of size u."""
    out = 0
    while r:
        low = r & -r
        a, b = divmod(low.bit_length() - 1, u)
        out |= 1 << (b * u + a)
        r ^= low
    return out


def compose_bits(u: int, r: int, s: int) -> int:
    """Relational composition r;s of two relation bitsets on a base of size u."""
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
