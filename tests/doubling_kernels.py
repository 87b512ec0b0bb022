"""The full-width mask builders that `baokit.spaces` replaced, kept as the
oracles of the builders that grow each mask from a seed over its own
coordinates.

Here the diagonal ANDs two full-width digit-zero masks and replicates the
result u times, the strict order doubles along coordinate b from that
diagonal, and every fold, of the top coordinate too, ORs in right-shifted
copies of the whole bitset.  A fold may be relativized to a run of values
of its coordinate, c_i(D . x), as window quantifiers once were in the
kernels themselves; the run is checked here (`check_run`).  `derived_order` is the strict order s_a < s_b
for a > b as it was derived from the other order and the diagonal, before
it grew from its own seed.
"""

from baokit import spaces
from baokit.spaces import Element, TupleSpace, _replicate, doubling_shifts


def diag(space: TupleSpace, i: int, j: int) -> Element:
    """The set of tuples whose coordinates i and j agree."""
    space.check_coord(i)
    space.check_coord(j)
    if i == j:
        return Element(space, space.full_mask)
    both_zero = space.digit_zero_mask(i) & space.digit_zero_mask(j)
    step = space.stride(i) + space.stride(j)
    return Element(space, _replicate(both_zero, step, space.base_size))


def strictly_below(space: TupleSpace, a: int, b: int) -> int:
    """Bits of {s : s_a < s_b}, by doubling along coordinate b (none when
    a == b).

    The diagonal s_a = s_b, without its tuples at the top value of b and
    shifted up one step of b, is s_b = s_a + 1.  Each round ORs in a copy
    shifted up by the largest gap found so far, leaving out the tuples that
    would pass the top value, so the gaps found double.
    """
    if a == b:
        space.check_coord(a)
        return 0
    diagonal = diag(space, a, b).bits
    u = space.base_size
    stride = space.stride(b)
    top = space.digit_mask(b, u - 1)  # s_b above u - 1 - gap
    bits = (diagonal ^ (diagonal & top)) << stride
    gap = 1
    while gap < u - 1:
        bits |= (bits ^ (bits & top)) << gap * stride
        top |= top >> gap * stride  # past the last round, no longer used
        gap *= 2
    return bits


def derived_order(space: TupleSpace, a: int, b: int) -> int:
    """Bits of {s : s_a < s_b} for a > b: the tuples neither below the
    other way round nor on the diagonal, from the seed-grown builders of
    `baokit.spaces`."""
    if a <= b:
        raise ValueError("derived_order is the order for a > b")
    return space.full_mask ^ spaces.strictly_below(space, b, a) ^ spaces.diag(space, a, b).bits


def check_run(values: range, base_size: int) -> None:
    """Refuse what is not a nonempty run of base values, step 1."""
    if values.step != 1 or not 0 <= values.start < values.stop <= base_size:
        raise ValueError(f"{values!r} is not a nonempty run of base values")


def _folding(space: TupleSpace, coord: int, values: range | None) -> tuple[int, tuple]:
    """The shift that brings the run `values` of `coord` (the whole base
    when None) down to digit 0, and the shifts that fold its copies there."""
    space.check_coord(coord)
    u = space.base_size
    stride = space.stride(coord)
    if values is None:
        return 0, doubling_shifts(stride, u)
    check_run(values, u)
    return values.start * stride, doubling_shifts(stride, len(values))


def cylinder(space: TupleSpace, coord: int, values: range | None = None):
    """The kernel x -> c_coord(D . x), D the tuples whose coordinate `coord`
    lies in `values`: fold onto digit 0 at full width, mask, spread."""
    start, fold = _folding(space, coord, values)
    spread = doubling_shifts(space.stride(coord), space.base_size)
    zero = space.digit_zero_mask(coord)

    def kernel(x: int, _=None) -> int:
        if start:
            x >>= start
        for shift in fold:
            x |= x >> shift
        x &= zero
        for shift in spread:
            x |= x << shift
        return x

    return kernel


def fold_top(space: TupleSpace, values: range | None, dimension: int):
    """The kernel of c_top(D . x) as a bitset over TupleSpace(u, dimension):
    the run of the top coordinate folded at full width, the low
    u**dimension bits kept."""
    if not 0 < dimension < space.dimension:
        raise ValueError(f"cannot fold {space!r} onto dimension {dimension}")
    start, fold = _folding(space, space.dimension - 1, values)
    low = (1 << space.base_size**dimension) - 1

    def kernel(x: int, _=None) -> int:
        if start:
            x >>= start
        for shift in fold:
            x |= x >> shift
        return x & low

    return kernel
