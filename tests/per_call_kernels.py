"""The Element-level `cyl`, `diag` and `subst` of `baokit.spaces` as they
were before each space kept its kernel table, kept as the oracle of the
kept-kernel path.

Here every call builds its cylinder kernel afresh, every result is made
by the Element constructor, which cuts it to the space's top once more,
and substitution is cyl of the meet of x with the diagonal, so a value
of another type fails in the meet.
"""

from baokit.spaces import Element, TupleSpace, cylinder, diagonal_at


def cyl(coord: int, x: Element) -> Element:
    """Existential projection along `coord`: replace the coordinate freely."""
    return Element(x.space, cylinder(x.space, coord)(x.bits))


def diag(space: TupleSpace, i: int, j: int) -> Element:
    """The set of tuples whose coordinates i and j agree."""
    if i == j:
        space.check_coord(i)
        return Element(space, space.full_mask)
    return Element(space, diagonal_at(space, i, j))


def subst(i: int, j: int, x: Element) -> Element:
    """Replacement substitution: tuples s with s[i := s_j] in x."""
    same = diag(x.space, i, j)  # checks both coordinates
    if i == j:
        raise ValueError("substitution needs two distinct coordinates")
    return cyl(i, same & x)
