"""Bounded integer windows standing in for evaluation on all of Z.

The intended structure is the integers with "strictly less than, plus a
chosen set of reflexive fixed points".  A window of radius W materializes
only the points -W .. W, and a quantifier at nesting depth k (counted from
the root, outermost 1) ranges over the narrower interval [-(W - k*M),
W - k*M], so claims about points near the edge become vacuous instead of
spuriously false.  Results carry a stability report across growing radii
and are surrogates, not proofs; they are labeled as such everywhere.

Formulas are evaluated over a single relation symbol whose first two
argument places are read through the order; a third place, when present,
is ignored, matching the convention that the ternary atom does not depend
on its last coordinate; an atom with fewer than two places is refused
before any work (PreconditionError).  Each atom is cut to those two
places once per formula, so a step of models' satisfaction plan that
reads a third variable only there runs a level lower (see models).
Evaluation runs that plan with one leaf hook, which gives these atoms and
the diagonals over the space of their level, and, for each quantifier
depth, the run of values its variable may take.  Each unordered pair of
coordinates costs one strict-order atom (spaces.strictly_below, which
builds no diagonal) and, when the other order or an `Eq` leaf asks for
it, one diagonal, both kept for the call: the other order is what is
neither below nor equal.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import PreconditionError
from .formulas import (
    Atom,
    Eq,
    Exists,
    Forall,
    Formula,
    Not,
    format_formula,
    max_var_index,
    quantifier_depth,
)
from .library import close_universally
from .models import satisfaction_bits
from .spaces import Element, TupleSpace, diag, strictly_below


@dataclass(frozen=True)
class WindowModel:
    """Radius, quantifier margin, and the set of reflexive fixed points."""

    radius: int
    margin: int
    fixed: tuple[int, ...]

    def __post_init__(self):
        if self.radius < 1 or self.margin < 1:
            raise ValueError("radius and margin must be positive")
        lo, hi = -self.radius + self.margin, self.radius - self.margin
        if self.fixed and lo > hi:
            raise ValueError(f"margin {self.margin} leaves no room inside radius {self.radius}")
        bad = [c for c in self.fixed if not lo <= c <= hi]
        if bad:
            raise ValueError(
                f"fixed points {bad} fall outside the margin interval [{lo}, {hi}]"
            )

    def related(self, a: int, b: int) -> bool:
        return a < b or (a == b and a in self.fixed)

    def carrier(self, radius: int | None = None) -> list[int]:
        w = self.radius if radius is None else radius
        return list(range(-w, w + 1))


@dataclass
class WindowReport:
    value: bool
    stable: bool
    by_radius: dict[int, bool]
    note: str = field(
        default="window surrogate: margin-bounded quantifiers, not a proof"
    )


def _relation(space: TupleSpace, model: WindowModel, radius: int, a: int, b: int,
              known: dict) -> int:
    """Bits of the assignments s with s_a related to s_b.  `known` keeps the
    strict order atoms and the diagonals of the space (see `_below`)."""
    if a == b:
        bits = 0
        for c in model.fixed:
            bits |= space.digit_mask(a, c + radius)
        return bits
    bits = _below(space, a, b, known)
    for c in model.fixed:
        bits |= space.digit_mask(a, c + radius) & space.digit_mask(b, c + radius)
    return bits


def _below(space: TupleSpace, a: int, b: int, known: dict) -> int:
    """Bits of {s : s_a < s_b} for a != b, built once per unordered pair
    and kept in `known` under ("<", a, b) with a < b: for a > b they are
    the tuples neither below nor on the diagonal."""
    if a > b:
        return space.full_mask ^ _below(space, b, a, known) ^ _diagonal(space, a, b, known)
    bits = known.get(("<", a, b))
    if bits is None:
        bits = known[("<", a, b)] = strictly_below(space, a, b)
    return bits


def _diagonal(space: TupleSpace, i: int, j: int, known: dict) -> int:
    """Bits of diag(i, j), kept in `known` under ("=", min, max) of i, j."""
    key = ("=", i, j) if i <= j else ("=", j, i)
    bits = known.get(key)
    if bits is None:
        bits = known[key] = diag(space, i, j).bits
    return bits


def _window_space(f: Formula, radius: int) -> TupleSpace:
    """The assignment space at one radius; raises CapacityError past the budget."""
    return TupleSpace(2 * radius + 1, max(max_var_index(f) + 1, 1))


@lru_cache(maxsize=None)
def _pairs_read(f: Formula) -> Formula:
    """f with each atom cut to its first two places, the ones the order
    reads, so that a place past them is not a free variable of the atom.
    Raises PreconditionError for an atom with fewer places."""
    def walk(g):
        if isinstance(g, Atom):
            if len(g.args) < 2:
                raise PreconditionError(
                    f"window reads the first two places of every atom, and "
                    f"{format_formula(g)} has {len(g.args)}"
                )
            return Atom(g.rel, g.args[:2])
        if isinstance(g, Eq):
            return g
        if isinstance(g, Not):
            return Not(walk(g.body))
        if isinstance(g, (Exists, Forall)):
            return type(g)(g.var, walk(g.body))
        return type(g)(walk(g.left), walk(g.right))

    return walk(f)


def window_satisfaction(model: WindowModel, f: Formula, radius: int) -> Element:
    """Satisfaction bitset at one radius, margin ranges applied per depth."""
    pairs = _pairs_read(f)
    depth = quantifier_depth(f)
    if depth * model.margin >= radius:
        raise PreconditionError(
            f"quantifier depth {depth} exceeds the radius-{radius} margin budget"
        )
    space = _window_space(f, radius)
    known: dict[int, dict] = {}  # by level: its order atoms and diagonals

    def leaf(g, level: TupleSpace) -> int:
        kept = known.setdefault(level.dimension, {})
        if isinstance(g, Eq):
            return _diagonal(level, g.left, g.right, kept)
        return _relation(level, model, radius, g.args[0], g.args[1], kept)

    def allowed(depth_now: int, var: int) -> range:
        reach = radius - depth_now * model.margin
        return range(radius - reach, radius + reach + 1)  # as indices

    return Element(space, satisfaction_bits(space, pairs, leaf, allowed))


def eval_window(model: WindowModel, f: Formula, radii=None) -> WindowReport:
    """Truth at the model's radius plus a stability flag across larger radii.

    Open formulas are universally closed first; the closing quantifiers
    count toward the nesting depth like any others.
    """
    closed = close_universally(f)
    if radii is None:
        radii = (model.radius, 2 * model.radius, 4 * model.radius)
    _pairs_read(closed)  # fail on an atom the order cannot read,
    _window_space(closed, max(radii))  # and on capacity, before any work
    by_radius = {}
    for r in radii:
        sat = window_satisfaction(model, closed, r)
        if sat.bits not in (0, sat.space.full_mask):
            raise AssertionError(
                f"closed formula produced a mixed satisfaction set: "
                f"{format_formula(closed)}"
            )
        by_radius[r] = sat.is_full()
    value = by_radius[radii[0]]
    stable = len(set(by_radius.values())) == 1
    return WindowReport(value=value, stable=stable, by_radius=by_radius)
