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
on its last coordinate.  Evaluation runs models' bitset walker with these
atoms and a mask of the allowed digit range for each quantifier depth.
"""

from dataclasses import dataclass, field
from itertools import product

from .errors import CapacityError, PreconditionError
from .formulas import Formula, format_formula, max_var_index, quantifier_depth
from .library import close_universally
from .models import ModelFinite, satisfaction_bits
from .spaces import Element, TupleSpace


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

    def as_model(self, radius: int | None = None, arity: int = 3) -> ModelFinite:
        """An explicit finite model of the window, mostly for cross-checks."""
        points = self.carrier(radius)
        if len(points) ** arity > 1 << 22:
            raise CapacityError("window too large to materialize as a table")
        rows = [
            row
            for row in product(points, repeat=arity)
            if self.related(row[0], row[1])
        ]
        return ModelFinite(points, {"R": rows})


@dataclass
class WindowReport:
    value: bool
    stable: bool
    by_radius: dict[int, bool]
    note: str = field(
        default="window surrogate: margin-bounded quantifiers, not a proof"
    )


def _relation_element(space: TupleSpace, model: WindowModel, radius: int,
                      a: int, b: int, cache: dict) -> Element:
    """Bitset of assignments s with s_a related to s_b."""
    key = (a, b)
    got = cache.get(key)
    if got is not None:
        return got
    if a == b:
        bits = 0
        for c in model.fixed:
            bits |= space.digit_mask(a, c + radius)
    else:
        bits = 0
        below = 0
        for value in range(space.base_size):
            bits |= space.digit_mask(b, value) & below
            below |= space.digit_mask(a, value)
        for c in model.fixed:
            bits |= space.digit_mask(a, c + radius) & space.digit_mask(b, c + radius)
    out = Element(space, bits)
    cache[key] = out
    return out


def _window_space(f: Formula, radius: int) -> TupleSpace:
    """The assignment space at one radius; raises CapacityError past the budget."""
    return TupleSpace(2 * radius + 1, max(max_var_index(f) + 1, 1))


def window_satisfaction(model: WindowModel, f: Formula, radius: int) -> Element:
    """Satisfaction bitset at one radius, margin ranges applied per depth."""
    depth = quantifier_depth(f)
    if depth * model.margin >= radius:
        raise PreconditionError(
            f"quantifier depth {depth} exceeds the radius-{radius} margin budget"
        )
    space = _window_space(f, radius)
    rel_cache: dict = {}

    def atom(g) -> Element:
        return _relation_element(space, model, radius, g.args[0], g.args[1], rel_cache)

    # rebuilt per quantifier: caching these full-width masks raised the
    # peak memory of a radius-64 window by about a fifth
    def allowed(depth_now: int, var: int) -> Element:
        reach = radius - depth_now * model.margin
        values = range(radius - reach, radius + reach + 1)  # as indices
        return Element(space, space.digit_range_mask(var, values))

    return satisfaction_bits(space, f, atom, allowed)


def eval_window(model: WindowModel, f: Formula, radii=None) -> WindowReport:
    """Truth at the model's radius plus a stability flag across larger radii.

    Open formulas are universally closed first; the closing quantifiers
    count toward the nesting depth like any others.
    """
    closed = close_universally(f)
    if radii is None:
        radii = (model.radius, 2 * model.radius, 4 * model.radius)
    _window_space(closed, max(radii))  # fail on capacity before any work
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
