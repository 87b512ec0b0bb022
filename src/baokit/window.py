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
before any work (PreconditionError).  Once per formula, and kept on it
(see formulas.memo), each atom is cut to those two places, so a step of
models' plan that reads a third variable only there runs a level lower,
and each quantifier at depth k on a variable v its body reads is
relativized by a guard atom In_k(v) (see `_guarded`).  A guard names a
depth, not a reach, so one plan serves every radius and margin, on the
plain kernels of the operator table of its base size (see models).  One
leaf hook gives every input over the space of its level, each grown from
seeds over its own coordinates: an order atom is the strict order
(spaces.strictly_below, either way round) ORed with the diagonal at the
fixed points (spaces.diagonal_at), a guard In_k(v) the points within
W - k*M, one block of v's values at the top of its level, and an `Eq`
leaf the diagonal.  The table keeps the orders, guards and diagonals in
its `leaves`, keyed by kind and ints alone, so each is built once per
table whatever model or formula asks for it; the fixed points, which
differ by model, are ORed in on each call.  A fixed point outside the
window of a radius is refused (PreconditionError) before any leaf is
built.
"""

from dataclasses import dataclass, field

from .errors import InputError, PreconditionError
from .formulas import (
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    format_formula,
    max_var_index,
    memo,
    parts,
    postorder,
    quantifier_depth,
    rebuilt,
)
from .library import close_universally
from .models import operator_table, plan_bits, satisfaction_bits
from .spaces import Element, TupleSpace, diag, diagonal_at, space_size, strictly_below


@dataclass(frozen=True)
class WindowModel:
    """Radius, quantifier margin, and the set of reflexive fixed points."""

    radius: int
    margin: int
    fixed: tuple[int, ...]

    def __post_init__(self):
        if self.radius < 1 or self.margin < 1:
            raise InputError("radius and margin must be positive")
        lo, hi = -self.radius + self.margin, self.radius - self.margin
        if self.fixed and lo > hi:
            raise InputError(f"margin {self.margin} leaves no room inside radius {self.radius}")
        bad = [c for c in self.fixed if not lo <= c <= hi]
        if bad:
            raise InputError(
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
              order: int) -> int:
    """Bits of the assignments s with s_a related to s_b: the strict order,
    `order`, which is strictly_below(space, a, b), and, at the fixed points,
    s_a = s_b."""
    if not model.fixed:
        return order
    return order | diagonal_at(space, a, b, [c + radius for c in model.fixed])


def _check_fixed(model: WindowModel, radius: int) -> None:
    """Refuse a fixed point that the window of this radius does not hold."""
    for c in model.fixed:
        if not -radius <= c <= radius:
            raise PreconditionError(
                f"fixed point {c} lies outside the radius-{radius} window [{-radius}, {radius}]"
            )


_IN = "In#"  # the guards' relation names, In#k for depth k; the parser makes no such name


@memo
def _guarded(f: Formula) -> Formula:
    """f as the plan reads it in a window, kept on f: each atom cut to its
    first two places, the ones the order reads, so that a place past them
    is not a free variable of the atom, and each quantifier at depth k
    (counted from the root, outermost 1, vacuous quantifiers too) whose
    variable v is free in its body relativized by the guard In_k(v), an
    atom named _IN + str(k): ex v (In_k(v) & phi), all v (In_k(v) -> phi).
    A guard names the depth, not the reach, so one guarded formula and one
    plan serve every radius and margin.  Raises PreconditionError for an
    atom with fewer than two places.  The walk is `formulas.postorder`,
    over pairs of a subformula and its depth."""
    out = {}

    def children(item) -> list:
        g, depth = item
        inner = depth + isinstance(g, (Exists, Forall))
        return [(part, inner) for part in parts(g)]

    for item in postorder((f, 0), children):
        g, depth = item
        if isinstance(g, Atom):
            if len(g.args) < 2:
                raise PreconditionError(
                    f"window reads the first two places of every atom, and "
                    f"{format_formula(g)} has {len(g.args)}"
                )
            out[item] = Atom(g.rel, g.args[:2])
        elif isinstance(g, Eq):
            out[item] = g
        else:
            new = {part: out[child] for part, child in zip(parts(g), children(item))}
            if isinstance(g, (Exists, Forall)) and g.var in new[g.body].free:
                guard = Atom(_IN + str(depth + 1), (g.var,))
                new[g.body] = (And if isinstance(g, Exists) else Implies)(guard, new[g.body])
            out[item] = rebuilt(g, new)
    return out[f, 0]


def window_satisfaction(model: WindowModel, f: Formula, radius: int) -> Element:
    """Satisfaction bitset at one radius, margin ranges applied per depth."""
    space, guarded, leaf, _ = _window(model, f, radius)
    return Element(space, satisfaction_bits(space, guarded, leaf))


def _window(model: WindowModel, f: Formula, radius: int) -> tuple:
    """The plan's arguments for f at this radius, after the depth and fixed
    point checks: the space of f's variables, f guarded (see `_guarded`),
    the leaf hook and the operator table of the radius's base size."""
    guarded = _guarded(f)
    depth = quantifier_depth(f)
    if depth * model.margin >= radius:
        raise PreconditionError(
            f"quantifier depth {depth} exceeds the radius-{radius} margin budget"
        )
    _check_fixed(model, radius)
    u = 2 * radius + 1
    table = operator_table(u)
    space = table.space(max(max_var_index(f) + 1, 1))
    leaves = table.leaves

    def leaf(g, level: TupleSpace) -> int:  # kept on the table, made on first use
        if isinstance(g, Eq):
            kind, i, j = "=", g.left, g.right
        elif len(g.args) == 2:
            kind, (i, j) = "<", g.args
        else:  # In_k(v): the values k*margin .. u-1 - k*margin, those within radius - k*margin
            kind, i, j = "in", int(g.rel[len(_IN):]) * model.margin, g.args[0]
        key = (kind, i, j, level.dimension)
        bits = leaves.get(key)
        if bits is None:
            if kind == "=":
                bits = diag(level, i, j).bits
            elif kind == "<":
                bits = strictly_below(level, i, j)
            else:  # v is the top coordinate of its level, so they are one block
                stride = level.size // u
                bits = (1 << (u - i) * stride) - (1 << i * stride)
            leaves[key] = bits
        return _relation(level, model, radius, i, j, bits) if kind == "<" else bits

    return space, guarded, leaf, table


def eval_window(model: WindowModel, f: Formula, radii=None) -> WindowReport:
    """Truth at the model's radius plus a stability flag across larger radii.

    Open formulas are universally closed first; the closing quantifiers
    count toward the nesting depth like any others.  A closed formula's
    value is read at its plan level, with no lift to the whole space.
    """
    closed = close_universally(f)
    if radii is None:
        radii = (model.radius, 2 * model.radius, 4 * model.radius)
    _guarded(closed)  # fail on an atom the order cannot read, on capacity,
    space_size(2 * max(radii) + 1, max(max_var_index(closed) + 1, 1))
    _check_fixed(model, min(radii))  # and on a fixed point out of a window, before any work
    by_radius = {}
    for r in radii:
        space, guarded, leaf, table = _window(model, closed, r)
        bits, level = plan_bits(space, guarded, leaf, table)
        if bits not in (0, table.space(level).full_mask):
            raise AssertionError(
                f"closed formula produced a mixed satisfaction set: "
                f"{format_formula(closed)}"
            )
        by_radius[r] = bits != 0
    value = by_radius[radii[0]]
    stable = len(set(by_radius.values())) == 1
    return WindowReport(value=value, stable=stable, by_radius=by_radius)
