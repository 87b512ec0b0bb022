"""The formula plan that `baokit.models` replaced, kept as the oracle of the
plan whose steps run at their levels.

Here every step of the plan runs on the whole space: an atom or diagonal
is a bitset over all of it, each quantifier, vacuous or not, is the
cylindrification of its variable over the whole space, and the leaf hook
`leaf(g)` is asked for bits over `space`.  A quantifier may range over a
run of values per depth, as a window's quantifiers do, by the full-width
fold relativized to the run (tests/doubling_kernels.py, which checks the
run).  `relativized` and `guarded_leaf` give the same runs to the plan of
`baokit.models` as `baokit.window` gives its own: by guard atoms in the
formula.
"""

from array import array
from functools import lru_cache

from baokit.formulas import And, Atom, Eq, Exists, Forall, Iff, Implies, Not, Or, parts, postorder
from baokit.formulas import rebuilt
from baokit.spaces import Operators, TupleSpace, diag, relation_bits
from baokit.terms import Layout
from doubling_kernels import cylinder


def satisfaction_bits(space: TupleSpace, f, leaf, quantifier_range=None) -> int:
    """The bits of the satisfaction set of `f` over `space`; `leaf(g)` gives
    the bits over `space` of each distinct atom and diagonal, and
    `quantifier_range(depth, v)` the run of a quantifier's values."""
    plan = _plan(f, quantifier_range is not None)
    binding = plan.bind(_Operators(space, quantifier_range))
    return plan.run(binding, [leaf(g) for g in plan.variables])


def satisfaction_set_bits(model, f, n: int) -> int:
    """The bits of `models.satisfaction_set(model, f, n)`, on the whole space."""
    space = TupleSpace(model.carrier_size, n)

    def leaf(g) -> int:
        if isinstance(g, Atom):
            return relation_bits(space, g.args, model.relations[g.rel])
        return diag(space, g.left, g.right).bits

    return satisfaction_bits(space, f, leaf)


_CONNECTIVES = {Not: "not", And: "and", Or: "or", Implies: "impl", Iff: "iff"}


@lru_cache(maxsize=None)
def _plan(f, ranged: bool) -> Layout:
    """The plan of f: its distinct atoms and diagonals as inputs,
    connectives ("not", ()), ... and quantifiers ("ex" | "all", (var,
    depth)) as steps, a repeated subformula computed once."""
    leaves: dict = {}
    steps: dict = {}
    ops: dict = {}
    kinds, operands = array("l"), []

    def laid_out(g, depth):
        if isinstance(g, Atom):
            return ~leaves.setdefault(g, len(leaves))
        if isinstance(g, Eq):
            diagonal = g if g.left <= g.right else Eq(g.right, g.left)
            return ~leaves.setdefault(diagonal, len(leaves))
        return steps.get((g, depth))

    stack = [(f, 0)]
    while stack:
        g, depth = stack[-1]
        if laid_out(g, depth) is not None:
            stack.pop()
            continue
        if isinstance(g, (Exists, Forall)):
            children = [(g.body, depth + ranged)]
            op = ("ex" if isinstance(g, Exists) else "all", (g.var, depth + ranged))
        else:
            parts = [g.body] if isinstance(g, Not) else [g.left, g.right]
            children = [(part, depth) for part in parts]
            op = (_CONNECTIVES[type(g)], ())
        nodes = []
        for child in children:
            node = laid_out(*child)
            if node is None:
                break
            nodes.append(node)
        if len(nodes) < len(children):
            stack.append(child)
            continue
        stack.pop()
        steps[(g, depth)] = len(operands)
        kinds.append(ops.setdefault(op, len(ops)))
        operands.append(nodes)
    return Layout(tuple(leaves), (), tuple(ops), kinds, operands, laid_out(f, 0))


class _Operators(Operators):
    """The connectives over the whole space, and each quantifier as the
    cylindrification of its variable, relativized when ranges are given."""

    def __init__(self, space: TupleSpace, quantifier_range):
        super().__init__(space.full_mask)
        self.space = space
        self.quantifier_range = quantifier_range

    def make(self, op):
        name, (var, depth) = op
        ranged = self.quantifier_range
        exists = cylinder(self.space, var, None if ranged is None else ranged(depth, var))
        if name == "ex":
            return exists
        full = self.full
        return lambda x, _: full ^ exists(full ^ x)


GUARD = "Run#"  # Run#k(v): v lies in the run of depth k; no model here has the name


def relativized(f):
    """f with each quantifier at depth k (outermost 1, vacuous ones too) on
    a variable v its body reads guarded by the atom Run#k(v): ex v (Run#k(v)
    & phi), all v (Run#k(v) -> phi)."""
    out = {}

    def children(item) -> list:
        g, depth = item
        inner = depth + isinstance(g, (Exists, Forall))
        return [(part, inner) for part in parts(g)]

    for item in postorder((f, 0), children):
        g, depth = item
        new = {part: out[child] for part, child in zip(parts(g), children(item))}
        if isinstance(g, (Exists, Forall)) and g.var in g.body.free:
            guard = Atom(GUARD + str(depth + 1), (g.var,))
            new[g.body] = (And if isinstance(g, Exists) else Implies)(guard, new[g.body])
        out[item] = rebuilt(g, new) if new else g
    return out[f, 0]


def guarded_leaf(leaf, quantifier_range):
    """`leaf(g, level)` with the guards of `relativized` added: Run#k(v) is
    the tuples of the level whose v lies in quantifier_range(k, v)."""

    def guarded(g, level) -> int:
        if isinstance(g, Atom) and g.rel.startswith(GUARD):
            (v,) = g.args
            run = quantifier_range(int(g.rel[len(GUARD):]), v)
            return relation_bits(level, (v,), [(t,) for t in run])
        return leaf(g, level)

    return guarded
