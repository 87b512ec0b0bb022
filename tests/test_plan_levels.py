"""The formula plan whose steps run at their levels, against the full-width
plan it replaced (tests/full_width_plan.py), on random formulas and models
and on the window's library formulas.  Quantifiers that range over a run
of values per depth are relativized in the formula by guard atoms, as the
window relativizes its quantifiers, and checked against the full-width
plan whose folds take the runs themselves."""

from itertools import product as iproduct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import full_width_plan as fw
from baokit import (
    ModelFinite,
    PreconditionError,
    TupleSpace,
    Vocabulary,
    WindowModel,
    diag,
    parse_formula,
)
from baokit.formulas import And, Atom, Eq, Exists, Forall, Iff, Implies, Not, Or
from baokit.formulas import free_vars, max_var_index, quantifier_depth
from baokit.library import close_universally, formula_library
from baokit.models import _plan, satisfaction_bits, satisfaction_set
from baokit.spaces import relation_bits, strictly_below
from baokit.window import _guarded, _relation, eval_window, window_satisfaction

VOCABULARY = Vocabulary.of(R=2, P=1, T=3, Z=0)


def closed_under(quantifiers, ascending: bool, g):
    """g with each free variable bound, the lowest innermost when
    `ascending`, the quantifiers taken in turn from `quantifiers`."""
    for k, v in enumerate(sorted(free_vars(g), reverse=not ascending)):
        g = quantifiers[k % len(quantifiers)](v, g)
    return g


def formulas(n: int):
    """Formulas in v0 .. v(n-1) over VOCABULARY, each atom with 0 to 4
    arguments whatever its arity, with every connective, both quantifiers
    on any variable (so often vacuous), and closed subformulas, bound in
    either order (so the top coordinate or a lower one goes first)."""
    var = st.integers(0, n - 1)
    leaves = st.one_of(
        st.builds(Atom, st.sampled_from("RPTZ"), st.lists(var, max_size=4).map(tuple)),
        st.builds(Eq, var, var),
    )
    quantifier = st.sampled_from([Exists, Forall])

    def extend(sub):
        return st.one_of(
            st.builds(Not, sub),
            *(st.builds(op, sub, sub) for op in (And, Or, Implies, Iff)),
            st.builds(lambda q, v, body: q(v, body), quantifier, var, sub),
            st.builds(closed_under, st.lists(quantifier, min_size=1, max_size=3),
                      st.booleans(), sub),
        )

    return st.recursive(leaves, extend, max_leaves=7)


FORMULAS = {n: formulas(n) for n in (1, 2, 3)}


@st.composite
def cases(draw):
    """A formula, a model with u <= 4 and n <= 3, and, two times in three,
    a nonempty run of values for each quantifier depth and variable."""
    u, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    f = draw(FORMULAS[n])
    points = st.integers(0, u - 1)
    relations = {
        name: draw(st.lists(st.tuples(*[points] * arity), max_size=3 * arity + 1))
        for name, arity in VOCABULARY.relations
    }
    model = ModelFinite(list(range(u)), relations, VOCABULARY)
    ranges = None
    if draw(st.integers(0, 2)):
        ranges = {}
        for key in iproduct(range(1, quantifier_depth(f) + 1), range(n)):
            lo = draw(points)
            ranges[key] = range(lo, draw(st.integers(lo + 1, u)))
    return f, model, n, ranges


def check_against_full_width(f, model, n, ranges):
    """satisfaction_set, or satisfaction_bits of f relativized to the drawn
    ranges, equals the full-width plan on the same leaves, its quantifiers
    ranging over those runs."""
    if ranges is None:
        assert satisfaction_set(model, f, n).bits == fw.satisfaction_set_bits(model, f, n), f
        return
    space = TupleSpace(model.carrier_size, n)

    def leaf(g, level) -> int:
        if isinstance(g, Atom):
            return relation_bits(level, g.args, model.relations[g.rel])
        return diag(level, g.left, g.right).bits

    def full_leaf(g) -> int:
        return leaf(g, space)

    def quantifier_range(depth, var):
        return ranges[depth, var]

    got = satisfaction_bits(space, fw.relativized(f), fw.guarded_leaf(leaf, quantifier_range))
    assert got == fw.satisfaction_bits(space, f, full_leaf, quantifier_range), (f, ranges)


def _case(f, u, n, rows, ranged=False):
    f = parse_formula(f) if isinstance(f, str) else f
    model = ModelFinite(list(range(u)), rows, VOCABULARY)
    ranges = None
    if ranged:  # leave out the value 0 at every depth
        ranges = {key: range(1, u) for key in iproduct(range(1, 9), range(n))}
    return f, model, n, ranges


ORDER = {"R": [(0, 1), (1, 2), (0, 2)], "P": [(1,)], "T": [(0, 1, 1), (2, 0, 0)], "Z": [()]}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=cases())
# a closed subformula, folded to one bit, fills level 1
@example(case=_case("ex v0 ex v1 (v0 != v1 & R(v0,v1))", 3, 2, ORDER))
@example(case=_case("!(ex v0 ex v1 (v0 != v1 & R(v0,v1))) | P(v0)", 3, 2, ORDER))
@example(case=_case("all v0 ex v1 (v0 != v1) & P(v1)", 3, 2, ORDER))
@example(case=_case("ex v0 ex v1 v0 != v1", 1, 3, {}))
# a fold on the top coordinate onto a lower level, then a higher level again
@example(case=_case("ex v2 T(v0,v2,v2) & R(v0,v1)", 3, 3, ORDER))
@example(case=_case("all v2 (T(v0,v2,v0) -> v2 = v0) <-> R(v1,v2)", 3, 3, ORDER, True))
# vacuous quantifiers, relativized or not
@example(case=_case("all v1 P(v0) & ex v2 ex v2 R(v0,v1)", 3, 3, ORDER))
@example(case=_case(Exists(2, Exists(0, Or(parse_formula("R(v0,v1)"), Forall(2, Atom("Z", ()))))),
                    3, 3, ORDER, True))
# atoms whose argument count differs from their relation's arity
@example(case=_case(Or(parse_formula("R(v0,v1,v2) | T(v1) | Z(v2)"), Atom("P", ())), 3, 3, ORDER))
@example(case=_case("ex v1 T(v0,v1) & all v0 R(v0)", 3, 2, ORDER, True))
def test_levels_match_the_full_width_plan(case):
    check_against_full_width(*case)


def test_vacuous_quantifiers_leave_the_plan():
    plan = _plan(parse_formula("ex v2 all v1 R(v0,v0)"))
    assert len(plan.kinds) == 0 and plan.levels == (1,) and plan.level == 1
    plan = _plan(parse_formula("ex v0 ex v1 R(v0,v1) & P(v2)"))
    # the fold of v1 onto level 1, the fill of level 1 by v0, the lift to 3
    assert plan.ops == (("ex", (1, 2, 1)), ("ex", (0, 1, 1)), ("and", (1, 3)))
    assert plan.levels == (2, 3) and plan.level == 3


def test_the_window_reads_two_places_of_each_atom():
    # ax after the cut: 8 of its 15 quantifiers are vacuous, the other 7
    # are guarded, one step each, and 6 of the 30 steps run on u**3 bits,
    # the guard of the one quantifier on v2 among them, the rest on u**2 or u
    ax = formula_library()["ax"].formula
    plan = _plan(_guarded(ax))
    levels = [op[1][1] if op[0] in ("ex", "all") else max(op[1]) for op in plan.ops]
    by_step = [levels[kind] for kind in plan.kinds]
    assert len(fw._plan(ax, True).kinds) == 31
    assert len(by_step) == 30 and by_step.count(3) == 6 and plan.level == 1
    guards = [g for g in plan.variables if isinstance(g, Atom) and len(g.args) == 1]
    assert len(guards) == 7 and all(len(g.args) == 2 for g in plan.variables
                                    if isinstance(g, Atom) and g not in guards)


def full_width_window(model: WindowModel, f, radius: int) -> int:
    """window_satisfaction on the full-width plan, atoms R(a, b, c) kept."""
    space = TupleSpace(2 * radius + 1, max(max_var_index(f) + 1, 1))

    def leaf(g) -> int:
        if isinstance(g, Eq):
            return diag(space, g.left, g.right).bits
        a, b = g.args[0], g.args[1]
        return _relation(space, model, radius, a, b, strictly_below(space, a, b))

    def allowed(depth_now, var):
        reach = radius - depth_now * model.margin
        return range(radius - reach, radius + reach + 1)

    return fw.satisfaction_bits(space, f, leaf, allowed)


LIBRARY = formula_library()


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_window_matches_the_full_width_plan_on_the_library(name):
    """window_satisfaction, of f and of its closure, and eval_window's
    verdict on the closure equal the full-width plan whose quantifiers fold
    the runs of their depths themselves, at radii 4 to 64, margins 1 to 3
    and the fixed sets {}, {0}, {0, 1} and, at margin 1, the edges of the
    window.  Radius 64 takes each margin with one fixed set, {} at 1, {0}
    at 2 and {0, 1} at 3, and the closed form alone."""
    f = LIBRARY[name].formula
    if name == "lambda":  # unary atoms: no second place for the order
        with pytest.raises(PreconditionError, match=r"zero\(v2\) has 1"):
            window_satisfaction(WindowModel(8, 1, ()), f, 8)
        with pytest.raises(IndexError):
            full_width_window(WindowModel(8, 1, ()), f, 8)
        return
    closed = close_universally(f)
    for radius, margin in iproduct((4, 8, 13, 21, 64), (1, 2, 3)):
        if quantifier_depth(closed) * margin >= radius:
            continue
        inner = radius - margin
        edges = [(-inner, 0, 5, inner)] if margin == 1 and radius > 5 else []
        for k, fixed in enumerate([(), (0,), (0, 1)] + edges, 1):
            if radius == 64 and k != margin:
                continue
            model = WindowModel(radius, margin, fixed)
            want = full_width_window(model, closed, radius)
            assert window_satisfaction(model, closed, radius).bits == want
            full = TupleSpace(2 * radius + 1, max(max_var_index(closed) + 1, 1)).full_mask
            verdict = eval_window(model, closed, (radius,)).by_radius[radius]
            assert verdict == (want == full), (name, radius, margin, fixed)
            if radius < 64:
                got = window_satisfaction(model, f, radius).bits
                assert got == full_width_window(model, f, radius), (name, radius, margin, fixed)
