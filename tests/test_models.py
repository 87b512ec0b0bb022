import random
from itertools import product as iproduct

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from baokit import (
    ModelFinite,
    SetAlgebra,
    UnboundVariableError,
    Vocabulary,
    cyl,
    free_vars,
    hf_universe,
    holds,
    parse_formula,
    quantifier_depth,
    satisfaction_set,
)
from baokit.formulas import And, Atom, Eq, Exists, Forall, Iff, Implies, Not, Or


def order_model(u=3):
    return ModelFinite(list(range(u)), {"R": [(a, b) for a in range(u) for b in range(u) if a < b]})


def test_satisfaction_matches_order_generator():
    m = order_model()
    amb = SetAlgebra("CA", 3, 3)
    x = amb.element([s for s in amb.space.tuples() if s[0] < s[1]])
    sat = satisfaction_set(m, parse_formula("R(v0,v1)"), 3)
    assert sat.bits == x.bits


def test_satisfaction_trivial_equality():
    m = order_model()
    sat = satisfaction_set(m, parse_formula("v0 = v0"), 2)
    assert sat.is_full()


def test_satisfaction_exists_matches_cyl():
    m = order_model()
    amb = SetAlgebra("CA", 3, 3)
    x = amb.element([s for s in amb.space.tuples() if s[0] < s[1]])
    sat = satisfaction_set(m, parse_formula("ex v0 R(v0,v1)"), 3)
    assert sat.bits == cyl(0, x).bits
    expected = amb.element([s for s in amb.space.tuples() if s[1] >= 1])
    assert sat.bits == expected.bits


def test_variable_budget_enforced():
    m = order_model()
    with pytest.raises(UnboundVariableError):
        satisfaction_set(m, parse_formula("R(v0,v3)"), 3)


def test_holds_agrees_with_satisfaction_exhaustively():
    rng = random.Random(21)
    formulas = [
        parse_formula(t)
        for t in (
            "R(v0,v1)",
            "ex v2 (R(v0,v2) & R(v2,v1))",
            "all v1 (R(v0,v1) -> ex v2 R(v1,v2))",
            "v0 = v1 | R(v1,v0)",
        )
    ]
    for u in (1, 2, 3):
        pairs = list(iproduct(range(u), repeat=2))
        for _ in range(8):
            table = [p for p in pairs if rng.random() < 0.5]
            m = ModelFinite(list(range(u)), {"R": table})
            for f in formulas:
                sat = satisfaction_set(m, f, 3)
                for s in sat.space.tuples():
                    direct = holds(m, f, dict(enumerate(s)))
                    assert direct == bool((sat.bits >> sat.space.encode(s)) & 1)


def test_holds_quantifier_domain_restriction():
    m = order_model(4)
    f = parse_formula("ex v1 R(v0,v1)")
    assert holds(m, f, {0: 2})
    assert not holds(m, f, {0: 2}, quantifier_domain=range(2))


def test_holds_unbound_variables_and_unknown_relations():
    m = order_model()
    for text in ("R(v0,v1)", "v0 = v1"):
        with pytest.raises(UnboundVariableError, match="v1 is unassigned"):
            holds(m, parse_formula(text), {0: 1})
    # checked up front, even where short-circuiting would skip the atom
    with pytest.raises(UnboundVariableError, match="v2 is unassigned"):
        holds(m, parse_formula("v0 = v0 | R(v0,v2)"), {0: 1})
    with pytest.raises(KeyError) as info:
        holds(m, parse_formula("S(v0,v1)"), {0: 1, 1: 2})
    assert not isinstance(info.value, UnboundVariableError)
    # the quantifier rebinds v0, then R(v0,v1) reads the caller's v0 again
    assignment = {0: 1, 1: 2}
    assert holds(m, parse_formula("ex v0 R(v1,v0) | R(v0,v1)"), assignment)
    assert assignment == {0: 1, 1: 2}


def walk(model, f, assignment, domain=None) -> bool:
    """The recursive tree walker `holds` replaced, kept as its oracle."""
    env = dict(assignment)
    domain = range(model.carrier_size) if domain is None else domain

    def ev(g) -> bool:
        if isinstance(g, Atom):
            return model.rel_holds(g.rel, tuple(env[a] for a in g.args))
        if isinstance(g, Eq):
            return env[g.left] == env[g.right]
        if isinstance(g, Not):
            return not ev(g.body)
        if isinstance(g, And):
            return ev(g.left) and ev(g.right)
        if isinstance(g, Or):
            return ev(g.left) or ev(g.right)
        if isinstance(g, Implies):
            return not ev(g.left) or ev(g.right)
        if isinstance(g, Iff):
            return ev(g.left) == ev(g.right)
        want = isinstance(g, Exists)
        old = env.get(g.var)
        result = not want
        for value in domain:
            env[g.var] = value
            if ev(g.body) == want:
                result = want
                break
        if old is None:
            env.pop(g.var, None)
        else:
            env[g.var] = old
        return result

    return ev(f)


class HF3:
    """hf_universe(3) with R read as membership and P as nonemptiness."""

    universe = hf_universe(3)
    carrier_size = universe.size

    def rel_holds(self, name, row):
        return row[0] != 0 if name == "P" else self.universe.rel_holds("E", row)


VARS = st.integers(0, 3)
FORMULAS = st.recursive(
    st.one_of(
        st.builds(lambda a, b: Atom("R", (a, b)), VARS, VARS),
        st.builds(lambda a: Atom("P", (a,)), VARS),
        st.builds(Eq, VARS, VARS),
    ),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        *(st.builds(op, sub, sub) for op in (And, Or, Implies, Iff)),
        *(st.builds(q, VARS, sub) for q in (Exists, Forall)),
    ),
    max_leaves=6,
)


@st.composite
def worlds(draw):
    """A model and a quantifier domain: None or any subset of the carrier."""
    u = draw(st.sampled_from([1, 2, 3, HF3.carrier_size]))
    if u == HF3.carrier_size:
        model = HF3()
    else:
        pairs = draw(st.sets(st.tuples(st.integers(0, u - 1), st.integers(0, u - 1))))
        points = draw(st.sets(st.integers(0, u - 1)))
        relations = {"R": pairs, "P": [(a,) for a in points]}
        model = ModelFinite(list(range(u)), relations, Vocabulary.of(R=2, P=1))
    domain = draw(st.none() | st.sets(st.integers(0, u - 1)).map(sorted))
    return model, domain


ORDER3 = (ModelFinite([0, 1, 2], {"R": [(0, 1), (1, 2)], "P": [(0,)]}), None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(f=FORMULAS, world=worlds())
# a quantifier rebinding a free variable, and one shadowing an outer one
@example(f=And(Exists(0, Atom("P", (0,))), Not(Atom("P", (0,)))), world=ORDER3)
@example(f=Exists(1, And(Forall(1, Atom("R", (0, 1))), Atom("R", (1, 0)))), world=ORDER3)
def test_compiled_holds_matches_recursive_walker(f, world):
    model, domain = world
    free = sorted(free_vars(f))
    width = model.carrier_size if domain is None else len(domain)
    assume(model.carrier_size ** len(free) * max(width, 1) ** quantifier_depth(f) <= 20_000)
    for values in iproduct(range(model.carrier_size), repeat=len(free)):
        assignment = dict(zip(free, values))
        got = holds(model, f, assignment, quantifier_domain=domain)
        assert got == walk(model, f, assignment, domain), (f, assignment, domain)


def test_json_roundtrip():
    m = order_model()
    back = ModelFinite.from_json(m.to_json())
    assert back.carrier == m.carrier
    assert back.relations == m.relations


def test_carrier_labels_must_be_unique():
    with pytest.raises(ValueError):
        ModelFinite([0, 0], {"E": []})
