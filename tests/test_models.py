import gc
import random
import time
import tracemalloc
import weakref
from collections import OrderedDict
from functools import reduce
from itertools import product as iproduct
from types import MappingProxyType, SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import full_width_plan as fw
from pointwise_source import pointwise
from baokit import (
    Element,
    ModelFinite,
    SetAlgebra,
    TupleSpace,
    UnboundVariableError,
    Vocabulary,
    cyl,
    diag,
    free_vars,
    hf_universe,
    holds,
    max_var_index,
    ordinal_hf,
    parse_formula,
    quantifier_depth,
    satisfaction_set,
)
from baokit.compiler import compiler_agrees
from baokit.formulas import And, Atom, Eq, Exists, Forall, Iff, Implies, Not, Or, conj, parts
from baokit.hf import HFUniverse
from baokit.library import formula_library
import baokit.models
from baokit.models import _domain_mask, _plan, satisfaction_bits, truth_set
from baokit.terms import Layout
from baokit.translate import tr, tr_equivalent_on
from baokit.window import WindowModel, window_satisfaction


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
            return bool(ev(g.left)) == bool(ev(g.right))
        want = isinstance(g, Exists)
        old = env.get(g.var)
        result = not want
        for value in domain:
            env[g.var] = value
            if bool(ev(g.body)) == want:
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


def on_sets(f):
    """f over membership, for a set universe: R(a,b) is E(a,b) and P(a) is
    E(a,a), which no set satisfies."""
    if isinstance(f, Atom):
        return Atom("E", f.args if f.rel == "R" else f.args * 2)
    if isinstance(f, Eq):
        return f
    if isinstance(f, Not):
        return Not(on_sets(f.body))
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, on_sets(f.body))
    return type(f)(on_sets(f.left), on_sets(f.right))


@st.composite
def worlds(draw):
    """A model and a quantifier domain.  The models: tuple tables on 1 to
    3 points and the rank-2 and rank-3 set universes, which have sections,
    and HF3, which has none.  The domain: None, a run of values, or a list
    of values in any order, repeated or empty."""
    model = draw(st.sampled_from([1, 2, 3, HF3(), hf_universe(2), hf_universe(3)]))
    if isinstance(model, int):
        u = model
        pairs = draw(st.sets(st.tuples(st.integers(0, u - 1), st.integers(0, u - 1))))
        points = draw(st.sets(st.integers(0, u - 1)))
        relations = {"R": pairs, "P": [(a,) for a in points]}
        model = ModelFinite(list(range(u)), relations, Vocabulary.of(R=2, P=1))
    ends = st.integers(0, model.carrier_size)
    domain = draw(
        st.none()
        | st.lists(st.integers(0, model.carrier_size - 1), max_size=5)
        | st.builds(lambda a, b: range(min(a, b), max(a, b)), ends, ends)
    )
    return model, domain


ORDER3 = (ModelFinite([0, 1, 2], {"R": [(0, 1), (1, 2)], "P": [(0,)]}), None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(f=FORMULAS, world=worlds())
# a quantifier rebinding a free variable, and one shadowing an outer one
@example(f=And(Exists(0, Atom("P", (0,))), Not(Atom("P", (0,)))), world=ORDER3)
@example(f=Exists(1, And(Forall(1, Atom("R", (0, 1))), Atom("R", (1, 0)))), world=ORDER3)
def test_compiled_holds_matches_recursive_walker(f, world):
    model, domain = world
    if isinstance(model, HFUniverse):
        f = on_sets(f)
    free = sorted(free_vars(f))
    width = model.carrier_size if domain is None else len(domain)
    assume(model.carrier_size ** len(free) * max(width, 1) ** quantifier_depth(f) <= 20_000)
    for values in iproduct(range(model.carrier_size), repeat=len(free)):
        assignment = dict(zip(free, values))
        got = holds(model, f, assignment, quantifier_domain=domain)
        assert got == walk(model, f, assignment, domain), (f, assignment, domain)


def test_json_roundtrip():
    empty = ModelFinite([0, 1], {"P": [], "E": [(0, 1)]}, Vocabulary.of(P=1, E=2))
    for m in (order_model(), empty):
        back = ModelFinite.from_json(m.to_json())
        assert back.carrier == m.carrier
        assert back.relations == m.relations
        assert back.vocabulary == m.vocabulary
    assert ModelFinite.from_json('{"carrier": [0], "relations": {"P": [[0]]}}').vocabulary == Vocabulary.of(P=1)


def test_a_formula_built_600_levels_deep_needs_no_recursion():
    def build():
        f = Atom("R", (0, 1))
        for i in range(300):
            f = Not(Exists(i % 2, f))
        return f

    f = build()
    assert hash(f) == hash(build()) and f == build()
    assert free_vars(f) == frozenset()
    assert max_var_index(f) == 1 and quantifier_depth(f) == 300
    shallow = Not(Exists(1, Not(Exists(0, Atom("R", (0, 1))))))  # the other 298 Nots cancel
    cycle = ModelFinite([0, 1, 2], {"R": [(0, 1), (1, 2), (2, 0)]})
    for model in (order_model(), cycle):
        assert satisfaction_set(model, f, 2) == satisfaction_set(model, shallow, 2)
    assert satisfaction_set(cycle, f, 2).is_full()
    # through holds: the sentence runs the pointwise program, and the chain
    # with v1 free reads a truth set on a model that keeps them
    chain = Atom("R", (0, 1))
    for _ in range(300):
        chain = Not(Exists(0, chain))
    for model in (order_model(), cycle):
        sentence, sat = satisfaction_set(model, f, 2), satisfaction_set(model, chain, 2)
        for evaluated in (model, view(model)):
            assert holds(evaluated, f, {}) == sentence.is_full()
            for t in range(model.carrier_size):
                want = sat.bits >> sat.space.encode((0, t)) & 1 == 1
                assert holds(evaluated, chain, {1: t}) == want, (model, t)


def test_carrier_labels_must_be_unique():
    with pytest.raises(ValueError):
        ModelFinite([0, 0], {"E": []})


def deep_formulas():
    """Formulas nested past what one Python expression may hold."""
    atoms = [Atom("R", (i % 3, (i + 1) % 3)) for i in range(250)]
    yield "250-atom conj", conj(atoms)
    not_chain = Atom("R", (0, 1))
    for _ in range(300):
        not_chain = Not(not_chain)
    yield "300-deep Not", not_chain
    yield "250-deep Or", reduce(lambda right, p: Or(p, right), reversed(atoms))
    mixed = Atom("P", (0,))
    for i in range(200):  # no two neighbours share a connective
        op = (Implies, Iff, And, Or)[i % 4]
        mixed = op(mixed, Not(atoms[i])) if i % 3 else op(atoms[i], mixed)
    yield "200-deep mixed", mixed
    body = Atom("R", (0, 1))
    for i in range(45):  # an innermost body 90 levels deep, one bitset
        body = (Iff, Or)[i % 2](Atom("R", (1 + i % 2, 0)), Not(body))
    yield "45-deep body of ex", Exists(0, body)
    body = Exists(2, And(Atom("R", (2, 0)), Atom("P", (2,))))
    for i in range(45):  # a loop of all over a body 45 levels deep
        body = (Implies, And, Or, Iff)[i % 4](Atom("R", (0, 1 + i % 2)), body)
    yield "45-deep walk of all", Forall(0, body)
    body = And(Atom("P", (0,)), Forall(2, Or(Atom("R", (0, 2)), Exists(1, Atom("R", (2, 1))))))
    for _ in range(300):
        body = Not(body)
    yield "300-deep Not in a walk of ex", Exists(0, body)


@pytest.mark.parametrize("name, f", list(deep_formulas()))
def test_deep_formulas_match_recursive_walker(name, f):
    model = ORDER3[0]
    for values in iproduct(range(3), repeat=3):
        assignment = dict(enumerate(values))
        assert holds(model, f, assignment) == walk(model, f, assignment), (name, values)


def test_shadowing_quantifier_restores_the_outer_variable():
    model = ORDER3[0]
    # v0 is bound by the quantifier, then read again outside it
    f = And(Exists(0, Atom("R", (1, 0))), Atom("R", (0, 1)))
    g = Or(Forall(0, Atom("R", (1, 0))), Atom("R", (0, 1)))
    nested = Exists(1, And(Forall(1, Atom("P", (1,))), Atom("R", (0, 1))))
    # a loop and a guarded walk, which bind v0 value by value
    looped = And(Exists(0, Or(Atom("R", (1, 0)), Exists(2, Atom("R", (0, 2))))), Atom("R", (0, 1)))
    walked = Or(Forall(0, Implies(Atom("R", (1, 0)), Exists(2, Atom("R", (0, 2))))),
                Atom("R", (0, 1)))
    for formula in (f, g, nested, looped, walked):
        for a, b in iproduct(range(3), repeat=2):
            assignment = {0: a, 1: b}
            got = holds(model, formula, assignment)
            assert got == walk(model, formula, assignment), (formula, a, b)
            assert assignment == {0: a, 1: b}
    assert holds(model, f, {0: 0, 1: 1}) and not holds(model, f, {0: 1, 1: 2})


def test_library_ford_matches_recursive_walker():
    # successor_set inside ford rebinds an index that is free around it
    ford = formula_library()["ford"].formula
    rank3 = hf_universe(3)
    verdicts = [holds(rank3, ford, {0: code}) for code in range(rank3.size)]
    assert verdicts == [walk(rank3, ford, {0: code}) for code in range(rank3.size)]
    assert [code for code in range(rank3.size) if verdicts[code]] == sorted(
        ordinal_hf(k).code for k in range(4)
    )
    rank4, domain = hf_universe(4), range(16)
    for code in [ordinal_hf(k).code for k in range(5)] + [5, 7, 2**16 - 1]:
        got = holds(rank4, ford, {0: code}, quantifier_domain=domain)
        assert got == walk(rank4, ford, {0: code}, domain), code


class TruthModel:
    """P(v) is the truth value of v: 0 false, anything else true."""

    carrier_size = 3

    def rel_holds(self, name, row):
        if name != "P":
            raise KeyError(name)
        return row[0]


def test_connectives_over_every_truth_combination():
    model = TruthModel()
    p, q = Atom("P", (0,)), Atom("P", (1,))
    tables = {
        And: lambda a, b: a and b,
        Or: lambda a, b: a or b,
        Implies: lambda a, b: not a or b,
        Iff: lambda a, b: a == b,
    }
    for a, b in iproduct((False, True), repeat=2):
        assignment = {0: int(a), 1: int(b)}
        assert holds(model, Not(p), assignment) == (not a)
        for op, table in tables.items():
            assert bool(holds(model, op(p, q), assignment)) == table(a, b), (op, a, b)
    # Iff compares truth values, not the objects rel_holds returns
    assert holds(model, Iff(p, q), {0: 1, 1: 2}) is True
    assert holds(model, Iff(p, Not(q)), {0: 1, 1: 2}) is False
    # quantifiers range over the domain only
    assert holds(model, Exists(0, p), {}) is True
    assert holds(model, Exists(0, p), {}, quantifier_domain=[0]) is False
    assert holds(model, Forall(0, p), {}, quantifier_domain=[1, 2]) is True
    assert holds(model, Forall(0, p), {}, quantifier_domain=[]) is True
    assert holds(model, Exists(0, p), {}, quantifier_domain=[]) is False


def test_unknown_relation_raises_the_models_key_error_in_evaluation_order():
    model, p, s = ORDER3[0], Atom("P", (0,)), Atom("S", (0, 1))
    for m in (model, hf_universe(2)):
        with pytest.raises(KeyError) as info:
            holds(m, Or(Eq(0, 1), s), {0: 0, 1: 1})
        assert info.value.args == ("S",)
    # left to right: an atom after a false conjunct is never asked for
    assert holds(model, And(p, s), {0: 1, 1: 1}) is False
    with pytest.raises(KeyError):
        holds(model, And(s, p), {0: 1, 1: 1})


def outcome(evaluate):
    """What evaluate() returns, or the type and args of what it raises."""
    try:
        return evaluate()
    except Exception as exc:
        return type(exc), exc.args


@pytest.mark.parametrize("text", [
    "ex v0 (P(v0) | S(v0,v1))",
    "all v0 (P(v0) & S(v0,v0))",
    "ex v0 (E(v0,v1) | S(v0,v1))",
    "all v0 (E(v0,v1) -> S(v1,v0) & P(v0))",
    "all v0 (E(v0,v1) -> ex v2 S(v2,v0))",
    "ex v0 (P(v0) & all v2 (S(v2,v0) | E(v2,v1)))",
    "all v0 (ex v2 (E(v2,v0) & S(v2,v1)) | E(v0,v1))",
    "ex v0 (S(v1,v0) <-> all v2 E(v2,v0))",
    # in the order [1, 0] the loop meets S at v0 = 1 before it finds v0 = 0
    "ex v0 (E(v0,v1) & (all v2 !E(v2,v0) | S(v0,v1)))",
])
def test_unknown_relation_in_an_innermost_quantifier_raises_as_the_walker_does(text):
    """An innermost quantifier's bitset asks for every atom of its body, so
    it meets the unknown S where the loop may short-circuit past it: the
    quantifier then reruns as the loop, for the walker's result or error.
    So does the walk of a guarded quantifier, where S may be met at a
    value the guard admits only, or in a nested bitset; it walks a range
    only, as a list is looped over in its own order."""
    f = parse_formula(text)
    tables = ORDER3[0]
    bare = SimpleNamespace(carrier_size=3, rel_holds=tables.rel_holds)  # no section
    for model in (tables, bare, hf_universe(2), TruthModel()):
        for domain in (None, [], [2, 0, 0], [1, 0], range(1, 3)):
            for v1 in range(model.carrier_size):
                got = outcome(lambda: holds(model, f, {1: v1}, quantifier_domain=domain))
                want = outcome(lambda: walk(model, f, {1: v1}, domain))
                assert got == want, (text, model, domain, v1)


def test_values_past_the_bitsets_give_the_walkers_result_or_error():
    """Values that are not ints in [0, 2**20) in the domain or in a free
    variable: the quantifier runs as the loop, or reruns as it."""
    texts = ["ex v0 v0 = v1", "ex v0 E(v1,v0)", "all v0 (E(v0,v1) -> v0 = v1)",
             "ex v0 R(v1,v0)", "all v0 (R(v0,v1) | v1 = v0)",
             "all v0 (E(v0,v1) -> E(v0,v0))"]  # a walk: 2.0 fails its section, not as the loop
    domains = [None, [0, 2, 2, 1], range(1, 3), range(40), range(0, 4, 2), (1, 0),
               frozenset({0, 2}), [-1, 0], [0.0, 1], [True], [2**21]]
    bare = SimpleNamespace(carrier_size=3, rel_holds=ORDER3[0].rel_holds)  # no section
    for model in (ORDER3[0], bare, hf_universe(2)):
        for text in texts:
            f = parse_formula(text)
            for v1 in (1, 3, -1, 2**40, 2.0, True):
                for domain in domains:
                    got = outcome(lambda: holds(model, f, {1: v1}, quantifier_domain=domain))
                    want = outcome(lambda: walk(model, f, {1: v1}, domain))
                    assert got == want, (model, text, v1, domain)


def test_an_equality_lane_past_the_domain_makes_no_wide_int():
    """The lane of v0 = v1 in a bitset over 3 values is bounded by the
    domain's mask: at v1 = 2**27 it is 0, not a 2**27-bit (16 MB) int."""
    f = parse_formula("ex v0 (v0 = v1 & P(v0))")
    tracemalloc.start()
    try:
        assert holds(view(ORDER3[0]), f, {1: 2**27}) is False
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def guarded_formulas():
    """Quantifiers on v0 whose body joins a guard on v0 with a nested
    quantifier, in both operand orders of `&`, `|`, `->` and `<->`.  The
    guard is known (R(v0,v1), !P(v0)) or not (R(v0,v0) names v0 twice); the
    nested quantifier is innermost, or has one inside it, or reads the
    unknown relation S (met at undecided values only), or rebinds v1, which
    is free outside it, or v0, the walk variable."""
    guards = [Atom("R", (0, 1)), Not(Atom("P", (0,))), Atom("R", (0, 0))]
    nested = [
        Exists(2, And(Atom("R", (2, 0)), Atom("P", (2,)))),
        Forall(2, Implies(Atom("R", (0, 2)), Or(Atom("R", (2, 1)), Atom("R", (1, 0))))),
        Forall(2, Implies(Atom("R", (2, 0)), Exists(1, Atom("R", (1, 2))))),
        Exists(2, And(Atom("P", (2,)), Atom("S", (2, 0)))),
        Forall(1, Or(Atom("P", (1,)), Atom("R", (0, 1)))),
        Exists(0, Atom("R", (1, 0))),
    ]
    for quantifier in (Forall, Exists):
        for guard in guards:
            for inner in nested:
                for op in (And, Or, Implies, Iff):
                    yield quantifier(0, op(guard, inner))
                    yield quantifier(0, op(inner, guard))


def table_models():
    """Seeded tuple-table models on 1 to 3 points, as worlds() draws them."""
    rng = random.Random(19)
    for u in (1, 2, 3, 3):
        pairs = [p for p in iproduct(range(u), repeat=2) if rng.random() < 0.5]
        points = [(a,) for a in range(u) if rng.random() < 0.5]
        yield ModelFinite(list(range(u)), {"R": pairs, "P": points}, Vocabulary.of(R=2, P=1))


def test_walk_matches_the_walker_on_guarded_nested_quantifiers():
    """The walk over the values a guard admits in a range domain, the
    nested bitsets run in it, and the loop of an unguarded body and of
    every other domain agree with the walker, results and errors alike: on
    the models worlds() draws from, TruthModel (only P, truth values other
    than True) and a tuple table without `section`."""
    tables = list(table_models())
    bare = SimpleNamespace(carrier_size=3, rel_holds=tables[-1].rel_holds)  # no section
    models = tables + [bare, HF3(), hf_universe(2), hf_universe(3), TruthModel()]
    formulas = list(guarded_formulas())
    walked = set()  # the models checked on a range, where the walk runs
    for model in models:
        u = model.carrier_size
        for domain in (None, range(1, u), range(u // 2, u), [u - 1, 0, u - 1, u // 2], []):
            values = range(u) if domain is None else domain
            if u * max(len(values), 1) ** 3 > 10_000:  # the walker's cost, at quantifier depth 3
                continue
            for f in formulas:
                if isinstance(model, HFUniverse):
                    f = on_sets(f)
                for v1 in range(u):
                    got = outcome(lambda: holds(model, f, {1: v1}, quantifier_domain=domain))
                    want = outcome(lambda: walk(model, f, {1: v1}, domain))
                    assert got == want, (f, model, domain, v1)
            if type(values) is range and len(values) >= min(u, 2):
                walked.add(id(model))
    assert len(walked) == len(models)


def test_a_range_domain_gives_what_the_list_of_its_values_gives(monkeypatch):
    """holds makes the mask of a range with step 1 in [0, 2**20] itself,
    and asks _domain_mask for the mask of a list or of any other range,
    which it finds none for, so that range is looped over.  Each range
    gives the results and errors of the list of its values, on the models
    and formulas of the walk test above."""
    asked = []

    def spy(domain):
        mask = _domain_mask(domain)
        if type(domain) is range:
            asked.append((domain, mask))
        return mask

    monkeypatch.setattr("baokit.models._domain_mask", spy)
    tables = list(table_models())
    bare = SimpleNamespace(carrier_size=3, rel_holds=tables[-1].rel_holds)  # no section
    formulas = list(guarded_formulas())
    for model in tables + [bare, TruthModel()]:
        u = model.carrier_size
        ranges = [range(0, k) for k in range(u + 1)]
        for domain in ranges + [range(1, 3), range(2, 2), range(0, 4, 2), range(-1, 2)]:
            for f in formulas:
                for v1 in range(u):
                    got = outcome(lambda: holds(model, f, {1: v1}, quantifier_domain=domain))
                    values = list(domain)
                    want = outcome(lambda: holds(model, f, {1: v1}, quantifier_domain=values))
                    assert got == want, (f, model, domain, v1)
    assert {domain for domain, _ in asked} == {range(0, 4, 2), range(-1, 2)}
    # past 2**20 values: the loop, which stops at the first value
    asked.clear()
    first_value = parse_formula("ex v0 R(v0,v1)")
    model = ModelFinite(range(3), {"R": [(0, 0), (0, 1), (0, 2)]})
    for v1 in range(3):
        assert holds(model, first_value, {1: v1}, quantifier_domain=range(2**20 + 1)) is True
    assert [domain for domain, _ in asked] == [range(2**20 + 1)] * 3
    assert {mask for _, mask in asked} == {None}


class CountingUniverse(HFUniverse):
    """A set universe that counts its rel_holds and section calls."""

    def __init__(self, rank: int):
        super().__init__(rank)
        self.calls = {"rel_holds": 0, "section": 0}

    def rel_holds(self, name, row):
        self.calls["rel_holds"] += 1
        return super().rel_holds(name, row)

    def section(self, name, position, others, mask):
        self.calls["section"] += 1
        return super().section(name, position, others, mask)


def test_the_rank_4_ord_scan_makes_at_most_half_the_model_calls():
    """`ord` on every rank-4 code, quantifiers over range(16).  Before the
    pre-pass and walk, when only innermost quantifiers ran as bitsets, the
    scan made 324,650 rel_holds calls and 333,066 section calls, 657,716
    in all; the walk visits the members of v0 only, reads the atoms it
    knows from their sections and computes each section once per call."""
    universe = CountingUniverse(4)
    ord_f = formula_library()["ord"].formula
    found = [code for code in range(universe.size)
             if holds(universe, ord_f, {0: code}, quantifier_domain=range(16))]
    assert found == sorted(ordinal_hf(k).code for k in range(5))
    assert sum(universe.calls.values()) <= 657_716 // 2, universe.calls


def test_model_sections_match_the_tuple_table():
    rng = random.Random(3)
    for arity in (1, 2, 3):
        rows = {r for r in iproduct(range(3), repeat=arity) if rng.random() < 0.5}
        assert 0 < len(rows) < 3**arity
        model = ModelFinite(range(3), {"T": rows}, Vocabulary.of(T=arity))
        for position in range(arity):
            for others in iproduct(range(3), repeat=arity - 1):
                bits = model.section("T", position, others, 0b111)
                want = [others[:position] + (t,) + others[position:] in rows for t in range(3)]
                assert [bits >> t & 1 == 1 for t in range(3)] == want, (arity, position, others)
        assert model.section("T", 0, (0,) * arity, 0b111) == 0  # one place too many
    with pytest.raises(KeyError):
        model.section("S", 0, (0, 0), 0b111)


def test_holds_reads_the_assignment_without_changing_it():
    model = ORDER3[0]
    f = parse_formula("ex v0 (R(v1,v0) & all v1 P(v1)) | R(v0,v1)")
    assignment = {0: 0, 1: 1, 5: "unused"}
    before = dict(assignment)
    assert holds(model, f, assignment) == walk(model, f, assignment)
    assert assignment == before
    # any input dict() accepts still works
    assert holds(model, f, [(0, 0), (1, 1)]) == holds(model, f, {0: 0, 1: 1})


# -- truth sets: holds with the free variable as lanes ----------------------------


def view(model):
    """A view of `model` that keeps no truth sets, so that holds on it runs
    the pointwise program on the model's sections.  The oracle of both the
    lane path and that program is `pointwise`, the generated-source program
    holds ran before, which shares no step with them."""
    return SimpleNamespace(carrier_size=model.carrier_size, rel_holds=model.rel_holds,
                           section=model.section)


def kept(model, f) -> dict:
    """The truth sets holds keeps on `model` for f, by domain (None when
    refused): the last field of f's record, kept by f's id and naming f by
    a weak reference."""
    record = model.truth_sets.get(id(f))
    return record[-1] if record is not None and record[0]() is f else {}


def lanes(bits: int, u: int) -> list:
    return [c == "1" for c in bin(bits)[2:].zfill(u)[::-1]]


def test_rank_4_truth_sets_of_ord_and_ford_match_the_pointwise_program():
    """Every rank-4 code, quantifiers over the rank-3 cut, as arith and the
    universe benchmark ask: truth_set, and holds reading its kept set,
    against the pointwise program."""
    universe, library, domain = hf_universe(4), formula_library(), range(16)
    ordinals = sorted(ordinal_hf(k).code for k in range(5))
    for name in ("ord", "ford"):
        f = library[name].formula
        want = [pointwise(universe, f, {0: code}, quantifier_domain=domain)
                for code in range(universe.size)]
        assert [code for code in range(universe.size) if want[code]] == ordinals
        assert lanes(truth_set(universe, f, 0, domain), universe.size) == want, name
        got = [holds(universe, f, {0: code}, quantifier_domain=domain)
               for code in range(universe.size)]
        assert got == want and kept(universe, f)[domain] is not None, name


def random_formula(rng: random.Random, depth: int):
    """A formula over R, P and = with variables v0 to v2, of depth at most
    `depth`: quantifiers rebind free and bound variables and are often
    vacuous."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(3)
        if kind == 0:
            return Atom("R", (rng.randrange(3), rng.randrange(3)))
        if kind == 1:
            return Atom("P", (rng.randrange(3),))
        return Eq(rng.randrange(3), rng.randrange(3))
    kind = rng.randrange(7)
    if kind == 0:
        return Not(random_formula(rng, depth - 1))
    if kind < 5:
        op = (And, Or, Implies, Iff)[kind - 1]
        return op(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    return (Exists, Forall)[kind - 5](rng.randrange(3), random_formula(rng, depth - 1))


def shapes(f) -> set:
    """Which of "shadowed" (a quantifier rebinding a variable bound or free
    around it) and "vacuous" (a quantifier whose variable is not free in its
    body) occur in f."""
    found = set()
    stack = [(f, frozenset(f.free))]
    while stack:
        g, bound = stack.pop()
        if isinstance(g, (Exists, Forall)):
            found |= {"shadowed"} if g.var in bound else set()
            found |= {"vacuous"} if g.var not in g.body.free else set()
            bound = bound | {g.var}
        stack.extend((part, bound) for part in parts(g))
    return found


def test_truth_sets_match_the_pointwise_program_on_random_formulas():
    """Seeded formulas of depth at most 4 with one free variable, on tuple
    tables of 1 to 4 points and the set universes of ranks 1 to 3, over the
    whole carrier, a sub-range, a list with repeats and the empty list:
    truth_set, holds and holds on a view without truth sets, which runs the
    pointwise program, against the generated-source oracle at every value.
    An atom naming the free variable twice (P read as E(v,v) on a universe)
    has no lanes: truth_set refuses it, and holds runs the program."""
    rng = random.Random(29)
    worlds = []
    for u in (1, 2, 3, 4, 4):
        pairs = [p for p in iproduct(range(u), repeat=2) if rng.random() < 0.5]
        points = [(a,) for a in range(u) if rng.random() < 0.5]
        worlds.append(ModelFinite(range(u), {"R": pairs, "P": points}, Vocabulary.of(R=2, P=1)))
    worlds += [hf_universe(r) for r in (1, 2, 3)]
    seen, compared, refused = set(), 0, 0
    for model in worlds:
        u = model.carrier_size
        for domain in (None, range(u // 2, u), [u - 1, 0, u - 1], []):
            count = 0
            while count < 25:
                f = random_formula(rng, 4)
                if isinstance(model, HFUniverse):
                    f = on_sets(f)
                if len(f.free) != 1:
                    continue
                count += 1
                (var,) = f.free
                want = [pointwise(model, f, {var: t}, quantifier_domain=domain)
                        for t in range(u)]
                try:
                    bits = truth_set(model, f, var, domain)
                except baokit.PreconditionError:
                    refused += 1
                else:
                    assert lanes(bits, u) == want, (f, model, domain)
                    compared += 1
                    seen |= shapes(f)
                got = [holds(model, f, {var: t}, quantifier_domain=domain) for t in range(u)]
                assert got == want, (f, model, domain)
                got = [holds(view(model), f, {var: t}, quantifier_domain=domain)
                       for t in range(u)]
                assert got == want, (f, model, domain)
    assert compared > 450 and refused > 0 and seen == {"shadowed", "vacuous"}


def test_a_truth_set_past_the_capacity_is_refused_before_any_work(monkeypatch):
    """ord on the rank-4 universe with quantifiers over all 65,536 codes:
    2**16 lanes times 65536**2 is past the lane budget, so holds keeps the
    refusal, makes no lane run, and answers by the pointwise program."""
    runs = []
    monkeypatch.setattr(baokit.models, "_Run", lambda *args: runs.append(args))
    universe, ord_f = hf_universe(4), formula_library()["ord"].formula
    with pytest.raises(baokit.CapacityError):
        truth_set(universe, ord_f, 0)
    codes = [ordinal_hf(2).code, 5, 7, 2**16 - 1]  # an ordinal walks every code, 0.5 s
    got = [holds(universe, ord_f, {0: code}) for code in codes]
    assert got == [pointwise(universe, ord_f, {0: code}) for code in codes]
    assert got == [True, False, False, False]
    assert runs == [] and kept(universe, ord_f) == {None: None}


def test_a_truth_set_that_raises_is_refused_once_and_the_loop_answers(monkeypatch):
    """S is no relation of the model: its section raises, so the set is
    refused, never tried again, and each call gives the loop's result or
    error, which differ by value."""
    tried = []
    real = baokit.models._truth_bits
    monkeypatch.setattr(baokit.models, "_truth_bits",
                        lambda *args: tried.append(args) or real(*args))
    model = ModelFinite(range(3), {"R": [(0, 1), (1, 2)]})
    f = parse_formula("all v0 (R(v0,v1) -> S(v0,v1))")
    got = [outcome(lambda: holds(model, f, {1: t})) for t in range(3)]
    assert got == [outcome(lambda: walk(model, f, {1: t})) for t in range(3)]
    assert got == [True, (KeyError, ("S",)), (KeyError, ("S",))]
    assert len(tried) == 1 and kept(model, f) == {None: None}


def test_holds_keeps_a_set_only_where_the_lane_path_runs():
    """Two free variables, a value outside the carrier and a list that is
    not of ints in [0, 2**20): no set is kept.  A range holds makes no mask
    of is refused.  One set per formula and domain serves every later
    call."""
    model = ModelFinite(range(3), {"R": [(0, 1), (1, 2)]})
    two, one = parse_formula("R(v0,v1) | ex v2 R(v2,v0)"), parse_formula("ex v2 R(v2,v0)")
    holds(model, two, {0: 1, 1: 2})
    for value in (3, -1, True, 1.0):
        assert holds(model, one, {0: value}) == walk(model, one, {0: value})
    assert holds(model, one, {0: 1}, quantifier_domain=[-1, 0]) is True
    assert model.truth_sets == {}
    for domain in (range(0, 3, 2), range(2, 1)):
        got = holds(model, one, {0: 1}, quantifier_domain=domain)
        assert got == walk(model, one, {0: 1}, domain)
    assert kept(model, one) == {range(0, 3, 2): None, range(2, 1): None}
    for domain in (None, range(1), [0, 0], (0,), frozenset({0})):
        for value in range(3):
            want = value == 1 if domain else value > 0
            assert holds(model, one, {0: value}, quantifier_domain=domain) == want
    # (0,), [0, 0] and {0} share a mask
    assert list(kept(model, one)) == [range(0, 3, 2), range(2, 1), None, range(1), 1]


def test_kept_truth_sets_keep_neither_the_model_nor_the_formula_alive():
    model = ModelFinite(range(3), {"Kept": [(0, 1)]})  # a relation no other test names
    f = Exists(1, Atom("Kept", (0, 1)))
    assert [holds(model, f, {0: t}) for t in range(3)] == [True, False, False]
    assert kept(model, f)[None] is not None
    alive = weakref.ref(f)
    del f
    gc.collect()
    assert alive() is None
    # the next formula's first set drops the entry of the dead one
    assert holds(model, Forall(1, Atom("Kept", (0, 1))), {0: 0}) is False
    assert len(model.truth_sets) == 1
    alive = weakref.ref(model)
    del model
    gc.collect()
    assert alive() is None


def count_lane_runs(monkeypatch) -> list:
    """The calls of _truth_bits from now on: one for each set made."""
    tried = []
    real = baokit.models._truth_bits
    monkeypatch.setattr(baokit.models, "_truth_bits",
                        lambda *args: tried.append(args) or real(*args))
    return tried


def test_an_equal_range_that_is_another_object_reads_the_kept_set(monkeypatch):
    """holds knows the last range it served by identity; an equal range
    built anew is found by value, served from the same set, and then known
    by identity in its turn."""
    tried = count_lane_runs(monkeypatch)
    universe, ord_f = hf_universe(4), formula_library()["ord"].formula
    first, second = range(16), range(0, 16)
    assert first is not second
    codes = [0, 1, 3, 6, 11, 2059, 12345, 2**16 - 1]
    want = [pointwise(universe, ord_f, {0: c}, quantifier_domain=first) for c in codes]
    for domain in (first, second, first):
        assert [holds(universe, ord_f, {0: c}, quantifier_domain=domain) for c in codes] == want
    assert len(tried) == 1 and list(kept(universe, ord_f)) == [first]


def test_a_list_domain_changed_between_calls_gives_the_new_answer():
    """A list is never known by identity: each call reads its values."""
    model = ModelFinite(range(3), {"R": [(0, 1), (1, 2)]})
    f = parse_formula("ex v2 R(v2,v0)")
    domain = [0]
    for values in ([0], [1], [1, 0], [], [2]):
        domain[:] = values
        got = [holds(model, f, {0: t}, quantifier_domain=domain) for t in range(3)]
        assert got == [pointwise(model, f, {0: t}, quantifier_domain=domain)
                       for t in range(3)], values
    assert list(kept(model, f)) == [1, 2, 3, 0, 4]  # one set per mask


def test_a_new_formula_never_reads_the_set_of_a_dead_one():
    """A record names its formula by a weak reference as well as by id, so
    the set of a formula that died is not read for one built later, even
    when the new one has the dead one's id (made so here by moving the
    record, as if the allocator had reused the address)."""
    model = ModelFinite(range(3), {"Gone": [(0, 1)], "Here": [(1, 2), (2, 2)]})
    dead = Exists(1, Atom("Gone", (0, 1)))
    assert [holds(model, dead, {0: t}) for t in range(3)] == [True, False, False]
    dead_id = id(dead)
    del dead
    gc.collect()
    new = Exists(1, Atom("Here", (0, 1)))
    if id(new) != dead_id:
        model.truth_sets[id(new)] = model.truth_sets.pop(dead_id)
    want = [pointwise(model, new, {0: t}) for t in range(3)]
    assert want == [False, True, True]
    assert [holds(model, new, {0: t}) for t in range(3)] == want
    assert list(model.truth_sets) == [id(new)] and kept(model, new)[None] is not None


def test_holds_reads_a_kept_set_only_for_an_int_in_the_carrier(monkeypatch):
    """With the set kept, True, -1, the carrier size and 1.0 still run the
    pointwise program (they reach _pointwise), with its results and errors;
    an int in the carrier does not."""
    universe = hf_universe(2)
    f = parse_formula("ex v1 (E(v1,v0) & all v2 !E(v2,v1))")
    assert [holds(universe, f, {0: t}) for t in range(4)] == [False, True, False, True]
    compiled = []
    real = baokit.models._pointwise
    monkeypatch.setattr(baokit.models, "_pointwise", lambda g: compiled.append(g) or real(g))
    assert holds(universe, f, {0: 1}) is True and compiled == []
    for value in (True, -1, universe.size, 1.0):
        got = outcome(lambda: holds(universe, f, {0: value}))
        assert len(compiled) == 1, value
        assert got == outcome(lambda: pointwise(universe, f, {0: value})), value
        compiled.clear()


def test_an_assignment_that_is_not_a_dict_reads_the_kept_set(monkeypatch):
    """A mapping that is not a dict, a dict subclass and a list of pairs are
    copied into a dict, and answered from the same kept set."""
    tried = count_lane_runs(monkeypatch)
    model = ModelFinite(range(3), {"R": [(0, 1), (1, 2)]})
    f = parse_formula("ex v2 R(v2,v0)")
    for make in (MappingProxyType, OrderedDict, lambda d: list(d.items()), dict):
        got = [holds(model, f, make({0: t, 5: "unused"})) for t in range(3)]
        assert got == [pointwise(model, f, {0: t}) for t in range(3)] == [False, True, True]
    assert len(tried) == 1


def test_vacuous_quantifiers_are_read_once_on_the_lane_path():
    """!ex v0 nested 100 deep over R(v0,v1): every quantifier but the
    innermost is vacuous, so the set is the innermost's, and holds answers
    at once, as the pointwise program does on a view.  The
    parser stops at 100 levels of nesting, so the 100-quantifier chain is
    built and the 50-quantifier one parsed.  Over an empty domain `ex` is
    false and `all` true, as in the loop."""
    model = ModelFinite(range(3), {"R": [(0, 1), (1, 2)]})
    deep = Atom("R", (0, 1))
    for _ in range(100):
        deep = Not(Exists(0, deep))
    started = time.perf_counter()
    got = [holds(model, deep, {1: t}) for t in range(3)]
    assert time.perf_counter() - started < 0.1
    shallow = parse_formula("ex v0 R(v0,v1)")
    assert got == [pointwise(model, shallow, {1: t}) for t in range(3)]
    assert holds(model, parse_formula("!ex v0 " * 50 + "R(v0,v1)"), {1: 0}) is False
    for text in ("!ex v0 " * 12 + "R(v0,v1)", "all v0 " * 6 + "!all v0 R(v0,v1)"):
        f = parse_formula(text)
        for domain in (None, [], [2, 0, 2], range(1, 3)):
            want = [pointwise(model, f, {1: t}, quantifier_domain=domain) for t in range(3)]
            assert lanes(truth_set(model, f, 1, domain), 3) == want, (text, domain)
            got = [holds(view(model), f, {1: t}, quantifier_domain=domain) for t in range(3)]
            assert got == want, (text, domain)
    # so does the pointwise program, which the generated source it replaced
    # tripled in time per two levels (0.11 s at 22): an even chain is ex v0
    for k in range(16, 41, 4):
        f = parse_formula("!ex v0 " * k + "R(v0,v1)")
        started = time.perf_counter()
        got = [holds(view(model), f, {1: t}) for t in range(3)]
        assert time.perf_counter() - started < 0.1, k
        assert got == [walk(model, shallow, {1: t}) for t in range(3)], k


# -- satisfaction sets -----------------------------------------------------------


def sat_walk(space, f, atom, quantifier_mask=None) -> Element:
    """The recursive Element walker that satisfaction_set and window ran
    before formulas were compiled, kept as the oracle of the compiled plan."""

    def sat(g, depth: int) -> Element:
        if isinstance(g, Atom):
            return atom(g)
        if isinstance(g, Eq):
            return diag(space, g.left, g.right)
        if isinstance(g, Not):
            return ~sat(g.body, depth)
        if isinstance(g, And):
            return sat(g.left, depth) & sat(g.right, depth)
        if isinstance(g, Or):
            return sat(g.left, depth) | sat(g.right, depth)
        if isinstance(g, Implies):
            return ~sat(g.left, depth) | sat(g.right, depth)
        if isinstance(g, Iff):
            return ~(sat(g.left, depth) ^ sat(g.right, depth))
        body = sat(g.body, depth + 1)
        if isinstance(g, Forall):
            body = ~body
        if quantifier_mask is not None:
            body = body & quantifier_mask(depth + 1, g.var)
        out = cyl(g.var, body)
        return ~out if isinstance(g, Forall) else out

    return sat(f, 0)


def row_atoms(model, space):
    """The old walker's atoms: each row of the relation as digit masks."""

    def atom(g) -> Element:
        bits = 0
        for row in model.relations[g.rel]:
            mask = space.full_mask
            for var, value in zip(g.args, row):
                mask &= space.digit_mask(var, value)
            bits |= mask
        return Element(space, bits)

    return atom


def _sat_formulas(n: int):
    """Formulas in v0 .. v(n-1) over R/2, P/1, T/3 (arguments may repeat)
    and Z/0, with every connective and both quantifiers.  A second layer
    is built over a pool of quantified formulas, its leaves #i standing
    for pool entries, so that one subformula recurs at the same depth and
    at different depths."""
    var = st.integers(0, n - 1)
    leaves = st.one_of(
        st.builds(lambda a, b: Atom("R", (a, b)), var, var),
        st.builds(lambda a: Atom("P", (a,)), var),
        st.builds(lambda a, b, c: Atom("T", (a, b, c)), var, var, var),
        st.just(Atom("Z", ())),
        st.builds(Eq, var, var),
    )

    def extend(sub):
        return st.one_of(
            st.builds(Not, sub),
            *(st.builds(op, sub, sub) for op in (And, Or, Implies, Iff)),
            *(st.builds(q, var, sub) for q in (Exists, Forall)),
        )

    quantified = st.builds(
        lambda q, v, body: q(v, body),
        st.sampled_from([Exists, Forall]), var, st.recursive(leaves, extend, max_leaves=3),
    )
    pool = st.lists(quantified, min_size=1, max_size=3)
    slots = st.builds(lambda i: Atom("#", (i,)), st.integers(0, 2))
    tree = st.builds(_fill, st.recursive(slots | leaves, extend, max_leaves=6), pool)
    # t next to a quantifier over t: every quantifier of t at two depths
    nested = st.builds(
        lambda op, q, v, t: op(t, q(v, t)),
        st.sampled_from([And, Or, Implies, Iff]), st.sampled_from([Exists, Forall]), var, tree,
    )
    return tree | nested


def _fill(g, pool):
    """g with each #i replaced by pool entry i (mod the pool's size)."""
    if isinstance(g, Atom):
        return pool[g.args[0] % len(pool)] if g.rel == "#" else g
    if isinstance(g, Eq):
        return g
    if isinstance(g, Not):
        return Not(_fill(g.body, pool))
    if isinstance(g, (Exists, Forall)):
        return type(g)(g.var, _fill(g.body, pool))
    return type(g)(_fill(g.left, pool), _fill(g.right, pool))


SAT_FORMULAS = {n: _sat_formulas(n) for n in (1, 2, 3)}


@st.composite
def sat_cases(draw):
    """A formula, a model with u <= 4 and n <= 3, and maybe a run of
    values for each quantifier depth and variable."""
    u, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    f = draw(SAT_FORMULAS[n])
    points = st.integers(0, u - 1)
    relations = {
        "R": draw(st.lists(st.tuples(points, points), max_size=10)),
        "P": [(a,) for a in draw(st.lists(points, max_size=4))],
        "T": draw(st.lists(st.tuples(points, points, points), max_size=12)),
        "Z": draw(st.sampled_from([[], [()]])),
    }
    model = ModelFinite(list(range(u)), relations, Vocabulary.of(R=2, P=1, T=3, Z=0))
    ranges = None
    if draw(st.integers(0, 2)):  # two cases in three
        depth = quantifier_depth(f)
        ranges = {}
        for key in iproduct(range(1, depth + 1), range(n)):
            lo = draw(points)
            ranges[key] = range(lo, draw(st.integers(lo + 1, u)))
    return f, model, n, ranges


def check_against_walker(f, model, n, ranges):
    space = TupleSpace(model.carrier_size, n)
    if ranges is None:
        got = satisfaction_set(model, f, n)
        assert got == sat_walk(space, f, row_atoms(model, space)), f
        return
    want = sat_walk(
        space, f, row_atoms(model, space),
        lambda depth, var: Element(
            space, sum(space.digit_mask(var, value) for value in ranges[depth, var])
        ),
    )
    def leaf(g, level) -> int:  # atoms and diagonals alike, over the level's space
        if isinstance(g, Atom):
            return row_atoms(model, level)(g).bits
        return diag(level, g.left, g.right).bits

    # the runs as guard atoms in the formula, as window gives its own
    bits = satisfaction_bits(space, fw.relativized(f),
                             fw.guarded_leaf(leaf, lambda depth, var: ranges[depth, var]))
    assert bits == want.bits, (f, ranges)


# one quantified subformula at depths 0 and 1, whose ranges differ
SHARED = Exists(1, Atom("R", (0, 1)))
SHARED_WORLD = ModelFinite([0, 1, 2], {"R": [(0, 0), (1, 2), (2, 2)]})
SHARED_RANGES = {(d, v): range(0, 3) for d in (1, 2) for v in range(3)}
SHARED_RANGES.update({(1, 1): range(0, 1), (2, 1): range(1, 3)})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=sat_cases())
@example(case=(Or(SHARED, Exists(2, SHARED)), SHARED_WORLD, 3, SHARED_RANGES))
@example(case=(Or(Not(SHARED), Iff(SHARED, Forall(1, Not(SHARED)))), SHARED_WORLD, 2, None))
def test_compiled_satisfaction_matches_recursive_walker(case):
    check_against_walker(*case)


@pytest.mark.parametrize("name, f", [
    (name, f) for name, f in deep_formulas() if name in ("250-atom conj", "300-deep Not")
])
def test_deep_satisfaction_matches_recursive_walker(name, f):
    model = ModelFinite([0, 1, 2], {"R": [(0, 1), (1, 2)]})
    check_against_walker(f, model, 3, None)
    check_against_walker(Forall(2, f), model, 3, {(1, 2): range(1, 3)})


def test_satisfaction_plan_is_built_once_and_shares_subformulas():
    f = parse_formula("ex v2 R(v0,v1,v2) & (ex v2 R(v0,v1,v2) | ex v2 R(v1,v0,v2))")
    model = ModelFinite([0, 1], {"R": [(0, 1, 0), (1, 1, 1)]})
    first = satisfaction_set(model, f, 3)
    plan = _plan(f)
    assert satisfaction_set(model, f, 3) == first
    assert _plan(f) is plan  # kept on f while f lives
    # two atoms, and ex v2 R(v0,v1,v2) computed once
    assert len(plan.variables) == 2 and len(plan.kinds) == 4 and plan.constants == ()
    long_conj = _plan(conj([Atom("R", (i % 3, (i + 1) % 3)) for i in range(250)]))
    assert len(long_conj.kinds) == 249 and len(long_conj.blank) == 1  # one register reused


def test_diagonals_reach_the_leaf_hook_normalised():
    f = parse_formula("(v2 = v0 & v1 = v1) | (v0 = v2 & R(v1,v0)) | ex v1 v1 = v0")
    model = order_model()
    space = TupleSpace(3, 3)
    asked = []

    def leaf(g, level) -> int:
        asked.append((g, level.dimension))
        if isinstance(g, Atom):
            return row_atoms(model, level)(g).bits
        return diag(level, g.left, g.right).bits

    bits = satisfaction_bits(space, f, leaf)
    assert asked == [(Eq(0, 2), 3), (Eq(1, 1), 2), (Atom("R", (1, 0)), 2), (Eq(0, 1), 2)]
    assert bits == satisfaction_set(model, f, 3).bits


def test_atoms_pair_arguments_with_rows_as_zip_does():
    # an atom whose argument count differs from its relation's arity
    model = ModelFinite([0, 1, 2], {"E": [(0, 1), (1, 2), (2, 2)], "Z": [()]},
                        Vocabulary.of(E=2, Z=0))
    for text in ("E(v0,v1,v2)", "E(v0)", "ex v1 E(v1,v0,v0)", "E(v0,v0,v1) & E(v1)", "Z(v0)"):
        check_against_walker(parse_formula(text), model, 3, None)
    empty = ModelFinite([0, 1], {"E": []}, Vocabulary.of(E=2))
    check_against_walker(parse_formula("E(v0,v1,v1) | E(v1)"), empty, 2, None)


# -- the atoms and diagonals a model keeps, and the bindings a plan keeps ----------------


@st.composite
def leaf_cases(draw):
    """Relations of a model with a carrier of 1 to 4 points (R/2, P/1 and
    T/3, one of them empty, and Z/0), a formula over them whose atoms may
    repeat an argument, n from its top variable + 1 to + 2, and a few other
    formulas to warm a model's leaves with."""
    u = draw(st.integers(1, 4))
    points = st.integers(0, u - 1)
    relations = {
        "R": draw(st.lists(st.tuples(points, points), max_size=8)),
        "P": [(a,) for a in draw(st.lists(points, max_size=3))],
        "T": draw(st.lists(st.tuples(points, points, points), max_size=10)),
        "Z": draw(st.sampled_from([[], [()]])),
    }
    relations[draw(st.sampled_from(["R", "P", "T"]))] = []
    formulas = st.integers(1, 3).flatmap(lambda k: SAT_FORMULAS[k])
    f = draw(formulas)
    n = max(max_var_index(f), 0) + draw(st.integers(1, 2))
    return u, relations, f, n, draw(st.lists(formulas, max_size=3))


def leaf_model(u, relations) -> ModelFinite:
    return ModelFinite(list(range(u)), relations, Vocabulary.of(R=2, P=1, T=3, Z=0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=leaf_cases())
@example(case=(3, {"R": [(0, 1), (2, 2)], "P": [], "T": [(1, 1, 0)], "Z": []},
               And(Atom("R", (1, 1)), Exists(0, Atom("T", (0, 0, 1)))), 3,
               [Atom("R", (1, 1)), Or(Eq(1, 0), Atom("R", (0, 1)))]))
def test_warm_leaves_match_a_fresh_model_and_the_full_width_plan(case):
    u, relations, f, n, others = case
    warm = leaf_model(u, relations)
    for g in others:  # warm the model's leaves, at two sizes of space
        top = max(max_var_index(g), 0)
        satisfaction_set(warm, g, top + 1)
        satisfaction_set(warm, g, top + 2)
    got = satisfaction_set(warm, f, n)
    assert got == satisfaction_set(leaf_model(u, relations), f, n)
    assert got.bits == fw.satisfaction_set_bits(warm, f, n)
    assert satisfaction_set(warm, f, n) == got


def test_leaves_are_kept_per_model_not_per_carrier_size():
    rng = random.Random(22)
    formulas = [parse_formula(text) for text in (
        "E(v0,v1)", "E(v1,v1) & ex v2 E(v0,v2)", "all v1 (E(v0,v1) -> v0 = v1)", "v0 = v2",
    )]
    for u in (1, 2, 3, 4):
        pairs = list(iproduct(range(u), repeat=2))
        rows = rng.sample(pairs, rng.randint(0, len(pairs)))
        one = ModelFinite(range(u), {"E": rows}, Vocabulary.of(E=2))
        other = ModelFinite(range(u), {"E": [p for p in pairs if p not in rows]},
                            Vocabulary.of(E=2))
        for f in formulas:
            for model in (one, other, one, other):
                assert satisfaction_set(model, f, 3).bits == fw.satisfaction_set_bits(model, f, 3)


def test_a_plan_keeps_one_binding_per_base_size():
    # a relation no other test names, so that no plan of f is kept yet
    f = parse_formula("ex v2 (OneBinding(v0,v2) & all v1 (OneBinding(v2,v1) | v1 = v0))")
    plan = _plan(f)
    kept = {}
    for u in (2, 3, 2):
        model = ModelFinite(range(u), {"OneBinding": [(a, (a + 1) % u) for a in range(u)]})
        assert satisfaction_set(model, f, 3).bits == fw.satisfaction_set_bits(model, f, 3)
        binding = kept.setdefault(u, plan.bindings[(u,)])
        assert plan.bindings[(u,)] is binding  # bound once, at the first call on u
    assert list(plan.bindings) == [(2,), (3,)]


def test_a_window_plan_is_bound_once_per_base_size(monkeypatch):
    """A window's guarded plan is bound to the table of its base size once,
    as any plan is, whatever the margin; no table is bound on each call."""
    g = parse_formula("ex v1 (Bound(v0,v1) & v1 = v0)")  # seen by no other test
    model = ModelFinite(range(3), {"Bound": [(0, 0), (1, 2)]})
    want = fw.satisfaction_set_bits(model, g, 2)
    keys = []
    bind = Layout.bind
    monkeypatch.setattr(Layout, "bind", lambda self, ops: keys.append(ops.key) or bind(self, ops))
    f = parse_formula("ex v1 (OnceBound(v0,v1) & v1 != v0)")  # seen by no other test
    first = window_satisfaction(WindowModel(5, 1, ()), f, 5)
    assert window_satisfaction(WindowModel(5, 1, ()), f, 5) == first
    assert window_satisfaction(WindowModel(5, 2, (0,)), f, 5).count == first.count - 11  # v0 = 3
    assert keys == [(11,)]
    for _ in range(3):
        assert satisfaction_set(model, g, 2).bits == want
    assert keys == [(11,), (3,)]


def test_a_warm_satisfaction_set_makes_no_space_and_no_shifts(monkeypatch):
    """The result's space and the root's lift come from the whole-base
    table, made at the first call on (u, n, plan level)."""
    f = parse_formula("ex v1 (R(v0,v1) & v2 = v0)")
    model = order_model(3)
    first = satisfaction_set(model, f, 4)
    made = []
    for name in ("TupleSpace", "doubling_shifts"):
        real = getattr(baokit.models, name)
        counted = lambda *args, real=real: made.append(args) or real(*args)  # noqa: E731
        monkeypatch.setattr(baokit.models, name, counted)
    again = satisfaction_set(model, f, 4)
    assert again == first and again.space is first.space
    assert again.bits == fw.satisfaction_set_bits(model, f, 4)
    assert made == []


def test_no_cache_keeps_a_model_or_pins_a_formula_in_a_model():
    model = hf_universe(2).model()
    alive = weakref.ref(model)
    f = parse_formula("ex v2 (E(v0,v2) & E(v2,v1)) | v0 = v1")
    assert satisfaction_set(model, f, 3) == satisfaction_set(model, f, 3)
    assert compiler_agrees(f, model, 3, "CA") and compiler_agrees(tr(f), model, 3, "SC")
    assert tr_equivalent_on(model, f, 3)
    del model
    gc.collect()
    assert alive() is None

    atom = Atom("Pinned", (0, 2))  # a relation no other test names
    g = Exists(2, And(atom, Eq(2, 1)))
    model = ModelFinite(range(2), {"Pinned": [(0, 1), (1, 1)]})
    satisfaction_set(model, g, 3)
    nodes = weakref.ref(g), weakref.ref(atom)
    del g, atom
    gc.collect()
    assert model._leaves and [node() for node in nodes] == [None, None]
