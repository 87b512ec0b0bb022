import random
from functools import reduce
from itertools import product as iproduct
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
    ordinal_hf,
    parse_formula,
    quantifier_depth,
    satisfaction_set,
)
from baokit.formulas import And, Atom, Eq, Exists, Forall, Iff, Implies, Not, Or, conj
from baokit.hf import HFUniverse
from baokit.library import formula_library
from baokit.models import _plan, satisfaction_bits


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
    m = order_model()
    back = ModelFinite.from_json(m.to_json())
    assert back.carrier == m.carrier
    assert back.relations == m.relations


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
    for i in range(45):  # the bitset form of ex gives up past 40 levels, the loop does not
        body = (Iff, Or)[i % 2](Atom("R", (1 + i % 2, 0)), Not(body))
    yield "45-deep body of ex", Exists(0, body)


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
    for formula in (f, g, nested):
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
])
def test_unknown_relation_in_an_innermost_quantifier_raises_as_the_walker_does(text):
    """An innermost quantifier's bitset asks for every atom of its body, so
    it meets the unknown S where the loop may short-circuit past it: the
    quantifier then reruns as the loop, for the walker's result or error."""
    f = parse_formula(text)
    tables = ORDER3[0]
    bare = SimpleNamespace(carrier_size=3, rel_holds=tables.rel_holds)  # no section
    for model in (tables, bare, hf_universe(2), TruthModel()):
        for domain in (None, [], [2, 0, 0], range(1, 3)):
            for v1 in range(model.carrier_size):
                got = outcome(lambda: holds(model, f, {1: v1}, quantifier_domain=domain))
                want = outcome(lambda: walk(model, f, {1: v1}, domain))
                assert got == want, (text, model, domain, v1)


def test_values_past_the_bitsets_give_the_walkers_result_or_error():
    """Values that are not ints in [0, 2**20) in the domain or in a free
    variable: the quantifier runs as the loop, or reruns as it."""
    texts = ["ex v0 v0 = v1", "ex v0 E(v1,v0)", "all v0 (E(v0,v1) -> v0 = v1)",
             "ex v0 R(v1,v0)", "all v0 (R(v0,v1) | v1 = v0)"]
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
    atom = row_atoms(model, space)

    def leaf(g) -> int:  # atoms and diagonals alike
        return (atom(g) if isinstance(g, Atom) else diag(space, g.left, g.right)).bits

    bits = satisfaction_bits(space, f, leaf, lambda depth, var: ranges[depth, var])
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
    _plan.cache_clear()
    first = satisfaction_set(model, f, 3)
    assert satisfaction_set(model, f, 3) == first
    assert _plan.cache_info().misses == 1
    plan = _plan(f, False)
    # two atoms, and ex v2 R(v0,v1,v2) computed once
    assert len(plan.variables) == 2 and len(plan.kinds) == 4 and plan.constants == ()
    long_conj = _plan(conj([Atom("R", (i % 3, (i + 1) % 3)) for i in range(250)]), False)
    assert len(long_conj.kinds) == 249 and len(long_conj.blank) == 1  # one register reused


def test_diagonals_reach_the_leaf_hook_normalised():
    f = parse_formula("(v2 = v0 & v1 = v1) | (v0 = v2 & R(v1,v0)) | ex v1 v1 = v0")
    model = order_model()
    space = TupleSpace(3, 3)
    asked = []

    def leaf(g) -> int:
        asked.append(g)
        if isinstance(g, Atom):
            return row_atoms(model, space)(g).bits
        return diag(space, g.left, g.right).bits

    bits = satisfaction_bits(space, f, leaf)
    assert asked == [Eq(0, 2), Eq(1, 1), Atom("R", (1, 0)), Eq(0, 1)]
    assert bits == satisfaction_set(model, f, 3).bits


def test_atoms_pair_arguments_with_rows_as_zip_does():
    # an atom whose argument count differs from its relation's arity
    model = ModelFinite([0, 1, 2], {"E": [(0, 1), (1, 2), (2, 2)], "Z": [()]},
                        Vocabulary.of(E=2, Z=0))
    for text in ("E(v0,v1,v2)", "E(v0)", "ex v1 E(v1,v0,v0)", "E(v0,v0,v1) & E(v1)", "Z(v0)"):
        check_against_walker(parse_formula(text), model, 3, None)
    empty = ModelFinite([0, 1], {"E": []}, Vocabulary.of(E=2))
    check_against_walker(parse_formula("E(v0,v1,v1) | E(v1)"), empty, 2, None)
