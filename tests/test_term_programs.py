"""The compiled term evaluator and its lanes, against the per-node,
per-value walkers they replaced, and the term layout and the shared
formula compile, against the per-table layout, the tree-building compile
and the recursive validation they replaced (all kept here as oracles)."""

import gc
import random
import time
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baokit import (
    CapacityError,
    RaElement,
    RelationAlgebra,
    SetAlgebra,
    SignatureError,
    SpaceMismatchError,
    Term,
    UnboundVariableError,
    cyl,
    diag,
    eval_term,
    format_term,
    free_boolean_algebra,
    parse_term,
    subst,
)
from baokit import ModelFinite, cli, identities, parse_formula, satisfaction_set, tr
from baokit.compiler import (
    STAR,
    CompiledTerm,
    _plan_rewrite,
    _relation_symbols,
    compile_to_term,
    natural_atom_sets,
    restrict_formula,
)
from baokit.formulas import And, Atom, Eq, Exists, Iff, Implies, Not, Or
from baokit.hf import hf_universe
from baokit.library import load_corpus
from baokit.signatures import Signature, opref_str
from baokit.terms import (
    App,
    Const,
    Lanes,
    StraightLine,
    Var,
    eval_term_lanes,
    lane_batches,
    lanes_per_batch,
)


def oracle_apply(ambient, op, *args):
    """One operator applied through the Element-level kernels (a loop of
    cyl for disc), the relation methods and an identity built pair by
    pair: no operator table is read."""
    name, params = op
    if name == "zero":
        return ambient.zero
    if name == "one":
        return ambient.one
    if name == "id":
        return ambient.element((a, a) for a in range(ambient.base_size))
    if name == "diag":
        return diag(ambient.space, *params)
    if name == "and":
        return args[0] & args[1]
    if name == "or":
        return args[0] | args[1]
    if name == "not":
        return ~args[0]
    if name == "impl":
        return ~args[0] | args[1]
    if name == "cyl":
        return cyl(params[0], args[0])
    if name == "subst":
        return subst(*params, args[0])
    if name == "disc":
        out = args[0]
        for i in range(ambient.space.dimension):
            out = cyl(i, out)
        return out
    if name == "conv":
        return ambient.converse(args[0])
    if name == "comp":
        return ambient.compose(args[0], args[1])
    raise SignatureError(f"unsupported operator {name!r}")


def recursive_eval(term: Term, assignment, ambient):
    """The per-node walker that eval_term replaced: dispatch at every node,
    shared subterms evaluated once through a cache keyed by node identity."""
    if ambient.signature != term.signature:
        raise SignatureError(
            f"term over {term.signature.label} evaluated in {ambient.signature.label}"
        )
    cache: dict[int, object] = {}

    def ev(node):
        got = cache.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Var):
            try:
                value = assignment[node.index]
            except KeyError:
                raise UnboundVariableError(f"no value for variable {node.index}") from None
            if not ambient.contains(value):
                raise SignatureError(f"assignment for variable {node.index} is foreign")
        else:
            args = node.args if isinstance(node, App) else ()
            value = oracle_apply(ambient, node.op, *(ev(a) for a in args))
        cache[id(node)] = value
        return value

    return ev(term.root)


def _every_operator(ambient):
    """(op, arity) for every operator `ambient` allows, with a diagonal for
    every pair of coordinates, equal ones included."""
    signature = ambient.signature
    ops = _BOOLEAN_OPS + [(("zero", ()), 0), (("one", ()), 0)]
    ops += list(signature.operator_descriptors())
    if signature.kind == "CA":
        n = signature.dimension
        ops += [(("diag", (i, j)), 0) for i in range(n) for j in range(n) if i >= j]
    if signature.kind != "RA":
        ops.append((("disc", ()), 1))
    return ops


def _small_ambients():
    for u in (1, 2, 3):
        yield RelationAlgebra(u)
        for n in (1, 2, 3):
            for kind in ("BA", "DF", "SC", "CA"):
                yield SetAlgebra(kind, u, n)


def test_apply_matches_oracle_on_every_operator():
    rng = random.Random(11)
    checked = set()
    for ambient in _small_ambients():
        width = _width(ambient)
        if width <= 4:
            values = [_from_bits(ambient, b) for b in range(1 << width)]
        else:
            values = [ambient.zero, ambient.one]
            values += [ambient.random_element(rng) for _ in range(6)]
        for op, arity in _every_operator(ambient):
            checked.add(op[0])
            for args in iproduct(values, repeat=arity):
                got = ambient.apply(op, *args)
                want = oracle_apply(ambient, op, *args)
                assert type(got) is type(want) and got == want, (ambient, op, args)
    assert checked == {"zero", "one", "and", "or", "not", "impl", "cyl", "subst", "diag",
                       "disc", "id", "conv", "comp"}


def test_apply_rejects_foreign_operators_and_operands():
    ca = SetAlgebra("CA", 2, 2)
    for op in [("comp", ()), ("id", ()), ("subst", (0, 1)), ("cyl", (2,)), ("diag", (0, 2)),
               ("nope", ())]:
        with pytest.raises(SignatureError):
            ca.apply(op, ca.one)
    with pytest.raises(SignatureError):
        SetAlgebra("BA", 2, 2).apply(("cyl", (0,)), ca.one)
    with pytest.raises(SignatureError):
        SetAlgebra("SC", 2, 2).apply(("subst", (1, 1)), ca.one)
    ra = RelationAlgebra(2)
    for op in [("cyl", (0,)), ("disc", ()), ("diag", (0, 1)), ("nope", ())]:
        with pytest.raises(SignatureError):
            ra.apply(op, ra.one)
    for stranger in (SetAlgebra("CA", 3, 2).one, SetAlgebra("CA", 2, 3).one, ra.one):
        with pytest.raises(SpaceMismatchError):
            ca.apply(("and", ()), ca.one, stranger)
        with pytest.raises(SpaceMismatchError):
            ca.apply(("cyl", (0,)), stranger)
    for stranger in (RelationAlgebra(3).one, ca.one):
        with pytest.raises(SpaceMismatchError):
            ra.apply(("comp", ()), ra.one, stranger)
        with pytest.raises(SpaceMismatchError):
            ra.apply(("conv", ()), stranger)


def _from_bits(ambient, bits):
    if isinstance(ambient, RelationAlgebra):
        return RaElement(ambient.base_size, bits)
    return ambient.from_bits(bits)


def _width(ambient) -> int:
    if isinstance(ambient, RelationAlgebra):
        return ambient.base_size**2
    return ambient.space.size


_BOOLEAN_OPS = [(("and", ()), 2), (("or", ()), 2), (("not", ()), 1), (("impl", ()), 2)]


@st.composite
def ambients(draw, kinds=("BA", "DF", "SC", "CA", "RA")):
    kind = draw(st.sampled_from(kinds))
    if kind == "RA":
        return RelationAlgebra(draw(st.integers(1, 3)))
    return SetAlgebra(kind, draw(st.integers(1, 4)), draw(st.integers(1, 3)))


@st.composite
def dag_terms(draw, signature, max_ops=10):
    """A random term whose operator nodes may share any earlier node."""
    descriptors = signature.operator_descriptors()
    ops = _BOOLEAN_OPS + [(op, arity) for op, arity in descriptors if arity]
    constants = [("zero", ()), ("one", ())] + [op for op, arity in descriptors if not arity]
    n = signature.dimension
    if signature.kind == "CA":  # any pair, not only the descriptors' i < j
        constants += [("diag", (i, j)) for i in range(n) for j in range(n)]
    if signature.kind != "RA":
        ops.append((("disc", ()), 1))
    pool = [Var(i) for i in range(draw(st.integers(1, 3)))]
    pool += [Const(op) for op in draw(st.lists(st.sampled_from(constants), max_size=2))]
    for _ in range(draw(st.integers(0, max_ops))):
        op, arity = draw(st.sampled_from(ops))
        pool.append(App(op, tuple(draw(st.sampled_from(pool)) for _ in range(arity))))
    return Term(pool[-1], signature)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.data())
def test_compiled_eval_matches_recursive_walker(data):
    ambient = data.draw(ambients())
    term = data.draw(dag_terms(ambient.signature))
    width = _width(ambient)
    for _ in range(3):
        assignment = {
            i: _from_bits(ambient, data.draw(st.integers(0, (1 << width) - 1)))
            for i in range(3)
        }
        got = eval_term(term, assignment, ambient)
        assert type(got) is type(recursive_eval(term, assignment, ambient))
        assert got == recursive_eval(term, assignment, ambient)


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # compared by type and message below
        return type(exc), str(exc)
    return None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_compiled_eval_errors_match_recursive_walker(data):
    ambient = data.draw(ambients())
    term = data.draw(dag_terms(ambient.signature))
    assignment = {i: ambient.one for i in range(3)}
    missing = data.draw(st.sets(st.integers(0, 2)))
    foreign = data.draw(st.sets(st.integers(0, 2)))
    stranger = (
        RelationAlgebra(ambient.base_size + 1)
        if isinstance(ambient, RelationAlgebra)
        else SetAlgebra(ambient.signature.kind, ambient.space.base_size + 1, 1)
    )
    for i in foreign:
        assignment[i] = stranger.one
    for i in missing:
        del assignment[i]
    want = _raised(lambda: recursive_eval(term, assignment, ambient))
    assert _raised(lambda: eval_term(term, assignment, ambient)) == want


def test_eval_errors_name_the_first_variable_reached():
    amb = SetAlgebra("CA", 2, 2)
    term = parse_term("(and (var 2) (or (var 0) (var 1)))", amb.signature)
    with pytest.raises(UnboundVariableError, match="variable 2"):
        eval_term(term, {0: amb.one}, amb)
    foreign = SetAlgebra("CA", 3, 2).one
    with pytest.raises(SignatureError, match="variable 0 is foreign"):
        eval_term(term, {0: foreign, 1: foreign, 2: amb.one}, amb)
    with pytest.raises(SignatureError):
        eval_term(term, {}, SetAlgebra("SC", 2, 2))
    algebra, gens = free_boolean_algebra(1)  # evaluation needs a full algebra
    with pytest.raises(TypeError):
        eval_term(parse_term("(var 0)", algebra.signature), {0: gens[0]}, algebra)


def test_program_is_compiled_once_per_space():
    amb = SetAlgebra("CA", 3, 2)
    term = parse_term("(cyl 0 (and (var 0) (diag 0 1)))", amb.signature)
    eval_term(term, {0: amb.one}, amb)
    eval_term(term, {0: amb.zero}, amb)
    assert list(term._layout.bindings) == [(3, 2, 2)]
    eval_term_lanes(term, {0: [0, 1, 2, 3, 4]}, amb)  # five lanes: TupleSpace(3, 2 + 2)
    assert list(term._layout.bindings) == [(3, 2, 2), (3, 4, 2)]


def test_lane_counts_share_one_binding_per_space():
    """Batches of different lane counts that pad to one space share its
    kernels; only the last binding cut to a narrower top is kept, so a
    sweep over many sample counts does not grow what a term holds."""
    amb = SetAlgebra("CA", 3, 2)
    term = parse_term("(not (cyl 0 (and (var 0) (diag 0 1))))", amb.signature)
    for count, cut in ((5, 5), (4, 4), (9, 4), (7, 7), (5, 5)):  # each pads to 9 lanes
        values = list(range(count))
        want = [eval_term(term, {0: amb.from_bits(v)}, amb).bits for v in values]
        assert eval_term_lanes(term, {0: values}, amb) == want
        assert list(term._layout.bindings) == [(3, 2, 2), (3, 4, 2)]
        assert term._layout.narrowed[:2] == ((3, 4, 2), 9 * cut)  # 9 lanes need no cut
    tau = identities.order_terms(3)["tau"].term
    before = set(tau._layout.bindings)
    for samples in (10, 25, 11, 13):  # each a batch of TupleSpace(3, 3 + 3), 27 lanes
        identities.identity_sweep(3, samples=samples, seed=1)
    assert set(tau._layout.bindings) - before <= {(3, 6, 3)}
    assert tau._layout.narrowed[:2] == ((3, 6, 3), 27 * 13)


def test_result_registers_are_reused():
    layout = identities.order_terms(3)["sigma"].term._layout
    registers = len(layout.constants) + len(layout.variables) + len(layout.blank)
    assert registers < 16
    assert len(layout.kinds) > 4 * registers  # steps, more than fit without reuse


def test_compiling_a_term_leaves_no_reference_cycles():
    sigma = identities.order_terms(3)["sigma"].term
    amb = SetAlgebra("CA", 2, 3)
    fresh = Term(sigma.root, sigma.signature)  # nothing compiled yet
    gc.collect()
    gc.disable()
    try:
        eval_term(fresh, {0: amb.one}, amb)
        assert (2, 3, 3) in fresh._layout.bindings
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_term_print_parse_round_trip(data):
    ambient = data.draw(ambients())
    term = data.draw(dag_terms(ambient.signature, max_ops=8))
    assert parse_term(format_term(term), ambient.signature) == term


# -- lanes ---------------------------------------------------------------------


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_eval_term_lanes_matches_eval_term(data):
    ambient = data.draw(ambients())
    term = data.draw(dag_terms(ambient.signature))
    width = _width(ambient)
    count = data.draw(st.integers(1, 40))
    columns = {
        i: data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=count, max_size=count))
        for i in range(3)
    }
    got = eval_term_lanes(term, columns, ambient)
    want = [
        eval_term(term, {i: _from_bits(ambient, columns[i][lane]) for i in columns}, ambient).bits
        for lane in range(count)
    ]
    assert got == want


def test_eval_term_lanes_splits_into_batches():
    ambient = SetAlgebra("CA", 40, 3)  # 64,000 bits a value; 40**5 bits would pass 2**24
    assert lanes_per_batch(ambient) == 40
    assert [len(b) for b in lane_batches(ambient, 100)] == [40, 40, 20]
    term = parse_term(
        "(or (cyl 0 (and (var 0) (diag 0 2))) (and (var 1) (not (cyl 2 (var 0)))))",
        ambient.signature,
    )
    rng = random.Random(5)
    columns = {i: [rng.getrandbits(40**3) for _ in range(100)] for i in (0, 1)}
    got = eval_term_lanes(term, columns, ambient)
    for lane in range(100):
        env = {i: ambient.from_bits(columns[i][lane]) for i in (0, 1)}
        assert got[lane] == recursive_eval(term, env, ambient).bits


def test_lane_budget():
    assert lanes_per_batch(SetAlgebra("CA", 2, 3)) == 1 << 21
    assert lanes_per_batch(SetAlgebra("CA", 1, 3)) == 1
    assert lanes_per_batch(SetAlgebra("BA", 2, 24)) == 1
    assert lanes_per_batch(RelationAlgebra(3)) == 1
    with pytest.raises(ValueError):
        Lanes(SetAlgebra("CA", 40, 3), 41)


def test_eval_term_lanes_edge_cases():
    amb = SetAlgebra("CA", 2, 2)
    assert eval_term_lanes(parse_term("(diag 0 1)", amb.signature), {}, amb) == [0b1001]
    term = parse_term("(and (var 0) (var 1))", amb.signature)
    with pytest.raises(UnboundVariableError):
        eval_term_lanes(term, {0: [1, 2]}, amb)
    with pytest.raises(ValueError):
        eval_term_lanes(term, {0: [1, 2], 1: [3]}, amb)
    with pytest.raises(ValueError):
        eval_term_lanes(term, {0: [1, 16], 1: [3, 3]}, amb)
    with pytest.raises(SignatureError):
        eval_term_lanes(term, {0: [1], 1: [1]}, SetAlgebra("SC", 2, 2))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_lanes_pack_unpack_round_trip(u, n, data):
    ambient = SetAlgebra("BA", u, n)
    count = data.draw(st.integers(1, min(lanes_per_batch(ambient), 70)))
    width = u**n
    values = data.draw(
        st.lists(st.integers(0, (1 << width) - 1), min_size=count, max_size=count)
    )
    lanes = Lanes(ambient, count)
    packed = lanes.pack(values)
    assert packed == sum(v << (lane * width) for lane, v in enumerate(values))
    assert lanes.unpack(packed) == values
    assert lanes.unpack(packed | ~lanes.full & lanes.space.full_mask) == values


# -- the sweeps against their per-value loops ---------------------------------


def sweep_per_value(u, samples, seed, terms):
    """identity_sweep as it was: one value at a time, through the walker."""
    ambient = SetAlgebra("CA", u, 3)
    size = ambient.space.size
    if (1 << size) <= 4096:
        values = [ambient.from_bits(b) for b in range(1 << size)]
    else:
        rng = random.Random(seed)
        values = [ambient.random_element(rng) for _ in range(samples)]
    tau, sigma, delta = (terms[name].term for name in ("tau", "sigma", "delta"))
    failures = []
    for x in values:
        image = recursive_eval(tau, {0: x}, ambient)
        if recursive_eval(sigma, {0: image}, ambient) != x:
            failures.append(("sigma(tau(x)) = x", x.serialize()))
        if not recursive_eval(delta, {0: image}, ambient).is_full():
            failures.append(("delta(tau(x)) = 1", x.serialize()))
    return failures


def _mutated_order_terms(n=3):
    """sigma joined with a diagonal, delta met with c_0 of its argument:
    some values then fail one identity, some the other, some both."""
    terms = identities.order_terms(n)
    sigma, delta = terms["sigma"].term, terms["delta"].term
    return {
        "tau": terms["tau"],
        "sigma": CompiledTerm(
            Term(App(("or", ()), (sigma.root, Const(("diag", (0, 1))))), sigma.signature),
            terms["sigma"].symbols,
        ),
        "delta": CompiledTerm(
            Term(App(("and", ()), (delta.root, App(("cyl", (0,)), (Var(0),)))),
                 delta.signature),
            terms["delta"].symbols,
        ),
    }


@pytest.mark.parametrize("mutated", [False, True])
@pytest.mark.parametrize("u, samples, seed", [(2, 0, 0), (3, 60, 4)])
def test_identity_sweep_matches_per_value_loop(monkeypatch, u, samples, seed, mutated):
    terms = _mutated_order_terms() if mutated else identities.order_terms(3)
    monkeypatch.setattr(identities, "order_terms", lambda n=3: terms)
    want = sweep_per_value(u, samples, seed, terms)
    if mutated:
        names = [name for name, _ in want]
        assert len(set(names)) == 2 and names != sorted(names)
    else:
        assert not want
    # one batch, then batches of 9 lanes of 27 bits (u = 3) or 16 of 8 (u = 2)
    for budget in (None, 3**5):
        if budget is not None:
            monkeypatch.setattr("baokit.terms.MAX_SPACE_BITS", budget)
        result = identities.identity_sweep(u, samples=samples, seed=seed)
        assert result.failures == want
        assert result.total == (256 if u == 2 else samples)


@pytest.mark.parametrize("which, name", [("sigma", "sigma(tau(x)) = x"),
                                         ("delta", "delta(tau(x)) = 1")])
def test_identity_sweep_finds_one_identity_failing_alone(monkeypatch, which, name):
    """Only one of the two mutated terms: every batch that fails, fails
    that identity alone, which the check of both at once must still see."""
    terms = dict(identities.order_terms(3))
    terms[which] = _mutated_order_terms()[which]
    monkeypatch.setattr(identities, "order_terms", lambda n=3: terms)
    want = sweep_per_value(3, 60, 4, terms)
    assert want and {failure for failure, _ in want} == {name}
    for budget in (None, 3**5):
        if budget is not None:
            monkeypatch.setattr("baokit.terms.MAX_SPACE_BITS", budget)
        assert identities.identity_sweep(3, samples=60, seed=4).failures == want


def check_identity_per_assignment(argv):
    """check-identity's report details as they were: one assignment at a
    time through the walker, stopping at the third counterexample."""
    args = cli.build_parser().parse_args(argv)
    ambient = (
        RelationAlgebra(args.u) if args.kind == "RA" else SetAlgebra(args.kind, args.u, args.n)
    )
    lhs = parse_term(args.lhs, ambient.signature)
    rhs = parse_term(args.rhs, ambient.signature)
    var_count = max(lhs.var_count, rhs.var_count)
    size = _width(ambient)
    exhaustive = var_count * size <= 16 and (1 << size) ** var_count <= 65536
    rng = random.Random(args.seed)

    def assignments():
        if exhaustive:
            for index in range((1 << size) ** var_count):
                yield {
                    i: _from_bits(ambient, (index >> (i * size)) & ((1 << size) - 1))
                    for i in range(var_count)
                }
        else:
            for _ in range(args.samples):
                yield {i: ambient.random_element(rng) for i in range(var_count)}

    failures = []
    total = 0
    for assignment in assignments():
        total += 1
        if recursive_eval(lhs, assignment, ambient) != recursive_eval(rhs, assignment, ambient):
            failures.append({k: v.serialize() for k, v in assignment.items()})
            if len(failures) >= 3:
                break
    return {"cases": total, "exhaustive": exhaustive, "counterexamples": failures}


CHECK_IDENTITY_CASES = [
    # false, exhaustive; the counterexamples need variable 3, which varies slowest
    pytest.param("BA", 2, 2, "(and (var 3) (var 0))", "(and (var 3) (and (var 0) (var 1)))",
                 [], id="BA-exhaustive-late-fail"),
    pytest.param("BA", 2, 1, "(var 0)", "(var 1)", [], id="BA-exhaustive-fail"),
    pytest.param("CA", 2, 2, "(cyl 1 (or (var 0) (var 1)))",
                 "(or (cyl 1 (var 0)) (cyl 1 (var 1)))", [], id="CA-exhaustive-pass"),
    # false, sampled, with sparse counterexamples
    pytest.param("BA", 2, 3, "(and (var 0) (and (var 1) (var 2)))",
                 "(and (and (var 0) (var 1)) (and (var 2) (var 3)))",
                 ["--samples", "40", "--seed", "3"], id="BA-sampled-sparse-fail"),
    pytest.param("CA", 3, 3, "(cyl 0 (var 0))", "(var 0)", ["--samples", "30", "--seed", "5"],
                 id="CA-sampled-fail"),
    pytest.param("SC", 3, 2, "(subst 0 1 (var 0))", "(subst 1 0 (var 0))",
                 ["--samples", "50", "--seed", "2"], id="SC-sampled-fail"),
    pytest.param("DF", 2, 3, "(disc (var 0))", "(cyl 0 (cyl 1 (cyl 2 (var 0))))", [],
                 id="DF-exhaustive-pass"),
    pytest.param("CA", 2, 2, "(diag 0 1)", "one", [], id="CA-closed-fail"),
    # relations: one lane per batch
    pytest.param("RA", 2, 2, "(comp (var 0) (var 1))", "(comp (var 1) (var 0))", [],
                 id="RA-exhaustive-fail"),
    pytest.param("RA", 3, 2, "(comp (var 0) (var 1))", "(comp (var 1) (var 0))",
                 ["--samples", "20", "--seed", "1"], id="RA-sampled-fail"),
]


@pytest.mark.parametrize("kind, u, n, lhs, rhs, extra", CHECK_IDENTITY_CASES)
def test_check_identity_matches_per_assignment_loop(monkeypatch, kind, u, n, lhs, rhs, extra):
    argv = ["check-identity", "--kind", kind, "--u", str(u), "--n", str(n),
            "--lhs", lhs, "--rhs", rhs, *extra]
    want = check_identity_per_assignment(argv)
    # one batch, then batches of 16 // u**n lanes, or of one
    for budget in (None, 16):
        if budget is not None:
            monkeypatch.setattr("baokit.terms.MAX_SPACE_BITS", budget)
        report = cli._cmd_check_identity(cli.build_parser().parse_args(argv))
        assert report.details == want


def test_check_identity_bounds_each_batch_not_the_run(monkeypatch):
    # 60 samples of two 9-bit values draw 1,080 bits; one assignment is 18
    argv = ["check-identity", "--kind", "CA", "--u", "3", "--n", "2",
            "--lhs", "(cyl 0 (and (var 0) (var 1)))",
            "--rhs", "(and (cyl 0 (var 0)) (cyl 0 (var 1)))", "--samples", "60", "--seed", "4"]
    want = check_identity_per_assignment(argv)
    assert want["counterexamples"]
    drawn = []
    spy = lambda term, columns, ambient: (drawn.append(len(columns[0])),
                                          eval_term_lanes(term, columns, ambient))[1]
    monkeypatch.setattr(cli, "eval_term_lanes", spy)
    for budget, lanes in ((10**6, 60), (40, 2), (18, 1)):
        monkeypatch.setattr("baokit.terms.MAX_SPACE_BITS", budget)
        monkeypatch.setattr(cli, "MAX_SPACE_BITS", budget)
        drawn.clear()
        report = cli._cmd_check_identity(cli.build_parser().parse_args(argv))
        assert report.details == want
        assert max(drawn) == lanes
    with pytest.raises(CapacityError, match="an assignment of 2 variables passes 17 bits"):
        monkeypatch.setattr(cli, "MAX_SPACE_BITS", 17)
        cli._cmd_check_identity(cli.build_parser().parse_args(argv))


# -- one layout per term, equal subformulas shared ----------------------------


def tree_compile_to_term(f, kind, n):
    """compile_to_term as it was: a new node for every occurrence of a
    subformula, so the term is a tree apart from the two sides of a
    biconditional."""
    symbols = sorted(_relation_symbols(f))
    slot = {s: i for i, s in enumerate(symbols)}

    def atom_term(g, bound):
        base = Var(slot[g.rel])
        if g.args == tuple(range(len(g.args))) and bound is None:
            return base
        target = tuple(STAR if bound is not None and a == bound else a for a in g.args)
        star_slot, steps = _plan_rewrite(target, n, star_ok=bound is not None)
        out = base
        if star_slot is not None:
            out = App(("cyl", (star_slot,)), (out,))
        for i, j in steps:
            if kind == "SC":
                out = App(("subst", (i, j)), (out,))
            else:
                diagonal = Const(("diag", (min(i, j), max(i, j))))
                out = App(("cyl", (i,)), (App(("and", ()), (diagonal, out)),))
        return out

    def walk(g):
        if isinstance(g, Atom):
            return atom_term(g, None)
        if isinstance(g, Eq):
            if g.left == g.right:
                return Const(("one", ()))
            return Const(("diag", (min(g.left, g.right), max(g.left, g.right))))
        if isinstance(g, Not):
            return App(("not", ()), (walk(g.body),))
        if isinstance(g, (And, Or, Implies)):
            name = {And: "and", Or: "or", Implies: "impl"}[type(g)]
            return App((name, ()), (walk(g.left), walk(g.right)))
        if isinstance(g, Iff):
            a, b = walk(g.left), walk(g.right)
            return App(("and", ()), (App(("impl", ()), (a, b)), App(("impl", ()), (b, a))))
        if isinstance(g, Exists):
            if isinstance(g.body, Atom) and g.var in g.body.args:
                return atom_term(g.body, g.var)
            return App(("cyl", (g.var,)), (walk(g.body),))
        inner = App(("not", ()), (walk(g.body),))
        return App(("not", ()), (App(("cyl", (g.var,)), (inner,)),))

    return CompiledTerm(Term(walk(f), Signature(kind, n)), tuple(symbols))


def per_table_compile(term, operators):
    """The term laid out anew for each operator table, as it was: nodes
    told apart by identity, children before parents; returns the run of
    the program on raw variable values, by index."""
    order, seen = [], set()
    stack = [(term.root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, App):
                stack.append((node, True))
                stack.extend((a, False) for a in reversed(node.args))
            else:
                order.append(node)
    constants = list(dict.fromkeys(n.op for n in order if isinstance(n, Const)))
    variables = list(dict.fromkeys(n.index for n in order if isinstance(n, Var)))
    number = {}
    apps = []
    for node in order:
        if isinstance(node, Const):
            number[id(node)] = constants.index(node.op)
        elif isinstance(node, Var):
            number[id(node)] = len(constants) + variables.index(node.index)
        else:
            number[id(node)] = len(constants) + len(variables) + len(apps)
            apps.append(node)
    program = StraightLine(
        len(constants) + len(variables),
        [tuple(number[id(a)] for a in node.args) for node in apps],
        number[id(term.root)],
    )
    values = [operators.constant(op) for op in constants]
    functions = [operators.function(node.op) for node in apps]
    return lambda bits: program.execute(functions, values + [bits[i] for i in variables])


def _corpus_cases():
    models = [hf_universe(rank).model() for rank in (1, 2)] + [
        ModelFinite([0, 1, 2], {"E": rows}) for rows in ([(0, 1), (1, 2)], [(0, 1), (1, 0), (2, 2)])
    ]
    for name, formula in load_corpus():
        for kind in ("CA", "SC"):
            f = restrict_formula(formula, 3) if kind == "CA" else tr(formula)
            for model in models:
                yield name, f, kind, model


def test_shared_compile_matches_tree_compile_on_the_corpus():
    rng = random.Random(13)
    checked = 0
    for name, f, kind, model in _corpus_cases():
        shared = compile_to_term(f, kind, 3)
        tree = tree_compile_to_term(f, kind, 3)
        assert shared.symbols == tree.symbols
        assert format_term(shared.term) == format_term(tree.term), name
        ambient = SetAlgebra(kind, model.carrier_size, 3)
        run = per_table_compile(tree.term, ambient.operators)
        gens = natural_atom_sets(model, shared.symbols, 3)
        bits = {i: gens[s].bits for i, s in enumerate(shared.symbols)}
        want = run(bits)
        assert shared.evaluate(ambient, gens).bits == want, (name, kind)
        assert want == satisfaction_set(model, f, 3).bits, (name, kind)
        # lanes: the generators, then random values for each symbol
        width = ambient.space.size
        columns = {i: [b] + [rng.getrandbits(width) for _ in range(4)] for i, b in bits.items()}
        count = 5 if columns else 1  # no symbols: one lane, the empty assignment
        lanes = eval_term_lanes(shared.term, columns, ambient)
        assert lanes == [run({i: c[lane] for i, c in columns.items()}) for lane in range(count)]
        checked += 1
    assert checked == 30 * 2 * 4


def test_shared_compile_lays_out_fewer_steps(monkeypatch):
    """Counts as "tree" the operator nodes that the tree-building compile
    makes: the steps it laid out when nodes were told apart by identity.
    Its own layout now shares equal nodes too, as they are one object."""
    built = []
    app = App
    monkeypatch.setitem(globals(), "App", lambda op, args: built.append(op) or app(op, args))
    steps = {"shared": 0, "tree": 0}
    for name, f, kind, model in _corpus_cases():
        if model.carrier_size == 2:  # each formula and kind once, on rank 1
            steps["shared"] += len(compile_to_term(f, kind, 3).term._layout.kinds)
            tree_compile_to_term(f, kind, 3)
    steps["tree"] = len(built)
    assert steps == {"shared": 1325, "tree": 3763}


def _chain(atoms: int):
    return parse_formula(" <-> ".join(["E(v0,v1)"] * atoms))


def test_hash_and_eq_on_a_chain_term_take_constant_time():
    """The 18-atom chain term is a DAG of 50 steps whose tree has 786,427
    nodes: two builds of it are equal, and comparing and hashing them must
    not walk that tree."""
    first, second = (compile_to_term.__wrapped__(_chain(18), "CA", 2).term for _ in range(2))
    assert first is not second
    start = time.perf_counter()
    assert first == second and hash(first) == hash(second)
    assert time.perf_counter() - start < 0.05


def test_repr_of_a_chain_term_is_its_layout_size(monkeypatch):
    term = compile_to_term(restrict_formula(_chain(101), 3), "CA", 3).term

    def tree_text(_):
        raise AssertionError("repr must not print the term's tree")

    monkeypatch.setattr("baokit.terms.format_term", tree_text)
    start = time.perf_counter()
    text = repr(term)
    assert time.perf_counter() - start < 0.1
    layout = term._layout
    assert text == f"Term(CA_3, steps={len(layout.kinds)}, variables={len(layout.variables)})"


def recursive_validate(node, signature) -> int:
    """Term validation as it was: a recursive walk of the whole tree,
    checking each node before its arguments; the max variable index."""
    if isinstance(node, Var):
        if node.index < 0:
            raise SignatureError("variable indices must be nonnegative")
        return node.index
    if isinstance(node, Const):
        if signature.op_arity(node.op) != 0 or not signature.allows(node.op):
            raise SignatureError(f"{opref_str(node.op)} is not a constant of {signature.label}")
        return -1
    if isinstance(node, App):
        if not signature.allows(node.op):
            raise SignatureError(f"{opref_str(node.op)} is not in {signature.label}")
        if signature.op_arity(node.op) != len(node.args):
            raise SignatureError(f"{opref_str(node.op)} applied to {len(node.args)} arguments")
        return max([recursive_validate(a, signature) for a in node.args], default=-1)
    raise TypeError(f"not a term node: {node!r}")


@st.composite
def flawed_nodes(draw, pool):
    """A node that fails validation in one of several ways, each named
    apart by a drawn parameter."""
    k = draw(st.integers(0, 9))
    return draw(st.sampled_from([
        Var(-1 - k),
        Const(("cyl", (k,))),  # not a constant
        Const(("nope", (k,))),
        App(("nope", (k,)), (pool[-1],)),
        App(("and", ()), (pool[-1],) * (k % 2 * 2 + 1)),  # one or three arguments
        App(("cyl", (k + 5,)), (pool[-1],)),  # past every dimension drawn
        f"junk {k}",
    ]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_first_signature_error_matches_recursive_validation(data):
    ambient = data.draw(ambients(kinds=("BA", "SC", "CA", "RA")))
    signature = ambient.signature
    term = data.draw(dag_terms(signature, max_ops=8))
    pool = [term.root]
    flaws = 0
    for _ in range(data.draw(st.integers(6, 12))):
        if flaws < 2 and data.draw(st.booleans()):
            pool.append(data.draw(flawed_nodes(pool)))
            flaws += 1
        else:
            arity = data.draw(st.integers(1, 2))
            op = ("and", ()) if arity == 2 else ("not", ())
            pool.append(App(op, tuple(data.draw(st.sampled_from(pool)) for _ in range(arity))))
    root = App(("or", ()), (pool[-1], App(("and", ()), tuple(pool[-2:]))))
    want = _raised(lambda: recursive_validate(root, signature))
    assert _raised(lambda: Term(root, signature)) == want
    if want is None:
        assert Term(root, signature).var_count == recursive_validate(root, signature) + 1


def test_validation_of_two_flawed_nodes_reports_the_first():
    signature = Signature("CA", 2)
    inner = Const(("diag", (0, 9)))  # flawed, and shared under another flawed node
    outer = App(("cyl", (7,)), (App(("not", ()), (inner,)),))
    for root, want in [(App(("or", ()), (outer, inner)), "cyl:7 is not in CA_2"),
                       (App(("or", ()), (inner, outer)), "diag:0,9 is not a constant of CA_2")]:
        assert _raised(lambda: recursive_validate(root, signature)) == (SignatureError, want)
        assert _raised(lambda: Term(root, signature)) == (SignatureError, want)
