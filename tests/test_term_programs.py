"""The compiled term evaluator and its lanes, against the per-node,
per-value walkers they replaced (kept here as oracles)."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baokit import (
    RaElement,
    RelationAlgebra,
    SetAlgebra,
    SignatureError,
    Term,
    UnboundVariableError,
    eval_term,
    format_term,
    free_boolean_algebra,
    parse_term,
)
from baokit import cli, identities
from baokit.compiler import CompiledTerm
from baokit.terms import (
    App,
    Const,
    Lanes,
    Var,
    eval_term_lanes,
    lane_batches,
    lanes_per_batch,
)


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
        elif isinstance(node, Const):
            value = ambient.apply(node.op)
        else:
            name = node.op[0]
            if name == "and":
                value = ev(node.args[0]) & ev(node.args[1])
            elif name == "or":
                value = ev(node.args[0]) | ev(node.args[1])
            elif name == "not":
                value = ~ev(node.args[0])
            elif name == "impl":
                value = ~ev(node.args[0]) | ev(node.args[1])
            else:
                value = ambient.apply(node.op, *(ev(a) for a in node.args))
        cache[id(node)] = value
        return value

    return ev(term.root)


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
    assert list(term._programs) == [(3, 2, 2)]
    eval_term_lanes(term, {0: [0, 1, 2, 3, 4]}, amb)  # five lanes: TupleSpace(3, 2 + 2)
    assert list(term._programs) == [(3, 2, 2), (3, 4, 2)]


def test_result_registers_are_reused():
    sigma = identities.order_terms(3)["sigma"].term
    amb = SetAlgebra("CA", 2, 3)
    eval_term(sigma, {0: amb.one}, amb)
    program = sigma._programs[(2, 3, 3)]
    assert len(program.functions) > 100  # steps
    assert len(program.constants) + 1 + len(program.blank) < 16  # registers


def test_compiling_a_term_leaves_no_reference_cycles():
    sigma = identities.order_terms(3)["sigma"].term
    amb = SetAlgebra("CA", 2, 3)
    fresh = Term(sigma.root, sigma.signature)  # nothing compiled yet
    gc.collect()
    gc.disable()
    try:
        eval_term(fresh, {0: amb.one}, amb)
        assert (2, 3, 3) in fresh._programs
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
