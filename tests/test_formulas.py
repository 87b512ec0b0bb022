import copy
import gc
import pickle
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baokit import (
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    Or,
    Vocabulary,
    format_formula,
    free_vars,
    max_var_index,
    parse_formula,
    quantifier_depth,
)
from baokit.formulas import MAX_NESTING


def test_parse_examples():
    assert parse_formula("E(v0,v1)") == Atom("E", (0, 1))
    tr_body = parse_formula("all v2 (E(v2,v0) <-> E(v2,v1))")
    assert tr_body == Forall(2, Iff(Atom("E", (2, 0)), Atom("E", (2, 1))))
    assert parse_formula("ex v0 R(v0,v1,v2)") == Exists(0, Atom("R", (0, 1, 2)))


def test_parse_connectives_and_precedence():
    f = parse_formula("E(v0,v1) & !v0 = v1 -> E(v1,v0) | E(v0,v0)")
    assert isinstance(f, Implies)
    assert isinstance(f.left, And)
    assert isinstance(f.right, Or)
    g = parse_formula("v0 != v1")
    assert g == Not(Eq(0, 1))


def test_roundtrip_through_printer():
    texts = [
        "E(v0,v1)",
        "v0 = v1",
        "v0 != v1",
        "all v2 (E(v2,v0) <-> E(v2,v1))",
        "ex v0 R(v0,v1,v2)",
        "(E(v0,v1) | v0 = v2) & !E(v1,v1)",
        "all v0 (ex v1 (E(v0,v1) -> E(v1,v0) -> v0 = v1))",
        "ex v1 !E(v0,v1)",
    ]
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(format_formula(f)) == f


def test_syntax_errors_carry_positions():
    with pytest.raises(FormulaSyntaxError) as info:
        parse_formula("E(v0,v1) &")
    assert info.value.position == len("E(v0,v1) &")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("E(v0 v1)")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("all x E(v0,v1)")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("E(v0,v1) extra")


def test_nesting_past_the_limit_is_a_syntax_error():
    atom = "E(v0,v1)"
    for opener, closer in (("(", ")"), ("!", ""), ("ex v0 ", "")):
        parse_formula(opener * MAX_NESTING + atom + closer * MAX_NESTING)
        deeper = opener * (MAX_NESTING + 1) + atom + closer * (MAX_NESTING + 1)
        with pytest.raises(FormulaSyntaxError, match="nesting deeper than 100") as info:
            parse_formula(deeper)
        assert info.value.position == len(opener) * MAX_NESTING
    parse_formula("(!ex v0 " * 33 + "!" + atom + ")" * 33)  # the three kinds add up
    with pytest.raises(FormulaSyntaxError, match="nesting"):
        parse_formula("(!ex v0 " * 34 + atom + ")" * 34)
    for op in (" & ", " | ", " -> ", " <-> "):  # flat chains nest the tree
        parse_formula(op.join([atom] * (MAX_NESTING + 1)))
        deeper = op.join([atom] * (MAX_NESTING + 2))
        with pytest.raises(FormulaSyntaxError, match="nesting deeper than 100") as info:
            parse_formula(deeper)
        assert deeper[info.value.position :].startswith(op.strip())
        with pytest.raises(FormulaSyntaxError, match="nesting deeper than 100") as info:
            parse_formula("!(" + op.join([atom] * (MAX_NESTING + 1)) + ")")
        assert info.value.position == 0


def test_cached_attributes():
    f = parse_formula("all v2 (E(v2,v0) <-> E(v2,v1))")
    assert free_vars(f) == frozenset({0, 1})
    assert max_var_index(f) == 2
    assert quantifier_depth(f) == 1
    g = parse_formula("ex v0 (all v1 (E(v0,v1) & ex v2 E(v2,v2)))")
    assert quantifier_depth(g) == 3
    assert free_vars(g) == frozenset()


def test_vocabulary_checks():
    vocab = Vocabulary.of(E=2, R=3)
    assert "E" in vocab
    assert vocab.arity("R") == 3
    from baokit.formulas import check_vocabulary

    check_vocabulary(parse_formula("E(v0,v1)"), vocab)
    with pytest.raises(ValueError):
        check_vocabulary(parse_formula("E(v0,v1,v2)"), vocab)
    with pytest.raises(ValueError):
        check_vocabulary(parse_formula("Q(v0)"), vocab)


def test_equal_formulas_are_one_interned_object():
    from baokit.library import ord_formula

    first = ord_formula()
    assert ord_formula() is first
    text = format_formula(first)
    assert parse_formula(text) is parse_formula(text) is first
    assert pickle.loads(pickle.dumps(first)) is first
    assert copy.deepcopy(first) is first and copy.copy(first) is first
    assert Not(Atom("E", (0, 1))) is not Not(Atom("E", (1, 0)))
    with pytest.raises(AttributeError):
        first.left = first.right
    from baokit.terms import App, Var

    term = App(("not", ()), (Var(0),))
    assert App(("not", ()), (Var(0),)) is term is pickle.loads(pickle.dumps(term))


def test_an_unreferenced_node_is_freed():
    node = Exists(7, Not(Atom("freed_only_here", (7, 8))))
    refs = [weakref.ref(node), weakref.ref(node.body), weakref.ref(node.body.body)]
    del node
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3


def test_threads_building_one_formula_at_once_get_one_object():
    start = threading.Barrier(4)
    built = [None] * 4

    def build(k):
        start.wait(timeout=60)
        f = Atom("built_by_threads", (0, 1))
        for i in range(300):
            f = (And, Or, Implies, Iff)[i % 4](Exists(i % 3, f), Atom("built_by_threads", (i % 3, 0)))
        built[k] = f

    threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that the builds interleave
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert built[0] is not None and all(f is built[0] for f in built)


VARS = st.integers(0, 12)
FORMULAS = st.recursive(
    st.one_of(
        st.builds(Atom, st.sampled_from(["E", "R", "P2", "all_", "ex1"]),
                  st.lists(VARS, min_size=1, max_size=3).map(tuple)),
        st.builds(Eq, VARS, VARS),
    ),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        *(st.builds(op, sub, sub) for op in (And, Or, Implies, Iff)),
        *(st.builds(q, VARS, sub) for q in (Exists, Forall)),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(f=FORMULAS)
def test_formula_print_parse_round_trip(f):
    text = format_formula(f)
    assert parse_formula(text) == f, text
