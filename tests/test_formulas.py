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
    parse_formula(" & ".join([atom] * 300))  # long flat chains are not nesting


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


def _occurrences(f) -> int:
    if isinstance(f, (Atom, Eq)):
        return 1
    if isinstance(f, (Not, Exists, Forall)):
        return 1 + _occurrences(f.body)
    return 1 + _occurrences(f.left) + _occurrences(f.right)


def test_formula_hash_is_computed_once_per_node(monkeypatch):
    from baokit.library import ord_formula

    first, second = ord_formula(), ord_formula()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert hash(Not(Atom("E", (0, 1)))) == hash(Not(Atom("E", (0, 1))))
    assert Not(Atom("E", (0, 1))) != Not(Atom("E", (1, 0)))

    calls = []
    for cls in (Atom, Eq, Not, And, Or, Implies, Iff, Exists, Forall):
        original = cls.__hash__

        def counted(self, original=original):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(cls, "__hash__", counted)
    fresh = ord_formula()
    value = hash(fresh)
    assert len(calls) == _occurrences(fresh)  # one walk, each node once
    assert hash(fresh) == value
    assert len(calls) == _occurrences(fresh) + 1  # the second hash stops at the root
    assert value == hash(first)


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
