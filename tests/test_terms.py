import pytest

from baokit import (
    RelationAlgebra,
    SetAlgebra,
    Signature,
    SignatureError,
    Term,
    UnboundVariableError,
    cyl,
    eval_term,
    format_term,
    parse_term,
)
from baokit.formulas import MAX_NESTING
from baokit.terms import App, Const, Var


def test_parse_format_roundtrip():
    sig = Signature("CA", 2)
    texts = [
        "(and (cyl 0 (var 0)) (not (diag 0 1)))",
        "(or zero (impl (var 1) one))",
        "(disc (var 0))",
    ]
    for text in texts:
        term = parse_term(text, sig)
        assert format_term(term) == text
        assert parse_term(format_term(term), sig) == term


def test_parse_ra_terms():
    sig = Signature("RA")
    term = parse_term("(comp (conv (var 0)) id)", sig)
    assert format_term(term) == "(comp (conv (var 0)) id)"


def test_term_nesting_past_the_limit_is_a_syntax_error():
    sig = Signature("BA")
    parse_term("(not " * (MAX_NESTING - 1) + "(var 0)" + ")" * (MAX_NESTING - 1), sig)
    deeper = "(not " * MAX_NESTING + "(var 0)" + ")" * MAX_NESTING
    with pytest.raises(ValueError, match=r"nesting deeper than 100 levels \(at token 200\)"):
        parse_term(deeper, sig)


def test_signature_validation():
    with pytest.raises(SignatureError):
        Term(App(("subst", (0, 1)), (Var(0),)), Signature("CA", 2))
    with pytest.raises(SignatureError):
        Term(Const(("diag", (0, 1))), Signature("SC", 2))
    with pytest.raises(SignatureError):
        Term(App(("cyl", (3,)), (Var(0),)), Signature("CA", 2))


def test_eval_cyl_on_order_generator():
    amb = SetAlgebra("CA", 3, 3)
    x = amb.element([s for s in amb.space.tuples() if s[0] < s[1]])
    term = parse_term("(cyl 0 (var 0))", amb.signature)
    assert eval_term(term, {0: x}, amb) == cyl(0, x)
    assert eval_term(term, {0: x}, amb) == amb.element(
        [s for s in amb.space.tuples() if s[1] >= 1]
    )


def test_eval_contradiction_is_zero():
    amb = SetAlgebra("CA", 2, 2)
    term = parse_term("(and (var 0) (not (var 0)))", amb.signature)
    for bits in range(16):
        assert eval_term(term, {0: amb.from_bits(bits)}, amb).is_zero()


def test_eval_unbound_variable():
    amb = SetAlgebra("CA", 2, 2)
    term = parse_term("(var 1)", amb.signature)
    with pytest.raises(UnboundVariableError):
        eval_term(term, {0: amb.one}, amb)


def test_eval_signature_mismatch():
    ca = SetAlgebra("CA", 2, 2)
    sc = SetAlgebra("SC", 2, 2)
    term = parse_term("(var 0)", ca.signature)
    with pytest.raises(SignatureError):
        eval_term(term, {0: sc.one}, sc)


def test_eval_ra_residual_chain():
    ra = RelationAlgebra(3)
    p = ra.element([(0, 1), (1, 2)])
    term = parse_term("(impl (comp (conv (var 0)) (var 0)) id)", ra.signature)
    value = eval_term(term, {0: p}, ra)
    assert value == ra.residual(ra.compose(ra.converse(p), p), ra.identity)


def test_shared_subterm_evaluated_once():
    amb = SetAlgebra("CA", 2, 2)
    inner = App(("cyl", (0,)), (Var(0),))
    term = Term(App(("and", ()), (inner, inner)), amb.signature)
    x = amb.element([(0, 1)])
    assert eval_term(term, {0: x}, amb) == cyl(0, x)
