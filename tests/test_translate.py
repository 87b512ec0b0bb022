import pytest

from baokit import (
    Atom,
    Eq,
    Forall,
    Iff,
    ModelFinite,
    duplicated_model,
    hf_universe,
    leibniz_quotient,
    parse_formula,
    quotient_transfers,
    satisfaction_set,
    tr,
    tr_equivalent_on,
)
from baokit.library import load_corpus
from baokit.translate import StrongCongruenceError, strong_congruence_witness


def test_tr_basic_replacement():
    out = tr(Eq(0, 1))
    assert out == Forall(2, Iff(Atom("E", (2, 0)), Atom("E", (2, 1))))


def test_tr_identity_on_equality_free():
    f = parse_formula("E(v0,v1) & ex v2 E(v2,v2)")
    assert tr(f) is f


def test_tr_is_built_once_per_formula():
    f = parse_formula("ex v2 (v0 = v2 & E(v2,v1))")
    assert tr(f) is tr(f)
    assert tr(f) is tr(parse_formula("ex v2 (v0 = v2 & E(v2,v1))"))


def test_tr_reflexive_equality_becomes_tautology():
    out = tr(Eq(1, 1))
    assert out == Forall(0, Iff(Atom("E", (0, 1)), Atom("E", (0, 1))))
    m = hf_universe(2).model()
    assert satisfaction_set(m, out, 3).is_full()


def test_tr_sound_on_extensional_models():
    f = parse_formula("ex v0 v0 = v1")
    for rank in (1, 2, 3):
        m = hf_universe(rank).model()
        assert tr_equivalent_on(m, f, 3)


def test_tr_sound_for_whole_corpus_up_to_rank_3():
    corpus = load_corpus()
    for rank in (1, 2, 3):
        m = hf_universe(rank).model()
        for name, f in corpus:
            assert tr_equivalent_on(m, f, 3), name


def test_tr_can_fail_without_extensionality():
    # two points with equal extensions but distinguished by equality
    m = ModelFinite([0, 1], {"E": []})
    f = parse_formula("v0 = v1")
    assert not tr_equivalent_on(m, f, 3)


def test_leibniz_quotient_empty_relation():
    m = ModelFinite([0, 1], {"E": []})
    quotient, projection = leibniz_quotient(m)
    assert quotient.carrier_size == 1
    assert projection == [0, 0]


def test_leibniz_identity_on_extensional():
    for rank in (1, 2, 3):
        m = hf_universe(rank).model()
        quotient, projection = leibniz_quotient(m)
        assert quotient.carrier_size == m.carrier_size
        assert sorted(projection) == list(range(m.carrier_size))


def test_duplicated_model_quotient_restores_original():
    base = hf_universe(2).model()
    doubled = duplicated_model(base)
    assert strong_congruence_witness(doubled) is None
    quotient, projection = leibniz_quotient(doubled)
    assert quotient.carrier_size == base.carrier_size
    # membership structure carries over
    table = {
        (projection[a], projection[b])
        for a in range(doubled.carrier_size)
        for b in range(doubled.carrier_size)
        if doubled.rel_holds("E", (a, b))
    }
    assert table == set(quotient.relation_table("E"))


def test_strong_congruence_witness_groups_the_carrier_once(monkeypatch):
    import baokit.translate

    calls = []
    original = baokit.translate.leibniz_classes

    def counting(model):
        calls.append(model)
        return original(model)

    monkeypatch.setattr(baokit.translate, "leibniz_classes", counting)
    doubled = duplicated_model(hf_universe(3).model())
    assert strong_congruence_witness(doubled) is None
    assert len(calls) == 1


def test_strong_congruence_witness_quadruple():
    # 0 and 1 share an empty extension, but only 0 is a member of 2
    m = ModelFinite([0, 1, 2], {"E": [(0, 2)]})
    witness = strong_congruence_witness(m)
    assert witness is not None
    assert {witness.a, witness.a2} == {0, 1}
    with pytest.raises(StrongCongruenceError):
        leibniz_quotient(m)


def test_quotient_transfer_on_corpus():
    corpus = load_corpus()
    models = [hf_universe(r).model() for r in (1, 2)]
    models += [duplicated_model(m) for m in models]
    for name, f in corpus:
        for m in models:
            assert quotient_transfers(m, f, 3), name
