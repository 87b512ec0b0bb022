import dataclasses
import random
from itertools import permutations

import pytest

from baokit import (
    CapacityError,
    HFSet,
    PreconditionError,
    RelationAlgebra,
    arith_oracles,
    bijection_exists,
    decode_pair,
    hf_universe,
    holds,
    kuratowski,
    ordinal_hf,
    ordinal_oracles,
    quasiprojection_relations,
    satisfaction_set,
)
from baokit.hf import (
    MAX_ORDINAL,
    OrdinalReport,
    _is_zero_or_successor,
    code_rank,
    exp_value,
    is_ordinal,
    prod_value,
    sum_value,
    tower,
)
from baokit.library import formula_library
import baokit.hf


def test_universe_sizes_follow_the_tower():
    assert [tower(r) for r in range(5)] == [1, 2, 4, 16, 65536]
    for r in range(5):
        assert hf_universe(r).size == tower(r)
    assert [s.code for s in hf_universe(1).sets()] == [0, 1]
    with pytest.raises(CapacityError):
        hf_universe(5)


def test_rank_structure():
    assert code_rank(0) == 0
    assert code_rank(1) == 1
    assert code_rank(2) == 2  # {{}}
    assert code_rank(3) == 2  # {0, {0}}
    # every code below t(r) has rank at most r, and some code reaches it
    for r in range(4):
        ranks = [code_rank(c) for c in range(tower(r))]
        assert max(ranks) == r


def test_extensionality_by_scan():
    for r in range(5):
        assert hf_universe(r).extensional()


def test_membership_sections_match_rel_holds():
    for rank in (1, 2, 3):
        universe = hf_universe(rank)
        codes = range(universe.size)
        mask = (1 << universe.size) - 1
        for position in (0, 1):
            for other in codes:
                bits = universe.section("E", position, (other,), mask)
                for t in codes:
                    row = (t, other) if position == 0 else (other, t)
                    assert (bits >> t) & 1 == universe.rel_holds("E", row), (rank, row)
    rank4, rng = hf_universe(4), random.Random(4)
    for width in (rank4.size, rank4.size + 1000):  # the second past the carrier
        mask = (1 << width) - 1
        sample = [rng.randrange(width) for _ in range(300)] + [0, width - 1]
        for other in range(16):  # the rank-3 members
            for position in (0, 1):
                bits = rank4.section("E", position, (other,), mask)
                for t in sample:
                    row = (t, other) if position == 0 else (other, t)
                    assert (bits >> t) & 1 == rank4.rel_holds("E", row), (width, row)
        assert rank4.section("E", 1, (3,), mask) is rank4.section("E", 1, (3,), mask)
    for name, other, error in (("R", 1, KeyError), ("E", -1, ValueError), ("E", 2.0, ValueError)):
        with pytest.raises(error):
            rank4.section(name, 1, (other,), 0xFFFF)


def test_braces_rendering():
    assert HFSet(0).braces() == "{}"
    assert HFSet(1).braces() == "{{}}"
    assert HFSet(3).braces() == "{{},{{}}}"


def test_decode_pair_kuratowski():
    a, b = HFSet(1), HFSet(0)
    assert decode_pair(kuratowski(a, b)) == (a, b)
    assert decode_pair(kuratowski(b, a)) == (b, a)
    assert decode_pair(kuratowski(a, a)) == (a, a)


def test_decode_pair_double_singleton_and_empty():
    double = HFSet.from_members([HFSet.from_members([HFSet(0)])])
    assert decode_pair(double) == (HFSet(0), HFSet(0))
    assert decode_pair(HFSet(0)) is None


def test_decode_pair_rejects_junk():
    # two singleton members
    two_singletons = HFSet.from_members(
        [HFSet.from_members([HFSet(0)]), HFSet.from_members([HFSet(1)])]
    )
    assert decode_pair(two_singletons) is None
    # an empty member
    with_empty = HFSet.from_members([HFSet(0), HFSet.from_members([HFSet(0)])])
    assert decode_pair(with_empty) is None


def test_decode_pair_agrees_with_formula_layer():
    lib = formula_library()
    for rank in (2, 3):
        universe = hf_universe(rank)
        model = universe.model()
        pair_sat = satisfaction_set(model, lib["pair"].formula, 3)
        p0_sat = satisfaction_set(model, lib["p0"].formula, 3)
        p1_sat = satisfaction_set(model, lib["p1"].formula, 3)
        for x in range(universe.size):
            decoded = decode_pair(HFSet(x))
            formula_pair = bool(
                (pair_sat.bits >> pair_sat.space.encode((x, 0, 0))) & 1
            )
            assert formula_pair == (decoded is not None), x
            for y in range(universe.size):
                idx = p0_sat.space.encode((x, y, 0))
                got0 = bool((p0_sat.bits >> idx) & 1)
                got1 = bool((p1_sat.bits >> idx) & 1)
                want0 = decoded is not None and decoded[0].code == y
                want1 = decoded is not None and decoded[1].code == y
                assert got0 == want0, (x, y)
                assert got1 == want1, (x, y)


def test_quasiprojections_functional_and_surjective_low_rank():
    universe = hf_universe(3)
    ra = RelationAlgebra(universe.size)
    p0, p1 = quasiprojection_relations(universe)
    assert ra.compose(ra.converse(p0), p0) <= ra.identity
    assert ra.compose(ra.converse(p1), p1) <= ra.identity
    low = [c for c in range(universe.size) if code_rank(c) <= universe.rank - 2]
    assert low == [0, 1]
    for a in low:
        for b in low:
            code = kuratowski(HFSet(a), HFSet(b)).code
            assert 0 <= code < universe.size
            assert decode_pair(HFSet(code)) == (HFSet(a), HFSet(b))


def test_pi_term_conjuncts():
    universe = hf_universe(3)
    ra = RelationAlgebra(universe.size)
    p0, p1 = quasiprojection_relations(universe)
    conj1 = ra.residual(ra.compose(ra.converse(p0), p0), ra.identity)
    conj2 = ra.residual(ra.compose(ra.converse(p1), p1), ra.identity)
    assert conj1 == ra.one
    assert conj2 == ra.one
    third = ra.compose(ra.converse(p0), p1)
    low = [c for c in range(universe.size) if code_rank(c) <= 1]
    for a in low:
        for b in low:
            assert third.has_pair(a, b)


def test_pi_term_through_the_term_evaluator():
    from baokit import eval_term, parse_term

    universe = hf_universe(3)
    ra = RelationAlgebra(universe.size)
    p0, p1 = quasiprojection_relations(universe)
    term = parse_term(
        "(and (and (impl (comp (conv (var 0)) (var 0)) id)"
        " (impl (comp (conv (var 1)) (var 1)) id))"
        " (comp (conv (var 0)) (var 1)))",
        ra.signature,
    )
    value = eval_term(term, {0: p0, 1: p1}, ra)
    # oracle: the brute pair scan of the whole conjunction
    scan = {
        (a, b)
        for a in range(universe.size)
        for b in range(universe.size)
        if any(
            p0.has_pair(x, a) and p1.has_pair(x, b) for x in range(universe.size)
        )
    }
    assert set(value.pairs()) == scan  # first two conjuncts are full
    low = [c for c in range(universe.size) if code_rank(c) <= 1]
    for a in low:
        for b in low:
            assert value.has_pair(a, b)


def test_ordinal_oracles_examples():
    two = ordinal_hf(2)
    report = ordinal_oracles(two)
    assert report.is_ord and report.is_ford and report.value == 2
    not_transitive = HFSet.from_members([HFSet.from_members([HFSet(0)])])
    assert not ordinal_oracles(not_transitive).is_ord
    assert ordinal_oracles(HFSet(0)).value == 0


def ordinal_report_by_keywords(x: HFSet) -> OrdinalReport:
    """The construction ordinal_oracles had before it shared the report of
    every non-ordinal, kept as its oracle: a new report for each set."""
    ord_ok = is_ordinal(x)
    ford_ok = ord_ok and all(
        _is_zero_or_successor(m) for m in x.member_codes()
    )
    return OrdinalReport(
        is_ord=ord_ok,
        is_ford=ford_ok,
        value=len(x) if ord_ok else None,
    )


def fields(report: OrdinalReport) -> tuple:
    """The fields of a report with their types, so that 1 is not True."""
    values = (report.is_ord, report.is_ford, report.value)
    return values, tuple(type(value) for value in values)


def test_ordinal_oracles_asks_is_ordinal_only_past_its_first_step(monkeypatch):
    """Every rank-4 code: ordinal_oracles calls a set an ordinal exactly
    when is_ordinal does.  Its own first test, is_ordinal's first step,
    settles every code but 0 and the 16 codes 2**t + t, so only those reach
    is_ordinal; the non-ordinals get the one shared report."""
    asked = []
    monkeypatch.setattr(baokit.hf, "is_ordinal", lambda x: asked.append(x.code) or is_ordinal(x))
    for code in range(2**16):
        got = ordinal_oracles(HFSet(code))
        assert got.is_ord == is_ordinal(HFSet(code)), code
        assert got.is_ord or got is baokit.hf._NOT_ORDINAL, code
    assert asked == [0] + [2**t + t for t in range(16)]


def test_ordinal_oracles_match_the_keyword_reports_on_every_rank_4_code():
    shared = OrdinalReport(False, False, None)
    not_ordinal = set()  # the ids of the non-ordinal reports
    for code in range(2**16):
        got = ordinal_oracles(HFSet(code))
        assert fields(got) == fields(ordinal_report_by_keywords(HFSet(code))), code
        if not got.is_ord:
            assert got == shared, code
            not_ordinal.add(id(got))
    assert len(not_ordinal) == 1  # one report, shared
    for k in range(MAX_ORDINAL + 1):  # past rank 4 too
        x = ordinal_hf(k)
        assert fields(ordinal_oracles(x)) == fields(ordinal_report_by_keywords(x)), k


def test_ordinal_reports_are_immutable():
    for report in (ordinal_oracles(HFSet(2)), ordinal_oracles(ordinal_hf(3))):
        for name, value in (("is_ord", True), ("is_ford", False), ("value", 7)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(report, name, value)
    assert ordinal_oracles(HFSet(2)) == OrdinalReport(False, False, None)
    assert ordinal_oracles(ordinal_hf(3)) == OrdinalReport(True, True, 3)


def test_arith_oracles_on_ordinals_0_to_5():
    def settle(value):
        return ordinal_hf(value) if value <= MAX_ORDINAL else None

    for a in range(MAX_ORDINAL + 1):
        for b in range(MAX_ORDINAL + 1):
            report = arith_oracles(ordinal_hf(a), ordinal_hf(b))
            assert (report.sum, report.prod, report.exp) == (
                settle(a + b), settle(a * b), settle(a**b)
            ), (a, b)


def is_ordinal_by_member_pairs(x: HFSet) -> bool:
    """The definition is_ordinal had before it went by bits, kept as its
    oracle: transitive, and every two members comparable by membership."""
    code = x.code
    member_codes = x.member_codes()
    for m in member_codes:
        if m & ~code:
            return False  # a member's members leak out: not transitive
    for i, a in enumerate(member_codes):
        for b in member_codes[i + 1 :]:
            if not ((b >> a) & 1 or (a >> b) & 1):
                return False
    return True


def test_is_ordinal_matches_member_pairs_on_every_rank_4_code():
    verdicts = [is_ordinal(HFSet(code)) for code in range(2**16)]
    assert verdicts == [is_ordinal_by_member_pairs(HFSet(code)) for code in range(2**16)]
    assert [code for code in range(2**16) if verdicts[code]] == [
        ordinal_hf(k).code for k in range(5)
    ]


def test_ordinal_formula_agreement_exhaustive_rank_3():
    lib = formula_library()
    universe = hf_universe(3)
    model = universe.model()
    ord_sat = satisfaction_set(model, lib["ord"].formula, 3)
    ford_sat = satisfaction_set(model, lib["ford"].formula, 3)
    for code in range(universe.size):
        report = ordinal_oracles(HFSet(code))
        idx = ord_sat.space.encode((code, 0, 0))
        assert bool((ord_sat.bits >> idx) & 1) == report.is_ord
        assert bool((ford_sat.bits >> idx) & 1) == report.is_ford


def test_ordinal_formula_agreement_relativized_rank_4():
    lib = formula_library()
    universe = hf_universe(4)
    domain = range(16)  # members of rank-4 sets live in the rank-3 cut
    rng = random.Random(17)
    sample = [rng.randrange(universe.size) for _ in range(300)]
    sample += [ordinal_hf(k).code for k in range(5)]
    for code in sample:
        report = ordinal_oracles(HFSet(code))
        got = holds(universe, lib["ord"].formula, {0: code}, quantifier_domain=domain)
        assert got == report.is_ord, code


def test_arith_oracle_values():
    one, two = ordinal_hf(1), ordinal_hf(2)
    report = arith_oracles(one, one)
    assert report.sum == ordinal_hf(2)
    report = arith_oracles(two, two)
    assert report.prod == ordinal_hf(4)
    assert report.exp == ordinal_hf(4)
    assert report.sum == ordinal_hf(4)
    # past the budget the set level returns None
    three = ordinal_hf(3)
    assert arith_oracles(three, three).sum is None
    with pytest.raises(PreconditionError):
        arith_oracles(HFSet.from_members([HFSet(1)]), one)


def test_arith_equations_small_sweep():
    for a in range(7):
        for b in range(7):
            if a + b <= 6:
                assert sum_value(a, b) == a + b
            if b + 1 <= 6 and a + b + 1 <= 6:
                assert sum_value(a, b + 1) == sum_value(a, b) + 1
            if b + 1 <= 6 and a * (b + 1) <= 6:
                assert prod_value(a, b + 1) == sum_value(prod_value(a, b), a)
            if b + 1 <= 6 and a ** (b + 1) <= 6:
                assert exp_value(a, b + 1) == prod_value(exp_value(a, b), a)
        assert exp_value(a, 0) == 1


def test_bijection_exists():
    assert bijection_exists(HFSet(0), HFSet(0))
    single = HFSet.from_members([HFSet(0)])
    double_single = HFSet.from_members([HFSet.from_members([HFSet(0)])])
    assert bijection_exists(single, double_single)
    # against an explicit injection search on small extensions
    rng = random.Random(23)
    for _ in range(40):
        a = HFSet(rng.randrange(65536))
        b = HFSet(rng.randrange(65536))
        expected = any(
            len(set(p)) == len(a.member_codes())
            for p in permutations(b.member_codes(), len(a.member_codes()))
        ) and len(a) == len(b) or (len(a) == 0 and len(b) == 0)
        assert bijection_exists(a, b) == (len(a) == len(b))
        if len(a) == len(b):
            assert expected or len(a) == 0


def test_subset_order_matches_value_order_within_budget():
    # the bridge used by the value-level arithmetic checks
    for a in range(6):
        for b in range(6):
            subset = ordinal_hf(a).code & ~ordinal_hf(b).code == 0
            assert subset == (a <= b)
