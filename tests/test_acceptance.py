"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
pass; each test also enforces its runtime budget.
"""

import random
import time

from baokit import (
    HFSet,
    PreconditionError,
    RelationAlgebra,
    SetAlgebra,
    WindowModel,
    atoms,
    decode_pair,
    decompose_by_zero_dimensional,
    diag,
    discriminator_value,
    eval_window,
    example_algebra,
    find_isomorphism,
    free_boolean_algebra,
    generate_subalgebra,
    hf_universe,
    holds,
    identity_sweep,
    is_hereditary_closed,
    kuratowski,
    ordinal_oracles,
    product,
    quasiprojection_relations,
    quotient_transfers,
    satisfaction_set,
    splitting_check,
    tr_equivalent_on,
)
from baokit.example import strict_order_generator
from baokit.hf import code_rank, exp_value, prod_value, sum_value
from baokit.library import formula_library, load_corpus
from baokit.translate import duplicated_model, strong_congruence_witness


class Stopwatch:
    def __init__(self, budget):
        self.budget = budget
        self.start = time.perf_counter()

    @property
    def elapsed(self):
        return time.perf_counter() - self.start

    def check(self):
        assert self.elapsed < self.budget, f"over the {self.budget}s budget"


def report(number, name, watch):
    print(f"[criterion {number:02d}] {name}: PASS ({watch.elapsed:.2f}s)")


def test_criterion_01_example_reproduction():
    watch = Stopwatch(5.0)
    result = example_algebra(3)
    amb = result.ambient
    for m in range(4):
        expected = amb.element([s for s in amb.space.tuples() if s[1] >= m])
        assert result.chain.elements[m] == expected
    assert result.chain_distinct == 4
    assert result.closed_form_verified
    assert result.is_simple
    assert result.atom_count >= 3
    assert isinstance(result.carrier_size, int) and result.carrier_size == 2**27
    watch.check()
    report(1, "example reproduction", watch)


def test_criterion_02_identity_sweep():
    watch = Stopwatch(60.0)
    small = identity_sweep(2)
    assert small.exhaustive and small.total == 256 and small.ok
    large = identity_sweep(3, samples=1000, seed=0)
    assert large.total >= 1000 and large.ok
    watch.check()
    report(2, "identity sweep", watch)


def test_criterion_03_surrogate_refutation():
    watch = Stopwatch(5.0)
    lib = formula_library()
    base = WindowModel(16, 2, (0,))
    ax_report = eval_window(base, lib["ax"].formula)
    assert ax_report.value is True and ax_report.stable
    assert set(ax_report.by_radius) == {16, 32, 64}
    eta_report = eval_window(base, lib["eta"].formula)
    assert eta_report.value is False and eta_report.stable
    flipped = eval_window(WindowModel(16, 2, (0, 5)), lib["eta"].formula)
    assert flipped.value is True and flipped.stable
    watch.check()
    report(3, "surrogate refutation", watch)


def test_criterion_04_free_ba_structure():
    watch = Stopwatch(30.0)
    for k in range(4):
        algebra, gens = free_boolean_algebra(k)
        assert len(algebra.carrier) == 2 ** (2**k)
        assert len(atoms(algebra)) == 2**k
    for k in (1, 2):
        bigger, _ = free_boolean_algebra(k + 1)
        smaller, _ = free_boolean_algebra(k)
        assert find_isomorphism(bigger, product(smaller, smaller)) is not None
    watch.check()
    report(4, "free Boolean algebra structure", watch)


def test_criterion_05_splitting_property():
    watch = Stopwatch(30.0)
    algebra, gens = free_boolean_algebra(3)
    cases = 0
    for y in gens:
        rest = [g for g in gens if g != y]
        sub = generate_subalgebra(algebra.domain, rest, cap=len(algebra.carrier))
        for a in sub.carrier:
            if a.is_zero():
                continue
            assert splitting_check(algebra, gens, a, y)
            cases += 1
    assert cases == 3 * 15
    watch.check()
    report(5, "splitting (no atoms among proper-subset-generated)", watch)


def _discriminator_matrix():
    rng = random.Random(0)
    ca2 = SetAlgebra("CA", 2, 2)
    yield ca2, generate_subalgebra(ca2, [diag(ca2.space, 0, 1)])
    ca2u3 = SetAlgebra("CA", 3, 2)
    yield ca2u3, generate_subalgebra(ca2u3, [ca2u3.random_element(rng)], cap=4096)
    sc3 = SetAlgebra("SC", 2, 3)
    yield sc3, generate_subalgebra(sc3, [strict_order_generator(sc3)], cap=4096)
    ca3 = SetAlgebra("CA", 2, 3)
    yield ca3, generate_subalgebra(ca3, [strict_order_generator(ca3)], cap=4096)
    df2 = SetAlgebra("DF", 3, 2)
    yield df2, generate_subalgebra(df2, [df2.random_element(rng)], cap=4096)
    ba, _ = free_boolean_algebra(2)
    yield None, ba


def test_criterion_06_discriminator_lemma():
    watch = Stopwatch(120.0)
    violations = 0
    checked = 0
    for _, algebra in _discriminator_matrix():
        assert len(algebra.carrier) <= 4096
        for x in algebra.carrier:
            d_x = discriminator_value(algebra, x)
            dd_x = discriminator_value(algebra, d_x)
            if not x <= d_x:
                violations += 1
            if not dd_x <= d_x:
                violations += 1
            for op, arity in algebra.operator_descriptors():
                if arity == 1:
                    if not algebra.domain.apply(op, x) <= d_x:
                        violations += 1
                    checked += 1
            checked += 2
    assert violations == 0
    assert checked > 1000
    watch.check()
    report(6, f"discriminator lemma ({checked} checks)", watch)


def test_criterion_07_hereditary_bound_and_decomposition():
    watch = Stopwatch(60.0)
    rng = random.Random(1)
    singly_generated = []
    for amb in (SetAlgebra("CA", 2, 2), SetAlgebra("CA", 3, 2), SetAlgebra("SC", 2, 2)):
        for _ in range(6):
            g = amb.random_element(rng)
            singly_generated.append(generate_subalgebra(amb, [g], cap=2048))
    free1, _ = free_boolean_algebra(1)
    singly_generated.append(free1)
    hereditary_cases = 0
    decompositions = 0
    for algebra in singly_generated:
        ats = atoms(algebra)
        for b in algebra.carrier:
            if not is_hereditary_closed(algebra, b):
                continue
            hereditary_cases += 1
            inside = [a for a in ats if a <= b]
            assert len(inside) <= 2  # 2**m for m = 1 generator
            try:
                decomposition = decompose_by_zero_dimensional(algebra, b)
            except PreconditionError:
                continue
            decompositions += 1
            assert len(decomposition.below.carrier) * len(
                decomposition.above.carrier
            ) == len(algebra.carrier)
    assert hereditary_cases > 0
    assert decompositions > 0
    watch.check()
    report(
        7,
        f"hereditary bound ({hereditary_cases} cases, {decompositions} decompositions)",
        watch,
    )


def test_criterion_08_translation_soundness():
    watch = Stopwatch(60.0)
    corpus = load_corpus()
    models = [hf_universe(r).model() for r in (1, 2, 3)]
    for name, formula in corpus:
        for model in models:
            assert tr_equivalent_on(model, formula, 3), name
    transfer_models = models + [duplicated_model(m) for m in models[:2]]
    transfer_models = [
        m for m in transfer_models if strong_congruence_witness(m) is None
    ]
    assert len(transfer_models) == 5
    for name, formula in corpus:
        for model in transfer_models:
            assert quotient_transfers(model, formula, 3), name
    watch.check()
    report(8, f"translation soundness ({len(corpus)} formulas)", watch)


def test_criterion_09_pairing():
    watch = Stopwatch(60.0)
    universe = hf_universe(3)
    ra = RelationAlgebra(universe.size)
    p0, p1 = quasiprojection_relations(universe)
    assert ra.compose(ra.converse(p0), p0) <= ra.identity
    assert ra.compose(ra.converse(p1), p1) <= ra.identity
    low = [c for c in range(universe.size) if code_rank(c) <= 1]
    for a in low:
        for b in low:
            code = kuratowski(HFSet(a), HFSet(b)).code
            assert 0 <= code < universe.size
    assert ra.residual(ra.compose(ra.converse(p0), p0), ra.identity) == ra.one
    assert ra.residual(ra.compose(ra.converse(p1), p1), ra.identity) == ra.one
    third = ra.compose(ra.converse(p0), p1)
    for a in low:
        for b in low:
            assert third.has_pair(a, b)
    lib = formula_library()
    for rank in (1, 2, 3):
        u = hf_universe(rank)
        model = u.model()
        pair_sat = satisfaction_set(model, lib["pair"].formula, 3)
        p0_sat = satisfaction_set(model, lib["p0"].formula, 3)
        p1_sat = satisfaction_set(model, lib["p1"].formula, 3)
        for x in range(u.size):
            decoded = decode_pair(HFSet(x))
            got = bool((pair_sat.bits >> pair_sat.space.encode((x, 0, 0))) & 1)
            assert got == (decoded is not None)
            for y in range(u.size):
                idx = p0_sat.space.encode((x, y, 0))
                assert bool((p0_sat.bits >> idx) & 1) == (
                    decoded is not None and decoded[0].code == y
                )
                assert bool((p1_sat.bits >> idx) & 1) == (
                    decoded is not None and decoded[1].code == y
                )
    watch.check()
    report(9, "pairing and quasiprojections", watch)


def test_criterion_10_arithmetic_definability():
    watch = Stopwatch(300.0)
    top = 6
    for a in range(top + 1):
        if a + 1 <= top:
            assert sum_value(a, 1) != 0
        for b in range(top + 1):
            if a + b <= top:
                assert sum_value(a, b) == a + b
            if b + 1 <= top and a + b + 1 <= top:
                assert sum_value(a, b + 1) == sum_value(a, b) + 1
            if b + 1 <= top and a * (b + 1) <= top:
                assert prod_value(a, b + 1) == sum_value(prod_value(a, b), a)
            if b + 1 <= top and a ** (b + 1) <= top:
                assert exp_value(a, b + 1) == prod_value(exp_value(a, b), a)
        assert exp_value(a, 0) == 1
    lib = formula_library()
    u3 = hf_universe(3)
    model = u3.model()
    ord_sat = satisfaction_set(model, lib["ord"].formula, 3)
    ford_sat = satisfaction_set(model, lib["ford"].formula, 3)
    for code in range(u3.size):
        verdicts = ordinal_oracles(HFSet(code))
        idx = ord_sat.space.encode((code, 0, 0))
        assert bool((ord_sat.bits >> idx) & 1) == verdicts.is_ord
        assert bool((ford_sat.bits >> idx) & 1) == verdicts.is_ford
    u4 = hf_universe(4)
    domain = range(16)
    mismatches = 0
    for code in range(u4.size):
        verdicts = ordinal_oracles(HFSet(code))
        got_ord = holds(u4, lib["ord"].formula, {0: code}, quantifier_domain=domain)
        if got_ord != verdicts.is_ord:
            mismatches += 1
            continue
        if got_ord:
            got_ford = holds(
                u4, lib["ford"].formula, {0: code}, quantifier_domain=domain
            )
            if got_ford != verdicts.is_ford:
                mismatches += 1
    assert mismatches == 0
    watch.check()
    report(10, "arithmetic definability (rank-4 sweep exhaustive)", watch)
