import random
from collections import deque
from itertools import product as iproduct

import pytest

from baokit import (
    CompileError,
    ModelFinite,
    SetAlgebra,
    compile_to_term,
    compiler_agrees,
    eval_term,
    format_term,
    is_restricted,
    parse_formula,
    restrict_formula,
    satisfaction_set,
    tr,
)
from baokit.compiler import STAR, _plan_rewrite, natural_atom_sets
from baokit.formulas import postorder
from baokit.identities import order_terms
from baokit.library import formula_library, load_corpus
from baokit.terms import App


def all_binary_models(u):
    pairs = list(iproduct(range(u), repeat=2))
    for bits in range(1 << len(pairs)):
        table = [p for i, p in enumerate(pairs) if (bits >> i) & 1]
        yield ModelFinite(list(range(u)), {"E": table})


def random_ternary_models(u, count, seed):
    rng = random.Random(seed)
    triples = list(iproduct(range(u), repeat=3))
    for _ in range(count):
        table = [t for t in triples if rng.random() < 0.5]
        yield ModelFinite(list(range(u)), {"R": table})


def test_is_restricted_examples():
    assert is_restricted(parse_formula("R(v0,v1,v2)"), 3)
    assert not is_restricted(parse_formula("E(v1,v0)"), 3)
    lib = formula_library()
    assert is_restricted(restrict_formula(lib["ax"].formula, 3), 3)
    assert not is_restricted(parse_formula("R(v0,v1,v2)"), 2)
    # equality atoms are exempt from the natural-order requirement
    assert is_restricted(parse_formula("v1 = v0"), 3)


def test_compile_trivial_cases():
    compiled = compile_to_term(parse_formula("R(v0,v1,v2)"), "CA", 3)
    assert format_term(compiled.term) == "(var 0)"
    compiled = compile_to_term(parse_formula("ex v0 R(v0,v1,v2)"), "CA", 3)
    assert format_term(compiled.term) == "(cyl 0 (var 0))"


def test_compile_swapped_binary_atom_sc():
    compiled = compile_to_term(parse_formula("E(v1,v0)"), "SC", 3)
    assert format_term(compiled.term) == "(subst 2 1 (subst 1 0 (subst 0 2 (var 0))))"
    for u in (1, 2, 3):
        for m in all_binary_models(u):
            amb = SetAlgebra("SC", u, 3)
            gens = natural_atom_sets(m, compiled.symbols, 3)
            got = compiled.evaluate(amb, gens)
            want = satisfaction_set(m, parse_formula("E(v1,v0)"), 3)
            assert got.bits == want.bits


def test_compile_rejects_mismatched_features():
    with pytest.raises(CompileError):
        compile_to_term(parse_formula("v0 = v1"), "SC", 3)
    with pytest.raises(CompileError):
        compile_to_term(parse_formula("E(v1,v0)"), "CA", 3)
    with pytest.raises(CompileError):
        compile_to_term(parse_formula("R(v0,v1,v2)"), "CA", 2)


def test_fully_permuted_ternary_atom_is_inexpressible():
    with pytest.raises(CompileError):
        restrict_formula(parse_formula("R(v2,v1,v0)"), 3)


def test_projected_permuted_atom_is_expressible():
    f = parse_formula("ex v0 R(v2,v1,v0)")
    restricted = restrict_formula(f, 3)
    assert is_restricted(restricted, 3)
    for m in random_ternary_models(2, 6, seed=3):
        assert satisfaction_set(m, f, 3) == satisfaction_set(m, restricted, 3)


def test_restrict_preserves_semantics_on_binary_vocab():
    formulas = [
        "E(v1,v0)",
        "E(v2,v0) & E(v1,v1)",
        "ex v1 (E(v2,v1) | v0 = v2)",
        "all v0 (E(v1,v0) -> E(v0,v1))",
    ]
    for text in formulas:
        f = parse_formula(text)
        restricted = restrict_formula(f, 3)
        assert is_restricted(restricted, 3)
        for u in (1, 2):
            for m in all_binary_models(u):
                assert satisfaction_set(m, f, 3) == satisfaction_set(m, restricted, 3)


def test_compiler_correctness_sweep_binary_exhaustive():
    from baokit.library import load_corpus

    corpus = load_corpus()
    for name, f in corpus:
        for u in (1, 2, 3):
            for m in all_binary_models(u):
                assert compiler_agrees(f, m, 3, "CA"), name
                equality_free = tr(f)
                assert compiler_agrees(equality_free, m, 3, "SC"), name


def test_compiler_correctness_sweep_ternary_sampled():
    lib = formula_library()
    order_formulas = [lib[k].formula for k in ("suc", "ax", "phi", "psi", "eta")]
    for f in order_formulas:
        for m in random_ternary_models(2, 4, seed=11):
            assert compiler_agrees(restrict_formula(f, 3), m, 3, "CA")


def test_pure_equality_formula_compiles_to_constant():
    compiled = compile_to_term(parse_formula("v0 = v1"), "CA", 2)
    assert compiled.symbols == ()
    amb = SetAlgebra("CA", 2, 2)
    from baokit import diag

    assert eval_term(compiled.term, {}, amb) == diag(amb.space, 0, 1)


def reference_plan_rewrite(target, n, *, star_ok):
    """The search that tried every projected start pattern in turn."""
    k = len(target)
    stars = [t for t, v in enumerate(target) if v == STAR]
    if any(v >= n for v in target if v != STAR):
        return None
    if len(stars) > 1:
        return None
    if stars and not star_ok:
        return None

    starts = []
    if stars:
        for slot in range(k):
            pattern = tuple(STAR if t == slot else t for t in range(k))
            starts.append((slot, pattern))
    else:
        starts.append((None, tuple(range(k))))

    moves = [(i, j) for i in range(n) for j in range(n) if i != j]
    for star_slot, start in starts:
        if stars and start.count(STAR) != 1:
            continue
        if stars:
            # The star must end up on the projected slot of the target.
            if start.index(STAR) != stars[0]:
                continue
        if start == target:
            return star_slot, ()
        seen = {start: None}
        queue = deque([start])
        while queue:
            state = queue.popleft()
            for i, j in moves:
                if i not in state:
                    continue
                nxt = tuple(j if v == i else v for v in state)
                if nxt in seen:
                    continue
                seen[nxt] = (state, (i, j))
                if nxt == target:
                    steps = []
                    cur = nxt
                    while seen[cur] is not None:
                        cur, move = seen[cur]
                        steps.append(move)
                    return star_slot, tuple(reversed(steps))
                queue.append(nxt)
    return None


def test_plan_rewrite_matches_the_search_over_every_start():
    checked = 0
    for n in range(1, 5):
        for k in range(1, 5):
            for target in iproduct(range(STAR, n + 1), repeat=k):
                for star_ok in (False, True):
                    want = reference_plan_rewrite(target, n, star_ok=star_ok)
                    assert _plan_rewrite(target, n, star_ok=star_ok) == want, target
                    checked += 1
    assert checked == 5588


def test_no_compiled_term_has_a_complement_of_a_complement():
    """Not and Forall drop a complement of a complement, so no term
    compiled from the library, tau, sigma and delta among them, or from
    the corpus, for CA or SC, has a `not` directly under a `not`; tau,
    sigma and delta had 2, 3 and 2."""
    terms = [compiled.term for compiled in order_terms(3).values()]
    formulas = [entry.formula for entry in formula_library().values()]
    formulas += [f for _, f in load_corpus()]
    for f in formulas:
        for kind, candidate in (("CA", lambda: restrict_formula(f, 3)), ("SC", lambda: tr(f))):
            try:
                terms.append(compile_to_term(candidate(), kind, 3).term)
            except CompileError:
                pass
    assert len(terms) > 3 + len(formulas)  # tau, sigma, delta, and most formulas twice
    complements = 0
    for term in terms:
        for node in postorder(term.root):
            if isinstance(node, App) and node.op == ("not", ()):
                complements += 1
                inner = node.args[0]
                assert not (isinstance(inner, App) and inner.op == ("not", ())), format_term(term)
    assert complements > 0
