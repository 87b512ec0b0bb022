"""The passes rebuilt on `formulas.postorder` against the recursive ones
they replaced (kept in `recursive_walkers`), formulas of any depth through
each of them, and what `formulas.memo` keeps on a node, for how long."""

import gc
import os
import subprocess
import sys
import textwrap
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import recursive_walkers as old
from baokit import ModelFinite, WindowModel, eval_window, holds, satisfaction_set, tr
from baokit.compiler import (
    _relation_symbols,
    compile_to_term,
    restrict_formula,
    unrestricted_atom,
)
from baokit.errors import CompileError
from baokit.formulas import (
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Vocabulary,
    check_vocabulary,
    format_formula,
)
from baokit.terms import Var, format_term
from baokit.window import _guarded

VOCAB = Vocabulary.of(R=2, T=3, P=1)
VARIABLES = st.integers(0, 3)


@st.composite
def atoms(draw):
    """An atom of 0 to 3 places, its variables in any order and perhaps
    repeated, over a relation VOCAB may lack or give another arity."""
    name = draw(st.sampled_from(["R", "T", "P", "Z"]))
    return Atom(name, tuple(draw(st.lists(VARIABLES, max_size=3))))


@st.composite
def formulas(draw):
    """A formula built bottom-up from a pool: each new node takes its
    subformulas from the nodes built so far, so subformulas are shared
    often, and an existential straight over an atom often projects it."""
    leaves = st.one_of(atoms(), st.builds(Eq, VARIABLES, VARIABLES))
    pool = draw(st.lists(leaves, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from([Not, And, Or, Implies, Iff, Exists, Forall]))
        pick = st.sampled_from(pool)
        if kind is Not:
            pool.append(Not(draw(pick)))
        elif kind in (Exists, Forall):
            pool.append(kind(draw(VARIABLES), draw(pick)))
        else:
            pool.append(kind(draw(pick), draw(pick)))
    return pool[-1]


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the result compared
        return type(exc), str(exc)


def compiled(fn, f, kind, n):
    """The term, its text and symbols of fn(f, kind, n), or its error."""
    result = outcome(fn, f, kind, n)
    if result[0] != "returned":
        return result
    out = result[1]
    return out.term, old.format_term(out.term), out.symbols


# Two atoms of one error each: the walks must meet the left one first.
TWO_ERRORS = And(Atom("P", (0,)), Atom("Z", (1, 0, 2)))
PROJECTED = Or(Exists(2, Atom("T", (2, 0, 1))), Exists(1, Atom("R", (1, 1))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(f=formulas(), n=st.integers(2, 4))
@example(f=TWO_ERRORS, n=3)
@example(f=PROJECTED, n=3)
@example(f=Iff(Not(Eq(1, 0)), Forall(0, Iff(Not(Eq(1, 0)), Atom("R", (1, 0))))), n=2)
def test_walks_match_the_recursive_passes(f, n):
    assert format_formula(f) == old.format_formula(f)
    assert repr(f) == old.node_repr(f)
    assert tr(f) is old.tr(f)
    assert outcome(_guarded, f) == outcome(old.guarded, f)
    assert outcome(check_vocabulary, f, VOCAB) == outcome(old.check_vocabulary, f, VOCAB)
    assert unrestricted_atom(f, n) is old.unrestricted_atom(f, n)
    assert _relation_symbols(f) == old.relation_symbols(f)
    assert outcome(restrict_formula, f, n) == outcome(old.restrict_formula, f, n)
    candidates = [f, tr(f)]
    restricted = outcome(restrict_formula, f, n)
    if restricted[0] == "returned":
        candidates.append(restricted[1])
    for g in candidates:
        for kind in ("CA", "SC"):
            got = compiled(compile_to_term, g, kind, n)
            assert got == compiled(old.compile_to_term, g, kind, n)
            if got[0] is not CompileError:
                assert format_term(got[0]) == got[1]


@pytest.mark.parametrize("junk", [Var(0), 5])
def test_every_pass_refuses_what_is_not_a_formula(junk):
    """format_formula, check_vocabulary and _pairs_read raised a KeyError,
    nothing and an AttributeError here; now every pass says the same."""
    passes = [format_formula, lambda g: check_vocabulary(g, VOCAB), tr, _guarded,
              lambda g: unrestricted_atom(g, 2), _relation_symbols,
              lambda g: restrict_formula(g, 2), lambda g: compile_to_term(g, "SC", 2)]
    for run in passes:
        with pytest.raises(TypeError) as info:
            run(junk)
        assert str(info.value) == f"not a formula: {junk!r}"


def chain(levels: int, leaf):
    """Not and Exists alternating, `levels` nodes over `leaf`."""
    f = leaf
    for i in range(levels // 2):
        f = Not(Exists(i % 2, f))
    return f


def chain_text(levels: int, leaf: str) -> str:
    text = leaf
    for i in range(levels // 2):
        text = f"!ex v{i % 2} " + (text if i == 0 else f"({text})")
    return text


def test_a_2000_level_formula_passes_through_every_walk():
    assert sys.getrecursionlimit() < 2000
    f = chain(2000, Atom("R", (0, 1)))
    assert format_formula(f) == chain_text(2000, "R(v0,v1)")
    text = repr(f)
    assert text.startswith("Not(body=Exists(var=1, body=Not(") and text.count("Not(") == 1000
    check_vocabulary(f, VOCAB)
    assert tr(f) is f and restrict_formula(f, 2) is f
    assert _guarded(f).depth == f.depth and "In#" in format_formula(_guarded(f))
    assert unrestricted_atom(f, 2) is None and _relation_symbols(f) == {"R"}
    term_text = "(var 0)"  # the innermost ex v0 R(v0,v1) projects its atom
    for i in range(1000):
        term_text = f"(not (cyl {i % 2} {term_text}))"
    for kind in ("CA", "SC"):
        assert format_term(compile_to_term(f, kind, 2).term) == term_text
    g = tr(chain(2000, Eq(0, 1)))
    assert format_formula(g) == chain_text(2000, "(all v2 (E(v2,v0) <-> E(v2,v1)))")


@pytest.mark.parametrize("use", [
    "satisfaction_set", "holds", "tr", "restrict_formula", "compile_to_term", "eval_window",
])
def test_a_formula_dies_after_each_kept_job_has_seen_it(use):
    model = ModelFinite(range(2), {"SeenOnce": [(0, 1), (1, 1)]})
    f = Exists(0, And(Atom("SeenOnce", (0, 1)), Not(Eq(0, 1))))  # a relation no other test names
    run = {
        "satisfaction_set": lambda: satisfaction_set(model, f, 2),
        "holds": lambda: holds(model, f, {1: 1}),
        "tr": lambda: tr(f),
        "restrict_formula": lambda: restrict_formula(f, 2),
        "compile_to_term": lambda: compile_to_term(f, "CA", 2),
        "eval_window": lambda: eval_window(WindowModel(4, 1, ()), f),
    }[use]
    run()
    run()  # the second call reads what the first kept on f
    alive = weakref.ref(f), weakref.ref(f.body)
    del f, run
    gc.collect()
    assert [node() for node in alive] == [None, None]


def test_a_kept_result_is_the_same_object_while_its_formula_lives():
    f = Or(Eq(0, 1), Atom("R", (0, 1)))
    assert tr(f) is tr(f) and tr(f) is not f
    assert restrict_formula(f, 3) is restrict_formula(f, 3)
    assert compile_to_term(f, "CA", 3) is compile_to_term(f, "CA", 3)
    assert compile_to_term(f, "CA", 3) is not compile_to_term(f, "CA", 2)
    assert compile_to_term.__wrapped__(f, "CA", 3) is not compile_to_term(f, "CA", 3)


def test_importing_baokit_afresh_frees_the_previous_import():
    """A re-import, as perfbench makes between its passes, leaves no node
    or operator table of the previous import alive once collected."""
    script = textwrap.dedent("""
        import gc, importlib, sys, weakref

        def fresh():
            for name in [m for m in sys.modules if m == "baokit" or m.startswith("baokit.")]:
                del sys.modules[name]
            return importlib.import_module("baokit")

        def window_job(bk):
            f = bk.library.formula_library()["ax"].formula
            return bk.window.eval_window(bk.window.WindowModel(8, 1, (0,)), f).value

        first = fresh()
        assert window_job(first)
        classes = [weakref.ref(first.formulas.Node), weakref.ref(first.models._Operators)]
        del first
        assert window_job(fresh())
        gc.collect()
        alive = [type(o).__name__ for o in gc.get_objects()
                 if any(c() is not None and isinstance(o, c()) for c in classes)]
        assert alive == [], alive[:10]
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
