"""Restricted forms and compilation of formulas into algebra terms.

A formula is restricted when every relational atom lists the variables in
their natural order v0, ..., v_{k-1}; equality atoms may pair any two
variables (they become diagonal constants).  Atoms in other variable
orders are rewritten through a planner that searches for a sequence of
single-variable renamings: each step either pins a variable with an
equality quantifier (formula side) or applies a replacement substitution
(term side).  A slot bound by an enclosing existential is tracked as a
wildcard, which is what makes projected atoms like `ex v0 R(v2,v1,v0)`
expressible with only three variables.
"""

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .errors import CompileError
from .formulas import (
    And,
    Atom,
    Eq,
    Exists,
    Formula,
    Iff,
    Not,
    max_var_index,
    memo,
    parts,
    postorder,
    rebuilt,
)
from .models import _CONNECTIVES, ModelFinite, satisfaction_set
from .signatures import Signature
from .spaces import SetAlgebra
from .terms import App, Const, Term, TermNode, Var
from .terms import eval_term as _eval_term

STAR = -1


def unrestricted_atom(f: Formula, n: int) -> Atom | None:
    """The first atom breaking the natural order, or None.

    Equality atoms are exempt from the ordering requirement; they carry no
    relation symbol and compile to diagonal constants.  An atom mentioning
    a variable index at or past n also counts as a violation.
    """
    for g in postorder(f, parts):
        if isinstance(g, Atom):
            if g.args != tuple(range(len(g.args))) or max(g.args, default=-1) >= n:
                return g
    return None


def is_restricted(f: Formula, n: int) -> bool:
    """Natural-order relational atoms only, all variable indices below n."""
    return max_var_index(f) < n and unrestricted_atom(f, n) is None


@lru_cache(maxsize=None)
def _plan_rewrite(target: tuple[int, ...], n: int, *, star_ok: bool):
    """Shortest sequence of renamings from a natural pattern to `target`.

    Patterns are tuples over variable indices plus STAR for a projected
    slot.  A step (i, j) renames every concrete occurrence of i to j.
    Renamings never move a STAR, so the search starts from the natural
    pattern with the target's STAR slot projected.  Returns (star_slot,
    steps), a tuple of steps, where star_slot is that slot (None when the
    target has no STAR); each target is searched once.
    """
    k = len(target)
    stars = [t for t, v in enumerate(target) if v == STAR]
    if any(v >= n for v in target if v != STAR):
        return None
    if len(stars) > 1:
        return None
    if stars and not star_ok:
        return None

    star_slot = stars[0] if stars else None
    start = tuple(STAR if t == star_slot else t for t in range(k))
    if start == target:
        return star_slot, ()
    moves = [(i, j) for i in range(n) for j in range(n) if i != j]
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


def _renamings(g: Atom, bound: int | None, n: int):
    """`_plan_rewrite` for atom g, the slot of `bound` (an enclosing
    existential's variable) projected; CompileError when there is none."""
    target = tuple(STAR if bound is not None and a == bound else a for a in g.args)
    plan = _plan_rewrite(target, n, star_ok=bound is not None)
    if plan is None:
        raise CompileError(f"atom {g} is not expressible with {n} variables")
    return plan


def _projected(g) -> bool:
    """Is g an existential straight over an atom that names its variable,
    which restriction and compilation rewrite as one?"""
    return isinstance(g, Exists) and isinstance(g.body, Atom) and g.var in g.body.args


def _compiled_parts(g) -> tuple:
    """`parts`, with a projected atom a leaf."""
    return () if _projected(g) else parts(g)


@memo
def restrict_formula(f: Formula, n: int) -> Formula:
    """An equivalent formula whose relational atoms are in natural order.

    Out-of-order atoms are pinned down with equality quantifiers; a
    directly projected atom (an existential straight over the atom) may
    reuse the bound slot.  Raises CompileError when no rewriting within n
    variables exists, e.g. a fully permuted n-ary atom.  Kept on f, per n.
    """
    if max_var_index(f) >= n:
        raise CompileError(f"formula uses v{max_var_index(f)}, but n = {n}")

    def rewrite_atom(g: Atom, bound: int | None) -> Formula:
        if bound is not None and g.args.count(bound) != 1:
            raise CompileError(
                f"projected variable v{bound} must occur exactly once in {g}"
            )
        star_slot, steps = _renamings(g, bound, n)
        out: Formula = Atom(g.rel, tuple(range(len(g.args))))
        if star_slot is not None:
            out = Exists(star_slot, out)
        for i, j in steps:
            out = Exists(i, And(Eq(i, j), out))
        return out

    out = {}
    for g in postorder(f, _compiled_parts):
        if isinstance(g, Atom):
            out[g] = g if g.args == tuple(range(len(g.args))) else rewrite_atom(g, None)
        elif isinstance(g, Eq):
            out[g] = g
        elif _projected(g):
            out[g] = rewrite_atom(g.body, g.var)
        elif isinstance(g, Exists) and isinstance(g.body, Atom):
            out[g] = out[g.body]  # vacuous quantifier over a nonempty carrier
        else:
            out[g] = rebuilt(g, out)
    return out[f]


@dataclass
class CompiledTerm:
    """A term plus the relation symbol each term variable stands for."""

    term: Term
    symbols: tuple[str, ...]

    def evaluate(self, ambient, generators: dict):
        assignment = {i: generators[s] for i, s in enumerate(self.symbols)}
        return _eval_term(self.term, assignment, ambient)


@memo
def compile_to_term(f: Formula, kind: str, n: int) -> CompiledTerm:
    """Compile to a term over one variable per relation symbol.

    kind "CA": the formula must be restricted (equality atoms allowed);
    conjunction becomes meet, negation complement, an existential the
    cylindrification of its variable, a universal -c_v(-phi), and
    equalities diagonal constants; a complement of a complement is its
    operand, so no `not` stands directly over another.
    kind "SC": the formula must be equality-free; atoms in any variable
    order are reached from the generator by replacement substitutions.
    Equal subformulas (a repeated atom, rewritten atom or connective, and
    both sides of a biconditional) compile to equal nodes, which are one
    object (see `formulas.Node`), so the term's DAG has a few nodes per
    distinct subformula.  Kept on f, per kind and n.
    """
    if kind not in ("CA", "SC"):
        raise CompileError(f"compilation targets CA or SC, not {kind!r}")
    if max_var_index(f) >= n:
        raise CompileError(f"formula uses v{max_var_index(f)}, but n = {n}")
    signature = Signature(kind, n)
    symbols = sorted(_relation_symbols(f))
    slot = {s: i for i, s in enumerate(symbols)}

    def atom_term(g: Atom, bound: int | None) -> TermNode:
        base: TermNode = Var(slot[g.rel])
        if g.args == tuple(range(len(g.args))) and bound is None:
            return base
        if kind == "CA" and bound is None:
            raise CompileError(
                f"atom {g} is not in natural order; restrict the formula first"
            )
        star_slot, steps = _renamings(g, bound, n)
        out = base
        if star_slot is not None:
            out = App(("cyl", (star_slot,)), (out,))
        for i, j in steps:
            if kind == "SC":
                out = App(("subst", (i, j)), (out,))
            else:
                out = App(("cyl", (i,)), (App(("and", ()), (_diag_node(i, j), out)),))
        return out

    def _diag_node(i: int, j: int) -> TermNode:
        return Const(("diag", (min(i, j), max(i, j))))

    out: dict = {}  # subformula -> its term node
    for g in postorder(f, _compiled_parts):
        if isinstance(g, Atom):
            out[g] = atom_term(g, None)
        elif isinstance(g, Eq):
            if kind == "SC":
                raise CompileError("equality atoms need the CA target")
            out[g] = Const(("one", ())) if g.left == g.right else _diag_node(g.left, g.right)
        elif isinstance(g, Iff):
            a, b = out[g.left], out[g.right]
            out[g] = App(("and", ()), (App(("impl", ()), (a, b)), App(("impl", ()), (b, a))))
        elif isinstance(g, Not):
            out[g] = _complement(out[g.body])
        elif type(g) in _CONNECTIVES:  # named as in the plans of models
            out[g] = App((_CONNECTIVES[type(g)], ()), tuple(out[part] for part in parts(g)))
        elif _projected(g):
            out[g] = atom_term(g.body, g.var)
        elif isinstance(g, Exists):
            out[g] = App(("cyl", (g.var,)), (out[g.body],))
        else:  # Forall
            out[g] = _complement(App(("cyl", (g.var,)), (_complement(out[g.body]),)))
    return CompiledTerm(Term(out[f], signature), tuple(symbols))


def _complement(node: TermNode) -> TermNode:
    """The complement of node: its operand when node is one, so that no
    complement stands directly over another."""
    if isinstance(node, App) and node.op == ("not", ()):
        return node.args[0]
    return App(("not", ()), (node,))


def _relation_symbols(f: Formula) -> set[str]:
    return {g.rel for g in postorder(f, parts) if isinstance(g, Atom)}


def natural_atom_sets(model: ModelFinite, symbols, n: int) -> dict:
    """Satisfaction sets of the natural-order atoms, the generator values
    a compiled term should be evaluated at."""
    out = {}
    for name in symbols:
        k = model.vocabulary.arity(name)
        out[name] = satisfaction_set(model, Atom(name, tuple(range(k))), n)
    return out


@lru_cache(maxsize=16)
def _ambient(kind: str, base_size: int, n: int) -> SetAlgebra:
    """The full set algebra, with its operator table, shared by every
    `compiler_agrees` call on it; the 16 used last are kept."""
    return SetAlgebra(kind, base_size, n)


def compiler_agrees(f: Formula, model: ModelFinite, n: int, kind: str) -> bool:
    """Does eval_term after compilation equal direct satisfaction?"""
    compiled = compile_to_term(
        restrict_formula(f, n) if kind == "CA" else f, kind, n
    )
    ambient = _ambient(kind, model.carrier_size, n)
    gens = natural_atom_sets(model, compiled.symbols, n)
    return compiled.evaluate(ambient, gens) == satisfaction_set(model, f, n)
