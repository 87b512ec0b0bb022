"""The recursive passes over formulas and terms that `formulas.postorder`
replaced, kept as the oracles of the walks rebuilt on it.

Each recurses once per level of its input, so it raises RecursionError
past the interpreter's limit, and none keeps its result: `tr`,
`restrict_formula`, `compile_to_term` and `pairs_read` build afresh on
every call.  `node_repr` is `Node.__repr__` as it was.
"""

from baokit.compiler import CompiledTerm, _renamings
from baokit.errors import CompileError, InputError, PreconditionError
from baokit.formulas import (
    _CONNECTIVE,
    _PREC,
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Iff,
    Implies,
    Node,
    Not,
    Or,
    _Binary,
    _Quantifier,
    max_var_index,
)
from baokit.signatures import Signature
from baokit.terms import App, Const, Term, Var
from baokit.translate import MEMBER


def node_repr(node) -> str:
    fields = ", ".join(
        f"{name}={_value_repr(getattr(node, name))}" for name in node._fields
    )
    return f"{type(node).__name__}({fields})"


def _value_repr(value) -> str:
    if isinstance(value, Node):
        return node_repr(value)
    if type(value) is tuple:
        items = [_value_repr(item) for item in value]
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
    return repr(value)


def check_vocabulary(f, vocab) -> None:
    if isinstance(f, Atom):
        if f.rel not in vocab:
            raise InputError(f"unknown relation symbol {f.rel!r}")
        if vocab.arity(f.rel) != len(f.args):
            raise InputError(f"{f.rel} expects {vocab.arity(f.rel)} arguments")
    elif isinstance(f, Not):
        check_vocabulary(f.body, vocab)
    elif isinstance(f, _Binary):
        check_vocabulary(f.left, vocab)
        check_vocabulary(f.right, vocab)
    elif isinstance(f, _Quantifier):
        check_vocabulary(f.body, vocab)


def format_formula(f) -> str:
    def fmt(g, parent_prec: int) -> str:
        if isinstance(g, Atom):
            return f"{g.rel}(" + ",".join(f"v{a}" for a in g.args) + ")"
        if isinstance(g, Eq):
            return f"v{g.left} = v{g.right}"
        if isinstance(g, Not):
            if isinstance(g.body, Eq):
                return f"v{g.body.left} != v{g.body.right}"
            return "!" + fmt(g.body, 5)
        if isinstance(g, _Quantifier):
            word = "ex" if isinstance(g, Exists) else "all"
            if isinstance(g.body, (Atom, Eq)):
                return f"{word} v{g.var} {fmt(g.body, 0)}"
            return f"{word} v{g.var} ({fmt(g.body, 0)})"
        prec = _PREC[type(g)]
        text = (
            fmt(g.left, prec + 1)
            + f" {_CONNECTIVE[type(g)]} "
            + fmt(g.right, prec if isinstance(g, Implies) else prec + 1)
        )
        if prec < parent_prec:
            return "(" + text + ")"
        return text

    return fmt(f, 0)


def format_term(term: Term) -> str:
    def fmt(node) -> str:
        if isinstance(node, Var):
            return f"(var {node.index})"
        if isinstance(node, Const):
            name, params = node.op
            if name == "diag":
                return f"(diag {params[0]} {params[1]})"
            return name
        name, params = node.op
        inner = " ".join(
            [str(p) for p in params] + [fmt(a) for a in node.args]
        )
        return f"({name} {inner})"

    return fmt(term.root)


def tr(f):
    def spare(i: int, j: int) -> int:
        k = 0
        while k == i or k == j:
            k += 1
        return k

    def walk(g):
        if isinstance(g, Atom):
            return g
        if isinstance(g, Eq):
            k = spare(g.left, g.right)
            return Forall(k, Iff(Atom(MEMBER, (k, g.left)), Atom(MEMBER, (k, g.right))))
        if isinstance(g, Not):
            return Not(walk(g.body))
        if isinstance(g, (And, Or, Implies, Iff)):
            return type(g)(walk(g.left), walk(g.right))
        if isinstance(g, (Exists, Forall)):
            return type(g)(g.var, walk(g.body))
        raise TypeError(f"not a formula: {g!r}")

    return walk(f)


def pairs_read(f):
    """window._pairs_read as it was."""
    def walk(g):
        if isinstance(g, Atom):
            if len(g.args) < 2:
                raise PreconditionError(
                    f"window reads the first two places of every atom, and "
                    f"{format_formula(g)} has {len(g.args)}"
                )
            return Atom(g.rel, g.args[:2])
        if isinstance(g, Eq):
            return g
        if isinstance(g, Not):
            return Not(walk(g.body))
        if isinstance(g, (Exists, Forall)):
            return type(g)(g.var, walk(g.body))
        return type(g)(walk(g.left), walk(g.right))

    return walk(f)


def unrestricted_atom(f, n: int):
    def walk(g):
        if isinstance(g, Atom):
            if g.args != tuple(range(len(g.args))) or max(g.args, default=-1) >= n:
                return g
            return None
        if isinstance(g, Eq):
            return None
        if isinstance(g, Not):
            return walk(g.body)
        if isinstance(g, (And, Or, Implies, Iff)):
            return walk(g.left) or walk(g.right)
        if isinstance(g, (Exists, Forall)):
            return walk(g.body)
        raise TypeError(f"not a formula: {g!r}")

    return walk(f)


def restrict_formula(f, n: int):
    if max_var_index(f) >= n:
        raise CompileError(f"formula uses v{max_var_index(f)}, but n = {n}")

    def rewrite_atom(g, bound):
        if bound is not None and g.args.count(bound) != 1:
            raise CompileError(
                f"projected variable v{bound} must occur exactly once in {g}"
            )
        star_slot, steps = _renamings(g, bound, n)
        out = Atom(g.rel, tuple(range(len(g.args))))
        if star_slot is not None:
            out = Exists(star_slot, out)
        for i, j in steps:
            out = Exists(i, And(Eq(i, j), out))
        return out

    def walk(g):
        if isinstance(g, Atom):
            if g.args == tuple(range(len(g.args))):
                return g
            return rewrite_atom(g, None)
        if isinstance(g, Eq):
            return g
        if isinstance(g, Not):
            return Not(walk(g.body))
        if isinstance(g, (And, Or, Implies, Iff)):
            return type(g)(walk(g.left), walk(g.right))
        if isinstance(g, Exists) and isinstance(g.body, Atom):
            if g.var in g.body.args:
                return rewrite_atom(g.body, g.var)
            return walk(g.body)  # vacuous quantifier over a nonempty carrier
        if isinstance(g, (Exists, Forall)):
            return type(g)(g.var, walk(g.body))
        raise TypeError(f"not a formula: {g!r}")

    return walk(f)


def relation_symbols(f) -> set:
    if isinstance(f, Atom):
        return {f.rel}
    if isinstance(f, Eq):
        return set()
    if isinstance(f, Not):
        return relation_symbols(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return relation_symbols(f.left) | relation_symbols(f.right)
    if isinstance(f, (Exists, Forall)):
        return relation_symbols(f.body)
    raise TypeError(f"not a formula: {f!r}")


def compile_to_term(f, kind: str, n: int) -> CompiledTerm:
    if kind not in ("CA", "SC"):
        raise CompileError(f"compilation targets CA or SC, not {kind!r}")
    if max_var_index(f) >= n:
        raise CompileError(f"formula uses v{max_var_index(f)}, but n = {n}")
    signature = Signature(kind, n)
    symbols = sorted(relation_symbols(f))
    slot = {s: i for i, s in enumerate(symbols)}

    def atom_term(g, bound):
        base = Var(slot[g.rel])
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

    def _diag_node(i: int, j: int):
        return Const(("diag", (min(i, j), max(i, j))))

    def walk(g):
        if isinstance(g, Atom):
            return atom_term(g, None)
        if isinstance(g, Eq):
            if kind == "SC":
                raise CompileError("equality atoms need the CA target")
            if g.left == g.right:
                return Const(("one", ()))
            return _diag_node(g.left, g.right)
        if isinstance(g, Not):
            return App(("not", ()), (walk(g.body),))
        if isinstance(g, And):
            return App(("and", ()), (walk(g.left), walk(g.right)))
        if isinstance(g, Or):
            return App(("or", ()), (walk(g.left), walk(g.right)))
        if isinstance(g, Implies):
            return App(("impl", ()), (walk(g.left), walk(g.right)))
        if isinstance(g, Iff):
            a, b = walk(g.left), walk(g.right)
            return App(
                ("and", ()), (App(("impl", ()), (a, b)), App(("impl", ()), (b, a)))
            )
        if isinstance(g, Exists):
            if isinstance(g.body, Atom) and g.var in g.body.args:
                return atom_term(g.body, g.var)
            return App(("cyl", (g.var,)), (walk(g.body),))
        if isinstance(g, Forall):
            inner = App(("not", ()), (walk(g.body),))
            return App(("not", ()), (App(("cyl", (g.var,)), (inner,)),))
        raise TypeError(f"not a formula: {g!r}")

    return CompiledTerm(Term(walk(f), signature), tuple(symbols))
