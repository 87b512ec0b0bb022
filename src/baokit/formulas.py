"""First-order formulas over relational vocabularies.

Variables are nonnegative indices printed as v0, v1, ...  The concrete
grammar uses ASCII connectives: & | ! -> <-> = != and the quantifier words
`all` and `ex`.  A quantifier body is a unary item (atom, negation,
another quantifier, or a parenthesized formula).  Nesting of (, ! and
quantifiers, or a formula tree, past MAX_NESTING levels is a syntax error.
"""

from dataclasses import dataclass
from functools import lru_cache, partial
from operator import attrgetter
from typing import Union

from .errors import FormulaSyntaxError


def _node(cls):
    """Freeze `cls` as a dataclass whose hash is computed on first use and
    stored.  The generated hash would walk the whole tree on every call,
    and every cache keyed by a formula hashes it."""
    fields = attrgetter(*cls.__annotations__)

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash((cls, fields(self)))
            object.__setattr__(self, "_hash", value)
        return value

    cls._hash = None
    cls.__hash__ = __hash__
    return dataclass(frozen=True)(cls)


@_node
class Atom:
    rel: str
    args: tuple[int, ...]


@_node
class Eq:
    left: int
    right: int


@_node
class Not:
    body: "Formula"


@_node
class And:
    left: "Formula"
    right: "Formula"


@_node
class Or:
    left: "Formula"
    right: "Formula"


@_node
class Implies:
    left: "Formula"
    right: "Formula"


@_node
class Iff:
    left: "Formula"
    right: "Formula"


@_node
class Exists:
    var: int
    body: "Formula"


@_node
class Forall:
    var: int
    body: "Formula"


Formula = Union[Atom, Eq, Not, And, Or, Implies, Iff, Exists, Forall]

_BINARY = (And, Or, Implies, Iff)
_QUANT = (Exists, Forall)


def conj(parts) -> Formula:
    parts = list(parts)
    if not parts:
        raise ValueError("empty conjunction")
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts) -> Formula:
    parts = list(parts)
    if not parts:
        raise ValueError("empty disjunction")
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def neq(i: int, j: int) -> Formula:
    return Not(Eq(i, j))


@lru_cache(maxsize=None)
def free_vars(f: Formula) -> frozenset:
    if isinstance(f, Atom):
        return frozenset(f.args)
    if isinstance(f, Eq):
        return frozenset((f.left, f.right))
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, _BINARY):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, _QUANT):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


@lru_cache(maxsize=None)
def max_var_index(f: Formula) -> int:
    """Largest variable index anywhere in the tree, bound or free; -1 if none."""
    if isinstance(f, Atom):
        return max(f.args, default=-1)
    if isinstance(f, Eq):
        return max(f.left, f.right)
    if isinstance(f, Not):
        return max_var_index(f.body)
    if isinstance(f, _BINARY):
        return max(max_var_index(f.left), max_var_index(f.right))
    if isinstance(f, _QUANT):
        return max(f.var, max_var_index(f.body))
    raise TypeError(f"not a formula: {f!r}")


@lru_cache(maxsize=None)
def quantifier_depth(f: Formula) -> int:
    if isinstance(f, (Atom, Eq)):
        return 0
    if isinstance(f, Not):
        return quantifier_depth(f.body)
    if isinstance(f, _BINARY):
        return max(quantifier_depth(f.left), quantifier_depth(f.right))
    if isinstance(f, _QUANT):
        return 1 + quantifier_depth(f.body)
    raise TypeError(f"not a formula: {f!r}")


@dataclass(frozen=True)
class Vocabulary:
    """Relation symbols with their arities."""

    relations: tuple[tuple[str, int], ...]

    @classmethod
    def of(cls, **arities: int) -> "Vocabulary":
        return cls(tuple(sorted(arities.items())))

    def arity(self, name: str) -> int:
        for rel, k in self.relations:
            if rel == name:
                return k
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(rel == name for rel, _ in self.relations)


def check_vocabulary(f: Formula, vocab: Vocabulary) -> None:
    if isinstance(f, Atom):
        if f.rel not in vocab:
            raise ValueError(f"unknown relation symbol {f.rel!r}")
        if vocab.arity(f.rel) != len(f.args):
            raise ValueError(f"{f.rel} expects {vocab.arity(f.rel)} arguments")
    elif isinstance(f, Not):
        check_vocabulary(f.body, vocab)
    elif isinstance(f, _BINARY):
        check_vocabulary(f.left, vocab)
        check_vocabulary(f.right, vocab)
    elif isinstance(f, _QUANT):
        check_vocabulary(f.body, vocab)


# -- printing ----------------------------------------------------------------

_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4}
_CONNECTIVE = {Iff: "<->", Implies: "->", Or: "|", And: "&"}


def format_formula(f: Formula) -> str:
    def fmt(g, parent_prec: int) -> str:
        if isinstance(g, Atom):
            return f"{g.rel}(" + ",".join(f"v{a}" for a in g.args) + ")"
        if isinstance(g, Eq):
            return f"v{g.left} = v{g.right}"
        if isinstance(g, Not):
            if isinstance(g.body, Eq):
                return f"v{g.body.left} != v{g.body.right}"
            return "!" + fmt(g.body, 5)
        if isinstance(g, _QUANT):
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


# -- parsing -----------------------------------------------------------------


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        i = 0
        symbols = ("<->", "->", "!=", "&", "|", "!", "=", "(", ")", ",")
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            for sym in symbols:
                if text.startswith(sym, i):
                    self.items.append(("sym", sym, i))
                    i += len(sym)
                    break
            else:
                if ch.isalnum() or ch == "_":
                    j = i
                    while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                        j += 1
                    self.items.append(("word", text[i:j], i))
                    i = j
                else:
                    raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
        self.pos = 0

    def peek(self):
        if self.pos < len(self.items):
            return self.items[self.pos]
        return ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, text, at = self.next()
        if text != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {text!r}", at)


def _var_index(token) -> int:
    kind, text, at = token
    if kind != "word" or not text.startswith("v") or not text[1:].isdigit():
        raise FormulaSyntaxError(f"expected a variable like v0, found {text!r}", at)
    return int(text[1:])


# The deepest nesting a parse accepts, of the (, ! and quantifiers around a
# token and of the tree it builds: far above any shipped formula, and far
# below where the recursive passes over a formula run out of stack.
MAX_NESTING = 100


def parse_formula(text: str) -> Formula:
    toks = _Tokens(text)
    depth = 0  # the (, ! and quantifiers open around the current token

    # Each parse step returns a (formula, height) pair.
    def grow(at, make, *parts):
        height = 1 + max(h for _, h in parts)
        if height > MAX_NESTING:
            raise FormulaSyntaxError(f"nesting deeper than {MAX_NESTING} levels", at)
        return make(*(f for f, _ in parts)), height

    def parse_iff():
        left = parse_impl()
        while toks.peek()[1] == "<->":
            left = grow(toks.next()[2], Iff, left, parse_impl())
        return left

    def parse_impl():  # right-associative, folded in a loop
        parts, arrows = [parse_or()], []
        while toks.peek()[1] == "->":
            arrows.append(toks.next()[2])
            parts.append(parse_or())
        out = parts.pop()
        while parts:
            out = grow(arrows.pop(), Implies, parts.pop(), out)
        return out

    def parse_or():
        left = parse_and()
        while toks.peek()[1] == "|":
            left = grow(toks.next()[2], Or, left, parse_and())
        return left

    def parse_and():
        left = parse_unary()
        while toks.peek()[1] == "&":
            left = grow(toks.next()[2], And, left, parse_unary())
        return left

    def parse_unary():
        nonlocal depth
        kind, text, at = toks.peek()
        if text not in ("!", "(", "all", "ex"):
            if kind == "word":
                return parse_atom()
            raise FormulaSyntaxError(f"unexpected token {text!r}", at)
        if depth == MAX_NESTING:
            raise FormulaSyntaxError(f"nesting deeper than {MAX_NESTING} levels", at)
        toks.next()
        depth += 1
        if text == "!":
            out = grow(at, Not, parse_unary())
        elif text == "(":
            out = parse_iff()
            toks.expect(")")
        else:
            var = _var_index(toks.next())
            out = grow(at, partial(Forall if text == "all" else Exists, var), parse_unary())
        depth -= 1
        return out

    def parse_atom():
        kind, text, at = toks.next()
        if text.startswith("v") and text[1:].isdigit():
            left = int(text[1:])
            op = toks.next()
            if op[1] == "=":
                return Eq(left, _var_index(toks.next())), 0
            if op[1] == "!=":
                return Not(Eq(left, _var_index(toks.next()))), 1
            raise FormulaSyntaxError(f"expected = or != after v{left}", op[2])
        if not text[0].isalpha():
            raise FormulaSyntaxError(f"expected a relation symbol, found {text!r}", at)
        toks.expect("(")
        args = [_var_index(toks.next())]
        while toks.peek()[1] == ",":
            toks.next()
            args.append(_var_index(toks.next()))
        toks.expect(")")
        return Atom(text, tuple(args)), 0

    out, _ = parse_iff()
    kind, text, at = toks.peek()
    if kind != "eof":
        raise FormulaSyntaxError(f"trailing input {text!r}", at)
    return out
