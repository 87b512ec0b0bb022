"""First-order formulas over relational vocabularies.

Variables are nonnegative indices printed as v0, v1, ...  The concrete
grammar uses ASCII connectives: & | ! -> <-> = != and the quantifier words
`all` and `ex`.  A quantifier body is a unary item (atom, negation,
another quantifier, or a parenthesized formula).  Nesting of (, ! and
quantifiers, or a formula tree, past MAX_NESTING levels is a syntax error.
Formula nodes, and the term nodes of `terms`, are interned (see Node).

`memo` keeps what a function derives from a node on the node itself, made
once and freed with it, and `postorder` walks the distinct nodes under a
root on its own stack, so that printing, translating and compiling a
formula of any depth need no recursion.
"""

import threading
import weakref
from dataclasses import dataclass
from functools import partial, wraps

from .errors import FormulaSyntaxError, InputError

# Every node alive, by its key (its class, then its fields).
_interned = weakref.WeakValueDictionary()
_interning = threading.Lock()


class Node:
    """A node of a formula or a term, interned: a class builds it from its
    fields, named in `_fields`, and building one again from equal fields
    gives the same object for as long as that object is alive.  Equal nodes
    are therefore one object, compared and hashed by identity in O(1) at
    any depth; the fields hash and compare their child nodes by identity
    too, so building a node looks at its own fields only.  Nodes are
    immutable, and pickling or copying one builds it again.  `_memo`, a
    dict made on first use, holds what `memo` functions derived from it."""

    __slots__ = ("__weakref__", "_memo")
    _fields: tuple = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _interned.get(key)
        if node is None:
            if len(fields) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(fields)}")
            with _interning:
                node = _interned.get(key)
                if node is None:
                    node = object.__new__(cls)
                    for name, value in zip(cls._fields, fields):
                        object.__setattr__(node, name, value)
                    node._derive()
                    _interned[key] = node
        return node

    def _derive(self):
        """Fill in what the node stores besides its fields."""

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        text = {}
        for node in postorder(self):
            fields = ", ".join(f"{name}={_field_text(getattr(node, name), text)}" for name in node._fields)
            text[node] = f"{type(node).__name__}({fields})"
        return text[self]


def _nodes_in(node) -> list:
    """The nodes among node's fields, a tuple field's items included."""
    values = [getattr(node, name) for name in node._fields]
    return [item for value in values for item in (value if type(value) is tuple else (value,))
            if isinstance(item, Node)]


def _field_text(value, text: dict) -> str:
    """repr(value), with text[node] for each node in it."""
    if type(value) is not tuple:
        return text[value] if isinstance(value, Node) else repr(value)
    items = [_field_text(item, text) for item in value]
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def postorder(root, children=_nodes_in):
    """Each distinct node under `root`, root included, once, after its
    children, left to right, as a recursive walk that skips the nodes it
    has seen finishes them, but on a stack of its own.  `children(node)`
    gives a node's children, so a caller may make a node a leaf."""
    done = set()
    stack = [(root, iter(children(root)))]  # each node with its children to go
    while stack:
        node, todo = stack[-1]
        for child in todo:
            if child not in done:
                stack.append((child, iter(children(child))))
                break
        else:
            stack.pop()
            done.add(node)
            yield node


def memo(job):
    """`job(node, *args)`, kept on the node, in `node._memo[job][args]`:
    made once, it lives as long as the node does.  A result that refers
    back to its node is a cycle, which the collector frees, but a result
    must not be a node built over the node: the intern table's key of the
    result holds the node, so neither would be freed.  Anything but a node
    is passed to `job` each time."""

    @wraps(job)
    def kept(node, *args):
        try:
            return node._memo[job][args]
        except KeyError:
            pass
        except AttributeError:  # no memo yet, or not a node
            if not isinstance(node, Node):
                return job(node, *args)
            object.__setattr__(node, "_memo", {})
        value = node._memo.setdefault(job, {})[args] = job(node, *args)
        return value

    return kept


class Formula(Node):
    """A formula node.  Each stores, computed from its children's when it is
    built, its free variables `free`, the largest variable index in it,
    bound or free, `top` (-1 if none), and its quantifier depth `depth`."""

    __slots__ = ("free", "top", "depth")

    def _derive(self):
        for name, value in zip(Formula.__slots__, self._measures()):
            object.__setattr__(self, name, value)


class Atom(Formula):
    __slots__ = _fields = ("rel", "args")

    def _measures(self):
        return frozenset(self.args), max(self.args, default=-1), 0


class Eq(Formula):
    __slots__ = _fields = ("left", "right")

    def _measures(self):
        return frozenset((self.left, self.right)), max(self.left, self.right), 0


class Not(Formula):
    __slots__ = _fields = ("body",)

    def _measures(self):
        return self.body.free, self.body.top, self.body.depth


class _Binary(Formula):
    __slots__ = _fields = ("left", "right")

    def _measures(self):
        left, right = self.left, self.right
        return left.free | right.free, max(left.top, right.top), max(left.depth, right.depth)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class _Quantifier(Formula):
    __slots__ = _fields = ("var", "body")

    def _measures(self):
        body = self.body
        return body.free - {self.var}, max(self.var, body.top), 1 + body.depth


class Exists(_Quantifier):
    __slots__ = ()


class Forall(_Quantifier):
    __slots__ = ()


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


def parts(g) -> tuple:
    """The subformulas of g, left to right, for `postorder`: none for an
    atom or an equality; TypeError for what is not a formula node."""
    if isinstance(g, (Not, _Quantifier)):
        return (g.body,)
    if isinstance(g, _Binary):
        return (g.left, g.right)
    if isinstance(g, (Atom, Eq)):
        return ()
    raise TypeError(f"not a formula: {g!r}")


def rebuilt(g, new: dict) -> Formula:
    """g with new[h] in place of each subformula h."""
    fields = (getattr(g, name) for name in g._fields)
    return type(g)(*(new[value] if isinstance(value, Formula) else value for value in fields))


def _formula(f) -> Formula:
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return f


def free_vars(f: Formula) -> frozenset:
    return _formula(f).free


def max_var_index(f: Formula) -> int:
    """Largest variable index anywhere in the tree, bound or free; -1 if none."""
    return _formula(f).top


def quantifier_depth(f: Formula) -> int:
    return _formula(f).depth


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
    """Raise InputError at the first atom, left to right, whose relation
    `vocab` lacks or whose argument count is not its arity."""
    for g in postorder(f, parts):
        if isinstance(g, Atom):
            if g.rel not in vocab:
                raise InputError(f"unknown relation symbol {g.rel!r}")
            if vocab.arity(g.rel) != len(g.args):
                raise InputError(f"{g.rel} expects {vocab.arity(g.rel)} arguments")


# -- printing ----------------------------------------------------------------

_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4}
_CONNECTIVE = {Iff: "<->", Implies: "->", Or: "|", And: "&"}


def format_formula(f: Formula) -> str:
    text = {}  # subformula -> its text, with no parentheses around it

    def operand(g, prec: int) -> str:
        """The text of g, in parentheses when it binds looser than prec."""
        return f"({text[g]})" if _PREC.get(type(g), 5) < prec else text[g]

    for g in postorder(f, parts):
        if isinstance(g, Atom):
            text[g] = f"{g.rel}(" + ",".join(f"v{a}" for a in g.args) + ")"
        elif isinstance(g, Eq):
            text[g] = f"v{g.left} = v{g.right}"
        elif isinstance(g, Not):
            body = g.body
            text[g] = f"v{body.left} != v{body.right}" if isinstance(body, Eq) else "!" + operand(body, 5)
        elif isinstance(g, _Quantifier):
            word = "ex" if isinstance(g, Exists) else "all"
            body = text[g.body] if isinstance(g.body, (Atom, Eq)) else f"({text[g.body]})"
            text[g] = f"{word} v{g.var} {body}"
        else:
            prec = _PREC[type(g)]
            right = prec if isinstance(g, Implies) else prec + 1
            text[g] = f"{operand(g.left, prec + 1)} {_CONNECTIVE[type(g)]} {operand(g.right, right)}"
    return text[f]


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
# below where the parser, or the source that `models.holds` generates,
# runs out of stack.
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
