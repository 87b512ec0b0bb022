"""Terms over an operator signature, with evaluation and a text form.

The text form is prefix s-expressions, for example
``(and (cyl 0 (var 0)) (not (diag 0 1)))``.  Constants ``zero``, ``one``
and ``id`` are bare words.
"""

from dataclasses import dataclass
from typing import Union

from .errors import SignatureError, UnboundVariableError
from .signatures import OpRef, Signature, opref_str


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    op: OpRef


@dataclass(frozen=True)
class App:
    op: OpRef
    args: tuple["TermNode", ...]


TermNode = Union[Var, Const, App]


class Term:
    """A validated term: every operator belongs to the declared signature."""

    __slots__ = ("root", "signature", "var_count")

    def __init__(self, root: TermNode, signature: Signature):
        self.root = root
        self.signature = signature
        self.var_count = self._validate(root) + 1

    def _validate(self, node: TermNode) -> int:
        """Check operators against the signature; return the max variable index."""
        if isinstance(node, Var):
            if node.index < 0:
                raise SignatureError("variable indices must be nonnegative")
            return node.index
        if isinstance(node, Const):
            if self.signature.op_arity(node.op) != 0 or not self.signature.allows(node.op):
                raise SignatureError(
                    f"{opref_str(node.op)} is not a constant of {self.signature.label}"
                )
            return -1
        if isinstance(node, App):
            if not self.signature.allows(node.op):
                raise SignatureError(
                    f"{opref_str(node.op)} is not in {self.signature.label}"
                )
            if self.signature.op_arity(node.op) != len(node.args):
                raise SignatureError(
                    f"{opref_str(node.op)} applied to {len(node.args)} arguments"
                )
            top = -1
            for a in node.args:
                top = max(top, self._validate(a))
            return top
        raise TypeError(f"not a term node: {node!r}")

    def __eq__(self, other):
        return (
            isinstance(other, Term)
            and self.signature == other.signature
            and self.root == other.root
        )

    def __hash__(self):
        return hash((self.signature, self.root))

    def __repr__(self):
        return f"Term({format_term(self)}, {self.signature.label})"


def eval_term(term: Term, assignment, ambient):
    """Evaluate bottom-up in `ambient` (a SetAlgebra or RelationAlgebra).

    `assignment` maps variable indices to elements of the ambient algebra.
    Structurally shared subterms are evaluated once.
    """
    if ambient.signature != term.signature:
        raise SignatureError(
            f"term over {term.signature.label} evaluated in {ambient.signature.label}"
        )
    cache: dict[int, object] = {}

    def ev(node):
        got = cache.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Var):
            try:
                value = assignment[node.index]
            except KeyError:
                raise UnboundVariableError(f"no value for variable {node.index}") from None
            if not ambient.contains(value):
                raise SignatureError(f"assignment for variable {node.index} is foreign")
        elif isinstance(node, Const):
            value = ambient.apply(node.op)
        else:
            name = node.op[0]
            if name == "and":
                value = ev(node.args[0]) & ev(node.args[1])
            elif name == "or":
                value = ev(node.args[0]) | ev(node.args[1])
            elif name == "not":
                value = ~ev(node.args[0])
            elif name == "impl":
                value = ~ev(node.args[0]) | ev(node.args[1])
            else:
                value = ambient.apply(node.op, *(ev(a) for a in node.args))
        cache[id(node)] = value
        return value

    return ev(term.root)


_CONST_WORDS = {"zero": ("zero", ()), "one": ("one", ()), "id": ("id", ())}
_PARAM_COUNT = {"cyl": 1, "subst": 2, "diag": 2}


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


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_term(text: str, signature: Signature) -> Term:
    """Parse the s-expression form; a syntax error is a ValueError that
    names the position of the offending token."""
    tokens = _tokenize(text)
    pos = 0

    def fail(msg, at):
        raise ValueError(f"term syntax error: {msg} (at token {at})")

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            fail("unexpected end of input", pos)
        pos += 1
        return tokens[pos - 1]

    def number() -> int:
        tok = take()
        try:
            return int(tok)
        except ValueError:
            fail(f"expected a number, found {tok!r}", pos - 1)

    def parse_node():
        nonlocal pos
        tok = take()
        if tok in _CONST_WORDS:
            return Const(_CONST_WORDS[tok])
        if tok != "(":
            fail(f"unexpected token {tok!r}", pos - 1)
        head = take()
        if head == "var":
            node = Var(number())
        elif head == "diag":
            node = Const(("diag", (number(), number())))
        else:
            params = tuple(number() for _ in range(_PARAM_COUNT.get(head, 0)))
            args = []
            while pos < len(tokens) and tokens[pos] != ")":
                args.append(parse_node())
            node = App((head, params), tuple(args))
        if pos >= len(tokens) or tokens[pos] != ")":
            fail("missing closing parenthesis", pos)
        pos += 1
        return node

    root = parse_node()
    if pos != len(tokens):
        fail("trailing input", pos)
    return Term(root, signature)
