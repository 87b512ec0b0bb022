"""Terms over an operator signature, with evaluation and a text form.

A term is compiled once per value domain (the tuple space of a set
algebra, or the base of a relation algebra) into a straight-line program
over raw ints, kept on the term: the constants and diagonals are hoisted,
each cylindrification is bound to its stride and digit mask, and a shared
subterm is computed once.  `eval_term` runs it on one assignment;
`eval_term_lanes` runs it on many at once, side by side as the lanes of a
wider space (see `Lanes`), since the operators on coordinates below n
never touch the coordinates n and up.

The text form is prefix s-expressions, for example
``(and (cyl 0 (var 0)) (not (diag 0 1)))``.  Constants ``zero``, ``one``
and ``id`` are bare words.
"""

import operator
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Union

from .errors import SignatureError, UnboundVariableError
from .signatures import OpRef, Signature, opref_str
from .spaces import (
    MAX_SPACE_BITS,
    RelationAlgebra,
    SetAlgebra,
    TupleSpace,
    compose_bits,
    converse_bits,
    cylinder,
    diag,
)


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

    __slots__ = ("root", "signature", "var_count", "_programs")

    def __init__(self, root: TermNode, signature: Signature):
        self.root = root
        self.signature = signature
        self.var_count = self._validate(root) + 1
        self._programs: dict = {}  # compiled programs, by value domain

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


def _check_signature(term: Term, ambient) -> None:
    if ambient.signature != term.signature:
        raise SignatureError(
            f"term over {term.signature.label} evaluated in {ambient.signature.label}"
        )


class StraightLine:
    """The register layout of a straight-line program, apart from the
    functions its steps apply and the values of its inputs.

    Registers 0 .. fixed-1 hold the inputs.  Step k reads the nodes in
    operands[k] (node i < fixed is input i, node fixed + j the result of
    step j; a unary step reads one node, twice) from registers left[k] and
    right[k] and stores its result in out[k].  A result register is reused
    once its last reader has run, so at most fixed + len(blank) values are
    alive at a time, however long the program.
    """

    __slots__ = ("left", "right", "out", "blank", "root")

    def __init__(self, fixed: int, operands, root: int):
        last_read = {a: k for k, args in enumerate(operands) for a in args}
        slot = list(range(fixed))  # node -> register
        free: list[int] = []  # result registers whose last reader has run
        width = fixed
        self.left, self.right, self.out = array("l"), array("l"), array("l")
        for k, args in enumerate(operands):
            self.left.append(slot[args[0]])
            self.right.append(slot[args[-1]])
            for a in dict.fromkeys(args):
                if last_read[a] == k and a >= fixed:
                    free.append(slot[a])
            if free:
                slot.append(free.pop())
            else:
                slot.append(width)
                width += 1
            self.out.append(slot[-1])
        self.blank = [None] * (width - fixed)
        self.root = slot[root]

    def execute(self, functions, inputs: list) -> int:
        """The root's value: step k applies functions[k] to its two
        operand registers."""
        r = inputs + self.blank
        for f, a, b, out in zip(functions, self.left, self.right, self.out):
            r[out] = f(r[a], r[b])
        return r[self.root]


class _Program(StraightLine):
    """A term compiled for one value domain.

    Its inputs are the hoisted constants, then one value per variable (in
    `variables` order, the order of first occurrence); its steps are the
    operator nodes, children before parents, so that a shared subterm is
    computed once.
    """

    __slots__ = ("variables", "constants", "functions")

    def __init__(self, variables, constants, functions, operands, root):
        super().__init__(len(constants) + len(variables), operands, root)
        self.variables = variables
        self.constants = constants
        self.functions = functions

    def run(self, inputs: list) -> int:
        return self.execute(self.functions, self.constants + inputs)


def _compile(term: Term, domain) -> _Program:
    """Lay out the term's DAG (nodes told apart by identity) as a program;
    `domain` supplies the constants' values and the operators' functions.
    The walk keeps its own stack: a recursive closure would refer to itself
    and leave a reference cycle behind every compile."""
    order = []  # children before parents, each node once
    seen = set()
    stack = [(term.root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, App):  # laid out after its arguments, in order
                stack.append((node, True))
                for a in reversed(node.args):
                    stack.append((a, False))
            else:
                order.append(node)
    constants = list(dict.fromkeys(n.op for n in order if isinstance(n, Const)))
    variables = list(dict.fromkeys(n.index for n in order if isinstance(n, Var)))
    const_node = {op: k for k, op in enumerate(constants)}
    var_node = {index: len(constants) + k for k, index in enumerate(variables)}
    number = {}  # id(node) -> node number
    apps = []
    for node in order:
        if isinstance(node, Const):
            number[id(node)] = const_node[node.op]
        elif isinstance(node, Var):
            number[id(node)] = var_node[node.index]
        else:
            number[id(node)] = len(constants) + len(variables) + len(apps)
            apps.append(node)
    return _Program(
        tuple(variables),
        [domain.constant(op) for op in constants],
        tuple(domain.function(node.op) for node in apps),
        [tuple(number[id(a)] for a in node.args) for node in apps],
        number[id(term.root)],
    )


class Operators:
    """The raw-int operators of one value domain, each built once and
    shared by every step that applies it; all are binary, a unary one
    ignoring its second argument.  A subclass builds the others in make."""

    def __init__(self, full: int):
        self.full = full
        self.functions = {
            ("and", ()): operator.and_,
            ("or", ()): operator.or_,
            ("not", ()): lambda x, _: full ^ x,
            ("impl", ()): lambda x, y: (full ^ x) | y,
        }

    def function(self, op):
        f = self.functions.get(op)
        if f is None:
            f = self.functions[op] = self.make(op)
        return f


class _SetDomain(Operators):
    """Operators of a set algebra on coordinates 0 .. n-1 of `space`; every
    coordinate of `space` from n up is left alone, so it may number lanes."""

    def __init__(self, space: TupleSpace, n: int):
        super().__init__(space.full_mask)
        self.space = space
        self.n = n

    def constant(self, op) -> int:
        name, params = op
        if name == "zero":
            return 0
        if name == "one":
            return self.full
        if name == "diag":
            return diag(self.space, *params).bits
        raise SignatureError(f"unsupported constant {name!r}")

    def make(self, op):
        name, params = op
        if name == "cyl":
            return cylinder(self.space, params[0])
        if name == "subst":  # c_i(d_ij . x)
            i, j = params
            same = diag(self.space, i, j).bits
            project = cylinder(self.space, i)
            return lambda x, _: project(x & same)
        if name == "disc":  # c_0 c_1 ... c_{n-1}: the top exactly when x is nonzero
            kernels = [cylinder(self.space, c) for c in range(self.n)]

            def disc(x, _):
                for kernel in kernels:
                    x = kernel(x)
                return x

            return disc
        raise SignatureError(f"unsupported operator {name!r}")


class _RelationDomain(Operators):
    """Operators of the algebra of all binary relations on a finite base."""

    def __init__(self, ambient: RelationAlgebra):
        super().__init__(ambient.one.bits)
        self.ambient = ambient

    def constant(self, op) -> int:
        return self.ambient.apply(op).bits

    def make(self, op):
        u = self.ambient.base_size
        if op[0] == "conv":
            return lambda x, _: converse_bits(u, x)
        if op[0] == "comp":
            return lambda x, y: compose_bits(u, x, y)
        raise SignatureError(f"unsupported operator {op[0]!r}")


def _cached_program(term: Term, key: tuple, domain) -> _Program:
    program = term._programs.get(key)
    if program is None:
        program = term._programs[key] = _compile(term, domain())
    return program


def _set_program(term: Term, space: TupleSpace, n: int) -> _Program:
    key = (space.base_size, space.dimension, n)
    return _cached_program(term, key, lambda: _SetDomain(space, n))


def _program(term: Term, ambient) -> _Program:
    """The term compiled for `ambient`, built on first use and kept on the term."""
    _check_signature(term, ambient)
    if isinstance(ambient, SetAlgebra):
        return _set_program(term, ambient.space, ambient.space.dimension)
    if isinstance(ambient, RelationAlgebra):
        key = (ambient.base_size,)
        return _cached_program(term, key, lambda: _RelationDomain(ambient))
    raise TypeError(f"cannot evaluate terms in {type(ambient).__name__}")


def eval_term(term: Term, assignment, ambient):
    """Evaluate in `ambient` (a SetAlgebra or RelationAlgebra).

    `assignment` maps variable indices to elements of the ambient algebra.
    The term is compiled once per space and kept on the term; a structurally
    shared subterm is evaluated once.
    """
    program = _program(term, ambient)
    inputs = []
    for index in program.variables:
        try:
            value = assignment[index]
        except KeyError:
            raise UnboundVariableError(f"no value for variable {index}") from None
        if not ambient.contains(value):
            raise SignatureError(f"assignment for variable {index} is foreign")
        inputs.append(value.bits)
    return ambient.from_bits(program.run(inputs))


def lanes_per_batch(ambient) -> int:
    """How many values `eval_term_lanes` evaluates in one go: u**d for the
    largest d with u**(n + d) within the space budget; 1 for relations."""
    if isinstance(ambient, RelationAlgebra) or ambient.space.base_size == 1:
        return 1
    u = ambient.space.base_size
    size = ambient.space.size
    lanes = 1
    while size * lanes * u <= MAX_SPACE_BITS:
        lanes *= u
    return lanes


def lane_batches(ambient, count: int) -> Iterator[range]:
    """Split lanes 0 .. count-1 into the batches evaluated in one go."""
    step = lanes_per_batch(ambient)
    for start in range(0, count, step):
        yield range(start, min(start + step, count))


class Lanes:
    """`count` values of one set algebra side by side in one integer.

    Value l sits in bits l*w .. (l+1)*w - 1, where w = u**n is the width of
    one value: the coordinates n and up of TupleSpace(u, n + d), with
    u**d >= count, number the lanes.  A term over the algebra's signature
    acts on coordinates below n only, so its program never mixes lanes.
    """

    __slots__ = ("ambient", "space", "count", "width", "full")

    def __init__(self, ambient: SetAlgebra, count: int):
        if not 1 <= count <= lanes_per_batch(ambient):
            raise ValueError(f"{count} lanes do not fit one batch of {ambient!r}")
        base = ambient.space
        u = base.base_size
        extra = 0
        while u**extra < count:
            extra += 1
        self.ambient = ambient
        self.space = TupleSpace(u, base.dimension + extra)
        self.count = count
        self.width = base.size
        self.full = (1 << (count * self.width)) - 1  # every lane the top

    def pack(self, values) -> int:
        """One integer holding `values` (raw bits below 2**width), value 0
        in lane 0, by pairing neighbours level by level."""
        if len(values) != self.count:
            raise ValueError(f"expected {self.count} values, got {len(values)}")
        parts = list(values)
        span = self.width
        while len(parts) > 1:
            if len(parts) & 1:
                parts.append(0)
            parts = [lo | hi << span for lo, hi in zip(parts[::2], parts[1::2])]
            span *= 2
        return parts[0]

    def unpack(self, bits: int) -> list[int]:
        """The raw bits of each lane, by halving."""
        parts = [bits & self.full]
        for level in reversed(range((self.count - 1).bit_length())):
            half = self.width << level
            low = (1 << half) - 1
            parts = [q for p in parts for q in (p & low, p >> half)]
        return parts[: self.count]

    def run(self, term: Term, packed) -> int:
        """Evaluate `term` on every lane at once; `packed` maps variable
        indices to packed integers."""
        _check_signature(term, self.ambient)
        program = _set_program(term, self.space, self.ambient.space.dimension)
        try:
            inputs = [packed[index] for index in program.variables]
        except KeyError as exc:
            raise UnboundVariableError(f"no value for variable {exc.args[0]}") from None
        return program.run(inputs)


def eval_term_lanes(term: Term, columns, ambient) -> list[int]:
    """Evaluate `term` once per lane, lane l assigning each variable i the
    raw bits columns[i][l]; return the raw bits of each lane's value.

    The columns must have one common length, the number of lanes; with no
    columns there is one lane, the empty assignment.  Set algebras run
    `lanes_per_batch` lanes per program run (see `Lanes`); relation
    algebras run one.
    """
    _check_signature(term, ambient)
    lengths = {len(column) for column in columns.values()}
    if len(lengths) > 1:
        raise ValueError("columns of different lengths")
    count = lengths.pop() if lengths else 1
    relations = isinstance(ambient, RelationAlgebra)
    width = ambient.base_size**2 if relations else ambient.space.size
    for column in columns.values():
        if column and (min(column) < 0 or max(column) >> width):
            raise ValueError(f"a value does not fit in {width} bits")
    if relations:
        return [
            eval_term(
                term, {i: ambient.from_bits(c[lane]) for i, c in columns.items()}, ambient
            ).bits
            for lane in range(count)
        ]
    out = []
    for lanes in lane_batches(ambient, count):
        batch = Lanes(ambient, len(lanes))
        packed = {
            index: batch.pack(column[lanes.start : lanes.stop])
            for index, column in columns.items()
        }
        out += batch.unpack(batch.run(term, packed))
    return out


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
