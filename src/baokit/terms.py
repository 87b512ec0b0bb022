"""Terms over an operator signature, with evaluation and a text form.

A term is laid out once, when it is made, as a straight-line program over
raw ints: its constants and diagonals hoisted, a repeated subterm (equal
nodes are one object) computed once.  The layout is bound once per
value domain (the tuple space of a set algebra, or the base of a relation
algebra) to the kernels of the domain's operator table in `spaces`, and
the binding is kept on the layout under the table's key; a formula's plan
is bound the same way, once per base size (see `models`).  `eval_term`
runs it on one assignment; `eval_term_lanes` runs it on many at once,
side by side as the lanes of a wider space (see `Lanes`), since the
operators on coordinates below n never touch the coordinates n and up.

The text form is prefix s-expressions, for example
``(and (cyl 0 (var 0)) (not (diag 0 1)))``.  Constants ``zero``, ``one``
and ``id`` are bare words.
"""

from array import array
from collections.abc import Iterator

from .errors import InputError, SignatureError, UnboundVariableError
from .formulas import MAX_NESTING, Node, postorder
from .signatures import _OP_SHAPES, OpRef, Signature, opref_str
from .spaces import MAX_SPACE_BITS, FullAlgebra, RelationAlgebra, SetAlgebra, SetOperators
from .spaces import TupleSpace, boolean, join_rows, split_rows


class Var(Node):
    __slots__ = _fields = ("index",)


class Const(Node):
    __slots__ = _fields = ("op",)


class App(Node):
    __slots__ = _fields = ("op", "args")


# A Var, Const or App.  A plain name, not a typing.Union: typing's own
# cache would keep the Union, and through it the classes and interned
# nodes of this module, alive after baokit is imported afresh.
TermNode = Node


class Term:
    """A validated term: every operator belongs to the declared signature.
    It is laid out as its straight-line program (see `_lay_out`) at once."""

    __slots__ = ("root", "signature", "var_count", "_layout")

    def __init__(self, root: TermNode, signature: Signature):
        self.root = root
        self.signature = signature
        self._layout = _lay_out(root, signature)
        self.var_count = max(self._layout.variables, default=-1) + 1

    def __eq__(self, other):
        return isinstance(other, Term) and (self.signature, self.root) == (other.signature, other.root)

    def __hash__(self):
        return hash((self.signature, self.root))

    def __repr__(self):  # the layout's size; format_term's text is as long as the tree
        layout = self._layout
        return f"Term({self.signature.label}, steps={len(layout.kinds)}, variables={len(layout.variables)})"


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


class Layout(StraightLine):
    """A term or a formula laid out once, for every value domain, as a
    straight-line program.

    Its inputs are the values of the distinct `constants`, then one value
    per key in `variables`: a term's variable indices, or a formula's
    distinct atoms and diagonals (see `models._plan`); both in order of
    first occurrence.  `ops` are its distinct operators, and step k applies
    ops[kinds[k]] to the nodes operands[k]; the root is a node too.  Node
    ~i is input i and node j >= 0 the result of step j.
    """

    __slots__ = ("variables", "constants", "ops", "kinds", "bindings", "narrowed")

    def __init__(self, variables, constants, ops, kinds, operands, root):
        fixed = len(constants) + len(variables)
        operands = [[fixed + a if a >= 0 else ~a for a in args] for args in operands]
        super().__init__(fixed, operands, fixed + root if root >= 0 else ~root)
        self.variables = variables
        self.constants = constants
        self.ops = ops
        self.kinds = kinds
        self.bindings: dict = {}  # table key -> bind(table)
        self.narrowed = None  # (table key, width of its top, binding): the last one cut

    def bind(self, operators) -> tuple[list, list]:
        """The constants' values and each step's function in the operator
        table `operators`."""
        bound = [operators.function(op) for op in self.ops]
        return [operators.constant(op) for op in self.constants], [bound[k] for k in self.kinds]

    def binding(self, operators, full: int | None = None) -> tuple[list, list]:
        """bind(operators), made on first use and kept for every table with
        the same key.  A top `full` narrower than the table's cuts the
        constants and Boolean operators to it, sharing the other kernels;
        the last cut is kept."""
        key = operators.key
        binding = self.bindings.get(key)
        if binding is None:
            binding = self.bindings[key] = self.bind(operators)
        width = None if full is None else full.bit_length()
        if width is None or width == operators.full.bit_length():
            return binding
        if self.narrowed is None or self.narrowed[:2] != (key, width):
            cut = [boolean(op[0], full) for op in self.ops]
            functions = [cut[k] or f for k, f in zip(self.kinds, binding[1])]
            self.narrowed = key, width, ([c & full for c in binding[0]], functions)
        return self.narrowed[2]

    def run(self, binding, inputs: list) -> int:
        constants, functions = binding
        return self.execute(functions, constants + inputs)


def _check_node(node, signature: Signature) -> None:
    if isinstance(node, Var):
        if node.index < 0:
            raise SignatureError("variable indices must be nonnegative")
    elif isinstance(node, Const):
        if signature.op_arity(node.op) != 0 or not signature.allows(node.op):
            raise SignatureError(f"{opref_str(node.op)} is not a constant of {signature.label}")
    elif isinstance(node, App):
        if not signature.allows(node.op):
            raise SignatureError(f"{opref_str(node.op)} is not in {signature.label}")
        if signature.op_arity(node.op) != len(node.args):
            raise SignatureError(f"{opref_str(node.op)} applied to {len(node.args)} arguments")
    else:
        raise TypeError(f"not a term node: {node!r}")


def _lay_out(root: TermNode, signature: Signature) -> Layout:
    """Check the DAG under root against the signature and lay it out.

    Equal nodes are one object (see `formulas.Node`), so a repeated
    subterm is one step.  The walk, `formulas.postorder`, meets each
    distinct node once: it is checked then, in pre-order from left to right
    (the first error is the one a walk of the whole tree meets first), and
    laid out after its arguments.
    """
    leaves: dict = {}  # constant op or variable index -> leaf number
    ops: dict = {}  # operator -> its number
    number: dict = {}  # node -> its step number, or ~its leaf number
    kinds, operands = array("l"), []

    def arguments(node) -> tuple:
        _check_node(node, signature)
        return node.args if isinstance(node, App) else ()

    for node in postorder(root, arguments):
        if isinstance(node, App):
            number[node] = len(operands)
            kinds.append(ops.setdefault(node.op, len(ops)))
            operands.append([number[a] for a in node.args])
        else:
            leaf = node.index if isinstance(node, Var) else node.op
            number[node] = ~leaves.setdefault(leaf, len(leaves))
    constants = tuple(leaf for leaf in leaves if not isinstance(leaf, int))
    variables = tuple(leaf for leaf in leaves if isinstance(leaf, int))
    place = {leaf: k for k, leaf in enumerate(constants + variables)}
    node = [~place[leaf] for leaf in leaves]  # ~leaf number -> ~input number
    operands = [[a if a >= 0 else node[~a] for a in args] for args in operands]
    root = number[root]
    return Layout(variables, constants, tuple(ops), kinds, operands,
                  root if root >= 0 else node[~root])


def eval_term(term: Term, assignment, ambient):
    """Evaluate in `ambient` (a SetAlgebra or RelationAlgebra).

    `assignment` maps variable indices to elements of the ambient algebra.
    The term's layout is bound once per space and kept on the layout; a
    shared subterm is evaluated once.
    """
    _check_signature(term, ambient)
    if not isinstance(ambient, FullAlgebra):
        raise TypeError(f"cannot evaluate terms in {type(ambient).__name__}")
    binding = term._layout.binding(ambient.operators)
    inputs = []
    for index in term._layout.variables:
        try:
            value = assignment[index]
        except KeyError:
            raise UnboundVariableError(f"no value for variable {index}") from None
        if not ambient.contains(value):
            raise SignatureError(f"assignment for variable {index} is foreign")
        inputs.append(value.bits)
    return ambient.from_bits(term._layout.run(binding, inputs))


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
    It runs with the top of its `count` lanes (see `Layout.binding`), so
    no complement or constant spends work on the padding lanes above them.
    """

    __slots__ = ("ambient", "space", "operators", "count", "width", "full")

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
        self.operators = SetOperators(self.space, base.dimension)

    def pack(self, values) -> int:
        """One integer holding `values` (raw bits below 2**width), value 0
        in lane 0, by pairing neighbours level by level."""
        if len(values) != self.count:
            raise ValueError(f"expected {self.count} values, got {len(values)}")
        return join_rows(list(values), self.width)

    def unpack(self, bits: int) -> list[int]:
        """The raw bits of each lane, by halving."""
        return split_rows(bits & self.full, self.width, self.count)

    def run(self, term: Term, packed) -> int:
        """Evaluate `term` on every lane at once; `packed` maps variable
        indices to packed integers."""
        _check_signature(term, self.ambient)
        binding = term._layout.binding(self.operators, self.full)
        try:
            inputs = [packed[index] for index in term._layout.variables]
        except KeyError as exc:
            raise UnboundVariableError(f"no value for variable {exc.args[0]}") from None
        return term._layout.run(binding, inputs)


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
    width = ambient.space.size
    for column in columns.values():
        if column and (min(column) < 0 or max(column) >> width):
            raise ValueError(f"a value does not fit in {width} bits")
    if isinstance(ambient, RelationAlgebra):
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


def format_term(term: Term) -> str:
    text = {}  # node -> its text
    for node in postorder(term.root):
        if isinstance(node, Var):
            text[node] = f"(var {node.index})"
        elif isinstance(node, Const):
            name, params = node.op
            text[node] = f"(diag {params[0]} {params[1]})" if name == "diag" else name
        else:
            name, params = node.op
            inner = " ".join([str(p) for p in params] + [text[a] for a in node.args])
            text[node] = f"({name} {inner})"
    return text[term.root]


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_term(text: str, signature: Signature) -> Term:
    """Parse the s-expression form; a syntax error is an InputError that
    names the position of the offending token."""
    tokens = _tokenize(text)
    pos = 0
    depth = 0  # the parentheses open around the current token

    def fail(msg, at):
        raise InputError(f"term syntax error: {msg} (at token {at})")

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
        nonlocal pos, depth
        tok = take()
        if tok in _CONST_WORDS:
            return Const(_CONST_WORDS[tok])
        if tok != "(":
            fail(f"unexpected token {tok!r}", pos - 1)
        if depth == MAX_NESTING:
            fail(f"nesting deeper than {MAX_NESTING} levels", pos - 1)
        depth += 1
        head = take()
        if head == "var":
            node = Var(number())
        elif head == "diag":
            node = Const(("diag", (number(), number())))
        else:
            count = _OP_SHAPES[head][1] if head in _OP_SHAPES else 0
            params = tuple(number() for _ in range(count))
            args = []
            while pos < len(tokens) and tokens[pos] != ")":
                args.append(parse_node())
            node = App((head, params), tuple(args))
        if pos >= len(tokens) or tokens[pos] != ")":
            fail("missing closing parenthesis", pos)
        pos += 1
        depth -= 1
        return node

    root = parse_node()
    if pos != len(tokens):
        fail("trailing input", pos)
    return Term(root, signature)
