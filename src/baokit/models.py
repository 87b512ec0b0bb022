"""Finite relational models, satisfaction sets, and pointwise evaluation.

satisfaction_set computes {s in carrier^n : the formula holds under s} as a
bitset Element.  Its evaluator, satisfaction_bits, is the one
formula-to-bitset evaluator: each formula is laid out once, as a term is,
into a straight-line program over raw ints, its plan, in which a repeated
subformula, atom or diagonal is computed once; each call binds the plan to
its space.  The window module runs it too, with its own leaves and a run of
values for each quantifier depth.
holds evaluates one assignment (compiled once per formula to a Python
function) and accepts an optional quantifier domain, which relativizes
every quantifier to a subset of the carrier (free variables may still take
any value).
"""

import json
from array import array
from functools import lru_cache

from .errors import UnboundVariableError
from .formulas import (
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Vocabulary,
    free_vars,
    max_var_index,
)
from .spaces import Element, Operators, TupleSpace, cylinder, diag, relation_bits
from .terms import Layout


class ModelFinite:
    """A finite model: carrier labels plus one tuple table per relation."""

    def __init__(self, carrier, relations, vocabulary: Vocabulary | None = None):
        self.carrier = list(carrier)
        if len(set(self.carrier)) != len(self.carrier):
            raise ValueError("carrier labels must be unique")
        self._pos = {label: i for i, label in enumerate(self.carrier)}
        self.relations: dict[str, frozenset] = {}
        for name, table in relations.items():
            rows = set()
            for row in table:
                idx = tuple(self._pos[v] for v in row)
                rows.add(idx)
            self.relations[name] = frozenset(rows)
        if vocabulary is None:
            arities = {}
            for name, rows in self.relations.items():
                arities[name] = len(next(iter(rows))) if rows else 2
            vocabulary = Vocabulary.of(**arities)
        self.vocabulary = vocabulary
        for name, rows in self.relations.items():
            k = vocabulary.arity(name)
            if any(len(r) != k for r in rows):
                raise ValueError(f"relation {name} has rows of the wrong arity")

    @property
    def carrier_size(self) -> int:
        return len(self.carrier)

    def index(self, label) -> int:
        return self._pos[label]

    def rel_holds(self, name: str, idx_tuple: tuple) -> bool:
        return idx_tuple in self.relations[name]

    def relation_table(self, name: str) -> frozenset:
        return self.relations[name]

    def to_json(self) -> str:
        payload = {
            "carrier": self.carrier,
            "relations": {
                name: sorted([self.carrier[i] for i in row] for row in rows)
                for name, rows in self.relations.items()
            },
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelFinite":
        payload = json.loads(text)
        return cls(payload["carrier"], payload["relations"])

    def __repr__(self):
        rels = ", ".join(f"{n}/{self.vocabulary.arity(n)}" for n in sorted(self.relations))
        return f"ModelFinite(|carrier|={len(self.carrier)}, {rels})"


def satisfaction_set(model: ModelFinite, f: Formula, n: int) -> Element:
    """All satisfying assignments, as an Element over carrier^n."""
    top = max_var_index(f)
    if top >= n:
        raise UnboundVariableError(f"formula uses v{top}, allowed indices are < {n}")
    space = TupleSpace(model.carrier_size, n)

    def leaf(g) -> int:
        if isinstance(g, Atom):
            return relation_bits(space, g.args, model.relations[g.rel])
        return diag(space, g.left, g.right).bits

    return Element(space, satisfaction_bits(space, f, leaf))


def satisfaction_bits(space: TupleSpace, f: Formula, leaf, quantifier_range=None) -> int:
    """The bits of the satisfaction set of `f` over `space`.

    `f` runs as its plan (see `_plan`), laid out once per formula and bound
    here to the space.  `leaf(g)` gives the bits of each of the plan's
    inputs: each distinct atom g, and each distinct diagonal, an Eq g with
    g.left <= g.right.  A quantifier on v ranges over the whole base, or,
    when `quantifier_range(depth, v)` is given, over the run of base values
    it returns, where depth counts the quantifier's nesting from the root
    (outermost 1): the relativized ex v phi is c_v(D . phi) and all v phi
    is -c_v(D . -phi), D holding the tuples whose v lies in the run.
    """
    plan = _plan(f, quantifier_range is not None)
    binding = plan.bind(_Operators(space, quantifier_range))
    return plan.run(binding, [leaf(g) for g in plan.variables])


_CONNECTIVES = {Not: "not", And: "and", Or: "or", Implies: "impl", Iff: "iff"}


@lru_cache(maxsize=None)
def _plan(f: Formula, ranged: bool) -> Layout:
    """Lay out the DAG of f, its plan: a layout with no constants, whose
    `variables` are its distinct atoms and diagonals (an Eq with left <=
    right stands for a diagonal) and whose `ops` are connectives
    ("not", ()), ("and", ()), ... and quantifiers ("ex" | "all",
    (var, depth)).  A repeated subformula, atom or diagonal is computed
    once.  With `ranged`, a quantifier's range depends on its depth, so a
    subformula is told apart by its depth as well; without, every depth
    counts as 0.  The walk keeps its own stack, so deep formulas need no
    recursion."""
    leaves: dict = {}  # atom or diagonal -> its input number
    steps: dict = {}  # (subformula, depth) -> its step number
    ops: dict = {}  # operator -> its number
    kinds, operands = array("l"), []

    def laid_out(g, depth):
        """The node of g if known: ~input for a leaf, the step number for
        a subformula laid out already, else None."""
        if isinstance(g, Atom):
            return ~leaves.setdefault(g, len(leaves))
        if isinstance(g, Eq):
            diagonal = g if g.left <= g.right else Eq(g.right, g.left)
            return ~leaves.setdefault(diagonal, len(leaves))
        return steps.get((g, depth))

    stack = [(f, 0)]
    while stack:
        g, depth = stack[-1]
        if laid_out(g, depth) is not None:
            stack.pop()
            continue
        if isinstance(g, (Exists, Forall)):
            children = [(g.body, depth + ranged)]
            op = ("ex" if isinstance(g, Exists) else "all", (g.var, depth + ranged))
        elif type(g) in _CONNECTIVES:
            parts = [g.body] if isinstance(g, Not) else [g.left, g.right]
            children = [(part, depth) for part in parts]
            op = (_CONNECTIVES[type(g)], ())
        else:
            raise TypeError(f"not a formula: {g!r}")
        nodes = []
        for child in children:  # left to right, as the atoms are met
            node = laid_out(*child)
            if node is None:
                break
            nodes.append(node)
        if len(nodes) < len(children):
            stack.append(child)  # lay out that child first, then look again
            continue
        stack.pop()
        steps[(g, depth)] = len(operands)
        kinds.append(ops.setdefault(op, len(ops)))
        operands.append(nodes)
    return Layout(tuple(leaves), (), tuple(ops), kinds, operands, laid_out(f, 0))


class _Operators(Operators):
    """The raw-int functions of a plan's steps over one space: the
    connectives, and each quantifier as the cylindrification of its
    variable, relativized to `quantifier_range(depth, var)` when given."""

    def __init__(self, space: TupleSpace, quantifier_range):
        super().__init__(space.full_mask)
        self.space = space
        self.quantifier_range = quantifier_range

    def make(self, op):
        name, (var, depth) = op
        ranged = self.quantifier_range
        exists = cylinder(self.space, var, None if ranged is None else ranged(depth, var))
        if name == "ex":
            return exists
        full = self.full
        return lambda x, _: full ^ exists(full ^ x)


def holds(model, f: Formula, assignment=None, *, quantifier_domain=None) -> bool:
    """Evaluate one assignment; quantifiers range over `quantifier_domain`
    when given (any model-like object with carrier_size and rel_holds works).
    Every free variable of `f` must be assigned, even one that
    short-circuiting would skip.  The assignment is read, never written.
    """
    free, program = _compile(f)
    env = assignment if isinstance(assignment, dict) else dict(assignment or {})
    for var in free:
        if var not in env:
            raise UnboundVariableError(f"v{var} is unassigned")
    domain = (
        range(model.carrier_size) if quantifier_domain is None else quantifier_domain
    )
    return program(env, model.rel_holds, domain)


@lru_cache(maxsize=None)
def _compile(f: Formula):
    """The sorted free variables of `f` and its program, a Python function
    `(env, rh, dom) -> bool` compiled from generated source, once."""
    free = tuple(sorted(free_vars(f)))
    return free, _Source().program(f, free)


# CPython's parser refuses more than 200 nested parentheses, and each level
# of an expression below opens at most two, so a subformula this deep moves
# into a function of its own.
_MAX_NESTING = 40


def _var(i: int) -> str:
    """The local name of variable i."""
    return "v%d" % i if i >= 0 else "w%d" % -i


class _Source:
    """Python source for one formula.

    Each variable is a local `v<i>`; the entry function reads the free ones
    from `env` once.  Every quantifier, and every subformula nested past
    _MAX_NESTING, is a module-level function of the variables free in it,
    `rh` and `dom`, so Python's scoping restores a shadowed variable.
    Relation names are constants of the exec namespace, never source text.
    """

    def __init__(self):
        self.defs: list[str] = []
        self.functions: dict = {}  # subformula -> name of its function
        self.namespace: dict = {}
        self.relations: dict = {}  # relation name -> name of its constant

    def program(self, f: Formula, free: tuple):
        """The entry function `(env, rh, dom)` for f, whose free variables are `free`."""
        reads = "".join(f"    {_var(v)} = env[{v:d}]\n" for v in free)
        self.defs.append(f"def program(env, rh, dom):\n{reads}    return {self.expr(f, 0)}\n")
        exec(compile("\n".join(self.defs), "<baokit.models.holds>", "exec"), self.namespace)
        return self.namespace["program"]

    def expr(self, g, depth: int) -> str:
        """An expression for g; connectives short-circuit left to right."""
        if isinstance(g, Atom):
            rel = self.relations.get(g.rel)
            if rel is None:
                rel = self.relations[g.rel] = f"r{len(self.relations)}"
                self.namespace[rel] = g.rel
            row = ", ".join(_var(a) for a in g.args) + ("," if len(g.args) == 1 else "")
            return f"rh({rel}, ({row}))"
        if isinstance(g, Eq):
            return f"({_var(g.left)} == {_var(g.right)})"
        if isinstance(g, (Exists, Forall)) or depth >= _MAX_NESTING:
            return self.call(g)
        depth += 1
        if isinstance(g, Not):
            return f"(not {self.expr(g.body, depth)})"
        if not isinstance(g, (And, Or, Implies, Iff)):
            raise TypeError(f"not a formula: {g!r}")
        left, right = self.expr(g.left, depth), self.expr(g.right, depth)
        if isinstance(g, And):
            return f"({left} and {right})"
        if isinstance(g, Or):
            return f"({left} or {right})"
        if isinstance(g, Implies):
            return f"(not {left} or {right})"
        return f"((not {left}) == (not {right}))"  # truth values, not objects

    def call(self, g) -> str:
        """A call of the function that evaluates g, emitted on first use."""
        params = "".join(f"{_var(v)}, " for v in sorted(free_vars(g)))
        name = self.functions.get(g)
        if name is None:
            name = self.functions[g] = f"f{len(self.functions)}"
            if isinstance(g, (Exists, Forall)):
                test = self.expr(g.body, 0)
                found = isinstance(g, Exists)
                body = (
                    f"    for {_var(g.var)} in dom:\n"
                    f"        if {'' if found else 'not '}{test}:\n"
                    f"            return {found}\n"
                    f"    return {not found}\n"
                )
            else:
                body = f"    return {self.expr(g, 0)}\n"
            self.defs.append(f"def {name}({params}rh, dom):\n{body}")
        return f"{name}({params}rh, dom)"

