"""Finite relational models, satisfaction sets, and pointwise evaluation.

satisfaction_set computes {s in carrier^n : the formula holds under s} as a
bitset Element, working bottom-up with cylindrifications for quantifiers.
Its walker, satisfaction_bits, is the one formula-to-bitset evaluator: the
window module runs it too, with its own atoms and a digit-range mask per
quantifier depth.
holds evaluates one assignment (compiled once per formula to a Python
function) and accepts an optional quantifier domain, which relativizes
every quantifier to a subset of the carrier (free variables may still take
any value).
"""

import json
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
from .spaces import Element, TupleSpace, cyl, diag


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
    cache: dict = {}

    def atom_element(g: Atom) -> Element:
        key = (g.rel, g.args)
        got = cache.get(key)
        if got is not None:
            return got
        bits = 0
        for row in model.relations[g.rel]:
            mask = space.full_mask
            for var, value in zip(g.args, row):
                mask &= space.digit_mask(var, value)
                if not mask:
                    break
            bits |= mask
        out = Element(space, bits)
        cache[key] = out
        return out

    return satisfaction_bits(space, f, atom_element)


def satisfaction_bits(space: TupleSpace, f: Formula, atom, quantifier_mask=None) -> Element:
    """The satisfaction set of `f` over `space`, bottom-up.

    `atom(g)` gives the Element of each atom g.  A quantifier on v ranges
    over the whole base, or, when `quantifier_mask(depth, v)` is given, over
    the values of v that the returned Element allows, where depth counts
    the quantifier's nesting from the root (outermost 1): the relativized
    ex v phi is c_v(D . phi) and all v phi is -c_v(D . -phi).
    """

    def sat(g, depth: int) -> Element:
        if isinstance(g, Atom):
            return atom(g)
        if isinstance(g, Eq):
            return diag(space, g.left, g.right)
        if isinstance(g, Not):
            return ~sat(g.body, depth)
        if isinstance(g, And):
            return sat(g.left, depth) & sat(g.right, depth)
        if isinstance(g, Or):
            return sat(g.left, depth) | sat(g.right, depth)
        if isinstance(g, Implies):
            return ~sat(g.left, depth) | sat(g.right, depth)
        if isinstance(g, Iff):
            return ~(sat(g.left, depth) ^ sat(g.right, depth))
        if isinstance(g, (Exists, Forall)):
            body = sat(g.body, depth + 1)
            if isinstance(g, Forall):
                body = ~body
            if quantifier_mask is not None:
                body = body & quantifier_mask(depth + 1, g.var)
            out = cyl(g.var, body)
            return ~out if isinstance(g, Forall) else out
        raise TypeError(f"not a formula: {g!r}")

    return sat(f, 0)


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

