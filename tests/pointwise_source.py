"""The generated-source program that `models.holds` ran pointwise before
its closures on the lane steps, kept as the oracle of the lane path and of
those closures: it shares no step with either.

`pointwise(model, f, assignment, quantifier_domain)` runs f's program on
one assignment as holds did on a model that keeps no truth sets.  The
program is Python source, written once per formula and `exec`ed, in which
each quantifier first computes, from the sections of the atoms its body
reads at its variable, the values where the body is known true and known
false; an innermost quantifier is then one bitset test, and any other
walks, over a range domain, only the undecided values in ascending order.
The bitset forms rerun as the loop when they raise, so results and errors
are the loop's.  The source is made by recursion, so a formula nested
deeper than the interpreter's limit raises RecursionError, and the program
grows with each nested vacuous quantifier.
"""

from functools import partial

from baokit.errors import UnboundVariableError
from baokit.formulas import And, Atom, Eq, Exists, Forall, Iff, Implies, Not, Or, free_vars, memo
from baokit.models import _derived_section, _domain_mask, _range_mask


def pointwise(model, f, assignment=None, quantifier_domain=None) -> bool:
    """f at one assignment on `model` by the generated-source program,
    reading the model's sections and no truth set."""
    program = _compile(f)
    env = assignment if type(assignment) is dict else dict(assignment or {})
    domain = range(model.carrier_size) if quantifier_domain is None else quantifier_domain
    mask = _range_mask(domain) if type(domain) is range else None
    if mask is None:
        mask = _domain_mask(domain)
    rel_holds = model.rel_holds
    section = getattr(model, "section", None) or partial(_derived_section, rel_holds)
    return program(env, rel_holds, domain, section, mask)


def _unassigned(env: dict, free: tuple):
    """Raise for the first variable of `free` that `env` does not assign."""
    var = next(var for var in free if var not in env)
    raise UnboundVariableError(f"v{var} is unassigned") from None


@memo
def _compile(f):
    """The program of `f`, a Python function `(env, rh, dom, sec, D) ->
    bool` compiled from generated source, once, and kept on f."""
    return _Source().program(f, tuple(sorted(free_vars(f))))


# CPython's parser refuses more than 200 nested parentheses, and each level
# of an expression below opens at most two, so a subformula this deep moves
# into a function of its own.
_MAX_NESTING = 40

# The arguments every generated function takes: rel_holds, the quantifier
# domain, the section function and the domain's mask (None: loop only).
_ARGS = "rh, dom, sec, D"

# Each connective on the bits of its operands' truth values.
_BITWISE = {Not: "~{}", And: "({} & {})", Or: "({} | {})", Implies: "(~{} | {})", Iff: "~({} ^ {})"}


def _var(i: int) -> str:
    """The local name of variable i."""
    return "v%d" % i if i >= 0 else "w%d" % -i


def _row(args) -> str:
    """Source of the tuple of the variables `args`."""
    return "(" + ", ".join(_var(a) for a in args) + ("," if len(args) == 1 else "") + ")"


def _and(a, b):
    """Source of a & b, where None stands for 0."""
    return None if a is None or b is None else f"({a} & {b})"


def _or(a, b):
    """Source of a | b, where None stands for 0."""
    return b if a is None else a if b is None else f"({a} | {b})"


def _invert(a: str) -> str:
    """Source of ~a."""
    return a[1:] if a[0] == "~" and a[1:].isalnum() else "~" + a


class _Scope:
    """The function of one quantifier `Q x phi` while its source is made:
    x (`var`), the variables free in the quantifier (`params`, fixed for
    the whole call) and the statements of its pre-pass, each setting a
    local `k<i>` once per call from the parameters and earlier locals."""

    def __init__(self, var: int, params: frozenset):
        self.var, self.params = var, params
        self.lines: list = []  # (key, statement)
        self.names: dict = {}  # key -> its local

    def local(self, key, source: str) -> str:
        """The local set to `source`, shared by every use of `key`."""
        name = self.names.get(key)
        if name is None:
            name = self.names[key] = "k%d" % len(self.lines)
            self.lines.append((key, f"{name} = {source}"))
        return name

    def value(self, source):
        """`source`, or a local set to it when it is more than a name or a
        literal, so that it is computed once."""
        if source is None or source.lstrip("~-").isalnum():
            return source
        return self.local(source, source)

    def undo(self, mark: int):
        """Forget the locals made since there were `mark`."""
        for key, _ in self.lines[mark:]:
            del self.names[key]
        del self.lines[mark:]


class _Source:
    """Python source for one formula.

    Each variable is a local `v<i>`; the entry function reads the free ones
    from `env` once.  Every quantifier, and every subformula nested past
    _MAX_NESTING, is a module-level function of the variables free in it
    and of _ARGS, so Python's scoping restores a shadowed variable.  A
    quantifier's function starts with its pre-pass and bitset form (see
    the module docstring), made with a _Scope.  Relation names are
    constants of the exec namespace, never source text.
    """

    def __init__(self):
        self.defs: list[str] = []
        self.functions: dict = {}  # subformula -> name of its function
        self.namespace: dict = {"_unassigned": _unassigned}
        self.relations: dict = {}  # relation name -> name of its constant

    def program(self, f, free: tuple):
        """The entry function `(env, rh, dom, sec, D)` for f, whose free variables are `free`."""
        reads = ""
        if free:
            reads = "".join(f"        {_var(v)} = env[{v:d}]\n" for v in free)
            reads = f"    try:\n{reads}    except KeyError:\n        _unassigned(env, {free!r})\n"
        self.defs.append(f"def program(env, {_ARGS}):\n{reads}    return {self.expr(f, 0)}\n")
        exec(compile("\n".join(self.defs), "<pointwise_source>", "exec"), self.namespace)
        return self.namespace["program"]

    def relation(self, name: str) -> str:
        """The name of the constant that holds relation name `name`."""
        rel = self.relations.get(name)
        if rel is None:
            rel = self.relations[name] = f"r{len(self.relations)}"
            self.namespace[rel] = name
        return rel

    def expr(self, g, depth: int, scope: _Scope | None = None) -> str:
        """An expression for g; connectives short-circuit left to right.
        With `scope`, g is read inside the walk of its quantifier: an atom
        naming the walk variable at most once is read from the pre-pass,
        and an innermost quantifier is its bitset test."""
        if isinstance(g, Atom):
            x = None if scope is None else scope.var
            if scope is None or g.args.count(x) > 1:
                return f"rh({self.relation(g.rel)}, {_row(g.args)})"
            if x in g.args:
                return f"({self.section(g, g.args.index(x), scope)} >> {_var(x)} & 1)"
            return self.constant(g, scope)
        if isinstance(g, Eq):
            return f"({_var(g.left)} == {_var(g.right)})"
        if isinstance(g, (Exists, Forall)) and scope is not None and depth < _MAX_NESTING:
            mark = len(scope.lines)
            bits = self.bits(g.body, g.var, depth + 1, scope)
            if bits is not None:
                return f"(D & {bits} != 0)" if isinstance(g, Exists) else f"(not D & ~{bits})"
            scope.undo(mark)
        if isinstance(g, (Exists, Forall)) or depth >= _MAX_NESTING:
            return self.call(g)
        depth += 1
        if isinstance(g, Not):
            return f"(not {self.expr(g.body, depth, scope)})"
        if not isinstance(g, (And, Or, Implies, Iff)):
            raise TypeError(f"not a formula: {g!r}")
        left, right = self.expr(g.left, depth, scope), self.expr(g.right, depth, scope)
        if isinstance(g, And):
            return f"({left} and {right})"
        if isinstance(g, Or):
            return f"({left} or {right})"
        if isinstance(g, Implies):
            return f"(not {left} or {right})"
        return f"((not {left}) == (not {right}))"  # truth values, not objects

    def section(self, g: Atom, i: int, scope: _Scope) -> str:
        """Source of the section of atom g at place i: a pre-pass local
        when the variables at its other places are all parameters."""
        others = g.args[:i] + g.args[i + 1:]
        source = f"sec({self.relation(g.rel)}, {i}, {_row(others)}, D)"
        if set(others) <= scope.params:
            return scope.local((g.rel, i, others), source)
        return source

    def constant(self, g: Atom, scope: _Scope) -> str:
        """Source of -1 or 0, the truth of atom g, which names neither the
        walk variable nor the bitset's: a pre-pass local when its variables
        are all parameters."""
        source = f"-1 if {self.expr(g, 0)} else 0"
        if set(g.args) <= scope.params:
            return scope.local(g, source)
        return f"({source})"

    def bits(self, g, z: int, depth: int, scope: _Scope) -> str | None:
        """An int expression whose bit t, for each t in the domain, is the
        truth of g at v<z> = t; None when g has a quantifier or an atom
        naming v<z> twice, or nests past _MAX_NESTING.  Within the walk on
        another variable x, an atom naming x once, but not v<z>, is read
        from its section at x."""
        if isinstance(g, Atom):
            x = scope.var
            if z in g.args:
                i = g.args.index(z)
                return None if z in g.args[i + 1:] else self.section(g, i, scope)
            if x != z and g.args.count(x) == 1:
                return f"-({self.section(g, g.args.index(x), scope)} >> {_var(x)} & 1)"
            return self.constant(g, scope)
        if isinstance(g, Eq):
            if z not in (g.left, g.right):
                return f"(-1 if {self.expr(g, 0)} else 0)"
            if g.left == g.right:
                return "-1"
            w = _var(g.right if g.left == z else g.left)
            return f"(1 << {w} if 0 <= {w} < D.bit_length() else 0)"
        if type(g) not in _BITWISE or depth >= _MAX_NESTING:
            return None
        parts = [g.body] if isinstance(g, Not) else [g.left, g.right]
        parts = [self.bits(part, z, depth + 1, scope) for part in parts]
        return None if None in parts else _BITWISE[type(g)].format(*parts)

    def decided(self, g, scope: _Scope) -> tuple:
        """Sources of (T, F) for g at the walk variable x, None standing
        for 0: the values where the loop's evaluation of g reads known
        atoms only, and finds g true (T) or false (F).  A quantifier, or an
        atom naming x twice, is unknown; the connectives are Kleene's, in
        left-to-right short-circuit order."""
        mark = len(scope.lines)
        bits = self.bits(g, scope.var, 0, scope)
        if bits is not None:
            known = scope.value(bits)
            return known, _invert(known)
        scope.undo(mark)
        if isinstance(g, Not):
            t, f = self.decided(g.body, scope)
            return f, t
        if not isinstance(g, (And, Or, Implies, Iff)):
            return None, None
        (t1, f1), (t2, f2) = self.decided(g.left, scope), self.decided(g.right, scope)
        if isinstance(g, And):
            t, f = _and(t1, t2), _or(f1, _and(t1, f2))
        elif isinstance(g, Or):
            t, f = _or(t1, _and(f1, t2)), _and(f1, f2)
        elif isinstance(g, Implies):
            t, f = _or(f1, _and(t1, t2)), _and(t1, f2)
        else:  # both operands are read
            t, f = _or(_and(t1, t2), _and(f1, f2)), _or(_and(t1, f2), _and(f1, t2))
        return scope.value(t), scope.value(f)

    def undecided(self, g, depth: int, scope: _Scope) -> str:
        """An expression for g inside the walk, where the loop's evaluation
        of g is left open by (T, F): there a known left operand of `and`,
        `or` or `->` has the value that makes the loop read the right one,
        so only the right one is read."""
        if isinstance(g, Not) and depth < _MAX_NESTING:
            return f"(not {self.undecided(g.body, depth + 1, scope)})"
        if isinstance(g, (And, Or, Implies)) and depth < _MAX_NESTING:
            mark = len(scope.lines)
            if self.bits(g.left, scope.var, 0, scope) is not None:
                return self.undecided(g.right, depth, scope)
            scope.undo(mark)
        return self.expr(g, depth, scope)

    def call(self, g) -> str:
        """A call of the function that evaluates g, emitted on first use."""
        params = "".join(f"{_var(v)}, " for v in sorted(free_vars(g)))
        name = self.functions.get(g)
        if name is None:
            name = self.functions[g] = f"f{len(self.functions)}"
            if isinstance(g, (Exists, Forall)):
                body = self.quantifier(g)
            else:
                body = f"    return {self.expr(g, 0)}\n"
            self.defs.append(f"def {name}({params}{_ARGS}):\n{body}")
        return f"{name}({params}{_ARGS})"

    def quantifier(self, g) -> str:
        """The body of the function of quantifier g: its bitset form (see
        the module docstring), then the loop over `dom`, which the bitset
        form reruns as when it raises."""
        x, found = g.var, isinstance(g, Exists)
        scope = _Scope(x, free_vars(g))
        bits = self.bits(g.body, x, 0, scope)
        if bits is not None:
            guard = "D is not None"
            test = f"D & {bits} != 0" if found else f"not D & ~{bits}"
            form = [f"return {test}"]
        else:
            scope.undo(0)
            guard = "D is not None and type(dom) is range"
            t, f = self.decided(g.body, scope)
            hit, miss = (t, f) if found else (f, t)  # the values that end the loop, and the rest
            undecided = "D" + "".join(f" & {_invert(m)}" for m in (hit, miss) if m is not None)
            form = []
            if hit is not None:  # the loop ends at the first of them
                form += [f"stop = D & {hit}", "stop &= -stop"]
                undecided += " & (stop - 1)"
            body = self.undecided(g.body, 0, scope)
            form += [
                f"todo = {undecided}",
                "while todo:",
                f"    {_var(x)} = (todo & -todo).bit_length() - 1",
                f"    if {'' if found else 'not '}{body}:",
                f"        return {found}",
                "    todo &= todo - 1",
                f"return {'stop != 0' if found else 'not stop'}" if hit else f"return {not found}",
            ]
        statements = "".join(f"            {line}\n" for _, line in scope.lines)
        statements += "".join(f"            {line}\n" for line in form)
        return (
            f"    if {guard}:\n"
            "        try:\n"
            f"{statements}"
            "        except Exception:  # the loop gives the same result, or the error it met\n"
            "            pass\n"
            f"    for {_var(x)} in dom:\n"
            f"        if {'' if found else 'not '}{self.expr(g.body, 0)}:\n"
            f"            return {found}\n"
            f"    return {not found}\n"
        )
