"""Finite relational models, satisfaction sets, and pointwise evaluation.

satisfaction_set computes {s in carrier^n : the formula holds under s} as a
bitset Element.  Its evaluator, satisfaction_bits, is the one
formula-to-bitset evaluator: each formula is laid out once, as a term is,
into a straight-line program over raw ints, its plan, in which a repeated
subformula, atom or diagonal is computed once; the plan is kept on the
formula (see formulas.memo), bound once per base size, and keeps the
binding.  Every step runs at its level, 1 + the highest variable free in
it: a value at level k is a bitset over the first k coordinates, and the
root is lifted to the whole space at the end.  The leaf hook is asked for
each atom and diagonal over the TupleSpace of its level; a ModelFinite,
read as immutable, keeps them and its sections.  The window module runs
the evaluator too, on formulas whose quantifiers it has relativized, with
its own leaves, which it keeps on the table of its base size.
holds evaluates one assignment and accepts an optional quantifier domain,
which relativizes every quantifier to a subset of the carrier (free
variables may still take any value).  It works on any model-like object:
one with `carrier_size` and `rel_holds(name, row) -> truth value`, and
optionally `section(name, position, others, mask) -> int`, whose bit t,
for each t set in the int `mask`, tells whether rel_holds holds of the row
that puts t at `position` among the tuple `others` (other bits do not
matter); a model without `section` has them derived from rel_holds.
A model may also keep truth sets: a dict `truth_sets`, which holds fills
(ModelFinite and HFUniverse do), and then its rel_holds returns a bool.
On such a model, holds answers a formula with exactly one free variable,
assigned an int in [0, carrier_size), from the formula's truth set,
truth_set: the values of that variable at which it holds, computed once
per (formula, domain) with the variable's values as lanes, one bit each
(the bit-slicing of Biham 1997, A fast new DES implementation in
software), and kept in one record per formula, which a call handed the
same domain as the last one served (None, or that very range object)
reads with one dict lookup and one bit test.  Every other call runs the
pointwise program: the lane steps of truth_set with no lane variable, one
closure per subformula, made on `formulas.postorder` and kept on the
formula, so that it takes a formula of any depth.  A quantifier whose
body has no quantifier and no atom naming its variable twice (an
innermost one) is its body's lanes over its variable, one bitset test; a
guarded one, all x (A -> phi) or ex x (A & phi) with A an atom naming x
once, walks over a range domain only the values where A holds, read from
A's section; any other loops over the domain (see holds).
"""

import json
import weakref
from array import array
from functools import lru_cache, partial

from .errors import CapacityError, PreconditionError, UnboundVariableError
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
    memo,
    parts,
    postorder,
)
from .spaces import (
    Element,
    TupleSpace,
    boolean,
    cylinder,
    diag,
    doubling_shifts,
    fold_top,
    relation_bits,
)
from .terms import Layout


class ModelFinite:
    """A finite model: carrier labels plus one tuple table per relation.
    It is read as immutable, and keeps the sections and truth sets `holds`
    reads and the bits of each atom and diagonal per level, each made on
    first use."""

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
        self._sections: dict = {}  # (relation, position) -> {others: bits}
        self._leaves: dict = {}  # (relation, args, level) or ("=", i, j, level) -> bits
        self.truth_sets: dict = {}  # see holds

    @property
    def carrier_size(self) -> int:
        return len(self.carrier)

    def index(self, label) -> int:
        return self._pos[label]

    def rel_holds(self, name: str, idx_tuple: tuple) -> bool:
        return idx_tuple in self.relations[name]

    def section(self, name: str, position: int, others: tuple, mask: int) -> int:
        """The values t with rel_holds(name, row), row being `others` with t
        put at `position`, as bits, exact at every t (`mask` is not read);
        each (relation, position) is mapped from its tuple table on first
        use and kept."""
        key = (name, position)
        table = self._sections.get(key)
        if table is None:
            table = {}
            for row in self.relations[name]:
                if position < len(row):
                    rest = row[:position] + row[position + 1:]
                    table[rest] = table.get(rest, 0) | 1 << row[position]
            self._sections[key] = table
        return table.get(others, 0)

    def relation_table(self, name: str) -> frozenset:
        return self.relations[name]

    def to_json(self) -> str:
        payload = {
            "arities": dict(self.vocabulary.relations),
            "carrier": self.carrier,
            "relations": {
                name: sorted([self.carrier[i] for i in row] for row in rows)
                for name, rows in self.relations.items()
            },
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelFinite":
        """The model `to_json` wrote; a relation's arity is read from its
        rows only when the text has no arities."""
        payload = json.loads(text)
        arities = payload.get("arities")
        vocabulary = None if arities is None else Vocabulary(tuple(sorted(arities.items())))
        return cls(payload["carrier"], payload["relations"], vocabulary)

    def __repr__(self):
        rels = ", ".join(f"{n}/{self.vocabulary.arity(n)}" for n in sorted(self.relations))
        return f"ModelFinite(|carrier|={len(self.carrier)}, {rels})"


def satisfaction_set(model: ModelFinite, f: Formula, n: int) -> Element:
    """All satisfying assignments, as an Element over carrier^n."""
    top = max_var_index(f)
    if top >= n:
        raise UnboundVariableError(f"formula uses v{top}, allowed indices are < {n}")
    space = operator_table(model.carrier_size).space(n)
    leaves = model._leaves

    def leaf(g, level: TupleSpace) -> int:  # kept on the model, made on first use
        atom = isinstance(g, Atom)
        key = (g.rel, g.args, level.dimension) if atom else ("=", g.left, g.right, level.dimension)
        bits = leaves.get(key)
        if bits is None:
            bits = leaves[key] = (relation_bits(level, g.args, model.relations[g.rel]) if atom
                                  else diag(level, g.left, g.right).bits)
        return bits

    return Element(space, satisfaction_bits(space, f, leaf))


def satisfaction_bits(space: TupleSpace, f: Formula, leaf) -> int:
    """The bits of the satisfaction set of `f` over `space`.

    `f` runs as its plan (see `_plan`), laid out once per formula and bound
    once per base size (see `operator_table`).  Each step runs at its level
    k, on the tuples of TupleSpace(u, k), and the root is lifted to the
    whole space at the end.  `leaf(g, level)` gives the bits of each of the
    plan's inputs over `level`, the TupleSpace of its level: each distinct
    atom g, and each distinct diagonal, an Eq g with g.left <= g.right.
    `plan_bits` is the run before the lift.
    """
    operators = operator_table(space.base_size)
    bits, level = plan_bits(space, f, leaf, operators)
    for shift in operators.lift(level, space.dimension):  # to the whole space
        bits |= bits << shift
    return bits


def plan_bits(space: TupleSpace, f: Formula, leaf, operators: "_Operators") -> tuple[int, int]:
    """The plan run of `satisfaction_bits` on `operators`, the table of its
    base size: the bits of f's satisfaction set at its plan level, over
    operators.space(level), and that level."""
    plan = _plan(f)
    space.check_coord(max(plan.levels) - 1)  # no step is higher than a leaf
    inputs = [leaf(g, operators.space(k)) for g, k in zip(plan.variables, plan.levels)]
    return plan.run(plan.binding(operators), inputs), plan.level


_CONNECTIVES = {Not: "not", And: "and", Or: "or", Implies: "impl", Iff: "iff"}


class _Plan(Layout):
    """A formula's layout, with the level of each of its inputs, `levels`,
    and of its root, `level`."""

    __slots__ = ("levels", "level")


def _level(g: Formula) -> int:
    """The level of g: 1 + the highest variable free in it, and at least 1."""
    return 1 + max(g.free, default=0)


@memo
def _plan(f: Formula) -> _Plan:
    """Lay out the DAG of f, its plan: a layout with no constants, whose
    `variables` are its distinct atoms and diagonals (an Eq with left <=
    right stands for a diagonal) and whose `ops` are connectives
    (name, (level of the left operand, level of the right)) and quantifiers
    ("ex" | "all", (var, level of the body, level of the result)).

    A node's level is 1 + the highest variable free in it, and at least 1:
    its value does not depend on the coordinates from there up (Henkin,
    Monk and Tarski, Cylindric Algebras I, 1.6), so it is kept as a bitset
    over the tuples of those first coordinates.  A quantifier whose
    variable is not free in its body is that body, as the base is
    nonempty.  A repeated subformula, atom or diagonal is computed once.
    The walk is `formulas.postorder`.  The plan is kept on f."""
    leaves: dict = {}  # atom or diagonal -> its input number
    nodes: dict = {}  # subformula -> ~its input, or its step number
    ops: dict = {}  # operator -> its number
    kinds, operands = array("l"), []
    for g in postorder(f, parts):  # the atoms numbered as they are met
        if isinstance(g, (Atom, Eq)):
            key = Eq(g.right, g.left) if isinstance(g, Eq) and g.left > g.right else g
            nodes[g] = ~leaves.setdefault(key, len(leaves))  # an Eq its diagonal
            continue
        args = [nodes[part] for part in parts(g)]
        if isinstance(g, (Exists, Forall)):
            if g.var not in g.body.free:  # vacuous
                nodes[g] = args[0]
                continue
            name = "ex" if isinstance(g, Exists) else "all"
            op = (name, (g.var, _level(g.body), _level(g)))
        else:
            sides = parts(g)
            op = (_CONNECTIVES[type(g)], (_level(sides[0]), _level(sides[-1])))
        nodes[g] = len(operands)
        kinds.append(ops.setdefault(op, len(ops)))
        operands.append(args)
    plan = _Plan(tuple(leaves), (), tuple(ops), kinds, operands, nodes[f])
    plan.levels = tuple(_level(g) for g in leaves)
    plan.level = _level(f)
    return plan


@lru_cache(maxsize=16)
def operator_table(base_size: int) -> "_Operators":
    """The operators of plans over base size u, shared by every call on u;
    the 16 tables used last are kept, with their spaces, lifts and
    kernels, which results use too."""
    return _Operators(base_size)


class _Operators:
    """The raw-int functions of a plan's steps over base size u, each on
    values at the levels its op names: a connective lifts its lower operand
    to the higher level, and a quantifier on v is the cylindrification of
    v, or, when v is the top coordinate of its body, the fold of v onto
    the result's level.  Each function, space and lift is made on first
    use and kept, and a plan keeps its binding under the key (u,).
    `leaves` is written by window's leaf hook: the bits of each of its
    leaves, keyed by a kind and ints alone, so that they pin no formula or
    model and are bounded by pairs, or reaches, times levels."""

    def __init__(self, base_size: int):
        self.base_size = base_size
        self.key = (base_size,)
        self.spaces: dict = {}  # level -> TupleSpace(u, level)
        self.lifts: dict = {}  # (level, higher level) -> doubling shifts
        self.functions: dict = {}  # op -> its function
        self.leaves: dict = {}  # (kind, ints...) -> bits; see window

    def space(self, level: int) -> TupleSpace:
        """TupleSpace(u, level), made on first use."""
        space = self.spaces.get(level)
        if space is None:
            space = self.spaces[level] = TupleSpace(self.base_size, level)
        return space

    def lift(self, low: int, high: int) -> tuple:
        """The doubling shifts that lift a value at level `low` to level
        `high`, made on first use."""
        shifts = self.lifts.get((low, high))
        if shifts is None:
            u = self.base_size
            shifts = self.lifts[low, high] = doubling_shifts(u**low, u ** (high - low))
        return shifts

    def function(self, op):
        f = self.functions.get(op)
        if f is None:
            f = self.functions[op] = self.make(op)
        return f

    def make(self, op):
        name, params = op
        if name in ("ex", "all"):
            return self.quantifier(name, *params)
        left, right = params
        level = max(left, right)
        f = boolean(name, self.space(level).full_mask)
        if left == right:
            return f
        shifts = self.lift(min(left, right), level)

        def lift(x):
            for shift in shifts:
                x |= x << shift
            return x

        if left < right:
            return lambda x, y: f(lift(x), y)
        return lambda x, y: f(x, lift(y))

    def quantifier(self, name: str, var: int, level: int, out: int):
        space = self.space(level)
        if var < level - 1 or level == 1:  # the body's level, filled again at level 1
            exists = cylinder(space, var)
        else:
            exists = fold_top(space, out)
        if name == "ex":
            return exists
        full, out_full = space.full_mask, self.space(out).full_mask
        return lambda x, _: out_full ^ exists(full ^ x)


def holds(model, f: Formula, assignment=None, *, quantifier_domain=None) -> bool:
    """Evaluate one assignment on a model-like object (see the module
    docstring); quantifiers range over `quantifier_domain` when given, else
    over the carrier.  Every free variable of `f` must be assigned, even
    one that short-circuiting would skip.  The assignment is read, never
    written.

    With D the domain as a mask (bit t for each value t, made once per
    call, a range by arithmetic), the call reads a truth set when f has
    exactly one free variable, assigned an int in [0, carrier_size), the
    model keeps truth sets and D is not None.  The set of f over that
    variable for D (see truth_set) is computed on the first such call and
    kept in f's record in `model.truth_sets` (see _keep), by the domain
    (None, a range, or the mask of any other domain); the record names f
    by its id and a weak reference, so that it keeps neither f nor the
    model alive.  A later call with a dict assignment and the domain the
    record last served, None or that very range object (a range is
    immutable), finds the record before anything else and is one bit
    test; any other, an equal range built anew or a list that may have
    changed, makes its key again and finds the set by that key, and the
    record then serves a range or None by identity in its turn.  A range
    with no mask, a set past truth_set's capacity, and one
    whose evaluation raised (an unknown relation, say) are kept as refused,
    and the call runs the pointwise program, as does every call that reads
    no truth set.  The lane evaluation reads every atom the loop below
    reads at any value of the variable, and a model that keeps truth sets
    raises for a relation name or the shape of a row, never for particular
    int values, so when the evaluation raises nothing, neither does the
    loop: results and errors are the loop's.

    The pointwise program (see _pointwise) evaluates the connectives left
    to right with short circuits, as the loop does, on a copy of the
    assignment in which each quantifier binds its variable and restores it
    after.  A quantifier `Q x phi` whose variable is not free in phi reads
    phi once, or gives the empty domain's value.  Any other takes the
    first of three forms that applies:
    - innermost, when phi has no quantifier and no atom naming x twice,
      and D is not None or 0: phi's lanes over x (see truth_set), with
      its sections read at D, ANDed with D; `ex` holds when that is not
      0, `all` when it is D;
    - guarded, when phi is A -> psi (`all`) or A & psi (`ex`), A an atom
      naming x once, and the domain is a range with a mask: a walk, in
      ascending order, the loop's, over the values of D & (A's section at
      x), evaluating psi at each until one decides the quantifier;
    - the loop over the domain, which stops at the first value that
      decides the quantifier.
    The bitset and the walk read atoms, and sections, that the loop may
    skip (a section may also have bits outside D: a ModelFinite's ignores
    the mask, an HFUniverse's is exact below its bit length only, and the
    lanes are bitwise, so each result is ANDed with D), so when either
    raises, the quantifier reruns as the loop: results and errors are the
    loop's.  A domain that is not a range, list, tuple or set of ints in
    [0, 2**20) has no mask and is looped over.
    """
    try:  # f's record (see _keep), read before anything else: a scan calls holds per value
        ref, var, domain, size, bits, _ = model.truth_sets[id(f)]
        if domain is quantifier_domain and ref() is f and type(assignment) is dict:
            value = assignment.get(var)
            if type(value) is int and 0 <= value < size:
                return bits[value >> 3] >> (value & 7) & 1 == 1
    except (AttributeError, KeyError):
        pass
    free = free_vars(f)
    env = dict(assignment or {})  # the program binds quantified variables in it
    if not env.keys() >= free:
        raise UnboundVariableError(f"v{min(free - env.keys())} is unassigned")
    sets = getattr(model, "truth_sets", None)
    if len(free) == 1 and sets is not None:
        (var,) = free
        value = env[var]
        if type(value) is int and 0 <= value < model.carrier_size:
            key = quantifier_domain  # None, a range, or else its mask
            if key is not None and type(key) is not range:
                key = _domain_mask(key)
            if key is not None or quantifier_domain is None:
                bits = _keep(sets, model, f, var, quantifier_domain, key)
                if bits is not None:
                    return bits[value >> 3] >> (value & 7) & 1 == 1
    domain = (
        range(model.carrier_size) if quantifier_domain is None else quantifier_domain
    )
    mask = _range_mask(domain) if type(domain) is range else None
    if mask is None:
        mask = _domain_mask(domain)
    rel_holds = model.rel_holds
    section = getattr(model, "section", None) or partial(_derived_section, rel_holds)
    return _pointwise(f)(_Point(env, rel_holds, section, domain, mask)) != 0


def _keep(sets: dict, model, f: Formula, var: int, domain, key) -> bytes | None:
    """The truth set of f over v<var> for `domain`, which `key` stands for
    (None for the carrier, a range, or a mask), as its bits in
    little-endian bytes, since an int's bit test would copy the int; made
    and kept, or None, kept too, when refused.  `sets` holds one record per
    live formula, by its id: (a weak reference to it, var, the last None or
    range domain served, the carrier size, that domain's bytes, and every
    set made, by key).  holds reads the bytes when handed that very domain
    object again; a list, tuple or set may change, so it is never trusted
    by identity.  A new record drops those of formulas no longer alive."""
    record = sets.get(id(f))
    if record is None or record[0]() is not f:
        for dead in [n for n, (ref, *_) in sets.items() if ref() is None]:
            del sets[dead]
        record = sets[id(f)] = (weakref.ref(f), var, _UNSERVED, None, None, {})
    by_key, u = record[5], model.carrier_size
    if key in by_key:
        bits = by_key[key]
    else:
        whole = range(u) if key is None else key
        mask = _range_mask(whole) if type(whole) is range else whole
        bits = None
        if mask is not None:
            try:
                bits = _truth_bits(model, f, var, mask).to_bytes((u + 7) // 8, "little")
            except Exception:  # refused: the pointwise program gives the result, or the error
                pass
        by_key[key] = bits
    if bits is not None and type(key) is not int:
        sets[id(f)] = (record[0], var, domain, u, bits, by_key)
    return bits


_UNSERVED = object()  # the domain of a record that has served none


# The most lane work truth_set takes on: the carrier width, counted as at
# least _MIN_WIDTH bits, times |D| ** (nesting of non-vacuous quantifiers).
# Below _MIN_WIDTH bits a lane operation costs about as much as the
# interpreter's step around it.  `ford` on the rank-4 set universe with
# quantifiers over range(16) is 2**16 * 16**3 = 2**28.
_MAX_LANE_WORK = 1 << 28
_MIN_WIDTH = 1 << 12


def truth_set(model, f: Formula, var: int, quantifier_domain=None) -> int:
    """The values t in [0, carrier_size) at which `f` holds with v<var> = t,
    as the bits of an int, quantifiers ranging over `quantifier_domain`
    when given, else over the carrier; `var` must be the one variable free
    in f, if any is.

    The values of v<var> are lanes, one bit each: a subformula's truth is
    one carrier-wide int, an atom naming v<var> is the model's section at
    its place (derived from rel_holds on a model without one), and a
    subformula in which v<var> is not free, such as one under a quantifier
    that rebinds it, is 0 or all lanes (the carrier's bits, not -1: CPython
    works on a negative int's bits several times slower).  Each quantifier
    loops over the domain and ORs (`ex`) or ANDs (`all`) its body's lanes,
    reading the body at every value.  A vacuous quantifier, whose variable
    is not free in its body, is its body, read once; over an empty domain,
    `ex` is false and `all` true.  The connectives are bitwise, and skip
    their right operand where the left one decides them at every lane.

    Raises PreconditionError for a domain holds makes no mask of (see
    holds) or an atom naming v<var> twice, and CapacityError, before any
    work, past _MAX_LANE_WORK.
    """
    domain = range(model.carrier_size) if quantifier_domain is None else quantifier_domain
    mask = _range_mask(domain) if type(domain) is range else _domain_mask(domain)
    if mask is None:
        raise PreconditionError("a truth set needs a domain of ints in [0, 2**20)")
    return _truth_bits(model, f, var, mask)


def _truth_bits(model, f: Formula, var: int, mask: int) -> int:
    """truth_set for the domain whose values are the bits of `mask`."""
    unassigned = sorted(f.free - {var})
    if unassigned:
        raise UnboundVariableError(f"v{unassigned[0]} is unassigned")
    program = _lane_program(f, var)
    if program is None:
        raise PreconditionError(f"an atom names v{var} twice; its lanes have no section")
    nesting, run = program
    u, width = model.carrier_size, mask.bit_count()
    if max(u, _MIN_WIDTH) * width**nesting > _MAX_LANE_WORK:
        raise CapacityError(
            f"a truth set over {u} values with {nesting} nested quantifiers over "
            f"{width} values exceeds the 2**28 lane budget"
        )
    rel_holds = model.rel_holds
    section = getattr(model, "section", None) or partial(_derived_section, rel_holds)
    full = (1 << u) - 1
    values = [t for t, bit in enumerate(reversed(bin(mask))) if bit == "1"]
    return run(_Run({}, rel_holds, section, full, values)) & full


class _Run:
    """What a lane program reads while it runs: the values bound to the
    quantified variables, the model's rel_holds and section, the carrier's
    lanes and the domain's values, ascending; `mask`, the bits at which a
    section must be exact, is the carrier's lanes too."""

    __slots__ = ("env", "rel_holds", "section", "full", "values", "mask")

    def __init__(self, env, rel_holds, section, full, values):
        self.env, self.rel_holds, self.section = env, rel_holds, section
        self.full, self.values, self.mask = full, values, full


@memo
def _lane_program(f: Formula, var: int) -> tuple | None:
    """(nesting, run) for the lanes of f over v<var> (see truth_set), kept
    on f per var: the nesting of f's non-vacuous quantifiers, and a
    function of a _Run whose result has bit t, for t below the carrier
    size, set when f holds at v<var> = t.  None when an atom names v<var>
    twice where it is the lane variable (not under a quantifier that
    rebinds it).  Each subformula is a closure over its children's, made
    on `formulas.postorder`, over pairs of a subformula and whether v<var>
    is the lane variable in it."""
    made: dict = {}  # item -> (nesting, function)

    def children(item) -> list:
        g, lanes = item
        inner = lanes and not (isinstance(g, (Exists, Forall)) and g.var == var)
        return [(part, inner) for part in parts(g)]

    for item in postorder((f, True), children):
        g, lanes = item
        if lanes and isinstance(g, Atom) and g.args.count(var) > 1:
            return None
        below = [made[child] for child in children(item)]
        nesting = max((n for n, _ in below), default=0)
        nesting += isinstance(g, (Exists, Forall)) and g.var in g.body.free
        made[item] = nesting, _lane_step(g, var if lanes else None, [h for _, h in below])
    return made[f, True]


def _lane_step(g: Formula, lane, inner: list):
    """The function of a _Run that gives g's lanes from its children's
    functions `inner`; `lane` is the lane variable, or None where there
    is none, so that every variable is read from the run's env and the
    result is 0 or the run's `full`."""
    if isinstance(g, Atom):
        rel, args = g.rel, g.args
        if lane is not None and lane in args:
            at, others = args.index(lane), [a for a in args if a != lane]
            if len(others) == 1:  # a binary relation: the row inline, a call fewer
                (o,) = others
                return lambda r: r.section(rel, at, (r.env[o],), r.mask)
            others = _row(others)
            return lambda r: r.section(rel, at, others(r.env), r.mask)
        if len(args) == 2:
            a, b = args
            return lambda r: r.full if r.rel_holds(rel, (r.env[a], r.env[b])) else 0
        row = _row(args)
        return lambda r: r.full if r.rel_holds(rel, row(r.env)) else 0
    if isinstance(g, Eq):
        a, b = g.left, g.right
        if lane is not None and lane in (a, b):
            other = b if a == lane else a
            if a == b:
                return lambda r: r.full
            # bounded, as a pointwise call may assign the other variable any value
            return lambda r: 1 << w if 0 <= (w := r.env[other]) < r.mask.bit_length() else 0
        return lambda r: r.full if r.env[a] == r.env[b] else 0
    if isinstance(g, Not):
        (body,) = inner
        return lambda r: r.full ^ body(r)
    if isinstance(g, (Exists, Forall)):
        (body,) = inner
        y, found = g.var, isinstance(g, Exists)
        if y not in g.body.free:  # vacuous: the body once, or the empty domain's value
            if found:
                return lambda r: body(r) if r.values else 0
            return lambda r: body(r) if r.values else r.full
        return partial(_fold, y, body, found)
    left, right = inner
    if isinstance(g, And):
        return lambda r: 0 if (x := left(r)) == 0 else x & right(r)
    if isinstance(g, Or):
        return lambda r: x if (x := left(r)) == r.full else x | right(r)
    if isinstance(g, Implies):
        return lambda r: r.full if (x := left(r)) == 0 else r.full ^ x | right(r)
    return lambda r: r.full ^ left(r) ^ right(r)  # Iff


def _fold(y: int, body, found: bool, r: _Run) -> int:
    """The OR (`found`) or the AND of body's lanes over the domain's values
    of v<y>, bound in the run's env and restored after."""
    env = r.env
    outer, acc = env.get(y, env), 0 if found else r.full  # env itself: v<y> unbound
    for env[y] in r.values:
        acc = acc | body(r) if found else acc & body(r)
    if outer is not env:  # an unbound v<y> is read nowhere after
        env[y] = outer
    return acc


class _Point(_Run):
    """A _Run for one pointwise call of holds: `values` is the quantifier
    domain as given and `mask` its bits, or None when it has none.  Every
    lane is `full`, -1, so that a step's truth is 0 or -1 and the lanes of
    an innermost quantifier stay as narrow as the sections they read."""

    __slots__ = ()

    def __init__(self, env, rel_holds, section, values, mask):
        self.env, self.rel_holds, self.section = env, rel_holds, section
        self.full, self.values, self.mask = -1, values, mask


@memo
def _pointwise(f: Formula):
    """f's pointwise program, kept on f: a function of a _Point whose
    result is not 0 when f holds at its env (see holds).  Each subformula
    is a closure over its children's, made on `formulas.postorder`: its
    lane step with no lane variable, but for a quantifier whose variable
    is free in its body (see _quantifier)."""
    made: dict = {}  # subformula -> its function
    for g in postorder(f, parts):
        inner = [made[part] for part in parts(g)]
        if isinstance(g, (Exists, Forall)) and g.var in g.body.free:
            made[g] = _quantifier(g, inner[0], made)
        else:
            made[g] = _lane_step(g, None, inner)
    return made[f]


def _quantifier(g: Formula, body, made: dict):
    """The pointwise step of the quantifier g, whose variable y is free in
    its body, from `body`, its body's step, and `made`, the steps made so
    far: the bitset of an innermost body or the walk of a guarded one where
    it applies, else, or when it raises, the loop (see holds)."""
    y, found, phi = g.var, isinstance(g, Exists), g.body
    hit, miss = (-1, 0) if found else (0, -1)
    program = _lane_program(phi, y) if phi.depth == 0 else None
    lanes = program and program[1]
    guard = phi.left if type(phi) is (And if found else Implies) else None
    walks = not lanes and type(guard) is Atom and guard.args.count(y) == 1
    if walks:
        rel, at, then = guard.rel, guard.args.index(y), made[phi.right]
        row = _row([a for a in guard.args if a != y])

    def quantifier(r) -> int:
        env, mask = r.env, r.mask
        if lanes and mask:
            try:
                bits = lanes(r)  # binds nothing: y is the lane variable
                if found:
                    return -1 if mask & bits else 0
                return 0 if mask & ~bits else -1
            except Exception:  # the loop gives the same result, or the error it meets
                pass
        outer = env.get(y, env)  # env itself: y unbound, and read nowhere after
        try:
            if walks and mask and type(r.values) is range:  # a walk keeps a range's order
                try:
                    todo = r.section(rel, at, row(env), mask) & mask
                    while todo:
                        env[y] = (todo & -todo).bit_length() - 1
                        if (then(r) != 0) is found:
                            return hit
                        todo &= todo - 1
                    return miss
                except Exception:  # as the bitset's
                    pass
            for env[y] in r.values:
                if (body(r) != 0) is found:
                    return hit
            return miss
        finally:
            if outer is not env:
                env[y] = outer

    return quantifier


def _row(args: list):
    """The function of an env that gives the tuple of the values of the
    variables `args`, as a row of an atom."""
    if len(args) == 1:
        (a,) = args
        return lambda env: (env[a],)
    return lambda env: tuple(map(env.__getitem__, args))


_MAX_DOMAIN_BITS = 1 << 20


def _range_mask(domain: range) -> int | None:
    """The bits of the values of a range with step 1 in [0,
    _MAX_DOMAIN_BITS], by arithmetic; None for any other range."""
    if domain.step == 1 and 0 <= domain.start <= domain.stop <= _MAX_DOMAIN_BITS:
        return (1 << domain.stop) - (1 << domain.start)
    return None


def _domain_mask(domain) -> int | None:
    """The bits of the values of `domain`, or None when it is not a list,
    tuple or set of ints in [0, _MAX_DOMAIN_BITS).  holds makes the mask of
    a range with step 1 in [0, _MAX_DOMAIN_BITS] by _range_mask; any other
    range is looped over."""
    if type(domain) not in (list, tuple, set, frozenset):
        return None
    mask = 0
    for t in domain:
        if type(t) is not int or not 0 <= t < _MAX_DOMAIN_BITS:
            return None
        mask |= 1 << t
    return mask


def _derived_section(rel_holds, name: str, position: int, others: tuple, mask: int) -> int:
    """`section` for a model that has none: rel_holds at each value in mask."""
    bits = 0
    while mask:
        low = mask & -mask
        if rel_holds(name, others[:position] + (low.bit_length() - 1,) + others[position:]):
            bits |= low
        mask ^= low
    return bits
