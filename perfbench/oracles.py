"""Reference computations for the benchmark's checks, made apart from baokit.

Nothing here imports baokit.  Bitsets use the tuple coding baokit
documents for its spaces: over a base of size u, the tuple
(t_0, ..., t_{n-1}) sits at bit t_0 + t_1*u + ... + t_{n-1}*u**(n-1).
Every operator is computed by scanning tuples, one at a time, from its
set-theoretic definition; none of baokit's digit-mask shortcuts is used.

Formula and term ASTs are read by class name and attribute, so the same
evaluators accept baokit's AST objects and the plain stand-ins of the
tests in this directory.
"""

from itertools import product


def decode(pos: int, u: int, n: int) -> tuple:
    out = []
    for _ in range(n):
        pos, digit = divmod(pos, u)
        out.append(digit)
    return tuple(out)


def encode(tup, u: int) -> int:
    pos = 0
    for digit in reversed(tup):
        pos = pos * u + digit
    return pos


def bit(bits: int, pos: int) -> bool:
    return (bits >> pos) & 1 == 1


# -- kernels: whole results ----------------------------------------------------


def cyl(bits: int, u: int, n: int, i: int) -> int:
    """{s : s[i := v] is in x for some v}."""
    out = 0
    for pos in range(u**n):
        if cyl_bit(bits, u, n, i, pos):
            out |= 1 << pos
    return out


def subst(bits: int, u: int, n: int, i: int, j: int) -> int:
    """{s : s[i := s_j] is in x}."""
    out = 0
    for pos in range(u**n):
        if subst_bit(bits, u, n, i, j, pos):
            out |= 1 << pos
    return out


def diag(u: int, n: int, i: int, j: int) -> int:
    """{s : s_i = s_j}."""
    out = 0
    for pos in range(u**n):
        if diag_bit(u, n, i, j, pos):
            out |= 1 << pos
    return out


def compose(r: int, s: int, u: int) -> int:
    """Relation composition; the pair (a, b) sits at bit a*u + b."""
    out = 0
    for a, b, c in product(range(u), repeat=3):
        if bit(r, a * u + b) and bit(s, b * u + c):
            out |= 1 << (a * u + c)
    return out


# -- kernels: one position of the result ---------------------------------------


def cyl_bit(bits: int, u: int, n: int, i: int, pos: int) -> bool:
    t = list(decode(pos, u, n))
    for v in range(u):
        t[i] = v
        if bit(bits, encode(t, u)):
            return True
    return False


def subst_bit(bits: int, u: int, n: int, i: int, j: int, pos: int) -> bool:
    t = list(decode(pos, u, n))
    t[i] = t[j]
    return bit(bits, encode(t, u))


def diag_bit(u: int, n: int, i: int, j: int, pos: int) -> bool:
    t = decode(pos, u, n)
    return t[i] == t[j]


# -- terms ------------------------------------------------------------------------


def term_bit(node, assignment: dict, u: int, n: int, pos: int, memo=None) -> bool:
    """Value of a term AST at one tuple, by recursion on the definitions.

    `assignment` maps variable indices to bitsets over u**n.  Supports the
    Boolean operators, zero/one, cyl, subst and diag.
    """
    memo = {} if memo is None else memo
    key = (id(node), pos)
    got = memo.get(key)
    if got is not None:
        return got
    kind = type(node).__name__
    if kind == "Var":
        value = bit(assignment[node.index], pos)
    else:
        name, params = node.op
        args = getattr(node, "args", ())

        def sub(k, p=pos):
            return term_bit(args[k], assignment, u, n, p, memo)

        if name == "zero":
            value = False
        elif name == "one":
            value = True
        elif name == "diag":
            value = diag_bit(u, n, params[0], params[1], pos)
        elif name == "not":
            value = not sub(0)
        elif name == "and":
            value = sub(0) and sub(1)
        elif name == "or":
            value = sub(0) or sub(1)
        elif name == "impl":
            value = (not sub(0)) or sub(1)
        elif name == "cyl":
            t = list(decode(pos, u, n))
            value = False
            for v in range(u):
                t[params[0]] = v
                if sub(0, encode(t, u)):
                    value = True
                    break
        elif name == "subst":
            t = list(decode(pos, u, n))
            t[params[0]] = t[params[1]]
            value = sub(0, encode(t, u))
        else:
            raise ValueError(f"operator {name!r} has no reference definition here")
    memo[key] = value
    return value


# -- formulas ---------------------------------------------------------------------


def satisfaction(formula, size: int, n: int, relations: dict) -> int:
    """Bitset over size**n of the assignments satisfying `formula`.

    `relations` maps a relation name to a set of index tuples.  Each
    subformula is evaluated at every assignment in turn; a quantifier
    looks the body up at every value of its variable.
    """
    count = size**n
    tuples = [decode(p, size, n) for p in range(count)]

    def table(g) -> list:
        kind = type(g).__name__
        if kind == "Atom":
            rows = relations[g.rel]
            return [tuple(t[a] for a in g.args) in rows for t in tuples]
        if kind == "Eq":
            return [t[g.left] == t[g.right] for t in tuples]
        if kind == "Not":
            return [not v for v in table(g.body)]
        if kind in ("And", "Or", "Implies", "Iff"):
            left, right = table(g.left), table(g.right)
            if kind == "And":
                return [a and b for a, b in zip(left, right)]
            if kind == "Or":
                return [a or b for a, b in zip(left, right)]
            if kind == "Implies":
                return [(not a) or b for a, b in zip(left, right)]
            return [a == b for a, b in zip(left, right)]
        if kind in ("Exists", "Forall"):
            body = table(g.body)
            want = kind == "Exists"
            out = []
            for t in tuples:
                s = list(t)
                hit = False
                for v in range(size):
                    s[g.var] = v
                    if body[encode(s, size)] == want:
                        hit = True
                        break
                out.append(hit if want else not hit)
            return out
        raise ValueError(f"not a formula node: {g!r}")

    bits = 0
    for p, v in enumerate(table(formula)):
        if v:
            bits |= 1 << p
    return bits


def relation_rows(bits: int, u: int, n: int) -> set:
    """The tuples of a bitset, as a set."""
    return {decode(p, u, n) for p in range(u**n) if bit(bits, p)}


# -- subalgebra closure -------------------------------------------------------------


def closure(generators, constants, unary, full: int, cap: int = 1 << 9) -> frozenset:
    """Least set of ints holding 0, full, the constants and generators,
    closed under complement, meet, join and each unary map.

    Brute force: every new element is met and joined with every element
    found so far.  Refuses to grow past `cap` elements.
    """
    seen = set()
    frontier = []

    def add(x):
        if x not in seen:
            if len(seen) >= cap:
                raise ValueError(f"closure exceeds {cap} elements")
            seen.add(x)
            frontier.append(x)

    for x in (0, full, *constants, *generators):
        add(x)
    while frontier:
        batch = frontier[:]
        frontier.clear()
        existing = list(seen)
        for x in batch:
            add(full ^ x)
            for f in unary:
                add(f(x))
            for y in existing:
                add(x & y)
                add(x | y)
    return frozenset(seen)


def set_algebra_ops(kind: str, u: int, n: int):
    """(constants, unary maps) of the CA/DF/SC signature over u**n."""
    unary = [lambda x, i=i: cyl(x, u, n, i) for i in range(n)]
    constants = []
    if kind == "SC":
        unary += [
            lambda x, i=i, j=j: subst(x, u, n, i, j)
            for i in range(n)
            for j in range(n)
            if i != j
        ]
    if kind == "CA":
        constants = [diag(u, n, i, j) for i in range(n) for j in range(i + 1, n)]
    return constants, unary


# -- hereditarily finite sets ---------------------------------------------------------


def finite_ordinal_codes(count: int) -> list:
    """Codes of the first `count` von Neumann ordinals: c -> c | 1 << c."""
    out, code = [], 0
    for _ in range(count):
        out.append(code)
        code |= 1 << code
    return out


def kuratowski_code(a: int, b: int) -> int:
    """Code of {{a}, {a, b}} for member codes a and b."""
    return (1 << (1 << a)) | (1 << ((1 << a) | (1 << b)))
