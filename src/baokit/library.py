"""A closed library of named formulas used across the test experiments.

Three families share the three variables v0, v1, v2:

* order formulas over one ternary symbol R whose last place is padding:
  a successor axiom, the "good ordering" axiom block, and the three
  formulas that add a fixed point, strip the greatest fixed point, and
  assert two fixed points;
* membership formulas over one binary symbol E: extensionality, the
  congruence axiom, pairing and the two projection formulas, ordinals;
* arithmetic axioms over a relational vocabulary (zero/suc/leq/less and
  the graphs of +, *, exp), with as many variables as they need.

Two printed readings are ambiguous in the order family and both variants
are kept: the successor axiom is repaired so that the defined successor
is "the element after" on discrete orders (`suc`), with the literal
transcription under `suc_literal`; the trichotomy axiom is repaired to
relate x and y both ways (`ax`), with the literal one in `ax_literal`.

Binary uses of R abbreviate existential padding of the unused place:
R(v_i, v_j) stands for `ex v_k R(v_i, v_j, v_k)` with v_k the spare
variable.  This is harmless wherever the first axiom of the block (the
padded place does not matter) holds, and it is the fixed reading
everywhere, never mixed with others.
"""

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .errors import FormulaSyntaxError, InputError
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
    check_vocabulary,
    conj,
    disj,
    free_vars,
    neq,
    parse_formula,
)

ORDER_VOCAB = Vocabulary.of(R=3)
MEMBER_VOCAB = Vocabulary.of(E=2)
ARITH_VOCAB = Vocabulary.of(zero=1, suc=2, leq=2, less=2, add=3, mul=3, exp=3)


def _others(*used: int) -> list[int]:
    return [i for i in range(3) if i not in used]


def close_universally(f: Formula) -> Formula:
    out = f
    for v in sorted(free_vars(f), reverse=True):
        out = Forall(v, out)
    return out


# -- the order family ---------------------------------------------------------


def R2(i: int, j: int) -> Formula:
    """Binary use of the ternary R: pad the last place existentially."""
    k = max(_others(i, j)) if _others(i, j) else None
    if k is None:
        raise ValueError("binary R needs a spare variable")
    return Exists(k, Atom("R", (i, j, k)))


def suc_formula(x: int, y: int, literal: bool = False) -> Formula:
    """y is the element directly after x: the strict predecessors of y are
    exactly the predecessors of x together with x itself."""
    (z,) = _others(x, y)
    forward = R2(x, z) if literal else R2(z, x)
    return Forall(
        z,
        Iff(And(R2(z, y), neq(z, y)), Or(forward, Eq(z, x))),
    )


def _axiom_block(literal_suc: bool, literal_tri: bool) -> list[Formula]:
    x, y, z = 0, 1, 2
    padding_free = Iff(Atom("R", (x, y, z)), Exists(z, Atom("R", (x, y, z))))
    antisymmetry = Implies(And(R2(x, y), R2(y, x)), Eq(x, y))
    third = R2(y, z) if literal_tri else R2(y, x)
    trichotomy = Implies(neq(x, y), Or(R2(x, y), third))
    successors = Forall(x, Exists(y, suc_formula(x, y, literal=literal_suc)))
    greatest_fixed = Exists(
        y, And(R2(y, y), Forall(x, Implies(R2(x, x), R2(x, y))))
    )
    return [padding_free, antisymmetry, trichotomy, successors, greatest_fixed]


def ax_formula(literal_suc: bool = False, literal_tri: bool = False) -> Formula:
    """R is a padded binary discrete order without endpoints that has a
    greatest fixed point; such relations are the 'good' ones."""
    block = _axiom_block(literal_suc, literal_tri)
    return Forall(0, Forall(1, Forall(2, conj(block))))


def phi_formula(ax: Formula) -> Formula:
    """On good orders: R with a new fixed point right after the greatest
    one (restricted to the diagonal); elsewhere just R.

    The diagonal point v0 is kept when some z is the greatest fixed point
    and v0 comes directly after z; reading the successor conjunct the
    other way round would adjoin the point before the greatest fixed
    point, and stripping the greatest fixed point afterwards would no
    longer restore the original relation.
    """
    x, y, z = 0, 1, 2
    extend = Exists(
        z,
        conj(
            [
                suc_formula(z, x),
                R2(z, z),
                Forall(x, Implies(R2(x, x), R2(x, z))),
            ]
        ),
    )
    return Or(Atom("R", (0, 1, 2)), conj([ax, Eq(x, y), extend]))


def psi_formula(ax: Formula) -> Formula:
    """On good orders: R without its greatest fixed point; elsewhere R."""
    x, y = 0, 1
    strip = Implies(
        Eq(x, y), Exists(y, conj([neq(x, y), R2(x, y), R2(y, y)]))
    )
    return Or(
        And(Not(ax), Atom("R", (0, 1, 2))),
        conj([ax, Atom("R", (0, 1, 2)), strip]),
    )


def eta_formula(ax: Formula) -> Formula:
    """Good orders have at least two fixed points."""
    x, y = 0, 1
    return Implies(ax, Exists(x, Exists(y, conj([neq(x, y), R2(x, x), R2(y, y)]))))


# -- the membership family ----------------------------------------------------


def mem(i: int, j: int) -> Formula:
    return Atom("E", (i, j))


def is_singleton_of(w: int, z: int) -> Formula:
    """v_w = {v_z}.  The uniqueness variable reuses whatever index is left."""
    u = _others(w, z)[0]
    return And(mem(z, w), Forall(u, Implies(mem(u, w), Eq(u, z))))


def singleton_in(z: int, x: int) -> Formula:
    """{v_z} is a member of v_x, with the singleton found inside v_x."""
    (w,) = _others(z, x)
    u = _others(w, z)[0]  # may shadow x; x is consumed before the shadow
    return Exists(
        w,
        conj([mem(w, x), mem(z, w), Forall(u, Implies(mem(u, w), Eq(u, z)))]),
    )


def in_union(z: int, x: int) -> Formula:
    """v_z is a member of some member of v_x."""
    (w,) = _others(z, x)
    return Exists(w, And(mem(z, w), mem(w, x)))


def double_singleton(x: int, y: int) -> Formula:
    """v_x = {{v_y}}."""
    (z,) = _others(x, y)
    return Exists(z, And(is_singleton_of(z, y), is_singleton_of(x, z)))


def pair_formula(x: int = 0) -> Formula:
    """v_x codes an ordered pair: a unique singleton member, at most one
    union element not witnessed by a singleton, and no empty members."""
    p, q = _others(x)
    unique_singleton = Exists(
        p,
        And(
            singleton_in(p, x),
            Forall(q, Implies(singleton_in(q, x), Eq(q, p))),
        ),
    )
    unique_loose = Forall(
        q,
        Forall(
            p,
            Implies(
                conj(
                    [
                        in_union(q, x),
                        Not(singleton_in(q, x)),
                        in_union(p, x),
                        Not(singleton_in(p, x)),
                    ]
                ),
                Eq(q, p),
            ),
        ),
    )
    no_empty_member = Forall(q, Implies(mem(q, x), Exists(p, mem(p, q))))
    return conj([unique_singleton, unique_loose, no_empty_member])


def p0_formula(x: int = 0, y: int = 1) -> Formula:
    """v_y is the first component of the pair coded by v_x."""
    return And(pair_formula(x), singleton_in(y, x))


def p1_formula(x: int = 0, y: int = 1) -> Formula:
    """v_y is the second component of the pair coded by v_x."""
    return And(
        pair_formula(x),
        Or(
            double_singleton(x, y),
            And(Not(singleton_in(y, x)), in_union(y, x)),
        ),
    )


def pi_formula() -> Formula:
    """Both projections are functional and jointly reach every pair."""
    functional_p0 = Implies(And(p0_formula(0, 1), p0_formula(0, 2)), Eq(1, 2))
    functional_p1 = Implies(And(p1_formula(0, 1), p1_formula(0, 2)), Eq(1, 2))
    onto = Exists(2, And(p0_formula(2, 0), p1_formula(2, 1)))
    return Forall(0, Forall(1, Forall(2, conj([functional_p0, functional_p1, onto]))))


def ord_formula(x: int = 0) -> Formula:
    """v_x is transitive and membership is linear on its members."""
    p, q = _others(x)
    transitive = Forall(
        p, Implies(mem(p, x), Forall(q, Implies(mem(q, p), mem(q, x))))
    )
    linear = Forall(
        p,
        Forall(
            q,
            Implies(
                And(mem(p, x), mem(q, x)),
                disj([mem(p, q), mem(q, p), Eq(p, q)]),
            ),
        ),
    )
    return And(transitive, linear)


def set_zero(x: int = 0) -> Formula:
    p = _others(x)[0]
    return Forall(p, Not(mem(p, x)))


def successor_set(y: int) -> Formula:
    """v_y is z together with {z} for some member z.

    The membership test reuses the remaining index, shadowing whatever it
    named outside; the outside value is not used inside.
    """
    z, w = _others(y)
    return Exists(
        z,
        And(mem(z, y), Forall(w, Iff(mem(w, y), Or(mem(w, z), Eq(w, z))))),
    )


def ford_formula(x: int = 0) -> Formula:
    """v_x is an ordinal whose members are all zero or successors."""
    p = _others(x)[0]
    return And(
        ord_formula(x),
        Forall(p, Implies(mem(p, x), Or(set_zero(p), successor_set(p)))),
    )


def set_suc(x: int = 0, z: int = 1) -> Formula:
    """v_z = v_x together with {v_x}."""
    (w,) = _others(x, z)
    return And(mem(x, z), Forall(w, Iff(mem(w, z), Or(mem(w, x), Eq(w, x)))))


def subset_leq(x: int = 0, y: int = 1) -> Formula:
    (w,) = _others(x, y)
    return Forall(w, Implies(mem(w, x), mem(w, y)))


def set_less(x: int = 0, y: int = 1) -> Formula:
    return And(subset_leq(x, y), neq(x, y))


def ax_eq_formula() -> Formula:
    """Equality is having the same members."""
    return Forall(
        0,
        Forall(
            1,
            Iff(Eq(0, 1), Forall(2, Iff(mem(2, 0), mem(2, 1)))),
        ),
    )


def ax_cong_formula() -> Formula:
    """Same members implies membership in the same sets."""
    return Forall(
        0,
        Forall(
            1,
            Implies(
                Forall(2, Iff(mem(2, 0), mem(2, 1))),
                Forall(2, Iff(mem(0, 2), mem(1, 2))),
            ),
        ),
    )


# -- the arithmetic family ----------------------------------------------------


def _rel(name):
    def build(*args):
        return Atom(name, args)

    return build


def robinson_axioms() -> dict[str, Formula]:
    """Arithmetic axioms over function graphs, each universally closed.

    The recursive equations are guarded implications, so instances whose
    values fall outside a truncated carrier hold vacuously instead of
    failing; functionality of each graph is a separate axiom.
    """
    zero, suc, leq, less = _rel("zero"), _rel("suc"), _rel("leq"), _rel("less")
    add, mul, exp = _rel("add"), _rel("mul"), _rel("exp")
    x, y, u, w, t = 0, 1, 2, 3, 4
    axioms = {
        "suc_nonzero": Implies(suc(x, u), Not(zero(u))),
        "suc_injective": Implies(conj([suc(x, u), suc(y, w), Eq(u, w)]), Eq(x, y)),
        "less_suc": Implies(suc(y, u), Iff(less(x, u), leq(x, y))),
        "less_zero": Implies(zero(u), Not(less(x, u))),
        "trichotomy": disj([less(x, y), Eq(x, y), less(y, x)]),
        "add_zero": Implies(zero(u), add(x, u, x)),
        "add_suc": Implies(
            And(suc(y, u), add(x, u, w)),
            Exists(t, And(add(x, y, t), suc(t, w))),
        ),
        "mul_zero": Implies(zero(u), mul(x, u, u)),
        "mul_suc": Implies(
            And(suc(y, u), mul(x, u, w)),
            Exists(t, And(mul(x, y, t), add(t, x, w))),
        ),
        "exp_zero": Implies(And(zero(u), suc(u, w)), exp(x, u, w)),
        "exp_suc": Implies(
            And(suc(y, u), exp(x, u, w)),
            Exists(t, And(exp(x, y, t), mul(t, x, w))),
        ),
        "suc_functional": Implies(And(suc(x, u), suc(x, w)), Eq(u, w)),
        "add_functional": Implies(And(add(x, y, u), add(x, y, w)), Eq(u, w)),
        "mul_functional": Implies(And(mul(x, y, u), mul(x, y, w)), Eq(u, w)),
        "exp_functional": Implies(And(exp(x, y, u), exp(x, y, w)), Eq(u, w)),
    }
    return {name: close_universally(f) for name, f in axioms.items()}


# -- the library map ----------------------------------------------------------


@dataclass(frozen=True)
class LibraryEntry:
    name: str
    formula: Formula
    vocabulary: Vocabulary
    description: str


@lru_cache(maxsize=1)
def formula_library() -> dict[str, LibraryEntry]:
    ax = ax_formula()
    ax_literal = ax_formula(literal_suc=True, literal_tri=True)

    def order(name, f, desc):
        return LibraryEntry(name, f, ORDER_VOCAB, desc)

    def member(name, f, desc):
        return LibraryEntry(name, f, MEMBER_VOCAB, desc)

    entries = [
        order("suc", suc_formula(0, 1), "v1 comes directly after v0"),
        order(
            "suc_literal",
            suc_formula(0, 1, literal=True),
            "successor with the forward-order reading; unsatisfiable on discrete orders",
        ),
        order("ax", ax, "R is a good ordering: discrete, endpoint-free, greatest fixed point"),
        order(
            "ax_literal",
            ax_literal,
            "the axiom block with both literal readings kept, for comparison",
        ),
        order("phi", phi_formula(ax), "R plus a new fixed point after the greatest one"),
        order("psi", psi_formula(ax), "R minus its greatest fixed point"),
        order("eta", eta_formula(ax), "good orderings have two distinct fixed points"),
        member("ax_eq", ax_eq_formula(), "equality is coextension"),
        member("ax_cong", ax_cong_formula(), "coextension respects membership"),
        member("pair", pair_formula(), "v0 codes an ordered pair"),
        member("p0", p0_formula(), "v1 is the first component of the pair v0"),
        member("p1", p1_formula(), "v1 is the second component of the pair v0"),
        member("pi", pi_formula(), "the projections are quasiprojections"),
        member("ord", ord_formula(), "v0 is an ordinal"),
        member("ford", ford_formula(), "v0 is a finite ordinal (zero-or-successor members)"),
        member("set_zero", set_zero(), "v0 is empty"),
        member("set_suc", set_suc(), "v1 = v0 + {v0}"),
        member("subset_leq", subset_leq(), "v0 is a subset of v1"),
        member("set_less", set_less(), "v0 is a proper subset of v1"),
    ]
    robinson = robinson_axioms()
    entries.append(
        LibraryEntry(
            "lambda",
            conj(list(robinson.values())),
            ARITH_VOCAB,
            "the arithmetic axiom conjunction over function graphs",
        )
    )
    return {e.name: e for e in entries}


def load_corpus(path=None) -> list[tuple[str, Formula]]:
    """Named formulas over E/2, one `name: formula` per line; # starts a
    comment.  Another symbol, or E with other than two arguments, is an
    InputError that names the line."""
    if path is None:
        text = resources.files("baokit.data").joinpath("corpus.txt").read_text()
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, body = line.partition(":")
        if not sep:
            raise FormulaSyntaxError(f"line {lineno}: missing name prefix", 0)
        try:
            out.append((name.strip(), parse_formula(body)))
            check_vocabulary(out[-1][1], MEMBER_VOCAB)
        except FormulaSyntaxError as exc:
            raise FormulaSyntaxError(
                f"line {lineno} ({name.strip()}): {exc.message}", exc.position
            ) from None
        except ValueError as exc:
            raise InputError(f"line {lineno} ({name.strip()}): {exc}") from None
    return out
