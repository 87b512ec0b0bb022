"""Equality elimination over a membership relation, and Leibniz quotients.

tr replaces each equality atom between distinct variables by "the two
sides have the same members", quantifying a variable not mentioned by the
atom.  Over extensional models the translation preserves satisfaction.

The Leibniz relation identifies points with the same extension; when it
also respects membership on the right it is a strong congruence and the
model factors through it.
"""

from dataclasses import dataclass

from .errors import PreconditionError
from .formulas import Atom, Eq, Forall, Formula, Iff, memo, parts, postorder, rebuilt
from .models import ModelFinite, satisfaction_set

MEMBER = "E"  # the membership symbol


@memo
def tr(f: Formula) -> Formula:
    """Replace v_i = v_j by `all v_k (E(v_k,v_i) <-> E(v_k,v_j))`.

    The quantified variable is the smallest index distinct from i and j, so
    a trivial equality v_i = v_i turns into a tautology of the same shape.
    Equality-free formulas come back unchanged (the same object, as nodes
    are interned).  Built once per formula and kept on it.
    """
    out = {}
    for g in postorder(f, parts):
        if isinstance(g, Atom):
            out[g] = g
        elif isinstance(g, Eq):
            k = min({0, 1, 2} - {g.left, g.right})
            out[g] = Forall(k, Iff(Atom(MEMBER, (k, g.left)), Atom(MEMBER, (k, g.right))))
        else:
            out[g] = rebuilt(g, out)
    return out[f]


@dataclass
class CongruenceWitness:
    """Points a ~ a2 and b ~ b2 on which membership disagrees."""

    a: object
    a2: object
    b: object
    b2: object


class StrongCongruenceError(PreconditionError):
    def __init__(self, witness: CongruenceWitness):
        super().__init__(
            "the Leibniz relation does not respect membership on the right",
            witness=witness,
        )


def leibniz_classes(model: ModelFinite) -> list[list[int]]:
    """Carrier indices grouped by extension (same incoming member sets)."""
    table = model.relation_table(MEMBER)
    extents: dict[frozenset, list[int]] = {}
    for b in range(model.carrier_size):
        ext = frozenset(a for a in range(model.carrier_size) if (a, b) in table)
        extents.setdefault(ext, []).append(b)
    return sorted(extents.values())


def strong_congruence_witness(model: ModelFinite):
    """None when the Leibniz relation is a strong congruence, else a witness."""
    table = model.relation_table(MEMBER)
    classes = leibniz_classes(model)
    for cls_a in classes:
        for cls_b in classes:
            values = {((a, b) in table) for a in cls_a for b in cls_b}
            if len(values) > 1:
                inside = [(a, b) for a in cls_a for b in cls_b if (a, b) in table]
                outside = [(a, b) for a in cls_a for b in cls_b if (a, b) not in table]
                return CongruenceWitness(
                    model.carrier[inside[0][0]],
                    model.carrier[outside[0][0]],
                    model.carrier[inside[0][1]],
                    model.carrier[outside[0][1]],
                )
    return None


def leibniz_quotient(model: ModelFinite):
    """The quotient by the Leibniz relation plus the index projection.

    Raises StrongCongruenceError (with a witness quadruple) when the
    relation fails to be a strong congruence, since membership between
    classes would then be ill-defined.
    """
    witness = strong_congruence_witness(model)
    if witness is not None:
        raise StrongCongruenceError(witness)
    classes = leibniz_classes(model)
    projection = [0] * model.carrier_size
    for ci, members in enumerate(classes):
        for b in members:
            projection[b] = ci
    table = model.relation_table(MEMBER)
    quotient_rows = {
        (projection[a], projection[b]) for a, b in table
    }
    quotient = ModelFinite(
        list(range(len(classes))),
        {MEMBER: quotient_rows},
        model.vocabulary,
    )
    return quotient, projection


def duplicated_model(model: ModelFinite) -> ModelFinite:
    """Each point split into two Leibniz-equivalent points."""
    table = model.relation_table(MEMBER)
    carrier = [(label, c) for label in model.carrier for c in (0, 1)]
    rows = [
        ((model.carrier[a], i), (model.carrier[b], j))
        for a, b in table
        for i in (0, 1)
        for j in (0, 1)
    ]
    return ModelFinite(carrier, {MEMBER: rows}, model.vocabulary)


def tr_equivalent_on(model: ModelFinite, f: Formula, n: int) -> bool:
    """Pointwise agreement of f and tr(f) on one model."""
    return satisfaction_set(model, f, n) == satisfaction_set(model, tr(f), n)


def quotient_transfers(model: ModelFinite, f: Formula, n: int) -> bool:
    """Does M satisfy tr(f) exactly where M/~ satisfies f, pointwise?

    Checked through the projection: an assignment satisfies tr(f) in M
    exactly when its image satisfies f in the quotient.
    """
    quotient, projection = leibniz_quotient(model)
    sat_m = satisfaction_set(model, tr(f), n)
    sat_q = satisfaction_set(quotient, f, n)
    for s in sat_m.space.tuples():
        image = tuple(projection[c] for c in s)
        lhs = bool((sat_m.bits >> sat_m.space.encode(s)) & 1)
        rhs = bool((sat_q.bits >> sat_q.space.encode(image)) & 1)
        if lhs != rhs:
            return False
    return True
