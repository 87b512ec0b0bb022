"""Operator signatures for the supported algebra kinds.

Kinds:
  BA  plain Boolean algebras
  DF  diagonal-free cylindric algebras (cylindrifications c_i)
  SC  substitution algebras (c_i plus replacements s_{i,j})
  CA  cylindric algebras (c_i plus diagonal constants d_{ij})
  RA  algebras of binary relations (composition, converse, identity)

Every kind includes the Boolean operations.  Non-Boolean operators are
named by an OpRef, a pair of an operator name and its integer parameters,
e.g. ("cyl", (0,)) or ("subst", (0, 1)).
"""

from dataclasses import dataclass

from .errors import SignatureError

OpRef = tuple[str, tuple[int, ...]]

KINDS = ("BA", "DF", "SC", "CA", "RA")

# name -> (argument arity, number of index parameters)
_OP_SHAPES = {
    "cyl": (1, 1),
    "subst": (1, 2),
    "diag": (0, 2),
    "conv": (1, 0),
    "comp": (2, 0),
    "id": (0, 0),
    "disc": (1, 0),
}

_BOOLEAN_SHAPES = {"and": 2, "or": 2, "not": 1, "impl": 2, "zero": 0, "one": 0}


def opref_str(op: OpRef) -> str:
    name, params = op
    if not params:
        return name
    return name + ":" + ",".join(str(p) for p in params)


@dataclass(frozen=True)
class Signature:
    """An algebra kind together with its dimension, if it has one."""

    kind: str
    dimension: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SignatureError(f"unknown algebra kind {self.kind!r}")
        if self.kind in ("BA", "RA"):
            if self.dimension is not None:
                raise SignatureError(f"{self.kind} has no dimension")
        else:
            if self.dimension is None or self.dimension < 1:
                raise SignatureError(f"{self.kind} needs a finite dimension >= 1")

    @property
    def label(self) -> str:
        if self.dimension is None:
            return self.kind
        return f"{self.kind}_{self.dimension}"

    def operator_descriptors(self) -> tuple[tuple[OpRef, int], ...]:
        """Non-Boolean operators as (opref, arity), constants with arity 0."""
        n = self.dimension
        out: list[tuple[OpRef, int]] = []
        if self.kind in ("DF", "SC", "CA"):
            out.extend((("cyl", (i,)), 1) for i in range(n))
        if self.kind == "SC":
            out.extend(
                (("subst", (i, j)), 1) for i in range(n) for j in range(n) if i != j
            )
        if self.kind == "CA":
            out.extend((("diag", (i, j)), 0) for i in range(n) for j in range(i + 1, n))
        if self.kind == "RA":
            out.append((("conv", ()), 1))
            out.append((("comp", ()), 2))
            out.append((("id", ()), 0))
        return tuple(out)

    def allows(self, op: OpRef) -> bool:
        name, params = op
        if name in _BOOLEAN_SHAPES:
            return True
        if name not in _OP_SHAPES:
            return False
        n = self.dimension
        if name == "cyl":
            return self.kind in ("DF", "SC", "CA") and 0 <= params[0] < n
        if name == "subst":
            i, j = params
            return self.kind == "SC" and i != j and 0 <= i < n and 0 <= j < n
        if name == "diag":
            i, j = params
            return self.kind == "CA" and 0 <= i < n and 0 <= j < n
        if name in ("conv", "comp", "id"):
            return self.kind == "RA"
        if name == "disc":
            return self.kind in ("BA", "DF", "SC", "CA")
        return False

    def op_arity(self, op: OpRef) -> int:
        name = op[0]
        if name in _BOOLEAN_SHAPES:
            return _BOOLEAN_SHAPES[name]
        if name in _OP_SHAPES:
            return _OP_SHAPES[name][0]
        raise SignatureError(f"unknown operator {name!r}")
