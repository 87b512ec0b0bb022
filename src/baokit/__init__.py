"""Finite Boolean algebras with operators, at desk scale.

Set algebras of n-ary relations over a finite base (with
cylindrifications, substitutions, diagonals), proper relation algebras,
subalgebra generation and structure theory, an n-variable first-order
frontend with compilation to terms and equality elimination, hereditarily
finite set models, and a CLI that replays the library's experiments.
"""

from .algebras import (
    FiniteAlgebra,
    Ideal,
    atom_below,
    atoms,
    decompose_by_zero_dimensional,
    discriminator_value,
    generate_subalgebra,
    is_hereditary_closed,
    principal_ideal,
    product,
    relativize,
)
from .compiler import (
    CompiledTerm,
    compile_to_term,
    compiler_agrees,
    is_restricted,
    restrict_formula,
)
from .errors import (
    BaokitError,
    CapacityError,
    ClosureCapError,
    CompileError,
    FormulaSyntaxError,
    InputError,
    PreconditionError,
    SignatureError,
    SpaceMismatchError,
    UnboundVariableError,
)
from .example import ExampleResult, GeneratorChain, build_chain, example_algebra
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
    format_formula,
    free_vars,
    max_var_index,
    parse_formula,
    quantifier_depth,
)
from .freeness import (
    ExtensionConflict,
    Homomorphism,
    extend_homomorphism,
    find_isomorphism,
    free_boolean_algebra,
    is_independent,
    splitting_check,
)
from .hf import (
    ArithReport,
    HFSet,
    HFUniverse,
    OrdinalReport,
    arith_oracles,
    bijection_exists,
    decode_pair,
    hf_universe,
    kuratowski,
    ordinal_hf,
    ordinal_oracles,
    quasiprojection_relations,
    robinson_model,
)
from .identities import identity_sweep, order_terms
from .library import LibraryEntry, formula_library, load_corpus
from .models import ModelFinite, holds, satisfaction_set
from .signatures import Signature
from .spaces import (
    Element,
    RaElement,
    RelationAlgebra,
    SetAlgebra,
    TupleSpace,
    cyl,
    diag,
    subst,
)
from .terms import Term, eval_term, eval_term_lanes, format_term, parse_term
from .translate import (
    CongruenceWitness,
    StrongCongruenceError,
    duplicated_model,
    leibniz_quotient,
    quotient_transfers,
    tr,
    tr_equivalent_on,
)
from .window import WindowModel, WindowReport, eval_window

__version__ = "0.1.0"
