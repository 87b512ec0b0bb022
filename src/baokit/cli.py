"""Experiment runner: each subcommand drives one pipeline end to end.

Exit codes: 0 for a pass, 1 for a property failure, 2 for usage or
capacity problems.  With --json the report is printed as JSON with sorted
keys and no timing, so identical flags give byte-identical output;
timing appears only in the text rendering.  Window experiments report
the verdict "surrogate-pass" rather than "pass", since bounded windows
approximate, and never prove, facts about the unbounded order.
"""

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field
from itertools import islice

from .algebras import MAX_CARRIER_ATOMS, atoms, generate_subalgebra, is_hereditary_closed, product
from .compiler import compiler_agrees, is_restricted, unrestricted_atom
from .errors import BaokitError, CapacityError, FormulaSyntaxError
from .example import example_algebra
from .formulas import format_formula
from .freeness import (
    Homomorphism,
    check_free_budget,
    extend_homomorphism,
    free_boolean_algebra,
)
from .hf import (
    HFSet,
    decode_pair,
    exp_value,
    hf_universe,
    ordinal_oracles,
    prod_value,
    quasiprojection_relations,
    sum_value,
)
from .identities import identity_sweep
from .library import formula_library, load_corpus
from .models import ModelFinite, holds
from .spaces import MAX_SPACE_BITS, Element, RelationAlgebra, SetAlgebra, diag, strictly_below
from .terms import eval_term_lanes, lanes_per_batch, parse_term
from .translate import (
    StrongCongruenceError,
    duplicated_model,
    leibniz_classes,
    quotient_transfers,
    tr,
    tr_equivalent_on,
)
from .window import WindowModel, eval_window


@dataclass
class ExperimentReport:
    experiment: str
    parameters: dict
    verdict: str  # pass | fail | surrogate-pass
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def exit_code(self) -> int:
        return 0 if self.verdict in ("pass", "surrogate-pass") else 1

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "parameters": self.parameters,
            "verdict": self.verdict,
            "details": self.details,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"experiment: {self.experiment}"]
        for key, value in sorted(self.parameters.items()):
            lines.append(f"  {key} = {value}")
        for key, value in sorted(self.details.items()):
            lines.append(f"  {key}: {value}")
        lines.append(f"verdict: {self.verdict}  ({self.elapsed:.3f}s)")
        return "\n".join(lines)


def _parse_gen(spec: str, ambient: SetAlgebra) -> Element:
    space = ambient.space
    kind, _, rest = spec.partition(":")
    if kind in ("diag", "less"):
        try:
            i, j = (int(p) for p in rest.split(","))
        except ValueError:
            raise ValueError(f"generator spec {spec!r}: expected {kind}:i,j") from None
        if not (0 <= i < space.dimension and 0 <= j < space.dimension):
            raise ValueError(
                f"generator spec {spec!r}: coordinates must lie in 0..{space.dimension - 1}"
            )
        if kind == "diag":
            return diag(space, i, j)
        return ambient.from_bits(strictly_below(space, i, j))
    if kind == "hex":
        try:
            bits = int(rest, 16)
        except ValueError:
            raise ValueError(f"generator spec {spec!r}: expected hex digits") from None
        if bits < 0 or bits >> space.size:
            raise ValueError(
                f"generator spec {spec!r}: not a nonnegative value of at most "
                f"{space.size} bits"
            )
        return ambient.from_bits(bits)
    raise ValueError(f"unknown generator spec {spec!r}; use diag:i,j less:i,j hex:...")


def _cmd_example(args) -> ExperimentReport:
    result = example_algebra(args.u)
    ok = (
        result.closed_form_verified
        and result.chain_distinct == args.u + 1
        and result.is_simple
        and result.atom_count >= 3
    )
    return ExperimentReport(
        "example",
        {"u": args.u},
        "pass" if ok else "fail",
        {
            "chain_distinct": result.chain_distinct,
            "closed_form": result.closed_form_verified,
            "carrier_size": str(result.carrier_size),
            "atom_count": result.atom_count,
            "simple": result.is_simple,
            "full_powerset": result.is_full_powerset,
        },
    )


def _cmd_atoms(args) -> ExperimentReport:
    ambient = SetAlgebra(args.kind, args.u, args.n)
    gens = [_parse_gen(spec, ambient) for spec in args.gens]
    algebra = generate_subalgebra(ambient, gens, cap=args.cap)
    ats = atoms(algebra)
    # every nonzero element is a join of atoms, so it bounds one exactly
    # when no atom is zero
    covered = not any(a.is_zero() for a in ats)
    details = {
        "carrier_size": algebra.size,
        "atom_count": len(ats),
        "every_nonzero_bounds_an_atom": covered,
        "atoms": [a.serialize() for a in ats[:16]],
    }
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write(algebra.serialize())
        details["dumped_to"] = args.dump
    return ExperimentReport(
        "atoms",
        {"u": args.u, "n": args.n, "kind": args.kind, "gens": ",".join(args.gens)},
        "pass" if covered else "fail",
        details,
    )


def _cmd_check_identity(args) -> ExperimentReport:
    ambient = (
        RelationAlgebra(args.u)
        if args.kind == "RA"
        else SetAlgebra(args.kind, args.u, args.n)
    )
    lhs = parse_term(args.lhs, ambient.signature)
    rhs = parse_term(args.rhs, ambient.signature)
    var_count = max(lhs.var_count, rhs.var_count)
    size = args.u**2 if args.kind == "RA" else args.u**args.n
    exhaustive = var_count * size <= 16 and (1 << size) ** var_count <= 65536
    if exhaustive:
        # lane l is assignment number l, variable 0 varying fastest
        total = (1 << size) ** var_count
        values = (
            (lane >> (i * size)) & ((1 << size) - 1)
            for lane in range(total)
            for i in range(var_count)
        )
    else:
        rng = random.Random(args.seed)
        total = args.samples
        values = (
            ambient.random_element(rng).bits for _ in range(total * var_count)
        )
    # a batch draws at most MAX_SPACE_BITS bits of assignments
    step = min(lanes_per_batch(ambient), MAX_SPACE_BITS // (var_count * size or 1))
    if step == 0:
        raise CapacityError(
            f"an assignment of {var_count} variables passes {MAX_SPACE_BITS} bits"
        )
    failures = []
    cases = total
    for start in range(0, total, step):
        flat = list(islice(values, min(step, total - start) * var_count))
        columns = {i: flat[i::var_count] for i in range(var_count)}
        left = eval_term_lanes(lhs, columns, ambient)
        right = eval_term_lanes(rhs, columns, ambient)
        for lane, (a, b) in enumerate(zip(left, right)):
            if a != b:
                failures.append(
                    {i: ambient.from_bits(columns[i][lane]).serialize() for i in columns}
                )
                if len(failures) == 3:
                    cases = start + lane + 1
                    break
        if len(failures) == 3:
            break
    return ExperimentReport(
        "check-identity",
        {
            "u": args.u,
            "n": args.n,
            "kind": args.kind,
            "lhs": args.lhs,
            "rhs": args.rhs,
            "seed": args.seed,
        },
        "pass" if not failures else "fail",
        {"cases": cases, "exhaustive": exhaustive, "counterexamples": failures},
    )


def _cmd_free_ba(args) -> ExperimentReport:
    check_free_budget(args.k)
    details = {}
    ok = True
    free = [free_boolean_algebra(k) for k in range(args.k + 1)]
    for k, (algebra, _) in enumerate(free):
        count = len(atoms(algebra))
        details[f"k={k}"] = f"size {algebra.size}, atoms {count}"
        ok = ok and algebra.size == 2 ** (2**k) and count == 2**k
    # F(k+1) -> F(k)^2 by g_i -> (g_i, g_i) for i < k and g_k -> (0, 1): the
    # sizes agree, so a one-to-one extension is an isomorphism.
    for k in range(1, args.k):
        (bigger, big_gens), (small, gens) = free[k + 1], free[k]
        images = [(g, g) for g in gens] + [(small.zero, small.one)]
        h = extend_homomorphism(bigger, big_gens, product(small, small), images)
        iso = isinstance(h, Homomorphism) and h.is_injective()
        details[f"iso_k{k + 1}_vs_k{k}_squared"] = iso
        ok = ok and iso
    return ExperimentReport(
        "free-ba", {"k": args.k}, "pass" if ok else "fail", details
    )


def _cmd_tau_sigma_delta(args) -> ExperimentReport:
    result = identity_sweep(args.u, samples=args.samples, seed=args.seed)
    return ExperimentReport(
        "tau-sigma-delta",
        {"u": args.u, "samples": args.samples, "seed": args.seed},
        "pass" if result.ok else "fail",
        {
            "cases": result.total,
            "exhaustive": result.exhaustive,
            "failures": result.failures[:5],
        },
    )


def _cmd_window(args) -> ExperimentReport:
    lib = formula_library()
    if args.formula not in lib:
        raise ValueError(f"unknown library formula {args.formula!r}")
    model = WindowModel(args.w, args.margin, tuple(args.fixed))
    report = eval_window(model, lib[args.formula].formula)
    verdict = "surrogate-pass" if report.stable else "fail"
    return ExperimentReport(
        "window",
        {
            "formula": args.formula,
            "fixed": ",".join(map(str, args.fixed)),
            "w": args.w,
            "margin": args.margin,
        },
        verdict,
        {
            "value": report.value,
            "stable": report.stable,
            "by_radius": {str(r): v for r, v in report.by_radius.items()},
            "note": report.note,
        },
    )


def _corpus_models(max_rank: int) -> list[ModelFinite]:
    return [hf_universe(r).model() for r in range(1, max_rank + 1)]


def _cmd_translate(args) -> ExperimentReport:
    corpus = load_corpus(args.corpus)
    models = _corpus_models(args.rank)
    failures = []
    for name, formula in corpus:
        for model in models:
            if not tr_equivalent_on(model, formula, 3):
                failures.append(f"tr disagrees: {name} on |M|={model.carrier_size}")
    transfer_models = models[:-1] + [duplicated_model(m) for m in models[:-1]]
    for name, formula in corpus:
        for model in transfer_models:
            try:
                if not quotient_transfers(model, formula, 3):
                    failures.append(
                        f"quotient transfer fails: {name} on |M|={model.carrier_size}"
                    )
            except StrongCongruenceError:
                continue
    return ExperimentReport(
        "translate",
        {"rank": args.rank, "corpus": args.corpus or "shipped"},
        "pass" if not failures else "fail",
        {
            "formulas": len(corpus),
            "models": len(models) + len(transfer_models),
            "failures": failures[:5],
        },
    )


def _cmd_pairing(args) -> ExperimentReport:
    universe = hf_universe(args.rank)
    algebra = RelationAlgebra(universe.size)
    p0, p1 = quasiprojection_relations(universe)
    sig = algebra.signature
    functional = all(
        algebra.compose(algebra.converse(p), p) <= algebra.identity for p in (p0, p1)
    )
    low_rank = [c for c in range(universe.size) if HFSet(c).rank <= args.rank - 2]
    surjective = all(
        any(
            decode_pair(HFSet(x)) == (HFSet(a), HFSet(b))
            for x in range(universe.size)
        )
        for a in low_rank
        for b in low_rank
    )
    conj1 = algebra.residual(algebra.compose(algebra.converse(p0), p0), algebra.identity)
    conj2 = algebra.residual(algebra.compose(algebra.converse(p1), p1), algebra.identity)
    third = algebra.compose(algebra.converse(p0), p1)
    third_covers = all(third.has_pair(a, b) for a in low_rank for b in low_rank)
    ok = (
        functional
        and surjective
        and conj1 == algebra.one
        and conj2 == algebra.one
        and third_covers
    )
    return ExperimentReport(
        "pairing",
        {"rank": args.rank},
        "pass" if ok else "fail",
        {
            "functional": functional,
            "relativized_surjectivity": surjective,
            "first_conjunct_full": conj1 == algebra.one,
            "second_conjunct_full": conj2 == algebra.one,
            "third_conjunct_covers_low_ranks": third_covers,
        },
    )


# The instance checks take about 1 s end to end at this --max and grow
# about as its cube.
MAX_ARITH = 200


def _cmd_arith(args) -> ExperimentReport:
    top = args.max
    if top > MAX_ARITH:
        raise CapacityError(f"arith checks instances up to --max {MAX_ARITH}, not {top}")
    failures = []
    for a in range(top + 1):
        if a + 1 <= top and sum_value(a, 1) == 0:
            failures.append(f"s{a} = 0")
        for b in range(top + 1):
            if a + b <= top and sum_value(a, b) != a + b:
                failures.append(f"sum({a},{b})")
            if a * b <= top and prod_value(a, b) != a * b:
                failures.append(f"prod({a},{b})")
            if a**b <= top and exp_value(a, b) != a**b:
                failures.append(f"exp({a},{b})")
            if b + 1 <= top and a + (b + 1) <= top:
                if sum_value(a, b + 1) != sum_value(a, b) + 1:
                    failures.append(f"x+sy=s(x+y) at ({a},{b})")
            if b + 1 <= top and a * (b + 1) <= top:
                if prod_value(a, b + 1) != sum_value(prod_value(a, b), a):
                    failures.append(f"x*sy=x*y+x at ({a},{b})")
            if exp_value(a, 0) != 1:
                failures.append(f"x^0=1 at {a}")
            if b + 1 <= top and a ** (b + 1) <= top:
                if exp_value(a, b + 1) != prod_value(exp_value(a, b), a):
                    failures.append(f"x^sy=x^y*x at ({a},{b})")
    universe = hf_universe(4)
    lib = formula_library()
    mismatches = _ordinal_agreement(universe, lib)
    return ExperimentReport(
        "arith",
        {"max": args.max},
        "pass" if not failures and not mismatches else "fail",
        {
            "instance_failures": failures[:5],
            "ordinal_formula_mismatches": mismatches[:5],
        },
    )


def _ordinal_agreement(universe, lib) -> list:
    """Oracle verdicts against formula evaluation on the rank-4 universe,
    with quantifiers relativized to the member-closed rank-3 cut."""
    mismatches = []
    domain = range(16)  # members of rank-4 sets all live in the rank-3 cut
    for code in range(universe.size):
        report = ordinal_oracles(HFSet(code))
        got_ord = holds(
            universe, lib["ord"].formula, {0: code}, quantifier_domain=domain
        )
        if got_ord != report.is_ord:
            mismatches.append(code)
            continue
        if got_ord:
            got_ford = holds(
                universe, lib["ford"].formula, {0: code}, quantifier_domain=domain
            )
            if got_ford != report.is_ford:
                mismatches.append(code)
    return mismatches


def _cmd_hereditary(args) -> ExperimentReport:
    rng = random.Random(args.seed)
    ambient = SetAlgebra(args.kind, args.u, args.n)
    cap = min(args.cap, 1 << MAX_CARRIER_ATOMS)  # past either, a trial is skipped
    failures = []
    checked = 0
    for trial in range(args.trials):
        gen = ambient.random_element(rng)
        if gen.is_zero():
            continue
        try:
            algebra = generate_subalgebra(ambient, [gen], cap=cap)
        except CapacityError:
            continue
        ats = atoms(algebra)
        for b in algebra.carrier:
            if not is_hereditary_closed(algebra, b):
                continue
            checked += 1
            inside = [a for a in ats if algebra.le(a, b)]
            if len(inside) > 2:
                failures.append(
                    f"trial {trial}: {len(inside)} atoms under {b.serialize()}"
                )
    return ExperimentReport(
        "hereditary",
        {
            "u": args.u,
            "n": args.n,
            "kind": args.kind,
            "trials": args.trials,
            "seed": args.seed,
        },
        "pass" if not failures else "fail",
        {"hereditarily_closed_cases": checked, "failures": failures[:5]},
    )


def _cmd_corpus_check(args) -> ExperimentReport:
    try:
        corpus = load_corpus(args.path)
    except FormulaSyntaxError as exc:
        return ExperimentReport(
            "corpus-check",
            {"path": args.path or "shipped"},
            "fail",
            {"parse_error": str(exc)},
        )
    if not corpus:
        return ExperimentReport(
            "corpus-check",
            {"path": args.path or "shipped"},
            "pass",
            {"cases": 0, "warning": "corpus is empty"},
        )
    failures = []
    if args.require_restricted:
        for name, formula in corpus:
            if not is_restricted(formula, 3):
                atom = unrestricted_atom(formula, 3)
                where = format_formula(atom) if atom is not None else "variable budget"
                failures.append(f"not restricted: {name} ({where})")
    models = _corpus_models(2) + [
        ModelFinite([0, 1, 2], {"E": rows})
        for rows in ([(0, 1), (1, 2)], [(0, 1), (1, 0), (2, 2)])
    ]
    for name, formula in corpus:
        for model in models:
            for kind in ("CA", "SC"):
                candidate = formula if kind == "CA" else tr(formula)
                try:
                    if not compiler_agrees(candidate, model, 3, kind):
                        failures.append(f"compiler: {name} [{kind}]")
                except BaokitError as exc:
                    failures.append(f"compiler error: {name} [{kind}]: {exc}")
            if not tr_equivalent_on(model, formula, 3) and (
                len(leibniz_classes(model)) == model.carrier_size  # extensional
            ):
                failures.append(f"tr: {name} on |M|={model.carrier_size}")
    return ExperimentReport(
        "corpus-check",
        {"path": args.path or "shipped", "require_restricted": args.require_restricted},
        "pass" if not failures else "fail",
        {"cases": len(corpus), "failures": failures[:8]},
    )


def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {low}")
        return value

    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baokit", description="finite algebras of relations, desk-scale experiments"
    )
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="single-generated algebra and its chain")
    p.add_argument("--u", type=_at_least(2), default=3)
    p.set_defaults(run=_cmd_example)

    p = sub.add_parser("atoms", help="generate a subalgebra and list its atoms")
    p.add_argument("--u", type=_at_least(1), default=2)
    p.add_argument("--n", type=_at_least(1), default=2)
    p.add_argument("--kind", default="CA", choices=["BA", "DF", "SC", "CA"])
    p.add_argument("--gens", nargs="+", default=["diag:0,1"])
    p.add_argument("--cap", type=_at_least(1), default=4096)
    p.add_argument("--dump", default=None, help="write the algebra to a file")
    p.set_defaults(run=_cmd_atoms)

    p = sub.add_parser("check-identity", help="compare two terms over a full algebra")
    p.add_argument("--u", type=_at_least(1), default=2)
    p.add_argument("--n", type=_at_least(1), default=2)
    p.add_argument("--kind", default="CA", choices=["BA", "DF", "SC", "CA", "RA"])
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--samples", type=_at_least(1), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_check_identity)

    p = sub.add_parser("free-ba", help="free Boolean algebra structure")
    p.add_argument("--k", type=_at_least(0), default=3)
    p.set_defaults(run=_cmd_free_ba)

    p = sub.add_parser("tau-sigma-delta", help="the one-variable term identities")
    p.add_argument("--u", type=_at_least(1), default=2)
    p.add_argument("--samples", type=_at_least(1), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_tau_sigma_delta)

    p = sub.add_parser("window", help="margin-bounded window evaluation")
    p.add_argument("--formula", default="eta")
    p.add_argument("--fixed", type=lambda s: [int(x) for x in s.split(",")], default=[0])
    p.add_argument("--w", type=_at_least(1), default=16)
    p.add_argument("--margin", type=_at_least(1), default=2)
    p.set_defaults(run=_cmd_window)

    p = sub.add_parser("translate", help="equality elimination soundness sweeps")
    p.add_argument("--rank", type=_at_least(1), default=3)
    p.add_argument("--corpus", default=None)
    p.set_defaults(run=_cmd_translate)

    p = sub.add_parser("pairing", help="quasiprojection checks on a set universe")
    p.add_argument("--rank", type=_at_least(1), default=3)
    p.set_defaults(run=_cmd_pairing)

    p = sub.add_parser("arith", help="ordinal arithmetic instances and agreement")
    p.add_argument("--max", type=_at_least(0), default=6)
    p.set_defaults(run=_cmd_arith)

    p = sub.add_parser("hereditary", help="atom bound under hereditarily closed elements")
    p.add_argument("--u", type=_at_least(1), default=2)
    p.add_argument("--n", type=_at_least(1), default=2)
    p.add_argument("--kind", default="CA", choices=["DF", "SC", "CA"])
    p.add_argument("--trials", type=_at_least(1), default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=_at_least(1), default=512)
    p.set_defaults(run=_cmd_hereditary)

    p = sub.add_parser("corpus-check", help="compiler and translation sweeps over a corpus")
    p.add_argument("path", nargs="?", default=None)
    p.add_argument("--require-restricted", action="store_true")
    p.set_defaults(run=_cmd_corpus_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report: ExperimentReport = args.run(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except (BaokitError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    report.elapsed = time.perf_counter() - started
    print(report.to_json() if args.json else report.to_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
