"""The benchmark's workloads: fixed job lists built from a seed.

`WORKLOADS[name](bk, seed, cache)` takes a freshly imported baokit package,
builds the workload's inputs and returns its jobs.  A job's `run` calls the
library functions that the matching `baokit` subcommands call, in process;
its `check` compares the result against the reference computations in
`oracles`, or against a property the result must have.  Reference values
go in `cache`, which outlives re-imports of baokit, so each is computed
once per run.

The seed changes the inputs but not the amount of work, so that runs with
different seeds can be compared: generators are moved within their orbit
under the automorphisms of the ambient algebra, random elements keep their
width, and the rank-4 codes are dealt into slices in a seeded order.
"""

import random
from typing import Callable, NamedTuple

import oracles

CATALOG_SEED = 13054970


class Job(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object, "Checker"], None]


class Checker:
    """Counts checks and keeps a message for each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _cached(cache: dict, key, compute):
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def _positions(rng: random.Random, size: int, count: int) -> list[int]:
    if size <= count:
        return list(range(size))
    return sorted(rng.sample(range(size), count))


# -- structure -----------------------------------------------------------------

# (kind, u, n, generators, decompose).  Every ambient has at most 2**9
# subsets, so the brute-force closure of `oracles` can check every carrier.
# The CA u=3 n=2 closure is the full 512-element powerset; decomposing it
# takes 1-2 s in a single call, longer than the machine's speed epochs, so
# it is closed and scanned but not decomposed.
STRUCTURE_AMBIENTS = (
    ("CA", 2, 2, 2, True),
    ("DF", 2, 2, 2, True),
    ("SC", 2, 2, 2, True),
    ("DF", 2, 3, 1, True),
    ("SC", 2, 3, 1, True),
    ("CA", 3, 2, 1, False),
    ("DF", 3, 2, 2, True),
)


def catalog_generators(kind: str, u: int, n: int, count: int) -> list[int]:
    """Fixed generators, one orbit each; the seed only picks a member."""
    rng = random.Random(f"{CATALOG_SEED}:{kind}:{u}:{n}")
    full = (1 << u**n) - 1
    out = []
    while len(out) < count:
        g = rng.getrandbits(u**n)
        if g not in (0, full):
            out.append(g)
    return out


def relabel(bits: int, u: int, n: int, base_perm, coord_perm) -> int:
    """Image of a bitset under a permutation of the base and of the
    coordinates; both commute with every CA, DF and SC operator."""
    out = 0
    for pos in range(u**n):
        if oracles.bit(bits, pos):
            t = oracles.decode(pos, u, n)
            image = [0] * n
            for k in range(n):
                image[coord_perm[k]] = base_perm[t[k]]
            out |= 1 << oracles.encode(image, u)
    return out


def build_structure(bk, seed: int, cache: dict) -> list[Job]:
    rng = random.Random(seed)
    alg = bk.algebras
    jobs: list[Job] = []
    state: dict = {}

    for kind, u, n, count, decompose in STRUCTURE_AMBIENTS:
        ambient = bk.spaces.SetAlgebra(kind, u, n)
        for index, rep in enumerate(catalog_generators(kind, u, n, count)):
            base_perm = rng.sample(range(u), u)
            coord_perm = rng.sample(range(n), n)
            g = relabel(rep, u, n, base_perm, coord_perm)
            label = f"{kind}{u}^{n}#{index}"
            jobs += _closure_jobs(bk, ambient, kind, u, n, g, label, state, cache,
                                  decompose)

    def example():
        return bk.example.example_algebra(2)

    def check_example(res, c: Checker):
        c.expect(res.algebra is not None and res.carrier_size == 256,
                 "example(2): carrier is not the 256-element closure")
        c.expect(res.algebra is not None
                 and {x.bits for x in res.algebra.carrier} == set(range(256)),
                 "example(2): carrier is not the full powerset of 8 tuples")
        c.expect(res.is_full_powerset and res.atom_count == 8,
                 "example(2): not reported as the full powerset with 8 atoms")
        c.expect(res.closed_form_verified and res.chain_distinct == 3,
                 "example(2): generator chain")
        # Simple: the discriminator c0 c1 c2 of every atom (every singleton)
        # is the top; monotonicity carries this to every nonzero element.
        simple = all(
            oracles.cyl(oracles.cyl(oracles.cyl(1 << p, 2, 3, 0), 2, 3, 1), 2, 3, 2) == 255
            for p in range(8)
        )
        c.expect(simple and res.is_simple, "example(2): not simple")

    jobs.append(Job("example u=2", example, check_example))

    for k in range(5):
        def free(k=k):
            algebra, gens = bk.freeness.free_boolean_algebra(k)
            return algebra, gens, alg.atoms(algebra)

        def check_free(res, c: Checker, k=k):
            algebra, gens, ats = res
            c.expect(len(algebra.carrier) == 2 ** (2**k), f"F({k}): size")
            c.expect(len(ats) == 2**k, f"F({k}): atom count")
            c.expect(sorted(a.bits for a in ats) == [1 << f for f in range(2**k)],
                     f"F({k}): atoms are not the valuations")
            c.expect(all(g.bits.bit_count() == 2 ** (k - 1) for g in gens),
                     f"F({k}): a generator is not half the valuations")

        jobs.append(Job(f"free-ba k={k}", free, check_free))

    for k in (1, 2):
        def iso(k=k):
            bigger, _ = bk.freeness.free_boolean_algebra(k + 1)
            small, _ = bk.freeness.free_boolean_algebra(k)
            right = alg.product(small, small)
            return bigger, right, bk.freeness.find_isomorphism(bigger, right)

        def check_iso(res, c: Checker, k=k):
            bigger, right, found = res
            c.expect(found is not None, f"F({k + 1}) vs F({k})^2: no isomorphism found")
            if found is None:
                return
            images = {(l.bits, r.bits) for l, r in found.mapping.values()}
            c.expect(len(images) == len(bigger.carrier) == len(found.mapping),
                     f"F({k + 1}) vs F({k})^2: map is not a bijection")
            top = found.mapping[2 ** (2 ** (k + 1)) - 1]
            small_top = 2 ** (2**k) - 1
            c.expect((top[0].bits, top[1].bits) == (small_top, small_top),
                     f"F({k + 1}) vs F({k})^2: top is not sent to top")
            atom_images = [found.mapping[1 << f] for f in range(2 ** (k + 1))]
            c.expect(all(
                (a[0].bits & b[0].bits, a[1].bits & b[1].bits) == (0, 0)
                for i, a in enumerate(atom_images) for b in atom_images[i + 1:]
            ), f"F({k + 1}) vs F({k})^2: atom images overlap")

        jobs.append(Job(f"isomorphism F({k + 1}) vs F({k})^2", iso, check_iso))
    return jobs


def _closure_jobs(bk, ambient, kind, u, n, g, label, state, cache, with_decompose):
    alg = bk.algebras
    full = ambient.space.full_mask
    constants, unary = oracles.set_algebra_ops(kind, u, n)
    key = (kind, u, n, g)

    def reference():
        carrier = oracles.closure([g], constants, unary, full)
        images = {x: [f(x) for f in unary] for x in carrier}
        fixed = {x: all(y == x for y in images[x]) for x in carrier}
        hereditary = {
            b for b in carrier
            if all(fixed[x] for x in carrier if x & ~b == 0)
        }
        return carrier, hereditary

    def close():
        algebra = alg.generate_subalgebra(ambient, [ambient.from_bits(g)], cap=4096)
        state[label] = (algebra, alg.atoms(algebra))
        return state[label]

    def check_close(res, c: Checker):
        algebra, ats = res
        carrier, _ = _cached(cache, ("closure",) + key, reference)
        got = {x.bits for x in algebra.carrier}
        c.expect(got == carrier, f"{label}: carrier differs from the brute-force closure")
        c.expect(len(got) == 2 ** len(ats), f"{label}: carrier is not 2**atoms")
        bits = [a.bits for a in ats]
        c.expect(all(a & b == 0 for i, a in enumerate(bits) for b in bits[i + 1:]),
                 f"{label}: atoms overlap")
        join = 0
        for a in bits:
            join |= a
        c.expect(join == full, f"{label}: atoms do not join to the top")
        every_join = True
        for x in got:
            below = 0
            for a in bits:
                if a & ~x == 0:
                    below |= a
            every_join = every_join and below == x
        c.expect(every_join, f"{label}: an element is not the join of its atoms")
        c.expect(all(f(a) in got for a in bits for f in unary),
                 f"{label}: an operator maps an atom outside the carrier")
        c.expect(all(d in got for d in constants), f"{label}: a constant is missing")

    def hereditary():
        algebra, _ = state[label]
        closed = [b for b in algebra.carrier if alg.is_hereditary_closed(algebra, b)]
        state[label + "/h"] = closed
        return closed

    def check_hereditary(res, c: Checker):
        _, want = _cached(cache, ("closure",) + key, reference)
        c.expect({b.bits for b in res} == want,
                 f"{label}: hereditarily closed elements differ from the scan")
        atoms = [a.bits for a in state[label][1]]
        c.expect(all(sum(1 for a in atoms if a & ~b.bits == 0) <= 2 for b in res),
                 f"{label}: a hereditarily closed element bounds more than 2 atoms")

    def decompose():
        algebra, _ = state[label]
        out = []
        for b in state[label + "/h"]:
            try:
                out.append((b.bits, alg.decompose_by_zero_dimensional(algebra, b)))
            except bk.errors.PreconditionError:
                out.append((b.bits, None))
        return out

    def check_decompose(res, c: Checker):
        algebra, _ = state[label]
        for b, dec in res:
            if dec is None:
                # Only b = 0 is sure to meet the precondition.
                c.expect(b != 0, f"{label}: decomposition by 0 refused")
                continue
            c.expect(len(dec.below.carrier) * len(dec.above.carrier)
                     == len(algebra.carrier), f"{label}: factor sizes")
            c.expect(all(
                (dec.mapping[x.bits][0].bits, dec.mapping[x.bits][1].bits)
                == (x.bits & b, x.bits & ~b & full)
                for x in algebra.carrier
            ), f"{label}: map is not x -> (x.b, x.-b)")

    jobs = [
        Job(f"closure {label}", close, check_close),
        Job(f"hereditary {label}", hereditary, check_hereditary),
    ]
    if with_decompose:
        jobs.append(Job(f"decompose {label}", decompose, check_decompose))
    return jobs


# -- sweep -----------------------------------------------------------------------

SAMPLES_U3 = 200
ORACLE_IDENTITY_SAMPLES = 24

# Cylindric-algebra axioms (and additivity) as term pairs over CA_3.
CA_AXIOMS = (
    ("(cyl 0 zero)", "zero"),
    ("(or (var 0) (cyl 1 (var 0)))", "(cyl 1 (var 0))"),
    ("(cyl 2 (and (var 0) (cyl 2 (var 1))))", "(and (cyl 2 (var 0)) (cyl 2 (var 1)))"),
    ("(cyl 0 (cyl 1 (var 0)))", "(cyl 1 (cyl 0 (var 0)))"),
    ("(diag 1 1)", "one"),
    ("(diag 0 1)", "(cyl 2 (and (diag 0 2) (diag 2 1)))"),
    ("(and (cyl 0 (and (diag 0 1) (var 0))) (cyl 0 (and (diag 0 1) (not (var 0)))))",
     "zero"),
    ("(cyl 1 (or (var 0) (var 1)))", "(or (cyl 1 (var 0)) (cyl 1 (var 1)))"),
)
AXIOM_BASES = (2, 3, 4, 16)  # CA_3 over these bases: 8 to 4096 bits
AXIOM_ASSIGNMENTS = 16
AXIOM_POSITIONS = 8


def build_sweep(bk, seed: int, cache: dict) -> list[Job]:
    rng = random.Random(seed)
    jobs: list[Job] = []
    lib = bk.library.formula_library()
    identity_formulas = (lib["phi"].formula, lib["psi"].formula, lib["eta"].formula)

    def identity_reference(u: int, xs: tuple):
        """True when sigma(tau(x)) = x and delta(tau(x)) = 1 on every x,
        with tau, sigma and delta read off the fixed-point formulas."""
        phi, psi, eta = identity_formulas
        full = (1 << u**3) - 1
        for x in xs:
            tau = oracles.satisfaction(phi, u, 3, {"R": oracles.relation_rows(x, u, 3)})
            rows = {"R": oracles.relation_rows(tau, u, 3)}
            if oracles.satisfaction(psi, u, 3, rows) != x:
                return False
            if oracles.satisfaction(eta, u, 3, rows) != full:
                return False
        return True

    sample_seed = rng.getrandbits(32)
    for u, kwargs, total in ((2, {}, 256),
                             (3, {"samples": SAMPLES_U3, "seed": sample_seed}, SAMPLES_U3)):
        xs = tuple(rng.getrandbits(u**3) for _ in range(ORACLE_IDENTITY_SAMPLES))

        def sweep(u=u, kwargs=kwargs):
            return bk.identities.identity_sweep(u, **kwargs)

        def check_sweep(res, c: Checker, u=u, total=total, xs=xs):
            c.expect(res.total == total and res.exhaustive == (u == 2),
                     f"identity sweep u={u}: cases tried")
            c.expect(res.ok and not res.failures, f"identity sweep u={u}: failures reported")
            holds = _cached(cache, ("identity", u, xs), lambda: identity_reference(u, xs))
            c.expect(holds, f"identity sweep u={u}: reference finds a counterexample")

        jobs.append(Job(f"identity sweep u={u}", sweep, check_sweep))

    for u in AXIOM_BASES:
        ambient = bk.spaces.SetAlgebra("CA", u, 3)
        terms = [(bk.terms.parse_term(lhs, ambient.signature),
                  bk.terms.parse_term(rhs, ambient.signature)) for lhs, rhs in CA_AXIOMS]
        raw = [(rng.getrandbits(u**3), rng.getrandbits(u**3))
               for _ in range(AXIOM_ASSIGNMENTS)]
        assignments = [{0: ambient.from_bits(a), 1: ambient.from_bits(b)} for a, b in raw]
        positions = [_positions(rng, u**3, AXIOM_POSITIONS) for _ in raw]

        def axioms(ambient=ambient, terms=terms, assignments=assignments):
            ev = bk.terms.eval_term
            return [
                (ev(lhs, env, ambient).bits, ev(rhs, env, ambient).bits)
                for env in assignments
                for lhs, rhs in terms
            ]

        def check_axioms(res, c: Checker, u=u, terms=terms, raw=raw, positions=positions):
            def reference():
                out = []
                for (a, b), where in zip(raw, positions):
                    env = {0: a, 1: b}
                    for lhs, rhs in terms:
                        out.append([
                            (p, oracles.term_bit(lhs.root, env, u, 3, p),
                             oracles.term_bit(rhs.root, env, u, 3, p))
                            for p in where
                        ])
                return out

            want = _cached(cache, ("axioms", u, tuple(raw)), reference)
            c.expect(all(lhs == rhs for lhs, rhs in res),
                     f"CA axioms u={u}: an axiom fails")
            c.expect(all(
                oracles.bit(lhs, p) == wl and oracles.bit(rhs, p) == wr
                for (lhs, rhs), points in zip(res, want)
                for p, wl, wr in points
            ), f"CA axioms u={u}: a term value differs from the tuple scan")

        jobs.append(Job(f"CA axioms u={u}", axioms, check_axioms))

    corpus = bk.library.load_corpus()
    models = [(f"rank {r}", bk.hf.hf_universe(r).model()) for r in (1, 2)]
    for index in range(2):
        pairs = [(a, b) for a in range(3) for b in range(3)]
        rows = rng.sample(pairs, rng.randint(2, 7))
        models.append((f"random#{index}", bk.models.ModelFinite([0, 1, 2], {"E": rows})))
    atom = bk.formulas.Atom("E", (0, 1))
    for label, model in models:
        def agree(model=model):
            tr = bk.translate.tr
            return [
                bk.compiler.compiler_agrees(f if kind == "CA" else tr(f), model, 3, kind)
                for _, f in corpus
                for kind in ("CA", "SC")
            ]

        def check_agree(res, c: Checker, label=label, model=model):
            size = model.carrier_size
            rows = {"E": set(model.relation_table("E"))}
            compiler = bk.compiler
            c.expect(all(res) and len(res) == 2 * len(corpus),
                     f"compiler on {label}: compiler_agrees reports a mismatch")
            generator = oracles.satisfaction(atom, size, 3, rows)
            for name, f in corpus:
                for kind in ("CA", "SC"):
                    candidate = f if kind == "CA" else bk.translate.tr(f)
                    want = _cached(cache, ("formula", label, name, kind),
                                   lambda: oracles.satisfaction(candidate, size, 3, rows))
                    compiled = compiler.compile_to_term(
                        compiler.restrict_formula(candidate, 3) if kind == "CA" else candidate,
                        kind, 3)
                    ambient = bk.spaces.SetAlgebra(kind, size, 3)
                    env = {i: ambient.from_bits(generator) for i in range(len(compiled.symbols))}
                    got = bk.terms.eval_term(compiled.term, env, ambient).bits
                    c.expect(got == want, f"compiler on {label}: {name} [{kind}]")

        jobs.append(Job(f"compiler_agrees {label}", agree, check_agree))

    for r in (1, 2, 3):
        model = bk.hf.hf_universe(r).model()

        def translate(model=model):
            return [bk.translate.tr_equivalent_on(model, f, 3) for _, f in corpus]

        def check_translate(res, c: Checker, r=r):
            c.expect(len(res) == len(corpus) and all(res),
                     f"tr on the rank-{r} universe: disagrees with the formula")

        jobs.append(Job(f"tr_equivalent_on rank {r}", translate, check_translate))
    return jobs


# -- wide ------------------------------------------------------------------------

WIDE_SPACES = ((16, 5, True), (65, 3, True), (129, 3, False))  # (u, n, with subst)
WIDE_POSITIONS = 16


def build_wide(bk, seed: int, cache: dict) -> list[Job]:
    rng = random.Random(seed)
    jobs: list[Job] = []
    for u, n, with_subst in WIDE_SPACES:
        jobs += _kernel_jobs(bk.spaces, u, n, with_subst, rng, cache)

    lib = bk.library.formula_library()
    for formula, fixed, expected in (("ax", (0,), True), ("eta", (0,), False),
                                     ("eta", (0, 5), True)):
        model = bk.window.WindowModel(16, 2, fixed)
        f = lib[formula].formula

        def window(model=model, f=f):
            return bk.window.eval_window(model, f)

        def check_window(res, c: Checker, formula=formula, fixed=fixed, expected=expected):
            label = f"window {formula} fixed={fixed}"
            c.expect(set(res.by_radius) == {16, 32, 64}, f"{label}: radii")
            c.expect(res.value is expected and res.stable
                     and all(v is expected for v in res.by_radius.values()),
                     f"{label}: expected {expected} and stable across W, 2W, 4W")

        jobs.append(Job(f"window {formula} fixed={','.join(map(str, fixed))}",
                        window, check_window))
    return jobs


def _kernel_jobs(sp, u, n, with_subst, rng, cache) -> list[Job]:
    space = sp.TupleSpace(u, n)
    raw = rng.getrandbits(space.size)
    x = sp.Element(space, raw)
    coords = range(n)
    pairs = [(i, j) for i in coords for j in coords if i < j]
    ordered = [(i, j) for i in coords for j in coords if i != j]
    kernels = [
        ("cyl", lambda: [sp.cyl(i, x) for i in coords],
         [lambda p, i=i: oracles.cyl_bit(raw, u, n, i, p) for i in coords]),
        ("diag", lambda: [sp.diag(space, i, j) for i, j in pairs],
         [lambda p, i=i, j=j: oracles.diag_bit(u, n, i, j, p) for i, j in pairs]),
    ]
    if with_subst:
        kernels.append((
            "subst", lambda: [sp.subst(i, j, x) for i, j in ordered],
            [lambda p, i=i, j=j: oracles.subst_bit(raw, u, n, i, j, p) for i, j in ordered],
        ))
    jobs = []
    for kernel, run, refs in kernels:
        where = [_positions(rng, space.size, WIDE_POSITIONS) for _ in refs]
        label = f"{kernel} {u}^{n}"

        def check_kernel(res, c: Checker, label=label, refs=refs, where=where):
            def reference():
                return [[ref(p) for p in ps] for ref, ps in zip(refs, where)]

            want = _cached(cache, ("kernel", label, raw, str(where)), reference)
            c.expect(len(res) == len(refs), f"{label}: result count")
            c.expect(all(
                oracles.bit(out.bits, p) == w
                for out, ps, ws in zip(res, where, want)
                for p, w in zip(ps, ws)
            ), f"{label}: a bit differs from the tuple scan")

        jobs.append(Job(label, run, check_kernel))
    return jobs


# -- universe ----------------------------------------------------------------------

SLICE = 2048


def build_universe(bk, seed: int, cache: dict) -> list[Job]:
    rng = random.Random(seed)
    hf = bk.hf
    universe = hf.hf_universe(4)
    lib = bk.library.formula_library()
    ord_f, ford_f = lib["ord"].formula, lib["ford"].formula
    domain = range(16)  # members of rank-4 sets all live in the rank-3 cut
    ordinals = set(oracles.finite_ordinal_codes(5))
    codes = list(range(universe.size))
    rng.shuffle(codes)
    jobs: list[Job] = []

    for start in range(0, len(codes), SLICE):
        part = codes[start:start + SLICE]

        def scan(part=part):
            holds, oracle, HFSet = bk.models.holds, hf.ordinal_oracles, hf.HFSet
            found, mismatches = [], []
            for code in part:
                report = oracle(HFSet(code))
                got = holds(universe, ord_f, {0: code}, quantifier_domain=domain)
                if got != report.is_ord:
                    mismatches.append(code)
                    continue
                if got:
                    got_ford = holds(universe, ford_f, {0: code}, quantifier_domain=domain)
                    if got_ford != report.is_ford:
                        mismatches.append(code)
                    found.append((code, got_ford))
            return found, mismatches

        def check_scan(res, c: Checker, part=part, start=start):
            found, mismatches = res
            label = f"ord slice {start // SLICE}"
            c.expect(not mismatches, f"{label}: ordinal_oracles disagrees with holds")
            c.expect({code for code, _ in found} == ordinals.intersection(part),
                     f"{label}: ord holds off the finite ordinals")
            c.expect(all(ford for _, ford in found), f"{label}: ford fails on an ordinal")

        jobs.append(Job(f"ord slice {start // SLICE}", scan, check_scan))

    rank3 = hf.hf_universe(3)
    model3 = rank3.model()

    def pairing():
        # The `pairing` subcommand's functionality and conjunct checks.
        algebra = bk.spaces.RelationAlgebra(rank3.size)
        p0, p1 = hf.quasiprojection_relations(rank3)
        products = [algebra.compose(algebra.converse(p), q)
                    for p, q in ((p0, p0), (p1, p1), (p0, p1))]
        return p0, p1, products

    def check_pairing(res, c: Checker):
        p0, p1, products = res
        c.expect(all(
            ((p.bits >> (16 * x)) & 0xFFFF).bit_count() <= 1 for p in (p0, p1) for x in range(16)
        ), "quasiprojections: not functional")
        c.expect(all(
            p0.has_pair(oracles.kuratowski_code(a, b), a)
            and p1.has_pair(oracles.kuratowski_code(a, b), b)
            for a in (0, 1) for b in (0, 1)
        ), "quasiprojections: a Kuratowski pair is decoded wrongly")

        def converse(bits):
            return sum(1 << (b * 16 + a) for a in range(16) for b in range(16)
                       if oracles.bit(bits, a * 16 + b))

        want = [oracles.compose(converse(p.bits), q.bits, 16)
                for p, q in ((p0, p0), (p1, p1), (p0, p1))]
        c.expect([r.bits for r in products] == want,
                 "quasiprojections: a composition differs from the tuple scan")
        identity = sum(1 << (a * 17) for a in range(16))
        c.expect(all(r.bits & ~identity == 0 for r in products[:2]),
                 "quasiprojections: P^-1;P is not below the identity")

    jobs.append(Job("quasiprojections rank 3", pairing, check_pairing))

    def sat3():
        sat = bk.models.satisfaction_set
        return sat(model3, ord_f, 3), sat(model3, ford_f, 3)

    def check_sat3(res, c: Checker):
        want = {code for code in ordinals if code < 16}
        for name, element in zip(("ord", "ford"), res):
            got = {code for code in range(16) if oracles.bit(element.bits, code)}
            c.expect(got == want, f"satisfaction_set {name} at rank 3")

    jobs.append(Job("satisfaction_set rank 3", sat3, check_sat3))
    return jobs


WORKLOADS = {
    "structure": build_structure,
    "sweep": build_sweep,
    "wide": build_wide,
    "universe": build_universe,
}
