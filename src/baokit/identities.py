"""The one-variable term identities behind redundant generator sets.

Compiling the fixed-point formulas through the restricted correspondence
yields three single-variable terms tau, sigma, delta over the ternary
generator.  On finite bases every subset of the triple space interprets
the generator, and the sweep checks sigma(tau(x)) = x and
delta(tau(x)) = top for all (or randomly sampled) values x.  The values
are evaluated side by side as the lanes of one wide bitset (see
`terms.Lanes`), and a lane fails when it differs from the packed input,
or from the packed top.
"""

import random
from dataclasses import dataclass
from itertools import islice

from .compiler import CompiledTerm, compile_to_term, restrict_formula
from .library import formula_library
from .spaces import SetAlgebra
from .terms import Lanes, lane_batches


@dataclass
class IdentitySweepResult:
    base_size: int
    total: int
    exhaustive: bool
    failures: list  # (identity name, element serialization)

    @property
    def ok(self) -> bool:
        return not self.failures


def order_terms(n: int = 3) -> dict[str, CompiledTerm]:
    """tau, sigma, delta compiled from the fixed-point formulas."""
    lib = formula_library()
    out = {}
    for term_name, formula_name in (("tau", "phi"), ("sigma", "psi"), ("delta", "eta")):
        restricted = restrict_formula(lib[formula_name].formula, n)
        out[term_name] = compile_to_term(restricted, "CA", n)
    return out


def identity_sweep(u: int, *, samples: int = 1000, seed: int = 0) -> IdentitySweepResult:
    """Check sigma(tau(x)) = x and delta(tau(x)) = top over the base.

    All 2**(u**3) generator values are tried when there are at most 4096
    of them; otherwise `samples` seeded random values.
    """
    terms = order_terms(3)
    ambient = SetAlgebra("CA", u, 3)
    size = ambient.space.size
    exhaustive = (1 << size) <= 4096
    if exhaustive:
        total = 1 << size
        values = iter(range(total))
    else:
        rng = random.Random(seed)
        total = samples
        values = (ambient.random_element(rng).bits for _ in range(samples))

    tau, sigma, delta = (terms[name].term for name in ("tau", "sigma", "delta"))
    failures = []
    for batch in lane_batches(ambient, total):
        xs = list(islice(values, len(batch)))
        lanes = Lanes(ambient, len(xs))
        x = lanes.pack(xs)
        image = {0: lanes.run(tau, {0: x})}
        back_differs = lanes.unpack(lanes.run(sigma, image) ^ x)
        top_differs = lanes.unpack(lanes.run(delta, image) ^ lanes.full)
        for value, back, top in zip(xs, back_differs, top_differs):
            if back:
                failures.append(("sigma(tau(x)) = x", ambient.from_bits(value).serialize()))
            if top:
                failures.append(("delta(tau(x)) = 1", ambient.from_bits(value).serialize()))
    return IdentitySweepResult(
        base_size=u, total=total, exhaustive=exhaustive, failures=failures
    )
