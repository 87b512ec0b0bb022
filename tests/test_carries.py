"""The carry kernel of c_0 (`spaces._carries`) against the full-width
doubling fold it replaced for u >= 3 (tests/doubling_kernels.py), and lane
batches, whose operator table stops at the lanes in use, against
per-value `eval_term`."""

import random

import pytest

import doubling_kernels as full_width
from baokit import SetAlgebra
from baokit.spaces import TupleSpace, _replicate, cylinder
from baokit.terms import Lanes, eval_term, eval_term_lanes, lanes_per_batch, parse_term

BASES = [1, 2, 3, 31, 32, 33, 63, 64, 65, 129]


def _edge_runs(u: int) -> list:
    """The whole base, as None and as a range, and the runs at its edges."""
    runs = [range(0, u), range(0, 1), range(u - 1, u), range(0, u - 1), range(1, u),
            range(u // 2, u // 2 + 1)]
    return [None] + [run for run in dict.fromkeys(runs) if len(run)]


def _inputs(space: TupleSpace, rng: random.Random) -> dict:
    """Values that stress the carries, by name."""
    u, size, full = space.base_size, space.size, space.full_mask
    high = space.digit_zero_mask(0) << (u - 1)
    alternate = _replicate((1 << u) - 1, 2 * u, (size // u + 1) // 2)  # groups 0, 2, ...
    xs = {
        "empty": 0,
        "full": full,
        "top bits alone": high,
        "every low bit": full ^ high,
        "alternate groups empty": alternate,
        "alternate groups, top bits": alternate & high,
        "alternate groups, low bits": alternate & ~high,
        "the other groups, low bits": (full ^ alternate) & ~high,
        "one": 1,
        "random": rng.getrandbits(size),
        "sparse": rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size),
    }
    # narrower than the space, ending mid-group: the top bit of each is set
    for width in sorted({1, u - 1, u + 1, 2 * u - 1, size // 2 + 1, size - 1} - {0}):
        if width <= size:
            xs[f"ends at bit {width}"] = 1 << width - 1
            xs[f"{width} random bits"] = rng.getrandbits(width) | 1 << width - 1
            xs[f"{width} low bits"] = ((1 << width) - 1) & ~high | 1 << width - 1
    return xs


@pytest.mark.parametrize("u", BASES)
def test_carries_match_the_doubling_fold(u):
    rng = random.Random(u)
    for n in (1, 2, 3) if u < 129 else (1, 2):
        space = TupleSpace(u, n)
        xs = _inputs(space, rng)
        for values in _edge_runs(u):
            got, want = cylinder(space, 0, values), full_width.cylinder(space, 0, values)
            for name, x in xs.items():
                assert got(x) == want(x), (n, values, name)


def test_a_narrow_value_fills_its_last_group():
    space = TupleSpace(3, 2)
    assert cylinder(space, 0)(1) == 0b111
    assert cylinder(space, 0)(0b10000) == 0b111000
    assert cylinder(space, 0, range(1, 2))(0b10000) == 0b111000
    assert cylinder(space, 0, range(1, 2))(0b1000) == 0  # value 0 is outside the run


# -- lanes -----------------------------------------------------------------------

TERMS = {
    "CA": ["(or (cyl 0 (and (var 0) (not (diag 0 1)))) "
           "(and (not (var 1)) (cyl 1 (or (var 1) (diag 0 1)))))",
           "(and one (not (cyl 0 (not (var 0)))))",
           "(impl (cyl 1 (var 0)) (or zero (cyl 0 (and (var 1) (diag 0 1)))))",
           "(disc (and (var 0) (not (var 1))))"],
    "SC": ["(or (subst 0 1 (var 0)) (not (cyl 1 (var 1))))",
           "(subst 1 0 (and one (not (var 0))))"],
}


@pytest.mark.parametrize("kind, u, n", [("CA", 3, 2), ("CA", 2, 3), ("CA", 5, 2), ("SC", 3, 2)])
def test_lanes_match_eval_term_at_the_batch_edges(monkeypatch, kind, u, n):
    ambient = SetAlgebra(kind, u, n)
    size = ambient.space.size
    monkeypatch.setattr("baokit.terms.MAX_SPACE_BITS", size * u**2)
    full = lanes_per_batch(ambient)
    assert full == u**2
    rng = random.Random(u * 10 + n)
    for text in TERMS[kind]:
        term = parse_term(text, ambient.signature)
        for count in (1, full - 1, full, full + 1):
            columns = {i: [rng.getrandbits(size) for _ in range(count)] for i in (0, 1)}
            columns[0][0] = 0  # a lane that cylinders leave empty
            got = eval_term_lanes(term, columns, ambient)
            want = [
                eval_term(term, {i: ambient.from_bits(columns[i][lane]) for i in columns},
                          ambient).bits
                for lane in range(count)
            ]
            assert got == want, (text, count)


def test_a_batch_computes_nothing_past_its_lanes():
    ambient = SetAlgebra("CA", 3, 2)
    lanes = Lanes(ambient, 5)  # TupleSpace(3, 4): nine lanes, five in use
    assert lanes.full == (1 << 45) - 1  # the table keeps its space's top, the run cuts it
    for text in ("(not (var 0))", "one", "(or (diag 0 1) (cyl 0 (not (var 0))))"):
        term = parse_term(text, ambient.signature)
        assert lanes.run(term, {0: 0}) >> 45 == 0, text
    assert lanes.run(parse_term("(not (var 0))", ambient.signature), {0: 0}) == lanes.full
