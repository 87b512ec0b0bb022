from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baokit import (
    Element,
    ModelFinite,
    PreconditionError,
    TupleSpace,
    WindowModel,
    diag,
    eval_window,
    holds,
    max_var_index,
    parse_formula,
    quantifier_depth,
)
from baokit.formulas import And, Atom, Eq, Exists, Forall, Iff, Implies, Not, Or
from baokit.library import close_universally, formula_library
from baokit.spaces import strictly_below
from baokit.window import _relation, window_satisfaction


def test_fixed_points_must_respect_margin():
    with pytest.raises(ValueError):
        WindowModel(8, 2, (7,))
    WindowModel(8, 2, (6,))


def test_depth_budget_enforced():
    wm = WindowModel(4, 2, (0,))
    lib = formula_library()
    with pytest.raises(PreconditionError):
        eval_window(wm, lib["ax"].formula, radii=(4,))


def test_good_axiom_block_true_and_stable():
    wm = WindowModel(16, 2, (0,))
    lib = formula_library()
    report = eval_window(wm, lib["ax"].formula)
    assert report.value and report.stable
    assert set(report.by_radius) == {16, 32, 64}


def test_two_fixed_points_flip_eta():
    lib = formula_library()
    report = eval_window(WindowModel(16, 2, (0,)), lib["eta"].formula)
    assert report.value is False and report.stable
    report2 = eval_window(WindowModel(16, 2, (0, 5)), lib["eta"].formula)
    assert report2.value is True and report2.stable


def test_literal_variants_fail_on_the_good_model():
    lib = formula_library()
    wm = WindowModel(16, 2, (0,))
    assert eval_window(wm, lib["ax_literal"].formula).value is False
    # the literal successor reading alone is already unsatisfiable
    from baokit.library import ax_formula

    assert eval_window(wm, ax_formula(literal_suc=True)).value is False


def test_successor_formula_is_the_increment():
    lib = formula_library()
    wm = WindowModel(12, 2, (0,))
    sat = window_satisfaction(wm, lib["suc"].formula, 12)
    # check against direct arithmetic inside the margin box
    radius, margin = 12, 2
    inner = range(-(radius - 2 * margin), radius - 2 * margin + 1)
    for a in inner:
        for b in inner:
            idx = sat.space.encode((a + radius, b + radius, 0))
            got = bool((sat.bits >> idx) & 1)
            assert got == (b == a + 1)


def test_phi_adds_fixed_point_after_greatest():
    # on the good model with fixed point 0, the extension formula denotes
    # the order with 1 adjoined as a new fixed point
    lib = formula_library()
    radius, margin = 20, 2
    wm0 = WindowModel(radius, margin, (0,))
    sat_phi = window_satisfaction(wm0, lib["phi"].formula, radius)
    wm01 = WindowModel(radius, margin, (0, 1))
    inner = range(-(radius - 16), radius - 16 + 1)  # clear of all margins
    for a in inner:
        for b in inner:
            idx = sat_phi.space.encode((a + radius, b + radius, 0))
            got = bool((sat_phi.bits >> idx) & 1)
            assert got == wm01.related(a, b), (a, b)


def test_psi_strips_greatest_fixed_point():
    lib = formula_library()
    radius, margin = 20, 2
    wm01 = WindowModel(radius, margin, (0, 1))
    sat_psi = window_satisfaction(wm01, lib["psi"].formula, radius)
    wm0 = WindowModel(radius, margin, (0,))
    inner = range(-(radius - 16), radius - 16 + 1)
    for a in inner:
        for b in inner:
            idx = sat_psi.space.encode((a + radius, b + radius, 0))
            got = bool((sat_psi.bits >> idx) & 1)
            assert got == wm0.related(a, b), (a, b)


def window_table(wm: WindowModel, radius: int) -> ModelFinite:
    """The window as an explicit finite model, one row per related triple."""
    points = wm.carrier(radius)
    rows = [row for row in iproduct(points, repeat=3) if wm.related(row[0], row[1])]
    return ModelFinite(points, {"R": rows})


def test_quantifier_free_agrees_with_pointwise_evaluation():
    wm = WindowModel(6, 2, (0,))
    f = parse_formula("R(v0,v1,v2) & !R(v1,v0,v2)")
    sat = window_satisfaction(wm, f, 6)
    model = window_table(wm, 6)
    for s in sat.space.tuples():
        got = bool((sat.bits >> sat.space.encode(s)) & 1)
        assert got == holds(model, f, dict(enumerate(s)))


def test_open_formulas_are_universally_closed():
    wm = WindowModel(8, 2, (0,))
    report = eval_window(wm, parse_formula("R(v0,v1,v2) | !R(v0,v1,v2)"), radii=(8,))
    assert report.value is True
    report2 = eval_window(wm, parse_formula("R(v0,v1,v2)"), radii=(8,))
    assert report2.value is False


def _cyl_over(space, x, coord, values):
    stride = space.stride(coord)
    zero_mask = space.digit_zero_mask(coord)
    collapsed = 0
    for t in values:
        collapsed |= x.bits >> (t * stride)
    collapsed &= zero_mask
    out = 0
    for t in range(space.base_size):
        out |= collapsed << (t * stride)
    return Element(space, out)


def walk_window(model, f, radius):
    """The private walker and value-by-value cylindrification that
    window_satisfaction replaced, kept as its oracle; atoms by tuple scan."""
    space = TupleSpace(2 * radius + 1, max(max_var_index(f) + 1, 1))

    def related(a, b):
        bits = 0
        for s in space.tuples():
            if model.related(s[a] - radius, s[b] - radius):
                bits |= 1 << space.encode(s)
        return Element(space, bits)

    def allowed(depth_now):
        reach = radius - depth_now * model.margin
        return range(-reach + radius, reach + radius + 1)

    def sat(g, depth_now):
        if isinstance(g, Atom):
            return related(g.args[0], g.args[1])
        if isinstance(g, Eq):
            return diag(space, g.left, g.right)
        if isinstance(g, Not):
            return ~sat(g.body, depth_now)
        if isinstance(g, And):
            return sat(g.left, depth_now) & sat(g.right, depth_now)
        if isinstance(g, Or):
            return sat(g.left, depth_now) | sat(g.right, depth_now)
        if isinstance(g, Implies):
            return ~sat(g.left, depth_now) | sat(g.right, depth_now)
        if isinstance(g, Iff):
            return ~(sat(g.left, depth_now) ^ sat(g.right, depth_now))
        body = sat(g.body, depth_now + 1)
        if isinstance(g, Exists):
            return _cyl_over(space, body, g.var, allowed(depth_now + 1))
        return ~_cyl_over(space, ~body, g.var, allowed(depth_now + 1))

    return sat(f, 0)


VARS = st.integers(0, 2)
WINDOW_FORMULAS = st.recursive(
    st.one_of(
        st.builds(lambda a, b, c: Atom("R", (a, b, c)), VARS, VARS, VARS),
        st.builds(Eq, VARS, VARS),
    ),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        *(st.builds(op, sub, sub) for op in (And, Or, Implies, Iff)),
        *(st.builds(q, VARS, sub) for q in (Exists, Forall)),
    ),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(f=WINDOW_FORMULAS, margin=st.integers(1, 2), slack=st.integers(1, 3),
       fixed=st.sets(st.integers(-1, 1)))
def test_window_satisfaction_matches_private_walker(f, margin, slack, fixed):
    radius = quantifier_depth(f) * margin + slack
    if radius <= margin:  # keep the fixed points inside the margin interval
        fixed = set()
    model = WindowModel(radius, margin, tuple(sorted(fixed)))
    assert window_satisfaction(model, f, radius) == walk_window(model, f, radius), f


def relation_by_value_loop(space, model, radius, a, b):
    """The per-value loop that built the order atoms before doubling, kept
    as their oracle: two digit masks per base value."""
    bits = 0
    if a == b:
        for c in model.fixed:
            bits |= space.digit_mask(a, c + radius)
        return bits
    below = 0
    for value in range(space.base_size):
        bits |= space.digit_mask(b, value) & below
        below |= space.digit_mask(a, value)
    for c in model.fixed:
        bits |= space.digit_mask(a, c + radius) & space.digit_mask(b, c + radius)
    return bits


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_order_atoms_match_value_loop(radius, n):
    space = TupleSpace(2 * radius + 1, n)
    inner = range(-radius + 1, radius)  # the margin-1 interval
    for fixed in {(), (0,), tuple(inner), (inner[0], inner[-1])}:
        model = WindowModel(radius, 1, fixed)
        for a in range(n):
            for b in range(n):
                got = _relation(space, model, radius, a, b, {})
                want = relation_by_value_loop(space, model, radius, a, b)
                assert got == want, (fixed, a, b)


@pytest.mark.parametrize("u", range(1, 10))
def test_strictly_below_matches_tuple_scan(u):
    for n in (2, 3):
        space = TupleSpace(u, n)
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                want = sum(1 << space.encode(s) for s in space.tuples() if s[a] < s[b])
                assert strictly_below(space, a, b) == want, (u, n, a, b)


def test_order_atoms_match_value_loop_at_radius_16():
    space, model = TupleSpace(33, 3), WindowModel(16, 2, (0, 5))
    for a in range(3):
        for b in range(3):
            got = _relation(space, model, 16, a, b, {})
            assert got == relation_by_value_loop(space, model, 16, a, b), (a, b)


def test_one_call_builds_each_diagonal_once(monkeypatch):
    """Each radius builds each diagonal once: the derived order s_b < s_a
    and the Eq leaves on one pair share it, and the strict order s_a < s_b
    builds none.  `ax` asks for each of its three pairs both ways."""
    import baokit.spaces
    import baokit.window

    built = []
    original = baokit.spaces.diag

    def counting(space, i, j):
        built.append((space.base_size, min(i, j), max(i, j)))
        return original(space, i, j)

    monkeypatch.setattr(baokit.window, "diag", counting)
    monkeypatch.setattr(baokit.spaces, "diag", counting)  # strictly_below's, if any
    report = eval_window(WindowModel(8, 1, (0,)), formula_library()["ax"].formula)
    assert report.value and report.stable
    assert sorted(built) == [(2 * r + 1, i, j) for r in (8, 16, 32)
                             for i, j in ((0, 1), (0, 2), (1, 2))]


def test_atoms_with_fewer_than_two_places_are_refused_before_any_work():
    """The order reads places 0 and 1; lambda's zero(v2) has one.  Both
    entry points refuse it first, ahead of the capacity check that the
    radius-100 windows would fail."""
    lam = formula_library()["lambda"].formula
    calls = [
        lambda: window_satisfaction(WindowModel(6, 1, ()), lam, 6),
        lambda: window_satisfaction(WindowModel(100, 1, ()), lam, 100),
        lambda: eval_window(WindowModel(6, 1, ()), lam),
        lambda: eval_window(WindowModel(100, 1, ()), Exists(0, Atom("R", (0,)))),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match=r"\((v\d)?\) has [01]$"):
            call()
