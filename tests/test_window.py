import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baokit import (
    Element,
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
from baokit.library import formula_library
from baokit.window import window_satisfaction


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


def test_quantifier_free_agrees_with_pointwise_evaluation():
    wm = WindowModel(6, 2, (0,))
    f = parse_formula("R(v0,v1,v2) & !R(v1,v0,v2)")
    sat = window_satisfaction(wm, f, 6)
    model = wm.as_model(6)
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
