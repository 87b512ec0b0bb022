import gc
import weakref
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import baokit.models
import full_width_plan as fw
from baokit import (
    CapacityError,
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
from baokit.window import _Reach, _relation, window_satisfaction


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
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_order_atoms_match_value_loop(radius, n):
    space = TupleSpace(2 * radius + 1, n)
    inner = range(-radius + 1, radius)  # the margin-1 interval
    for fixed in {(), (0,), tuple(inner), (inner[0], inner[-1])}:
        model = WindowModel(radius, 1, fixed)
        for a in range(n):
            for b in range(n):
                got = _relation(space, model, radius, a, b, strictly_below(space, a, b))
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
            got = _relation(space, model, 16, a, b, strictly_below(space, a, b))
            assert got == relation_by_value_loop(space, model, 16, a, b), (a, b)


def test_order_atoms_match_value_loop_at_radius_64():
    space, model = TupleSpace(129, 3), WindowModel(64, 2, (0, 5))
    for a in range(3):
        for b in range(3):
            got = _relation(space, model, 64, a, b, strictly_below(space, a, b))
            assert got == relation_by_value_loop(space, model, 64, a, b), (a, b)


def test_a_fixed_point_outside_a_narrower_radius_is_refused():
    """The fixed point 7 is outside a radius-4 window, so both entry points
    refuse it, naming the point and the radius, before any table is made
    or any leaf built: for an order atom, either way round, and for a
    diagonal alike."""
    model = WindowModel(8, 1, (7,))
    want = r"^fixed point 7 lies outside the radius-4 window \[-4, 4\]$"
    baokit.models.operator_table.cache_clear()
    for text in ("R(v0,v1)", "R(v1,v1)", "v0 = v1"):
        with pytest.raises(PreconditionError, match=want):
            window_satisfaction(model, parse_formula(text), 4)
        with pytest.raises(PreconditionError, match=want):
            eval_window(model, parse_formula(text), radii=(8, 4))
    assert baokit.models.operator_table.cache_info().currsize == 0
    edge = WindowModel(8, 1, (4,))  # the window's last point is held
    assert window_satisfaction(edge, parse_formula("R(v0,v0)"), 4).bits


def test_one_call_builds_each_diagonal_once(monkeypatch):
    """On fresh tables, the first call builds each diagonal of each radius
    once, for the Eq leaves only, and a second call builds none: the
    tables keep their diagonals, and each order atom, either way round,
    grows from its own seed, the pattern of its fixed points being no
    diagonal.  `ax` asks for each of its three pairs both ways."""
    import baokit.spaces
    import baokit.window

    built = []
    original = baokit.spaces.diag

    def counting(space, i, j):
        built.append((space.base_size, min(i, j), max(i, j)))
        return original(space, i, j)

    monkeypatch.setattr(baokit.window, "diag", counting)
    monkeypatch.setattr(baokit.spaces, "diag", counting)  # the builders', if any
    baokit.models.operator_table.cache_clear()
    ax = formula_library()["ax"].formula
    report = eval_window(WindowModel(8, 1, (0,)), ax)
    assert report.value and report.stable
    assert sorted(built) == [(2 * r + 1, i, j) for r in (8, 16, 32)
                             for i, j in ((0, 1), (0, 2), (1, 2))]
    built.clear()
    assert eval_window(WindowModel(8, 1, (0,)), ax) == report
    assert built == []


def full_width_window(model: WindowModel, f, radius: int) -> int:
    """window_satisfaction of a closed f on the full-width plan, with the
    order atoms of the value loop."""
    space = TupleSpace(2 * radius + 1, max(max_var_index(f) + 1, 1))

    def leaf(g) -> int:
        if isinstance(g, Eq):
            return diag(space, g.left, g.right).bits
        return relation_by_value_loop(space, model, radius, g.args[0], g.args[1])

    def allowed(depth, var):
        reach = radius - depth * model.margin
        return range(radius - reach, radius + reach + 1)

    return fw.satisfaction_bits(space, f, leaf, allowed)


def test_a_window_keeps_its_operator_tables_per_radius_and_margin(monkeypatch):
    """The ranged table of each radius is made at the first call on its
    radius and margin and kept: a second eval_window on the same radii and
    margin, with other fixed points, makes none, and another margin gets
    its own."""
    made = []
    real = baokit.models._Operators
    monkeypatch.setattr(baokit.models, "_Operators",
                        lambda u, reach: made.append((u, reach.radius, reach.margin)) or real(u, reach))
    baokit.models.operator_table.cache_clear()
    eta = close_universally(formula_library()["eta"].formula)  # depth 7
    radii = (15, 18)
    for margin, fixed, new in ((2, (0, 5), radii), (2, (0,), ()), (1, (0, 5), radii)):
        model = WindowModel(15, margin, fixed)
        before = len(made)
        report = eval_window(model, eta, radii)
        assert made[before:] == [(2 * r + 1, r, margin) for r in new]
        for radius in radii:
            sat = window_satisfaction(model, eta, radius)
            assert sat.bits == full_width_window(model, eta, radius), (margin, radius)
            assert report.by_radius[radius] == sat.is_full()
    assert len(made) == 4


def test_the_capacity_check_builds_no_space(monkeypatch):
    """eval_window checks the largest radius's space by its size, with the
    text TupleSpace raises, after the atoms are checked."""
    with pytest.raises(CapacityError) as want:
        TupleSpace(2 * 2000 + 1, 3)
    monkeypatch.setattr(TupleSpace, "__init__", lambda *args: pytest.fail("a space was built"))
    eta = formula_library()["eta"].formula
    with pytest.raises(CapacityError) as got:
        eval_window(WindowModel(500, 2, (0,)), eta)
    assert str(got.value) == str(want.value)
    with pytest.raises(PreconditionError):
        eval_window(WindowModel(500, 2, (0,)), Exists(0, Atom("R", (0,))))


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


def kept_tables(radii, margins):
    """The ranged operator table of each radius and margin, as kept."""
    return {(r, m): baokit.models.operator_table(2 * r + 1, _Reach(r, m))
            for r in radii for m in margins}


def test_kept_leaves_match_leaves_built_afresh():
    """Every leaf a window table keeps equals its order or diagonal built
    on a fresh space, and the orders match the value loop with no fixed
    point, whichever fixed sets and formulas were evaluated on it; each
    result on warm tables equals its result on cleared ones, eta's too,
    which the fixed sets flip between True and False."""
    baokit.models.operator_table.cache_clear()
    lib = formula_library()
    radii, margins = (15, 18), (1, 2)
    runs = [(name, fixed, margin) for name in ("ax", "eta")
            for fixed in ((), (0,), (0, 5)) for margin in margins]

    def evaluate(name, fixed, margin):
        return eval_window(WindowModel(15, margin, fixed), lib[name].formula, radii).by_radius

    warm = [evaluate(*run) for run in runs]
    for (radius, margin), table in kept_tables(radii, margins).items():
        assert table.leaves, (radius, margin)
        empty = WindowModel(radius, margin, ())
        for key, bits in table.leaves.items():
            kind, i, j, level = key
            space = TupleSpace(2 * radius + 1, level)
            if kind == "=":
                assert bits == diag(space, i, j).bits, key
            else:
                assert bits == strictly_below(space, i, j), key
                assert bits == relation_by_value_loop(space, empty, radius, i, j), key
    after = [evaluate("eta", (0,), margin) for margin in margins]  # after (0, 5)
    cold = []
    for run in runs:
        baokit.models.operator_table.cache_clear()
        cold.append(evaluate(*run))
    assert warm == cold
    assert after == [cold[runs.index(("eta", (0,), margin))] for margin in margins]
    assert [by[15] for by in cold[6:]] == [True, True, False, False, True, True]


def test_kept_leaves_are_bounded_and_pin_no_model():
    """A table keeps one leaf per order or diagonal and level, keyed by
    ints alone, whatever fixed sets are evaluated on it, and no model
    outlives its eval_window."""
    baokit.models.operator_table.cache_clear()
    ax = formula_library()["ax"].formula
    fixed_sets = [(c,) for c in range(-7, 8)] + [(c, c + 2) for c in range(-7, -2)]
    assert len(set(fixed_sets)) == 20
    counts = []
    for fixed in fixed_sets:
        model = WindowModel(8, 1, fixed)
        alive = weakref.ref(model)
        eval_window(model, ax, radii=(8,))
        del model
        gc.collect()
        assert alive() is None, fixed
        counts.append(len(kept_tables((8,), (1,))[8, 1].leaves))
    assert counts == [counts[0]] * 20
    leaves = kept_tables((8,), (1,))[8, 1].leaves
    assert all(type(part) in (str, int) for key in leaves for part in key)
    assert all(type(bits) is int for bits in leaves.values())


@pytest.mark.parametrize("fixed", [(), (0,), (0, 5)])
def test_a_verdict_read_at_the_plan_level_matches_the_whole_space(fixed):
    """eval_window reads a closed formula's value at its plan level; each
    verdict equals is_full() of the whole-space set, for every library
    formula whose atoms the order can read."""
    model, radii = WindowModel(11, 1, fixed), (11, 13)
    evaluated = 0
    for name, entry in formula_library().items():
        closed = close_universally(entry.formula)
        try:
            report = eval_window(model, closed, radii)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                window_satisfaction(model, closed, radii[0])
            continue
        evaluated += 1
        for radius in radii:
            sat = window_satisfaction(model, closed, radius)
            assert report.by_radius[radius] == sat.is_full(), (name, fixed, radius)
    assert evaluated == len(formula_library()) - 1  # all but lambda


def test_a_mixed_value_at_the_plan_level_is_refused(monkeypatch):
    """The mixed-set guard reads the plan-level value: a plan run whose
    closed value is neither 0 nor its level's top raises AssertionError."""
    import baokit.window

    real = baokit.window.plan_bits
    monkeypatch.setattr(baokit.window, "plan_bits",
                        lambda *args: (lambda bits, level: (bits ^ 1, level))(*real(*args)))
    for fixed in ((0,), (0, 5)):  # eta is false on the first and true on the second
        with pytest.raises(AssertionError, match="mixed satisfaction set"):
            eval_window(WindowModel(16, 2, fixed), formula_library()["eta"].formula)
