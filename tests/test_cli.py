import json
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from baokit import (
    FiniteAlgebra,
    SetAlgebra,
    atoms,
    compile_to_term,
    find_isomorphism,
    free_boolean_algebra,
    generate_subalgebra,
    is_hereditary_closed,
    parse_formula,
    restrict_formula,
)
import baokit.cli
import element_path
from baokit import BaokitError, CapacityError, InputError, parse_term
from baokit.algebras import product as direct_product
from baokit.cli import ExperimentReport, _decimal, _parse_gen, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_example_command(capsys):
    code, out = run_cli(capsys, "example", "--u", "3")
    assert code == 0
    assert "verdict: pass" in out


def test_example_json_deterministic(capsys):
    code, first = run_cli(capsys, "--json", "example", "--u", "2")
    assert code == 0
    code, second = run_cli(capsys, "--json", "example", "--u", "2")
    assert first == second
    payload = json.loads(first)
    assert payload["verdict"] == "pass"
    assert "elapsed" not in payload and "timing" not in payload


@pytest.mark.parametrize("u, digits", [(25, 4704), (30, 8128)])
def test_carrier_sizes_past_the_int_string_limit_convert_exactly(u, digits):
    """example's carrier size 2**(u**3) passes CPython's 4,300-digit limit
    on str() from u = 25; the conversion is checked chunk by chunk, each
    chunk far below that limit, without building the algebra."""
    n = 2 ** (u**3)
    text = _decimal(n)
    assert len(text) == digits and text.isdigit() and text[0] != "0"
    back = 0
    for k in range(0, len(text), 500):
        chunk = text[k:k + 500]
        back = back * 10 ** len(chunk) + int(chunk)
    assert back == n
    # within the limit, as for u <= 24, the text is str()'s
    for small in (0, 1, 10**602, 2**2000 - 1, 2**2000, 10**1500, 2 ** (24**3)):
        assert _decimal(small) == str(small)


def test_seeded_sweep_json_deterministic(capsys):
    argv = ["--json", "tau-sigma-delta", "--u", "3", "--samples", "40", "--seed", "7"]
    code, first = run_cli(capsys, *argv)
    assert code == 0
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_atoms_command_with_dump(tmp_path, capsys):
    dump = tmp_path / "algebra.txt"
    code, out = run_cli(
        capsys, "atoms", "--u", "2", "--n", "2", "--gens", "diag:0,1", "--dump", str(dump)
    )
    assert code == 0
    text = dump.read_text()
    assert text.startswith("baokit-algebra 1")
    back = FiniteAlgebra.deserialize(text)
    assert len(back.carrier) == 4
    assert back.serialize() == text


def test_a_refused_dump_leaves_the_file_as_it_was(tmp_path, capsys):
    # 512 elements are past the 256 that serialize writes
    dump = tmp_path / "algebra.txt"
    dump.write_text("kept\n")
    code = main(["atoms", "--u", "3", "--n", "2", "--kind", "CA", "--gens", "less:0,1",
                 "--dump", str(dump)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "capacity error: serialization supported up to 256 elements\n"
    assert dump.read_text() == "kept\n"


def test_check_identity_counterexamples_vary_variable_zero_fastest(capsys):
    code, out = run_cli(
        capsys, "--json", "check-identity", "--kind", "BA", "--u", "2", "--n", "1",
        "--lhs", "(var 0)", "--rhs", "(var 1)",
    )
    assert code == 1
    details = json.loads(out)["details"]
    assert details["exhaustive"] and details["cases"] == 4
    assert details["counterexamples"] == [
        {"0": "space:2,1:1", "1": "space:2,1:0"},
        {"0": "space:2,1:2", "1": "space:2,1:0"},
        {"0": "space:2,1:3", "1": "space:2,1:0"},
    ]


def test_check_identity_pass_and_fail(capsys):
    code, _ = run_cli(
        capsys,
        "check-identity",
        "--kind",
        "CA",
        "--u",
        "2",
        "--n",
        "2",
        "--lhs",
        "(cyl 0 (var 0))",
        "--rhs",
        "(cyl 0 (cyl 0 (var 0)))",
    )
    assert code == 0
    code, out = run_cli(
        capsys,
        "check-identity",
        "--kind",
        "CA",
        "--u",
        "2",
        "--n",
        "2",
        "--lhs",
        "(var 0)",
        "--rhs",
        "(not (var 0))",
    )
    assert code == 1
    assert "fail" in out


def test_window_surrogate_verdict(capsys):
    code, out = run_cli(capsys, "window", "--formula", "eta", "--fixed", "0", "--w", "16")
    assert code == 0
    assert "surrogate-pass" in out


def test_window_capacity_exit_code(capsys):
    code = main(["window", "--formula", "eta", "--fixed", "0", "--w", "200"])
    assert code == 2


def test_unknown_formula_usage_error(capsys):
    code = main(["window", "--formula", "nonsense"])
    assert code == 2
    assert capsys.readouterr().err == "usage error: unknown library formula 'nonsense'\n"


def test_margin_past_the_radius_names_its_cause(capsys):
    for argv, margin, radius in ((["--w", "1"], 2, 1), (["--margin", "100"], 100, 16)):
        err = run_usage_error(capsys, "window", *argv)
        assert err == f"usage error: margin {margin} leaves no room inside radius {radius}\n"


def test_translate_and_pairing_and_arith(capsys):
    for argv in (
        ["translate", "--rank", "2"],
        ["pairing", "--rank", "3"],
        ["free-ba", "--k", "2"],
        ["hereditary", "--u", "2", "--n", "2", "--trials", "4"],
        ["tau-sigma-delta", "--u", "2"],
        ["arith", "--max", "6"],
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        assert "verdict: pass" in out


def test_hereditary_past_the_carrier_budget_checks_every_trial(capsys):
    # each trial generates 27 atoms: it counts its closed elements from the
    # fixed atoms, without a carrier, unless it passes --cap
    argv = ["--json", "hereditary", "--u", "3", "--n", "3", "--kind", "SC", "--trials", "20"]
    code, out = run_cli(capsys, *argv, "--cap", "9" * 20)
    assert code == 0
    assert json.loads(out)["details"] == {"failures": [], "hereditarily_closed_cases": 20}
    code, out = run_cli(capsys, *argv, "--cap", "65536")
    assert code == 0
    assert json.loads(out)["details"]["hereditarily_closed_cases"] == 0


def hereditary_by_carrier_scan(kind, seed, closed=None, u=2, n=2, trials=12, cap=512) -> str:
    """The carrier scan that `hereditary` replaced, on the value-level path,
    kept as its oracle: `--json` of `hereditary` with these flags.  `closed`
    stands in for `is_hereditary_closed` when given."""
    rng = random.Random(seed)
    ambient = SetAlgebra(kind, u, n)
    values = element_path.FullDomain(ambient)
    closed = closed or element_path.is_hereditary_closed
    failures = []
    checked = 0
    for trial in range(trials):
        gen = ambient.random_element(rng)
        if gen.is_zero():
            continue
        try:
            algebra = element_path.generate_subalgebra(values, [gen], cap=min(cap, 1 << 16))
        except CapacityError:
            continue
        for b in algebra.carrier:
            if not closed(algebra, b):
                continue
            checked += 1
            inside = [a for a in algebra.atoms if algebra.le(a, b)]
            if len(inside) > 2:
                failures.append(f"trial {trial}: {len(inside)} atoms under {b.serialize()}")
    report = ExperimentReport(
        "hereditary",
        {"u": u, "n": n, "kind": kind, "trials": trials, "seed": seed},
        "pass" if not failures else "fail",
        {"hereditarily_closed_cases": checked, "failures": failures[:5]},
    )
    return report.to_json() + "\n"


@pytest.mark.parametrize("kind", ["DF", "SC", "CA"])
def test_hereditary_matches_the_carrier_scan(kind, capsys, monkeypatch):
    for seed in range(10):
        argv = ["--json", "hereditary", "--kind", kind, "--seed", str(seed)]
        assert run_cli(capsys, *argv) == (0, hereditary_by_carrier_scan(kind, seed))
    # A set algebra fixes no nonzero atom below its top, so no trial above
    # fails.  Calling every element closed makes every join of three or
    # more atoms a failure, which checks their order and the count.
    monkeypatch.setattr(baokit.cli, "is_hereditary_closed", lambda algebra, b: True)
    for seed in range(10):
        argv = ["--json", "hereditary", "--kind", kind, "--seed", str(seed)]
        want = hereditary_by_carrier_scan(kind, seed, closed=lambda algebra, b: True)
        assert run_cli(capsys, *argv) == (1 if "fail" in want else 0, want)


@pytest.mark.parametrize("kind", ["DF", "SC", "CA"])
def test_hereditary_passes_by_construction(kind, capsys):
    """An atom that every c_i fixes is cylindrical in every coordinate, so
    it is the top: on the set algebras `hereditary` builds, each trial has
    f <= 1 fixed atoms, counts 1 or 2 closed elements and cannot fail."""
    for u, n in ((2, 2), (3, 2), (2, 3)):
        for seed in range(10):
            rng = random.Random(seed)
            ambient = SetAlgebra(kind, u, n)
            trials = 0
            for _ in range(12):
                gen = ambient.random_element(rng)
                if gen.is_zero():
                    continue
                algebra = generate_subalgebra(ambient, [gen], cap=1 << 16)
                fixed = [a for a in atoms(algebra) if is_hereditary_closed(algebra, a)]
                assert all(a == ambient.one for a in fixed) and len(fixed) <= 1, (u, n, seed)
                trials += 1
            argv = ["--json", "hereditary", "--kind", kind, "--u", str(u), "--n", str(n),
                    "--seed", str(seed), "--cap", str(1 << 16)]
            code, out = run_cli(capsys, *argv)
            details = json.loads(out)["details"]
            assert code == 0 and details["failures"] == []
            assert trials <= details["hereditarily_closed_cases"] <= 2 * trials


GOLDEN = {  # output of the value-level path, before algebras computed on ints
    "atoms_u3_n3_ca_less01.json": ["atoms", "--u", "3", "--n", "3", "--kind", "CA",
                                   "--gens", "less:0,1", "--cap", "134217728"],
    "example_u5.json": ["example", "--u", "5"],
    "example_u10.json": ["example", "--u", "10"],
    "free_ba_k12.json": ["free-ba", "--k", "12"],
    "hereditary_DF.json": ["hereditary", "--kind", "DF"],
    "hereditary_SC.json": ["hereditary", "--kind", "SC"],
    "hereditary_CA.json": ["hereditary", "--kind", "CA"],
    # output of the full-width formula plan, before each step ran at its level
    "window.json": ["window"],
    "window_eta_fixed_0_5.json": ["window", "--formula", "eta", "--fixed", "0,5"],
    "window_w20.json": ["window", "--w", "20"],
    "window_phi_w30_margin1.json": ["window", "--formula", "phi", "--w", "30",
                                    "--margin", "1"],
    "window_psi_fixed_0_1_w30_margin1.json": ["window", "--formula", "psi", "--fixed", "0,1",
                                              "--w", "30", "--margin", "1"],
    "window_suc_w8.json": ["window", "--formula", "suc", "--w", "8"],
    "arith.json": ["arith"],
    "pairing.json": ["pairing"],
    "translate.json": ["translate"],
    "corpus_check.json": ["corpus-check"],
    # output before the order s_a < s_b with a > b grew from its own seed
    "atoms_u3_n3_ca_less10.json": ["atoms", "--u", "3", "--n", "3", "--kind", "CA",
                                   "--gens", "less:1,0", "--cap", "134217728"],
    "window_ax.json": ["window", "--formula", "ax"],
    # output before a relation was an Element of TupleSpace(u, 2): exhaustive,
    # sampled, and failing with counterexamples
    "check_identity_ra_u2.json": ["check-identity", "--kind", "RA", "--u", "2",
                                  "--lhs", "(conv (comp (var 0) (var 1)))",
                                  "--rhs", "(comp (conv (var 1)) (conv (var 0)))"],
    "check_identity_ra_u5.json": ["check-identity", "--kind", "RA", "--u", "5",
                                  "--lhs", "(conv (comp (var 0) (var 1)))",
                                  "--rhs", "(comp (conv (var 1)) (conv (var 0)))"],
    "check_identity_ra_u3_conv.json": ["check-identity", "--kind", "RA", "--u", "3",
                                       "--lhs", "(conv (var 0))", "--rhs", "(var 0)"],
}
GOLDEN_EXIT = {"window_suc_w8.json": 2,  # the margin budget: no output
               "check_identity_ra_u3_conv.json": 1}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_json_matches_the_golden_output(name, capsys):
    want = (Path(__file__).parent / "golden" / name).read_text()
    assert run_cli(capsys, "--json", *GOLDEN[name]) == (GOLDEN_EXIT.get(name, 0), want)


def test_corpus_check_shipped(capsys):
    code, out = run_cli(capsys, "corpus-check")
    assert code == 0
    assert "verdict: pass" in out


def test_corpus_check_empty_and_unrestricted(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    code, out = run_cli(capsys, "corpus-check", str(empty))
    assert code == 0
    assert "warning" in out
    unrestricted = tmp_path / "swapped.txt"
    unrestricted.write_text("swapped: E(v1,v0)\n")
    code, out = run_cli(capsys, "corpus-check", str(unrestricted), "--require-restricted")
    assert code == 1
    assert "not restricted: swapped" in out


def test_corpus_check_parse_failure_lists_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("fine: E(v0,v1)\nbroken: E(v0,\n")
    code, out = run_cli(capsys, "corpus-check", str(bad))
    assert code == 1
    assert "line 2" in out


def run_usage_error(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2, argv
    assert len(err.strip().splitlines()) == 1, err
    return err


def test_an_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    """Only input that does not parse is a usage error; a plain ValueError
    raised inside a subcommand reaches the caller, not exit code 2."""

    def broken(*args, **kwargs):
        raise ValueError("an internal fault")

    monkeypatch.setattr(baokit.cli, "identity_sweep", broken)
    with pytest.raises(ValueError, match="an internal fault"):
        main(["tau-sigma-delta"])
    assert capsys.readouterr().err == ""
    # input errors stay ValueErrors for library callers
    assert issubclass(InputError, ValueError) and issubclass(InputError, BaokitError)
    for bad in (lambda: parse_term("(var", SetAlgebra("CA", 2, 2).signature),
                lambda: _parse_gen("junk:1", SetAlgebra("CA", 2, 2))):
        with pytest.raises(InputError):
            bad()


def test_unclosed_term_is_usage_error(capsys):
    err = run_usage_error(capsys, "check-identity", "--lhs", "(var", "--rhs", "(var 0)")
    assert "at token 2" in err


def test_operator_without_argument_is_usage_error(capsys):
    err = run_usage_error(capsys, "check-identity", "--lhs", "(cyl 0)", "--rhs", "(var 0)")
    assert "cyl:0" in err


def test_missing_corpus_is_usage_error(capsys):
    err = run_usage_error(capsys, "corpus-check", "/nonexistent")
    assert "/nonexistent" in err


def test_a_corpus_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    corpus = tmp_path / "binary.txt"
    corpus.write_bytes(b"ok: E(v0,v1)\n\xff\n")
    expected = f"usage error: {corpus}: not UTF-8 text at byte 13\n"
    assert run_usage_error(capsys, "corpus-check", str(corpus)) == expected
    assert run_usage_error(capsys, "translate", "--corpus", str(corpus)) == expected


def test_deep_nesting_is_a_usage_error(tmp_path, capsys):
    parens = tmp_path / "parens.txt"
    parens.write_text("deep: " + "(" * 250 + "E(v0,v1)" + ")" * 250 + "\n")
    bangs = tmp_path / "bangs.txt"
    bangs.write_text("deep: " + "!" * 400 + "E(v0,v1)\n")
    ands = tmp_path / "ands.txt"  # a left-nested And 999 deep
    ands.write_text("deep: " + " & ".join(["E(v0,v1)"] * 1000) + "\n")
    arrows = tmp_path / "arrows.txt"  # a right-nested Implies 999 deep
    arrows.write_text("deep: " + " -> ".join(["E(v0,v1)"] * 1000) + "\n")
    for corpus in (parens, bangs, ands, arrows):
        err = run_usage_error(capsys, "translate", "--corpus", str(corpus))
        assert "line 1 (deep): nesting deeper than 100 levels" in err
        code, out = run_cli(capsys, "corpus-check", str(corpus))  # a parse failure
        assert code == 1 and "nesting deeper than 100 levels" in out
    lhs = "(not " * 1200 + "(var 0)" + ")" * 1200
    err = run_usage_error(capsys, "check-identity", "--lhs", lhs, "--rhs", "(var 0)")
    assert "nesting deeper than 100 levels" in err


def test_corpus_syntax_error_names_its_position_once(tmp_path, capsys):
    corpus = tmp_path / "bad.txt"
    corpus.write_text("fine: E(v0,v1)\nbad: E(v0,v1) &\n")
    err = run_usage_error(capsys, "translate", "--corpus", str(corpus))
    assert err == "usage error: line 2 (bad): unexpected token '' (at position 11)\n"
    code, out = run_cli(capsys, "--json", "corpus-check", str(corpus))
    assert code == 1
    assert json.loads(out)["details"]["parse_error"] == (
        "line 2 (bad): unexpected token '' (at position 11)"
    )


def test_atoms_past_sixteen_atoms(capsys):
    code, out = run_cli(capsys, "--json", "atoms", "--u", "3", "--n", "3", "--kind", "CA",
                        "--gens", "less:0,1", "--cap", str(2**27))
    assert code == 0
    details = json.loads(out)["details"]
    assert details["atom_count"] == 27 and details["carrier_size"] == 2**27
    assert details["every_nonzero_bounds_an_atom"] is True
    assert len(details["atoms"]) == 16


def test_free_ba_budget_checked_before_any_algebra(capsys, monkeypatch):
    import baokit.cli

    calls = []
    original = baokit.cli.free_boolean_algebra

    def counting(k):
        calls.append(k)
        return original(k)

    monkeypatch.setattr(baokit.cli, "free_boolean_algebra", counting)
    err = run_usage_error(capsys, "free-ba", "--k", "13")
    assert "capacity error" in err and "k <= 12" in err
    assert calls == []
    code, out = run_cli(capsys, "--json", "free-ba", "--k", "12")
    assert code == 0
    details = json.loads(out)["details"]
    assert details["k=12"] == f"size {2**4096}, atoms 4096"
    isos = {key: value for key, value in details.items() if key.startswith("iso")}
    assert isos == {f"iso_k{k + 1}_vs_k{k}_squared": True for k in range(1, 12)}


def test_free_ba_extension_check_matches_isomorphism_search(capsys):
    code, out = run_cli(capsys, "--json", "free-ba", "--k", "3")
    assert code == 0
    details = json.loads(out)["details"]
    for k in (1, 2):
        bigger, _ = free_boolean_algebra(k + 1)
        small, _ = free_boolean_algebra(k)
        found = find_isomorphism(bigger, direct_product(small, small))
        assert details[f"iso_k{k + 1}_vs_k{k}_squared"] == (found is not None)


def test_out_of_range_integers_rejected(capsys):
    for argv in (["arith", "--max", "-1"], ["free-ba", "--k", "-1"], ["atoms", "--u", "0"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert "below the minimum" in capsys.readouterr().err


def test_arith_max_is_checked_before_any_work(capsys, monkeypatch):
    import baokit.cli

    calls = []
    monkeypatch.setattr(baokit.cli, "sum_value", lambda *args: calls.append(args))
    monkeypatch.setattr(baokit.cli, "hf_universe", lambda *args: calls.append(args))
    err = run_usage_error(capsys, "arith", "--max", "9" * 20)
    top = baokit.cli.MAX_ARITH
    assert err == f"capacity error: arith checks instances up to --max {top}, not {'9' * 20}\n"
    assert calls == []
    for value in ("-1", "x"):
        with pytest.raises(SystemExit) as info:
            main(["arith", "--max", value])
        assert info.value.code == 2
        assert "--max" in capsys.readouterr().err.splitlines()[-1]


def test_window_capacity_checked_before_any_radius(capsys, monkeypatch):
    import baokit.window

    calls = []
    original = baokit.window.window_satisfaction

    def counting(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(baokit.window, "window_satisfaction", counting)
    code = main(["window", "--formula", "eta", "--fixed", "0", "--w", "32"])
    assert code == 2
    assert "capacity error" in capsys.readouterr().err
    assert calls == []


def test_example_has_no_cap_flag(capsys):
    code, out = run_cli(capsys, "--json", "example", "--u", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["parameters"] == {"u": 4}
    assert payload["details"]["atom_count"] == 64
    with pytest.raises(SystemExit):
        main(["example", "--cap", "10"])


@pytest.mark.parametrize("spec", [
    "diag:0,5", "diag:-1,0", "less:0,5", "less:-1,0", "less:5,0",
    "hex:10", "hex:fff1", "hex:-1", "hex:zz", "diag:0", "less:0,1,1", "cyl:0",
])
def test_malformed_generator_specs_are_usage_errors(capsys, spec):
    err = run_usage_error(capsys, "atoms", "--u", "2", "--n", "2", "--kind", "CA", "--gens", spec)
    assert spec in err


def test_generator_specs_at_the_edge_of_the_space(capsys):
    code, out = run_cli(capsys, "--json", "atoms", "--u", "2", "--n", "2", "--kind", "CA",
                        "--gens", "hex:f", "diag:1,1", "less:1,1", "less:1,0")
    assert code == 0
    assert json.loads(out)["details"]["carrier_size"] == 16  # every subset of 4 tuples


def test_less_generator_matches_tuple_scan():
    for u in range(1, 5):
        for n in range(1, 4):
            ambient = SetAlgebra("CA", u, n)
            for i, j in product(range(n), repeat=2):
                want = ambient.element([s for s in ambient.space.tuples() if s[i] < s[j]])
                assert _parse_gen(f"less:{i},{j}", ambient) == want, (u, n, i, j)


def test_long_biconditional_chain_is_checked_in_linear_time(tmp_path, capsys):
    corpus = tmp_path / "iffs.txt"
    corpus.write_text("iffs: " + " <-> ".join(["E(v0,v1)"] * 101) + "\n")
    code, out = run_cli(capsys, "--json", "corpus-check", str(corpus))
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    for n in (2, 17, 101):
        atoms = [("E(v0,v1)", "E(v1,v2)", "E(v2,v0)")[k % 3] for k in range(n)]
        formula = parse_formula(" <-> ".join(atoms))
        for kind, f in (("CA", restrict_formula(formula, 3)), ("SC", formula)):
            assert len(compile_to_term(f, kind, 3).term._layout.kinds) <= 10 * n


def test_corpus_symbols_outside_membership_are_usage_errors(tmp_path, capsys):
    corpus = tmp_path / "other.txt"
    for body, why in [("R(v0,v1,v2)", "unknown relation symbol 'R'"),
                      ("E(v0,v1) & E(v0)", "E expects 2 arguments")]:
        corpus.write_text(f"fine: E(v0,v1)\nother: {body}\n")
        for argv in (["translate", "--corpus", str(corpus)], ["corpus-check", str(corpus)]):
            err = run_usage_error(capsys, *argv)
            assert err == f"usage error: line 2 (other): {why}\n"


def test_sampled_assignments_past_the_budget_are_a_capacity_error(capsys):
    err = run_usage_error(capsys, "check-identity", "--lhs", "(var 4194304)", "--rhs", "(var 0)",
                          "--samples", "1")
    assert err == "capacity error: an assignment of 4194305 variables passes 16777216 bits\n"


_TERM_LEAVES = ["(var 0)", "(var 1)", "(var 3)", "(var -1)", "(var 4194304)",
                "(var 10000000000000000000000)", "zero", "one", "id", "(diag 0 1)", "(diag 0 9)",
                "(diag -1 0)"]
_TERM_OPS = ["and", "or", "not", "impl", "cyl 0", "cyl 7", "cyl -1", "subst 0 1", "subst 1 1",
             "disc", "comp", "conv", "nope"]
_FORMULA_LEAVES = ["E(v0,v1)", "E(v1,v0)", "E(v2,v2)", "E(v0,v9)", "E(v0)", "E(v0,v1,v2)",
                   "R(v0,v1)", "E(v99999999999999999999999,v0)", "v0 = v1", "v0 != v2", "v3 = v0"]
_FORMULA_OPS = ["!", "ex v0 ", "all v1 ", "ex v9 ", " & ", " | ", " -> ", " <-> "]
_JUNK = ["(", ")", "))", "(var", "(var x)", "(cyl", "junk", "9" * 5000, "E(", "v", ",", "=",
         "ex", "&", "#", "!"]


@st.composite
def fuzzed_text(draw, language):
    """A random term or formula built from in- and out-of-range pieces,
    perhaps with a junk token spliced in, perhaps nested or chained deep."""
    term = language == "term"
    pool = [draw(st.sampled_from(_TERM_LEAVES if term else _FORMULA_LEAVES))]
    for _ in range(draw(st.integers(0, 6))):
        op = draw(st.sampled_from(_TERM_OPS if term else _FORMULA_OPS))
        if term:
            args = draw(st.lists(st.sampled_from(pool), max_size=3))
            pool.append(f"({op} {' '.join(args)})")
        elif op.strip() in ("&", "|", "->", "<->"):
            pool.append(f"({draw(st.sampled_from(pool))}{op}{draw(st.sampled_from(pool))})")
        else:
            pool.append(op + draw(st.sampled_from(pool)))
    core = pool[-1]
    if draw(st.integers(0, 2)) == 0:
        cut = draw(st.integers(0, len(core)))
        core = f"{core[:cut]} {draw(st.sampled_from(_JUNK))} {core[cut:]}"
    depth = draw(st.sampled_from([0, 0, 1, 2, 99, 100, 101, 250]))
    if term:
        if draw(st.booleans()):
            return "(not " * depth + core + ")" * depth
        return "(and " * depth + core + (" " + core + ")") * depth
    if draw(st.booleans()):
        left, right = draw(st.sampled_from([("!", ""), ("(", ")"), ("ex v0 ", "")]))
        return left * depth + core + right * depth
    return draw(st.sampled_from([" & ", " -> ", " <-> "])).join([core] * (depth + 1))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzzed_terms_and_formulas_keep_the_exit_code_contract(tmp_path, capsys, data):
    command = data.draw(st.sampled_from(["check-identity", "translate", "corpus-check"]))
    if command == "check-identity":
        kind = data.draw(st.sampled_from(["BA", "DF", "SC", "CA", "RA"]))
        argv = ["check-identity", "--kind", kind, "--u", "2", "--n", "2", "--samples", "5",
                "--lhs=" + data.draw(fuzzed_text("term")),
                "--rhs=" + data.draw(fuzzed_text("term"))]
    else:
        corpus = tmp_path / "fuzz.txt"
        corpus.write_text("fuzz: " + data.draw(fuzzed_text("formula")) + "\n")
        argv = (["translate", "--rank", "2", "--corpus", str(corpus)]
                if command == "translate" else ["corpus-check", str(corpus)])
    code = main(["--json", *argv])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert len(err.strip().splitlines()) == 1, err


_BIG = "9" * 20
_CLI_FLAGS = {  # subcommand -> flag -> values in and out of range, and malformed
    "atoms": {"u": ["1", "2", "3", "0", "-1", "x", _BIG], "n": ["1", "2", "3", "0", "x", _BIG],
              "cap": ["1", "8", "4096", "0", "x", _BIG], "kind": ["BA", "SC", "CA", "RA"],
              "gens": ["diag:0,1", "less:0,1", "less:1,0", "diag:0,7", "less:-1,0", "hex:f",
                       "hex:zz", "hex:-1", "hex:" + "f" * 40, "less:a", "diag:0", "", "junk:1"]},
    "window": {"w": ["1", "2", "3", "4", "8", "0", "-2", "x", _BIG],
               "margin": ["1", "2", "3", "100", "0", "x", _BIG],
               "fixed": ["0", "0,1", "-1,1", "7", "-99", "x", "", "0,,1", _BIG],
               "formula": ["ax", "eta", "phi", "psi", "suc", "ord", "nope", ""]},
    "free-ba": {"k": ["0", "1", "2", "5", "13", "-1", "x", _BIG]},
    "example": {"u": ["2", "3", "4", "1", "0", "x", _BIG]},
    "hereditary": {"u": ["1", "2", "3", "0", "x", _BIG], "n": ["1", "2", "3", "0", _BIG],
                   "kind": ["DF", "SC", "CA", "BA"], "trials": ["1", "3", "0", "x"],
                   "seed": ["0", "5", "-1", "x", _BIG], "cap": ["1", "64", "0", "x", _BIG]},
    "pairing": {"rank": ["1", "2", "3", "4", "0", "x", _BIG]},
    "tau-sigma-delta": {"u": ["1", "2", "3", "0", "x", _BIG], "samples": ["1", "10", "0", "x"],
                        "seed": ["0", "7", "-1", "x", _BIG]},
    # no u that builds a large relation and then samples it
    "check-identity": {"kind": ["BA", "CA", "RA"], "u": ["1", "2", "3", "0", "x", "4097", _BIG],
                       "samples": ["1", "5", "0", "x"]},
}


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzzed_flags_and_paths_keep_the_exit_code_contract(tmp_path, capsys, data):
    """Random values of the numeric, choice and path flags; huge --trials
    and --samples are left out, since they ask for that many runs."""
    (tmp_path / "file.txt").write_text("")
    (tmp_path / "binary.txt").write_bytes(b"\xff")
    paths = [tmp_path / "missing" / "out.txt", tmp_path, tmp_path / "file.txt" / "out.txt",
             tmp_path / "binary.txt"]
    command = data.draw(st.sampled_from([*_CLI_FLAGS, "translate", "corpus-check"]))
    argv = [command]
    for flag, values in _CLI_FLAGS.get(command, {}).items():
        if data.draw(st.booleans()):
            argv.append(f"--{flag}={data.draw(st.sampled_from(values))}")
    if command == "translate":
        argv += ["--rank=1", f"--corpus={data.draw(st.sampled_from(paths))}"]
    elif command == "corpus-check":
        argv.append(str(data.draw(st.sampled_from(paths))))
    elif command == "check-identity":
        argv.append(f"--lhs={data.draw(st.sampled_from(['(var 0)', '(conv (var 1))']))}")
        argv.append(f"--rhs={data.draw(st.sampled_from(['(not (not (var 0)))', '(cyl 0 (var 0))']))}")
    elif command == "atoms" and data.draw(st.booleans()):
        argv.append(f"--dump={data.draw(st.sampled_from(paths + [tmp_path / 'out.txt']))}")
    try:
        code = main(["--json", *argv])
    except SystemExit as exc:  # argparse: usage lines, then one error line
        code = exc.code
        assert capsys.readouterr().err.splitlines()[-1].startswith(f"baokit {command}: error:")
    else:
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 2:
            assert len(err.strip().splitlines()) == 1, (argv, err)
    assert code in (0, 1, 2), argv
