import json
from itertools import product

import pytest

from baokit import SetAlgebra
from baokit.cli import _parse_gen, main


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
    from baokit import FiniteAlgebra

    assert len(FiniteAlgebra.deserialize(text).carrier) == 4


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


def test_unclosed_term_is_usage_error(capsys):
    err = run_usage_error(capsys, "check-identity", "--lhs", "(var", "--rhs", "(var 0)")
    assert "at token 2" in err


def test_operator_without_argument_is_usage_error(capsys):
    err = run_usage_error(capsys, "check-identity", "--lhs", "(cyl 0)", "--rhs", "(var 0)")
    assert "cyl:0" in err


def test_missing_corpus_is_usage_error(capsys):
    err = run_usage_error(capsys, "corpus-check", "/nonexistent")
    assert "/nonexistent" in err


def test_deep_nesting_is_a_usage_error(tmp_path, capsys):
    parens = tmp_path / "parens.txt"
    parens.write_text("deep: " + "(" * 250 + "E(v0,v1)" + ")" * 250 + "\n")
    bangs = tmp_path / "bangs.txt"
    bangs.write_text("deep: " + "!" * 400 + "E(v0,v1)\n")
    for corpus in (parens, bangs):
        err = run_usage_error(capsys, "translate", "--corpus", str(corpus))
        assert "line 1 (deep): nesting deeper than 100 levels" in err
        code, out = run_cli(capsys, "corpus-check", str(corpus))  # a parse failure
        assert code == 1 and "nesting deeper than 100 levels" in out
    lhs = "(not " * 1200 + "(var 0)" + ")" * 1200
    err = run_usage_error(capsys, "check-identity", "--lhs", lhs, "--rhs", "(var 0)")
    assert "nesting deeper than 100 levels" in err


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


def test_out_of_range_integers_rejected(capsys):
    for argv in (["arith", "--max", "-1"], ["free-ba", "--k", "-1"], ["atoms", "--u", "0"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert "below the minimum" in capsys.readouterr().err


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
