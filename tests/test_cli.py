"""End-to-end tests of the command-line interface.

Everything goes through ``main(argv)`` so exit codes are the returned
ints and output is captured with capsys.
"""

import json
import random
import re
import time

import pytest

from inpk import cli
from inpk.cli import main
from inpk.formula import Atom, Imp, Neg, complexity, iter_neg, parse, render
from inpk.kalmar import complete_prove
from inpk.proofs import check, proof_from_json, proof_to_json
from inpk.semantics import LogicParams, is_tautology


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# -- parse -------------------------------------------------------------


def test_parse_prints_primitive_form(capsys):
    rc, out, _ = run(capsys, "parse", "p || q")
    assert rc == 0
    assert out.strip() == "!p -> q"


def test_parse_json(capsys):
    rc, out, _ = run(capsys, "--json", "parse", "p && q")
    assert rc == 0
    doc = json.loads(out)
    assert parse(doc["formula"]) is parse("p && q")


def test_parse_syntax_error_is_usage_exit(capsys):
    rc, _, err = run(capsys, "parse", "p ->")
    assert rc == 2
    assert "syntax error" in err


# -- table -------------------------------------------------------------


def test_table_json_shape(capsys):
    rc, out, _ = run(
        capsys, "--json", "table", "--n", "1", "--k", "0", "--connective", "imp"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["values"] == ["F0", "F1", "T0"]
    # row F0 (non-designated antecedent): always T0
    assert doc["entries"][0] == ["T0", "T0", "T0"]
    # row T0: designated antecedent, output tracks consequent designation
    assert doc["entries"][2] == ["F0", "F0", "T0"]


def test_table_text_has_all_values(capsys):
    rc, out, _ = run(capsys, "table", "--n", "0", "--k", "1", "--connective", "neg")
    assert rc == 0
    for v in ("F0", "T0", "T1"):
        assert v in out


def test_table_unknown_connective_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "0", "--k", "0", "--connective", "xor"])
    assert exc.value.code == 2


# -- eval --------------------------------------------------------------


def test_eval_value(capsys):
    rc, out, _ = run(
        capsys, "eval", "--n", "1", "--k", "0", "--val", "p=F1", "!p"
    )
    assert rc == 0
    assert out.strip() == "F0"


def test_eval_two_atoms(capsys):
    rc, out, _ = run(
        capsys,
        "eval", "--n", "1", "--k", "1", "--val", "p=T1, q=F0", "p -> q",
    )
    assert rc == 0
    assert out.strip() == "F0"


def test_eval_missing_atom_is_usage_error(capsys):
    rc, _, err = run(capsys, "eval", "--n", "0", "--k", "0", "--val", "p=T0", "q")
    assert rc == 2
    assert "q" in err


def test_eval_names_the_leftmost_unbound_atom(capsys):
    rc, _, err = run(capsys, "eval", "--n", "0", "--k", "0", "--val", "", "p -> q")
    assert rc == 2
    assert "unbound atom 'p'" in err


def test_eval_value_out_of_range_is_usage_error(capsys):
    rc, _, err = run(capsys, "eval", "--n", "0", "--k", "0", "--val", "p=F3", "p")
    assert rc == 2


# -- taut / entails ----------------------------------------------------


def test_taut_counterexample_exact_output(capsys):
    rc, out, _ = run(capsys, "taut", "--n", "1", "--k", "0", "!p | p")
    assert rc == 1
    assert out.strip() == "counterexample: p=F1"


def test_taut_valid(capsys):
    rc, out, _ = run(capsys, "taut", "--n", "2", "--k", "2", "p -> p")
    assert rc == 0
    assert out.strip() == "valid"


def test_taut_json_counterexample(capsys):
    rc, out, _ = run(capsys, "--json", "taut", "--n", "1", "--k", "0", "!p | p")
    assert rc == 1
    doc = json.loads(out)
    assert doc == {"valid": False, "counterexample": {"p": "F1"}}


def test_entails_with_hypotheses(capsys):
    rc, out, _ = run(
        capsys,
        "entails", "--n", "1", "--k", "1",
        "--hyp", "p -> q", "--hyp", "p", "q",
    )
    assert rc == 0
    assert out.strip() == "valid"


def test_entails_failure_reports_counterexample(capsys):
    rc, out, _ = run(
        capsys, "entails", "--n", "0", "--k", "0", "--hyp", "p", "q"
    )
    assert rc == 1
    assert out.startswith("counterexample: ")


def test_param_capacity_error(capsys):
    rc, _, err = run(capsys, "taut", "--n", "17", "--k", "0", "p")
    assert rc == 2
    assert "capped" in err


def test_negative_param_is_usage_error(capsys):
    rc, _, err = run(capsys, "taut", "--n", "-1", "--k", "0", "p")
    assert rc == 2


def test_taut_over_valuation_budget_is_capacity_error(capsys):
    start = time.perf_counter()
    rc, _, err = run(
        capsys, "taut", "--n", "16", "--k", "16",
        "a -> b -> c -> d -> e -> f -> g -> h -> a",
    )
    assert time.perf_counter() - start < 1
    assert rc == 2
    assert "valuations" in err


def _deep_tautology(leaves: int) -> Imp:
    """a -> (b -> a) for random a, b over !^16 of five atoms: every grade
    at (16,16) counts, so the decision goes through 34^5 valuations."""
    rng = random.Random(0)

    def grow(size):
        if size <= 1:
            return iter_neg(16, Atom(rng.choice("abcde")))
        if rng.random() < 0.2:
            return Neg(grow(size - 1))
        cut = rng.randint(1, size - 1)
        return Imp(grow(cut), grow(size - cut))

    a = grow(leaves)
    return Imp(a, Imp(grow(leaves), a))


def test_decision_step_budget_refuses_long_deep_queries(capsys):
    # 34^5 valuations, under the valuation budget, but 30 KB of text
    f = _deep_tautology(600)
    text = render(f)
    assert 30_000 < len(text) < 32_000
    for argv in (
        ["taut", text],
        ["entails", "--hyp", "a", text],
        ["prove", text],
    ):
        start = time.perf_counter()
        rc, out, err = run(capsys, argv[0], "--n", "16", "--k", "16", *argv[1:])
        assert time.perf_counter() - start < 1
        assert (rc, out) == (2, "")
        assert "decision steps, over the budget" in err

    # the same shape at about 1000 connectives still decides
    f = _deep_tautology(25)
    assert 900 < complexity(f) < 1100
    rc, out, err = run(capsys, "taut", "--n", "16", "--k", "16", render(f))
    assert (rc, out.strip(), err) == (0, "valid", "")


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli._parser() is cli._parser()
    rc, out, _ = run(capsys, "entails", "--n", "0", "--k", "0", "--hyp", "q", "q")
    assert (rc, out.strip()) == (0, "valid")
    # the --hyp list of the call before does not carry over
    rc, out, _ = run(capsys, "entails", "--n", "0", "--k", "0", "q")
    assert rc == 1
    assert out.startswith("counterexample: ")


def test_entails_budget_counts_atoms_of_hypotheses_and_goal(capsys):
    rc, _, err = run(
        capsys, "entails", "--n", "16", "--k", "16",
        "--hyp", "a -> b -> c", "--hyp", "d -> e", "f -> g -> a",
    )
    assert rc == 2
    assert "7 atoms" in err

    # shared atoms count once: 34^2 valuations
    rc, out, _ = run(
        capsys, "entails", "--n", "16", "--k", "16", "--hyp", "a -> b", "b -> a"
    )
    assert rc == 1
    assert out.startswith("counterexample: ")


# -- compare -----------------------------------------------------------


def test_compare_incomparable(capsys):
    rc, out, _ = run(capsys, "compare", "1", "0", "0", "1")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "incomparable"
    # separable in both directions, so two witnesses
    assert len(lines) == 3
    assert all(ln.startswith("witness: ") for ln in lines[1:])


def test_compare_below_with_verified_witness(capsys):
    rc, out, _ = run(capsys, "--json", "compare", "2", "1", "1", "0")
    assert rc == 0
    doc = json.loads(out)
    assert doc["order"] == "below"
    assert len(doc["witnesses"]) == 1
    w = doc["witnesses"][0]
    f = parse(w["formula"])
    assert bool(is_tautology(LogicParams(*w["valid_in"]), f))
    assert not is_tautology(LogicParams(*w["refuted_in"]), f)


def test_compare_equal_has_no_witness(capsys):
    rc, out, _ = run(capsys, "compare", "1", "1", "1", "1")
    assert rc == 0
    assert out.strip() == "equal"


def test_compare_above(capsys):
    rc, out, _ = run(capsys, "compare", "0", "0", "2", "1")
    assert rc == 0
    assert out.strip().splitlines()[0] == "above"


# -- prove / check pipeline --------------------------------------------


def test_prove_check_roundtrip(tmp_path, capsys):
    path = tmp_path / "proof.json"
    rc, out, _ = run(
        capsys, "prove", "--n", "0", "--k", "0", "p -> p", "-o", str(path)
    )
    assert rc == 0
    assert str(path) in out

    rc, out, _ = run(capsys, "check", str(path))
    assert rc == 0
    assert out.strip() == "accepted"

    pf = proof_from_json(path.read_text())
    assert pf.conclusion is parse("p -> p")


def test_prove_json_stdout_is_a_checking_proof(capsys):
    rc, out, _ = run(capsys, "--json", "prove", "--n", "0", "--k", "1", "~p | p")
    assert rc == 0
    pf = proof_from_json(out)
    assert check(pf)
    assert pf.conclusion is parse("~p | p")
    assert pf.hypotheses == ()


def test_prove_non_tautology_counterexample(capsys):
    rc, out, _ = run(capsys, "prove", "--n", "1", "--k", "0", "!p | p")
    assert rc == 1
    assert out.strip() == "counterexample: p=F1"


def test_prove_over_valuation_budget_is_capacity_error(capsys):
    start = time.perf_counter()
    rc, _, err = run(
        capsys, "prove", "--n", "16", "--k", "16",
        "a -> b -> c -> d -> e -> f -> g -> h -> a",
    )
    assert time.perf_counter() - start < 1
    assert rc == 2
    assert "valuations" in err


def test_prove_text_listing_without_output_file(capsys):
    rc, out, _ = run(capsys, "prove", "--n", "0", "--k", "0", "p -> p")
    assert rc == 0
    assert out.startswith("logic: (0,0)\nlemma 1:\n  1. ")
    listing = out.splitlines()
    # the lemma table, indented, then the main lines, which cite it
    main_lines = [ln for ln in listing if ln[:1].isdigit()]
    assert main_lines[0].startswith("1. ")
    assert main_lines[-1].startswith(f"{len(main_lines)}. p -> p   [")
    assert any(re.search(r"   \[lemma \d+ {phi := ", ln) for ln in main_lines)
    assert len(main_lines) + sum(ln.startswith("lemma ") for ln in listing) < len(
        listing
    )


def test_prove_builds_the_json_document_only_for_json_output(capsys, monkeypatch):
    built = []

    def spy(pf):
        built.append(pf)
        return proof_to_json(pf)

    monkeypatch.setattr(cli, "proof_to_json", spy)
    rc, out, _ = run(capsys, "prove", "--n", "0", "--k", "0", "p -> p")
    assert rc == 0 and out.startswith("logic: (0,0)") and not built
    rc, out, _ = run(capsys, "--json", "prove", "--n", "0", "--k", "0", "p -> p")
    assert rc == 0 and json.loads(out) == proof_to_json(built[0])


def test_check_tampered_proof_rejected(tmp_path, capsys):
    path = tmp_path / "proof.json"
    rc, _, _ = run(
        capsys, "prove", "--n", "0", "--k", "0", "p -> p", "-o", str(path)
    )
    assert rc == 0
    doc = json.loads(path.read_text())
    doc["lines"][-1]["formula"] = "p -> q"
    path.write_text(json.dumps(doc))

    rc, out, _ = run(capsys, "check", str(path))
    assert rc == 1
    assert out.startswith("rejected line ")


def test_check_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    rc, _, err = run(capsys, "check", str(path))
    assert rc == 2
    assert "bad proof file" in err


def test_deeply_nested_formula_through_the_cli(tmp_path, capsys):
    f = Atom("p")
    for _ in range(3000):
        f = Imp(f, Atom("q"))
    text = render(f)
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "logic": {"n": 1, "k": 1},
        "hypotheses": [text],
        "lines": [{"formula": text, "just": {"kind": "hyp", "index": 0}}],
    }))

    rc, out, err = run(capsys, "parse", text)
    assert (rc, out.strip(), err) == (0, text, "")

    rc, out, err = run(capsys, "--json", "check", str(path))
    assert (rc, json.loads(out), err) == (0, {"accepted": True}, "")

    rc, out, err = run(capsys, "--json", "taut", "--n", "1", "--k", "1", text)
    assert rc == 1
    assert json.loads(out)["valid"] is False
    assert err == ""


def test_check_missing_file_is_usage_error(capsys):
    rc, _, err = run(capsys, "check", "/no/such/file.json")
    assert rc == 2


# -- dt ----------------------------------------------------------------


def _hyp_proof_doc():
    return {
        "logic": {"n": 1, "k": 1},
        "hypotheses": ["p"],
        "lines": [{"formula": "p", "just": {"kind": "hyp", "index": 0}}],
    }


def test_dt_discharges_hypothesis(tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(_hyp_proof_doc()))
    dst = tmp_path / "out.json"
    rc, _, _ = run(capsys, "dt", str(src), "--discharge", "0", "-o", str(dst))
    assert rc == 0
    pf = proof_from_json(dst.read_text())
    assert pf.conclusion is parse("p -> p")
    assert pf.hypotheses == ()
    assert check(pf)


def test_dt_bad_index_is_usage_error(tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(_hyp_proof_doc()))
    rc, _, err = run(capsys, "dt", str(src), "--discharge", "3")
    assert rc == 2
    assert "out of range" in err


def test_dt_rejects_broken_input_proof(tmp_path, capsys):
    doc = _hyp_proof_doc()
    doc["lines"][0]["formula"] = "q"  # does not match the hypothesis
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "dt", str(src), "--discharge", "0")
    assert rc == 1
    assert "does not check" in out


# -- -o ----------------------------------------------------------------


def _writing(tmp_path, command):
    """argv of a prove or dt run, up to its -o value."""
    if command == "prove":
        return ["prove", "--n", "0", "--k", "0", "p -> p"]
    src = tmp_path / "in.json"
    src.write_text(json.dumps(_hyp_proof_doc()))
    return ["dt", str(src), "--discharge", "0"]


@pytest.mark.parametrize("command", ["prove", "dt"])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, command, where):
    target = tmp_path
    if where == "missing directory":
        target = tmp_path / "missing" / "x.json"
    rc, out, err = run(capsys, *_writing(tmp_path, command), "-o", str(target))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["prove", "dt"])
def test_a_failed_write_leaves_the_output_file_as_it_was(
    tmp_path, capsys, monkeypatch, command
):
    def broken(pf):
        raise RuntimeError("writer failed")

    argv = _writing(tmp_path, command)
    path = tmp_path / "out.json"
    path.write_bytes(b'{"kept": true}\n')
    monkeypatch.setattr(cli, "proof_to_json", broken)
    with pytest.raises(RuntimeError, match="writer failed"):
        main([*argv, "-o", str(path)])
    assert path.read_bytes() == b'{"kept": true}\n'


def test_prove_two_atoms_at_the_top_of_the_hierarchy(tmp_path, capsys):
    path = tmp_path / "proof.json"
    start = time.perf_counter()
    rc, out, _ = run(
        capsys, "prove", "--n", "16", "--k", "16", "a -> b -> a", "-o", str(path)
    )
    assert time.perf_counter() - start < 5
    assert rc == 0
    # the file is the library's proof, which checks (reading the 29 MB
    # file back would take longer than proving)
    pf = complete_prove(LogicParams(16, 16), parse("a -> b -> a"))
    assert json.loads(path.read_text()) == proof_to_json(pf)
    assert out.strip() == f"{len(pf)} lines -> {path}"
    assert check(pf)


def test_prove_over_synthesis_budget_is_capacity_error(capsys):
    # 34^4 cases to synthesize, though far under the valuation budget
    start = time.perf_counter()
    rc, out, err = run(
        capsys, "prove", "--n", "16", "--k", "16", "a -> b -> c -> d -> a"
    )
    assert time.perf_counter() - start < 1
    assert rc == 2
    assert out == ""
    assert "1336336 cases" in err


def test_prove_deeply_nested_formula(tmp_path, capsys):
    # deeper than the recursion limit allowed before; every line spells out
    # its formula, so the file grows with the square of the depth
    f = Atom("p")
    for _ in range(600):
        f = Imp(Atom("p"), f)
    path = tmp_path / "proof.json"
    rc, out, err = run(
        capsys, "prove", "--n", "0", "--k", "0", render(f), "-o", str(path)
    )
    assert rc == 0 and err == ""
    doc = json.loads(path.read_text())
    assert out.strip() == f"{len(doc['lines'])} lines -> {path}"
    assert doc["lines"][-1]["formula"] == render(f)
