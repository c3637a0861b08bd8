"""Proof objects, axiom matching, checking, and transformers."""

import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import inpk.formula as formula_module
from inpk.formula import Atom, Imp, Neg, circ, iter_neg, parse, star
from inpk.proofs import (
    AXIOM_IDS,
    Axiom,
    CheckVerdict,
    Hyp,
    Lemma,
    MP,
    Proof,
    ProofBuilder,
    ProofFormatError,
    ProofLine,
    axiom_metavariables,
    axiom_pattern,
    axiom_node,
    axiom_proof,
    check,
    cut,
    deduction_transform,
    discharge,
    hyp_node,
    instantiate,
    lemma_node,
    linearize,
    match_axiom,
    mp_node,
    node_of,
    proof_from_json,
    proof_to_json,
    prune,
    replace_hyp_with_theorem,
    rule_perm,
    rule_red,
    rule_trans,
    substitute,
    substitute_proof,
    weaken,
)
from inpk.semantics import LogicParams, entails, is_tautology

from helpers import random_formula, random_proof, random_subst

P00 = LogicParams(0, 0)
P10 = LogicParams(1, 0)
P11 = LogicParams(1, 1)

p, q, r = Atom("p"), Atom("q"), Atom("r")


def refl_proof(params, f):
    b = ProofBuilder(params)
    ff = Imp(f, f)
    a2 = b.axiom("Ax2", {"phi": f, "psi": ff, "theta": f})
    a1 = b.axiom("Ax1", {"phi": f, "psi": ff})
    step = b.mp(a2, a1)
    a1b = b.axiom("Ax1", {"phi": f, "psi": f})
    return b.build(b.mp(step, a1b))


# --- axiom schemas and matching ---


def test_pattern_ax1_shape():
    pat = axiom_pattern("Ax1", P00)
    assert pat is Imp(Atom("phi"), Imp(Atom("psi"), Atom("phi")))


def test_pattern_ax5_tracks_n():
    assert axiom_pattern("Ax5", P00) is star(Atom("phi"))
    assert axiom_pattern("Ax5", P10) is star(Neg(Atom("phi")))
    assert axiom_pattern("Ax6", P10) is circ(Atom("phi"))
    assert axiom_pattern("Ax6", LogicParams(0, 2)) is circ(Neg(Neg(Atom("phi"))))


def test_unknown_schema_rejected():
    with pytest.raises(ValueError):
        axiom_pattern("Ax13", P00)
    with pytest.raises(ValueError):
        axiom_metavariables("Bx1")


def test_match_ax1_example():
    got = match_axiom(parse("p -> (q -> p)"), "Ax1", P00)
    assert got == {"phi": p, "psi": q}


def test_match_ax5_example():
    got = match_axiom(star(Neg(p)), "Ax5", P10)
    assert got == {"phi": p}


def test_match_rejects_inconsistent_slots():
    assert match_axiom(parse("p -> p"), "Ax1", P00) is None
    # phi bound to p, then met as q
    assert match_axiom(parse("p -> q -> q"), "Ax1", P00) is None
    # Ax10 ends in !!phi, which r is not
    assert match_axiom(parse("p -> q -> r"), "Ax10", P00) is None


def test_match_is_left_inverse_of_substitution():
    rng = random.Random(7)
    for schema in AXIOM_IDS:
        metavars = axiom_metavariables(schema)
        for params in (P00, P10, P11):
            pat = axiom_pattern(schema, params)
            for _ in range(10):
                subst = random_subst(rng, metavars, ["p", "q", "r"], 3)
                inst = substitute(pat, subst)
                assert match_axiom(inst, schema, params) == subst


def test_axiom_instances_are_tautologies_small():
    rng = random.Random(11)
    for params in (P00, P10, LogicParams(0, 1), P11):
        for schema in AXIOM_IDS:
            pat = axiom_pattern(schema, params)
            for _ in range(5):
                subst = random_subst(rng, axiom_metavariables(schema), ["p", "q"], 2)
                assert is_tautology(params, substitute(pat, subst))


# --- checking ---


def test_refl_proof_accepted_and_shaped():
    pf = refl_proof(P00, p)
    assert len(pf) == 5
    assert pf.conclusion is Imp(p, p)
    assert check(pf)
    assert str(check(pf)) == "accepted"


def test_check_manual_line_list():
    f = Imp(p, Imp(q, p))
    pf = Proof(P00, (), (ProofLine(f, Axiom("Ax1", {"phi": p, "psi": q})),))
    assert check(pf)


def test_check_rejects_empty():
    v = check(Proof(P00, (), ()))
    assert not v and v.line is None


def test_check_rejects_forward_reference():
    lines = (
        ProofLine(q, MP(1, 2)),
        ProofLine(Imp(p, q), Hyp(0)),
        ProofLine(p, Hyp(1)),
    )
    v = check(Proof(P00, (Imp(p, q), p), lines))
    assert not v
    assert v.line == 1
    assert "earlier" in v.reason


def test_check_rejects_substitution_mismatch():
    f = Imp(q, Imp(p, q))
    pf = Proof(P00, (), (ProofLine(f, Axiom("Ax1", {"phi": p, "psi": q})),))
    v = check(pf)
    assert not v and v.line == 1 and "Ax1" in v.reason


def test_check_rejects_missing_and_unused_bindings():
    f = Imp(p, Imp(q, p))
    missing = Proof(P00, (), (ProofLine(f, Axiom("Ax1", {"phi": p})),))
    assert "does not bind" in check(missing).reason
    extra = Proof(
        P00,
        (),
        (ProofLine(f, Axiom("Ax1", {"phi": p, "psi": q, "theta": r})),),
    )
    assert "unused" in check(extra).reason


@pytest.mark.parametrize("bad", ["p", None])
def test_check_rejects_a_binding_to_a_non_formula(bad):
    # a hand-built line is judged, not crashed on
    f = Imp(p, Imp(q, p))
    axiom = Proof(P11, (), (ProofLine(f, Axiom("Ax1", {"phi": bad, "psi": q})),))
    v = check(axiom)
    assert not v and v.line == 1 and "not a formula" in v.reason
    entry = (ProofLine(f, Axiom("Ax1", {"phi": p, "psi": q})),)
    cited = ProofLine(Imp(r, Imp(q, r)), Lemma(0, {"p": bad}))
    v = check(Proof(P11, (), (cited,), (entry,)))
    assert not v and v.line == 1 and "not a formula" in v.reason


@pytest.mark.parametrize(
    "just",
    [
        Axiom("Ax1", None),
        Axiom(["Ax1"], {}),
        MP("a", 0),
        Hyp("0"),
        Lemma("0", {}),
        Hyp(0.0),  # in range, so only the lookup fails
    ],
    ids=repr,
)
def test_check_rejects_a_field_of_the_wrong_type(just):
    # a hand-built line is judged, not crashed on
    entry = (ProofLine(Imp(p, Imp(q, p)), Axiom("Ax1", {"phi": p, "psi": q})),)
    lines = (ProofLine(p, Hyp(0)), ProofLine(p, just))
    v = check(Proof(P00, (p,), lines, (entry,)))
    assert not v and v.line == 2
    assert v.reason == f"{type(just).__name__} justification has a field of the wrong type"


def test_check_rejects_a_line_that_is_not_a_proof_line():
    v = check(Proof(P00, (), ("junk",)))
    assert not v and v.line == 1
    assert v.reason == "line is a str, not a ProofLine"
    good = ProofLine(Imp(p, Imp(q, p)), Axiom("Ax1", {"phi": p, "psi": q}))
    v = check(Proof(P00, (), (good,), ((good, None),)))
    assert not v and v.line is None
    assert v.reason == "lemma 1 line 2: line is a NoneType, not a ProofLine"


def test_check_rejects_params_that_are_not_a_logic():
    good = ProofLine(Imp(p, Imp(q, p)), Axiom("Ax1", {"phi": p, "psi": q}))
    for params in (None, (0, 0)):
        v = check(Proof(params, (), (good,)))
        assert not v and v.line is None
        assert v.reason == "params is not a LogicParams"


def test_check_rejects_a_hypothesis_that_is_not_a_formula():
    # the whole proof is rejected, whether a line cites the hypothesis or not
    v = check(Proof(P00, ("p",), (ProofLine("p", Hyp(0)),)))
    assert not v and v.line is None
    assert v.reason == "hypothesis 0 is a str, not a formula"
    v = check(Proof(P00, (p, 3), (ProofLine(p, Hyp(0)),)))
    assert not v and v.line is None
    assert v.reason == "hypothesis 1 is a int, not a formula"


def test_no_proof_is_made_over_a_hypothesis_that_is_not_a_formula():
    b = ProofBuilder(P00, (p,))
    b.hyp(0)
    pf = b.build()
    with pytest.raises(ValueError, match="hypothesis 1 is a str, not a formula"):
        weaken(pf, [p, "junk"])
    b = ProofBuilder(P00, [p, 3])
    b.hyp(0)
    with pytest.raises(ValueError, match="hypothesis 1 is a int, not a formula"):
        b.build()
    with pytest.raises(ValueError, match="hypothesis 0 is a NoneType, not a formula"):
        linearize(hyp_node(p), P00, [None, p])


def test_check_reads_a_bool_index_as_an_int():
    hyps = (Imp(p, q), p)
    lines = (ProofLine(Imp(p, q), Hyp(False)), ProofLine(p, Hyp(True)))
    assert check(Proof(P00, hyps, lines + (ProofLine(q, MP(False, True)),)))
    forward = check(Proof(P00, hyps, (lines[0], ProofLine(q, MP(True, 0)))))
    assert forward.line == 2
    assert forward.reason == "reference to line 2 is not an earlier line"


def test_check_builds_no_instance_larger_than_its_line():
    # a one-atom line citing a lemma 300 000 negations deep is rejected
    # without substituting the lemma's conclusion
    a = Atom("deep_lemma_atom")
    deep = iter_neg(300_000, a)
    entry = (ProofLine(Imp(deep, Imp(a, deep)), Axiom("Ax1", {"phi": deep, "psi": a})),)
    pf = Proof(P00, (), (ProofLine(p, Lemma(0, {"deep_lemma_atom": p})),), (entry,))
    negations = len(formula_module._NEGS)
    start = time.perf_counter()
    v = check(pf)
    assert time.perf_counter() - start < 0.1
    assert v.line == 1 and v.reason == "formula is not lemma 1 under its binding"
    assert len(formula_module._NEGS) == negations
    # an Ax5 line at (1,0) stops at the negation over its binding, which
    # would already be larger than the line
    big = parse("a -> b -> c -> d -> e -> a")
    pf = Proof(P10, (), (ProofLine(Imp(p, p), Axiom("Ax5", {"phi": big})),))
    negations = len(formula_module._NEGS)
    v = check(pf)
    assert v.line == 1 and v.reason == "formula is not the declared Ax5 instance"
    assert len(formula_module._NEGS) == negations


def test_check_rejects_unknown_schema():
    pf = Proof(P00, (), (ProofLine(p, Axiom("Ax99", {"phi": p})),))
    assert "unknown axiom schema" in check(pf).reason


def test_check_rejects_bad_hypothesis_use():
    out_of_range = Proof(P00, (p,), (ProofLine(p, Hyp(3)),))
    assert "out of range" in check(out_of_range).reason
    mismatch = Proof(P00, (p,), (ProofLine(q, Hyp(0)),))
    assert "does not match hypothesis" in check(mismatch).reason


def test_check_rejects_mp_shape_faults():
    bad_major = Proof(
        P00,
        (p, q),
        (ProofLine(p, Hyp(0)), ProofLine(q, Hyp(1)), ProofLine(r, MP(0, 1))),
    )
    assert "not an implication" in check(bad_major).reason
    bad_minor = Proof(
        P00,
        (Imp(p, q), r),
        (
            ProofLine(Imp(p, q), Hyp(0)),
            ProofLine(r, Hyp(1)),
            ProofLine(q, MP(0, 1)),
        ),
    )
    assert "antecedent" in check(bad_minor).reason
    bad_conclusion = Proof(
        P00,
        (Imp(p, q), p),
        (
            ProofLine(Imp(p, q), Hyp(0)),
            ProofLine(p, Hyp(1)),
            ProofLine(r, MP(0, 1)),
        ),
    )
    assert "consequent" in check(bad_conclusion).reason


def test_check_judges_a_subclassed_justification_as_its_base():
    class Step(MP):
        pass

    hyps = (Imp(p, q), p)
    lines = (ProofLine(Imp(p, q), Hyp(0)), ProofLine(p, Hyp(1)))
    assert check(Proof(P00, hyps, lines + (ProofLine(q, Step(0, 1)),)))
    swapped = check(Proof(P00, hyps, lines + (ProofLine(q, Step(1, 0)),)))
    assert swapped.reason == "major premise is not an implication"
    unknown = check(Proof(P00, hyps, lines + (ProofLine(q, object()),)))
    assert unknown.reason == "unknown justification object"


def test_ax5_instance_checks_per_params():
    pf = axiom_proof(P10, "Ax5", {"phi": p})
    assert pf.conclusion is star(Neg(p))
    assert check(pf)
    wrong_params = Proof(P00, (), pf.lines)
    assert not check(wrong_params)


# --- builder ---


def test_builder_deduplicates_splices():
    inner = refl_proof(P00, p)
    b = ProofBuilder(P00)
    first = b.splice(inner)
    second = b.splice(inner)
    assert first == second
    assert len(b) == len(inner)
    with pytest.raises(ValueError, match="different logic params"):
        ProofBuilder(P10).splice(inner)
    with pytest.raises(ValueError, match="absent from the target"):
        b.splice(hyp_proof(P00, p))


def test_builder_rejects_bad_mp():
    b = ProofBuilder(P00, (p, q))
    i = b.hyp(0)
    j = b.hyp(1)
    with pytest.raises(ValueError):
        b.mp(i, j)
    with pytest.raises(IndexError, match="hypothesis index 2 out of range"):
        b.hyp(2)


def test_builder_requires_a_line():
    with pytest.raises(ValueError):
        ProofBuilder(P00).build()


def test_build_trims_unreachable_lines():
    b = ProofBuilder(P00, (p,))
    junk = b.axiom("Ax1", {"phi": q, "psi": q})
    kept = b.hyp(0)
    pf = b.build(kept)
    assert len(pf) == 1 and pf.conclusion is p
    assert check(pf)
    assert junk != kept


def test_prune_function_round_trip():
    full = Proof(
        P00,
        (p,),
        (
            ProofLine(Imp(q, Imp(q, q)), Axiom("Ax1", {"phi": q, "psi": q})),
            ProofLine(p, Hyp(0)),
        ),
    )
    trimmed = prune(full)
    assert len(trimmed) == 1
    assert trimmed.conclusion is p
    assert trimmed.hypotheses == (p,)


# --- deduction transformer ---


def test_dt_degenerate_identity():
    pf = Proof(P00, (p,), (ProofLine(p, Hyp(0)),))
    out = deduction_transform(pf, 0)
    assert out.hypotheses == ()
    assert out.conclusion is Imp(p, p)
    assert check(out)


def test_dt_discharges_minor_of_mp():
    b = ProofBuilder(P00, (p, Imp(p, q)))
    concl = b.mp(b.hyp(1), b.hyp(0))
    pf = b.build(concl)
    out = deduction_transform(pf, 0)
    assert out.hypotheses == (Imp(p, q),)
    assert out.conclusion is Imp(p, q)
    assert check(out)


def test_dt_reproduces_ax1_statement():
    b = ProofBuilder(P00, (p,))
    a1 = b.axiom("Ax1", {"phi": p, "psi": q})
    pf = b.build(b.mp(a1, b.hyp(0)))
    out = deduction_transform(pf, 0)
    assert out.hypotheses == ()
    assert out.conclusion is parse("p -> (q -> p)")
    assert check(out)


def test_dt_lifts_independent_conclusion():
    b = ProofBuilder(P00, (p, q))
    pf = b.build(b.hyp(1))
    out = deduction_transform(pf, 0)
    assert out.conclusion is Imp(p, q)
    assert out.hypotheses == (q,)
    assert check(out)


def test_dt_input_validation():
    pf = Proof(P00, (p,), (ProofLine(q, Hyp(0)),))
    with pytest.raises(ValueError):
        deduction_transform(pf, 0)
    good = Proof(P00, (p,), (ProofLine(p, Hyp(0)),))
    with pytest.raises(IndexError):
        deduction_transform(good, 2)


def test_dt_random_round_trip():
    rng = random.Random(23)
    hyp_pool = [p, q, Imp(p, q), Imp(q, r), Neg(p)]
    for _ in range(25):
        hyps = rng.sample(hyp_pool, rng.randint(1, 3))
        pf = random_proof(rng, P11, hyps, rng.randint(2, 10))
        idx = rng.randrange(len(hyps))
        out = deduction_transform(pf, idx)
        assert check(out), check(out).reason
        assert out.conclusion is Imp(hyps[idx], pf.conclusion)
        assert out.hypotheses == tuple(h for i, h in enumerate(hyps) if i != idx)


# --- weaken / cut / substitution ---


def test_weaken_reorders_and_extends():
    b = ProofBuilder(P00, (p, Imp(p, q)))
    pf = b.build(b.mp(b.hyp(1), b.hyp(0)))
    wide = weaken(pf, (r, Imp(p, q), p))
    assert wide.hypotheses == (r, Imp(p, q), p)
    assert wide.conclusion is q
    assert check(wide)
    with pytest.raises(ValueError):
        weaken(pf, (p,))


def test_replace_hyp_with_theorem():
    ff = Imp(p, p)
    b = ProofBuilder(P00, (ff, q))
    a1 = b.axiom("Ax1", {"phi": ff, "psi": q})
    pf = b.build(b.mp(a1, b.hyp(0)))  # q -> (p -> p)
    out = replace_hyp_with_theorem(pf, 0, refl_proof(P00, p))
    assert out.hypotheses == (q,)
    assert out.conclusion is Imp(q, ff)
    assert check(out)


def test_replace_hyp_validations():
    pf = Proof(P00, (p,), (ProofLine(p, Hyp(0)),))
    with pytest.raises(ValueError):
        replace_hyp_with_theorem(pf, 0, refl_proof(P00, p))
    hyp_proof = Proof(P00, (q,), (ProofLine(q, Hyp(0)),))
    with pytest.raises(ValueError):
        replace_hyp_with_theorem(
            Proof(P00, (q,), (ProofLine(q, Hyp(0)),)), 0, hyp_proof
        )
    ff = Imp(p, p)
    host = Proof(P00, (ff,), (ProofLine(ff, Hyp(0)),))
    with pytest.raises(ValueError, match="different logic params"):
        replace_hyp_with_theorem(host, 0, refl_proof(P10, p))


def test_substitute_proof():
    pf = refl_proof(P00, p)
    target = Imp(q, q)
    out = substitute_proof(pf, {"p": target})
    assert out.conclusion is Imp(target, target)
    assert len(out) == len(pf)
    assert check(out)


def test_substitute_proof_rejects_a_proof_that_does_not_check():
    bad = Proof(P00, (), (ProofLine(p, Axiom("Ax1", {"phi": p, "psi": q})),))
    with pytest.raises(ValueError, match="does not check"):
        substitute_proof(bad, {"p": q})


def test_substitute_proof_merges_the_lines_it_makes_identical():
    b = ProofBuilder(P00, (p, q))
    hp, hq = b.hyp(0), b.hyp(1)
    b.mp(b.mp(b.axiom("Ax1", {"phi": p, "psi": q}), hp), hq)
    pf = b.build()
    out = substitute_proof(pf, {"q": p})
    assert len(pf) == 5 and len(out) == 4 and check(out)
    assert out.hypotheses == (p, p) and out.conclusion is p


def _mirrored_pair(seed, params):
    """A random proof and its image under p <-> q, side by side: Ax1 at
    their conclusions and two modus ponens."""

    def one(names):
        rng = random.Random(seed)
        hyps = [random_formula(rng, names, rng.randint(0, 2)) for _ in range(2)]
        return random_proof(rng, params, hyps, rng.randint(1, 14), names)

    left, right = one(["p", "q"]), one(["q", "p"])
    b = ProofBuilder(params, dict.fromkeys(left.hypotheses + right.hypotheses))
    a, c = b.splice(left), b.splice(right)
    ax1 = b.axiom("Ax1", {"phi": b.formula_at(a), "psi": b.formula_at(c)})
    b.mp(b.mp(ax1, a), c)
    return b.build()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    params=st.sampled_from([P00, P10, P11]),
    subst=st.dictionaries(
        st.sampled_from(["p", "q", "r"]),
        st.sampled_from([p, q, r, Imp(q, p), Neg(p), Imp(Neg(r), q)]),
        min_size=1,
    ),
)
def test_substitute_proof_concludes_the_substituted_conclusion(seed, params, subst):
    # a substitution that sends p and q to one formula makes the two
    # mirrored halves one
    pf = _mirrored_pair(seed, params)
    out = substitute_proof(pf, subst)
    assert check(out)
    assert out.conclusion is substitute(pf.conclusion, subst)
    assert out.hypotheses == tuple(substitute(h, subst) for h in pf.hypotheses)
    assert len(out) <= len(pf)


# --- secondary rules ---


def hyp_proof(params, f):
    b = ProofBuilder(params, (f,))
    return b.build(b.hyp(0))


def test_rule_trans():
    out = rule_trans(hyp_proof(P00, Imp(p, q)), hyp_proof(P00, Imp(q, r)))
    assert out.conclusion is Imp(p, r)
    assert out.hypotheses == (Imp(p, q), Imp(q, r))
    assert check(out)


def test_rule_perm():
    out = rule_perm(hyp_proof(P00, Imp(p, Imp(q, r))))
    assert out.conclusion is Imp(q, Imp(p, r))
    assert check(out)


def test_rule_red():
    out = rule_red(hyp_proof(P00, Imp(Imp(p, q), r)))
    assert out.conclusion is Imp(q, r)
    assert check(out)


def test_rule_shape_validation():
    with pytest.raises(ValueError):
        rule_trans(hyp_proof(P00, Imp(p, q)), hyp_proof(P00, Imp(r, p)))
    with pytest.raises(ValueError, match="mismatched logic params"):
        rule_trans(hyp_proof(P00, Imp(p, q)), hyp_proof(P10, Imp(q, r)))
    with pytest.raises(ValueError):
        rule_perm(hyp_proof(P00, p))
    with pytest.raises(ValueError):
        rule_red(hyp_proof(P00, Imp(p, q)))


def test_rules_are_semantically_sound():
    for params in (P00, P11):
        out = rule_trans(hyp_proof(params, Imp(p, q)), hyp_proof(params, Imp(q, r)))
        assert entails(params, list(out.hypotheses), out.conclusion)


# --- serialization ---


def test_json_round_trip():
    b = ProofBuilder(P11, (p,))
    a1 = b.axiom("Ax1", {"phi": p, "psi": q})
    pf = b.build(b.mp(a1, b.hyp(0)))
    doc = proof_to_json(pf)
    assert doc["logic"] == {"n": 1, "k": 1}
    assert doc["hypotheses"] == ["p"]
    kinds = [line["just"]["kind"] for line in doc["lines"]]
    assert kinds == ["axiom", "hyp", "mp"]
    assert doc["lines"][2]["just"] == {"kind": "mp", "major": 1, "minor": 2}
    back = proof_from_json(json.dumps(doc))
    assert back == pf
    assert check(back)


def test_json_hyp_index_is_zero_based():
    pf = Proof(P00, (p, q), (ProofLine(q, Hyp(1)),))
    doc = proof_to_json(pf)
    assert doc["lines"][0]["just"] == {"kind": "hyp", "index": 1}


def test_json_format_errors():
    with pytest.raises(ProofFormatError):
        proof_from_json("not json at all {")
    with pytest.raises(ProofFormatError, match="top level must be a JSON object"):
        proof_from_json("[]")
    with pytest.raises(ProofFormatError):
        proof_from_json({"logic": {"n": 0}, "lines": []})
    with pytest.raises(ProofFormatError):
        proof_from_json({"logic": {"n": 0, "k": 0}, "lines": []})
    with pytest.raises(ProofFormatError):
        proof_from_json(
            {
                "logic": {"n": 0, "k": 0},
                "lines": [{"formula": "p ->", "just": {"kind": "hyp", "index": 0}}],
            }
        )
    with pytest.raises(ProofFormatError):
        proof_from_json(
            {
                "logic": {"n": 0, "k": 0},
                "lines": [{"formula": "p", "just": {"kind": "axiom", "schema": 3}}],
            }
        )
    with pytest.raises(ProofFormatError):
        proof_from_json(
            {
                "logic": {"n": 0, "k": 0},
                "lines": [{"formula": "p", "just": {"kind": "cut", "at": 1}}],
            }
        )


def test_json_parses_invalid_proof_for_checker():
    doc = {
        "logic": {"n": 0, "k": 0},
        "hypotheses": [],
        "lines": [
            {"formula": "q", "just": {"kind": "mp", "major": 0, "minor": 0}}
        ],
    }
    pf = proof_from_json(doc)
    v = check(pf)
    assert not v and v.line == 1


# --- soundness spot checks on produced proofs ---


def test_produced_proofs_are_sound():
    rng = random.Random(5)
    for _ in range(10):
        hyps = [random_formula(rng, ["p", "q"], rng.randint(0, 2)) for _ in range(2)]
        pf = random_proof(rng, P10, hyps, 8)
        assert check(pf)
        assert entails(P10, list(pf.hypotheses), pf.conclusion)


# --- proof-node kernel ---


def test_nodes_are_hash_consed():
    a1 = axiom_node(P00, "Ax1", {"phi": p, "psi": q})
    assert axiom_node(P00, "Ax1", {"psi": q, "phi": p}) is a1
    assert hyp_node(p) is hyp_node(p)
    step = mp_node(a1, hyp_node(p))
    assert mp_node(a1, hyp_node(p)) is step
    assert step.formula is Imp(q, p)
    assert step.hyps == frozenset({p})
    assert not a1.hyps
    # the same instance in another logic is another node
    assert axiom_node(P11, "Ax1", {"phi": p, "psi": q}) is not a1


def test_node_constructors_validate():
    with pytest.raises(ValueError, match="premises"):
        mp_node(hyp_node(p), hyp_node(q))
    with pytest.raises(ValueError, match="binds exactly"):
        axiom_node(P00, "Ax1", {"phi": p})
    with pytest.raises(ValueError, match="binds exactly"):
        axiom_node(P00, "Ax1", {"phi": p, "psi": q, "theta": r})
    with pytest.raises(ValueError, match="unknown axiom schema"):
        axiom_node(P00, "Ax99", {"phi": p})
    with pytest.raises(TypeError, match="hypothesis must be a formula, not str"):
        hyp_node("p")


def test_linearize_is_postorder_major_first():
    a1 = axiom_node(P11, "Ax1", {"phi": p, "psi": q})
    root = mp_node(a1, hyp_node(p))
    pf = linearize(root, P11, (r, p, p))
    assert [type(line.just) for line in pf.lines] == [Axiom, Hyp, MP]
    assert pf.lines[1].just == Hyp(1)  # first position of p
    assert pf.lines[2].just == MP(0, 1)
    assert check(pf)
    with pytest.raises(ValueError, match="outside the list"):
        linearize(root, P11, (q,))


def test_node_of_validates_every_line():
    good = refl_proof(P00, p)
    assert node_of(good).formula is Imp(p, p)
    assert node_of(prune(good)) is node_of(good)
    bad = Proof(P00, (p,), (ProofLine(q, Hyp(0)),))
    with pytest.raises(ValueError, match="line 1"):
        node_of(bad)
    forward = Proof(P00, (p,), (ProofLine(p, Hyp(0)), ProofLine(p, MP(1, 0))))
    with pytest.raises(ValueError, match="line 2"):
        node_of(forward)
    with pytest.raises(ValueError):
        node_of(Proof(P00, (), ()))


def test_discharge_reuses_independent_nodes():
    theorem = node_of(refl_proof(P00, q))
    root = mp_node(mp_node(axiom_node(P00, "Ax1", {"phi": theorem.formula, "psi": p}), theorem), hyp_node(p))
    out = discharge(root, p, P00)
    assert out.formula is Imp(p, root.formula)
    assert not out.hyps
    assert check(linearize(out, P00))
    # the theorem's own steps are reached unchanged
    nodes = set()
    stack = [out]
    while stack:
        node = stack.pop()
        if node not in nodes:
            nodes.add(node)
            stack.extend(c for c in (node.major, node.minor) if c is not None)
    assert theorem in nodes
    assert discharge(theorem, p, P00).formula is Imp(p, theorem.formula)


def test_cut_and_instantiate_on_nodes():
    ff = Imp(p, p)
    root = mp_node(axiom_node(P00, "Ax1", {"phi": ff, "psi": q}), hyp_node(ff))
    theorem = node_of(refl_proof(P00, p))
    out = cut(root, ff, theorem)
    assert not out.hyps and out.formula is Imp(q, ff)
    assert cut(theorem, q, hyp_node(q)) is theorem
    with pytest.raises(ValueError):
        cut(root, ff, hyp_node(q))
    inst = instantiate(out, {"p": Imp(q, r)}, P00)
    pf = linearize(inst, P00)
    assert check(pf)
    assert pf.conclusion is Imp(q, Imp(Imp(q, r), Imp(q, r)))
    # the same lines as substituting line for line, then pruning
    assert sorted(map(repr, pf.lines)) == sorted(
        map(repr, prune(substitute_proof(linearize(out, P00), {"p": Imp(q, r)})).lines)
    )
    # an atom the citation's binding leaves free is bound by instantiate
    generic = axiom_node(P00, "Ax1", {"phi": Atom("phi"), "psi": Atom("psi")})
    cited = lemma_node(generic, {"phi": p})
    inst = instantiate(cited, {"psi": q}, P00)
    assert inst.lemma is cited.lemma and inst.subst == {"phi": p, "psi": q}
    assert inst.formula is Imp(p, Imp(q, p)) and check(linearize(inst, P00))


def test_deduction_transform_with_a_repeated_hypothesis():
    b = ProofBuilder(P00, (p, Imp(p, q), p))
    pf = b.build(b.mp(b.hyp(1), b.hyp(2)))
    assert pf.lines[0].just == Hyp(1) and pf.lines[1].just == Hyp(0)
    out = deduction_transform(pf, 2)
    assert check(out)
    assert out.conclusion is Imp(p, q)
    assert out.hypotheses == (p, Imp(p, q))


# Line counts recorded from the line-list builder that the node kernel
# replaced, on the same seeded inputs.
_THEOREMS = {
    Imp(p, Imp(q, p)): ("Ax1", {"phi": p, "psi": q}),
    star(Imp(p, q)): ("Ax3", {"phi": p, "psi": q}),
}


def _pinned_inputs():
    rng = random.Random(2024)
    pool = [p, q, Imp(p, q), Imp(q, r), Neg(p)] + list(_THEOREMS)
    out = []
    while len(out) < 12:
        hyps = rng.sample(pool, rng.randint(2, 4))
        pf = random_proof(rng, P11, hyps, rng.randint(10, 40))
        junk = random_proof(rng, P11, hyps, rng.randint(5, 15))
        if len(pf) >= 3:
            out.append((pf, junk))
    return out


def test_transformer_line_counts_are_pinned():
    counts = {"dt": [], "weaken": [], "cut": [], "prune": []}
    for pf, junk in _pinned_inputs():
        hyps = pf.hypotheses
        counts["dt"].append(
            [len(deduction_transform(pf, i)) for i in range(len(hyps))]
        )
        counts["weaken"].append(len(weaken(pf, tuple(reversed(hyps)) + (r,))))
        counts["cut"].append(
            [
                len(replace_hyp_with_theorem(pf, i, axiom_proof(P11, *_THEOREMS[h])))
                for i, h in enumerate(hyps)
                if h in _THEOREMS
            ]
        )
        shift = len(junk)
        lines = list(junk.lines) + [
            ProofLine(line.formula, MP(line.just.major + shift, line.just.minor + shift))
            if isinstance(line.just, MP)
            else line
            for line in pf.lines
        ]
        counts["prune"].append(len(prune(Proof(P11, hyps, lines))))
    assert counts == {
        "dt": [[11, 5], [8, 18, 20, 18], [5, 11, 11], [5, 5, 5, 11], [11, 5, 11],
               [5, 5, 5], [5, 11, 11, 5], [5, 11, 5], [7, 17, 7, 17],
               [17, 17, 13, 7], [5, 5, 5], [11, 5, 5, 5]],
        "weaken": [3, 6, 3, 3, 3, 3, 3, 3, 5, 5, 3, 3],
        "cut": [[], [6], [3], [3], [3], [3, 3], [3], [3], [5], [5], [3], [3, 3]],
        "prune": [3, 6, 3, 3, 3, 3, 3, 3, 5, 5, 3, 3],
    }
