"""Lemma tables: proofs that cite a hypothesis-free lemma at a binding.

A Proof carries an ordered table of lemmas; a Lemma line is the cited
lemma's conclusion under the line's binding. check verifies each lemma
once, and the reader and the CLI carry the table.
"""

import json

import pytest

import inpk.proofs as proofs_module
from inpk.cli import _format_proof, main
from inpk.formula import Atom, Imp, parse
from inpk.kalmar import complete_prove
from inpk.proofs import (
    Axiom,
    CheckVerdict,
    Hyp,
    Lemma,
    MP,
    Proof,
    ProofFormatError,
    ProofLine,
    axiom_node,
    axiom_pattern,
    check,
    expand,
    generic,
    lemma_node,
    linearize,
    mp_node,
    node_of,
    proof_from_json,
    proof_to_json,
    prune,
    refl_node,
    substitute,
    substitute_proof,
)
from inpk.semantics import LogicParams

P00 = LogicParams(0, 0)
P10, P11 = LogicParams(1, 0), LogicParams(1, 1)
phi, p, q = Atom("phi"), Atom("p"), Atom("q")


def refl_entry(params=P00):
    """The five lines of phi -> phi."""
    return linearize(refl_node(params, phi), params).lines


def cite(index, bind, formula):
    return ProofLine(formula, Lemma(index, bind))


def refl_citing(params=P00, f=p):
    """f -> f, cited from the refl lemma."""
    return Proof(params, (), (cite(0, {"phi": f}, Imp(f, f)),), (refl_entry(params),))


def test_a_citation_checks_and_expands_to_the_instance():
    pf = refl_citing()
    assert check(pf)
    assert len(pf) == 1
    flat = expand(pf)
    assert not flat.lemmas and check(flat)
    assert flat == linearize(refl_node(P00, p), P00)


# -- the kernel ------------------------------------------------------------


def test_a_wrong_citation_formula_is_rejected():
    pf = refl_citing()
    bad = Proof(P00, (), (cite(0, {"phi": p}, Imp(q, q)),), pf.lemmas)
    assert check(bad) == CheckVerdict(
        False, 1, "formula is not lemma 1 under its binding"
    )


def test_a_self_citation_is_rejected():
    entry = (cite(0, {"phi": phi}, Imp(phi, phi)),)
    pf = Proof(P00, (), (cite(0, {"phi": p}, Imp(p, p)),), (entry,))
    assert check(pf) == CheckVerdict(
        False, None, "lemma 1 line 1: lemma 1 is not an earlier lemma"
    )


def test_a_forward_citation_is_rejected():
    first = (cite(1, {"phi": phi}, Imp(phi, phi)),)
    pf = Proof(
        P00, (), (cite(0, {"phi": p}, Imp(p, p)),), (first, refl_entry())
    )
    assert check(pf) == CheckVerdict(
        False, None, "lemma 1 line 1: lemma 2 is not an earlier lemma"
    )
    # the same table in dependency order checks
    second = (cite(0, {"phi": phi}, Imp(phi, phi)),)
    assert check(Proof(P00, (), pf.lines, (refl_entry(), second)))


@pytest.mark.parametrize("index", [1, 7, -1])
def test_an_index_out_of_range_is_rejected(index):
    entry = refl_entry()
    pf = Proof(P00, (), (cite(index, {"phi": p}, Imp(p, p)),), (entry,))
    assert check(pf) == CheckVerdict(
        False, 1, f"lemma index {index + 1} out of range"
    )


def test_a_hypothesis_inside_a_lemma_is_rejected():
    entry = (ProofLine(p, Hyp(0)),)
    pf = Proof(P00, (p,), (cite(0, {}, p),), (entry,))
    assert check(pf) == CheckVerdict(
        False, None, "lemma 1 line 1: a lemma may not cite a hypothesis"
    )


def test_an_empty_lemma_is_rejected():
    pf = Proof(P00, (), refl_citing().lines, ((),))
    assert check(pf) == CheckVerdict(False, None, "lemma 1 has no lines")


def test_a_fault_inside_a_lemma_names_the_lemma_and_its_line():
    entry = list(refl_entry())
    entry[2] = ProofLine(entry[2].formula, MP(2, 1))
    pf = Proof(P00, (), refl_citing().lines, (tuple(entry),))
    verdict = check(pf)
    assert verdict.line is None
    assert verdict.reason == (
        "lemma 1 line 3: reference to line 3 is not an earlier line"
    )
    assert str(verdict).startswith("rejected: lemma 1 line 3: ")


def chain(depth, params=P00):
    """Lemma i proves phi -> phi by citing lemma i - 1 twice, so a
    checker that followed each citation into its lemma would visit
    lemma 0 about 2^depth times."""
    ff = Imp(phi, phi)
    lemmas = [refl_entry(params)]
    for i in range(1, depth):
        lemmas.append((
            cite(i - 1, {"phi": ff}, Imp(ff, ff)),
            cite(i - 1, {"phi": phi}, ff),
            ProofLine(ff, MP(0, 1)),
        ))
    main = (cite(depth - 1, {"phi": p}, Imp(p, p)),)
    return Proof(params, (), main, tuple(lemmas))


def test_a_deep_chain_of_lemmas_checks_each_citation_once(monkeypatch):
    calls = []

    def counting(f, subst):
        calls.append(f)
        return substitute(f, subst)

    monkeypatch.setattr(proofs_module, "substitute", counting)
    pf = chain(30)
    assert check(pf)
    # one substitution per citation, and at most one per axiom line
    assert len(calls) <= 2 * 29 + 1 + 3
    bad = Proof(pf.params, (), (cite(29, {"phi": p}, Imp(q, q)),), pf.lemmas)
    assert check(bad).line == 1


def test_a_lemma_table_nested_thousands_deep_is_numbered(tmp_path, capsys):
    pf = chain(3000)
    assert prune(pf) == pf
    # the chain's last lemma used on a hypothesis, discharged by the CLI
    lines = (cite(2999, {"phi": p}, Imp(p, p)), ProofLine(p, Hyp(0)))
    lines += (ProofLine(p, MP(0, 1)),)
    path, out = tmp_path / "chain.json", tmp_path / "dt.json"
    path.write_text(json.dumps(proof_to_json(Proof(P00, (p,), lines, pf.lemmas))))
    assert main(["dt", str(path), "--discharge", "0", "-o", str(out)]) == 0
    assert capsys.readouterr().out.endswith(f"lines -> {out}\n")
    discharged = proof_from_json(out.read_text())
    assert check(discharged) and discharged.conclusion is Imp(p, p)
    assert len(discharged.lemmas) == 3000


def test_a_modus_ponens_chain_20000_deep_goes_through_every_fold():
    # p -> p from the hypothesis p -> p, through 20 000 modus ponens
    # steps whose major premise cites the refl lemma at p -> p
    pp = Imp(p, p)
    builder = proofs_module.ProofBuilder(P00, (pp,))
    major = builder.splice(refl_citing(f=pp))
    step = builder.hyp(0)
    for _ in range(20_000):
        step = builder.mp(major, step)
    pf = builder.build()
    assert len(pf) == 20_002 and check(pf)
    discharged = proofs_module.deduction_transform(pf, 0)
    assert discharged.conclusion is Imp(pp, pp) and check(discharged)
    cut = proofs_module.replace_hyp_with_theorem(pf, 0, refl_citing())
    assert cut.conclusion is pp and not cut.hypotheses and check(cut)
    qq = Imp(q, q)
    with proofs_module.scope():
        root = proofs_module.instantiate(node_of(pf), {"p": q}, P00)
        renamed = linearize(root, P00, (qq,))
    assert renamed.conclusion is qq and check(renamed)
    flat = expand(pf)
    assert not flat.lemmas and len(flat) > 20_000 and check(flat)
    assert substitute_proof(pf, {"p": q}) == renamed


def test_check_adds_no_node():
    # an axiom instance and a citation over atoms no other test uses
    a, b = Atom("fresh_check_a"), Atom("fresh_check_b")
    subst = {"phi": a, "psi": b}
    instance = substitute(axiom_pattern("Ax1", P00), subst)
    lines = (
        ProofLine(instance, Axiom("Ax1", subst)),
        cite(0, {"phi": Imp(a, b)}, Imp(Imp(a, b), Imp(a, b))),
    )
    pf = Proof(P00, (), lines, (refl_entry(),))
    size = len(proofs_module._NODES)
    assert check(pf)
    assert len(proofs_module._NODES) == size


def generic_chain(depth, params=P00):
    """The builds of chain(depth) as generics: generic i proves
    phi -> phi by citing generic i - 1 twice. Each call makes new ones."""
    ff = Imp(phi, phi)
    builds = [lambda params: refl_node(params, phi)]
    for _ in range(1, depth):

        def build(params, below=builds[-1]):
            cited = generic(below, params)
            major = lemma_node(cited, {"phi": ff})
            return mp_node(major, lemma_node(cited, {"phi": phi}))

        builds.append(build)
    # bottom up, so that no build recurses into the one below
    return [generic(build, params) for build in builds]


def test_a_chain_of_generics_numbers_the_same_warm_and_cold(monkeypatch):
    generics = generic_chain(200)
    root = lemma_node(generics[-1], {"phi": p})
    cold = linearize(root, P00)
    assert cold == chain(200)
    assert all(proofs_module._NUMBERED[g] is not None for g in generics)
    assert linearize(root, P00) == cold
    # from the middle of the chain: the table is a suffix renumbered
    middle = linearize(lemma_node(generics[99], {"phi": p}), P00)
    assert middle == chain(100)
    # numbered afresh, with nothing stored
    monkeypatch.setattr(proofs_module, "_NUMBERED", {})
    assert linearize(root, P00) == cold
    assert not proofs_module._NUMBERED


def test_the_numbering_table_holds_only_generics():
    pf = chain(3000)
    assert prune(pf) == pf
    # a hypothesis-free node that is no generic, cited
    rebuilt = node_of(Proof(P00, (), refl_entry()))
    cited = linearize(lemma_node(rebuilt, {"phi": q}), P00)
    assert cited.lemmas == (refl_entry(),)
    generics = set(proofs_module._GENERICS.values())
    assert all(node in generics for node in proofs_module._NUMBERED)


# -- verification at numbering ----------------------------------------------
# linearize runs the kernel's line predicate on what it numbers: a
# generic's numbering once, when it is stored, and the main lines and
# every other lemma in each call.


def _cold(monkeypatch):
    """Forget every stored numbering for the test."""
    monkeypatch.setattr(
        proofs_module, "_NUMBERED", dict.fromkeys(proofs_module._NUMBERED)
    )


def _wrong_minor(lines):
    """lines with the first modus ponens line citing its major premise as
    its minor too (no formula is its own antecedent), or None."""
    for i, line in enumerate(lines):
        if type(line.just) is MP:
            wrong = ProofLine(line.formula, MP(line.just.major, line.just.major))
            return lines[:i] + (wrong,) + lines[i + 1 :]
    return None


def test_a_planted_fault_in_a_generic_is_never_stored(monkeypatch):
    _cold(monkeypatch)
    real = proofs_module._number
    target = []

    def planted(root, position):
        lines, cited = real(root, position)
        # the first generic numbered that has a modus ponens line
        if root in proofs_module._NUMBERED and root in (target or [root]):
            wrong = _wrong_minor(lines)
            if wrong is not None:
                target[:] = [root]
                lines = wrong
        return lines, cited

    monkeypatch.setattr(proofs_module, "_number", planted)
    goal = parse("!!p || !p")
    for _ in range(2):
        with pytest.raises(
            AssertionError,
            match=r"generic lemma line \d+ failed the checker: minor premise",
        ):
            complete_prove(P10, goal)
        assert proofs_module._NUMBERED[target[0]] is None
    monkeypatch.setattr(proofs_module, "_number", real)
    assert check(complete_prove(P10, goal))
    assert proofs_module._NUMBERED[target[0]] is not None


def test_a_generic_is_verified_once_per_process(monkeypatch):
    _cold(monkeypatch)
    real = proofs_module._fault
    seen = []

    def counting(lines, hyps, params, conclusions):
        seen.append(lines)
        return real(lines, hyps, params, conclusions)

    monkeypatch.setattr(proofs_module, "_fault", counting)
    first = complete_prove(P11, parse("(!!(p -> p) -> q) -> q"))
    # cold: each lemma verified once (a generic as it is stored), then
    # the main lines
    assert len(seen) == len(first.lemmas) + 1
    assert sum(map(len, seen)) == len(first) + sum(map(len, first.lemmas))
    seen.clear()
    second = complete_prove(P11, parse("(!!(r -> r) -> s) -> s"))
    # the generics are over phi, psi and theta; the one synthesized
    # subgoal, over p1, is numbered and verified afresh
    fresh = [e for e in second.lemmas if "p1" in e[-1].formula.atom_names]
    assert len(fresh) == 1 and len(second.lemmas) > 1
    assert seen == [*fresh, second.lines]
    assert check(second)


def _ax5(params):
    return axiom_node(params, "Ax5", {"phi": phi})


def test_a_generic_cited_at_another_logic_is_verified_there():
    g = generic(_ax5, P00)
    assert check(linearize(lemma_node(g, {"phi": p}), P00))
    stored = proofs_module._NUMBERED[g]
    # Ax5 at (0,0) is phi^*; at (1,1) the instance is (!phi)^*
    with pytest.raises(AssertionError, match="lemma 1 line 1 failed the checker"):
        linearize(lemma_node(g, {"phi": p}), P11)
    assert proofs_module._NUMBERED[g] is stored


# -- nodes -----------------------------------------------------------------


def test_node_of_rebuilds_the_citations():
    pf = refl_citing()
    node = node_of(pf)
    assert node.lemma is node_of(Proof(P00, (), refl_entry()))
    assert node is lemma_node(node.lemma, {"phi": p})
    assert linearize(node, P00) == pf


def test_a_citation_node_needs_a_hypothesis_free_lemma():
    from inpk.proofs import hyp_node

    with pytest.raises(ValueError, match="no hypothesis"):
        lemma_node(hyp_node(p), {"p": q})


def test_substitute_proof_composes_the_binding():
    pf = substitute_proof(refl_citing(), {"p": Imp(q, q)})
    assert pf.lines[0].just == Lemma(0, {"phi": Imp(q, q)})
    assert check(pf) and pf.lemmas == refl_citing().lemmas
    # its bindings are read-only, like every other builder's
    with pytest.raises(TypeError):
        pf.lines[0].just.bind["phi"] = p
    ax1 = ProofLine(Imp(p, Imp(q, p)), Axiom("Ax1", {"phi": p, "psi": q}))
    got = substitute_proof(Proof(P00, (), (ax1,)), {"p": q})
    assert got.lines[0].just.subst == {"phi": q, "psi": q} and check(got)
    with pytest.raises(TypeError):
        got.lines[0].just.subst["psi"] = p


# -- the JSON document -----------------------------------------------------


def test_a_table_round_trips_through_json():
    pf = chain(5)
    doc = proof_to_json(pf)
    assert list(doc) == ["logic", "hypotheses", "lemmas", "lines"]
    assert doc["lines"][0]["just"] == {
        "kind": "lemma", "lemma": 5, "bind": {"phi": "p"},
    }
    got = proof_from_json(json.dumps(doc))
    assert got == pf and check(got)
    # a flat proof has no "lemmas" key
    assert "lemmas" not in proof_to_json(expand(refl_citing()))


def _table_doc(lemmas, line=None):
    doc = proof_to_json(refl_citing())
    doc["lemmas"] = lemmas
    if line is not None:
        doc["lines"] = [line]
    return doc


def _citation(just):
    return {"formula": "p -> p", "just": {"kind": "lemma", **just}}


_ENTRY = proof_to_json(refl_citing())["lemmas"][0]

MALFORMED_TABLES = [
    (_table_doc({}), '"lemmas" must be a list'),
    (_table_doc("phi -> phi"), '"lemmas" must be a list'),
    (_table_doc([[]]), "lemma 1: expected a nonempty list of lines"),
    (_table_doc([_ENTRY, {"lines": _ENTRY}]), "lemma 2: expected a nonempty list"),
    (_table_doc([None]), "lemma 1: expected a nonempty list of lines"),
    (_table_doc([["phi"]]), "lemma 1 line 1: expected an object"),
    (_table_doc([[{"formula": "phi"}]]), 'lemma 1 line 1: "just" must be an object'),
    (_table_doc([_ENTRY], _citation({"lemma": "1", "bind": {"phi": "p"}})),
     'line 1: "lemma" must be an integer'),
    (_table_doc([_ENTRY], _citation({"lemma": True, "bind": {"phi": "p"}})),
     'line 1: "lemma" must be an integer'),
    (_table_doc([_ENTRY], _citation({"lemma": 1.0, "bind": {"phi": "p"}})),
     'line 1: "lemma" must be an integer'),
    (_table_doc([_ENTRY], _citation({"bind": {"phi": "p"}})),
     'line 1: "lemma" must be an integer'),
    (_table_doc([_ENTRY], _citation({"lemma": 1, "bind": ["p"]})),
     'line 1: "bind" must be an object'),
    (_table_doc([_ENTRY], _citation({"lemma": 1, "bind": "p"})),
     'line 1: "bind" must be an object'),
    (_table_doc([_ENTRY], _citation({"lemma": 1, "bind": {"phi": 3}})),
     "line 1 bind 'phi': expected a formula string"),
    (_table_doc([_ENTRY], _citation({"lemma": 1, "bind": {"phi": None}})),
     "line 1 bind 'phi': expected a formula string"),
    (_table_doc([_ENTRY], _citation({"lemma": 1, "bind": {"phi": "p ->"}})),
     "line 1 bind 'phi': "),
    (_table_doc([_ENTRY, [_citation({"lemma": 1, "bind": {"phi": "(p"}})]]),
     "lemma 2 line 1 bind 'phi': "),
]


@pytest.mark.parametrize("i", range(len(MALFORMED_TABLES)))
def test_a_malformed_table_is_a_format_error(i):
    doc, message = MALFORMED_TABLES[i]
    for data in (doc, json.dumps(doc)):
        with pytest.raises(ProofFormatError) as got:
            proof_from_json(data)
        assert str(got.value).startswith(message)


# -- the CLI ---------------------------------------------------------------


def test_the_listing_shows_the_table_and_the_citations():
    text = _format_proof(chain(2))
    assert text.splitlines() == [
        "logic: (0,0)",
        "lemma 1:",
        "  1. (phi -> (phi -> phi) -> phi) -> (phi -> phi -> phi) -> phi -> phi"
        "   [Ax2 {phi := phi, psi := phi -> phi, theta := phi}]",
        "  2. phi -> (phi -> phi) -> phi   [Ax1 {phi := phi, psi := phi -> phi}]",
        "  3. (phi -> phi -> phi) -> phi -> phi   [mp 1, 2]",
        "  4. phi -> phi -> phi   [Ax1 {phi := phi, psi := phi}]",
        "  5. phi -> phi   [mp 3, 4]",
        "lemma 2:",
        "  1. (phi -> phi) -> phi -> phi   [lemma 1 {phi := phi -> phi}]",
        "  2. phi -> phi   [lemma 1 {phi := phi}]",
        "  3. phi -> phi   [mp 1, 2]",
        "1. p -> p   [lemma 2 {phi := p}]",
    ]


@pytest.mark.parametrize(
    "lemmas, reason",
    [
        (((ProofLine(p, Hyp(0)),),),
         "lemma 1 line 1: a lemma may not cite a hypothesis"),
        (((cite(1, {}, p),), (ProofLine(p, Hyp(0)),)),
         "lemma 1 line 1: lemma 2 is not an earlier lemma"),
    ],
)
def test_json_check_reports_a_table_fault(lemmas, reason, tmp_path, capsys):
    pf = Proof(P00, (p,), (cite(0, {}, p),), lemmas)
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(proof_to_json(pf)))
    assert main(["--json", "check", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {"accepted": False, "reason": reason}
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out == f"rejected: {reason}\n"


def test_check_on_an_empty_lemma_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(_table_doc([[]])))
    assert main(["--json", "check", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: bad proof file: lemma 1: expected a nonempty list of lines\n"
    )
