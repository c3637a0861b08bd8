"""The JSON proof document: the writer's bytes and the reader's results.

The reader confirms most line formulas by rendering what the line's
justification predicts; these tests compare it with a reader that parses
every field, on documents that take the fast path and on documents that
must fall back to parsing, and pin the writer to one that renders every
field from scratch.
"""

from __future__ import annotations

import json
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import inpk.formula as formula_module
import inpk.proofs as proofs_module
from inpk.classical import classical_prove
from inpk.cli import _format_proof, main
from inpk.formula import (
    Atom, FormulaSyntaxError, Imp, Neg, children, parse, postorder, render,
)
from inpk.kalmar import complete_prove, lemma1_derive
from inpk.proofs import (
    AXIOM_IDS,
    MP,
    Axiom,
    Hyp,
    Lemma,
    Proof,
    ProofFormatError,
    ProofLine,
    axiom_metavariables,
    axiom_pattern,
    axiom_proof,
    check,
    deduction_transform,
    expand,
    proof_from_json,
    proof_to_json,
    prune,
    replace_hyp_with_theorem,
    rule_perm,
    rule_red,
    rule_trans,
    substitute_proof,
    weaken,
)
from inpk.semantics import LogicParams
from inpk.templates import derive_template, template_ids

from helpers import random_formula, random_proof, random_subst

p, q, r = Atom("p"), Atom("q"), Atom("r")


# ----------------------------------------------------------------------
# References: the reader that parses every field and the writer that
# renders every field, as they were before the reader predicted formulas.
# ----------------------------------------------------------------------


def _reference_formula_field(text, where):
    if not isinstance(text, str):
        raise ProofFormatError(f"{where}: expected a formula string")
    try:
        return parse(text)
    except FormulaSyntaxError as e:
        raise ProofFormatError(f"{where}: {e}") from None


def _reference_index(j, field, where):
    ref = j.get(field)
    if not isinstance(ref, int) or isinstance(ref, bool):
        raise ProofFormatError(f'{where}: "{field}" must be an integer')
    return ref


def _reference_binding(j, field, where):
    raw = j.get(field, {})
    if not isinstance(raw, dict):
        raise ProofFormatError(f'{where}: "{field}" must be an object')
    return {
        str(v): _reference_formula_field(t, f"{where} {field} {v!r}")
        for v, t in raw.items()
    }


def _reference_lines(raw_lines, prefix):
    lines = []
    for num, raw in enumerate(raw_lines, start=1):
        where = f"{prefix}line {num}"
        if not isinstance(raw, dict):
            raise ProofFormatError(f"{where}: expected an object")
        formula = _reference_formula_field(raw.get("formula"), where)
        j = raw.get("just")
        if not isinstance(j, dict):
            raise ProofFormatError(f'{where}: "just" must be an object')
        kind = j.get("kind")
        if kind == "axiom":
            schema = j.get("schema")
            if not isinstance(schema, str):
                raise ProofFormatError(f'{where}: "schema" must be a string')
            just = Axiom(schema, _reference_binding(j, "subst", where))
        elif kind == "hyp":
            just = Hyp(_reference_index(j, "index", where))
        elif kind == "mp":
            major = _reference_index(j, "major", where) - 1
            just = MP(major, _reference_index(j, "minor", where) - 1)
        elif kind == "lemma":
            at = _reference_index(j, "lemma", where) - 1
            just = Lemma(at, _reference_binding(j, "bind", where))
        else:
            raise ProofFormatError(f"{where}: unknown justification kind {kind!r}")
        lines.append(ProofLine(formula, just))
    return tuple(lines)


def reference_from_json(data):
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise ProofFormatError(f"not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ProofFormatError("top level must be a JSON object")
    logic = data.get("logic")
    if (
        not isinstance(logic, dict)
        or not isinstance(logic.get("n"), int)
        or not isinstance(logic.get("k"), int)
        or isinstance(logic["n"], bool)
        or isinstance(logic["k"], bool)
    ):
        raise ProofFormatError('"logic" must be {"n": int, "k": int}')
    try:
        params = LogicParams(logic["n"], logic["k"])
    except ValueError as e:
        raise ProofFormatError(str(e)) from None
    raw_hyps = data.get("hypotheses", [])
    if not isinstance(raw_hyps, list):
        raise ProofFormatError('"hypotheses" must be a list')
    hyps = tuple(
        _reference_formula_field(h, f"hypothesis {i}") for i, h in enumerate(raw_hyps)
    )
    raw_lemmas = data.get("lemmas", [])
    if not isinstance(raw_lemmas, list):
        raise ProofFormatError('"lemmas" must be a list')
    raw_lines = data.get("lines")
    if not isinstance(raw_lines, list) or not raw_lines:
        raise ProofFormatError('"lines" must be a nonempty list')
    lemmas = []
    for e, raw_entry in enumerate(raw_lemmas, start=1):
        if not isinstance(raw_entry, list) or not raw_entry:
            raise ProofFormatError(f"lemma {e}: expected a nonempty list of lines")
        lemmas.append(_reference_lines(raw_entry, f"lemma {e} "))
    return Proof(params, hyps, _reference_lines(raw_lines, ""), tuple(lemmas))


def _reference_json_lines(lines):
    out = []
    for line in lines:
        just = line.just
        if isinstance(just, Axiom):
            j = {
                "kind": "axiom",
                "schema": just.schema,
                "subst": {v: render(f) for v, f in sorted(just.subst.items())},
            }
        elif isinstance(just, Hyp):
            j = {"kind": "hyp", "index": just.index}
        elif isinstance(just, Lemma):
            j = {
                "kind": "lemma",
                "lemma": just.index + 1,
                "bind": {v: render(f) for v, f in sorted(just.bind.items())},
            }
        else:
            j = {"kind": "mp", "major": just.major + 1, "minor": just.minor + 1}
        out.append({"formula": render(line.formula), "just": j})
    return out


def reference_to_json(proof):
    doc = {
        "logic": {"n": proof.params.n, "k": proof.params.k},
        "hypotheses": [render(h) for h in proof.hypotheses],
    }
    if proof.lemmas:
        doc["lemmas"] = [_reference_json_lines(entry) for entry in proof.lemmas]
    doc["lines"] = _reference_json_lines(proof.lines)
    return doc


def _assert_identical_lines(got, want, where):
    assert len(got) == len(want), where
    for num, (a, b) in enumerate(zip(got, want), start=1):
        assert a.formula is b.formula, f"{where}line {num}"
        assert type(a.just) is type(b.just), f"{where}line {num}"
        if isinstance(a.just, Axiom):
            assert a.just.schema == b.just.schema, f"{where}line {num}"
            x, y = a.just.subst, b.just.subst
        elif isinstance(a.just, Lemma):
            assert a.just.index == b.just.index, f"{where}line {num}"
            x, y = a.just.bind, b.just.bind
        else:
            assert a.just == b.just, f"{where}line {num}"
            continue
        assert list(x) == list(y), f"{where}line {num}"
        assert all(x[v] is y[v] for v in y), f"{where}line {num}"


def assert_identical(got, want):
    """Same params, the same formula objects, equal justifications, in
    the lines and in the lemma table."""
    assert got.params == want.params
    assert len(got.hypotheses) == len(want.hypotheses)
    assert all(a is b for a, b in zip(got.hypotheses, want.hypotheses))
    assert len(got.lemmas) == len(want.lemmas)
    for e, (a, b) in enumerate(zip(got.lemmas, want.lemmas), start=1):
        _assert_identical_lines(a, b, f"lemma {e} ")
    _assert_identical_lines(got.lines, want.lines, "")


def assert_reads_as_reference(doc):
    """proof_from_json gives the reference's Proof or its exact error."""
    try:
        want = reference_from_json(doc)
    except ProofFormatError as e:
        with pytest.raises(ProofFormatError) as got:
            proof_from_json(doc)
        assert str(got.value) == str(e)
        return None
    got = proof_from_json(doc)
    assert_identical(got, want)
    return got


# ----------------------------------------------------------------------
# The corpus: proofs from every builder the suite uses, kept small enough
# for the parsing reference.
# ----------------------------------------------------------------------


# templates whose instances stay under 100 kB of JSON
SMALL_TEMPLATES = (
    "refl", "elim_classicalize", "star_strong_to_weak_neg", "contraposition",
    "strong_neg_cases", "circ_of_circ", "circ_refute_imp", "circ_of_negstar",
)


def _build_corpus():
    rng = random.Random(71)
    names = ["p", "q", "r"]
    out = []
    pairs = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (16, 16))
    logics = [LogicParams(n, k) for n, k in pairs]
    for params in logics:
        for schema in AXIOM_IDS:
            subst = random_subst(rng, axiom_metavariables(schema), names, 3)
            out.append(axiom_proof(params, schema, subst))
        hyps = [random_formula(rng, names, rng.randint(0, 3)) for _ in range(2)]
        pf = random_proof(rng, params, hyps, 12, names)
        out.append(pf)
        out.append(weaken(pf, (Imp(p, q),) + tuple(reversed(pf.hypotheses))))
        out.append(prune(pf))
        out.append(deduction_transform(pf, 0))
        out.append(substitute_proof(pf, {"p": Neg(q), "q": Imp(r, p)}))
        t1 = axiom_proof(params, "Ax1", {"phi": p, "psi": q})
        out.append(rule_perm(t1))
        t2 = axiom_proof(params, "Ax1", {"phi": Imp(q, p), "psi": r})
        out.append(rule_trans(t1, t2))
        t3 = axiom_proof(params, "Ax2", {"phi": p, "psi": q, "theta": r})
        out.append(rule_red(t3))
    for params in (LogicParams(0, 0), LogicParams(1, 0)):
        out.append(lemma1_derive(params, Imp(Neg(p), q), {
            "p": params.values()[-1], "q": params.values()[0],
        }))
    for params in (LogicParams(0, 0), LogicParams(2, 1), LogicParams(16, 16)):
        for tid in SMALL_TEMPLATES:
            out.append(derive_template(tid, {"phi": Neg(p), "psi": Imp(q, r)}, params))
    out.append(classical_prove(LogicParams(1, 1), Imp(Imp(Imp(p, q), p), p)))
    cited = complete_prove(LogicParams(0, 0), parse("p -> p"))
    out += [cited, expand(cited)]
    params = LogicParams(1, 1)
    theorem = axiom_proof(params, "Ax1", {"phi": p, "psi": q})
    host = weaken(
        axiom_proof(params, "Ax1", {"phi": theorem.conclusion, "psi": r}),
        (theorem.conclusion,),
    )
    out.append(replace_hyp_with_theorem(host, 0, theorem))
    return out


@pytest.fixture(scope="module")
def corpus():
    out = _build_corpus()
    assert all(check(pf) for pf in out)
    return out


def test_reader_matches_the_parsing_reference_on_every_corpus_proof(corpus):
    for pf in corpus:
        doc = proof_to_json(pf)
        got = assert_reads_as_reference(doc)
        assert_identical(got, pf)
    # text and bytes go through json.loads first
    doc = json.dumps(proof_to_json(corpus[-1]), indent=2)
    assert_reads_as_reference(doc)
    assert_reads_as_reference(doc.encode())


def _top_level_pieces(text):
    """text cut at its arrows outside parentheses, each piece stripped."""
    pieces, depth, start = [], 0, 0
    for i, c in enumerate(text):
        depth += (c == "(") - (c == ")")
        if not depth and text.startswith("->", i):
            pieces.append(text[start:i].strip())
            start = i + 2
    return pieces + [text[start:].strip()]


def test_canonical_documents_parse_no_line_formula(corpus, monkeypatch):
    # every line is confirmed by its prediction: parse sees only
    # hypotheses and substitution values, whole or as the pieces between
    # their top-level arrows that the document has not spelled already
    seen = []

    def counting(text):
        seen.append(text)
        return parse(text)

    monkeypatch.setattr(formula_module, "parse", counting)
    cited = parsed = 0
    for pf in corpus:
        doc = proof_to_json(pf)
        seen.clear()
        proof_from_json(doc)
        fields = list(doc["hypotheses"])
        raw_lines = [raw for entry in doc.get("lemmas", []) for raw in entry]
        raw_lines += doc["lines"]
        bindings = [
            raw["just"].get("subst", raw["just"].get("bind", {})) for raw in raw_lines
        ]
        for binding in bindings:
            fields += binding.values()
        pieces = [piece for text in fields for piece in _top_level_pieces(text)]
        assert set(seen) <= set(fields) | set(pieces)
        assert len(seen) <= len(pieces)
        assert sum(map(len, seen)) <= sum(map(len, set(fields)))
        # each distinct text is parsed at most once per document
        assert len(seen) == len(set(seen))
        parsed += len(seen)
        cited += sum(raw["just"]["kind"] == "lemma" for raw in raw_lines)
    assert cited and parsed


def test_a_read_leaves_every_axiom_node_that_check_needs(corpus, monkeypatch):
    # the reader enters each axiom instance it predicts into the node
    # table: check of the Proof just read builds none, and reading the
    # document again adds no node
    built = []
    substitute = proofs_module._substitute

    def counting(f, subst, cache, size=None):
        built.append(f)
        return substitute(f, subst, cache, size)

    for pf in corpus:
        doc = proof_to_json(pf)
        got = proof_from_json(doc)
        patterns = {axiom_pattern(s, pf.params) for s in AXIOM_IDS}
        built.clear()
        monkeypatch.setattr(proofs_module, "_substitute", counting)
        assert check(got)
        monkeypatch.undo()
        assert not patterns.intersection(built)
        nodes = len(proofs_module._NODES)
        proof_from_json(doc)
        assert len(proofs_module._NODES) == nodes


def _tampered(doc):
    """The benchmark's two faults: an mp reference moved forward, and a
    formula wrapped as (f) -> z."""
    lines = doc["lines"]
    out = []
    at = next((j for j, raw in enumerate(lines) if raw["just"]["kind"] == "mp"), None)
    if at is not None:
        bad = json.loads(json.dumps(doc))
        bad["lines"][at]["just"]["major"] = at + 1
        out.append((at + 1, bad))
    j = len(lines) // 2
    bad = json.loads(json.dumps(doc))
    bad["lines"][j]["formula"] = f"({lines[j]['formula']}) -> z"
    out.append((j + 1, bad))
    return out


def test_tampered_documents_read_as_the_reference_and_are_rejected(corpus):
    for pf in corpus:
        if len(pf) > 500:
            continue
        for at, bad in _tampered(proof_to_json(pf)):
            got = assert_reads_as_reference(bad)
            verdict = check(got)
            assert not verdict and verdict.line == at


def _respace(text):
    return "  " + text.replace(" -> ", "->   ").replace("!", "! ") + " "


def test_non_canonical_text_falls_back_to_parsing(corpus):
    for pf in corpus[::3]:
        doc = proof_to_json(pf)
        spaced = json.loads(json.dumps(doc))
        for raw in spaced["lines"]:
            raw["formula"] = _respace(raw["formula"])
            subst = raw["just"].get("subst")
            if subst:
                for v in subst:
                    subst[v] = _respace(subst[v])
        spaced["hypotheses"] = [_respace(h) for h in spaced["hypotheses"]]
        got = assert_reads_as_reference(spaced)
        assert_identical(got, pf)


def test_sugar_in_line_formulas_reads_as_its_expansion():
    params = LogicParams(1, 0)
    pf = complete_prove(params, parse("!!p || !p"))
    doc = proof_to_json(pf)
    assert doc["lines"][-1]["formula"] == "!!!p -> !p"
    doc["lines"][-1]["formula"] = "!!p || !p"
    assert_identical(assert_reads_as_reference(doc), pf)

    doc = {
        "logic": {"n": 0, "k": 0},
        "hypotheses": ["p | q", "!!p || !p"],
        "lines": [
            {"formula": "p | q", "just": {"kind": "hyp", "index": 0}},
            {"formula": "(p|q)", "just": {"kind": "hyp", "index": 0}},
            {"formula": "!!!p -> !p", "just": {"kind": "hyp", "index": 1}},
            {"formula": "p ^*", "just": {"kind": "axiom", "schema": "Ax5",
                                         "subst": {"phi": "p"}}},
            {"formula": "p^o", "just": {"kind": "axiom", "schema": "Ax6",
                                        "subst": {"phi": "p"}}},
        ],
    }
    got = assert_reads_as_reference(doc)
    assert check(got)


# ----------------------------------------------------------------------
# Differential: one random fault or rewrite in a corpus document.
# ----------------------------------------------------------------------


def _sugared(text):
    """text written with sugar where its formula allows: (a -> a) -> a
    as @a and !a -> b as a || b, every compound in parentheses."""
    out = {}
    f = parse(text)
    for g in postorder(f, children, out):
        match g:
            case Atom(name):
                out[g] = name
            case Imp(Imp(a, b), c) if a is b is c:
                out[g] = f"@({out[a]})"
            case Imp(Neg(a), b):
                out[g] = f"({out[a]}) || ({out[b]})"
            case Imp(a, b):
                out[g] = f"({out[a]}) -> ({out[b]})"
            case Neg(b):
                out[g] = f"!({out[b]})"
    return out[f]


WRONG_TYPES = [3, -1, 1.5, None, True, "p ->", "q", ["p"], {"p": 1}]


def _mutate(doc, data):
    """Apply one drawn mutation to a line of doc (its lemma table too)."""
    raws = [raw for entry in doc.get("lemmas", []) for raw in entry] + doc["lines"]
    raw = data.draw(st.sampled_from(raws))
    just = raw["just"]
    texts = [(raw, "formula")] + [
        (b, v) for b in (just.get("subst"), just.get("bind")) if b for v in b
    ]
    fields = [(raw, k) for k in raw] + [(just, k) for k in just] + texts[1:]
    kind = data.draw(st.sampled_from(["swap", "respace", "sugar", "shift", "drop", "type"]))
    if kind == "swap":
        other = data.draw(st.sampled_from(raws))
        raw["formula"], other["formula"] = other["formula"], raw["formula"]
    elif kind in ("respace", "sugar"):
        holder, key = data.draw(st.sampled_from(texts))
        holder[key] = (_respace if kind == "respace" else _sugared)(holder[key])
    elif kind == "shift":
        at = [k for k in ("major", "minor", "index", "lemma") if k in just]
        if at:
            just[data.draw(st.sampled_from(at))] += data.draw(st.sampled_from([-1, 1]))
    else:
        holder, key = data.draw(st.sampled_from(fields))
        if kind == "drop":
            del holder[key]
        else:
            holder[key] = data.draw(st.sampled_from(WRONG_TYPES))


@pytest.fixture(scope="module")
def small_corpus(corpus):
    """The corpus documents under 20 kB, and the smallest with a lemma table."""
    docs = sorted((proof_to_json(pf) for pf in corpus), key=lambda d: len(json.dumps(d)))
    small = [d for d in docs if len(json.dumps(d)) < 20_000]
    return small + [next(d for d in docs if "lemmas" in d)]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mutated_documents_read_as_the_reference(small_corpus, data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(small_corpus))))
    _mutate(doc, data)
    assert_reads_as_reference(doc)


def _doc(lines, hyps=("p", "p -> q")):
    return {"logic": {"n": 1, "k": 1}, "hypotheses": list(hyps), "lines": lines}


AX1 = {"formula": "p -> q -> p",
       "just": {"kind": "axiom", "schema": "Ax1", "subst": {"phi": "p", "psi": "q"}}}
HYP0 = {"formula": "p", "just": {"kind": "hyp", "index": 0}}
HYP1 = {"formula": "p -> q", "just": {"kind": "hyp", "index": 1}}


def _mp(formula, major, minor):
    return {"formula": formula, "just": {"kind": "mp", "major": major, "minor": minor}}


def _ax(formula, schema, subst):
    just = {"kind": "axiom", "schema": schema, "subst": subst}
    return {"formula": formula, "just": just}


BAD_DOCUMENTS = [
    # references out of range or forward
    _doc([HYP0, HYP1, _mp("q", 0, 1)]),
    _doc([HYP0, HYP1, _mp("q", 3, 1)]),
    _doc([HYP0, HYP1, _mp("q", 4, 1)]),
    _doc([HYP0, HYP1, _mp("q", -1, 1)]),
    _doc([HYP0, HYP1, _mp("q", 10**30, 1)]),
    _doc([HYP0, HYP1, _mp("q", 2, 7)]),
    _doc([HYP0, {"formula": "p", "just": {"kind": "hyp", "index": 2}}]),
    _doc([HYP0, {"formula": "p -> q", "just": {"kind": "hyp", "index": -1}}]),
    _doc([HYP0, {"formula": "p", "just": {"kind": "hyp", "index": -2}}]),
    _doc([HYP0, HYP1, _mp("q", 2, 1), _mp("q", 3, 1)]),
    # the major is no implication, or its consequent is not the text
    _doc([HYP0, HYP1, _mp("q", 1, 1)]),
    _doc([HYP0, HYP1, _mp("r", 2, 1)]),
    # schemas and substitutions
    _doc([_ax("p -> q -> p", "Ax13", {"phi": "p", "psi": "q"})]),
    _doc([_ax("p -> q -> p", "ax1", {"phi": "p", "psi": "q"})]),
    _doc([_ax("p -> q -> p", "Ax1", {"phi": "p"})]),
    _doc([_ax("p -> q -> p", "Ax1", {"phi": "p", "psi": "q", "theta": "r"})]),
    _doc([_ax("p -> q -> p", "Ax1", {"phi": "p", "chi": "q"})]),
    _doc([_ax("p -> q -> p", "Ax1", {})]),
    _doc([{"formula": "p -> q -> p", "just": {"kind": "axiom", "schema": "Ax1"}}]),
    _doc([_ax("q -> p -> q", "Ax1", {"phi": "p", "psi": "q"})]),
    _doc([_ax("!(p -> p) -> p", "Ax5", {"phi": "p"})]),
    _doc([AX1, _ax("p -> q -> p", "Ax1", {"phi": "p", "psi": "q -> p"})]),
    # non-string and malformed fields
    _doc([{"formula": 3, "just": {"kind": "hyp", "index": 0}}]),
    _doc([{"formula": None, "just": {"kind": "hyp", "index": 0}}]),
    _doc([{"just": {"kind": "hyp", "index": 0}}]),
    _doc([_ax("p -> q -> p", "Ax1", {"phi": 3, "psi": "q"})]),
    _doc([_ax("p -> q -> p", "Ax1", {"phi": ["p"], "psi": "q"})]),
    _doc([_ax("p -> q -> p", "Ax1", {"phi": {"p": 1}, "psi": "q"})]),
    _doc([_ax("p -> q -> p", 1, {"phi": "p", "psi": "q"})]),
    _doc([_ax("p -> q -> p", "Ax1", ["p", "q"])]),
    _doc([HYP0, {"formula": "p", "just": {"kind": "hyp", "index": "0"}}]),
    _doc([HYP0, {"formula": "p", "just": {"kind": "hyp", "index": True}}]),
    _doc([HYP0, {"formula": "p", "just": {"kind": "hyp"}}]),
    _doc([HYP0, HYP1, _mp("q", True, 1)]),
    _doc([HYP0, HYP1, _mp("q", 2, "1")]),
    _doc([HYP0, HYP1, {"formula": "q", "just": {"kind": "mp", "major": 2}}]),
    _doc([HYP0, {"formula": "p", "just": {"kind": "cut", "at": 1}}]),
    _doc([HYP0, {"formula": "p", "just": ["hyp", 0]}]),
    _doc([HYP0, {"formula": "p"}]),
    _doc([HYP0, "p"]),
    _doc([HYP0], hyps=("p", 3)),
    _doc([HYP0], hyps=("p", "p ->")),
    _doc([]),
    {"logic": {"n": 1, "k": 1}, "hypotheses": "p", "lines": [HYP0]},
    {"logic": {"n": -1, "k": 1}, "lines": [HYP0]},
    {"logic": {"n": True, "k": 1}, "lines": [HYP0]},
    {"logic": {"n": 1}, "lines": [HYP0]},
    # a fault in the formula is reported before one in the justification
    _doc([HYP0, {"formula": "p ->", "just": {"kind": "hyp", "index": "0"}}]),
    _doc([HYP0, {"formula": "p ->", "just": {"kind": "cut"}}]),
    _doc([HYP0, {"formula": "p -> é", "just": 5}]),
    _doc([_ax("p -> q ->", "Ax1", {"phi": "p ->", "psi": "q"})]),
    _doc([_ax("p -> q -> p", "Ax1", {"phi": "p", "psi": "q ->"})]),
    _doc([_ax("p -> q -> p)", "Ax1", {"phi": 3, "psi": "q"})]),
    _doc([_ax("p -> q -> p", "Ax1", {"phi": "(p", "psi": 3})]),
    _doc([_ax(7, "Ax1", {"phi": "(p", "psi": "q"})]),
    _doc([AX1, _ax("p -> q -> p", "Ax1", {"phi": "p", "psi": "q", "x": "->"})]),
]


@pytest.mark.parametrize("i", range(len(BAD_DOCUMENTS)))
def test_malformed_and_invalid_documents_read_as_the_reference(i):
    doc = BAD_DOCUMENTS[i]
    got = assert_reads_as_reference(doc)
    if got is not None:
        # every document above that reads is a proof check must judge
        check(got)
    assert_reads_as_reference(json.dumps(doc))


# ----------------------------------------------------------------------
# Documents no reader must choke on.
# ----------------------------------------------------------------------


def _hyp_doc(text, copies=3):
    return {
        "logic": {"n": 0, "k": 0},
        "hypotheses": [text],
        "lines": [{"formula": text, "just": {"kind": "hyp", "index": 0}}] * copies,
    }


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_deep_formulas_are_read_in_linear_memory():
    # the text of every subformula of a 20 000-deep chain is 200 MB
    chain = "!" * 20000 + "p"
    got = []
    assert _peak_mb(lambda: got.append(proof_from_json(_hyp_doc(chain)))) < 40
    assert check(got[0])
    right = "p -> " * 5000 + "p"
    assert _peak_mb(lambda: got.append(proof_from_json(_hyp_doc(right)))) < 40
    assert check(got[1])


def test_a_short_text_does_not_render_a_long_prediction():
    # 2000 lines of text "p" cite a 20 000-deep hypothesis: no line walks it
    doc = _hyp_doc("!" * 20000 + "p", copies=1)
    doc["lines"] += [{"formula": "p", "just": {"kind": "hyp", "index": 0}}] * 2000
    start = time.perf_counter()
    pf = proof_from_json(doc)
    assert time.perf_counter() - start < 2
    assert check(pf).line == 2


def test_shared_subformulas_are_not_spelled_out():
    # p^o sixteen times over is a small DAG whose text has far more
    # characters than memory holds
    text = "p" + "^o" * 16
    start = time.perf_counter()
    pf = proof_from_json(_hyp_doc(text, copies=50))
    assert time.perf_counter() - start < 1
    assert pf.conclusion is parse(text)


def test_a_large_axiom_family_is_not_built_for_a_short_text():
    # the library reader is uncapped; an Ax5 pattern of 10^6 negations
    # cannot be spelled in the text, so it is not built
    doc = {
        "logic": {"n": 10**6, "k": 0},
        "lines": [_ax("p", "Ax5", {"phi": "p"})],
    }
    got = []
    assert _peak_mb(lambda: got.append(proof_from_json(doc))) < 5
    assert got[0].params.n == 10**6 and got[0].conclusion is p
    # nor by check, which builds no formula larger than the line's
    start = time.perf_counter()
    assert _peak_mb(lambda: got.append(check(got[0]))) < 5
    assert time.perf_counter() - start < 0.5
    assert got[1].reason == "formula is not the declared Ax5 instance"


NOT_JSON = [
    ("[" * 100_000 + "]" * 100_000).encode(),
    b'{"logic": {"n": 0, "k": 0}, "lines": [{"formula": "p\xff"}]}',
    b'{"logic": {"n": 0, "k": 0}, "lines": [], "x": ' + b"1" * 5000 + b"}",
    "{not json",
]


@pytest.mark.parametrize("data", NOT_JSON, ids=["deep", "bad-utf8", "long-int", "junk"])
def test_undecodable_documents_are_format_errors(data):
    with pytest.raises(ProofFormatError, match="^not valid JSON: "):
        proof_from_json(data)
    if isinstance(data, bytes) and data.startswith(b"["):
        with pytest.raises(ProofFormatError, match="^not valid JSON: "):
            proof_from_json(data.decode())


@pytest.mark.parametrize("data", NOT_JSON[:3], ids=["deep", "bad-utf8", "long-int"])
def test_check_on_an_undecodable_file_is_a_usage_error(data, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert main(["--json", "check", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: bad proof file: not valid JSON: ")


@pytest.mark.parametrize("command", [["check"], ["dt", "--discharge", "0"]])
def test_proof_files_are_capped_like_every_command(command, tmp_path, capsys):
    doc = {
        "logic": {"n": 17, "k": 0},
        "hypotheses": ["p"],
        "lines": [HYP0],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert proof_from_json(doc).params == LogicParams(17, 0)
    rc = main(["--json", command[0], str(path)] + command[1:])
    out = capsys.readouterr()
    assert rc == 2 and out.out == ""
    assert "capped at 16" in out.err


# ----------------------------------------------------------------------
# The writer.
# ----------------------------------------------------------------------


def test_writer_matches_rendering_every_field(corpus):
    for pf in corpus:
        assert proof_to_json(pf) == reference_to_json(pf)


def test_deep_formulas_are_written_in_linear_memory():
    # the text of every subformula of a 20 000-deep chain is 200 MB; the
    # document and the CLI listing keep only what their budget allows
    chain = parse("!" * 20000 + "p")
    pf = Proof(LogicParams(0, 0), (chain,), (ProofLine(chain, Hyp(0)),))
    got = []
    assert _peak_mb(lambda: got.append(proof_to_json(pf))) < 5
    assert got[0] == reference_to_json(pf)
    assert _peak_mb(lambda: got.append(_format_proof(pf))) < 5
    text = "!" * 20000 + "p"
    assert got[1] == f"logic: (0,0)\nhypotheses:\n  [0] {text}\n1. {text}   [hyp 0]"


@pytest.mark.parametrize(
    "nk, text, lines",
    [
        pytest.param((1, 0), "!!p || !p", 2387, id="nk0-!!p || !p-3170"),
        pytest.param(
            (1, 1), "p -> (q -> (r -> p))", 1791, id="nk1-p -> (q -> (r -> p))-7951"
        ),
        pytest.param((16, 16), "p -> p", 1778, id="nk2-p -> p-7278"),
    ],
)
def test_writer_matches_rendering_every_field_on_the_pinned_proofs(nk, text, lines):
    cited = complete_prove(LogicParams(*nk), parse(text))
    flat = expand(cited)
    assert len(flat) == lines
    for pf in (cited, flat):
        doc = proof_to_json(pf)
        assert json.dumps(doc) == json.dumps(reference_to_json(pf))
        assert_identical(proof_from_json(doc), pf)
