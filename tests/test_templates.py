"""Behavior of the derived-theorem registry."""

import random

import pytest

from inpk import classical, proofs, templates
from inpk.formula import Atom, Imp, Neg, and_, circ, or_, parse, star
from inpk.proofs import (
    Axiom,
    check,
    expand_node,
    instantiate,
    lemma_node,
    substitute,
)
from inpk.semantics import LogicParams, is_tautology
from inpk.templates import TEMPLATES, derive_template, lemma, template_ids

from helpers import random_formula

GRID = [LogicParams(0, 0), LogicParams(1, 0), LogicParams(0, 1), LogicParams(1, 1)]


def ident(info):
    return {v: Atom(v) for v in info.metavariables}


_P, _PQ, _PQR = ("phi",), ("phi", "psi"), ("phi", "psi", "theta")

# every template's metavariables, in registry order
_METAVARIABLES = {
    "refl": _P,
    "elim_classicalize": _P,
    "intro_classicalize": _P,
    "star_of_star": _P,
    "circ_of_star": _P,
    "star_of_classicalize": _P,
    "circ_of_classicalize": _P,
    "star_intro": _P,
    "star_strong_to_weak_neg": _P,
    "converse_contraposition": _PQ,
    "contraposition": _PQ,
    "strong_neg_cases_classicalize": _PQ,
    "strong_neg_cases": _PQ,
    "or_intro_left": _PQ,
    "or_intro_right": _PQ,
    "and_elim_left": _PQ,
    "and_elim_right": _PQ,
    "or_elim": _PQR,
    "and_intro": _PQ,
    "and_to_or": _PQ,
    "circ_explosion": _PQ,
    "circ_of_circ": _P,
    "negstar_to_circ": _P,
    "strongneg_to_circ": _P,
    "star_neg_or_left": _PQ,
    "circ_refute_imp": _PQ,
    "star_of_neg_imp": _PQ,
    "circ_of_neg_imp": _PQ,
    "circ_of_negstar": _P,
    "negstar_explosion": _PQ,
}


def test_registry_shape():
    ids = template_ids()
    assert len(ids) == 30
    assert len(set(ids)) == len(ids)
    assert ids == tuple(_METAVARIABLES)
    for tid in ids:
        info = TEMPLATES[tid]
        assert info.id == tid
        assert info.metavariables == _METAVARIABLES[tid]
        # templates.lemma binds phi, psi, theta by position
        assert info.metavariables == _PQR[: len(info.metavariables)]
        assert set(info.statement.atom_names) == set(info.metavariables)


def test_statement_oracles():
    a, b = Atom("phi"), Atom("psi")
    assert TEMPLATES["refl"].statement is parse("phi -> phi")
    assert TEMPLATES["star_intro"].statement is Imp(a, star(a))
    assert TEMPLATES["and_elim_left"].statement is Imp(and_(a, b), a)
    assert TEMPLATES["or_intro_right"].statement is Imp(b, or_(a, b))
    assert TEMPLATES["contraposition"].statement is Imp(
        star(a), Imp(circ(b), Imp(Imp(a, b), Imp(Neg(b), Neg(a))))
    )
    assert TEMPLATES["strongneg_to_circ"].statement is parse(
        "~phi -> phi^o"
    )
    assert TEMPLATES["negstar_explosion"].statement is Imp(
        Neg(star(a)), Imp(a, b)
    )


@pytest.mark.parametrize("params", GRID, ids=str)
def test_generics_check_and_hold(params):
    for tid in template_ids():
        info = TEMPLATES[tid]
        pf = derive_template(tid, ident(info), params)
        assert not pf.hypotheses
        assert pf.params == params
        assert pf.conclusion is info.statement
        assert check(pf), tid
        assert is_tautology(params, info.statement), tid


def test_random_instances_check_and_hold():
    rng = random.Random(7)
    for params in (LogicParams(0, 0), LogicParams(2, 1)):
        for _ in range(3):
            for tid in template_ids():
                info = TEMPLATES[tid]
                subst = {
                    v: random_formula(rng, ["p", "q"], rng.randint(0, 2))
                    for v in info.metavariables
                }
                pf = derive_template(tid, subst, params)
                assert check(pf), tid
                assert is_tautology(params, pf.conclusion), tid


def test_one_line_templates_are_bare_axioms():
    params = LogicParams(1, 1)
    for tid in ("intro_classicalize", "star_of_star", "circ_of_star",
                "star_of_classicalize", "circ_of_classicalize", "star_intro",
                "or_intro_right"):
        info = TEMPLATES[tid]
        pf = derive_template(tid, ident(info), params)
        assert len(pf) == 1, tid
        assert isinstance(pf.lines[0].just, Axiom), tid
        assert pf.lines[0].formula is info.statement, tid


def sizes():
    return len(proofs._NODES), len(proofs._GENERICS)


def test_instances_are_memoized():
    params = LogicParams(1, 0)
    subst = {"phi": parse("p -> q"), "psi": Atom("q")}
    first = derive_template("contraposition", subst, params)
    before = sizes()
    second = derive_template("contraposition", dict(subst), params)
    assert first == second
    assert sizes() == before


def test_identity_instance_is_the_generic():
    params = LogicParams(0, 0)
    info = TEMPLATES["refl"]
    first = derive_template("refl", ident(info), params)
    before = sizes()
    assert derive_template("refl", ident(info), params) == first
    assert sizes() == before


def test_unknown_id():
    with pytest.raises(ValueError, match="unknown template"):
        derive_template("no_such_template", {}, LogicParams(0, 0))


def test_missing_binding():
    with pytest.raises(ValueError, match="binding"):
        derive_template("contraposition", {"phi": Atom("p")}, LogicParams(0, 0))


def test_extra_bindings_are_ignored():
    params = LogicParams(0, 0)
    pf = derive_template(
        "refl", {"phi": Atom("p"), "psi": Atom("q")}, params
    )
    assert pf.conclusion is parse("p -> p")


PLACEHOLDERS = (Atom("phi"), Atom("psi"), Atom("theta"))
CLASSICAL_HELPERS = ("nn_elim", "nn_intro", "exfalso", "contrap", "negimp", "merge")


def lemma_builders():
    yield from templates._BUILDERS.items()
    for name in CLASSICAL_HELPERS:
        yield name, getattr(classical, "_build_" + name)


@pytest.mark.parametrize("params", [LogicParams(1, 1), LogicParams(0, 2)], ids=str)
def test_lemma_builds_once_and_cites_once(params):
    rng = random.Random(11)
    for name, build in lemma_builders():
        generic = build(params)
        ident = PLACEHOLDERS[: len(generic.formula.atom_names)]
        swapped = (PLACEHOLDERS[1], PLACEHOLDERS[0])[: len(ident)] + ident[2:]
        binds = [swapped] + [
            tuple(random_formula(rng, ["p", "phi", "psi"], rng.randint(0, 2))
                  for _ in ident)
            for _ in range(2)
        ]
        assert not generic.hyps, name
        assert lemma(build, params, ident) is generic, name
        flat = expand_node(generic, params)
        for bind in binds:
            if bind == ident:
                continue
            got = lemma(build, params, bind)
            subst = {a.name: f for a, f in zip(PLACEHOLDERS, bind)}
            assert got is lemma_node(generic, subst), (name, bind)
            assert got.lemma is generic and not got.hyps, (name, bind)
            assert got.formula is substitute(generic.formula, subst), (name, bind)
            assert lemma(build, params, bind) is got, (name, bind)
            # the citation stands for the instance it used to copy
            want = instantiate(flat, subst, params)
            assert expand_node(got, params) is want, (name, bind)
