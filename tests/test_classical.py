"""Classical-fragment proof synthesis."""

import random
import time

import pytest

from inpk.classical import (
    NotClassicalImage,
    classical_core,
    classical_prove,
    untranslate,
)
from inpk.formula import Atom, Imp, Neg, parse, strong_neg
from inpk.proofs import check, expand, substitute, substitute_proof
from inpk.semantics import LogicParams, is_tautology
from inpk.templates import TEMPLATES, derive_template

from helpers import random_formula


def tr(f):
    """Read a classical formula into the strong-negation fragment."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, Imp):
        return Imp(tr(f.ant), tr(f.cons))
    return strong_neg(tr(f.body))


def test_untranslate_inverts_the_reading():
    rng = random.Random(3)
    for _ in range(60):
        f = random_formula(rng, ["p", "q", "r"], rng.randint(0, 6))
        assert untranslate(tr(f)) is f


def test_untranslate_rejects_plain_negation():
    p = Atom("p")
    with pytest.raises(NotClassicalImage):
        untranslate(Neg(p))
    with pytest.raises(NotClassicalImage):
        untranslate(Imp(strong_neg(p), Neg(Imp(p, p))))


@pytest.mark.parametrize("depth", [2000, 10**4])
def test_untranslate_deep_strong_negations(depth):
    p = Atom("p")
    image, source = p, p
    for _ in range(depth):
        image, source = strong_neg(image), Neg(source)
    assert untranslate(image) is source


def test_untranslate_reports_leftmost_plain_negation():
    p, q = Atom("p"), Atom("q")
    # two offending negations: the one in the antecedent is met first
    f = Imp(strong_neg(Imp(q, Neg(q))), Neg(p))
    with pytest.raises(NotClassicalImage, match=r"at <formula !q>"):
        untranslate(f)
    with pytest.raises(NotClassicalImage, match=r"at <formula !p>"):
        untranslate(Imp(Neg(p), Neg(q)))


def test_prove_fragment_examples():
    params = LogicParams(1, 1)
    targets = [
        tr(parse("!!p -> p")),
        parse("((p -> q) -> p) -> p"),
        tr(parse("(!p -> !q) -> (q -> p)")),
        tr(parse("!p | p")),
    ]
    for f in targets:
        pf = classical_prove(params, f)
        assert not pf.hypotheses
        assert pf.conclusion is f
        assert check(pf)
        assert is_tautology(params, f)


def test_prove_random_shell_instances():
    rng = random.Random(11)
    params = LogicParams(0, 1)
    shells = [
        parse("x -> x"),
        parse("x -> (y -> x)"),
        parse("((x -> y) -> x) -> x"),
        parse("!!x -> x"),
        parse("x -> !!x"),
        parse("(!x -> !y) -> (y -> x)"),
    ]
    for _ in range(12):
        shell = rng.choice(shells)
        inst = substitute(
            shell,
            {
                "x": random_formula(rng, ["p", "q"], rng.randint(0, 3)),
                "y": random_formula(rng, ["p", "q"], rng.randint(0, 2)),
            },
        )
        f = tr(inst)
        pf = classical_prove(params, f)
        assert check(pf)
        assert pf.conclusion is f


def test_prove_rejects_non_tautology_source():
    with pytest.raises(ValueError, match="not a classical tautology"):
        classical_prove(LogicParams(0, 0), tr(parse("p -> q")))


def test_core_replaces_atoms_with_units():
    params = LogicParams(2, 0)
    units = {"x": parse("p -> p"), "y": strong_neg(Atom("q"))}
    pf = substitute_proof(classical_core(params, parse("x -> (y -> x)")), units)
    assert check(pf)
    assert pf.conclusion is Imp(units["x"], Imp(units["y"], units["x"]))
    assert not pf.hypotheses


def test_core_default_units_are_identity():
    params = LogicParams(0, 0)
    skeleton = parse("!x -> (x -> y)")
    pf = classical_core(params, skeleton)
    assert pf.conclusion is tr(skeleton)
    assert check(pf)


def test_core_on_a_deep_non_tautology_raises_value_error():
    f = Atom("p")
    for _ in range(3000):
        f = Imp(f, Atom("q"))
    with pytest.raises(ValueError, match="not a classical tautology"):
        classical_core(LogicParams(1, 1), f)


def test_core_proves_a_deep_tautology():
    p = Atom("p")
    f = p
    for _ in range(3000):
        f = Imp(p, f)
    pf = classical_core(LogicParams(1, 1), f)
    assert pf.conclusion is f and not pf.hypotheses
    assert check(pf)


def test_core_builds_only_the_cases_a_merge_needs():
    params = LogicParams(1, 1)
    classical_core(params, parse("x -> (y -> x)"))  # the lemmas, built once
    names = [Atom(f"a{i}") for i in range(12)]
    f = names[0]
    for a in reversed(names):
        f = Imp(a, f)
    start = time.perf_counter()
    pf = classical_core(params, f)
    assert time.perf_counter() - start < 0.5
    assert len(pf.lines) == 91 and len(pf.lemmas) == 4
    assert len(expand(pf).lines) == 651
    assert pf.conclusion is f and check(pf)


def test_core_names_the_first_failing_assignment_in_canonical_order():
    # p <-> q fails under p=True, q=False and p=False, q=True; the
    # canonical order (False first, first atom most significant) meets
    # the second first
    with pytest.raises(ValueError, match="fails under p=False, q=True$"):
        classical_core(LogicParams(0, 0), parse("(p -> q) && (q -> p)"))


# The templates that are built by classical_node, whose case merges are
# elided when an arm does not rest on its literal.
_CLASSICAL_TEMPLATES = (
    "or_intro_left",
    "and_elim_left",
    "and_elim_right",
    "or_elim",
    "and_intro",
    "and_to_or",
)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(3) for k in range(3)])
def test_core_proves_every_classical_template_skeleton(n, k):
    params = LogicParams(n, k)
    for tid in _CLASSICAL_TEMPLATES:
        statement = TEMPLATES[tid].statement
        pf = classical_core(params, untranslate(statement))
        assert pf.conclusion is statement and not pf.hypotheses
        assert check(pf), tid
        # the template is that proof, its citations expanded
        info = TEMPLATES[tid]
        identity = {v: Atom(v) for v in info.metavariables}
        assert derive_template(tid, identity, params) == expand(pf), tid
