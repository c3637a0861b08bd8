"""Constructive completeness machinery."""

import json
import os
import random
import resource
import subprocess
import sys
import time

import pytest

from inpk import kalmar, proofs, semantics

from inpk.formula import (
    Atom,
    Imp,
    Neg,
    and_,
    atoms,
    circ,
    classicalize,
    iter_neg,
    parse,
    render,
    star,
    strong_neg,
)
from inpk.kalmar import (
    NotATautology,
    build_delta,
    build_q_set,
    complete_prove,
    lemma1_derive,
    lemma2_combine,
    phi_v,
)
from inpk.classical import classical_core
from inpk.proofs import (
    Proof,
    ProofLine,
    Hyp,
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
    weaken,
)
from inpk.semantics import (
    F,
    LogicParams,
    T,
    entails,
    enumerate_valuations,
    eval_formula,
    eval_subformulas,
    is_tautology,
)
from inpk.templates import derive_template

from helpers import random_formula

p, q = Atom("p"), Atom("q")


# -- witness forms -----------------------------------------------------------


def test_phi_v_examples():
    lp = LogicParams(1, 1)
    assert phi_v(lp, p, {"p": T(1)}) is p
    assert phi_v(lp, p, {"p": F(1)}) is iter_neg(2, p)
    assert phi_v(LogicParams(0, 0), p, {"p": F(0)}) is Neg(p)


def test_phi_v_tracks_designation():
    rng = random.Random(5)
    lp = LogicParams(1, 1)
    for _ in range(40):
        f = random_formula(rng, ["p", "q"], rng.randint(0, 4))
        for v in enumerate_valuations(lp, atoms(f)):
            w = eval_formula(lp, f, v)
            g = phi_v(lp, f, v)
            if w.designated:
                assert g is f
            else:
                assert g is iter_neg(w.index + 1, f)


# -- context blocks ----------------------------------------------------------


def test_q_set_shapes():
    assert build_q_set(LogicParams(1, 0), "p", F(0)) == (strong_neg(p), star(p))
    assert build_q_set(LogicParams(0, 1), "p", T(0)) == (classicalize(p), circ(p))
    assert build_q_set(LogicParams(2, 0), "p", F(2)) == (
        Neg(star(p)),
        Neg(star(Neg(p))),
        star(iter_neg(2, p)),
    )
    assert build_q_set(LogicParams(0, 2), "p", T(2)) == (
        and_(Neg(p), p),
        and_(iter_neg(2, p), Neg(p)),
        circ(iter_neg(2, p)),
    )


def test_q_set_value_out_of_range():
    with pytest.raises(ValueError):
        build_q_set(LogicParams(1, 0), "p", T(1))
    with pytest.raises(ValueError):
        build_q_set(LogicParams(1, 0), "p", F(2))


def test_q_set_formulas_are_designated_at_their_value():
    # the whole point of a context block: it is true exactly where claimed
    for n in range(3):
        for k in range(3):
            lp = LogicParams(n, k)
            for w in lp.values():
                for g in build_q_set(lp, "p", w):
                    assert eval_formula(lp, g, {"p": w}).designated


def test_build_delta_orders_by_atom():
    lp = LogicParams(1, 0)
    v = {"p": F(1), "q": T(0)}
    d = build_delta(lp, ["p", "q"], v)
    assert [c.atom for c in d.contexts] == ["p", "q"]
    assert d.formulas == build_q_set(lp, "p", F(1)) + build_q_set(lp, "q", T(0))


# -- per-valuation derivations -----------------------------------------------


def test_lemma1_atom_examples():
    pf = lemma1_derive(LogicParams(1, 0), p, {"p": F(0)})
    assert pf.hypotheses == (strong_neg(p), star(p))
    assert pf.conclusion is Neg(p)
    assert check(pf)

    pf = lemma1_derive(LogicParams(0, 1), Neg(p), {"p": T(1)})
    assert pf.hypotheses == (and_(Neg(p), p), circ(Neg(p)))
    assert pf.conclusion is Neg(p)
    assert check(pf)


def test_lemma1_implication_example():
    lp = LogicParams(1, 1)
    f = Imp(p, q)
    pf = lemma1_derive(lp, f, {"p": T(0), "q": T(0)})
    assert pf.conclusion is f
    assert check(pf)
    assert pf.hypotheses == build_delta(lp, ["p", "q"], {"p": T(0), "q": T(0)}).formulas


def test_lemma1_random_scope():
    rng = random.Random(13)
    grid = [LogicParams(0, 0), LogicParams(1, 0), LogicParams(0, 1),
            LogicParams(1, 1), LogicParams(2, 2)]
    for _ in range(60):
        lp = rng.choice(grid)
        f = random_formula(rng, ["p", "q"], rng.randint(0, 4))
        names = atoms(f)
        v = {nm: rng.choice(lp.values()) for nm in names}
        pf = lemma1_derive(lp, f, v)
        assert pf.conclusion is phi_v(lp, f, v)
        assert pf.hypotheses == build_delta(lp, names, v).formulas
        assert check(pf), (lp, f, v)


def test_lemma1_unbound_atom():
    with pytest.raises(ValueError, match="unbound atom 'p'"):
        lemma1_derive(LogicParams(0, 0), p, {})
    with pytest.raises(ValueError, match="unbound atom 'q'"):
        lemma1_derive(LogicParams(1, 0), Imp(p, q), {"p": F(0)})


# -- case elimination --------------------------------------------------------


def _star_circ(params, f):
    # f must be an implication here
    return (
        axiom_proof(params, "Ax3", {"phi": f.ant, "psi": f.cons}),
        axiom_proof(params, "Ax4", {"phi": f.ant, "psi": f.cons}),
    )


def test_combine_single_atom():
    lp = LogicParams(1, 0)
    theta = parse("p -> p")
    order = [F(1), F(0), T(0)]
    branches = [lemma1_derive(lp, theta, {"p": w}) for w in order]
    ts, tc = _star_circ(lp, theta)
    pf = lemma2_combine(lp, [], p, theta, branches, ts, tc)
    assert pf.hypotheses == ()
    assert pf.conclusion is theta
    assert check(pf)


def test_combine_degenerate_logic():
    lp = LogicParams(0, 0)
    theta = parse("p -> p")
    branches = [lemma1_derive(lp, theta, {"p": w}) for w in (F(0), T(0))]
    ts, tc = _star_circ(lp, theta)
    pf = lemma2_combine(lp, [], p, theta, branches, ts, tc)
    assert pf.hypotheses == () and pf.conclusion is theta
    assert check(pf)


def test_combine_with_context_left_over():
    lp = LogicParams(1, 1)
    f = parse("p -> (q -> p)")
    order = [F(1), T(1), F(0), T(0)]
    delta = build_q_set(lp, "q", T(0))
    branches = [lemma1_derive(lp, f, {"p": w, "q": T(0)}) for w in order]
    ts, tc = _star_circ(lp, f)
    pf = lemma2_combine(lp, delta, p, f, branches, ts, tc)
    assert pf.hypotheses == delta
    assert pf.conclusion is f
    assert check(pf)


def test_combine_accepts_reordered_hypotheses():
    lp = LogicParams(0, 0)
    theta = parse("p -> p")
    branches = []
    for w in (F(0), T(0)):
        b = lemma1_derive(lp, theta, {"p": w})
        branches.append(weaken(b, tuple(reversed(b.hypotheses))))
    ts, tc = _star_circ(lp, theta)
    pf = lemma2_combine(lp, [], p, theta, branches, ts, tc)
    assert check(pf) and pf.conclusion is theta


def test_combine_rejects_wrong_count():
    lp = LogicParams(1, 0)
    theta = parse("p -> p")
    ts, tc = _star_circ(lp, theta)
    with pytest.raises(ValueError, match="branch proofs"):
        lemma2_combine(lp, [], p, theta, [], ts, tc)


def test_combine_rejects_wrong_conclusion():
    lp = LogicParams(0, 0)
    theta = parse("p -> p")
    other = parse("p -> (q -> p)")
    ts, tc = _star_circ(lp, theta)
    good = [lemma1_derive(lp, theta, {"p": w}) for w in (F(0), T(0))]
    bad = [lemma1_derive(lp, other, {"p": w, "q": T(0)}) for w in (F(0), T(0))]
    with pytest.raises(ValueError, match="conclude"):
        lemma2_combine(lp, [], p, theta, bad, ts, tc)
    # stray hypotheses (q's context) are also rejected
    with pytest.raises(ValueError, match="hypotheses"):
        lemma2_combine(
            lp,
            [],
            p,
            theta,
            [weaken(pf, pf.hypotheses + (Atom("q"),)) for pf in good],
            ts,
            tc,
        )


def test_combine_rejects_a_branch_for_another_logic():
    lp = LogicParams(0, 0)
    theta = parse("p -> p")
    ts, tc = _star_circ(lp, theta)
    branches = [lemma1_derive(lp, theta, {"p": F(0)})]
    branches.append(lemma1_derive(LogicParams(1, 0), theta, {"p": T(0)}))
    with pytest.raises(ValueError, match="branch 1 built for a different logic"):
        lemma2_combine(lp, [], p, theta, branches, ts, tc)


def test_combine_verify_catches_broken_branch():
    lp = LogicParams(0, 0)
    theta = parse("p -> p")
    ts, tc = _star_circ(lp, theta)
    block = build_q_set(lp, "p", F(0))
    forged = Proof(lp, block, (ProofLine(theta, Hyp(0)),))
    assert not check(forged)
    good_t0 = lemma1_derive(lp, theta, {"p": T(0)})
    with pytest.raises(ValueError, match="does not check"):
        lemma2_combine(lp, [], p, theta, [forged, good_t0], ts, tc)


def test_combine_rejects_hypothesized_side_theorems():
    lp = LogicParams(0, 0)
    theta = parse("p -> p")
    branches = [lemma1_derive(lp, theta, {"p": w}) for w in (F(0), T(0))]
    ts, tc = _star_circ(lp, theta)
    with pytest.raises(ValueError, match="theta_star"):
        lemma2_combine(lp, [], p, theta, branches, weaken(ts, (q,)), tc)


# -- full synthesis ----------------------------------------------------------


def test_complete_prove_examples():
    cases = [
        ((0, 0), "p -> p"),
        ((1, 1), "!!p || !p"),
        ((0, 1), "~p || p"),
    ]
    for (n, k), text in cases:
        lp = LogicParams(n, k)
        f = parse(text)
        pf = complete_prove(lp, f)
        assert not pf.hypotheses
        assert pf.conclusion is f
        assert check(pf)


def test_complete_prove_two_atoms():
    lp = LogicParams(1, 0)
    f = parse("p -> (q -> p)")
    pf = complete_prove(lp, f)
    assert pf.conclusion is f and not pf.hypotheses
    assert check(pf)


def test_complete_prove_rejects_with_counterexample():
    lp = LogicParams(1, 0)
    f = parse("!p || p")
    with pytest.raises(NotATautology) as exc:
        complete_prove(lp, f)
    cex = exc.value.counterexample
    assert not eval_formula(lp, f, cex).designated
    assert "counterexample" not in str(exc.value)  # message names the valuation
    assert "F1" in str(exc.value)


def test_complete_prove_trace_counts_classes():
    lp = LogicParams(0, 1)
    f = parse("p -> (q -> p)")
    lines = []
    pf = complete_prove(lp, f, trace=lines.append)
    assert check(pf)
    first = [ln for ln in lines if ln.startswith("eliminated p")]
    second = [ln for ln in lines if ln.startswith("eliminated q")]
    assert len(first) == lp.size and len(second) == 1


def test_complete_prove_random_tautologies():
    rng = random.Random(23)
    proved = 0
    for lp in (LogicParams(1, 0), LogicParams(0, 1)):
        for _ in range(25):
            f = random_formula(rng, ["p", "q"], rng.randint(1, 4))
            if not is_tautology(lp, f):
                continue
            pf = complete_prove(lp, f)
            assert pf.conclusion is f and not pf.hypotheses
            assert check(pf)
            proved += 1
    assert proved >= 5


def test_complete_prove_output_is_semantically_entailed():
    lp = LogicParams(0, 1)
    f = parse("~(!p && p) -> (~p || p)")
    pf = complete_prove(lp, f)
    assert check(pf)
    assert entails(lp, [], pf.conclusion)


# -- pinned outputs ----------------------------------------------------------
# Line counts of the synthesis that elides vacuous case merges, counted
# on the flat proof that expands every lemma citation in place. Each row
# is named by its count before the elision (the line-list code that
# the node kernel replaced gave the same lines, in another order), which
# the never-longer test below keeps as an upper bound.


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
def test_complete_prove_line_counts_are_pinned(nk, text, lines):
    lp = LogicParams(*nk)
    f = parse(text)
    pf = complete_prove(lp, f)
    flat = expand(pf)
    assert len(flat) == lines
    assert pf.conclusion is f and not pf.hypotheses
    assert check(pf) and check(flat)


# The same proofs as they are returned: (lines, lemmas, lines of the lemmas).
@pytest.mark.parametrize(
    "nk, text, cited",
    [
        ((1, 0), "!!p || !p", (177, 16, 922)),
        ((1, 1), "p -> (q -> (r -> p))", (145, 16, 872)),
        ((16, 16), "p -> p", (132, 16, 872)),
    ],
)
def test_complete_prove_cited_counts_are_pinned(nk, text, cited):
    pf = complete_prove(LogicParams(*nk), parse(text))
    assert (len(pf), len(pf.lemmas), sum(map(len, pf.lemmas))) == cited


def test_lemma1_and_its_transforms_are_pinned():
    from inpk.proofs import deduction_transform

    lp = LogicParams(1, 1)
    # (flat line counts, cited line counts) of the proof and its transforms
    cases = [
        ("p -> (q -> p)", {"p": F(1), "q": T(1)},
         [261, 264, 263, 263, 263, 261], [3, 11, 5, 5, 5, 3]),
        ("!!p || !p", {"p": T(1)}, [857, 864, 859, 857], [5, 17, 7, 5]),
        ("(p -> q) -> (p -> q)", {"p": T(0), "q": F(1)},
         [388, 416, 390, 395, 390, 388], [39, 67, 41, 51, 41, 39]),
    ]
    for text, v, flat, cited in cases:
        pf = lemma1_derive(lp, parse(text), v)
        got = [pf]
        got += [deduction_transform(pf, i) for i in range(len(pf.hypotheses))]
        got.append(weaken(pf, tuple(reversed(pf.hypotheses))))
        assert [len(expand(x)) for x in got] == flat, text
        assert [len(x) for x in got] == cited, text


def test_trace_ends_with_the_length_of_the_proof():
    lp = LogicParams(1, 0)
    lines = []
    pf = complete_prove(lp, parse("p -> (q -> p)"), trace=lines.append)
    last = lines[-1]
    assert last.startswith("eliminated q: class 1/1, ")
    assert last.endswith(f", {len(pf)} lines")


def test_complete_prove_on_a_deep_formula():
    # one derivation step per nesting level, walked from an explicit stack
    f = p
    for _ in range(1500):
        f = Imp(p, f)
    pf = complete_prove(LogicParams(0, 0), f)
    assert pf.conclusion is f and not pf.hypotheses
    assert (len(pf), len(pf.lemmas)) == (3003, 0)
    assert len(expand(pf)) == 3003
    assert check(pf)


# -- tautological subformulas -----------------------------------------------
# A proper subformula that is a tautology is proved once, hypothesis-free:
# x -> x by refl, a consequent with a theorem by Ax1, anything else by a
# synthesis at canonical atom names that the proof cites.


def _star16(name):
    return star(iter_neg(16, Atom(name)))


def test_a_subgoal_is_synthesized_once_and_cited_at_its_atoms():
    a, b = Atom("a"), Atom("b")
    f = Imp(Neg(Neg(Imp(a, a))), Neg(Neg(Imp(b, b))))
    pf = complete_prove(LogicParams(1, 1), f)
    assert check(pf) and pf.conclusion is f
    # !!(a -> a) and !!(b -> b) share one lemma; f is Ax1 over the second
    p1 = Atom("p1")
    assert [entry[-1].formula for entry in pf.lemmas] == [Neg(Neg(Imp(p1, p1)))]
    assert len(pf) == 3


def test_every_subgoal_route_checks():
    r = Atom("r")
    # refl for p -> p, Ax1 for q -> (p -> p), synthesis for the double
    # negation, and the goal itself by Ax1 over that synthesis
    f = Imp(r, Neg(Neg(Imp(q, Imp(p, p)))))
    for nk in [(0, 0), (1, 0), (0, 1), (2, 2)]:
        pf = complete_prove(LogicParams(*nk), f)
        assert check(pf) and check(expand(pf))
        assert pf.lemmas[-1][-1].formula is parse("!!(p1 -> (p2 -> p2))")


def test_complete_prove_decides_only_the_goal(monkeypatch):
    calls = []
    decide = semantics._decide

    def counted(*args):
        calls.append(args[2])
        return decide(*args)

    monkeypatch.setattr(kalmar, "_decide", counted)
    monkeypatch.setattr(semantics, "_decide", counted)
    f = parse("!!(p -> p) -> (q -> !!(q -> (p -> p)))")
    assert check(complete_prove(LogicParams(1, 1), f))
    assert calls == [f]


def test_a_consequent_with_a_theorem_needs_one_leaf(monkeypatch):
    # Ax1 over the consequent's theorem comes before the antecedent's F
    # cases, so the first leaf rests on no context and ends the synthesis
    built = []
    derive = kalmar._Lemma1.derive

    def counted(self, f):
        built.append(f)
        return derive(self, f)

    monkeypatch.setattr(kalmar._Lemma1, "derive", counted)
    for nk in [(0, 0), (1, 1), (3, 3)]:
        built.clear()
        assert check(complete_prove(LogicParams(*nk), parse("p -> (p -> p)")))
        assert len(built) == 1


def test_a_subgoal_prints_no_trace_line():
    f = Imp(Neg(Neg(Imp(p, p))), Imp(q, Neg(Neg(Imp(q, q)))))
    lines = []
    pf = complete_prove(LogicParams(1, 1), f, trace=lines.append)
    assert [line.split(":")[0] for line in lines] == ["eliminated p"] * 4 + [
        "eliminated q"
    ]
    assert lines[-1].endswith(f", {len(pf)} lines")


def test_two_star_atoms_at_16_16_share_one_subgoal():
    # 206 804 main lines and 1156 leaves before subgoals were cited
    f = and_(_star16("a"), _star16("b"))
    pf = complete_prove(LogicParams(16, 16), f)
    assert len(pf) <= 12042
    assert check(pf)
    conclusions = [entry[-1].formula for entry in pf.lemmas]
    assert conclusions.count(_star16("p1")) == 1


_CAPPED_LIBRARY = """
import sys
from inpk.formula import parse
from inpk.kalmar import complete_prove
from inpk.proofs import check
from inpk.semantics import LogicParams
pf = complete_prove(LogicParams(16, 16), parse(sys.argv[1]))
assert pf.conclusion is parse(sys.argv[1]) and check(pf)
"""


def _capped(argv, tmp_path):
    """Run a fresh interpreter under a 1 GiB address-space cap."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(proofs.__file__))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=cap, timeout=120,
    )


def test_three_star_atoms_at_16_16_prove_under_a_memory_cap(tmp_path):
    # a MemoryError under a 3 GB cap before subgoals were cited
    text = render(and_(and_(_star16("a"), _star16("b")), _star16("c")))
    done = _capped(["-c", _CAPPED_LIBRARY, text], tmp_path)
    assert done.returncode == 0, done.stderr
    done = _capped(
        ["-m", "inpk.cli", "prove", "--n", "16", "--k", "16", text, "-o", "pf.json"],
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    pf = proof_from_json((tmp_path / "pf.json").read_text())
    assert pf.conclusion is parse(text) and check(pf)


def test_a_returned_binding_is_read_only():
    # a generic's numbered lines are shared by every proof that cites it
    lp = LogicParams(1, 1)
    pf = complete_prove(lp, Imp(p, p))
    subst = next(
        line.just.subst
        for entry in pf.lemmas
        for line in entry
        if type(line.just) is proofs.Axiom
    )
    mutators = [
        lambda b: b.__delitem__("phi"),
        lambda b: b.update(phi=q),
        lambda b: b.pop("phi"),
        lambda b: b.popitem(),
        lambda b: b.setdefault("chi", q),
        lambda b: b.clear(),
    ]
    before = dict(subst)
    for mutate in mutators:
        with pytest.raises(TypeError):
            mutate(subst)
    with pytest.raises(TypeError):
        subst["phi"] = q
    with pytest.raises(TypeError):
        subst |= {"phi": q}
    bind = next(line.just.bind for line in pf.lines if type(line.just) is proofs.Lemma)
    with pytest.raises(TypeError):
        bind["phi"] = q
    with pytest.raises(TypeError):
        del bind["phi"]
    assert subst == before
    # a line holds its node's binding: numbering twice copies nothing
    node = proofs.refl_node(lp, p)
    first, second = proofs.linearize(node, lp), proofs.linearize(node, lp)
    assert first.lines[0].just.subst is second.lines[0].just.subst
    # equal to the plain dict of its pairs, whatever order that was built in
    b = proofs.Binding({"psi": q, "phi": p})
    assert b == {"phi": p, "psi": q} == b and b == {"psi": q, "phi": p}
    assert hash(b) == hash(proofs.Binding({"phi": p, "psi": q}))
    assert list(b) == ["phi", "psi"] and proofs.Binding.of(b) is b
    r = Atom("r")
    assert check(complete_prove(lp, Imp(r, r)))
    # a binding from a plain dict still makes an axiom line
    ax1 = ProofLine(Imp(p, Imp(q, p)), proofs.Axiom("Ax1", {"phi": p, "psi": q}))
    assert check(Proof(lp, (), (ax1,)))


# -- vacuous merges and lazy branches ----------------------------------------
# A case split whose arm does not rest on its case hypothesis takes that
# arm as its result, and only the branches some split needs are built.

# Line counts before the elision, each an upper bound on the count now:
# the goal shapes of the benchmark's prove workload, in its order, under
# fixed atom names (the last repeats the first) ...
_GOALS_BEFORE_ELISION = [
    ((1, 0), "!!x || !x", 3170),
    ((1, 0), "x -> y -> x", 4794),
    ((1, 0), "(x -> y) -> x -> y", 4934),
    ((1, 0), "!!(x -> x)", 2402),
    ((0, 0), "x -> y -> x", 3909),
    ((0, 0), "(x -> y) -> x -> y", 4137),
    ((0, 0), "!!x || !x", 496),
    ((0, 0), "x -> x -> x", 1959),
    ((0, 1), "!!x || !x", 2029),
    ((0, 1), "x -> y -> x", 4229),
    ((0, 1), "!!(x -> x)", 2135),
    ((1, 1), "!!x || !x", 4084),
    ((1, 1), "x -> x -> x", 2541),
    ((1, 1), "!!(x -> x)", 2564),
    ((3, 3), "!!(x -> x)", 3204),
    ((3, 3), "x -> x -> x", 3181),
    ((0, 0), "x -> y -> y", 3924),
    ((1, 0), "y -> x -> y", 4794),
    ((3, 3), "x -> x", 3170),
    ((0, 0), "y -> x -> y", 3909),
    ((1, 0), "!!x || !x", 3170),
]
# ... and the pinned rows above
_PINNED_BEFORE_ELISION = [
    ((1, 0), "!!p || !p", 3170),
    ((1, 1), "p -> (q -> (r -> p))", 7951),
    ((16, 16), "p -> p", 7278),
]


def test_synthesized_proofs_are_never_longer_than_before_elision():
    for nk, text, before in _GOALS_BEFORE_ELISION + _PINNED_BEFORE_ELISION:
        assert len(complete_prove(LogicParams(*nk), parse(text))) <= before, text
    from inpk.proofs import deduction_transform

    pf = lemma1_derive(LogicParams(1, 1), parse("!!p || !p"), {"p": T(1)})
    got = [len(pf)]
    got += [len(deduction_transform(pf, i)) for i in range(len(pf.hypotheses))]
    got.append(len(weaken(pf, tuple(reversed(pf.hypotheses)))))
    assert len(got) == 4
    assert all(a <= b for a, b in zip(got, [1349, 1356, 1351, 1349]))
    f = p
    for _ in range(1500):
        f = Imp(p, f)
    assert len(complete_prove(LogicParams(0, 0), f)) <= 10947


def _seeded_tautologies():
    """One tautology per logic with n, k <= 2, over 1 to 3 atoms."""
    rng = random.Random(8)
    found = []
    for n in range(3):
        for k in range(3):
            lp = LogicParams(n, k)
            names = ["p", "q", "r"][: 1 + (n + 2 * k) % 3]
            while True:
                f = random_formula(rng, names, rng.randint(len(names), 6))
                if len(atoms(f)) == len(names) and is_tautology(lp, f):
                    break
            found.append((lp, f))
    return found


def _assert_every_line_is_valid(lp, pf):
    # all line formulas as one implication chain, evaluated once per
    # valuation with every subformula's value
    formulas = list(dict.fromkeys(line.formula for line in pf.lines))
    chain = formulas[-1]
    for g in reversed(formulas[:-1]):
        chain = Imp(g, chain)
    for v in enumerate_valuations(lp, atoms(chain)):
        values = eval_subformulas(lp, chain, v)
        bad = [g for g in formulas if not values[g].designated]
        assert not bad, (v, bad[0])


def test_tracing_does_not_change_the_proof():
    cases = [(LogicParams(*nk), parse(text)) for nk, text, _ in _PINNED_BEFORE_ELISION]
    for lp, f in cases + _seeded_tautologies():
        lines = []
        traced = complete_prove(lp, f, trace=lines.append)
        untraced = complete_prove(lp, f)
        assert traced == untraced
        assert lines[-1].endswith(f", {len(traced)} lines")
        assert check(traced) and traced.conclusion is f and not traced.hypotheses
        _assert_every_line_is_valid(lp, traced)


def test_three_atoms_at_16_16_build_few_leaves():
    # 34^3 = 39 304 valuations; the eager leaf table took 8 s and 25 299 lines
    start = time.perf_counter()
    pf = complete_prove(LogicParams(16, 16), parse("a -> b -> c -> a"))
    assert time.perf_counter() - start < 1
    assert len(pf) <= 2000
    assert check(pf)


# -- table scope -------------------------------------------------------------

def _generics(params=None):
    """The generic lemmas, at params or at every logic."""
    return {
        key: node
        for key, node in proofs._GENERICS.items()
        if params in (None, key[1])
    }


def _sizes():
    return len(proofs._NODES), len(proofs._GENERICS), len(proofs._NUMBERED)


def _assert_generics_are_interned():
    """Every node under a generic lemma is the table's node for its key."""
    for (_, params), root in _generics().items():
        stack, seen = [root], set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node.major is not None:
                key = (node.major, node.minor)
                stack += (node.major, node.minor)
            elif node.schema is not None:
                key = (node.schema, node.subst, params.n, params.k)
            elif node.lemma is not None:
                key = (node.lemma, node.subst)
                stack.append(node.lemma)
            else:
                key = node.formula
            assert proofs._NODES.get(key) is node


def test_complete_prove_keeps_the_tables_flat_across_renamings():
    shapes = [
        ((1, 0), "{x} -> ({y} -> {x})"),
        ((0, 0), "({x} -> {y}) -> ({x} -> {y})"),
        ((1, 1), "!!{x} || !{x}"),
        ((0, 1), "!!({x} -> {x})"),
    ]
    sizes = []
    for x, y in (("ra", "rb"), ("sa", "sb"), ("ta", "tb")):
        # check adds no node either
        for (n, k), text in shapes:
            goal = parse(text.format(x=x, y=y))
            pf = complete_prove(LogicParams(n, k), goal)
            assert pf.conclusion is goal and check(pf)
        sizes.append(_sizes())
    assert sizes[0] == sizes[1] == sizes[2]
    _assert_generics_are_interned()


def test_complete_prove_keeps_the_generics_it_builds():
    params = LogicParams(4, 5)
    assert not _generics(params), "an earlier test used this logic"
    # atoms named as the placeholders make leaves cite the generics
    # themselves, next to nodes built afresh
    goal = parse("!!phi || !phi -> (psi -> !!phi || !phi)")
    first = json.dumps(proof_to_json(complete_prove(params, goal)))
    built = _generics(params)
    assert built
    _assert_generics_are_interned()
    sizes = _sizes()

    second = json.dumps(proof_to_json(complete_prove(params, goal)))
    assert second == first
    assert _sizes() == sizes
    again = _generics(params)
    assert again.keys() == built.keys()
    assert all(again[key] is node for key, node in built.items())


def test_complete_prove_drops_its_nodes_when_the_trace_raises():
    def stop_at(count):
        seen = []

        def trace(line):
            seen.append(line)
            if len(seen) == count:
                raise RuntimeError("stop")

        return trace

    params = LogicParams(3, 6)
    assert not _generics(params), "an earlier test used this logic"
    goal = parse("ua -> (ub -> ua)")
    nodes_before = set(map(id, proofs._NODES.values()))
    generics_before = set(proofs._GENERICS)
    with pytest.raises(RuntimeError):
        complete_prove(params, goal, trace=stop_at(3))
    # what is left is the generics this call built, over the placeholders
    placeholders = {"phi", "psi", "theta"}
    added = [
        node for node in proofs._NODES.values() if id(node) not in nodes_before
    ]
    assert added
    assert all(set(node.formula.atom_names) <= placeholders for node in added)
    assert all(key[1] == params for key in set(proofs._GENERICS) - generics_before)
    _assert_generics_are_interned()

    # once the generics exist, a raising call leaves the sizes as they were
    sizes = _sizes()
    with pytest.raises(RuntimeError):
        complete_prove(params, goal, trace=stop_at(3))
    assert _sizes() == sizes
    with pytest.raises(NotATautology):
        complete_prove(params, parse("ua -> ub"))
    assert _sizes() == sizes


def test_derive_template_keeps_the_tables_flat():
    params = LogicParams(1, 1)

    def derive(i):
        subst = {"phi": Atom(f"dt_a{i}"), "psi": Atom(f"dt_b{i}")}
        return derive_template("contraposition", subst, params)

    first = derive(0)
    _assert_generics_are_interned()
    sizes = _sizes()
    for i in range(1, 201):
        assert len(derive(i)) == len(first)
    assert _sizes() == sizes
    _assert_generics_are_interned()


def _fresh(i, name):
    return Atom(f"{name}_{i}")


def _leaf_fresh(i):
    a = _fresh(i, "leaf")
    return lemma1_derive(LogicParams(1, 1), Imp(a, a), {a.name: T(0)})


def _ax1_fresh(i, phi=None, b="ax_b"):
    """a -> (b -> a) over fresh atoms, or phi -> (b -> phi)."""
    a = _fresh(i, "ax_a") if phi is None else phi
    return axiom_proof(LogicParams(0, 0), "Ax1", {"phi": a, "psi": _fresh(i, b)})


def _combine_fresh(i):
    lp, a = LogicParams(1, 0), _fresh(i, "comb")
    theta = Imp(a, a)
    branches = [lemma1_derive(lp, theta, {a.name: w}) for w in (F(1), F(0), T(0))]
    return lemma2_combine(lp, [], a, theta, branches, *_star_circ(lp, theta))


def _cut_fresh(i):
    theorem = _ax1_fresh(i)
    h = theorem.conclusion
    return replace_hyp_with_theorem(
        Proof(LogicParams(0, 0), (h,), (ProofLine(h, Hyp(0)),)), 0, theorem
    )


def _trans_fresh(i):
    first = _ax1_fresh(i)
    return rule_trans(first, _ax1_fresh(i, first.conclusion.cons, "ax_c"))


# every public builder that makes proof nodes and returns a Proof, each
# call at atoms no other call uses
PUBLIC_BUILDERS = {
    "lemma1_derive": _leaf_fresh,  # each call used to leave 8 nodes
    "lemma2_combine": _combine_fresh,
    "classical_core": lambda i: classical_core(
        LogicParams(1, 1), Imp(_fresh(i, "cc"), Neg(Neg(_fresh(i, "cc"))))
    ),
    "axiom_proof": _ax1_fresh,
    "deduction_transform": lambda i: deduction_transform(_leaf_fresh(i), 0),
    "weaken": lambda i: weaken(_leaf_fresh(i), _leaf_fresh(i).hypotheses[::-1]),
    "prune": lambda i: prune(_leaf_fresh(i)),
    "replace_hyp_with_theorem": _cut_fresh,
    "rule_trans": _trans_fresh,
    "rule_perm": lambda i: rule_perm(_ax1_fresh(i)),
    "rule_red": lambda i: rule_red(_ax1_fresh(i, Imp(_fresh(i, "a"), _fresh(i, "b")))),
    "expand": lambda i: expand(
        complete_prove(LogicParams(0, 0), Imp(_fresh(i, "ex"), _fresh(i, "ex")))
    ),
}


@pytest.mark.parametrize("name", list(PUBLIC_BUILDERS))
def test_public_builders_keep_the_tables_flat(name):
    build = PUBLIC_BUILDERS[name]
    first = build(0)
    assert check(first)
    sizes = _sizes()
    calls = 200 if name == "lemma1_derive" else 20
    for i in range(1, calls + 1):
        assert len(build(i)) == len(first)
    assert _sizes() == sizes
    _assert_generics_are_interned()
