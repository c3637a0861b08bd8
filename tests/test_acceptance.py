"""Acceptance suite: the end-to-end guarantees the package ships with.

Each test here exercises one headline property at a fixed, reproducible
scale. Proof objects produced along the way are collected into a shared
corpus; the final test brute-forces every small one of them against the
semantics, so nothing the proof layer emits escapes semantic scrutiny.
"""

from __future__ import annotations

import random
import re

from inpk.classical import classical_prove
from inpk.formula import (
    Atom,
    Formula,
    Imp,
    Neg,
    and_,
    atoms,
    iter_neg,
    or_,
    parse,
    render,
)
from inpk.kalmar import complete_prove, lemma1_derive, lemma2_combine
from inpk.proofs import (
    AXIOM_IDS,
    Proof,
    axiom_metavariables,
    axiom_pattern,
    axiom_proof,
    check,
    deduction_transform,
    expand,
    rule_perm,
    rule_red,
    rule_trans,
    substitute,
)
from inpk.semantics import (
    F,
    LogicParams,
    T,
    OrderVerdict,
    compare_logics,
    entails,
    enumerate_valuations,
    is_tautology,
    separating_witness,
)
from inpk.templates import TEMPLATES, derive_template, template_ids

from helpers import random_formula, random_proof, random_subst

P = Atom("p")

# Every proof produced by the tests below lands here; the last test
# replays the small ones against brute-force entailment.
CORPUS: list[Proof] = []


def record(pf: Proof) -> None:
    CORPUS.append(pf)


def grid(bound: int) -> list[LogicParams]:
    return [
        LogicParams(n, k)
        for n in range(bound + 1)
        for k in range(bound + 1)
    ]


# ----------------------------------------------------------------------
# 1. Every axiom schema is sound: random instances are tautologies.
# ----------------------------------------------------------------------


def test_axiom_schemas_are_sound_under_random_substitution():
    rng = random.Random(101)
    names = ["p", "q", "r"]
    for params in grid(3):
        for schema in AXIOM_IDS:
            pattern = axiom_pattern(schema, params)
            mv = axiom_metavariables(schema)
            for _ in range(200):
                inst = substitute(pattern, random_subst(rng, mv, names, 6))
                verdict = is_tautology(params, inst)
                assert verdict, (
                    f"{schema} instance fails in ({params.n},{params.k}): "
                    f"{render(inst)}"
                )


# ----------------------------------------------------------------------
# 2. Weak completeness at desk scale: every small tautology is provable
#    and the synthesized proof survives the checker unchanged.
# ----------------------------------------------------------------------


def one_atom_formulas(max_comp: int) -> list[Formula]:
    by_comp: dict[int, list[Formula]] = {0: [P]}
    for c in range(1, max_comp + 1):
        layer = [Neg(f) for f in by_comp[c - 1]]
        for i in range(c):
            for a in by_comp[i]:
                for b in by_comp[c - 1 - i]:
                    layer.append(Imp(a, b))
        by_comp[c] = layer
    return [f for c in range(max_comp + 1) for f in by_comp[c]]


def test_every_small_tautology_is_provable():
    pool = one_atom_formulas(4)
    assert len(pool) == 121

    rng = random.Random(202)
    two_atom = [
        random_formula(rng, ["p", "q"], rng.randint(0, 5)) for _ in range(100)
    ]

    proved = 0
    for params in (
        LogicParams(0, 0),
        LogicParams(1, 0),
        LogicParams(0, 1),
        LogicParams(1, 1),
        LogicParams(2, 1),
    ):
        for f in pool + two_atom:
            if not is_tautology(params, f):
                continue
            pf = complete_prove(params, f)
            assert check(pf)
            assert pf.hypotheses == ()
            assert pf.conclusion is f
            record(pf)
            proved += 1
    assert proved >= 150


# ----------------------------------------------------------------------
# 4. The hierarchy is the reversed product order on the parameters, and
#    every strict separation comes with a semantically verified witness.
# ----------------------------------------------------------------------


def test_hierarchy_matches_reversed_product_order_with_witnesses():
    logics = grid(2)
    assert len(logics) == 9
    for a in logics:
        for b in logics:
            weaker = b.n <= a.n and b.k <= a.k  # a proves no more than b
            stronger = a.n <= b.n and a.k <= b.k
            if weaker and stronger:
                expected = OrderVerdict.EQUAL
            elif weaker:
                expected = OrderVerdict.STRICTLY_BELOW
            elif stronger:
                expected = OrderVerdict.STRICTLY_ABOVE
            else:
                expected = OrderVerdict.INCOMPARABLE
            assert compare_logics(a, b) is expected

            # witness valid in x, refuted in y, whenever y is strictly
            # more permissive in some coordinate
            for x, y in ((a, b), (b, a)):
                w = separating_witness(x, y)
                if y.n > x.n or y.k > x.k:
                    assert w is not None
                    assert is_tautology(x, w)
                    refuted = is_tautology(y, w)
                    assert not refuted and refuted.counterexample
                else:
                    assert w is None


# ----------------------------------------------------------------------
# 5. Excluded middle and non-contradiction hold exactly at the depth the
#    parameters dictate, and one step shallower already fails.
# ----------------------------------------------------------------------


def test_depth_indexed_excluded_middle_and_non_contradiction():
    for params in grid(4):
        n, k = params.n, params.k
        mep = or_(iter_neg(n + 1, P), iter_neg(n, P))
        ncp = Neg(and_(iter_neg(k + 1, P), iter_neg(k, P)))
        assert is_tautology(params, mep)
        assert is_tautology(params, ncp)
        if n >= 1:
            shallow = or_(iter_neg(n, P), iter_neg(n - 1, P))
            assert not is_tautology(params, shallow)


# ----------------------------------------------------------------------
# 6. The whole template registry instantiates, checks, and is valid.
# ----------------------------------------------------------------------


def test_template_registry_instantiates_checks_and_is_valid():
    ids = template_ids()
    assert len(ids) >= 27
    rng = random.Random(606)
    names = ["p", "q", "r"]
    for params in grid(2):
        for tid in ids:
            info = TEMPLATES[tid]
            subst = random_subst(rng, info.metavariables, names, 3)
            pf = derive_template(tid, subst, params)
            assert check(pf)
            assert pf.hypotheses == ()
            assert pf.conclusion is substitute(info.statement, subst)
            assert is_tautology(params, pf.conclusion)
            record(pf)


# ----------------------------------------------------------------------
# 7. The deduction transform round-trips syntactically and matches the
#    semantic equivalence between hypotheses and implications.
# ----------------------------------------------------------------------


def test_deduction_transform_round_trip():
    rng = random.Random(707)
    names = ["p", "q", "r"]
    done = 0
    while done < 50:
        params = LogicParams(rng.randint(0, 2), rng.randint(0, 2))
        hyps = [
            random_formula(rng, names, rng.randint(0, 2))
            for _ in range(rng.randint(1, 2))
        ]
        pf = random_proof(rng, params, hyps, rng.randint(3, 8), names)
        record(pf)
        i = rng.randrange(len(hyps))
        out = deduction_transform(pf, i)
        assert check(out)
        assert out.conclusion is Imp(hyps[i], pf.conclusion)
        assert out.hypotheses == tuple(h for j, h in enumerate(hyps) if j != i)
        record(out)
        done += 1


def test_hypothesis_and_implication_consequence_agree():
    rng = random.Random(717)
    names = ["p", "q", "r"]
    for _ in range(500):
        params = LogicParams(rng.randint(0, 2), rng.randint(0, 2))
        gamma = [
            random_formula(rng, names, rng.randint(0, 3))
            for _ in range(rng.randint(0, 2))
        ]
        f = random_formula(rng, names, rng.randint(0, 3))
        g = random_formula(rng, names, rng.randint(0, 3))
        with_hyp = entails(params, gamma + [f], g)
        as_imp = entails(params, gamma, Imp(f, g))
        assert bool(with_hyp) == bool(as_imp)


# ----------------------------------------------------------------------
# 8. Counting: the valuation space has exactly (n+k+2)^m points, and
#    proof synthesis shrinks its case table by one atom per round.
# ----------------------------------------------------------------------


def test_valuation_space_cardinality():
    for params in grid(3):
        for m in range(4):
            names = [f"a{i}" for i in range(m)]
            count = sum(1 for _ in enumerate_valuations(params, names))
            assert count == params.size ** m


def test_prove_case_table_shrinks_one_atom_per_round():
    pattern = re.compile(r"eliminated (\w+): class (\d+)/(\d+)")
    cases = [
        (LogicParams(0, 0), parse("p -> (q -> (r -> p))")),
        (LogicParams(1, 0), parse("p -> (q -> p)")),
        (LogicParams(1, 1), parse("(p -> q) -> (p -> q)")),
    ]
    for params, f in cases:
        lines: list[str] = []
        pf = complete_prove(params, f, trace=lines.append)
        record(pf)
        m = len(atoms(f))
        rounds: dict[str, list[tuple[int, int]]] = {}
        order: list[str] = []
        for ln in lines:
            mt = pattern.search(ln)
            assert mt, ln
            name = mt.group(1)
            if name not in rounds:
                rounds[name] = []
                order.append(name)
            rounds[name].append((int(mt.group(2)), int(mt.group(3))))
        assert order == atoms(f)
        for j, name in enumerate(order):
            expected = params.size ** (m - 1 - j)
            seen = rounds[name]
            assert len(seen) == expected
            assert all(total == expected for _, total in seen)
            assert [i for i, _ in seen] == list(range(1, expected + 1))


# ----------------------------------------------------------------------
# 9. The three known classification facts at the corners of the grid.
# ----------------------------------------------------------------------


def test_corner_logic_classifications():
    mep = or_(Neg(P), P)
    ncp = Neg(and_(Neg(P), P))

    both = LogicParams(0, 0)
    assert is_tautology(both, mep)
    assert is_tautology(both, ncp)

    paraconsistent = LogicParams(0, 1)
    assert is_tautology(paraconsistent, mep)
    assert not is_tautology(paraconsistent, ncp)

    weakly_intuitionistic = LogicParams(1, 0)
    assert not is_tautology(weakly_intuitionistic, mep)
    assert is_tautology(weakly_intuitionistic, ncp)


# ----------------------------------------------------------------------
# 10. What the proof layer builds, the public checker accepts: linearize
#     verifies every proof it numbers, and check confirms it from outside.
# ----------------------------------------------------------------------


def test_every_built_proof_passes_the_public_checker():
    rng = random.Random(1010)
    names = ["p", "q", "r"]
    theta = Imp(P, P)
    for params in (LogicParams(0, 0), LogicParams(1, 1), LogicParams(2, 1)):
        for tid in template_ids():
            subst = random_subst(rng, TEMPLATES[tid].metavariables, names, 2)
            assert check(derive_template(tid, subst, params)), (params, tid)
        # lemma2's branch order: F_1..F_n, T_1..T_k, F_0, T_0
        order = [F(r) for r in range(1, params.n + 1)]
        order += [T(i) for i in range(1, params.k + 1)] + [F(0), T(0)]
        branches = [lemma1_derive(params, theta, {"p": w}) for w in order]
        assert all(map(check, branches))
        sides = [axiom_proof(params, ax, {"phi": P, "psi": P}) for ax in ("Ax3", "Ax4")]
        assert check(lemma2_combine(params, [], P, theta, branches, *sides))
        for f in one_atom_formulas(3):
            if is_tautology(params, f):
                pf = complete_prove(params, f)
                assert check(pf) and check(expand(pf)), render(f)


# ----------------------------------------------------------------------
# 3. Checker soundness, run last: every small proof the suite produced
#    (plus a sweep of the remaining proof constructors) is semantically
#    valid by brute force.
# ----------------------------------------------------------------------


def _extra_constructor_proofs() -> list[Proof]:
    out: list[Proof] = []
    rng = random.Random(303)
    names = ["p", "q", "r"]
    for params in grid(2):
        for schema in AXIOM_IDS:
            subst = random_subst(rng, axiom_metavariables(schema), names, 2)
            out.append(axiom_proof(params, schema, subst))
        hyps = [random_formula(rng, names, rng.randint(0, 2))]
        out.append(random_proof(rng, params, hyps, 5, names))
    return out


def test_every_collected_proof_is_semantically_valid():
    corpus = list(CORPUS) + _extra_constructor_proofs()

    # sweep the proof constructors not hit by the earlier tests
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    for params in (LogicParams(0, 0), LogicParams(1, 1), LogicParams(2, 2)):
        t1 = axiom_proof(params, "Ax1", {"phi": p, "psi": q})
        corpus.append(t1)
        pq = deduction_transform(
            random_proof(random.Random(9), params, [p], 4), 0
        )
        corpus.append(pq)
        corpus.append(rule_perm(axiom_proof(params, "Ax1", {"phi": p, "psi": q})))
        corpus.append(
            rule_trans(
                axiom_proof(params, "Ax1", {"phi": p, "psi": q}),
                axiom_proof(params, "Ax1", {"phi": Imp(q, p), "psi": r}),
            )
        )
        corpus.append(
            rule_red(
                axiom_proof(params, "Ax2", {"phi": p, "psi": q, "theta": r})
            )
        )
        corpus.append(classical_prove(params, Imp(Imp(Imp(p, q), p), p)))
        for value in params.values():
            corpus.append(lemma1_derive(params, Imp(Neg(p), q), {
                "p": value, "q": params.values()[0],
            }))

    seen: set[tuple] = set()
    checked = 0
    for pf in corpus:
        if pf.params.n > 2 or pf.params.k > 2:
            continue
        names: dict[str, None] = {}
        for h in pf.hypotheses:
            for a in atoms(h):
                names[a] = None
        for a in atoms(pf.conclusion):
            names[a] = None
        if len(names) > 3:
            continue
        key = (pf.params, pf.hypotheses, pf.conclusion)
        if key in seen:
            continue
        seen.add(key)
        assert entails(pf.params, list(pf.hypotheses), pf.conclusion), (
            f"unsound proof in ({pf.params.n},{pf.params.k}): "
            f"{[render(h) for h in pf.hypotheses]} |/- {render(pf.conclusion)}"
        )
        checked += 1
    # the constructor sweep alone yields >100 distinct proofs; with the
    # rest of the module's output collected, far more
    assert checked >= (300 if CORPUS else 100)
