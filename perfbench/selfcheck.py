"""Checks of the benchmark's checks: each must fail on a planted wrong answer.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It exits 0 when every planted fault was caught and every true answer
was accepted, and prints one line per case.  It takes a few seconds.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, error, caught: bool) -> None:
    ok = bool(error) == caught
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {error or 'accepted'}")
    if not ok:
        FAILURES.append(label)


def reference_cases() -> None:
    rng = random.Random(7)
    for n, k in ((0, 0), (1, 0), (0, 2), (2, 1)):
        mat = ref.Matrix(n, k)
        for schema, arity in ref.AXIOM_ARITY.items():
            args = [W.random_formula(rng, ["a", "b"], rng.randint(0, 3)) for _ in range(arity)]
            f = ref.axiom(schema, n, k, *args)
            if mat.first_counterexample([], f) is not None:
                expect(f"reference: {schema} valid in ({n},{k})", "refuted", False)
    for a, b in (((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 2), (3, 2))):
        w = ref.separating_witness(*a, *b)
        ok = (ref.Matrix(*a).first_counterexample([], w) is None
              and ref.Matrix(*b).first_counterexample([], w) is not None)
        expect(f"reference: witness {a} vs {b}", None if ok else "wrong verdicts", False)
    # the matrix itself: one grade toward F0/T0, and F0 <-> T0
    mat = ref.Matrix(2, 1)
    names = [mat.name(mat.neg(c)) for c in range(mat.size)]
    expect("reference: negation table of (2,1)",
           None if names == ["T0", "F0", "F1", "F0", "T0"] else names, False)


def decide_cases(inpk) -> None:
    wl = W.Decide()
    wl.make_inputs(1)
    wl.setup(inpk)
    small_refuted = next(i for i, q in enumerate(wl.queries)
                         if not q.get("large") and not wl.ops[i]().valid)
    small_valid = next(i for i, q in enumerate(wl.queries)
                       if not q.get("large") and wl.ops[i]().valid)
    large_refuted = next(i for i, q in enumerate(wl.queries)
                         if q.get("large") and q["expect"] is not None)
    for i in (small_refuted, small_valid, large_refuted):
        expect(f"decide: true answer to query {i}", wl.check(i, wl.ops[i]())[0], False)

    q = wl.queries[small_valid]
    names = ref.atom_order([h[1] for h in q["hyps"]] + [q["goal"][1]])
    fake = inpk.Verdict(False, {nm: inpk.F(0) for nm in names})
    expect("decide: flipped verdict (valid reported refuted)", wl.check(small_valid, fake)[0], True)

    for i in (small_refuted, large_refuted):
        expect(f"decide: flipped verdict on query {i} (refuted reported valid)",
               wl.check(i, inpk.Verdict(True))[0], True)
        v = wl.ops[i]()
        params = inpk.LogicParams(wl.queries[i]["n"], wl.queries[i]["k"])
        cex = dict(v.counterexample)
        last = list(cex)[-1]
        code = (params.code(cex[last]) + 1) % params.size
        cex[last] = params.value_of_code(code)
        expect(f"decide: shifted counterexample on query {i}",
               wl.check(i, inpk.Verdict(False, cex))[0], True)


def prove_cases(inpk) -> None:
    wl = W.Prove()
    wl.items = [(0, 0, ref.imp(ref.atom("a"), ref.imp(ref.atom("b"), ref.atom("a"))))]
    wl.setup(inpk)
    proof = wl.ops[0]()
    expect("prove: true proof", wl.check(0, proof)[0], False)

    j = len(proof.lines) // 2
    line = proof.lines[j]
    bad_line = inpk.ProofLine(inpk.Neg(line.formula), line.just)
    replaced = inpk.Proof(proof.params, proof.hypotheses,
                          proof.lines[:j] + (bad_line,) + proof.lines[j + 1:])
    expect("prove: one proof line replaced", wl.check(0, replaced)[0], True)

    other = inpk.complete_prove(proof.params, inpk.parse("a -> a"))
    expect("prove: proof of another formula", wl.check(0, other)[0], True)

    with_hyp = inpk.Proof(proof.params, (inpk.parse("a"),), proof.lines)
    expect("prove: proof with a hypothesis", wl.check(0, with_hyp)[0], True)

    # the soundness check alone: with a checker that accepts anything, an
    # invalid line must still be caught by the reference semantics
    real_check = inpk.check
    inpk.check = lambda pf: inpk.CheckVerdict(True)
    try:
        expect("prove: invalid line behind a checker that accepts all",
               wl.check(0, replaced)[0], True)
    finally:
        inpk.check = real_check


def interchange_cases(inpk) -> None:
    wl = W.Interchange()
    wl.specs = [("template", 0, 0, "strong_neg_cases", [ref.atom("a"), ref.atom("b")]),
                ("template", 1, 0, "refl", [ref.imp(ref.atom("a"), ref.atom("c"))])]
    wl.seed = "selfcheck"
    wl.setup(inpk)
    os.makedirs(W.OUT_DIR, exist_ok=True)
    try:
        for i, op in enumerate(wl.ops):
            expect(f"interchange: true file {i}", wl.check(i, op())[0], False)

        with open(wl._path(0), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["lines"][3]["formula"] = "b -> a"
        data = json.dumps(doc, indent=2).encode()
        expect("interchange: written line differs from the source proof",
               wl._verify(0, data), True)

        # tampered copies must be rejected: plant a checker that accepts all
        real = wl.cli.check
        wl.cli.check = lambda pf: inpk.CheckVerdict(True)
        try:
            with open(wl._path(0), encoding="utf-8") as fh:
                doc = json.load(fh)
            expect("interchange: tampered file accepted", wl._tamper_checks(0, doc), True)
        finally:
            wl.cli.check = real

        rc_out = wl.ops[1]()
        with open(wl._path(1), "a", encoding="utf-8") as fh:
            fh.write(" ")
        expect("interchange: later round wrote different bytes", wl.check(1, rc_out)[0], True)
    finally:
        wl.cleanup()


def main() -> int:
    inpk = run.import_program()
    reference_cases()
    decide_cases(inpk)
    prove_cases(inpk)
    with contextlib.redirect_stderr(sys.stdout):
        interchange_cases(inpk)
    print(f"{len(FAILURES)} case(s) failed" if FAILURES else "all cases passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
