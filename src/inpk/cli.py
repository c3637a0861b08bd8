"""Command-line front end.

Each subcommand wraps one library operation: parsing and rendering,
truth tables, evaluation, tautology and consequence queries, hierarchy
comparison, proof checking, proof synthesis, and the deduction
transform.  Exit codes: 0 for success or a positive verdict, 1 for a
semantic negative (a counterexample or a rejected proof), 2 for usage,
syntax, or capacity errors.  ``--json`` switches every command to
machine-readable output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from .formula import (
    CONNECTIVES,
    Formula,
    FormulaSyntaxError,
    atoms,
    parse,
    render,
)
from .kalmar import NotATautology, complete_prove
from .proofs import (
    Axiom,
    Hyp,
    Lemma,
    Proof,
    ProofFormatError,
    _text_cache,
    check,
    deduction_transform,
    proof_from_json,
    proof_to_json,
)
from .semantics import (
    LogicParams,
    compare_logics,
    decision_size,
    entails,
    eval_formula,
    is_tautology,
    parse_valuation,
    render_valuation,
    separating_witness,
    truth_table,
)

MAX_PARAM = 16
# taut, entails and the check before prove refuse a query whose decision
# takes more than this many steps: the valuations left after the collapse
# times the subformulas evaluated at each (semantics.decision_size).  Near
# the budget a step took at most 1.6 * 10^-10 s (random queries at (16,16),
# one core, Python 3.11), so a query within it decides in under a second.
MAX_DECISION_STEPS = 5 * 10**9
# prove splits on the (n+k+2)^m valuations and derives only the cases a
# merge needs (the 34^3 = 39 304 cases of "a -> b -> c -> a" at (16,16)
# take about 0.14 s end to end, Python 3.11); synthesis has a budget of
# its own, which counts every case.
MAX_PROVE_CASES = 5 * 10**4


class _CliError(Exception):
    """User-facing problem with the invocation; exit code 2."""


def _params(n: int, k: int) -> LogicParams:
    if n > MAX_PARAM or k > MAX_PARAM:
        raise _CliError(
            f"n and k are capped at {MAX_PARAM} (got n={n}, k={k})"
        )
    try:
        return LogicParams(n, k)
    except ValueError as exc:
        raise _CliError(str(exc)) from None


def _decidable(params: LogicParams, formulas: list[Formula]) -> None:
    """The one capacity rule of a decision: refuse a query over the budget."""
    valuations, nodes = decision_size(params, formulas)
    if valuations * nodes > MAX_DECISION_STEPS:
        raise _CliError(
            f"{valuations} valuations times {nodes} subformulas at "
            f"(n,k) = ({params.n},{params.k}) make {valuations * nodes} "
            f"decision steps, over the budget of {MAX_DECISION_STEPS}"
        )


def _formula(text: str) -> Formula:
    try:
        return parse(text)
    except FormulaSyntaxError as exc:
        raise _CliError(f"syntax error: {exc}") from None


def _load_proof(path: str) -> Proof:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _CliError(str(exc)) from None
    try:
        proof = proof_from_json(data)
    except ProofFormatError as exc:
        raise _CliError(f"bad proof file: {exc}") from None
    _params(proof.params.n, proof.params.k)
    return proof


def _emit(args: argparse.Namespace, text: str, payload: dict[str, Any]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _format_proof(pf: Proof) -> str:
    text = _text_cache(pf).render

    def binding(subst) -> str:
        return ", ".join(f"{name} := {text(g)}" for name, g in sorted(subst.items()))

    def listing(lines, indent: str) -> None:
        for i, line in enumerate(lines, start=1):
            j = line.just
            if isinstance(j, Axiom):
                label = f"{j.schema} {{{binding(j.subst)}}}"
            elif isinstance(j, Hyp):
                label = f"hyp {j.index}"
            elif isinstance(j, Lemma):
                label = f"lemma {j.index + 1} {{{binding(j.bind)}}}"
            else:
                label = f"mp {j.major + 1}, {j.minor + 1}"
            out.append(f"{indent}{i}. {text(line.formula)}   [{label}]")

    out = [f"logic: ({pf.params.n},{pf.params.k})"]
    if pf.hypotheses:
        out.append("hypotheses:")
        for i, h in enumerate(pf.hypotheses):
            out.append(f"  [{i}] {text(h)}")
    for e, entry in enumerate(pf.lemmas, start=1):
        out.append(f"lemma {e}:")
        listing(entry, "  ")
    listing(pf.lines, "")
    return "\n".join(out)


def _emit_proof(args: argparse.Namespace, pf: Proof) -> None:
    if args.output:
        # built before the file is opened, which truncates it
        doc = proof_to_json(pf)
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise _CliError(str(exc)) from None
        _emit(
            args,
            f"{len(pf)} lines -> {args.output}",
            {"lines": len(pf), "output": args.output},
        )
    elif args.json:
        print(json.dumps(proof_to_json(pf), indent=2))
    else:
        print(_format_proof(pf))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_parse(args: argparse.Namespace) -> int:
    f = _formula(args.expr)
    _emit(args, render(f), {"formula": render(f)})
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    params = _params(args.n, args.k)
    tt = truth_table(params, args.connective)
    labels = [str(v) for v in tt.values]
    width = max(len(s) for s in labels + [tt.connective])

    def pad(s: str) -> str:
        return s.ljust(width)

    rows: list[str] = []
    if tt.arity == 1:
        rows.append(pad(tt.connective) + "  " + "  ".join(map(pad, labels)))
        rows.append(
            pad("") + "  " + "  ".join(pad(str(x)) for x in tt.entries)
        )
        entries: Any = [str(x) for x in tt.entries]
    else:
        rows.append(pad(tt.connective) + "  " + "  ".join(map(pad, labels)))
        for label, row in zip(labels, tt.entries):
            rows.append(pad(label) + "  " + "  ".join(pad(str(x)) for x in row))
        entries = [[str(x) for x in row] for row in tt.entries]
    text = "\n".join(r.rstrip() for r in rows)
    _emit(
        args,
        text,
        {
            "connective": tt.connective,
            "n": params.n,
            "k": params.k,
            "values": labels,
            "entries": entries,
        },
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    params = _params(args.n, args.k)
    f = _formula(args.expr)
    try:
        v = parse_valuation(args.val)
        value = eval_formula(params, f, v)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    _emit(args, str(value), {"value": str(value)})
    return 0


def _refuted(args: argparse.Namespace, cex) -> int:
    _emit(
        args,
        "counterexample: " + render_valuation(cex),
        {"valid": False, "counterexample": {nm: str(w) for nm, w in cex.items()}},
    )
    return 1


def _verdict_exit(args: argparse.Namespace, verdict) -> int:
    if verdict:
        _emit(args, "valid", {"valid": True})
        return 0
    return _refuted(args, verdict.counterexample)


def _cmd_taut(args: argparse.Namespace) -> int:
    params = _params(args.n, args.k)
    f = _formula(args.expr)
    _decidable(params, [f])
    return _verdict_exit(args, is_tautology(params, f))


def _cmd_entails(args: argparse.Namespace) -> int:
    params = _params(args.n, args.k)
    hyps = [_formula(h) for h in args.hyp]
    goal = _formula(args.expr)
    _decidable(params, hyps + [goal])
    return _verdict_exit(args, entails(params, hyps, goal))


def _cmd_compare(args: argparse.Namespace) -> int:
    a = _params(args.n1, args.k1)
    b = _params(args.n2, args.k2)
    verdict = compare_logics(a, b)
    witnesses = []
    # a witness "valid in x, refuted in y" exists whenever y is strictly
    # more permissive in some coordinate
    for x, y in ((a, b), (b, a)):
        w = separating_witness(x, y)
        if w is not None:
            witnesses.append((w, x, y))
    lines = [verdict.value]
    payload: dict[str, Any] = {"order": verdict.value, "witnesses": []}
    for w, x, y in witnesses:
        lines.append(
            f"witness: {render(w)} (valid in ({x.n},{x.k}), "
            f"refuted in ({y.n},{y.k}))"
        )
        payload["witnesses"].append(
            {
                "formula": render(w),
                "valid_in": [x.n, x.k],
                "refuted_in": [y.n, y.k],
            }
        )
    _emit(args, "\n".join(lines), payload)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    verdict = check(_load_proof(args.proof))
    payload: dict[str, Any] = {"accepted": bool(verdict)}
    if not verdict:
        payload["reason"] = verdict.reason
        if verdict.line is not None:
            payload["line"] = verdict.line
    _emit(args, str(verdict), payload)
    return 0 if verdict else 1


def _cmd_prove(args: argparse.Namespace) -> int:
    params = _params(args.n, args.k)
    f = _formula(args.expr)
    _decidable(params, [f])
    cases = params.size ** len(atoms(f))
    if cases > MAX_PROVE_CASES:
        raise _CliError(
            f"{len(atoms(f))} atoms at (n,k) = ({params.n},{params.k}) make "
            f"{cases} cases to synthesize, over the budget of {MAX_PROVE_CASES}"
        )
    try:
        pf = complete_prove(params, f)
    except NotATautology as exc:
        return _refuted(args, exc.counterexample)
    _emit_proof(args, pf)
    return 0


def _cmd_dt(args: argparse.Namespace) -> int:
    pf = _load_proof(args.proof)
    if not 0 <= args.discharge < len(pf.hypotheses):
        raise _CliError(
            f"discharge index {args.discharge} out of range "
            f"(proof has {len(pf.hypotheses)} hypotheses)"
        )
    try:
        out = deduction_transform(pf, args.discharge)
    except ValueError as exc:
        # the input proof itself was rejected by the checker
        _emit(args, str(exc), {"accepted": False, "reason": str(exc)})
        return 1
    _emit_proof(args, out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_nk(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", type=int, required=True, help="negation depth parameter")
    sp.add_argument("--k", type=int, required=True, help="contradiction depth parameter")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="inpk",
        description="Workbench for the I^nP^k family of finite-valued logics.",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse a formula and print its primitive form")
    sp.add_argument("expr")
    sp.set_defaults(func=_cmd_parse)

    sp = sub.add_parser("table", help="print a connective's truth table")
    _add_nk(sp)
    sp.add_argument(
        "--connective", required=True, choices=sorted(CONNECTIVES)
    )
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("eval", help="evaluate a formula under a valuation")
    _add_nk(sp)
    sp.add_argument("--val", required=True, help="valuation, e.g. p=T1,q=F0")
    sp.add_argument("expr")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("taut", help="decide whether a formula is a tautology")
    _add_nk(sp)
    sp.add_argument("expr")
    sp.set_defaults(func=_cmd_taut)

    sp = sub.add_parser("entails", help="decide a consequence claim")
    _add_nk(sp)
    sp.add_argument(
        "--hyp", action="append", default=[], help="hypothesis (repeatable)"
    )
    sp.add_argument("expr")
    sp.set_defaults(func=_cmd_entails)

    sp = sub.add_parser("compare", help="compare two logics in the hierarchy")
    sp.add_argument("n1", type=int)
    sp.add_argument("k1", type=int)
    sp.add_argument("n2", type=int)
    sp.add_argument("k2", type=int)
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("check", help="check a proof file")
    sp.add_argument("proof")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("prove", help="synthesize a proof of a tautology")
    _add_nk(sp)
    sp.add_argument("expr")
    sp.add_argument("-o", "--output", help="write the proof JSON here")
    sp.set_defaults(func=_cmd_prove)

    sp = sub.add_parser(
        "dt", help="discharge a hypothesis via the deduction transform"
    )
    sp.add_argument("proof")
    sp.add_argument(
        "--discharge",
        type=int,
        required=True,
        help="0-based hypothesis index to discharge",
    )
    sp.add_argument("-o", "--output", help="write the proof JSON here")
    sp.set_defaults(func=_cmd_dt)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: building it costs more than most commands
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
