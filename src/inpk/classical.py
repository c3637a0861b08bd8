"""Proof synthesis for the classical fragment.

Strong negation is two-valued on every matrix: it sends designated
values to F0 and the rest to T0.  Formulas built from implication and
strong negation therefore behave exactly like classical propositional
formulas, and any classical tautology can be proved in the axiom system
once its negations are read as strong negations.  This module carries
out that synthesis with a two-valued Kalmar argument: prove the target
under every assignment of "unit" formulas to truth values, then
eliminate the case hypotheses pairwise.

``untranslate`` recovers the classical source of such a formula and
``classical_prove`` glues the two halves together.
"""

from __future__ import annotations

from typing import Mapping

from .formula import Atom, Formula, Imp, Neg, atoms, strong_neg
from .proofs import (
    Proof,
    ProofBuilder,
    _chain,
    _emit_refl,
    _perm,
    deduction_transform,
    substitute_proof,
)
from .semantics import LogicParams

__all__ = [
    "NotClassicalImage",
    "untranslate",
    "classical_core",
    "classical_prove",
]

_A = Atom("phi")
_B = Atom("psi")


class NotClassicalImage(ValueError):
    """Raised when a formula is not a strong-negation image."""


def untranslate(f: Formula) -> Formula:
    """Invert the strong-negation reading of ``f``.

    Every negation in ``f`` must be a strong negation whose body is
    itself an image; the result replaces each of them with a plain
    negation node.  Raises NotClassicalImage otherwise.
    """
    cache: dict[Formula, Formula] = {}
    # (node, children done); a node's subterms are checked left first and
    # completed before the node itself is rebuilt
    stack: list[tuple[Formula, bool]] = [(f, False)]
    while stack:
        g, done = stack.pop()
        if done:
            if isinstance(g, Imp):
                cache[g] = Imp(cache[g.ant], cache[g.cons])
            else:
                cache[g] = Neg(cache[g.body.cons])
            continue
        if g in cache:
            continue
        if isinstance(g, Atom):
            cache[g] = g
            continue
        stack.append((g, True))
        if isinstance(g, Imp):
            stack.append((g.cons, False))
            stack.append((g.ant, False))
            continue
        body = g.body
        # strong negation of x is !(((x -> x) -> x))
        if not (
            isinstance(body, Imp)
            and isinstance(body.ant, Imp)
            and body.ant.ant is body.ant.cons
            and body.ant.ant is body.cons
        ):
            raise NotClassicalImage(f"negation at {g!r} is not a strong negation")
        stack.append((body.cons, False))
    return cache[f]


def _translate(g: Formula, units: Mapping[str, Formula]) -> Formula:
    """Map a classical formula into the fragment: Neg becomes strong
    negation, atoms become their unit formulas."""
    if isinstance(g, Atom):
        return units[g.name]
    if isinstance(g, Imp):
        return Imp(_translate(g.ant, units), _translate(g.cons, units))
    return strong_neg(_translate(g.body, units))


def _eval2(g: Formula, assign: Mapping[str, bool]) -> bool:
    if isinstance(g, Atom):
        return assign[g.name]
    if isinstance(g, Imp):
        return (not _eval2(g.ant, assign)) or _eval2(g.cons, assign)
    return not _eval2(g.body, assign)


# ---------------------------------------------------------------------------
# Classical helper lemmas, derived from Ax1/Ax2 plus the case-split
# template.  Each is built once per logic over placeholder atoms and
# instantiated by substitution.
# ---------------------------------------------------------------------------

_CT_CACHE: dict[tuple[str, LogicParams], Proof] = {}


def _cases(params: LogicParams, a: Formula, b: Formula) -> Proof:
    """(~a -> ~b) -> ((~a -> b) -> a), with ~ the strong negation."""
    from .templates import derive_template

    return derive_template("strong_neg_cases", {"phi": a, "psi": b}, params)


def _close(b: ProofBuilder, last: int, n_hyps: int) -> Proof:
    proof = b.build(last)
    for _ in range(n_hyps):
        proof = deduction_transform(proof, len(proof.hypotheses) - 1)
    return proof


def _build_nn_elim(params: LogicParams) -> Proof:
    # ~~a -> a
    sa = strong_neg(_A)
    ssa = strong_neg(sa)
    b = ProofBuilder(params, (ssa,))
    bx = b.splice(_cases(params, _A, sa))
    lift = b.axiom("Ax1", {"phi": ssa, "psi": sa})
    s1 = b.mp(lift, b.hyp(0))  # ~a -> ~~a
    s2 = b.mp(bx, s1)  # (~a -> ~a) -> a
    return _close(b, b.mp(s2, _emit_refl(b, sa)), 1)


def _build_nn_intro(params: LogicParams) -> Proof:
    # a -> ~~a
    sa = strong_neg(_A)
    ssa = strong_neg(sa)
    sssa = strong_neg(ssa)
    b = ProofBuilder(params, (_A,))
    bx = b.splice(_cases(params, ssa, _A))  # (~~~a -> ~a) -> ((~~~a -> a) -> ~~a)
    nne = b.splice(substitute_proof(_ct("nn_elim", params), {"phi": sa}))
    s1 = b.mp(bx, nne)
    lift = b.axiom("Ax1", {"phi": _A, "psi": sssa})
    s2 = b.mp(lift, b.hyp(0))  # ~~~a -> a
    return _close(b, b.mp(s1, s2), 1)


def _build_exfalso(params: LogicParams) -> Proof:
    # ~a -> (a -> b)
    sa = strong_neg(_A)
    sb = strong_neg(_B)
    b = ProofBuilder(params, (sa, _A))
    bx = b.splice(_cases(params, _B, _A))  # (~b -> ~a) -> ((~b -> a) -> b)
    s1 = b.mp(b.axiom("Ax1", {"phi": sa, "psi": sb}), b.hyp(0))
    s2 = b.mp(b.axiom("Ax1", {"phi": _A, "psi": sb}), b.hyp(1))
    return _close(b, b.mp(b.mp(bx, s1), s2), 2)


def _build_contrap(params: LogicParams) -> Proof:
    # (a -> b) -> (~b -> ~a)
    sa = strong_neg(_A)
    sb = strong_neg(_B)
    ssa = strong_neg(sa)
    b = ProofBuilder(params, (Imp(_A, _B), sb))
    bx = b.splice(_cases(params, sa, _B))  # (~~a -> ~b) -> ((~~a -> b) -> ~a)
    s1 = b.mp(b.axiom("Ax1", {"phi": sb, "psi": ssa}), b.hyp(1))
    nne = b.splice(_ct("nn_elim", params))  # ~~a -> a
    s2 = _chain(b, nne, b.hyp(0))  # ~~a -> b
    return _close(b, b.mp(b.mp(bx, s1), s2), 2)


def _build_negimp(params: LogicParams) -> Proof:
    # a -> (~b -> ~(a -> b))
    ab = Imp(_A, _B)
    b = ProofBuilder(params, (_A,))
    pm = _perm(b, _emit_refl(b, ab))  # a -> ((a->b) -> b)
    s1 = b.mp(pm, b.hyp(0))  # (a->b) -> b
    ct = b.splice(
        substitute_proof(_ct("contrap", params), {"phi": ab, "psi": _B})
    )
    return _close(b, b.mp(ct, s1), 1)


def _build_merge(params: LogicParams) -> Proof:
    # (a -> b) -> ((~a -> b) -> b): case analysis on a
    sa = strong_neg(_A)
    b = ProofBuilder(params, (Imp(_A, _B), Imp(sa, _B)))
    c1 = b.splice(_ct("contrap", params))
    s1 = b.mp(c1, b.hyp(0))  # ~b -> ~a
    c2 = b.splice(
        substitute_proof(_ct("contrap", params), {"phi": sa, "psi": _B})
    )
    s2 = b.mp(c2, b.hyp(1))  # ~b -> ~~a
    bx = b.splice(_cases(params, _B, sa))  # (~b -> ~~a) -> ((~b -> ~a) -> b)
    return _close(b, b.mp(b.mp(bx, s2), s1), 2)


_CT_BUILDERS = {
    "nn_elim": _build_nn_elim,
    "nn_intro": _build_nn_intro,
    "exfalso": _build_exfalso,
    "contrap": _build_contrap,
    "negimp": _build_negimp,
    "merge": _build_merge,
}


def _ct(name: str, params: LogicParams) -> Proof:
    key = (name, params)
    proof = _CT_CACHE.get(key)
    if proof is None:
        proof = _CT_BUILDERS[name](params)
        _CT_CACHE[key] = proof
    return proof


def _ct_inst(name: str, params: LogicParams, **bind: Formula) -> Proof:
    return substitute_proof(_ct(name, params), bind)


# ---------------------------------------------------------------------------
# Kalmar construction in the fragment
# ---------------------------------------------------------------------------


def _derive_case(
    b: ProofBuilder,
    g: Formula,
    assign: Mapping[str, bool],
    units: Mapping[str, Formula],
    hyp_of: Mapping[str, int],
    params: LogicParams,
    memo: dict[Formula, int],
) -> int:
    """Emit the witness line for ``g`` under ``assign``.

    The line proves tr(g) when g evaluates true and ~tr(g) otherwise,
    from the literal hypotheses already present in the builder.
    """
    hit = memo.get(g)
    if hit is not None:
        return hit
    if isinstance(g, Atom):
        line = b.hyp(hyp_of[g.name])
    elif isinstance(g, Neg):
        inner = _derive_case(b, g.body, assign, units, hyp_of, params, memo)
        if _eval2(g.body, assign):
            # g is false: need ~~tr(body) from tr(body)
            intro = b.splice(
                _ct_inst("nn_intro", params, phi=_translate(g.body, units))
            )
            line = b.mp(intro, inner)
        else:
            line = inner  # ~tr(body) is already the witness for g
    else:
        ant_t = _translate(g.ant, units)
        cons_t = _translate(g.cons, units)
        if not _eval2(g.ant, assign):
            inner = _derive_case(b, g.ant, assign, units, hyp_of, params, memo)
            ex = b.splice(_ct_inst("exfalso", params, phi=ant_t, psi=cons_t))
            line = b.mp(ex, inner)
        elif _eval2(g.cons, assign):
            inner = _derive_case(b, g.cons, assign, units, hyp_of, params, memo)
            lift = b.axiom("Ax1", {"phi": cons_t, "psi": ant_t})
            line = b.mp(lift, inner)
        else:
            i_ant = _derive_case(b, g.ant, assign, units, hyp_of, params, memo)
            i_cons = _derive_case(b, g.cons, assign, units, hyp_of, params, memo)
            ni = b.splice(_ct_inst("negimp", params, phi=ant_t, psi=cons_t))
            line = b.mp(b.mp(ni, i_ant), i_cons)
    memo[g] = line
    return line


def classical_core(
    params: LogicParams,
    skeleton: Formula,
    units: Mapping[str, Formula] | None = None,
) -> Proof:
    """Prove the fragment reading of a classical tautology.

    ``skeleton`` is an ordinary formula whose Neg nodes are read
    classically.  Each atom is replaced by ``units[name]`` (the atom
    itself by default) and each negation by a strong negation; the
    returned proof concludes that translation and has no hypotheses.
    """
    names = atoms(skeleton)
    if units is None:
        units = {nm: Atom(nm) for nm in names}
    else:
        missing = [nm for nm in names if nm not in units]
        if missing:
            raise ValueError(f"no unit formula for atom '{missing[0]}'")
    target = _translate(skeleton, units)

    m = len(names)
    for mask in range(1 << m):
        assign = {nm: bool(mask >> i & 1) for i, nm in enumerate(names)}
        if not _eval2(skeleton, assign):
            raise ValueError(
                "skeleton is not a classical tautology: fails under "
                + ", ".join(f"{nm}={assign[nm]}" for nm in names)
            )

    table: dict[tuple[bool, ...], Proof] = {}
    for mask in range(1 << m):
        vals = tuple(bool(mask >> i & 1) for i in range(m))
        assign = dict(zip(names, vals))
        lits = tuple(
            units[nm] if vals[i] else strong_neg(units[nm])
            for i, nm in enumerate(names)
        )
        b = ProofBuilder(params, lits)
        hyp_of = {nm: i for i, nm in enumerate(names)}
        line = _derive_case(b, skeleton, assign, units, hyp_of, params, {})
        table[vals] = b.build(line)

    for i, nm in enumerate(names):
        merged: dict[tuple[bool, ...], Proof] = {}
        for tail in {vals[1:] for vals in table}:
            pos = deduction_transform(table[(True,) + tail], 0)
            neg = deduction_transform(table[(False,) + tail], 0)
            b = ProofBuilder(params, pos.hypotheses)
            mg = b.splice(_ct_inst("merge", params, phi=units[nm], psi=target))
            last = b.mp(b.mp(mg, b.splice(pos)), b.splice(neg))
            merged[tail] = b.build(last)
        table = merged
    return table[()]


def classical_prove(params: LogicParams, f: Formula) -> Proof:
    """Prove a formula that is the image of a classical tautology.

    Raises NotClassicalImage when some negation in ``f`` is not a strong
    negation, and ValueError when the recovered source is not a
    classical tautology.
    """
    skeleton = untranslate(f)
    proof = classical_core(
        params, skeleton, {nm: Atom(nm) for nm in atoms(skeleton)}
    )
    assert proof.conclusion is f
    return proof
