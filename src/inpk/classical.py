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

from .formula import (
    Atom, Formula, Imp, Neg, atoms, children, postorder, strong_neg,
)
from .proofs import (
    _PHI as _A,
    _PSI as _B,
    Node,
    Proof,
    _ax1,
    chain_node,
    discharge,
    hyp_node,
    linearize,
    mp_node,
    perm_node,
    refl_node,
    scope,
)
from .semantics import (
    F, LogicParams, T, TruthValue, eval_subformulas, is_tautology,
)
from .templates import _derived, lemma, template_node

__all__ = [
    "NotClassicalImage",
    "untranslate",
    "classical_node",
    "classical_core",
    "classical_prove",
]

# the two-valued matrix, which reads Neg and Imp classically
_CL = LogicParams(0, 0)
_T0, _F0 = T(0), F(0)


class NotClassicalImage(ValueError):
    """Raised when a formula is not a strong-negation image."""


def untranslate(f: Formula) -> Formula:
    """Invert the strong-negation reading of ``f``.

    Every negation in ``f`` must be a strong negation whose body is
    itself an image; the result replaces each of them with a plain
    negation node.  Raises NotClassicalImage otherwise.
    """
    cache: dict[Formula, Formula] = {}
    for g in postorder(f, _image_children, cache):
        if type(g) is Atom:
            cache[g] = g
        elif type(g) is Imp:
            cache[g] = Imp(cache[g.ant], cache[g.cons])
        else:
            cache[g] = Neg(cache[g.body.cons])
    return cache[f]


def _image_children(g: Formula) -> tuple[Formula, ...]:
    """children(g), with a strong negation's body read through to x."""
    if type(g) is not Neg:
        return children(g)
    body = g.body
    # strong negation of x is !(((x -> x) -> x))
    if not (
        isinstance(body, Imp)
        and isinstance(body.ant, Imp)
        and body.ant.ant is body.ant.cons
        and body.ant.ant is body.cons
    ):
        raise NotClassicalImage(f"negation at {g!r} is not a strong negation")
    return (body.cons,)


def _translate(g: Formula, units: Mapping[str, Formula]) -> dict[Formula, Formula]:
    """Map a classical formula into the fragment: Neg becomes strong
    negation, atoms become their unit formulas.  Returns the image of
    every subformula."""
    image: dict[Formula, Formula] = {}
    for h in postorder(g, children, image):
        if type(h) is Atom:
            image[h] = units[h.name]
        elif type(h) is Imp:
            image[h] = Imp(image[h.ant], image[h.cons])
        else:
            image[h] = strong_neg(image[h.body])
    return image


# ---------------------------------------------------------------------------
# Classical helper lemmas, derived from Ax1/Ax2 plus the case-split
# template.  Each is built once per logic over placeholder atoms and
# cited at each binding (see templates.lemma).
# ---------------------------------------------------------------------------


def _cases(params: LogicParams, a: Formula, b: Formula) -> Node:
    """(~a -> ~b) -> ((~a -> b) -> a), with ~ the strong negation."""
    return template_node("strong_neg_cases", {"phi": a, "psi": b}, params)


def _build_nn_elim(params: LogicParams) -> Node:
    # ~~a -> a
    sa = strong_neg(_A)
    ssa = strong_neg(sa)
    bx = _cases(params, _A, sa)
    s1 = mp_node(_ax1(params, ssa, sa), hyp_node(ssa))  # ~a -> ~~a
    s2 = mp_node(bx, s1)  # (~a -> ~a) -> a
    return _derived(params, (ssa,), mp_node(s2, refl_node(params, sa)))


def _build_nn_intro(params: LogicParams) -> Node:
    # a -> ~~a
    sa = strong_neg(_A)
    ssa = strong_neg(sa)
    sssa = strong_neg(ssa)
    bx = _cases(params, ssa, _A)  # (~~~a -> ~a) -> ((~~~a -> a) -> ~~a)
    s1 = mp_node(bx, lemma(_build_nn_elim, params, (sa,)))
    s2 = mp_node(_ax1(params, _A, sssa), hyp_node(_A))  # ~~~a -> a
    return _derived(params, (_A,), mp_node(s1, s2))


def _build_exfalso(params: LogicParams) -> Node:
    # ~a -> (a -> b)
    sa = strong_neg(_A)
    sb = strong_neg(_B)
    bx = _cases(params, _B, _A)  # (~b -> ~a) -> ((~b -> a) -> b)
    s1 = mp_node(_ax1(params, sa, sb), hyp_node(sa))
    s2 = mp_node(_ax1(params, _A, sb), hyp_node(_A))
    return _derived(params, (sa, _A), mp_node(mp_node(bx, s1), s2))


def _build_contrap(params: LogicParams) -> Node:
    # (a -> b) -> (~b -> ~a)
    sa = strong_neg(_A)
    sb = strong_neg(_B)
    ssa = strong_neg(sa)
    hyps = (Imp(_A, _B), sb)
    bx = _cases(params, sa, _B)  # (~~a -> ~b) -> ((~~a -> b) -> ~a)
    s1 = mp_node(_ax1(params, sb, ssa), hyp_node(sb))
    nn_elim = lemma(_build_nn_elim, params, (_A,))
    s2 = chain_node(params, nn_elim, hyp_node(hyps[0]))  # ~~a -> b
    return _derived(params, hyps, mp_node(mp_node(bx, s1), s2))


def _build_negimp(params: LogicParams) -> Node:
    # a -> (~b -> ~(a -> b))
    ab = Imp(_A, _B)
    pm = perm_node(params, refl_node(params, ab))  # a -> ((a->b) -> b)
    s1 = mp_node(pm, hyp_node(_A))  # (a->b) -> b
    ct = lemma(_build_contrap, params, (ab, _B))
    return _derived(params, (_A,), mp_node(ct, s1))


def _build_merge(params: LogicParams) -> Node:
    # (a -> b) -> ((~a -> b) -> b): case analysis on a
    sa = strong_neg(_A)
    hyps = (Imp(_A, _B), Imp(sa, _B))
    c1 = lemma(_build_contrap, params, (_A, _B))
    s1 = mp_node(c1, hyp_node(hyps[0]))  # ~b -> ~a
    c2 = lemma(_build_contrap, params, (sa, _B))
    s2 = mp_node(c2, hyp_node(hyps[1]))  # ~b -> ~~a
    bx = _cases(params, _B, sa)  # (~b -> ~~a) -> ((~b -> ~a) -> b)
    return _derived(params, hyps, mp_node(mp_node(bx, s2), s1))


# ---------------------------------------------------------------------------
# Kalmar construction in the fragment
# ---------------------------------------------------------------------------


def _derive_case(
    params: LogicParams,
    skeleton: Formula,
    image: Mapping[Formula, Formula],
    assign: Mapping[str, TruthValue],
) -> Node:
    """The witness node for ``skeleton`` under one assignment of T0/F0.

    The witness of a subformula g proves image[g] when g is true and
    ~image[g] otherwise, from the literal hypotheses: image[p] for a
    true atom p, ~image[p] for a false one.  Each subformula whose
    witness is needed is built once, by a postorder fold over those
    needs.
    """
    value = eval_subformulas(_CL, skeleton, assign)

    def needs(g: Formula) -> tuple[Formula, ...]:
        if type(g) is Atom:
            return ()
        if type(g) is Neg:
            return (g.body,)
        if not value[g.ant].designated:
            return (g.ant,)
        if value[g.cons].designated:
            return (g.cons,)
        return (g.ant, g.cons)

    nodes: dict[Formula, Node] = {}
    for g in postorder(skeleton, needs, nodes):
        if type(g) is Atom:
            literal = image[g] if value[g].designated else strong_neg(image[g])
            node = hyp_node(literal)
        elif type(g) is Neg:
            node = nodes[g.body]  # ~image(body) is already the witness for g
            if value[g.body].designated:
                # g is false: need ~~image(body) from image(body)
                intro = lemma(_build_nn_intro, params, (image[g.body],))
                node = mp_node(intro, node)
        else:
            ant_t, cons_t = image[g.ant], image[g.cons]
            if not value[g.ant].designated:
                ex = lemma(_build_exfalso, params, (ant_t, cons_t))
                node = mp_node(ex, nodes[g.ant])
            elif value[g.cons].designated:
                node = mp_node(_ax1(params, cons_t, ant_t), nodes[g.cons])
            else:
                ni = lemma(_build_negimp, params, (ant_t, cons_t))
                node = mp_node(mp_node(ni, nodes[g.ant]), nodes[g.cons])
        nodes[g] = node
    return nodes[skeleton]


def classical_node(
    params: LogicParams,
    skeleton: Formula,
    units: Mapping[str, Formula] | None = None,
) -> Node:
    """classical_core as a proof node."""
    names = atoms(skeleton)
    if units is None:
        units = {nm: Atom(nm) for nm in names}
    else:
        missing = [nm for nm in names if nm not in units]
        if missing:
            raise ValueError(f"no unit formula for atom '{missing[0]}'")
    verdict = is_tautology(_CL, skeleton)
    if not verdict:
        bad = verdict.counterexample
        raise ValueError(
            "skeleton is not a classical tautology: fails under "
            + ", ".join(f"{nm}={bad[nm].designated}" for nm in names)
        )
    image = _translate(skeleton, units)
    target = image[skeleton]

    # result(j, tail) proves the target from the literals of names[j:]
    # at the values tail: a case when j = 0, else the elimination of
    # names[j-1].  A case that does not rest on its literal is the
    # merge's result, as it proves the target from the other literals
    # alone, and the other case is then never built.  Each result has
    # one caller, so none is built twice.
    def result(j: int, tail: tuple[TruthValue, ...]) -> Node:
        if j == 0:
            return _derive_case(params, skeleton, image, dict(zip(names, tail)))
        unit = units[names[j - 1]]
        neg_unit = strong_neg(unit)
        pos = result(j - 1, (_T0,) + tail)
        if unit not in pos.hyps:
            return pos
        neg = result(j - 1, (_F0,) + tail)
        if neg_unit not in neg.hyps:
            return neg
        mg = lemma(_build_merge, params, (unit, target))
        pos = discharge(pos, unit, params)
        neg = discharge(neg, neg_unit, params)
        return mp_node(mp_node(mg, pos), neg)

    return result(len(names), ())


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
    The nodes the call makes are dropped on return (see proofs.scope).
    """
    with scope():
        return linearize(classical_node(params, skeleton, units), params)


def classical_prove(params: LogicParams, f: Formula) -> Proof:
    """Prove a formula that is the image of a classical tautology.

    Raises NotClassicalImage when some negation in ``f`` is not a strong
    negation, and ValueError when the recovered source is not a
    classical tautology.
    """
    skeleton = untranslate(f)
    proof = classical_core(params, skeleton)
    assert proof.conclusion is f
    return proof
