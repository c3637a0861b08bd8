"""Proof synthesis for the classical fragment.

Strong negation is two-valued on every matrix: it sends designated
values to F0 and the rest to T0.  Formulas built from implication and
strong negation therefore behave exactly like classical propositional
formulas, and any classical tautology can be proved in the axiom system
once its negations are read as strong negations.  This module carries
out that synthesis with a two-valued Kalmar argument: prove the target
under every assignment of truth values to its atoms, then eliminate
the case hypotheses pairwise.

``untranslate`` recovers the classical source of such a formula and
``classical_prove`` glues the two halves together.
"""

from __future__ import annotations

from typing import Mapping

from .formula import (
    Atom, Formula, Imp, Neg, atoms, children, classicalize, postorder, strong_neg,
)
from .proofs import (
    _PHI as _A,
    _PSI as _B,
    Node,
    Proof,
    _ax1,
    _derived,
    axiom_node,
    chain_node,
    discharge,
    hyp_node,
    lemma,
    linearize,
    mp_node,
    perm_node,
    refl_node,
    scope,
)
from .semantics import (
    F, LogicParams, T, TruthValue, eval_subformulas, is_tautology,
)

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
    # g is the strong negation !((x -> x) -> x) of x iff rebuilding it
    # gives g back; a g that is not one builds at most three formulas
    if type(g.body) is not Imp or strong_neg(g.body.cons) is not g:
        raise NotClassicalImage(f"negation at {g!r} is not a strong negation")
    return (g.body.cons,)


def _translate(g: Formula) -> dict[Formula, Formula]:
    """Map a classical formula into the fragment: Neg becomes strong
    negation.  Returns the image of every subformula."""
    image: dict[Formula, Formula] = {}
    for h in postorder(g, children, image):
        if type(h) is Atom:
            image[h] = h
        elif type(h) is Imp:
            image[h] = Imp(image[h.ant], image[h.cons])
        else:
            image[h] = strong_neg(image[h.body])
    return image


# ---------------------------------------------------------------------------
# Classical helper lemmas, derived from Ax1/Ax2 plus the case split on a
# strong negation.  Each is built once per logic over placeholder atoms
# and cited at each binding (see proofs.lemma).  The case split and its
# classicalized form are also the templates strong_neg_cases and
# strong_neg_cases_classicalize, under the same generics.
# ---------------------------------------------------------------------------


def _build_cases_classicalize(params: LogicParams) -> Node:
    """(~phi->~psi)->((~phi->@psi)->@phi); hypothesis-free."""
    s_star = axiom_node(params, "Ax3", {"phi": Imp(_A, _A), "psi": _A})  # (@phi)^*
    c_circ = axiom_node(params, "Ax4", {"phi": Imp(_B, _B), "psi": _B})  # (@psi)^o
    ax7 = axiom_node(params, "Ax7", {"phi": classicalize(_A), "psi": classicalize(_B)})
    return mp_node(mp_node(ax7, s_star), c_circ)


def _build_cases(params: LogicParams) -> Node:
    """(~phi->~psi)->((~phi->psi)->phi)."""
    hyps = (Imp(strong_neg(_A), strong_neg(_B)), Imp(strong_neg(_A), _B))
    intro = _ax1(params, _B, Imp(_B, _B))  # psi->@psi
    to_c = chain_node(params, hyp_node(hyps[1]), intro)  # ~phi -> @psi
    s = mp_node(_build_cases_classicalize(params), hyp_node(hyps[0]))
    s = mp_node(s, to_c)  # @phi
    return _derived(params, hyps, mp_node(s, refl_node(params, _A)))


def _cases(params: LogicParams, a: Formula, b: Formula) -> Node:
    """(~a -> ~b) -> ((~a -> b) -> a), with ~ the strong negation."""
    return lemma(_build_cases, params, (a, b))


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


def classical_node(params: LogicParams, skeleton: Formula) -> Node:
    """classical_core as a proof node."""
    names = atoms(skeleton)
    verdict = is_tautology(_CL, skeleton)
    if not verdict:
        bad = verdict.counterexample
        raise ValueError(
            "skeleton is not a classical tautology: fails under "
            + ", ".join(f"{nm}={bad[nm].designated}" for nm in names)
        )
    image = _translate(skeleton)
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
        atom = Atom(names[j - 1])
        neg_atom = strong_neg(atom)
        pos = result(j - 1, (_T0,) + tail)
        if atom not in pos.hyps:
            return pos
        neg = result(j - 1, (_F0,) + tail)
        if neg_atom not in neg.hyps:
            return neg
        mg = lemma(_build_merge, params, (atom, target))
        pos = discharge(pos, atom, params)
        neg = discharge(neg, neg_atom, params)
        return mp_node(mp_node(mg, pos), neg)

    return result(len(names), ())


def classical_core(params: LogicParams, skeleton: Formula) -> Proof:
    """Prove the fragment reading of a classical tautology.

    ``skeleton`` is an ordinary formula whose Neg nodes are read
    classically, so each negation becomes a strong negation; the
    returned proof concludes that translation and has no hypotheses.
    Any other formula in an atom's place is an instance, by
    proofs.substitute_proof. The nodes the call makes are dropped on
    return (see proofs.scope).
    """
    with scope():
        return linearize(classical_node(params, skeleton), params)


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
