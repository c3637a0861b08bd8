"""Registry of reusable derived theorems.

Thirty schematic theorems cover the recurring moves of proof synthesis:
properties of the star and circle modalities, contraposition in both
directions, case analysis through strong negation, and the lattice
rules for the defined conjunction and disjunction.  Every entry pairs a
statement over placeholder atoms with a derivation script; the generic
proof node is built once per logic, and an instance is a citation of
it (see ``proofs.lemma``), so a caller pays for each script at most
once and a proof carries each generic once, in its lemma table.  Most
scripts are read off their statement: one axiom instance, the star or
circle of a negation chain over an implication (``_ladder``), or the
image of a classical tautology (``classical.classical_node``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .classical import (
    _build_cases,
    _build_cases_classicalize,
    classical_node,
    untranslate,
)
from .formula import (
    Formula,
    Imp,
    Neg,
    and_,
    circ,
    classicalize,
    iter_neg,
    or_,
    star,
    strong_neg,
)
from .proofs import (
    _PHI as _A,
    _PSI as _B,
    _THETA as _C,
    Node,
    Proof,
    _derived,
    axiom_node,
    axiom_pattern,
    chain_node,
    expand_node,
    hyp_node,
    lemma,
    linearize,
    mp_node,
    perm_node,
    refl_node,
    scope,
    substitute,
)
from .semantics import LogicParams

__all__ = ["TemplateInfo", "TEMPLATES", "template_ids", "derive_template"]


@dataclass(frozen=True)
class TemplateInfo:
    """A named theorem schema: its placeholders and its statement."""

    id: str
    metavariables: tuple[str, ...]
    statement: Formula


def _ax(params: LogicParams, schema: str, **subst: Formula) -> Node:
    return axiom_node(params, schema, subst)


def _one_axiom(tid: str, schema: str, **subst: Formula) -> tuple:
    """The registry row of a template that is one axiom instance: its
    statement is the instance (of a schema whose pattern does not vary
    with n and k), and its script is that axiom step."""
    statement = substitute(axiom_pattern(schema, LogicParams(0, 0)), subst)
    return tid, statement, lambda params: axiom_node(params, schema, subst)


def _strip_negs(f: Formula) -> tuple[int, Formula]:
    q = 0
    while isinstance(f, Neg):
        q += 1
        f = f.body
    return q, f


def _ladder(params: LogicParams, mark: Callable, f: Formula) -> Node:
    """Hypothesis-free proof of mark(f), f^* (base Ax3, step Ax11) or
    f^o (Ax4, Ax12), for f a negation chain over an implication (the
    shape of every tautology): the base axiom at the implication, then
    one step per negation."""
    base, step = ("Ax3", "Ax11") if mark is star else ("Ax4", "Ax12")
    q, core = _strip_negs(f)
    if not isinstance(core, Imp):
        raise ValueError("ladder needs an implication under the negations")
    node = axiom_node(params, base, {"phi": core.ant, "psi": core.cons})
    for j in range(q):
        node = mp_node(axiom_node(params, step, {"phi": iter_neg(j, core)}), node)
    return node


def _mark(tid: str, mark: Callable, f: Formula) -> tuple:
    """The registry row of the template mark(f): its script is _ladder."""
    return tid, mark(f), lambda params: _ladder(params, mark, f)


def _classical(tid: str, statement: Formula) -> tuple:
    """The registry row of a template that is the strong-negation image
    of a classical tautology: its script proves that source."""
    skeleton = untranslate(statement)
    return tid, statement, lambda params: classical_node(params, skeleton)


def _star_of_neg_imp(params: LogicParams, f: Formula) -> Node:
    """f^* for f = !(a -> b): star_of_neg_imp at (a, b)."""
    bind = {"phi": f.body.ant, "psi": f.body.cons}
    return template_node("star_of_neg_imp", bind, params)


# ---------------------------------------------------------------------------
# Derivation scripts
# ---------------------------------------------------------------------------


def _g_refl(params: LogicParams) -> Node:
    return refl_node(params, _A)


def _g_elim_classicalize(params: LogicParams) -> Node:
    h = classicalize(_A)
    return _derived(params, (h,), mp_node(hyp_node(h), refl_node(params, _A)))


def _g_star_strong_to_weak_neg(params: LogicParams) -> Node:
    h = star(_A)
    cc = _ax(params, "Ax4", phi=Imp(_A, _A), psi=_A)  # (@phi)^o
    ax8 = _ax(params, "Ax8", phi=_A, psi=classicalize(_A))
    s = mp_node(mp_node(ax8, hyp_node(h)), cc)  # (phi->~phi)->((phi->@phi)->!phi)
    s = perm_node(params, s)
    intro = _ax(params, "Ax1", phi=_A, psi=Imp(_A, _A))  # phi->@phi
    s = mp_node(s, intro)  # (phi->~phi)->!phi
    lift = _ax(params, "Ax1", phi=strong_neg(_A), psi=_A)
    return _derived(params, (h,), chain_node(params, lift, s))


def _g_converse_contraposition(params: LogicParams) -> Node:
    hyps = (star(_A), circ(_B), Imp(Neg(_A), Neg(_B)), _B)
    h = [hyp_node(f) for f in hyps]
    lift = _ax(params, "Ax1", phi=_B, psi=Neg(_A))
    minor = mp_node(lift, h[3])  # !phi -> psi
    s = mp_node(_ax(params, "Ax7", phi=_A, psi=_B), h[0])
    s = mp_node(mp_node(s, h[1]), h[2])
    return _derived(params, hyps, mp_node(s, minor))


def _g_contraposition(params: LogicParams) -> Node:
    hyps = (star(_A), circ(_B), Imp(_A, _B), Neg(_B))
    h = [hyp_node(f) for f in hyps]
    lift = _ax(params, "Ax1", phi=Neg(_B), psi=_A)
    to_nb = mp_node(lift, h[3])  # phi -> !psi
    s = mp_node(_ax(params, "Ax8", phi=_A, psi=_B), h[0])
    s = mp_node(mp_node(s, h[1]), to_nb)
    return _derived(params, hyps, mp_node(s, h[2]))


def _g_circ_explosion(params: LogicParams) -> Node:
    nb = Imp(Neg(_A), _B)
    hyps = (circ(_A), Neg(_A))
    ax3 = _ax(params, "Ax3", phi=Neg(_A), psi=_B)  # (!phi->psi)^*
    cc = template_node("converse_contraposition", {"phi": nb, "psi": _A}, params)
    s = mp_node(mp_node(cc, ax3), hyp_node(hyps[0]))
    lift = _ax(params, "Ax1", phi=Neg(_A), psi=Neg(nb))
    s = mp_node(s, mp_node(lift, hyp_node(hyps[1])))  # phi -> (!phi -> psi)
    return _derived(params, hyps, mp_node(perm_node(params, s), hyp_node(hyps[1])))


def _g_negstar_to_circ(params: LogicParams) -> Node:
    conj = and_(Neg(_A), _A)
    cp = template_node("contraposition", {"phi": conj, "psi": star(_A)}, params)
    s = mp_node(cp, _star_of_neg_imp(params, conj))
    s = mp_node(s, _ax(params, "Ax4", phi=strong_neg(Neg(_A)), psi=_A))
    ao = template_node("and_to_or", {"phi": Neg(_A), "psi": _A}, params)
    return mp_node(s, ao)


def _g_strongneg_to_circ(params: LogicParams) -> Node:
    conj = and_(Neg(_A), _A)
    cp = template_node("contraposition", {"phi": conj, "psi": classicalize(_A)}, params)
    s = mp_node(cp, _star_of_neg_imp(params, conj))
    s = mp_node(s, _ax(params, "Ax4", phi=Imp(_A, _A), psi=_A))
    ae = template_node("and_elim_right", {"phi": Neg(_A), "psi": _A}, params)
    intro = _ax(params, "Ax1", phi=_A, psi=Imp(_A, _A))
    return mp_node(s, chain_node(params, ae, intro))  # (!phi && phi) -> @phi


def _g_star_neg_or_left(params: LogicParams) -> Node:
    disj = or_(_A, _B)
    h = star(_A)
    cdisj = _ax(params, "Ax4", phi=strong_neg(_A), psi=_B)  # (phi||psi)^o
    cp = template_node("contraposition", {"phi": _A, "psi": disj}, params)
    s = mp_node(mp_node(cp, hyp_node(h)), cdisj)
    oi = template_node("or_intro_left", {"phi": _A, "psi": _B}, params)
    return _derived(params, (h,), mp_node(s, oi))


def _g_circ_refute_imp(params: LogicParams) -> Node:
    ab = Imp(_A, _B)
    h = circ(_B)
    ax3 = _ax(params, "Ax3", phi=_A, psi=_B)
    cp = template_node("contraposition", {"phi": ab, "psi": _B}, params)
    s = mp_node(mp_node(cp, ax3), hyp_node(h))  # ((phi->psi)->psi)->(!psi->!(phi->psi))
    pm = perm_node(params, refl_node(params, ab))  # phi -> ((phi->psi)->psi)
    return _derived(params, (h,), chain_node(params, pm, s))


def _g_negstar_explosion(params: LogicParams) -> Node:
    hyps = (Neg(star(_A)), _A)
    si = _ax(params, "Ax1", phi=_A, psi=strong_neg(Neg(_A)))
    st = mp_node(si, hyp_node(hyps[1]))  # phi^*
    cs = _ax(params, "Ax4", phi=strong_neg(Neg(_A)), psi=_A)
    ce = template_node("circ_explosion", {"phi": star(_A), "psi": _B}, params)
    s = mp_node(mp_node(ce, cs), hyp_node(hyps[0]))  # phi^* -> psi
    return _derived(params, hyps, mp_node(s, st))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: tuple[tuple[str, Formula, Callable[[LogicParams], Node]], ...] = (
    ("refl", Imp(_A, _A), _g_refl),
    ("elim_classicalize", Imp(classicalize(_A), _A), _g_elim_classicalize),
    _one_axiom("intro_classicalize", "Ax1", phi=_A, psi=Imp(_A, _A)),
    _mark("star_of_star", star, star(_A)),
    _mark("circ_of_star", circ, star(_A)),
    _mark("star_of_classicalize", star, classicalize(_A)),
    _mark("circ_of_classicalize", circ, classicalize(_A)),
    # phi^* is ~!phi -> phi
    _one_axiom("star_intro", "Ax1", phi=_A, psi=strong_neg(Neg(_A))),
    (
        "star_strong_to_weak_neg",
        Imp(star(_A), Imp(strong_neg(_A), Neg(_A))),
        _g_star_strong_to_weak_neg,
    ),
    (
        "converse_contraposition",
        Imp(
            star(_A),
            Imp(circ(_B), Imp(Imp(Neg(_A), Neg(_B)), Imp(_B, _A))),
        ),
        _g_converse_contraposition,
    ),
    (
        "contraposition",
        Imp(
            star(_A),
            Imp(circ(_B), Imp(Imp(_A, _B), Imp(Neg(_B), Neg(_A)))),
        ),
        _g_contraposition,
    ),
    (
        "strong_neg_cases_classicalize",
        Imp(
            Imp(strong_neg(_A), strong_neg(_B)),
            Imp(Imp(strong_neg(_A), classicalize(_B)), classicalize(_A)),
        ),
        _build_cases_classicalize,
    ),
    (
        "strong_neg_cases",
        Imp(
            Imp(strong_neg(_A), strong_neg(_B)),
            Imp(Imp(strong_neg(_A), _B), _A),
        ),
        _build_cases,
    ),
    _classical("or_intro_left", Imp(_A, or_(_A, _B))),
    _one_axiom("or_intro_right", "Ax1", phi=_B, psi=strong_neg(_A)),
    _classical("and_elim_left", Imp(and_(_A, _B), _A)),
    _classical("and_elim_right", Imp(and_(_A, _B), _B)),
    _classical("or_elim", Imp(Imp(_A, _C), Imp(Imp(_B, _C), Imp(or_(_A, _B), _C)))),
    _classical("and_intro", Imp(_A, Imp(_B, and_(_A, _B)))),
    _classical("and_to_or", Imp(and_(_A, _B), or_(_A, _B))),
    (
        "circ_explosion",
        Imp(circ(_A), Imp(Neg(_A), Imp(_A, _B))),
        _g_circ_explosion,
    ),
    _mark("circ_of_circ", circ, circ(_A)),
    ("negstar_to_circ", Imp(Neg(star(_A)), circ(_A)), _g_negstar_to_circ),
    ("strongneg_to_circ", Imp(strong_neg(_A), circ(_A)), _g_strongneg_to_circ),
    (
        "star_neg_or_left",
        Imp(star(_A), Imp(Neg(or_(_A, _B)), Neg(_A))),
        _g_star_neg_or_left,
    ),
    (
        "circ_refute_imp",
        Imp(circ(_B), Imp(_A, Imp(Neg(_B), Neg(Imp(_A, _B))))),
        _g_circ_refute_imp,
    ),
    _mark("star_of_neg_imp", star, Neg(Imp(_A, _B))),
    _mark("circ_of_neg_imp", circ, Neg(Imp(_A, _B))),
    _mark("circ_of_negstar", circ, Neg(star(_A))),
    (
        "negstar_explosion",
        Imp(Neg(star(_A)), Imp(_A, _B)),
        _g_negstar_explosion,
    ),
)

# A template's metavariables are its statement's atoms, sorted, as an
# axiom's are its pattern's (see proofs.axiom_metavariables).
TEMPLATES: dict[str, TemplateInfo] = {
    tid: TemplateInfo(tid, tuple(sorted(statement.atom_names)), statement)
    for tid, statement, _ in _REGISTRY
}

_BUILDERS: dict[str, Callable[[LogicParams], Node]] = {
    tid: builder for tid, _, builder in _REGISTRY
}


def template_ids() -> tuple[str, ...]:
    return tuple(TEMPLATES)


def template_node(
    template_id: str,
    subst: Mapping[str, Formula],
    params: LogicParams,
) -> Node:
    """The proof node of a registered template's instance."""
    info = TEMPLATES.get(template_id)
    if info is None:
        raise ValueError(f"unknown template id '{template_id}'")
    try:
        bind = tuple(subst[v] for v in info.metavariables)
    except KeyError as exc:
        raise ValueError(
            f"template '{template_id}' needs a binding for {exc.args[0]!r}"
        ) from None
    return lemma(_BUILDERS[template_id], params, bind)


def derive_template(
    template_id: str,
    subst: Mapping[str, Formula],
    params: LogicParams,
) -> Proof:
    """Instantiate a registered template as a hypothesis-free proof,
    every lemma its script cites expanded in place (see
    proofs.expand_node): the proof has no lemma table.

    The nodes of the instance are dropped on return (see proofs.scope);
    the generics the call builds stay."""
    with scope():
        node = template_node(template_id, subst, params)
        return linearize(expand_node(node, params), params)
