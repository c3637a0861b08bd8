"""Constructive completeness: synthesize a proof for any tautology.

The synthesis has three layers.  For a fixed valuation, every atom gets
a small set of designated "context" formulas that pin down its value
axiomatically; a structural recursion then proves, from those contexts,
either the formula itself or a negated form of it (``lemma1_derive``).
A case-elimination step (``lemma2_combine``, ``_combine`` on nodes)
discharges all contexts of one atom at once by Ax7 case splits; a split
where one arm does not rest on its case hypothesis is elided, and that
arm is the result. ``complete_prove`` folds the atoms away one by one,
ending with a hypothesis-free proof, and runs the recursion only for
the valuations whose proofs a merge needs.

A proper subformula of the goal that is itself a tautology is a
subgoal: it is proved once, hypothesis-free, innermost first, and the
recursion takes that theorem in place of a derivation from the
contexts. x -> x is ``refl_node``; an implication whose consequent has a
theorem is Ax1 and one modus ponens; any other subgoal is synthesized
the same way as the goal, at canonical atom names, and cited at its own
atoms. Resting on no context, the steps above a subgoal let more merges
be elided. The decision on the goal tells which subformulas are
subgoals; nothing else is decided.

All three layers build proof nodes (see ``proofs``): the leaves and
merges of one synthesis share every common step, and lines are
numbered and verified once, when the final proof is linearized.  The
public ``lemma1_derive`` and ``lemma2_combine`` linearize their own
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Container, Mapping, Sequence

from .formula import (
    Atom,
    Formula,
    Imp,
    Neg,
    and_,
    atoms,
    children,
    circ,
    classicalize,
    iter_neg,
    postorder,
    star,
    strong_neg,
)
from .proofs import (
    Node,
    Proof,
    axiom_node,
    chain_node,
    cut,
    discharge,
    hyp_node,
    instantiate,
    lemma_node,
    linearize,
    mp_node,
    node_of,
    perm_node,
    refl_node,
    scope,
    substitute,
)
from .semantics import (
    F,
    LogicParams,
    T,
    TruthValue,
    Valuation,
    _decide,
    eval_formula,
    eval_subformulas,
    render_valuation,
)
from .templates import _ladder, _star_of_neg_imp, _strip_negs, template_node

__all__ = [
    "AtomContext",
    "DeltaContext",
    "NotATautology",
    "phi_v",
    "build_q_set",
    "build_delta",
    "lemma1_derive",
    "lemma2_combine",
    "complete_prove",
]


class NotATautology(ValueError):
    """Raised when proof synthesis is asked for an invalid formula."""

    def __init__(self, params: LogicParams, f: Formula, counterexample: Valuation):
        self.params = params
        self.formula = f
        self.counterexample = counterexample
        super().__init__(
            f"not a tautology of ({params.n},{params.k}): fails at "
            + render_valuation(counterexample)
        )


@dataclass(frozen=True)
class AtomContext:
    """One atom's value, witnessed by its designated context formulas."""

    atom: str
    value: TruthValue
    q_set: tuple[Formula, ...]


@dataclass(frozen=True)
class DeltaContext:
    """All atom contexts of a valuation, in atom order."""

    params: LogicParams
    valuation: Valuation
    contexts: tuple[AtomContext, ...]

    @property
    def formulas(self) -> tuple[Formula, ...]:
        return tuple(g for ctx in self.contexts for g in ctx.q_set)


def phi_v(params: LogicParams, f: Formula, v: Valuation) -> Formula:
    """The witness form of f under v: f itself when its value is
    designated, otherwise f under r+1 negations for value F_r."""
    value = eval_formula(params, f, v)
    if value.designated:
        return f
    return iter_neg(value.index + 1, f)


def _psi_block(params: LogicParams, psi: Formula, value: TruthValue) -> tuple[Formula, ...]:
    """The hypothesis block asserting that psi takes the given value."""
    params.check_value(value)
    r = value.index
    if value.kind == "F":
        if r == 0:
            return (strong_neg(psi), star(psi))
        head = tuple(Neg(star(iter_neg(j, psi))) for j in range(r))
        return head + (star(iter_neg(r, psi)),)
    if r == 0:
        return (classicalize(psi), circ(psi))
    return tuple(_conj(psi, j) for j in range(r)) + (circ(iter_neg(r, psi)),)


def _conj(psi: Formula, j: int) -> Formula:
    """!^{j+1} psi && !^j psi, the j-th formula of a T block."""
    return and_(iter_neg(j + 1, psi), iter_neg(j, psi))


def build_q_set(params: LogicParams, atom: str, value: TruthValue) -> tuple[Formula, ...]:
    """Context formulas for an atom at a value, expanded to primitives.

    F_0 yields (~a, a^*); T_0 yields (@a, a^o); F_r climbs the negated
    star ladder and ends with (!^r a)^*; T_i lists the overlapping
    conjunctions !^j a && !^{j-1} a and ends with (!^i a)^o.
    """
    return _psi_block(params, Atom(atom), value)


def build_delta(
    params: LogicParams, names: Sequence[str], v: Valuation
) -> DeltaContext:
    for nm in names:
        if nm not in v:
            raise ValueError(f"unbound atom {nm!r}")
    ctxs = tuple(
        AtomContext(nm, v[nm], build_q_set(params, nm, v[nm])) for nm in names
    )
    return DeltaContext(params, dict(v), ctxs)


# ---------------------------------------------------------------------------
# Per-valuation derivation
# ---------------------------------------------------------------------------


class _Lemma1:
    """Proves the witness form of f and of the subformulas it needs
    from the full context set of one valuation; a subformula with a
    hypothesis-free proof in theorems is not derived again."""

    def __init__(
        self,
        params: LogicParams,
        delta: DeltaContext,
        f: Formula,
        theorems: Mapping[Formula, Node],
    ):
        self.params = params
        self.v = delta.valuation
        self.values = eval_subformulas(params, f, self.v)
        self.theorems = theorems
        self.nodes: dict[Formula, Node] = dict(theorems)
        self.circ_nodes: dict[Formula, Node] = {}
        self.q_set = {ctx.atom: ctx.q_set for ctx in delta.contexts}

    def q_hyp(self, name: str, j: int) -> Node:
        """The j-th context formula of an atom, as a hypothesis."""
        return hyp_node(self.q_set[name][j])

    def use(self, tid: str, **subst: Formula) -> Node:
        return template_node(tid, subst, self.params)

    def ax(self, schema: str, **subst: Formula) -> Node:
        return axiom_node(self.params, schema, subst)

    def circ_node(self, f: Formula) -> Node:
        """f^o, from the Ax4/Ax12 ladder when f is a negation chain over an
        implication and from the contexts when it is one over an atom."""
        hit = self.circ_nodes.get(f)
        if hit is not None:
            return hit
        q, core = _strip_negs(f)
        if isinstance(core, Imp):
            node = _ladder(self.params, circ, f)
        else:
            name = core.name
            w = self.v[name]
            base = 0
            if w.kind == "F" and w.index == 0:
                tpl = self.use("strongneg_to_circ", phi=core)
                node = mp_node(tpl, self.q_hyp(name, 0))  # ~a gives a^o
            elif w.kind == "F":
                tpl = self.use("negstar_to_circ", phi=core)
                node = mp_node(tpl, self.q_hyp(name, 0))  # !(a^*) gives a^o
            elif w.index == 0:
                node = self.q_hyp(name, 1)  # a^o is in the context
            else:
                node = self.q_hyp(name, w.index)  # (!^i a)^o closes the block
                base = w.index
            if q < base:
                raise AssertionError("negation chain shorter than its context ladder")
            for j in range(base, q):
                node = mp_node(self.ax("Ax12", phi=iter_neg(j, core)), node)
        self.circ_nodes[f] = node
        return node

    def needs(self, f: Formula) -> tuple[Formula, ...]:
        """The subformulas whose witnesses the step for f uses."""
        if isinstance(f, Atom):
            return ()
        if isinstance(f, Neg):
            w = self.values[f.body]
            return () if w.kind == "T" and w.index > 0 else (f.body,)
        wa, wc = self.values[f.ant], self.values[f.cons]
        if wc.designated and (wa.designated or f.cons in self.theorems):
            return (f.cons,)
        if wa.kind == "F":
            return (f.ant,) if wa.index == 0 else ()
        return (f.ant,) if wc.index > 0 else (f.ant, f.cons)

    def derive(self, f: Formula) -> Node:
        """The witness of f; subformulas first, by a postorder fold over
        what each step needs."""
        nodes = self.nodes
        for g in postorder(f, self.needs, nodes):
            if type(g) is Atom:
                nodes[g] = self._atom(g)
            elif type(g) is Neg:
                nodes[g] = self._neg(g)
            else:
                nodes[g] = self._imp(g)
        return nodes[f]

    def _atom(self, f: Atom) -> Node:
        name = f.name
        w = self.v[name]
        if w.kind == "F" and w.index == 0:
            tpl = self.use("star_strong_to_weak_neg", phi=f)
            s = mp_node(tpl, self.q_hyp(name, 1))
            return mp_node(s, self.q_hyp(name, 0))
        if w.kind == "F":
            r = w.index
            # !((!^{r-1} a)^*) is literally !(!^r a || !^{r-1} a)
            tpl = self.use(
                "star_neg_or_left", phi=iter_neg(r, f), psi=iter_neg(r - 1, f)
            )
            s = mp_node(tpl, self.q_hyp(name, r))
            return mp_node(s, self.q_hyp(name, r - 1))
        if w.index == 0:
            # @a and a->a
            return mp_node(self.q_hyp(name, 0), refl_node(self.params, f))
        tpl = self.use("and_elim_right", phi=Neg(f), psi=f)
        return mp_node(tpl, self.q_hyp(name, 0))  # from !a && a

    def _neg(self, f: Neg) -> Node:
        body = f.body
        w = self.values[body]
        if w.kind == "F":
            # the witness of the body already carries the extra negation
            return self.nodes[body]
        if w.index > 0:
            q, core = _atom_chain(f)
            # f = !^q a with v(a) = T_{w.index + q - 1}; the context block
            # holds the conjunction !^q a && !^{q-1} a
            tpl = self.use(
                "and_elim_left", phi=iter_neg(q, core), psi=iter_neg(q - 1, core)
            )
            return mp_node(tpl, self.q_hyp(core.name, q - 1))
        # v(body) = T_0, so the value of f is F_0 and the goal is !!body
        ax10 = self.ax("Ax10", phi=body)
        return mp_node(mp_node(ax10, self.circ_node(body)), self.nodes[body])

    def _imp(self, f: Imp) -> Node:
        params = self.params
        ant, cons = f.ant, f.cons
        wa, wc = self.values[ant], self.values[cons]
        # Ax1 over a consequent with a theorem, before the antecedent's
        # F cases, so f rests on no context
        if wc.designated and (wa.designated or cons in self.theorems):
            lift = self.ax("Ax1", phi=cons, psi=ant)
            return mp_node(lift, self.nodes[cons])
        if wa.kind == "F" and wa.index == 0:
            tpl = self.use("circ_explosion", phi=ant, psi=cons)
            s = mp_node(tpl, self.circ_node(ant))
            return mp_node(s, self.nodes[ant])  # witness of ant is !ant
        if wa.kind == "F":
            s_ant, core = _atom_chain(ant)
            # context holds !(ant^*) at position s_ant of the atom's block
            tpl = self.use("negstar_explosion", phi=ant, psi=cons)
            return mp_node(tpl, self.q_hyp(core.name, s_ant))
        if wc.index > 0:
            s_cons, core = _atom_chain(cons)
            # from ant, f itself yields cons, hence cons^*; but !(cons^*)
            # is in the context, so refute f by contraposition
            pm = perm_node(params, refl_node(params, f))  # ant -> (f -> cons)
            to_cons = mp_node(pm, self.nodes[ant])  # f -> cons
            si = self.use("star_intro", phi=cons)
            to_star = chain_node(params, to_cons, si)  # f -> cons^*
            cp = self.use("contraposition", phi=f, psi=star(cons))
            s = mp_node(cp, self.ax("Ax3", phi=ant, psi=cons))
            s = mp_node(s, self.ax("Ax4", phi=strong_neg(Neg(cons)), psi=cons))
            s = mp_node(s, to_star)  # !(cons^*) -> !f
            return mp_node(s, self.q_hyp(core.name, s_cons))
        # v(cons) = F_0 with designated antecedent: refute the arrow
        tpl = self.use("circ_refute_imp", phi=ant, psi=cons)
        s = mp_node(tpl, self.circ_node(cons))
        s = mp_node(s, self.nodes[ant])
        return mp_node(s, self.nodes[cons])  # witness of cons is !cons


def _atom_chain(f: Formula) -> tuple[int, Atom]:
    """(q, a) for f = !^q a: the only shape whose value can be F_r or T_i
    with r, i > 0, the values a context block pins down."""
    q, core = _strip_negs(f)
    if type(core) is not Atom:
        raise AssertionError("only negation chains over atoms take F_r or T_i, r, i > 0")
    return q, core


def lemma1_derive(params: LogicParams, f: Formula, v: Valuation) -> Proof:
    """Prove the witness form of f from the full context set of v.

    The returned proof has hypotheses exactly the context formulas, in
    atom order, and conclusion phi_v(params, f, v). The nodes the call
    makes are dropped on return (see proofs.scope).
    """
    with scope():
        delta = build_delta(params, atoms(f), v)
        node = _Lemma1(params, delta, f, {}).derive(f)
        return linearize(node, params, delta.formulas)


# ---------------------------------------------------------------------------
# Case elimination
# ---------------------------------------------------------------------------


def _combine(
    params: LogicParams,
    psi: Formula,
    theta: Formula,
    branch: Callable[[TruthValue], Node],
    theta_star: Node,
    theta_circ: Node,
) -> Node:
    """lemma2_combine on nodes: branch(w) rests on the block of psi at
    the value w (and on any context shared by all), the result on the
    shared part.

    The blocks are eliminated one case split at a time (split), each
    resting on one branch and on the arm built from the splits above it;
    Ax5 and Ax6 prove the top rungs, (!^n psi)^* and (!^k psi)^o.
    The branch is built first; when it does not rest on its case
    hypothesis it is the split's result and the arm above is never
    built. Otherwise, when the arm does not rest on its hypothesis, the
    arm is the result. Only when both do are they merged. Either arm
    proves theta from a subset of the hypotheses the merge may rest on,
    so every elision is sound. branch is called only for the branches a
    split needs, at most once each if the caller memoizes it.
    """
    n, k = params.n, params.k

    def split(
        x: Formula, own: Node, own_on_x: bool, other: Node, x_star: Callable[[], Node]
    ) -> Node:
        """The case split on x, where own rests on its case hypothesis
        (x when own_on_x, !x otherwise) and other on the opposite one:
        the x arm, contraposed, chains through the !x arm into the loop
        !theta -> theta, which the case axiom Ax7 at theta closes."""
        if (Neg(x) if own_on_x else x) not in other.hyps:
            return other
        pos, neg = (own, other) if own_on_x else (other, own)
        cp = template_node("contraposition", {"phi": x, "psi": theta}, params)
        s = mp_node(mp_node(cp, x_star()), theta_circ)
        s = mp_node(s, discharge(pos, x, params))  # !theta -> !x
        loop = chain_node(params, s, discharge(neg, Neg(x), params))  # !theta -> theta
        ax7 = axiom_node(params, "Ax7", {"phi": theta, "psi": theta})
        s = mp_node(mp_node(ax7, theta_star), theta_circ)
        s = mp_node(s, refl_node(params, Neg(theta)))
        return mp_node(s, loop)

    def ladder(rungs, top: Callable[[], Node]) -> Node:
        """Eliminate rungs, bottom first: (w, x, on_x, x_star) splits on x
        with branch(w), which rests on x when on_x and on !x otherwise;
        top() builds the arm above the last rung."""
        below = []
        for w, x, on_x, x_star in rungs:
            own = branch(w)
            if (x if on_x else Neg(x)) not in own.hyps:
                break
            below.append((own, x, on_x, x_star))
        else:
            own = top()
        for under, x, on_x, x_star in reversed(below):
            own = split(x, under, on_x, own, x_star)
        return own

    def star_of_star(j: int):
        return lambda: template_node(
            "star_of_star", {"phi": iter_neg(j, psi)}, params
        )

    def star_of_conj(i: int):
        return lambda: _star_of_neg_imp(params, _conj(psi, i))

    # F side: the block of F_r ends with (!^r psi)^*, after the negated
    # stars of the blocks below it; Ax5 proves the top one, (!^n psi)^*.
    # The result rests on ~psi, from the F_0 block.
    half_f = ladder(
        [(F(r), star(iter_neg(r, psi)), True, star_of_star(r)) for r in range(n)],
        lambda: cut(
            branch(F(n)),
            star(iter_neg(n, psi)),
            axiom_node(params, "Ax5", {"phi": psi}),
        ),
    )
    # T side: the block of T_i ends with (!^i psi)^o, literally the
    # negation of the conjunction !^{i+1} psi && !^i psi that the blocks
    # above it hold; Ax6 proves the top one, (!^k psi)^o. The result
    # rests on @psi, from the T_0 block.
    def half_t() -> Node:
        return ladder(
            [(T(i), _conj(psi, i), False, star_of_conj(i)) for i in range(k)],
            lambda: cut(
                branch(T(k)),
                circ(iter_neg(k, psi)),
                axiom_node(params, "Ax6", {"phi": psi}),
            ),
        )

    # final join on @psi, whose negation is literally ~psi
    if strong_neg(psi) not in half_f.hyps:
        return half_f
    return split(
        classicalize(psi),
        half_f,
        False,
        half_t(),
        lambda: template_node("star_of_classicalize", {"phi": psi}, params),
    )


def lemma2_combine(
    params: LogicParams,
    delta: Sequence[Formula],
    psi: Formula,
    theta: Formula,
    branch_proofs: Sequence[Proof],
    theta_star: Proof,
    theta_circ: Proof,
) -> Proof:
    """Merge the per-value branch proofs for psi into a proof from delta.

    branch_proofs[j] must prove theta from delta plus the block for
    psi = F_{j+1} (j < n), T_{j-n+1} (n <= j < n+k), F_0 (j = n+k) or
    T_0 (j = n+k+1).  theta_star and theta_circ are hypothesis-free
    proofs of theta^* and theta^o.  Every input is run through the
    checker as it enters the node kernel.  A branch that does not rest
    on its case hypothesis is taken as it is, in place of a merge (see
    _combine), so the result may leave some branches unused. The nodes
    the call makes are dropped on return (see proofs.scope).
    """
    size = params.size
    if len(branch_proofs) != size:
        raise ValueError(f"expected {size} branch proofs, got {len(branch_proofs)}")
    delta = tuple(delta)

    def checked(name: str, pf: Proof) -> Node:
        try:
            return node_of(pf)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None

    with scope():
        sides = []
        for name, pf, goal in (
            ("theta_star", theta_star, star(theta)),
            ("theta_circ", theta_circ, circ(theta)),
        ):
            if pf.params != params or pf.hypotheses or pf.conclusion is not goal:
                raise ValueError(f"{name} must prove the bare goal with no hypotheses")
            sides.append(checked(name, pf))

        order = [F(r) for r in range(1, params.n + 1)]
        order += [T(i) for i in range(1, params.k + 1)] + [F(0), T(0)]
        branches: dict[TruthValue, Node] = {}
        for j, (w, pf) in enumerate(zip(order, branch_proofs)):
            if pf.params != params:
                raise ValueError(f"branch {j} built for a different logic")
            if pf.conclusion is not theta:
                raise ValueError(f"branch {j} does not conclude the goal")
            if set(pf.hypotheses) - set(delta + _psi_block(params, psi, w)):
                raise ValueError(f"branch {j} uses hypotheses outside its block")
            branches[w] = checked(f"branch {j}", pf)

        merged = _combine(params, psi, theta, branches.__getitem__, *sides)
        return linearize(merged, params, delta)


# ---------------------------------------------------------------------------
# Weak completeness
# ---------------------------------------------------------------------------


def _eliminate(
    params: LogicParams,
    f: Formula,
    theorems: Mapping[Formula, Node],
    trace: Callable[[str], None] | None = None,
) -> Node:
    """A hypothesis-free node proving the tautology f, whose leaves cite
    theorems for the subformulas it has one for (see complete_prove)."""
    names = atoms(f)

    theta_star = _ladder(params, star, f)
    theta_circ = _ladder(params, circ, f)

    # result(j, tail) proves f from the contexts of names[j:] at the
    # values tail: a leaf when j = 0, else the elimination of names[j-1]
    # over the results it needs.
    memo: dict[tuple[int, tuple[TruthValue, ...]], Node] = {}

    def result(j: int, tail: tuple[TruthValue, ...]) -> Node:
        node = memo.get((j, tail))
        if node is None:
            if j == 0:
                delta = build_delta(params, names, dict(zip(names, tail)))
                node = _Lemma1(params, delta, f, theorems).derive(f)
            else:
                node = _combine(
                    params,
                    Atom(names[j - 1]),
                    f,
                    lambda w: result(j - 1, (w,) + tail),
                    theta_star,
                    theta_circ,
                )
            memo[(j, tail)] = node
        return node

    if trace is not None:
        # force every class of every round, in the order of the valuations
        for round_idx, nm in enumerate(names):
            remaining = names[round_idx + 1 :]
            keys = list(product(params.values(), repeat=len(remaining)))
            for class_idx, tail in enumerate(keys):
                merged = result(round_idx + 1, tail)
                delta = build_delta(params, remaining, dict(zip(remaining, tail)))
                lines = len(linearize(merged, params, delta.formulas))
                trace(
                    f"eliminated {nm}: class {class_idx + 1}/{len(keys)}, "
                    f"{lines} lines"
                )

    node = result(len(names), ())
    assert not node.hyps
    return node


def _theorems(
    params: LogicParams, f: Formula, valid: Container[Formula]
) -> dict[Formula, Node]:
    """A hypothesis-free theorem of every subformula of f in valid, f
    itself aside, innermost first; valid holds the tautological
    subformulas of f.

    x -> x is refl_node. An implication whose consequent has a theorem
    is Ax1 and one modus ponens. Any other subformula is synthesized
    once, at the canonical atom names p1, p2, ... in first-occurrence
    order, and cited at its own atoms (lemma_node): subformulas alike up
    to their atom names share one lemma. A synthesis takes the theorems
    of the subformulas it reaches first, renamed with instantiate.
    """
    out: dict[Formula, Node] = {}
    lemmas: dict[Formula, Node] = {}  # canonical subformula -> its synthesis
    seen: set[Formula] = set()
    for g in postorder(f, children, seen):
        seen.add(g)
        if g not in valid or g is f:
            continue
        if type(g) is Imp and g.ant is g.cons:
            out[g] = refl_node(params, g.ant)
        elif type(g) is Imp and g.cons in out:
            lift = axiom_node(params, "Ax1", {"phi": g.cons, "psi": g.ant})
            out[g] = mp_node(lift, out[g.cons])
        else:
            names = atoms(g)
            rename = {name: Atom(f"p{i}") for i, name in enumerate(names, 1)}
            canon = substitute(g, rename)
            lemma = lemmas.get(canon)
            if lemma is None:
                seeds: dict[Formula, Node] = {}
                reached: set[Formula] = set()
                for h in postorder(g, lambda h: () if h in out else children(h), reached):
                    reached.add(h)
                    if h in out:
                        node = instantiate(out[h], rename, params)
                        seeds[node.formula] = node
                lemma = lemmas[canon] = _eliminate(params, canon, seeds)
            bind = {rename[name].name: Atom(name) for name in names}
            out[g] = lemma_node(lemma, bind)
    return out


def complete_prove(
    params: LogicParams,
    f: Formula,
    *,
    trace: Callable[[str], None] | None = None,
) -> Proof:
    """Synthesize a hypothesis-free proof of a tautology.

    Raises NotATautology (with the falsifying valuation) otherwise.

    The atoms are eliminated in order, each over the results for the
    values of the atoms after it, down to one leaf per valuation. A
    result is built only when a merge needs it: a merge whose first arm
    does not rest on its case hypothesis takes that arm and builds no
    other (see _combine), so most leaves of a large logic are never
    derived. The optional trace callback receives one line per
    case-elimination step, every class of every round in the order of
    the valuations; it forces those results but not the returned proof,
    which is the same with and without it.

    A proper subformula of f that is itself a tautology is proved once,
    hypothesis-free, before any leaf (see _theorems); the one decision
    on f tells which they are. A leaf cites that theorem instead of
    deriving the subformula from its contexts, and takes Ax1 over it
    wherever it is a consequent, so the steps above it rest on fewer
    contexts and more merges are elided. A subgoal prints no trace line.

    Whether the call returns or raises, the proof nodes it made are
    dropped (see proofs.scope), nodes a trace callback builds among
    them. What survives is every generic lemma the call built, over
    phi, psi and theta, with the nodes under it, so a later call at the
    same logic finds it. The returned Proof holds formulas and lines,
    never nodes. It cites every template and classical helper lemma and
    every synthesized subgoal it uses from its lemma table;
    proofs.expand gives the flat proof. linearize has verified it with
    the checker's line predicate: the main lines and the subgoals in
    this call, each generic lemma once per process, when its numbering
    was stored. A synthesis fault raises AssertionError there.
    """
    with scope():
        valid: set[Formula] = set()
        verdict = _decide(params, [], f, valid)
        if not verdict:
            raise NotATautology(params, f, verdict.counterexample)
        theorems = _theorems(params, f, valid)
        final = linearize(_eliminate(params, f, theorems, trace), params)
        assert not final.hypotheses and final.conclusion is f
        return final
