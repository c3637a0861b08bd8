"""Hilbert-style proof machinery.

Proofs are built as one hash-consed DAG of proof nodes. A node is a
formula, its justification over child nodes (an axiom schema with an
explicit substitution, a hypothesis formula, modus ponens over two
nodes, or the citation of a hypothesis-free node under a substitution)
and the set of hypothesis formulas it rests on. Building the same step
twice returns the same node, so a subproof used in many places is
stored once. The constructors ``axiom_node``, ``hyp_node``, ``mp_node``
and ``lemma_node`` are the only place a step is validated: every node
is correct by construction, a citation because a substitution instance
of a theorem is a theorem. The deduction theorem ``discharge`` and the
cut are rewrites that visit only the nodes resting on the hypothesis in
question and reuse the rest; substitution (``instantiate``) rebuilds
every node under its root, with one formula cache.

Numbered lines exist only at the boundary. ``linearize`` is the one
place a node becomes a ``Proof``: a finite sequence of lines over a
fixed logic and hypothesis list, in postorder from the conclusion,
major premise first. A citation is one line, and the node it cites is
numbered once into the Proof's lemma table. ``linearize`` is also where
lines are verified, by the kernel's own line predicate (``_fault``), so
every Proof it returns has passed the checker: its main lines and every
lemma that is not a generic in each call. A generic lemma (see
``generic``) is numbered and verified once per process, when its
numbering is stored, as an LCF kernel checks a theorem once, when it is
made (Gordon, Milner & Wadsworth, *Edinburgh LCF*, 1979); a proof that
cites it only rewrites the lemma indices of the citation lines, so the
line objects of a Proof may be shared with other proofs. A substitution
is one immutable ``Binding``, made with its node and shared, never
copied, by every line numbered from it. The folds over the nodes are
loops over ``formula.postorder``. ``check`` is the entry point for
proofs from outside: every line carries its own justification, so
checking never searches; it applies the declared substitution and
compares, and checks each lemma once, however often it is cited. One
rule (``_given``) says what formula a justification gives its line:
``check`` and ``linearize`` compare it with the line, building nothing
larger, and ``proof_from_json`` predicts the line's text with it.
``expand`` gives the flat proof, every citation replaced by its
instance. ``ProofBuilder`` and the public transformers on ``Proof``
objects (``weaken``, ``substitute_proof`` and the rest) are thin layers
over the nodes: each reads its input with ``node_of``, which raises
ValueError unless the proof passes ``check``, and numbers its result
with ``linearize``. A transformer runs in a ``scope``, so the nodes it
makes are dropped when it returns.

Line and lemma references are 0-based inside the library and 1-based
in the JSON serialization. Hypothesis indices are 0-based in both.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .formula import (
    Atom,
    Formula,
    FormulaSyntaxError,
    Imp,
    Neg,
    _TextCache,
    children,
    circ,
    iter_neg,
    postorder,
    star,
)
from .semantics import LogicParams

__all__ = [
    "AXIOM_IDS",
    "Binding",
    "Axiom",
    "Hyp",
    "MP",
    "Lemma",
    "Justification",
    "ProofLine",
    "Proof",
    "CheckVerdict",
    "Node",
    "ProofBuilder",
    "ProofFormatError",
    "axiom_pattern",
    "axiom_metavariables",
    "axiom_proof",
    "match_axiom",
    "substitute",
    "check",
    "axiom_node",
    "hyp_node",
    "mp_node",
    "lemma_node",
    "generic",
    "scope",
    "linearize",
    "node_of",
    "discharge",
    "cut",
    "instantiate",
    "expand_node",
    "expand",
    "deduction_transform",
    "weaken",
    "replace_hyp_with_theorem",
    "substitute_proof",
    "prune",
    "rule_trans",
    "rule_perm",
    "rule_red",
    "proof_to_json",
    "proof_from_json",
]


# ---------------------------------------------------------------------------
# Axiom schemas

_PHI = Atom("phi")
_PSI = Atom("psi")
_THETA = Atom("theta")

# Patterns are stored fully expanded to the primitive connectives, with
# metavariables represented as the reserved atoms phi/psi/theta.
_FIXED_PATTERNS: dict[str, Formula] = {
    "Ax1": Imp(_PHI, Imp(_PSI, _PHI)),
    "Ax2": Imp(
        Imp(_PHI, Imp(_PSI, _THETA)),
        Imp(Imp(_PHI, _PSI), Imp(_PHI, _THETA)),
    ),
    "Ax3": star(Imp(_PHI, _PSI)),
    "Ax4": circ(Imp(_PHI, _PSI)),
    "Ax7": Imp(
        star(_PHI),
        Imp(
            circ(_PSI),
            Imp(Imp(Neg(_PHI), Neg(_PSI)), Imp(Imp(Neg(_PHI), _PSI), _PHI)),
        ),
    ),
    "Ax8": Imp(
        star(_PHI),
        Imp(
            circ(_PSI),
            Imp(Imp(_PHI, Neg(_PSI)), Imp(Imp(_PHI, _PSI), Neg(_PHI))),
        ),
    ),
    "Ax9": Imp(star(_PHI), Imp(Neg(Neg(_PHI)), _PHI)),
    "Ax10": Imp(circ(_PHI), Imp(_PHI, Neg(Neg(_PHI)))),
    "Ax11": Imp(star(_PHI), star(Neg(_PHI))),
    "Ax12": Imp(circ(_PHI), circ(Neg(_PHI))),
}

AXIOM_IDS: tuple[str, ...] = tuple(f"Ax{i}" for i in range(1, 13))


def axiom_pattern(schema: str, params: LogicParams) -> Formula:
    """Pattern formula of a schema, with phi/psi/theta as metavariable slots.

    Ax5 and Ax6 are parameter-indexed families: their negation depth is
    the ambient n (resp. k), so the pattern is regenerated per params.
    """
    if schema == "Ax5":
        return star(iter_neg(params.n, _PHI))
    if schema == "Ax6":
        return circ(iter_neg(params.k, _PHI))
    try:
        return _FIXED_PATTERNS[schema]
    except KeyError:
        raise ValueError(f"unknown axiom schema {schema!r}") from None


# A schema's metavariables are its pattern's atoms, which come sorted:
# phi < psi < theta is also the order of their first occurrence.
_METAVARS = {s: axiom_pattern(s, LogicParams(0, 0)).atom_names for s in AXIOM_IDS}


def axiom_metavariables(schema: str) -> tuple[str, ...]:
    try:
        return _METAVARS[schema]
    except KeyError:
        raise ValueError(f"unknown axiom schema {schema!r}") from None


def substitute(f: Formula, subst: Mapping[str, Formula]) -> Formula:
    """Replace every atom whose name is bound in subst."""
    return _substitute(f, subst, {})


def _substitute(
    f: Formula, subst: Mapping[str, Formula], cache: dict, size: Optional[int] = None
) -> Optional[Formula]:
    """substitute with a caller-owned cache, shared by every formula
    that the same substitution is applied to. With size, None rather
    than build a formula whose comp is size or more."""
    for g in postorder(f, children, cache):
        if type(g) is Atom:
            cache[g] = subst.get(g.name, g)
        elif type(g) is Neg:
            if size is not None and cache[g.body].comp + 1 >= size:
                return None
            cache[g] = Neg(cache[g.body])
        else:
            if size is not None and cache[g.ant].comp + cache[g.cons].comp + 1 >= size:
                return None
            cache[g] = Imp(cache[g.ant], cache[g.cons])
    return cache[f]


def match_axiom(
    f: Formula, schema: str, params: LogicParams
) -> Optional[dict[str, Formula]]:
    """The unique substitution s with pattern[s] = f, if one exists: a
    one-way match, every atom of the pattern a metavariable slot, and
    repeated slots mapped to the identical subformula."""
    binding: dict[str, Formula] = {}
    stack = [(axiom_pattern(schema, params), f)]
    while stack:
        p, g = stack.pop()
        if isinstance(p, Atom):
            bound = binding.get(p.name)
            if bound is None:
                binding[p.name] = g
            elif bound is not g:
                return None
        elif isinstance(p, Neg):
            if not isinstance(g, Neg):
                return None
            stack.append((p.body, g.body))
        else:
            assert isinstance(p, Imp)
            if not isinstance(g, Imp):
                return None
            stack.append((p.ant, g.ant))
            stack.append((p.cons, g.cons))
    return binding


# ---------------------------------------------------------------------------
# Proof objects


class Binding(dict):
    """A read-only map of names to formulas, its names sorted: an axiom
    step's substitution or a citation's binding. It is hashable, equals
    the plain dict of its pairs and is a dict, so that substitute looks
    atoms up with dict.get; each mutator raises TypeError."""

    __slots__ = ("_hash",)

    def __init__(self, pairs: Iterable = ()) -> None:
        items = sorted(dict(pairs).items())
        for name, f in items:
            if not isinstance(f, Formula):
                kind = type(f).__name__
                raise TypeError(f"{name!r} is bound to a {kind}, not a formula")
        dict.__init__(self, items)
        self._hash = hash(tuple(items))

    @classmethod
    def of(cls, m: Mapping[str, Formula]) -> Binding:
        """m itself if it is a Binding, else the Binding of its pairs."""
        return m if type(m) is cls else cls(m)

    @classmethod
    def _sorted(cls, items: tuple) -> Binding:
        """The Binding of pairs already sorted by name, binding formulas."""
        b = dict.__new__(cls)
        dict.update(b, items)
        b._hash = hash(items)
        return b

    def __hash__(self) -> int:
        return self._hash

    def _read_only(self, *args, **kwargs):
        raise TypeError("a Binding is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


@dataclass(frozen=True)
class Axiom:
    """Cites an axiom schema with an explicit metavariable substitution:
    a Binding in a line the library makes, any mapping in one by hand."""

    schema: str
    subst: Mapping[str, Formula]


@dataclass(frozen=True)
class Hyp:
    index: int


@dataclass(frozen=True)
class MP:
    """Modus ponens; major proves Imp(minor's formula, this formula)."""

    major: int
    minor: int


@dataclass(frozen=True)
class Lemma:
    """Cites an entry of the proof's lemma table: this line is the
    entry's conclusion with bind applied (a Binding, as in Axiom)."""

    index: int
    bind: Mapping[str, Formula]


Justification = Union[Axiom, Hyp, MP, Lemma]


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    just: Justification


@dataclass(frozen=True)
class Proof:
    """Numbered lines over a logic and a hypothesis list.

    lemmas is the ordered lemma table: each entry is the lines of a
    hypothesis-free proof, which Lemma lines cite by their position. An
    entry may cite only entries before it. len counts the main lines.
    """

    params: LogicParams
    hypotheses: tuple[Formula, ...]
    lines: tuple[ProofLine, ...]
    lemmas: tuple[tuple[ProofLine, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "lemmas", tuple(map(tuple, self.lemmas)))

    @property
    def conclusion(self) -> Formula:
        return self.lines[-1].formula

    def __len__(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class CheckVerdict:
    accepted: bool
    line: Optional[int] = None  # 1-based; None for whole-proof faults
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.accepted

    def __str__(self) -> str:
        if self.accepted:
            return "accepted"
        if self.line is None:
            return f"rejected: {self.reason}"
        return f"rejected line {self.line}: {self.reason}"


_ACCEPTED = CheckVerdict(True)


def check(proof: Proof) -> CheckVerdict:
    """Validate every line of a proof and of its lemma table.

    Accepts iff each line is the declared axiom instance, a verbatim
    hypothesis, modus ponens over two strictly earlier lines whose
    shapes agree, or the conclusion of a lemma under the line's binding,
    every binding mapping names to formulas. Each lemma is checked once,
    in table order, before the lines: it must have lines, cite no
    hypothesis and cite only earlier lemmas. Rejection reports the first
    offending line (1-based); a hypothesis that is not a formula, or a
    fault in the lemma table, has line None and a reason naming the
    hypothesis, or the lemma and its line.

    check adds nothing to the node table. It looks axiom instances up
    there and builds the ones it misses, none larger than its line (see
    _given); proof_from_json enters into the table every instance it
    predicts, so a document just read is checked without building any.
    """
    if not proof.lines:
        return CheckVerdict(False, None, "proof has no lines")
    params = proof.params
    if not isinstance(params, LogicParams):
        return CheckVerdict(False, None, "params is not a LogicParams")
    for i, h in enumerate(proof.hypotheses):
        if not isinstance(h, Formula):
            return CheckVerdict(False, None, _not_a_formula(i, h))
    conclusions: list[Formula] = []
    for e, entry in enumerate(proof.lemmas, start=1):
        if not entry:
            return CheckVerdict(False, None, f"lemma {e} has no lines")
        fault = _fault(entry, None, params, conclusions)
        if fault is not None:
            i, reason = fault
            return CheckVerdict(False, None, f"lemma {e} line {i + 1}: {reason}")
        conclusions.append(entry[-1].formula)
    fault = _fault(proof.lines, proof.hypotheses, params, conclusions)
    if fault is not None:
        i, reason = fault
        return CheckVerdict(False, i + 1, reason)
    return _ACCEPTED


def _not_a_formula(i: int, h: object) -> str:
    return f"hypothesis {i} is a {type(h).__name__}, not a formula"


def _fault(
    lines: Sequence[ProofLine],
    hyps: Optional[tuple[Formula, ...]],
    params: LogicParams,
    conclusions: Sequence[Formula],
) -> Optional[tuple[int, str]]:
    """The first bad line of a line list, as (0-based index, reason), or
    None. hyps is None in a lemma, which may cite no hypothesis;
    conclusions are those of the lemmas the lines may cite.

    The kernel's one line predicate, run by check on proofs from outside
    and by linearize on the lines it makes: a line is bad when it is no
    ProofLine or its justification gives it no formula or another (see
    _given)."""
    for i, line in enumerate(lines):
        if not isinstance(line, ProofLine):
            return i, f"line is a {type(line).__name__}, not a ProofLine"
        # a line made by hand may hold no formula, which has no comp
        size = getattr(line.formula, "comp", 0) + 1
        f = _given(line.just, lines, i, hyps, params, conclusions, size)
        if f is not line.formula:
            # at size 0 no formula is given, only the reason
            return i, _given(line.just, lines, i, hyps, params, conclusions, 0)
    return None


def _given(
    just: Justification,
    lines: Sequence[ProofLine],
    i: int,
    hyps: Optional[tuple[Formula, ...]],
    params: LogicParams,
    conclusions: Sequence[Formula],
    size: int,
) -> Union[Formula, str]:
    """The formula just gives line i of lines, or the reason (a str) it
    gives none; hyps and conclusions are as in _fault, and a field of
    the wrong type is a reason. It builds no formula whose comp is size
    or more, and gives none at size 0: the reason is then the one a
    line of another formula has. It adds nothing to the node table."""
    try:
        if isinstance(just, Axiom):
            schema, subst = just.schema, just.subst
            # a node is entered only under a Binding that passes these checks
            key = (schema, subst, params.n, params.k) if type(subst) is Binding else None
            node = _NODES.get(key)
            if node is None:
                needed = _METAVARS.get(schema)
                if needed is None:
                    return f"unknown axiom schema {schema!r}"
                for name in needed:
                    if name not in subst:
                        return f"substitution does not bind {name!r} for {schema}"
                if len(subst) != len(needed):
                    for name in subst:
                        if name not in needed:
                            return f"substitution binds {name!r}, unused by {schema}"
                try:
                    subst = Binding.of(subst)
                except TypeError as e:
                    return f"substitution: {e}"
                key = (schema, subst, params.n, params.k)
                node = _NODES.get(key)
            if node is not None and size:
                return node.formula
            # an Ax5 (Ax6) instance has n (k) negations
            depth = params.n if schema == "Ax5" else params.k if schema == "Ax6" else 0
            f = None
            if depth < size:
                f = _substitute(axiom_pattern(schema, params), subst, {}, size)
            if f is None:
                return f"formula is not the declared {schema} instance"
            return f
        if isinstance(just, Hyp):
            at = just.index
            if hyps is None:
                return "a lemma may not cite a hypothesis"
            if not 0 <= at < len(hyps):
                return f"hypothesis index {at} out of range"
            f = hyps[at]
            return f if size else f"formula does not match hypothesis {at}"
        if isinstance(just, MP):
            major, minor = just.major, just.minor
            if not 0 <= major < i:
                return f"reference to line {major + 1} is not an earlier line"
            if not 0 <= minor < i:
                return f"reference to line {minor + 1} is not an earlier line"
            f = lines[major].formula
            if not isinstance(f, Imp):
                return "major premise is not an implication"
            if f.ant is not lines[minor].formula:
                return "minor premise does not match the major's antecedent"
            return f.cons if size else "formula is not the major's consequent"
        if isinstance(just, Lemma):
            at = just.index
            if not 0 <= at < len(conclusions):
                if hyps is None and at >= 0:
                    return f"lemma {at + 1} is not an earlier lemma"
                return f"lemma index {at + 1} out of range"
            try:
                bind = Binding.of(just.bind)
            except TypeError as e:
                return f"binding: {e}"
            # an instance has no fewer connectives than the conclusion
            cited = conclusions[at]
            f = _substitute(cited, bind, {}, size) if cited.comp < size else None
            if f is not None:
                return f
            return f"formula is not lemma {at + 1} under its binding"
    except TypeError:
        return f"{type(just).__name__} justification has a field of the wrong type"
    return f"unknown justification {type(just).__name__}"


# ---------------------------------------------------------------------------
# Proof nodes


class Node:
    """One interned proof step; made only by axiom_node, hyp_node,
    mp_node and lemma_node, which validate it.

    An axiom node has ``schema`` and ``subst`` (its Binding); a citation
    node has ``lemma`` (the hypothesis-free node it cites) and ``subst``;
    a modus ponens node has ``major`` and ``minor``; a hypothesis node
    has none of these.
    ``hyps`` is the set of hypothesis formulas the step rests on.
    """

    __slots__ = ("formula", "schema", "subst", "major", "minor", "hyps", "lemma")

    def __init__(self, formula, schema, subst, major, minor, hyps, lemma=None):
        self.formula = formula
        self.schema = schema
        self.subst = subst
        self.major = major
        self.minor = minor
        self.hyps = hyps
        self.lemma = lemma


# The node table. Keys: (schema, Binding, n, k) for an axiom node, the
# formula itself for a hypothesis node, (major, minor) for a modus
# ponens node, (lemma, Binding) for a citation node. An
# axiom node carries its instance formula, so the table is also the
# memo of axiom instances. A node must be unique only among the live
# ones: a scope drops the nodes made inside it but those under the
# generics made inside it (see scope).
_NODES: dict[object, Node] = {}
# (build, params) -> the hypothesis-free node build(params) proves over
# phi, psi and theta; built once per logic and never dropped
_GENERICS: dict[tuple, Node] = {}
# generic node -> its numbering (see _number) and the logic it was
# verified at, filled in by linearize the first time it numbers the
# generic; None until then. A stored numbering never changes: its lines
# are frozen, its bindings read-only and its formulas interned, so it
# is verified once. A generic is entered by generic() and, like it,
# never dropped.
_NUMBERED: dict[Node, Optional[tuple]] = {}
_NO_HYPS: frozenset = frozenset()


def _axiom(
    params: LogicParams, schema: str, subst: Binding, formula: Optional[Formula] = None
) -> Node:
    """The axiom node of a binding; the one maker of axiom nodes.

    formula is passed when the instance is known: proof_from_json
    passes the one _given has built and checked; instantiate passes
    s(f) for an instance f of the same schema under the binding b, where
    subst is s applied to b, and pattern[b][s] is pattern[s(b)] because
    every atom of a pattern is one of its metavariables.
    """
    key = (schema, subst, params.n, params.k)
    node = _NODES.get(key)
    if node is None:
        if formula is None:
            needed = _METAVARS.get(schema)
            if needed is None:
                raise ValueError(f"unknown axiom schema {schema!r}")
            if tuple(subst) != needed:
                raise ValueError(f"{schema} binds exactly {', '.join(needed)}")
            formula = substitute(axiom_pattern(schema, params), subst)
        node = _NODES[key] = Node(formula, schema, subst, None, None, _NO_HYPS)
    return node


def axiom_node(
    params: LogicParams, schema: str, subst: Mapping[str, Formula]
) -> Node:
    """The instance of an axiom schema under a binding of its metavariables."""
    return _axiom(params, schema, Binding.of(subst))


def hyp_node(f: Formula) -> Node:
    """The hypothesis f, resting on itself."""
    node = _NODES.get(f)
    if node is None:
        if not isinstance(f, Formula):
            raise TypeError(f"hypothesis must be a formula, not {type(f).__name__}")
        node = _NODES[f] = Node(f, None, None, None, None, frozenset((f,)))
    return node


def mp_node(major: Node, minor: Node) -> Node:
    """Modus ponens: major proves minor's formula -> this formula."""
    key = (major, minor)
    node = _NODES.get(key)
    if node is None:
        f = major.formula
        if not isinstance(f, Imp) or f.ant is not minor.formula:
            raise ValueError("modus ponens premises do not fit")
        a, b = major.hyps, minor.hyps
        if b is a or not b:
            hyps = a
        elif not a:
            hyps = b
        else:
            hyps = a | b
        node = _NODES[key] = Node(f.cons, None, None, major, minor, hyps)
    return node


def lemma_node(generic: Node, bind: Mapping[str, Formula]) -> Node:
    """Cite a hypothesis-free node: its formula with bind applied.

    A substitution instance of a theorem is a theorem, since every atom
    of an axiom pattern is one of its metavariables; the citation stands
    for that instance without copying its proof.
    """
    return _cite(generic, Binding.of(bind))


def _cite(generic: Node, bind: Binding, formula: Optional[Formula] = None) -> Node:
    """The citation of generic under bind; formula may pass its instance
    when it is known."""
    key = (generic, bind)
    node = _NODES.get(key)
    if node is None:
        if generic.hyps:
            raise ValueError("a cited lemma must rest on no hypothesis")
        if formula is None:
            formula = substitute(generic.formula, bind)
        node = _NODES[key] = Node(formula, None, bind, None, None, _NO_HYPS, generic)
    return node


def generic(build: Callable[[LogicParams], Node], params: LogicParams) -> Node:
    """The node build(params), built once per logic; it must rest on no
    hypothesis, so that lemma_node may cite it."""
    key = (build, params)
    node = _GENERICS.get(key)
    if node is None:
        node = build(params)
        assert not node.hyps
        _GENERICS[key] = node
        _NUMBERED.setdefault(node, None)
    return node


_PLACEHOLDERS = (_PHI, _PSI, _THETA)


def lemma(
    build: Callable[[LogicParams], Node],
    params: LogicParams,
    bind: tuple[Formula, ...],
) -> Node:
    """The lemma that build(params) proves over phi, psi, theta (a prefix
    of them), with bind in their place, in that order: the generic
    itself at the placeholders, any other binding a citation of it."""
    node = generic(build, params)
    if bind == _PLACEHOLDERS[: len(bind)]:
        return node
    return lemma_node(node, {a.name: f for a, f in zip(_PLACEHOLDERS, bind)})


def _derived(params: LogicParams, hyps: tuple[Formula, ...], node: Node) -> Node:
    """Discharge a script's hypotheses, the last one first."""
    for h in reversed(hyps):
        node = discharge(node, h, params)
    return node


@contextmanager
def scope() -> Iterator[None]:
    """On exit, whether by return or raise, drop the nodes made inside,
    except every node under a generic made inside.

    Nodes need to be unique only among the live ones, so a caller may
    open a scope when what it returns holds no node (a Proof holds
    formulas and lines). The generics stay, and keep their memo hits
    across scopes.
    """
    nodes_mark, generics_mark = len(_NODES), len(_GENERICS)
    try:
        yield
    finally:
        made = list(islice(reversed(_NODES.items()), len(_NODES) - nodes_mark))
        fresh = {node for _, node in made}
        # a node is made after its premises and the lemma it cites, so a
        # node made before the scope reaches none made inside, and the
        # walk stops at it
        keep: set[Node] = set()
        for g in islice(reversed(_GENERICS.values()), len(_GENERICS) - generics_mark):
            for node in postorder(g, lambda n: _below(n) if n in fresh else (), keep):
                keep.add(node)
        for key, node in made:
            if node not in keep:
                del _NODES[key]


def _premises(node: Node) -> tuple[Node, ...]:
    """The premises of a modus ponens node, major first; () otherwise."""
    return () if node.major is None else (node.major, node.minor)


def _below(node: Node) -> tuple[Node, ...]:
    """The nodes a node is made from: its premises or the lemma it cites."""
    return _premises(node) if node.lemma is None else (node.lemma,)


def _ax1(params: LogicParams, a: Formula, b: Formula) -> Node:
    return _axiom(params, "Ax1", Binding._sorted((("phi", a), ("psi", b))))


def _ax2(params: LogicParams, a: Formula, b: Formula, c: Formula) -> Node:
    bind = Binding._sorted((("phi", a), ("psi", b), ("theta", c)))
    return _axiom(params, "Ax2", bind)


def linearize(
    root: Node, params: LogicParams, hypotheses: Sequence[Formula] = ()
) -> Proof:
    """Number the lines of the proof of root: the one place lines are
    made, and every line it returns has passed the kernel's line
    predicate (_fault, as check runs it).

    Lines come in postorder from root, major premise first, each node
    once. A Hyp line cites the first position of its formula in
    hypotheses; root must rest on no formula outside that list. A
    citation node is one Lemma line: the node it cites is numbered on
    its own, once, into the lemma table, after the lemmas it cites.

    A generic is numbered and verified once per process, when its
    numbering is stored (see _NUMBERED); a proof only rewrites the
    lemma index of its citation lines, which keeps them valid, since the
    index still names the lemma of the same conclusion. The main lines
    and every other lemma are verified in each call. So the line objects
    of a Proof may be shared with other proofs; an Axiom or Lemma line
    holds its node's read-only Binding. A line that fails the predicate
    raises AssertionError: root holds a node built at another logic, or
    the node constructors are at fault.
    """
    hypotheses = tuple(hypotheses)
    position: dict[Formula, int] = {}
    for i, h in enumerate(hypotheses):
        if not isinstance(h, Formula):
            raise ValueError(_not_a_formula(i, h))
        position.setdefault(h, i)
    lines, cited = _number(root, position)
    numbered: dict[Node, tuple] = {}
    fresh: set[Node] = set()

    def kids(node: Node) -> tuple[Node, ...]:
        # a cited node rests on no hypothesis; a generic's numbering is
        # verified and stored the first time, any other node's (or a
        # generic's stored for another logic) is made and verified afresh
        got = _NUMBERED.get(node)
        if got is None or got[2] != params:
            store = got is None and node in _NUMBERED
            got = (*_number(node, {}), params)
            if store:
                cites = [c.formula for c in got[1]]
                _verify("generic lemma", got[0], None, params, cites)
                _NUMBERED[node] = got
            else:
                fresh.add(node)
        numbered[node] = got
        return got[1]

    # the table in postorder over the citations, dependencies first; an
    # explicit stack, since tables nest thousands deep
    table: dict[Node, int] = {}
    lemmas: list[tuple[ProofLine, ...]] = []
    conclusions: list[Formula] = []
    for c in cited:
        for node in postorder(c, kids, table):
            entry = _renumber(*numbered[node][:2], table)
            if node in fresh:
                _verify(f"lemma {len(lemmas) + 1}", entry, None, params, conclusions)
            else:
                # a stored numbering: only its lemma indices were rewritten
                assert entry[-1].formula is node.formula
            table[node] = len(lemmas)
            lemmas.append(entry)
            conclusions.append(node.formula)
    lines = _renumber(lines, cited, table)
    _verify("proof", lines, hypotheses, params, conclusions)
    return Proof(params, hypotheses, lines, tuple(lemmas))


def _verify(where: str, *args) -> None:
    """Raise AssertionError at the first line that fails _fault(*args)."""
    fault = _fault(*args)
    if fault is not None:
        i, reason = fault
        raise AssertionError(f"{where} line {i + 1} failed the checker: {reason}")


def _number(
    root: Node, position: Mapping[Formula, int]
) -> tuple[tuple[ProofLine, ...], tuple[Node, ...]]:
    """The lines of root and the nodes they cite, in the order of their
    first citation; a Lemma line's index is a position in that list.
    An Axiom or Lemma line holds the node's Binding itself: a generic's
    lines are shared by every proof that cites it (see linearize)."""
    index: dict[Node, int] = {}
    cited: dict[Node, int] = {}
    lines: list[ProofLine] = []
    for node in postorder(root, _premises, index):
        if node.major is not None:
            just = MP(index[node.major], index[node.minor])
        elif node.schema is not None:
            just = Axiom(node.schema, node.subst)
        elif node.lemma is not None:
            just = Lemma(cited.setdefault(node.lemma, len(cited)), node.subst)
        else:
            at = position.get(node.formula)
            if at is None:
                raise ValueError("proof rests on a hypothesis outside the list")
            just = Hyp(at)
        index[node] = len(lines)
        lines.append(ProofLine(node.formula, just))
    return tuple(lines), tuple(cited)


def _renumber(
    lines: tuple[ProofLine, ...], cited: Sequence[Node], table: Mapping[Node, int]
) -> tuple[ProofLine, ...]:
    """lines with each Lemma index, a position in cited, made the table
    index of the node there; a line that cites nothing is kept."""
    at = [table[c] for c in cited]
    if at == list(range(len(at))):
        return lines
    return tuple(
        ProofLine(line.formula, Lemma(at[line.just.index], line.just.bind))
        if type(line.just) is Lemma
        else line
        for line in lines
    )


def _nodes_of(proof: Proof) -> list[Node]:
    """The node of every line of a Proof; raises ValueError unless the
    proof passes check."""
    verdict = check(proof)
    if not verdict:
        raise ValueError(f"proof does not check ({verdict})")
    params = proof.params
    cited: list[Node] = []
    for entry in proof.lemmas:
        cited.append(_rebuild(entry, (), params, cited)[-1])
    return _rebuild(proof.lines, proof.hypotheses, params, cited)


def _rebuild(
    lines: Sequence[ProofLine],
    hyps: tuple[Formula, ...],
    params: LogicParams,
    cited: Sequence[Node],
) -> list[Node]:
    nodes: list[Node] = []
    for line in lines:
        just = line.just
        if isinstance(just, Axiom):
            node = axiom_node(params, just.schema, just.subst)
        elif isinstance(just, Hyp):
            node = hyp_node(hyps[just.index])
        elif isinstance(just, Lemma):
            node = _cite(cited[just.index], Binding.of(just.bind), line.formula)
        else:
            node = mp_node(nodes[just.major], nodes[just.minor])
        nodes.append(node)
    return nodes


def node_of(proof: Proof) -> Node:
    """The node of a Proof's conclusion; raises ValueError unless the
    proof passes check."""
    return _nodes_of(proof)[-1]


# ---------------------------------------------------------------------------
# Rewrites


def _rewrite(root: Node, h: Formula, at_hyp: Node, step) -> Node:
    """Rebuild the nodes of root that rest on h, leaves first.

    The hypothesis h becomes at_hyp; a modus ponens node becomes
    step(node, new_major, new_minor), where a premise that does not rest
    on h is passed as None. One memo per call.
    """
    done: dict[Node, Node] = {}

    def kids(node: Node) -> list[Node]:
        return [c for c in _premises(node) if h in c.hyps]

    for node in postorder(root, kids, done):
        if node.major is None:
            done[node] = at_hyp
        else:
            done[node] = step(node, done.get(node.major), done.get(node.minor))
    return done[root]


def refl_node(params: LogicParams, f: Formula) -> Node:
    """f -> f from Ax1/Ax2 alone."""
    ff = Imp(f, f)
    step = mp_node(_ax2(params, f, ff, f), _ax1(params, f, ff))
    return mp_node(step, _ax1(params, f, f))


def discharge(root: Node, phi: Formula, params: LogicParams) -> Node:
    """The deduction theorem: from a node proving c, one proving phi -> c
    that does not rest on phi.

    A node that does not rest on phi is reused and lifted by Ax1 where a
    rewritten step consumes it; phi itself becomes phi -> phi; a modus
    ponens step resting on phi becomes Ax2 and two modus ponens.
    """

    def lift(node: Node) -> Node:
        return mp_node(_ax1(params, node.formula, phi), node)

    if phi not in root.hyps:
        return lift(root)

    def step(node: Node, major: Optional[Node], minor: Optional[Node]) -> Node:
        a2 = _ax2(params, phi, node.minor.formula, node.formula)
        lifted = mp_node(a2, major or lift(node.major))
        return mp_node(lifted, minor or lift(node.minor))

    return _rewrite(root, phi, refl_node(params, phi), step)


def cut(root: Node, h: Formula, theorem: Node) -> Node:
    """Put a proof of h in place of the hypothesis h."""
    if theorem.formula is not h:
        raise ValueError("theorem does not conclude the replaced hypothesis")
    if h not in root.hyps:
        return root

    def step(node: Node, major: Optional[Node], minor: Optional[Node]) -> Node:
        return mp_node(major or node.major, minor or node.minor)

    return _rewrite(root, h, theorem, step)


def instantiate(
    root: Node, subst: Mapping[str, Formula], params: LogicParams
) -> Node:
    """Apply an atom substitution to every formula under root.

    Axiom and citation bindings are composed with it; a cited lemma is
    left as it is. One formula cache serves the whole DAG.
    """
    cache: dict[Formula, Formula] = {}

    def sub(g: Formula) -> Formula:
        got = cache.get(g)
        return _substitute(g, subst, cache) if got is None else got

    done: dict[Node, Node] = {}
    for node in postorder(root, _premises, done):
        if node.major is not None:
            new = mp_node(done[node.major], done[node.minor])
        elif node.schema is not None:
            bind = Binding._sorted(tuple((v, sub(g)) for v, g in node.subst.items()))
            new = _axiom(params, node.schema, bind, sub(node.formula))
        elif node.lemma is not None:
            # bind, then subst: an atom of the lemma bind leaves free is
            # bound by subst
            bind = {name: sub(g) for name, g in node.subst.items()}
            for name in node.lemma.formula.atom_names:
                if name not in bind and name in subst:
                    bind[name] = subst[name]
            new = _cite(node.lemma, Binding(bind), sub(node.formula))
        else:
            new = hyp_node(sub(node.formula))
        done[node] = new
    return done[root]


def expand_node(root: Node, params: LogicParams) -> Node:
    """root with every citation replaced by the instance of the lemma
    it cites (see instantiate), that lemma expanded first: the same
    proof with no citation left, which can be far larger."""
    done: dict[Node, Node] = {}
    for node in postorder(root, _below, done):
        if node.major is not None:
            new = mp_node(done[node.major], done[node.minor])
        elif node.lemma is not None:
            new = instantiate(done[node.lemma], node.subst, params)
        else:
            new = node  # an axiom or a hypothesis cites nothing
        done[node] = new
    return done[root]


def expand(proof: Proof) -> Proof:
    """The flat proof of a Proof with a lemma table: every Lemma line
    replaced by the instance of the lemma it cites, and no table.

    Raises ValueError unless the proof passes check. A proof without a
    lemma table is returned as it is.
    """
    if not proof.lemmas:
        return proof
    with scope():
        root = expand_node(node_of(proof), proof.params)
        return linearize(root, proof.params, proof.hypotheses)


def chain_node(params: LogicParams, ab: Node, bc: Node) -> Node:
    """From a->b and b->c, a->c."""
    a, mid, c = ab.formula.ant, ab.formula.cons, bc.formula.cons
    lift = mp_node(_ax1(params, bc.formula, a), bc)  # a -> (b -> c)
    return mp_node(mp_node(_ax2(params, a, mid, c), lift), ab)


def perm_node(params: LogicParams, node: Node) -> Node:
    """From a->(b->c), b->(a->c)."""
    f = node.formula
    a, mid, c = f.ant, f.cons.ant, f.cons.cons
    dist = mp_node(_ax2(params, a, mid, c), node)  # (a->b) -> (a->c)
    return chain_node(params, _ax1(params, mid, a), dist)  # via b -> (a->b)


# ---------------------------------------------------------------------------
# Builder


class ProofBuilder:
    """Integer handles over proof nodes, for building a proof by hand.

    A handle numbers a distinct node in the order it first reached the
    builder, so a spliced subproof that repeats material already present
    (the same axiom instance, hypothesis or modus ponens) adds nothing.
    """

    def __init__(
        self, params: LogicParams, hypotheses: Sequence[Formula] = ()
    ) -> None:
        self.params = params
        self.hypotheses = tuple(hypotheses)
        self._nodes: list[Node] = []
        self._handle: dict[Node, int] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def _add(self, node: Node) -> int:
        h = self._handle.get(node)
        if h is None:
            h = self._handle[node] = len(self._nodes)
            self._nodes.append(node)
        return h

    def formula_at(self, i: int) -> Formula:
        return self._nodes[i].formula

    def axiom(self, schema: str, subst: Mapping[str, Formula]) -> int:
        return self._add(axiom_node(self.params, schema, subst))

    def hyp(self, index: int) -> int:
        if not 0 <= index < len(self.hypotheses):
            raise IndexError(f"hypothesis index {index} out of range")
        return self._add(hyp_node(self.hypotheses[index]))

    def mp(self, major: int, minor: int) -> int:
        return self._add(mp_node(self._nodes[major], self._nodes[minor]))

    def splice(self, proof: Proof) -> int:
        """Add another proof's lines; returns its conclusion's handle.

        The spliced proof's hypotheses must all occur in this builder's
        hypothesis list (matched by formula).
        """
        if proof.params != self.params:
            raise ValueError("cannot splice a proof for different logic params")
        if not set(proof.hypotheses) <= set(self.hypotheses):
            raise ValueError("spliced proof uses a hypothesis absent from the target")
        handles = [self._add(node) for node in _nodes_of(proof)]
        return handles[-1]

    def build(self, conclusion: Optional[int] = None) -> Proof:
        """The Proof of the given handle (default: the last one added),
        holding only the lines it reaches."""
        if not self._nodes:
            raise ValueError("a proof needs at least one line")
        root = self._nodes[-1 if conclusion is None else conclusion]
        return linearize(root, self.params, self.hypotheses)


def axiom_proof(
    params: LogicParams, schema: str, subst: Mapping[str, Formula]
) -> Proof:
    """One-line hypothesis-free proof of an axiom instance."""
    with scope():
        return linearize(axiom_node(params, schema, subst), params)


def prune(proof: Proof) -> Proof:
    """Drop lines the conclusion does not reach; hypotheses unchanged."""
    with scope():
        return linearize(node_of(proof), proof.params, proof.hypotheses)


# ---------------------------------------------------------------------------
# Transformers on Proofs


def _without(hyps: tuple[Formula, ...], index: int) -> tuple[Formula, ...]:
    if not 0 <= index < len(hyps):
        raise IndexError(f"hypothesis index {index} out of range")
    return hyps[:index] + hyps[index + 1 :]


def deduction_transform(proof: Proof, discharge_index: int) -> Proof:
    """Discharge one hypothesis: from G,f |- c build G |- f -> c.

    The standard Ax1/Ax2 rewrite (see discharge), applied to the lines
    that rest on f; the others are kept and lifted only where a
    rewritten line consumes them.
    """
    rest = _without(proof.hypotheses, discharge_index)
    phi = proof.hypotheses[discharge_index]
    with scope():
        root = discharge(node_of(proof), phi, proof.params)
        return linearize(root, proof.params, rest)


def weaken(proof: Proof, hypotheses: Sequence[Formula]) -> Proof:
    """Re-host a proof on a wider or reordered hypothesis list."""
    hypotheses = tuple(hypotheses)
    if not set(proof.hypotheses) <= set(hypotheses):
        raise ValueError("the new list lacks a hypothesis of the proof")
    with scope():
        return linearize(node_of(proof), proof.params, hypotheses)


def replace_hyp_with_theorem(proof: Proof, index: int, theorem: Proof) -> Proof:
    """Cut: substitute a hypothesis-free proof for one hypothesis.

    theorem must conclude exactly hypotheses[index]; the result proves
    the same conclusion from the remaining hypotheses.
    """
    rest = _without(proof.hypotheses, index)
    if theorem.params != proof.params:
        raise ValueError("theorem proved under different logic params")
    if theorem.hypotheses:
        raise ValueError("replacement theorem must be hypothesis-free")
    if theorem.conclusion is not proof.hypotheses[index]:
        raise ValueError("theorem does not conclude the replaced hypothesis")
    with scope():
        root = cut(node_of(proof), proof.hypotheses[index], node_of(theorem))
        return linearize(root, proof.params, rest)


def substitute_proof(proof: Proof, subst: Mapping[str, Formula]) -> Proof:
    """Apply an atom substitution to every formula of a proof (see
    instantiate): axiom and citation bindings are composed with it, and
    a cited lemma is kept as it is.

    Raises ValueError unless the proof passes check. Lines the
    substitution makes identical are one line in the result.
    """
    hyps = tuple(substitute(h, subst) for h in proof.hypotheses)
    with scope():
        root = instantiate(node_of(proof), subst, proof.params)
        return linearize(root, proof.params, hyps)


# ---------------------------------------------------------------------------
# Secondary rules (Ax1/Ax2/MP glue)


def rule_trans(p1: Proof, p2: Proof) -> Proof:
    """From a->b and b->c conclude a->c."""
    c1, c2 = p1.conclusion, p2.conclusion
    if (
        not isinstance(c1, Imp)
        or not isinstance(c2, Imp)
        or c1.cons is not c2.ant
    ):
        raise ValueError("rule_trans expects proofs of a->b and b->c")
    if p1.params != p2.params:
        raise ValueError("mismatched logic params")
    with scope():
        root = chain_node(p1.params, node_of(p1), node_of(p2))
        return linearize(root, p1.params, dict.fromkeys(p1.hypotheses + p2.hypotheses))


def rule_perm(p: Proof) -> Proof:
    """From a->(b->c) conclude b->(a->c)."""
    f = p.conclusion
    if not isinstance(f, Imp) or not isinstance(f.cons, Imp):
        raise ValueError("rule_perm expects a proof of a->(b->c)")
    with scope():
        return linearize(perm_node(p.params, node_of(p)), p.params, p.hypotheses)


def rule_red(p: Proof) -> Proof:
    """From (a->b)->c conclude b->c."""
    f = p.conclusion
    if not isinstance(f, Imp) or not isinstance(f.ant, Imp):
        raise ValueError("rule_red expects a proof of (a->b)->c")
    a, mid = f.ant.ant, f.ant.cons
    with scope():
        root = chain_node(p.params, _ax1(p.params, mid, a), node_of(p))  # b -> (a->b)
        return linearize(root, p.params, p.hypotheses)


# ---------------------------------------------------------------------------
# Serialization


class ProofFormatError(ValueError):
    """A proof document is structurally malformed.

    Invalid proofs (bad instances, dangling references) are not format
    errors; they parse fine and are rejected by check.
    """


def _text_cache(proof: Proof) -> _TextCache:
    """A text cache with the room of proof's line texts, comp + 1 characters each."""
    lines = (line for part in (*proof.lemmas, proof.lines) for line in part)
    return _TextCache(chars=sum(line.formula.comp + 1 for line in lines))


def proof_to_json(proof: Proof) -> dict:
    """Plain-dict form of a proof; line and lemma references become
    1-based. The "lemmas" list is written only when the table is not
    empty; each entry is a list of lines.

    The fields share the texts of their common subformulas, within a
    budget linear in the document's size (see _TextCache).
    """
    cache = _text_cache(proof)
    # a field whose text is kept is not spelled; a text is never empty
    known, render = cache.texts.get, cache.render

    def binding(subst: Mapping[str, Formula]) -> dict:
        return {v: known(f) or render(f) for v, f in sorted(subst.items())}

    def lines_of(lines: Sequence[ProofLine]) -> list:
        out = []
        for line in lines:
            f, just = line.formula, line.just
            if isinstance(just, MP):
                j = {"kind": "mp", "major": just.major + 1, "minor": just.minor + 1}
            elif isinstance(just, Axiom):
                j = {"kind": "axiom", "schema": just.schema, "subst": binding(just.subst)}
            elif isinstance(just, Hyp):
                j = {"kind": "hyp", "index": just.index}
            else:
                assert isinstance(just, Lemma)
                j = {"kind": "lemma", "lemma": just.index + 1, "bind": binding(just.bind)}
            out.append({"formula": known(f) or render(f), "just": j})
        return out

    doc = {
        "logic": {"n": proof.params.n, "k": proof.params.k},
        "hypotheses": [render(h) for h in proof.hypotheses],
    }
    if proof.lemmas:
        doc["lemmas"] = [lines_of(entry) for entry in proof.lemmas]
    doc["lines"] = lines_of(proof.lines)
    return doc


def _parse_formula_field(text: object, where: str, cache: _TextCache) -> Formula:
    """parse(text) for a field, through the document's text cache."""
    if not isinstance(text, str):
        raise ProofFormatError(f"{where}: expected a formula string")
    try:
        return cache.parse(text)
    except FormulaSyntaxError as e:
        raise ProofFormatError(f"{where}: {e}") from None


def _read_binding(j: dict, field: str, cache: _TextCache) -> Mapping[str, Formula]:
    """The object j[field] of formula texts, read through cache: a Binding
    when its names come sorted, as proof_to_json writes them, and
    otherwise a dict in the document's order."""
    raw = j.get(field, {})
    if not isinstance(raw, dict):
        raise ProofFormatError(f': "{field}" must be an object')
    out = {}
    for v, t in raw.items():
        # looked up here, so that no where is built for a text read before
        f = cache.formulas.get(t) if isinstance(t, str) else None
        if f is None:
            f = _parse_formula_field(t, f" {field} {v!r}", cache)
        out[str(v)] = f
    return Binding._sorted(tuple(out.items())) if list(out) == sorted(out) else out


def _read_index(j: dict, field: str) -> int:
    r = j.get(field)
    if not isinstance(r, int) or isinstance(r, bool):
        raise ProofFormatError(f': "{field}" must be an integer')
    return r


def _read_just(j: object, cache: _TextCache) -> Justification:
    """A line's justification, read through cache; a fault raises the
    ProofFormatError text that follows the line's place."""
    if not isinstance(j, dict):
        raise ProofFormatError(': "just" must be an object')
    kind = j.get("kind")
    if kind == "mp":
        return MP(_read_index(j, "major") - 1, _read_index(j, "minor") - 1)
    if kind == "axiom":
        schema = j.get("schema")
        if not isinstance(schema, str):
            raise ProofFormatError(': "schema" must be a string')
        return Axiom(schema, _read_binding(j, "subst", cache))
    if kind == "hyp":
        return Hyp(_read_index(j, "index"))
    if kind == "lemma":
        at = _read_index(j, "lemma")
        return Lemma(at - 1, _read_binding(j, "bind", cache))
    raise ProofFormatError(f": unknown justification kind {kind!r}")


def proof_from_json(data: Union[str, bytes, dict]) -> Proof:
    """Read the JSON proof document format.

    Accepts a dict or raw JSON text. Only structural problems raise;
    whether the proof is correct is check's business. The lemma table,
    if there is one, is read before the lines.

    The texts go through one _TextCache, which parses a text at most
    once and maps every text it parses or spells to its formula. A line
    whose text is mapped takes that formula; the justification of any
    other line predicts its formula by the kernel's rule (_given),
    within as many connectives as the text has characters, and the
    prediction is spelled and compared with the text, which is parsed
    only when the two differ: as parse(render(f)) is f, the Proof and the
    errors are the ones parsing every field gives. An axiom line leaves
    its predicted node in the node table for check. The 2.87 MB,
    1785-line flat proof of a -> b -> a at (16,16) reads in about 0.03 s.
    """
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except (ValueError, RecursionError) as e:
            # ValueError covers JSONDecodeError, UnicodeDecodeError and the
            # limit on the digits of an integer; RecursionError deep nesting
            raise ProofFormatError(f"not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ProofFormatError("top level must be a JSON object")
    logic = data.get("logic")
    if (
        not isinstance(logic, dict)
        or not isinstance(logic.get("n"), int)
        or not isinstance(logic.get("k"), int)
        or isinstance(logic["n"], bool)
        or isinstance(logic["k"], bool)
    ):
        raise ProofFormatError('"logic" must be {"n": int, "k": int}')
    try:
        params = LogicParams(logic["n"], logic["k"])
    except ValueError as e:
        raise ProofFormatError(str(e)) from None
    raw_hyps = data.get("hypotheses", [])
    if not isinstance(raw_hyps, list):
        raise ProofFormatError('"hypotheses" must be a list')
    cache = _TextCache(formulas={})
    hyps = tuple(
        _parse_formula_field(h, f"hypothesis {i}", cache) for i, h in enumerate(raw_hyps)
    )
    raw_lemmas = data.get("lemmas", [])
    if not isinstance(raw_lemmas, list):
        raise ProofFormatError('"lemmas" must be a list')
    raw_lines = data.get("lines")
    if not isinstance(raw_lines, list) or not raw_lines:
        raise ProofFormatError('"lines" must be a nonempty list')
    conclusions: list[Formula] = []

    def read(raw_lines: list, hyps: Optional[tuple], prefix: str) -> tuple:
        lines: list[ProofLine] = []
        for num, raw in enumerate(raw_lines, start=1):
            if not isinstance(raw, dict):
                raise ProofFormatError(f"{prefix}line {num}: expected an object")
            text = raw.get("formula")
            if not isinstance(text, str):
                raise ProofFormatError(f"{prefix}line {num}: expected a formula string")
            try:
                just = _read_just(raw.get("just"), cache)
            except ProofFormatError as e:
                # a fault in the formula is reported before one in "just"
                where = f"{prefix}line {num}"
                _parse_formula_field(text, where, cache)
                raise ProofFormatError(f"{where}{e}") from None
            f = cache.formulas.get(text)
            # a known text needs no prediction, but an axiom's node is kept
            if f is None or type(just) is Axiom:
                g = _given(just, lines, len(lines), hyps, params, conclusions, len(text))
                if type(just) is Axiom and type(g) is not str:
                    _axiom(params, just.schema, Binding.of(just.subst), g)
                # a text spells at least one character per connective and atom
                if f is None and type(g) is not str and g.comp < len(text):
                    f = g if cache.spell(g, len(text)) == text else None
                if f is None:
                    f = _parse_formula_field(text, f"{prefix}line {num}", cache)
            lines.append(ProofLine(f, just))
        return tuple(lines)

    lemmas = []
    for e, raw_entry in enumerate(raw_lemmas, start=1):
        if not isinstance(raw_entry, list) or not raw_entry:
            raise ProofFormatError(f"lemma {e}: expected a nonempty list of lines")
        entry = read(raw_entry, None, f"lemma {e} ")
        lemmas.append(entry)
        conclusions.append(entry[-1].formula)
    return Proof(params, hyps, read(raw_lines, hyps, ""), tuple(lemmas))
