"""Matrix semantics for the logic family.

A logic is fixed by a pair (n, k).  Its carrier has n+1 "false" grades
F0..Fn and k+1 "true" grades T0..Tk; the T's are designated.  Negation
walks each grade one step toward its classical shadow (F0 <-> T0 at the
bottom), and implication only ever yields T0 or F0: it is T0 unless the
antecedent is designated and the consequent is not.

Decision procedures report the first counterexample in a fixed
lexicographic order (F0 < ... < Fn < T0 < ... < Tk, first atom most
significant), so it is deterministic.  They need not visit every
valuation.  Since implication yields only F0 or T0 and negation moves a
grade one step, only a chain !^j p over an atom sees p's grade: if d is
p's deepest chain, every grade above d on one side is designated alike by
all of p's chains, so p ranges over F0..F_min(n,d), T0..T_min(k,d) only.
Clipping grades there keeps every designation and never moves a
valuation later in the order, so the first counterexample lies in that
collapsed space.  A chain node is a lookup in its atom's grades; every
other node is a designation bit (implication ~a | b, negation ~a),
evaluated for whole blocks of valuations at once: bit v of a Python int
is valuation v of the block.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from .formula import (
    CONNECTIVES, Atom, Neg, Imp, Formula, atoms, children, expand, iter_neg,
    or_, and_, postorder,
)

__all__ = [
    "TruthValue", "F", "T", "parse_value",
    "LogicParams", "Valuation", "parse_valuation", "render_valuation",
    "Verdict", "OrderVerdict", "TruthTable",
    "neg_value", "imp_value", "eval_formula", "eval_subformulas",
    "is_designated",
    "enumerate_valuations", "is_tautology", "entails",
    "compare_logics", "separating_witness", "truth_table",
]

_VALUE_RE = re.compile(r"([FT])([0-9]+)\Z")


@dataclass(frozen=True)
class TruthValue:
    """One carrier element: F(r) or T(i)."""

    kind: str
    index: int

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"

    def __repr__(self) -> str:
        return f"{self.kind}{self.index}"

    @property
    def designated(self) -> bool:
        return self.kind == "T"


def F(r: int) -> TruthValue:
    return TruthValue("F", r)


def T(i: int) -> TruthValue:
    return TruthValue("T", i)


def parse_value(text: str) -> TruthValue:
    m = _VALUE_RE.match(text.strip())
    if m is None:
        raise ValueError(f"bad truth value {text!r} (expected like F0 or T2)")
    return TruthValue(m.group(1), int(m.group(2)))


@dataclass(frozen=True)
class LogicParams:
    """The pair (n, k) selecting one logic of the family."""

    n: int
    k: int

    def __post_init__(self):
        for v in (self.n, self.k):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"n and k must be integers, not {type(v).__name__}")
        if self.n < 0 or self.k < 0:
            raise ValueError("n and k must be non-negative")

    @property
    def size(self) -> int:
        return self.n + self.k + 2

    def values(self) -> list[TruthValue]:
        """Carrier in canonical (enumeration) order."""
        return [F(r) for r in range(self.n + 1)] + [T(i) for i in range(self.k + 1)]

    def check_value(self, a: TruthValue) -> TruthValue:
        if a.kind not in ("F", "T") or type(a.index) is not int:
            raise ValueError(f"{a!r} is not a truth value: F or T and an int index")
        limit = self.n if a.kind == "F" else self.k
        if not 0 <= a.index <= limit:
            raise ValueError(f"value {a} out of range for (n={self.n}, k={self.k})")
        return a

    def code(self, a: TruthValue) -> int:
        self.check_value(a)
        return a.index if a.kind == "F" else self.n + 1 + a.index

    def value_of_code(self, c: int) -> TruthValue:
        return F(c) if c <= self.n else T(c - self.n - 1)


Valuation = dict[str, TruthValue]


def parse_valuation(text: str) -> Valuation:
    """Parse 'p=T1,q=F0' into a valuation."""
    v: Valuation = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, val = part.partition("=")
        if sep != "=" or not name.strip():
            raise ValueError(f"bad valuation entry {part!r}")
        v[name.strip()] = parse_value(val)
    return v


def render_valuation(v: Valuation) -> str:
    return ",".join(f"{name}={val}" for name, val in v.items())


def neg_value(params: LogicParams, a: TruthValue) -> TruthValue:
    params.check_value(a)
    if a.kind == "F":
        return T(0) if a.index == 0 else F(a.index - 1)
    return F(0) if a.index == 0 else T(a.index - 1)


def imp_value(params: LogicParams, a: TruthValue, b: TruthValue) -> TruthValue:
    params.check_value(a)
    params.check_value(b)
    return T(0) if (not a.designated or b.designated) else F(0)


def is_designated(params: LogicParams, a: TruthValue) -> bool:
    params.check_value(a)
    return a.designated


def eval_formula(params: LogicParams, f: Formula, v: Valuation) -> TruthValue:
    """Homomorphic extension of v to f (single valuation, scalar path)."""
    return eval_subformulas(params, f, v)[f]


def eval_subformulas(
    params: LogicParams, f: Formula, v: Valuation
) -> dict[Formula, TruthValue]:
    """The value under v of every subformula of f, f included."""
    for name in f.atom_names:
        if name not in v:
            raise ValueError(f"unbound atom {name!r}")
    cache: dict[Formula, TruthValue] = {}
    for g in postorder(f, children, cache):
        if type(g) is Atom:
            cache[g] = params.check_value(v[g.name])
        elif type(g) is Neg:
            cache[g] = neg_value(params, cache[g.body])
        else:
            cache[g] = imp_value(params, cache[g.ant], cache[g.cons])
    return cache


def enumerate_valuations(params: LogicParams, names: list[str]) -> Iterator[Valuation]:
    """All (n+k+2)^m valuations, lexicographic, first atom most significant."""
    values = params.values()
    m = len(names)
    size = params.size
    total = size ** m
    for idx in range(total):
        v: Valuation = {}
        for j, name in enumerate(names):
            v[name] = values[(idx // size ** (m - 1 - j)) % size]
        yield v


@dataclass(frozen=True)
class Verdict:
    """Outcome of a tautology / entailment decision."""

    valid: bool
    counterexample: Optional[Valuation] = None

    def __bool__(self) -> bool:
        return self.valid


# ---------------------------------------------------------------------------
# Bit-parallel decision core.

_CHUNK = 1 << 18


def _designation(grades: list[TruthValue], j: int) -> list[bool]:
    """Designation of !^j p at each of p's grades.

    Negation walks F(r) down to F0 and T(i) down to T0, then alternates
    F0, T0, F0, ...  So a grade at or above j keeps its side, and below
    it the parity of the remaining steps decides.
    """
    return [
        g.kind == "T" if g.index >= j else (j - g.index) % 2 == (g.kind == "F")
        for g in grades
    ]


def _collapse(params: LogicParams, roots: list[Formula], names: list[str]):
    """The distinct subformulas of roots in postorder, the chain !^j p
    each negation chain over an atom is (as (position of p, j)), and
    the grades each atom ranges over after the collapse."""
    position = {name: i for i, name in enumerate(names)}
    # chains[!^j p] = (position of p, j); every other node is a bit.
    chains: dict[Formula, tuple[int, int]] = {}
    order: dict[Formula, None] = {}
    for root in roots:
        for g in postorder(root, children, order):
            order[g] = None
            if type(g) is Atom:
                chains[g] = (position[g.name], 0)
            elif type(g) is Neg and g.body in chains:
                i, j = chains[g.body]
                chains[g] = (i, j + 1)

    # Collapse each atom's grades to those its deepest chain can tell apart.
    depth = [0] * len(names)
    for i, j in chains.values():
        depth[i] = max(depth[i], j)
    grades = [
        [F(r) for r in range(min(params.n, d) + 1)]
        + [T(r) for r in range(min(params.k, d) + 1)]
        for d in depth
    ]
    return order, chains, grades


def decision_size(params: LogicParams, formulas: list[Formula]) -> tuple[int, int]:
    """The valuations (after the collapse) that is_tautology or entails
    goes through to decide these formulas, and the distinct subformulas
    it evaluates as bits at each (all but the negation chains over an
    atom, which are looked up); the work is about their product."""
    names = list(dict.fromkeys(a for f in formulas for a in atoms(f)))
    order, chains, grades = _collapse(params, list(dict.fromkeys(formulas)), names)
    return math.prod(len(g) for g in grades), len(order) - len(chains)


def _decide(params: LogicParams, hyps: list[Formula], goal: Formula,
            names: list[str], everywhere: Optional[set] = None) -> Verdict:
    """First valuation (canonical order) designating hyps but not goal.

    When everywhere is a set, the subformulas designated at every
    valuation visited are added to it. A valid verdict visits them all,
    so these are then the subformulas that are tautologies, read off the
    same pass. A subformula's bits are compared with a full block when
    they are freed, and a root's at the end of each block.
    """
    roots = list(dict.fromkeys(hyps + [goal]))
    order, chains, grades = _collapse(params, roots, names)
    radix = [len(g) for g in grades]

    # The trailing atoms names[split:] vary inside a block of `size`
    # valuations; the leading ones are fixed for the block.  inner[i] is
    # the stride of atom i within its group.
    split, size = len(names), 1
    while split and size * radix[split - 1] <= _CHUNK:
        split -= 1
        size *= radix[split]
    inner = [1] * len(names)
    for i in range(len(names) - 2, -1, -1):
        if i + 1 != split:
            inner[i] = inner[i + 1] * radix[i + 1]

    # Designation bits, bit v for valuation v of the block: built once
    # for the trailing chains, all set or all clear for the leading ones.
    full = (1 << size) - 1
    patterns: dict[Formula, int] = {}
    leading: dict[Formula, tuple[int, list[bool]]] = {}
    for g, (i, j) in chains.items():
        bits = _designation(grades[i], j)
        if i < split:
            leading[g] = (i, bits)
        else:
            # One period, then doubled: a multiple of the period's
            # repunit would take a long division, which is quadratic.
            run = (1 << inner[i]) - 1
            x = 0
            for r, on in enumerate(bits):
                if on:
                    x |= run << (r * inner[i])
            period = radix[i] * inner[i]
            while period < size:
                x |= x << period
                period *= 2
            patterns[g] = x & full

    # Free each intermediate after its last use.
    last_use: dict[Formula, int] = {}
    for pos, g in enumerate(order):
        last_use[g] = pos
        if type(g) is Neg:
            last_use[g.body] = pos
        elif type(g) is Imp:
            last_use[g.ant] = pos
            last_use[g.cons] = pos
    keep = set(roots)
    expiry: dict[int, list[Formula]] = {}
    for g, pos in last_use.items():
        if g not in keep:
            expiry.setdefault(pos, []).append(g)

    if everywhere is not None:
        everywhere.update(order)
    for block in range(math.prod(radix[:split])):
        value: dict[Formula, int] = {}
        for pos, g in enumerate(order):
            if g in patterns:
                value[g] = patterns[g]
            elif g in leading:
                i, bits = leading[g]
                value[g] = full if bits[block // inner[i] % radix[i]] else 0
            elif type(g) is Neg:
                value[g] = full ^ value[g.body]
            else:
                value[g] = (full ^ value[g.ant]) | value[g.cons]
            for dead in expiry.get(pos, ()):
                if everywhere is not None and value[dead] != full:
                    everywhere.discard(dead)
                del value[dead]
        if everywhere is not None:
            everywhere.difference_update([g for g in roots if value[g] != full])
        bad = full ^ value[goal]
        for h in hyps:
            bad &= value[h]
        if bad:
            # the lowest set bit is the first valuation in canonical order
            at = (bad & -bad).bit_length() - 1
            witness = {}
            for i, name in enumerate(names):
                index = block if i < split else at
                witness[name] = grades[i][index // inner[i] % radix[i]]
            return Verdict(False, witness)
    return Verdict(True)


def is_tautology(params: LogicParams, f: Formula) -> Verdict:
    """Valid iff f is designated under every valuation of its atoms."""
    return _decide(params, [], f, atoms(f))


def entails(params: LogicParams, hyps: list[Formula], f: Formula) -> Verdict:
    """Consequence over the union of atoms (hypotheses first)."""
    names: dict[str, None] = {}
    for h in hyps:
        for a in atoms(h):
            names[a] = None
    for a in atoms(f):
        names[a] = None
    return _decide(params, list(hyps), f, list(names))


# ---------------------------------------------------------------------------
# The hierarchy order.

class OrderVerdict(Enum):
    STRICTLY_BELOW = "below"
    STRICTLY_ABOVE = "above"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def compare_logics(a: LogicParams, b: LogicParams) -> OrderVerdict:
    """Position of logic a relative to logic b.

    a is (weakly) below b exactly when b.n <= a.n and b.k <= a.k: larger
    parameters mean a more permissive matrix, hence fewer tautologies.
    """
    if a == b:
        return OrderVerdict.EQUAL
    if b.n <= a.n and b.k <= a.k:
        return OrderVerdict.STRICTLY_BELOW
    if a.n <= b.n and a.k <= b.k:
        return OrderVerdict.STRICTLY_ABOVE
    return OrderVerdict.INCOMPARABLE


def separating_witness(a: LogicParams, b: LogicParams) -> Optional[Formula]:
    """A formula valid in logic a but refuted in logic b, when one exists.

    Exists iff b's matrix is strictly more permissive in some coordinate
    (b.n > a.n or b.k > a.k); otherwise everything valid in a holds in b.
    """
    p = Atom("p")
    if b.n > a.n:
        return or_(iter_neg(a.n + 1, p), iter_neg(a.n, p))
    if b.k > a.k:
        return Neg(and_(iter_neg(a.k + 1, p), iter_neg(a.k, p)))
    return None


@dataclass(frozen=True)
class TruthTable:
    """Computed table of one connective over a carrier."""

    params: LogicParams
    connective: str
    arity: int
    values: tuple[TruthValue, ...]
    entries: tuple  # arity 1: tuple of values; arity 2: tuple of rows

    def lookup(self, *args: TruthValue) -> TruthValue:
        pos = [self.values.index(a) for a in args]
        if self.arity == 1:
            return self.entries[pos[0]]
        return self.entries[pos[0]][pos[1]]


def truth_table(params: LogicParams, connective: str) -> TruthTable:
    """Table computed by expanding the connective and evaluating."""
    p, q = Atom("p"), Atom("q")
    values = tuple(params.values())
    if connective not in CONNECTIVES:
        raise ValueError(f"unknown connective {connective!r}")
    arity = CONNECTIVES[connective][0]
    if arity == 1:
        f = expand(connective, p)
        row = tuple(eval_formula(params, f, {"p": a}) for a in values)
        return TruthTable(params, connective, 1, values, row)
    f = expand(connective, p, q)
    rows = tuple(
        tuple(eval_formula(params, f, {"p": a, "q": b}) for b in values)
        for a in values
    )
    return TruthTable(params, connective, 2, values, rows)
