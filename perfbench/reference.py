"""Brute-force reference semantics of I^nP^k, written from the matrix.

This module does not import ``inpk``.  It is the yardstick every
correctness check of the benchmark compares against.

Formulas are plain tuples:

    ("a", name)          an atom
    ("n", body)          negation  !body
    ("i", ant, cons)     implication  ant -> cons

Objects of ``inpk.formula`` are read through ``view`` so proofs built by
the program can be evaluated without converting them first.

A logic (n, k) has values F0..Fn and T0..Tk; the T values are
designated.  They are coded as integers in enumeration order:
F_r is r and T_i is n + 1 + i, so F0 < ... < Fn < T0 < ... < Tk.
"""

from __future__ import annotations

import itertools


def atom(name):
    return ("a", name)


def neg(f):
    return ("n", f)


def imp(a, b):
    return ("i", a, b)


def negs(d, f):
    for _ in range(d):
        f = neg(f)
    return f


# Derived connectives, expanded to the primitives by their definitions.
def classicalize(f):
    return imp(imp(f, f), f)


def strong_neg(f):
    return neg(classicalize(f))


def or_(a, b):
    return imp(strong_neg(a), b)


def and_(a, b):
    return strong_neg(imp(a, strong_neg(b)))


def or_cl(a, b):
    return imp(neg(a), b)


def and_cl(a, b):
    return neg(imp(a, neg(b)))


def star(f):
    return or_(neg(f), f)


def circ(f):
    return neg(and_(neg(f), f))


def view(node):
    """The tuple form of one node, for tuples and inpk formulas alike."""
    if type(node) is tuple:
        return node
    if hasattr(node, "name"):
        return ("a", node.name)
    if hasattr(node, "body"):
        return ("n", node.body)
    return ("i", node.ant, node.cons)


def atom_order(formulas):
    """Distinct atom names, first occurrence left to right."""
    seen = {}
    visited = set()
    for f in formulas:
        stack = [f]
        while stack:
            g = stack.pop()
            if id(g) in visited and type(g) is not tuple:
                continue
            visited.add(id(g))
            v = view(g)
            if v[0] == "a":
                seen.setdefault(v[1], None)
            elif v[0] == "n":
                stack.append(v[1])
            else:
                stack.append(v[2])
                stack.append(v[1])
    return list(seen)


class Matrix:
    """The matrix of one logic (n, k)."""

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        self.size = n + k + 2
        self.t0 = n + 1

    def name(self, code: int) -> str:
        return f"F{code}" if code <= self.n else f"T{code - self.t0}"

    def designated(self, code: int) -> bool:
        return code >= self.t0

    def neg(self, code: int) -> int:
        # one grade toward the classical shadow; F0 and T0 swap
        if code == 0:
            return self.t0
        if code == self.t0:
            return 0
        return code - 1

    def imp(self, a: int, b: int) -> int:
        # F0 exactly when the antecedent is designated and the consequent is not
        if self.designated(a) and not self.designated(b):
            return 0
        return self.t0

    def value(self, f, valuation: dict, memo: dict) -> int:
        """Value of f; memo maps id(node) to value for this valuation."""
        stack = [f]
        while stack:
            g = stack[-1]
            if id(g) in memo:
                stack.pop()
                continue
            v = view(g)
            if v[0] == "a":
                memo[id(g)] = valuation[v[1]]
                stack.pop()
            elif v[0] == "n":
                got = memo.get(id(v[1]))
                if got is None:
                    stack.append(v[1])
                else:
                    memo[id(g)] = self.neg(got)
                    stack.pop()
            else:
                a = memo.get(id(v[1]))
                b = memo.get(id(v[2]))
                if a is None or b is None:
                    if a is None:
                        stack.append(v[1])
                    if b is None:
                        stack.append(v[2])
                else:
                    memo[id(g)] = self.imp(a, b)
                    stack.pop()
        return memo[id(f)]

    def valuations(self, names):
        """All valuations, lexicographic, first atom most significant."""
        for codes in itertools.product(range(self.size), repeat=len(names)):
            yield dict(zip(names, codes))

    def holds(self, hyps, goal, valuation) -> bool:
        """False when valuation designates every hypothesis but not goal."""
        memo: dict = {}
        if self.designated(self.value(goal, valuation, memo)):
            return True
        return not all(self.designated(self.value(h, valuation, memo)) for h in hyps)

    def first_counterexample(self, hyps, goal):
        """The first refuting valuation as {atom: 'F1', ...}, or None."""
        # hyps is a list: every atom, over hypotheses first, then goal
        names = atom_order(list(hyps) + [goal])
        for val in self.valuations(names):
            if not self.holds(hyps, goal, val):
                return {nm: self.name(c) for nm, c in val.items()}
        return None

    def valid_everywhere(self, formulas, names) -> bool:
        """Every formula is designated under every valuation of names."""
        for val in self.valuations(names):
            memo: dict = {}
            for f in formulas:
                if not self.designated(self.value(f, val, memo)):
                    return False
        return True


# The twelve axiom schemas of the Hilbert system (Ax5 and Ax6 are
# indexed by the logic's n and k).  Each is valid in its logic.
def axiom(schema: str, n: int, k: int, phi, psi=None, theta=None):
    if schema == "Ax1":
        return imp(phi, imp(psi, phi))
    if schema == "Ax2":
        return imp(imp(phi, imp(psi, theta)), imp(imp(phi, psi), imp(phi, theta)))
    if schema == "Ax3":
        return star(imp(phi, psi))
    if schema == "Ax4":
        return circ(imp(phi, psi))
    if schema == "Ax5":
        return star(negs(n, phi))
    if schema == "Ax6":
        return circ(negs(k, phi))
    if schema == "Ax7":
        return imp(star(phi), imp(circ(psi), imp(imp(neg(phi), neg(psi)),
                                                 imp(imp(neg(phi), psi), phi))))
    if schema == "Ax8":
        return imp(star(phi), imp(circ(psi), imp(imp(phi, neg(psi)),
                                                 imp(imp(phi, psi), neg(phi)))))
    if schema == "Ax9":
        return imp(star(phi), imp(neg(neg(phi)), phi))
    if schema == "Ax10":
        return imp(circ(phi), imp(phi, neg(neg(phi))))
    if schema == "Ax11":
        return imp(star(phi), star(neg(phi)))
    if schema == "Ax12":
        return imp(circ(phi), circ(neg(phi)))
    raise ValueError(schema)


AXIOM_ARITY = {"Ax1": 2, "Ax2": 3, "Ax3": 2, "Ax4": 2, "Ax5": 1, "Ax6": 1,
               "Ax7": 2, "Ax8": 2, "Ax9": 1, "Ax10": 1, "Ax11": 1, "Ax12": 1}


def separating_witness(a_n: int, a_k: int, b_n: int, b_k: int):
    """A one-atom formula valid in (a_n, a_k) and refuted in (b_n, b_k).

    Needs b_n > a_n or b_k > a_k: the excluded middle one negation
    deeper than a_n, or non-contradiction one deeper than a_k.
    """
    p = atom("p")
    if b_n > a_n:
        return or_(negs(a_n + 1, p), negs(a_n, p))
    if b_k > a_k:
        return neg(and_(negs(a_k + 1, p), negs(a_k, p)))
    raise ValueError("no witness: the second logic is not more permissive")


def render(f, memo=None) -> str:
    """Concrete primitive syntax accepted by the inpk parser.

    memo (id of node -> text) may be shared between calls on formulas
    that share subformulas, such as the lines of one proof."""
    memo = {} if memo is None else memo
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in memo:
            stack.pop()
            continue
        v = view(g)
        if v[0] == "a":
            memo[id(g)] = v[1]
            stack.pop()
            continue
        missing = [c for c in v[1:] if id(c) not in memo]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        if v[0] == "n":
            body = memo[id(v[1])]
            memo[id(g)] = f"!({body})" if view(v[1])[0] == "i" else "!" + body
        else:
            ant = memo[id(v[1])]
            if view(v[1])[0] == "i":
                ant = f"({ant})"
            memo[id(g)] = f"{ant} -> {memo[id(v[2])]}"
    return memo[id(f)]


def rename(f, names: dict):
    """Rename atoms (tuples only)."""
    if f[0] == "a":
        return ("a", names.get(f[1], f[1]))
    if f[0] == "n":
        return ("n", rename(f[1], names))
    return ("i", rename(f[1], names), rename(f[2], names))
