"""Propositional language of the workbench.

Formulas are trees over named atoms with two primitive connectives:
negation (``!``) and implication (``->``).  The richer surface syntax is
sugar and is expanded while parsing, so an AST never contains a derived
connective:

    ``@f``      classicalize            (f -> f) -> f
    ``~f``      strong negation         !(@f)
    ``f | g``   join                    ~f -> g
    ``f & g``   meet                    ~(f -> ~g)
    ``f || g``  classical join          !f -> g
    ``f && g``  classical meet          !(f -> !g)
    ``f^*``     excluded-middle mark    !f | f
    ``f^o``     non-contradiction mark  !(!f & f)

Nodes are hash-consed: building the same shape twice returns the same
object.  Equality is therefore identity and never walks the tree, which
the proof checker and the evaluators lean on heavily.

Every bottom-up fold over a formula (evaluation, substitution, the
translations of the classical fragment and the witnesses of the
completeness proof) is a loop over ``postorder``: the distinct nodes
below a root, children first, from an explicit stack.
"""

from __future__ import annotations

import re
import sys
from itertools import islice
from typing import Callable, Container, Iterator, Sequence, TypeVar

__all__ = [
    "Formula", "Atom", "Neg", "Imp", "FormulaSyntaxError",
    "parse", "render", "expand", "atoms", "complexity",
    "classicalize", "strong_neg", "or_", "and_", "or_cl", "and_cl",
    "star", "circ", "iter_neg", "CONNECTIVES",
]

_ATOM_NAME = re.compile(r"[a-z][a-z0-9_]*\Z")


class Formula:
    """Immutable, interned formula node."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        text = _render_plain(self, limit=61)
        if len(text) > 60:
            text = text[:57] + "..."
        return f"<formula {text}>"


_ATOMS: dict[str, "Atom"] = {}
_NEGS: dict["Formula", "Neg"] = {}
_IMPS: dict[tuple["Formula", "Formula"], "Imp"] = {}

# comp saturates here, so that it stays a machine-size integer: a strong
# negation triples it, and 40 of them would pass 2^62.
_COMP_CAP = 2**62


class Atom(Formula):
    __slots__ = ("name", "comp", "atom_names")
    __match_args__ = ("name",)

    def __new__(cls, name: str) -> "Atom":
        found = _ATOMS.get(name)
        if found is None:
            if not _ATOM_NAME.match(name):
                raise ValueError(f"invalid atom name {name!r}")
            found = object.__new__(cls)
            found.name = name
            found.comp = 0
            found.atom_names = (name,)
            _ATOMS[name] = found
        return found


class Neg(Formula):
    __slots__ = ("body", "comp", "atom_names")
    __match_args__ = ("body",)

    def __new__(cls, body: Formula) -> "Neg":
        found = _NEGS.get(body)
        if found is None:
            found = object.__new__(cls)
            found.body = body
            comp = body.comp + 1
            found.comp = comp if comp < _COMP_CAP else _COMP_CAP
            found.atom_names = body.atom_names
            _NEGS[body] = found
        return found


class Imp(Formula):
    __slots__ = ("ant", "cons", "comp", "atom_names")
    __match_args__ = ("ant", "cons")

    def __new__(cls, ant: Formula, cons: Formula) -> "Imp":
        found = _IMPS.get((ant, cons))
        if found is None:
            found = object.__new__(cls)
            found.ant = ant
            found.cons = cons
            comp = ant.comp + cons.comp + 1
            found.comp = comp if comp < _COMP_CAP else _COMP_CAP
            names = ant.atom_names
            extra = tuple(a for a in cons.atom_names if a not in names)
            found.atom_names = names + extra if extra else names
            _IMPS[(ant, cons)] = found
        return found


def children(g: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of g, left to right."""
    if type(g) is Imp:
        return (g.ant, g.cons)
    if type(g) is Neg:
        return (g.body,)
    return ()


_READY = object()
_T = TypeVar("_T")


def postorder(
    root: _T,
    kids: Callable[[_T], Sequence[_T]],
    memo: Container[_T],
) -> Iterator[_T]:
    """Yield every node under root that is not in memo, each after the
    nodes kids(node) returns for it: depth first, left to right.  The
    nodes are formulas, or the proof nodes of ``inpk.proofs``.

    memo is the caller's table of results, and also the visited set: the
    caller enters each node it is given, and a node found in memo is
    neither yielded nor descended into.  kids is called once per node,
    when the node is first reached, so it may raise to reject a node or
    return only the subterms a fold needs.  The stack is explicit, so
    depth is bounded by memory, not by the call stack.
    """
    stack = [root]
    while stack:
        g = stack.pop()
        if g is _READY:
            yield stack.pop()
        elif g not in memo:
            below = kids(g)
            if below:
                stack += (g, _READY)
                stack += below[::-1]
            else:
                yield g


def classicalize(f: Formula) -> Formula:
    return Imp(Imp(f, f), f)


def strong_neg(f: Formula) -> Formula:
    return Neg(classicalize(f))


def or_(a: Formula, b: Formula) -> Formula:
    return Imp(strong_neg(a), b)


def and_(a: Formula, b: Formula) -> Formula:
    return strong_neg(Imp(a, strong_neg(b)))


def or_cl(a: Formula, b: Formula) -> Formula:
    return Imp(Neg(a), b)


def and_cl(a: Formula, b: Formula) -> Formula:
    return Neg(Imp(a, Neg(b)))


def star(f: Formula) -> Formula:
    return or_(Neg(f), f)


def circ(f: Formula) -> Formula:
    return Neg(and_(Neg(f), f))


def iter_neg(q: int, f: Formula) -> Formula:
    """q-fold negation; q = 0 returns f unchanged."""
    if q < 0:
        raise ValueError("negative negation count")
    for _ in range(q):
        f = Neg(f)
    return f


# Connective name -> (arity, builder).  The same names drive truth tables
# and the CLI's `table` subcommand; "neg" and "imp" are the primitives.
CONNECTIVES: dict[str, tuple[int, object]] = {
    "neg": (1, Neg),
    "imp": (2, Imp),
    "classicalize": (1, classicalize),
    "strong": (1, strong_neg),
    "or": (2, or_),
    "and": (2, and_),
    "or_cl": (2, or_cl),
    "and_cl": (2, and_cl),
    "star": (1, star),
    "circ": (1, circ),
}


def expand(name: str, *args: Formula) -> Formula:
    """Build the primitive expansion of the named connective."""
    try:
        arity, build = CONNECTIVES[name]
    except KeyError:
        raise ValueError(f"unknown connective {name!r}") from None
    if len(args) != arity:
        raise ValueError(f"{name} takes {arity} argument(s), got {len(args)}")
    return build(*args)


def atoms(f: Formula) -> list[str]:
    """Distinct atom names in first-occurrence order."""
    return list(f.atom_names)


def complexity(f: Formula) -> int:
    """Number of connective nodes, each occurrence counted; a formula
    with more than 2^62 of them gives 2^62."""
    return f.comp


def render(f: Formula) -> str:
    """Primitive-only concrete syntax; parse(render(f)) is f.

    Nothing is kept between calls.  The texts of one document, whose
    formulas overlap, are spelled through a _TextCache instead, which
    keeps each subformula's text within a room linear in the document.
    """
    return _render_plain(f)


def _render_plain(f: Formula, known: dict[Formula, str] | None = None,
                  limit: int = sys.maxsize) -> str:
    """render(f), taking the text of a subformula found in known; it stops
    after limit parts, none empty, so a longer text is cut to a prefix."""
    if known is None:
        known = {}
    parts: list[str] = []
    stack: list[object] = [f]
    while stack and len(parts) < limit:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
        elif item in known:
            parts.append(known[item])
        elif type(item) is Atom:
            parts.append(item.name)
        elif type(item) is Neg:
            parts.append("!")
            if type(item.body) is Imp:
                parts.append("(")
                stack.append(")")
            stack.append(item.body)
        else:
            stack.append(item.cons)
            stack.append(" -> ")
            if type(item.ant) is Imp:
                stack.append(")")
                stack.append(item.ant)
                parts.append("(")
            else:
                stack.append(item.ant)
    return "".join(parts)


# Characters of subformula text a document may keep per character of
# the formulas it spells; past that it renders (or parses) uncached.
_ROOM_PER_CHAR = 8


class _TextCache:
    """The texts of one document's fields, through a cache of subformula
    texts kept within room: credited _ROOM_PER_CHAR characters per
    character of the fields spelled, as the texts of a formula's
    subformulas can total the square of its own length (a deep chain) or
    far more (a tree of shared subformulas).  A reader passes formulas,
    a dict that gets the formula of each text kept or parsed."""

    __slots__ = ("texts", "formulas", "room")

    def __init__(self, chars: int = 0,
                 formulas: dict[str, Formula] | None = None) -> None:
        self.texts: dict[Formula, str] = {}
        self.formulas = formulas
        self.room = _ROOM_PER_CHAR * chars

    def spell(self, f: Formula, chars: int) -> str | None:
        """render(f) for fields counted as chars characters, or None
        when the texts of its subformulas not yet kept would not fit;
        those that fit are kept.  A node goes back on the stack under
        its children until their texts are kept."""
        texts, formulas = self.texts, self.formulas
        room = self.room + _ROOM_PER_CHAR * chars
        stack = [f]
        while stack:
            g = stack.pop()
            if g in texts:
                continue
            if type(g) is Imp:
                ant, cons = texts.get(g.ant), texts.get(g.cons)
                if ant is None or cons is None:
                    stack += (g, g.cons, g.ant)
                    continue
                text = ("(" + ant + ")" if type(g.ant) is Imp else ant) + " -> " + cons
            elif type(g) is Neg:
                body = texts.get(g.body)
                if body is None:
                    stack += (g, g.body)
                    continue
                text = "!(" + body + ")" if type(g.body) is Imp else "!" + body
            else:
                text = g.name
            # built before the check, it is at most twice its parts' room
            room -= len(text)
            if room < 0:
                break
            texts[g] = text
            if formulas is not None:
                formulas[text] = g
        self.room = room
        return texts.get(f)

    def parse(self, text: str) -> Formula:
        """parse(text) through formulas, which gets the texts parsed: the
        arrows outside parentheses cut text into its right spine ("->" is
        loosest and groups to the right), and a piece found in formulas,
        bare or in its parentheses, is not parsed.  A text is valid just
        when its pieces are: one that fails makes text parse, and raise."""
        formulas = self.formulas
        spine: list[Formula] = []
        piece, depth = "", 0
        for cut in text.split("->"):
            piece += cut
            depth += cut.count("(") - cut.count(")")
            if depth:
                piece += "->"
                continue
            piece = piece.strip(_BLANKS)
            f = formulas.get(piece)
            if f is None and piece[:1] == "(" and piece[-1:] == ")":
                f = formulas.get(piece[1:-1])
            if f is None:
                try:
                    f = formulas[piece] = parse(piece)
                except FormulaSyntaxError:
                    return parse(text)
            spine.append(f)
            piece = ""
        if depth:
            return parse(text)
        f = spine.pop()
        while spine:
            f = Imp(spine.pop(), f)
        formulas[text] = f
        return f

    def render(self, f: Formula) -> str:
        """render(f), from the kept texts alone if it does not fit the room."""
        text = self.spell(f, 0)
        return _render_plain(f, self.texts) if text is None else text


class FormulaSyntaxError(ValueError):
    """Raised on malformed input; carries byte offset and expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        if expected:
            message = f"{message}: expected {', '.join(expected)}"
        super().__init__(f"{message} (byte {offset})")


# Blanks before a token are skipped; the last alternative takes any other
# single character, so every other character lands in some token and a
# lexical error is a one-character token outside _VALID.
_BLANKS = " \t\r\n"
_TOKEN = re.compile(rf"[{_BLANKS}]*(->|\|\||&&|\^\*|\^o|[!~@|&()]|[a-z][a-z0-9_]*|[^{_BLANKS}])")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyz")
_VALID = _LETTERS | set("!~@|&()")

# Pending operators are (binding power, builder) pairs: prefix operators
# bind tightest, "(" is a floor that only its ")" removes.
_OPEN = (0, None)
_PREFIX = {"!": (4, Neg), "~": (4, strong_neg), "@": (4, classicalize), "(": _OPEN}
_POSTFIX = {"^*": star, "^o": circ}
# Token after an operand -> (reduce pending operators of at least this
# power, entry to push).  "->" groups to the right, "|" and "&" and their
# classical forms to the left; ")" and the end of input push nothing.
# _TextCache.parse cuts a text at its top-level "->" as the loosest, right-grouping one.
_AFTER = {
    "->": (2, (1, Imp)),
    "|": (2, (2, or_)), "||": (2, (2, or_cl)),
    "&": (3, (3, and_)), "&&": (3, (3, and_cl)),
    ")": (1, None), "": (1, None),
}

_OPERAND = ("atom", "'('", "'!'", "'~'", "'@'")
_CLOSE = ("')'",)
_CONTINUE = ("'->'", "'|'", "'&'", "end of input")


def _fail(text: str, tokens: list[str], i: int, expected: tuple[str, ...]):
    """Raise for tokens[i]; a lexical error anywhere from there on wins."""
    for j in range(i, len(tokens) - 1):
        if len(tokens[j]) == 1 and tokens[j] not in _VALID:
            i, expected = j, ()
            break
    tok = tokens[i]
    if tok:
        start = next(islice(_TOKEN.finditer(text), i, None)).start(1)
        offset = len(text[:start].encode("utf-8"))
    else:
        offset = len(text.encode("utf-8"))
    if not expected:
        raise FormulaSyntaxError(f"unexpected character {tok!r}", offset)
    what = repr(tok) if tok else "end of input"
    raise FormulaSyntaxError(f"unexpected {what}", offset, expected)


def parse(text: str) -> Formula:
    """Parse concrete syntax into a fully expanded primitive AST.

    Loosest first: ``->`` (grouping to the right), ``|`` and ``||``,
    ``&`` and ``&&`` (grouping to the left), prefix ``! ~ @``, postfix
    ``^* ^o``.  Operands and pending operators live on explicit stacks,
    so nesting depth is bounded by memory, not by the call stack.
    """
    tokens = _TOKEN.findall(text)
    tokens.append("")
    operands: list[Formula] = []
    pending: list[tuple[int, object]] = [(-1, None)]
    i = 0
    while True:
        tok = tokens[i]
        while tok in _PREFIX:
            pending.append(_PREFIX[tok])
            i += 1
            tok = tokens[i]
        if tok[:1] not in _LETTERS:
            _fail(text, tokens, i, _OPERAND)
        operands.append(Atom(tok))
        i += 1
        tok = tokens[i]
        while True:
            while tok in _POSTFIX:
                operands[-1] = _POSTFIX[tok](operands[-1])
                i += 1
                tok = tokens[i]
            if tok not in _AFTER:
                _fail(text, tokens, i, _CLOSE if _OPEN in pending else _CONTINUE)
            power, entry = _AFTER[tok]
            while pending[-1][0] >= power:
                bound, build = pending.pop()
                if bound == 4:
                    operands[-1] = build(operands[-1])
                else:
                    right = operands.pop()
                    operands[-1] = build(operands[-1], right)
            if entry is not None:
                pending.append(entry)
                i += 1
                break
            if not tok:
                if len(pending) > 1:
                    _fail(text, tokens, i, _CLOSE)
                return operands[0]
            if pending.pop() is not _OPEN:
                _fail(text, tokens, i, _CONTINUE)
            i += 1
            tok = tokens[i]
