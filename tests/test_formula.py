import time

import pytest
from hypothesis import given, settings, strategies as st

import inpk.formula as formula_module

from inpk.classical import untranslate
from inpk.formula import (
    Atom, Neg, Imp, FormulaSyntaxError,
    parse, render, expand, atoms, complexity,
    classicalize, strong_neg, or_, and_, or_cl, and_cl, star, circ, iter_neg,
    children, postorder, _TextCache,
)
from inpk.proofs import substitute
from inpk.semantics import LogicParams, T, eval_formula

p = Atom("p")
q = Atom("q")
r = Atom("r")


def test_parse_primitives():
    assert parse("p -> (q -> p)") is Imp(p, Imp(q, p))
    assert parse("!p") is Neg(p)
    assert parse("!!p") is Neg(Neg(p))


def test_parse_classicalize():
    assert parse("@p") is Imp(Imp(p, p), p)


def test_parse_strong_negation():
    assert parse("~p") is Neg(Imp(Imp(p, p), p))


def test_parse_star_expansion():
    # !p | p, written out to primitives by hand
    np_ = Neg(p)
    strong_np = Neg(Imp(Imp(np_, np_), np_))
    assert parse("p^*") is Imp(strong_np, p)


def test_parse_circ_expansion():
    u = Imp(Neg(p), strong_neg(p))
    assert parse("p^o") is Neg(Neg(Imp(Imp(u, u), u)))


def test_right_associativity():
    assert parse("p -> q -> r") is Imp(p, Imp(q, r))
    assert parse("(p -> q) -> r") is Imp(Imp(p, q), r)


def test_precedence_layers():
    assert parse("!p & q") is and_(Neg(p), q)
    assert parse("p & q | r") is or_(and_(p, q), r)
    assert parse("p | q -> r") is Imp(or_(p, q), r)
    assert parse("!p^*") is Neg(star(p))
    assert parse("~@p") is strong_neg(classicalize(p))
    assert parse("p || q") is or_cl(p, q)
    assert parse("p && q") is and_cl(p, q)
    assert parse("p^o^*") is star(circ(p))


def test_left_associativity_of_lattice_ops():
    assert parse("p | q | r") is or_(or_(p, q), r)
    assert parse("p & q & r") is and_(and_(p, q), r)


def test_interning():
    assert parse("p -> q") is parse("p -> q")
    assert Imp(p, q) is Imp(p, q)
    assert Neg(p) is Neg(p)
    assert Atom("p") is p


def test_render():
    assert render(Imp(p, p)) == "p -> p"
    assert render(Neg(Neg(p))) == "!!p"
    assert render(Imp(Neg(p), q)) == "!p -> q"
    assert render(Imp(Imp(p, q), r)) == "(p -> q) -> r"
    assert render(Imp(p, Imp(q, r))) == "p -> q -> r"
    assert render(Neg(Imp(p, q))) == "!(p -> q)"
    assert str(Imp(Neg(p), q)) == "!p -> q"


def test_expand():
    assert expand("or", p, q) is Imp(strong_neg(p), q)
    assert expand("and_cl", p, q) is Neg(Imp(p, Neg(q)))
    assert expand("neg", p) is Neg(p)
    assert expand("imp", p, q) is Imp(p, q)
    assert expand("star", p) is star(p)


def test_iter_neg():
    assert iter_neg(0, p) is p
    assert iter_neg(3, p) is Neg(Neg(Neg(p)))
    with pytest.raises(ValueError):
        iter_neg(-1, p)


def test_expand_errors():
    with pytest.raises(ValueError, match="unknown connective"):
        expand("xor", p, q)
    with pytest.raises(ValueError, match="argument"):
        expand("or", p)


def test_atoms():
    assert atoms(p) == ["p"]
    assert atoms(Imp(q, Imp(p, q))) == ["q", "p"]
    assert atoms(Neg(Neg(p))) == ["p"]
    assert atoms(and_(p, q)) == ["p", "q"]


def test_complexity():
    assert complexity(p) == 0
    assert complexity(Neg(p)) == 1
    assert complexity(Imp(Neg(p), q)) == 2


def test_star_complexity_pinned():
    assert complexity(star(p)) == 7


def test_complexity_saturates_at_two_to_the_62():
    # a strong negation triples the count: 10^5 levels would need an
    # integer of about 79 000 bits
    f = p
    for i in range(10**5):
        f = Imp(q, f) if i % 2 else strong_neg(f)
    got = complexity(f)  # not in the assert: a failure message would render f
    assert got == 2**62


def _cut_full_text(f):
    text = render(f)
    if len(text) > 60:
        text = text[:57] + "..."
    return f"<formula {text}>"


def test_repr_renders_only_a_prefix():
    # the full text of a 20-level tower has about 3^20 characters
    f = p
    for _ in range(20):
        f = strong_neg(f)
    start = time.perf_counter()
    got = repr(f)
    assert time.perf_counter() - start < 0.5
    assert got == "<formula " + "!((" * 19 + "...>"
    f = p
    for _ in range(9):
        f = strong_neg(f)
        assert repr(f) == _cut_full_text(f)
    for g in (p, Neg(p), Imp(Imp(p, q), r), or_(p, q), Atom("a" * 60)):
        assert repr(g) == _cut_full_text(g) == f"<formula {render(g)}>"
    assert repr(Atom("a" * 61)) == "<formula " + "a" * 57 + "...>"


def test_atom_name_validation():
    with pytest.raises(ValueError):
        Atom("P")
    with pytest.raises(ValueError):
        Atom("1x")


def test_syntax_error_offsets():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse("p -> ")
    assert exc.value.offset == 5
    assert "atom" in exc.value.expected

    with pytest.raises(FormulaSyntaxError) as exc:
        parse("p q")
    assert exc.value.offset == 2

    with pytest.raises(FormulaSyntaxError) as exc:
        parse("(p")
    assert exc.value.expected == ("')'",)

    with pytest.raises(FormulaSyntaxError) as exc:
        parse("p -> P")
    assert exc.value.offset == 5

    with pytest.raises(FormulaSyntaxError):
        parse("")


_OPERAND = ("atom", "'('", "'!'", "'~'", "'@'")
_CONTINUE = ("'->'", "'|'", "'&'", "end of input")

# (input, message, byte offset, expected), pinned from the recursive-descent
# parser this one replaced
SYNTAX_ERRORS = [
    ("é -> ", "unexpected character 'é' (byte 0)", 0, ()),
    ("p -> é", "unexpected character 'é' (byte 5)", 5, ()),
    ("p q P", "unexpected character 'P' (byte 4)", 4, ()),
    ("p -> ->", "unexpected '->': expected atom, '(', '!', '~', '@' (byte 5)",
     5, _OPERAND),
    ("p^", "unexpected character '^' (byte 1)", 1, ()),
    ("p - q", "unexpected character '-' (byte 2)", 2, ()),
    ("p\fq", "unexpected character '\\x0c' (byte 1)", 1, ()),
    ("(p", "unexpected end of input: expected ')' (byte 2)", 2, ("')'",)),
    ("((p)", "unexpected end of input: expected ')' (byte 4)", 4, ("')'",)),
    ("(p q", "unexpected 'q': expected ')' (byte 3)", 3, ("')'",)),
    ("p)", "unexpected ')': expected '->', '|', '&', end of input (byte 1)",
     1, _CONTINUE),
    ("p ^* q", "unexpected 'q': expected '->', '|', '&', end of input (byte 5)",
     5, _CONTINUE),
    ("()", "unexpected ')': expected atom, '(', '!', '~', '@' (byte 1)",
     1, _OPERAND),
    ("", "unexpected end of input: expected atom, '(', '!', '~', '@' (byte 0)",
     0, _OPERAND),
    ("   \t\n",
     "unexpected end of input: expected atom, '(', '!', '~', '@' (byte 5)",
     5, _OPERAND),
    ("!", "unexpected end of input: expected atom, '(', '!', '~', '@' (byte 1)",
     1, _OPERAND),
] + [
    (f"p {op}",
     f"unexpected end of input: expected atom, '(', '!', '~', '@' "
     f"(byte {len(op) + 2})",
     len(op) + 2, _OPERAND)
    for op in ("->", "|", "||", "&", "&&")
]


@pytest.mark.parametrize("text, message, offset, expected", SYNTAX_ERRORS)
def test_syntax_error_table(text, message, offset, expected):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == message
    assert exc.value.offset == offset
    assert exc.value.expected == expected


DEPTH = 10**4


@pytest.mark.parametrize("shape", ["left", "right", "neg"])
def test_deep_round_trip(shape):
    f = p
    for _ in range(DEPTH):
        if shape == "left":
            f = Imp(f, q)
        elif shape == "right":
            f = Imp(q, f)
        else:
            f = Neg(f)
    assert parse(render(f)) is f


def test_deep_parenthesised_sugar():
    f = p
    for _ in range(DEPTH):
        f = or_(f, q)
    assert parse("(" * DEPTH + "p" + " | q)" * DEPTH) is f
    g = p
    for _ in range(DEPTH):
        g = star(g)
    assert parse("(" * DEPTH + "p" + ")^*" * DEPTH) is g


formulas = st.recursive(
    st.sampled_from(["p", "q", "r"]).map(Atom),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.tuples(sub, sub).map(lambda t: Imp(*t)),
    ),
    max_leaves=25,
)


@given(formulas)
def test_render_parse_round_trip(f):
    assert parse(render(f)) is f


@given(formulas)
def test_atoms_cover_leaves(f):
    found = atoms(f)
    assert len(found) == len(set(found))

    leaves = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            leaves.add(g.name)
        elif isinstance(g, Neg):
            stack.append(g.body)
        else:
            stack.extend((g.ant, g.cons))
    assert set(found) == leaves


@given(formulas)
def test_complexity_counts_connectives(f):
    count = 0
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Neg):
            count += 1
            stack.append(g.body)
        elif isinstance(g, Imp):
            count += 1
            stack.extend((g.ant, g.cons))
    assert complexity(f) == count


def _reference_postorder(f, seen, out):
    """Distinct subformulas of f not in seen, children first, recursively."""
    if f in seen:
        return
    if isinstance(f, Neg):
        _reference_postorder(f.body, seen, out)
    elif isinstance(f, Imp):
        _reference_postorder(f.ant, seen, out)
        _reference_postorder(f.cons, seen, out)
    seen.add(f)
    out.append(f)


def _walk(f, memo):
    """postorder with memo filled as nodes are yielded; records kids calls."""
    calls, got = [], []

    def kids(g):
        calls.append(g)
        return children(g)

    for g in postorder(f, kids, memo):
        assert all(c in memo for c in children(g))
        memo[g] = None
        got.append(g)
    return got, calls


@given(formulas, st.data())
def test_postorder_matches_a_recursive_reference(f, data):
    expected = []
    _reference_postorder(f, set(), expected)
    got, calls = _walk(f, {})
    assert got == expected
    assert sorted(map(id, calls)) == sorted(map(id, got))

    # nodes already in memo are neither yielded nor descended into
    done = set(data.draw(st.lists(st.sampled_from(expected))))
    expected = []
    _reference_postorder(f, set(done), expected)
    got, calls = _walk(f, dict.fromkeys(done))
    assert got == expected
    assert not done & set(calls)
    assert sorted(map(id, calls)) == sorted(map(id, got))


def _deep_chain(depth, neg=Neg, every=2):
    """depth levels over p, each neg(_) when its index is a multiple of
    every and q -> _ otherwise."""
    f = p
    for i in range(1, depth + 1):
        f = Imp(q, f) if i % every else neg(f)
    return f


def _eval_deep(depth):
    f = _deep_chain(depth)
    got = eval_formula(LogicParams(1, 1), f, {"p": T(1), "q": T(0)})
    assert got == eval_formula(LogicParams(1, 1), f, {"p": T(0), "q": T(1)})


def _substitute_deep(depth):
    f = _deep_chain(depth)
    swapped = substitute(f, {"p": q, "q": p})
    assert substitute(swapped, {"p": q, "q": p}) is f


def _render_deep(depth):
    f = _deep_chain(depth)
    text = render(f)
    # room for every subformula's text: none is longer than text, and
    # there are no more of them than its characters
    cache = _TextCache()
    assert cache.spell(f, len(text) ** 2) == text
    assert len(cache.texts) == depth + 2


def _untranslate_deep(depth):
    # a strong negation triples the size of its body, so they are sparse
    image = _deep_chain(depth, strong_neg, every=100)
    assert untranslate(image) is _deep_chain(depth, every=100)


# A cache of every subformula's text is quadratic in the depth (some
# 10^10 characters at 10^5), so the cached spelling takes a shorter chain,
# still deeper than the default recursion limit.
@pytest.mark.parametrize("walk, depth", [
    (_eval_deep, 10**5),
    (_substitute_deep, 10**5),
    (_render_deep, 2500),
    (_untranslate_deep, 10**5),
])
def test_formula_walks_take_deep_chains(walk, depth):
    walk(depth)


# (concrete syntax, formula) pairs over the derived connectives, every
# compound wrapped in parentheses
_UNARY = [("!", Neg), ("~", strong_neg), ("@", classicalize)]
_POSTFIX = [("^*", star), ("^o", circ)]
_BINARY = [("->", Imp), ("|", or_), ("||", or_cl), ("&", and_), ("&&", and_cl)]

sugared = st.recursive(
    st.sampled_from(["p", "q", "r"]).map(lambda name: (name, Atom(name))),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(_UNARY), sub).map(
            lambda t: (f"({t[0][0]}{t[1][0]})", t[0][1](t[1][1]))),
        st.tuples(st.sampled_from(_POSTFIX), sub).map(
            lambda t: (f"(({t[1][0]}){t[0][0]})", t[0][1](t[1][1]))),
        st.tuples(st.sampled_from(_BINARY), sub, sub).map(
            lambda t: (f"({t[1][0]} {t[0][0]} {t[2][0]})",
                       t[0][1](t[1][1], t[2][1]))),
    ),
    max_leaves=12,
)


@given(sugared)
def test_parenthesised_sugar_parses_to_builders(pair):
    text, f = pair
    assert parse(text) is f


# A reader's text cache parses a text through the pieces between its
# top-level arrows, each looked up among the texts it has spelled or
# parsed: the result, or the error, is parse's.


def _text_cache(*spelled):
    cache = _TextCache(formulas={})
    for f in spelled:
        cache.spell(f, 10**6)
    return cache


def _outcome(read, text):
    try:
        return read(text)
    except FormulaSyntaxError as e:
        return str(e), e.offset, e.expected


# blanks other than the tokenizer's at the ends of a piece
_ODD_BLANKS = ["p ->\fq", "p\x0b-> q", "p -> q\u00a0", "\u2003p -> q"]


@pytest.mark.parametrize("text", [row[0] for row in SYNTAX_ERRORS] + _ODD_BLANKS)
def test_text_cache_fails_as_parse(text):
    cache = _text_cache(p, Imp(p, q), Neg(Imp(p, q)))
    for whole in (text, f"p -> {text}", f"(p -> q) -> {text}", f"{text} -> p",
                  f"!(p -> q) -> {text} -> q"):
        assert _outcome(cache.parse, whole) == _outcome(parse, whole)


@settings(deadline=None)
@given(sugared, sugared, st.booleans())
def test_text_cache_parses_as_parse(a, b, spelled):
    (ta, fa), (tb, fb) = a, b
    cache = _text_cache(fa, Imp(fb, fa)) if spelled else _text_cache()
    for text in (ta, f"{ta} -> {tb}", f"{tb}->{ta}  ->\t{ta}", f"({ta} -> {tb}) -> {tb}",
                 render(Imp(fa, Imp(fb, fa))), render(Imp(Imp(fb, fa), fb))):
        assert cache.parse(text) is parse(text)


def test_text_cache_parses_only_the_pieces_it_has_not_spelled(monkeypatch):
    seen = []

    def counting(text):
        seen.append(text)
        return parse(text)

    monkeypatch.setattr(formula_module, "parse", counting)
    a, b = strong_neg(Imp(p, q)), Imp(Neg(r), p)
    cache = _text_cache(a, b, Imp(b, a))
    for f in (Imp(a, Imp(b, a)), Imp(Imp(b, a), Imp(r, b)), Imp(Atom("s"), b)):
        assert cache.parse(render(f)) is f
    assert seen == ["s"]
