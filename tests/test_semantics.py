import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from inpk.formula import (
    Atom, Neg, Imp, parse, star, circ, or_, and_, strong_neg, classicalize,
    iter_neg, atoms,
)
from inpk.semantics import (
    F, T, LogicParams, OrderVerdict, TruthValue, parse_value, parse_valuation,
    render_valuation, neg_value, imp_value, eval_formula, eval_subformulas,
    is_designated,
    enumerate_valuations, is_tautology, entails, compare_logics,
    separating_witness, truth_table, decision_size, _decide,
)

from helpers import random_formula

p = Atom("p")
q = Atom("q")

CL = LogicParams(0, 0)


def test_truth_value_basics():
    assert str(T(0)) == "T0"
    assert str(F(2)) == "F2"
    assert repr(T(1)) == "T1"
    assert parse_value("T1") == T(1)
    assert parse_value("F0") == F(0)
    with pytest.raises(ValueError):
        parse_value("X1")
    assert T(1).designated and not F(0).designated


def test_params_carrier():
    lp = LogicParams(2, 1)
    assert lp.size == 5
    assert lp.values() == [F(0), F(1), F(2), T(0), T(1)]
    assert [lp.code(v) for v in lp.values()] == [0, 1, 2, 3, 4]
    assert [lp.value_of_code(c) for c in range(5)] == lp.values()
    with pytest.raises(ValueError):
        LogicParams(-1, 0)
    with pytest.raises(ValueError):
        lp.check_value(F(3))
    with pytest.raises(ValueError):
        lp.check_value(T(2))


@pytest.mark.parametrize(
    "n, k", [(1.5, 0), (0, 1.0), (True, 0), (0, False), ("1", 0), (None, 0)], ids=repr
)
def test_params_must_be_integers(n, k):
    with pytest.raises(ValueError, match="integers"):
        LogicParams(n, k)


@pytest.mark.parametrize(
    "value",
    [
        TruthValue("X", 0),
        TruthValue("t", 1),
        TruthValue("F", True),
        TruthValue("T", 1.0),
    ],
    ids=repr,
)
def test_check_value_rejects_a_value_of_no_logic(value):
    lp = LogicParams(1, 1)
    with pytest.raises(ValueError, match="is not a truth value"):
        lp.check_value(value)
    with pytest.raises(ValueError):
        eval_formula(lp, Atom("p"), {"p": value})


def test_valuation_serialization():
    v = parse_valuation("p=T1,q=F0")
    assert v == {"p": T(1), "q": F(0)}
    assert render_valuation(v) == "p=T1,q=F0"
    with pytest.raises(ValueError):
        parse_valuation("p~T1")


def test_neg_value():
    lp = LogicParams(2, 1)
    assert neg_value(lp, F(2)) == F(1)
    assert neg_value(lp, T(0)) == F(0)
    assert neg_value(CL, F(0)) == T(0)
    assert neg_value(lp, F(0)) == T(0)
    assert neg_value(lp, T(1)) == T(0)
    with pytest.raises(ValueError):
        neg_value(CL, F(1))


def test_neg_descent_to_classical():
    for n, k in itertools.product(range(4), repeat=2):
        lp = LogicParams(n, k)
        for r in range(n + 1):
            a = F(r)
            for _ in range(r):
                a = neg_value(lp, a)
            assert a == F(0)
        for i in range(k + 1):
            a = T(i)
            for _ in range(i):
                a = neg_value(lp, a)
            assert a == T(0)


def test_imp_value():
    lp = LogicParams(2, 1)
    assert imp_value(lp, F(2), F(0)) == T(0)
    assert imp_value(lp, T(0), F(1)) == F(0)
    assert imp_value(lp, T(1), T(0)) == T(0)
    for a in lp.values():
        for b in lp.values():
            out = imp_value(lp, a, b)
            assert out in (T(0), F(0))
            assert out.designated == ((not a.designated) or b.designated)


def test_is_designated():
    assert is_designated(CL, T(0))
    assert not is_designated(CL, F(0))
    assert is_designated(LogicParams(2, 1), T(1))
    with pytest.raises(ValueError):
        is_designated(CL, T(1))


def test_eval_oracles():
    mep = or_(Neg(p), p)
    assert eval_formula(LogicParams(0, 1), mep, {"p": T(1)}) == T(0)
    assert eval_formula(LogicParams(1, 0), mep, {"p": F(1)}) == F(0)
    for lp in (CL, LogicParams(2, 1)):
        for a in lp.values():
            assert eval_formula(lp, Imp(p, p), {"p": a}) == T(0)


def test_eval_unbound_atom():
    with pytest.raises(ValueError, match="unbound atom 'q'"):
        eval_formula(CL, Imp(p, q), {"p": T(0)})
    # the leftmost unbound atom is named
    with pytest.raises(ValueError, match="unbound atom 'p'"):
        eval_formula(CL, Imp(p, q), {})


def test_eval_range_check():
    with pytest.raises(ValueError, match="out of range"):
        eval_formula(CL, p, {"p": T(1)})


def test_enumerate_counts():
    assert len(list(enumerate_valuations(CL, ["p"]))) == 2
    assert len(list(enumerate_valuations(LogicParams(1, 1), ["p"]))) == 4
    assert len(list(enumerate_valuations(LogicParams(1, 0), ["p", "q"]))) == 9


def test_enumerate_order():
    vals = list(enumerate_valuations(LogicParams(1, 0), ["p"]))
    assert [v["p"] for v in vals] == [F(0), F(1), T(0)]
    pairs = list(enumerate_valuations(CL, ["p", "q"]))
    assert pairs == [
        {"p": F(0), "q": F(0)},
        {"p": F(0), "q": T(0)},
        {"p": T(0), "q": F(0)},
        {"p": T(0), "q": T(0)},
    ]


def test_tautology_oracles():
    lp = LogicParams(1, 1)
    assert is_tautology(lp, or_(iter_neg(2, p), Neg(p))).valid
    assert is_tautology(lp, Neg(and_(iter_neg(2, p), Neg(p)))).valid
    got = is_tautology(LogicParams(0, 1), Neg(and_(Neg(p), p)))
    assert not got.valid
    assert got.counterexample == {"p": T(1)}


def test_tautology_first_counterexample():
    got = is_tautology(LogicParams(1, 0), or_(Neg(p), p))
    assert got.counterexample == {"p": F(1)}


def test_entails_oracles():
    for lp in (CL, LogicParams(2, 2)):
        assert entails(lp, [p], p).valid
    lp = LogicParams(1, 1)
    hyps = [Imp(Neg(p), Neg(q)), q, star(p), circ(q)]
    assert entails(lp, hyps, p).valid
    got = entails(LogicParams(1, 0), [], or_(Neg(p), p))
    assert not got.valid
    assert got.counterexample == {"p": F(1)}


def test_entails_counterexample_atom_order():
    got = entails(CL, [q], p)
    assert not got.valid
    assert list(got.counterexample) == ["q", "p"]
    assert got.counterexample == {"q": T(0), "p": F(0)}


def test_compare_logics():
    assert compare_logics(LogicParams(1, 0), CL) is OrderVerdict.STRICTLY_BELOW
    assert compare_logics(CL, LogicParams(1, 0)) is OrderVerdict.STRICTLY_ABOVE
    assert compare_logics(LogicParams(1, 0), LogicParams(0, 1)) is OrderVerdict.INCOMPARABLE
    assert compare_logics(LogicParams(2, 3), LogicParams(2, 3)) is OrderVerdict.EQUAL


def test_separating_witness_oracles():
    w = separating_witness(CL, LogicParams(1, 0))
    assert w is or_(Neg(p), p)
    assert is_tautology(CL, w).valid
    got = is_tautology(LogicParams(1, 0), w)
    assert got.counterexample == {"p": F(1)}

    w = separating_witness(CL, LogicParams(0, 1))
    assert w is Neg(and_(Neg(p), p))
    assert is_tautology(CL, w).valid
    got = is_tautology(LogicParams(0, 1), w)
    assert got.counterexample == {"p": T(1)}

    assert separating_witness(LogicParams(1, 1), LogicParams(1, 1)) is None
    assert separating_witness(LogicParams(1, 1), LogicParams(0, 1)) is None


def test_separating_witness_whole_grid():
    grid = [LogicParams(n, k) for n in range(3) for k in range(3)]
    for a in grid:
        for b in grid:
            w = separating_witness(a, b)
            if b.n <= a.n and b.k <= a.k:
                assert w is None
            else:
                assert is_tautology(a, w).valid
                assert not is_tautology(b, w).valid


def test_truth_table_oracles():
    tt = truth_table(LogicParams(2, 1), "classicalize")
    assert tt.lookup(T(1)) == T(0)
    assert tt.lookup(F(2)) == F(0)
    tt = truth_table(LogicParams(2, 1), "strong")
    assert tt.lookup(F(2)) == T(0)
    assert tt.lookup(T(1)) == F(0)
    tt = truth_table(LogicParams(1, 0), "star")
    assert tt.lookup(F(1)) == F(0)
    with pytest.raises(ValueError):
        truth_table(CL, "nope")


def test_derived_tables_by_identity():
    for n in range(3):
        for k in range(3):
            lp = LogicParams(n, k)
            cl_table = truth_table(lp, "classicalize")
            st_table = truth_table(lp, "strong")
            star_table = truth_table(lp, "star")
            circ_table = truth_table(lp, "circ")
            or_table = truth_table(lp, "or")
            and_table = truth_table(lp, "and")
            for a in lp.values():
                assert cl_table.lookup(a) == (T(0) if a.designated else F(0))
                assert st_table.lookup(a) == (F(0) if a.designated else T(0))
                assert star_table.lookup(a) == (
                    F(0) if (a.kind == "F" and a.index >= 1) else T(0))
                assert circ_table.lookup(a) == (
                    F(0) if (a.kind == "T" and a.index >= 1) else T(0))
                # strong negation twice = classicalize
                f = strong_neg(strong_neg(p))
                assert eval_formula(lp, f, {"p": a}) == cl_table.lookup(a)
                for b in lp.values():
                    both = a.designated and b.designated
                    either = a.designated or b.designated
                    assert and_table.lookup(a, b) == (T(0) if both else F(0))
                    assert or_table.lookup(a, b) == (T(0) if either else F(0))


def test_generalized_principles_small():
    for n in range(3):
        for k in range(3):
            lp = LogicParams(n, k)
            mep = or_(iter_neg(n + 1, p), iter_neg(n, p))
            ncp = Neg(and_(iter_neg(k + 1, p), iter_neg(k, p)))
            assert is_tautology(lp, mep).valid
            assert is_tautology(lp, ncp).valid
            if n >= 1:
                under = or_(iter_neg(n, p), iter_neg(n - 1, p))
                assert not is_tautology(lp, under).valid


def test_wellbehavedness_classification():
    for n in range(3):
        for k in range(3):
            lp = LogicParams(n, k)
            shapes = [(iter_neg(t, p), t, False) for t in range(5)]
            shapes += [(iter_neg(t, Imp(p, q)), t, True) for t in range(3)]
            for f, t, imp_rooted in shapes:
                assert is_tautology(lp, star(f)).valid == (imp_rooted or t >= n)
                assert is_tautology(lp, circ(f)).valid == (imp_rooted or t >= k)


def test_valuation_transfer():
    big = LogicParams(2, 2)
    small = LogicParams(1, 0)
    f = parse("!(p -> !q) -> p^* | q^o")
    for v in enumerate_valuations(small, ["p", "q"]):
        assert eval_formula(small, f, v) == eval_formula(big, f, v)


formulas = st.recursive(
    st.sampled_from(["p", "q", "r"]).map(Atom),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.tuples(sub, sub).map(lambda t: Imp(*t)),
    ),
    max_leaves=12,
)

params_st = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
    lambda t: LogicParams(*t))


@settings(max_examples=60, deadline=None)
@given(formulas, params_st)
def test_vector_agrees_with_scalar(f, lp):
    names = atoms(f)
    verdict = is_tautology(lp, f)
    failures = [
        dict(v) for v in enumerate_valuations(lp, names)
        if not eval_formula(lp, f, v).designated
    ]
    if failures:
        assert not verdict.valid
        assert verdict.counterexample == failures[0]
    else:
        assert verdict.valid


@settings(max_examples=40, deadline=None)
@given(st.lists(formulas, max_size=3), formulas, formulas, params_st)
def test_semantic_deduction_theorem(hyps, a, b, lp):
    with_hyp = entails(lp, hyps + [a], b)
    as_imp = entails(lp, hyps, Imp(a, b))
    assert with_hyp.valid == as_imp.valid


@settings(max_examples=40, deadline=None)
@given(st.lists(formulas, max_size=3), formulas, formulas, params_st)
def test_entailment_monotonicity(hyps, extra, goal, lp):
    if entails(lp, hyps, goal).valid:
        assert entails(lp, hyps + [extra], goal).valid


def _classical_truth(g, assign):
    if isinstance(g, Atom):
        return assign[g.name]
    if isinstance(g, Neg):
        return not _classical_truth(g.body, assign)
    return not _classical_truth(g.ant, assign) or _classical_truth(g.cons, assign)


@settings(max_examples=60, deadline=None)
@given(formulas)
def test_two_valued_matrix_is_classical_truth(f):
    # the classical fragment's proof synthesis reads its case values
    # off eval_subformulas at (0, 0)
    names = atoms(f)
    for bits in itertools.product([False, True], repeat=len(names)):
        assign = dict(zip(names, bits))
        values = eval_subformulas(
            CL, f, {nm: T(0) if b else F(0) for nm, b in assign.items()})
        for g, got in values.items():
            assert got in (T(0), F(0))
            assert got.designated == _classical_truth(g, assign), g


def test_homomorphism_property():
    lp = LogicParams(1, 2)
    f = Imp(Neg(p), and_(p, q))
    for v in enumerate_valuations(lp, ["p", "q"]):
        assert eval_formula(lp, Neg(f), v) == neg_value(lp, eval_formula(lp, f, v))
        g = or_(q, p)
        assert eval_formula(lp, Imp(f, g), v) == imp_value(
            lp, eval_formula(lp, f, v), eval_formula(lp, g, v))


# -- the depth-collapsed decision procedure ------------------------------


def _chained_formula(rng, names, comp, depth):
    """A random formula whose atoms sit under negation chains of up to
    depth negations."""
    if comp <= 0:
        return iter_neg(rng.randint(0, depth), Atom(rng.choice(names)))
    if rng.random() < 0.3:
        return Neg(_chained_formula(rng, names, comp - 1, depth))
    split = rng.randint(0, comp - 1)
    return Imp(_chained_formula(rng, names, split, depth),
               _chained_formula(rng, names, comp - 1 - split, depth))


def _first_counterexample(lp, hyps, goal):
    """Brute force over every valuation with the scalar evaluator."""
    names = list(dict.fromkeys(a for g in hyps + [goal] for a in atoms(g)))
    for v in enumerate_valuations(lp, names):
        if (all(eval_formula(lp, h, v).designated for h in hyps)
                and not eval_formula(lp, goal, v).designated):
            return v
    return None


@pytest.mark.parametrize("chunk", [None, 1, 5, 7])
def test_decide_agrees_with_brute_force_on_grid(chunk, monkeypatch):
    # a block of 1 valuation fixes every atom per block; blocks of at
    # most 5 or 7 split most queries into several blocks
    if chunk is not None:
        monkeypatch.setattr("inpk.semantics._CHUNK", chunk)
    rng = random.Random(4)
    for n, k in itertools.product(range(4), repeat=2):
        lp = LogicParams(n, k)
        # p, !^(k-1) p and !^k p all hold only at T_k, p's last grade, so
        # the only counterexample is the last valuation
        last = [iter_neg(j, Atom(a)) for a in "pqr"
                for j in sorted({0, max(k - 1, 0), k})]
        queries = [(last, Neg(Imp(p, p)))]
        for m in (1, 2, 3):
            names = ["p", "q", "r"][:m]
            for _ in range(10):
                depth = max(n, k) + 2
                hyps = [_chained_formula(rng, names, rng.randint(0, 3), depth)
                        for _ in range(rng.randint(0, 2))]
                goal = _chained_formula(rng, names, rng.randint(1, 5), depth)
                queries.append((hyps, goal))
        for hyps, goal in queries:
            want = _first_counterexample(lp, hyps, goal)
            got = entails(lp, hyps, goal)
            assert got.valid == (want is None)
            if want is not None:
                assert list(got.counterexample.items()) == list(want.items())
            if not hyps:
                assert is_tautology(lp, goal) == got
        assert entails(lp, *queries[0]).counterexample == dict.fromkeys("pqr", T(k))


def _brute_tautologies(lp, f):
    """The subformulas of f designated at every valuation of f's atoms,
    by the scalar evaluator."""
    valid = None
    for v in enumerate_valuations(lp, atoms(f)):
        values = eval_subformulas(lp, f, v)
        here = {g for g, value in values.items() if value.designated}
        valid = here if valid is None else valid & here
    return valid


def _reported_tautologies(lp, f):
    valid: set = set()
    assert _decide(lp, [], f, atoms(f), valid)
    return valid


def _grid_goals(rng, lp):
    """The hypotheses and goals of the brute-force grid at lp, each under
    a valid root that holds the tautologies g -> g and !!(g -> g)."""
    n, k = lp.n, lp.k
    for m in (1, 2, 3):
        names = ["p", "q", "r"][:m]
        for _ in range(10):
            depth = max(n, k) + 2
            found = [_chained_formula(rng, names, rng.randint(0, 3), depth)
                     for _ in range(rng.randint(0, 2))]
            found.append(_chained_formula(rng, names, rng.randint(1, 5), depth))
            for g in found:
                yield Imp(g, Neg(Neg(Imp(g, g))))


def test_decision_reports_the_tautological_subformulas_of_a_valid_goal():
    # every valuation is visited when the goal is valid, so the subformulas
    # designated throughout that pass are exactly the tautological ones
    rng = random.Random(4)
    for n, k in itertools.product(range(4), repeat=2):
        lp = LogicParams(n, k)
        for f in _grid_goals(rng, lp):
            assert _reported_tautologies(lp, f) == _brute_tautologies(lp, f), f


@pytest.mark.parametrize("chunk", [1, 5, 7])
def test_reported_tautological_subformulas_span_blocks(chunk, monkeypatch):
    monkeypatch.setattr("inpk.semantics._CHUNK", chunk)
    lp = LogicParams(2, 2)
    r = Atom("r")
    goals = [
        Imp(iter_neg(2, r), Neg(Neg(Imp(Imp(iter_neg(2, p), q), Imp(iter_neg(2, p), q))))),
        Imp(and_(star(iter_neg(2, p)), circ(iter_neg(2, q))), Imp(r, Imp(q, q))),
        Imp(Imp(p, Imp(q, p)), Imp(Neg(r), Neg(Neg(Imp(r, r))))),
    ]
    for f in goals:
        valuations, _ = decision_size(lp, [f])
        assert valuations > chunk  # more than one block
        assert _reported_tautologies(lp, f) == _brute_tautologies(lp, f), f


def test_reporting_the_tautological_subformulas_frees_their_bits():
    # the bits of a subformula are freed after its last use whether or not
    # the decision also reports the tautologies: g -> g under the chains
    # !^16 x of its four atoms, 34^4 valuations of about 800 subformulas
    lp = LogicParams(16, 16)
    g = random_formula(random.Random(7), list("abcd"), 1200)
    f = Imp(g, g)
    for x in "abcd":
        f = Imp(iter_neg(16, Atom(x)), f)

    def peak(everywhere):
        tracemalloc.start()
        try:
            assert _decide(lp, [], f, atoms(f), everywhere)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    valid: set = set()
    assert peak(valid) <= 2 * peak(None)
    assert Imp(g, g) in valid and g not in valid


def _chain_depths(f):
    """Deepest !^j p per atom p of f."""
    depth: dict[str, int] = {}
    stack, seen = [f], set()
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        j, h = 0, g
        while type(h) is Neg:
            j, h = j + 1, h.body
        if type(h) is Atom:
            depth[h.name] = max(depth.get(h.name, 0), j)
        if type(g) is Neg:
            stack.append(g.body)
        elif type(g) is Imp:
            stack += [g.ant, g.cons]
    return depth


chained_formulas = st.recursive(
    st.tuples(st.sampled_from(["p", "q", "r"]), st.integers(0, 5)).map(
        lambda t: iter_neg(t[1], Atom(t[0]))),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.tuples(sub, sub).map(lambda t: Imp(*t)),
    ),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None)
@given(chained_formulas, st.integers(0, 4), st.integers(0, 4), st.data())
def test_grades_above_chain_depth_are_indistinguishable(f, n, k, data):
    lp = LogicParams(n, k)
    v = {name: data.draw(st.sampled_from(lp.values())) for name in atoms(f)}
    want = eval_formula(lp, f, v).designated
    for name, d in _chain_depths(f).items():
        a = v[name]
        if a.index < d:
            continue
        side, limit = (F, lp.n) if a.kind == "F" else (T, lp.k)
        for r in range(d, limit + 1):
            assert eval_formula(lp, f, {**v, name: side(r)}).designated == want


def test_high_logic_tautology_is_fast():
    start = time.perf_counter()
    got = is_tautology(LogicParams(16, 16), parse("a -> b -> c -> d -> e -> f -> a"))
    assert got.valid
    assert time.perf_counter() - start < 1


# The counterexamples below were recorded from full enumeration of all
# (n+k+2)^m valuations.


def test_high_logic_shallow_first_counterexample():
    got = is_tautology(LogicParams(16, 16),
                       parse("!a -> b -> !!c -> d -> (e -> f) -> !!!e"))
    assert list(got.counterexample.items()) == [
        ("a", F(0)), ("b", T(0)), ("c", F(1)),
        ("d", T(0)), ("e", F(1)), ("f", F(0)),
    ]


def test_mixed_entailment_first_counterexample():
    # p needs all 34 grades; r and q collapse to 4 and 2
    lp = LogicParams(16, 16)
    hyps = [parse("!r -> q"), parse("q")]
    got = entails(lp, hyps, or_(iter_neg(16, p), iter_neg(15, p)))
    assert list(got.counterexample.items()) == [
        ("r", F(0)), ("q", T(0)), ("p", F(16))]
    got = entails(lp, hyps, Neg(and_(iter_neg(16, p), iter_neg(15, p))))
    assert list(got.counterexample.items()) == [
        ("r", F(0)), ("q", T(0)), ("p", T(16))]
