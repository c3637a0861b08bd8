"""The three workloads: their inputs, set-up, operations and checks.

A workload is built in three steps:

1. ``make_inputs(seed)`` uses only this benchmark's code (tuples from
   ``reference``), so input generation costs nothing in the program.
2. ``setup(inpk)`` is the program's set-up: the warm-up a user pays
   before the first real operation (and, for ``interchange``, building
   the proofs that are then written and read).  It is timed.
3. ``ops`` is the fixed list of operations of one round.  Each op is
   timed alone; ``check(i, result)`` runs right after it, outside the
   timed interval, and returns an error message or None.

The seed changes formulas, atom names and the order of operations.  It
does not change the mix: the same logics, atom counts, formula sizes,
valuation counts and proof sizes appear under every seed, so figures
from different seeds are comparable.  Where the cost of an operation
hangs on the exact shape of a formula (proof synthesis, proof files),
the shape is fixed and the seed only renames its atoms.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys

import reference as ref

# Atom names the seed chooses from.  Names of one length keep rendered
# sizes independent of the choice.  The prove workload gives every
# operation names of its own, so no operation finds template instances
# that another one left behind.
POOL = "abcdefghijklmnopqrstuvwxyz"
POOL2 = [a + b for a in POOL for b in POOL]


# ---------------------------------------------------------------------------
# Random formulas (tuples)


def random_formula(rng: random.Random, names, comp: int):
    """A random formula with exactly comp primitive connectives."""
    if comp <= 0:
        return ref.atom(rng.choice(names))
    if rng.random() < 0.4:
        return ref.neg(random_formula(rng, names, comp - 1))
    split = rng.randint(0, comp - 1)
    return ref.imp(random_formula(rng, names, split),
                   random_formula(rng, names, comp - 1 - split))


def covering_formula(rng: random.Random, names, chain, extra_negs: int):
    """An implication tree over every name once, the i-th name under a
    negation chain of length chain[i % len(chain)], plus extra_negs
    negations on inner implications.  The node count depends only on the
    arguments, not on the draw."""
    leaves = [ref.negs(chain[i % len(chain)], ref.atom(nm)) for i, nm in enumerate(names)]
    rng.shuffle(leaves)
    while len(leaves) > 1:
        i = rng.randrange(len(leaves) - 1)
        leaves[i:i + 2] = [ref.imp(leaves[i], leaves[i + 1])]
    f = leaves[0]
    for _ in range(extra_negs):
        f = _neg_inside(rng, f)
    return f


def _neg_inside(rng, f):
    """Negate one random implication node of f (f itself if none)."""
    if f[0] == "i" and rng.random() < 0.5:
        if rng.random() < 0.5:
            return ref.imp(_neg_inside(rng, f[1]), f[2])
        return ref.imp(f[1], _neg_inside(rng, f[2]))
    if f[0] == "n":
        return ref.neg(_neg_inside(rng, f[1]))
    return ref.neg(f)


# Surface syntax with derived connectives, rendered fully parenthesized;
# the parser must expand each to the same primitive tree as reference.
_SUGAR = {
    "||": ref.or_cl, "&&": ref.and_cl, "|": ref.or_, "&": ref.and_,
    "~": ref.strong_neg, "@": ref.classicalize,
}


def sugared(rng: random.Random, names, comp: int):
    """(text, primitive tuple) of a random formula using some sugar."""
    if comp <= 0:
        nm = rng.choice(names)
        return nm, ref.atom(nm)
    r = rng.random()
    if r < 0.15:
        op = rng.choice(["||", "&&", "|", "&"])
        split = rng.randint(0, comp - 1)
        ta, a = sugared(rng, names, split)
        tb, b = sugared(rng, names, comp - 1 - split)
        return f"(({ta}) {op} ({tb}))", _SUGAR[op](a, b)
    if r < 0.2:
        op = rng.choice(["~", "@"])
        t, a = sugared(rng, names, comp - 1)
        return f"{op}({t})", _SUGAR[op](a)
    if r < 0.55:
        t, a = sugared(rng, names, comp - 1)
        return f"!({t})", ref.neg(a)
    split = rng.randint(0, comp - 1)
    ta, a = sugared(rng, names, split)
    tb, b = sugared(rng, names, comp - 1 - split)
    return f"({ta}) -> ({tb})", ref.imp(a, b)


def to_inpk(inpk, f, memo=None):
    """Build the program's interned formula for a tuple."""
    memo = {} if memo is None else memo
    got = memo.get(id(f))
    if got is None:
        if f[0] == "a":
            got = inpk.Atom(f[1])
        elif f[0] == "n":
            got = inpk.Neg(to_inpk(inpk, f[1], memo))
        else:
            got = inpk.Imp(to_inpk(inpk, f[1], memo), to_inpk(inpk, f[2], memo))
        memo[id(f)] = got
    return got


def verdict_payload(verdict) -> dict:
    """The object `inpk --json taut` prints for a verdict."""
    if verdict.valid:
        return {"valid": True}
    return {"valid": False,
            "counterexample": {nm: str(w) for nm, w in verdict.counterexample.items()}}


# ---------------------------------------------------------------------------
# decide


# Large queries: (n, k, atoms, kind, negation profile).  "shallow" keeps
# every negation chain at most 2 deep at high (n, k); "deep" puts chains
# longer than n and k on every atom at low (n, k).  Valid ones enumerate
# (n+k+2)^atoms valuations; refuted ones stop at a rank fixed by
# construction.
LARGE = [
    (8, 8, 4, "axiom", "shallow"),
    (8, 8, 4, "mp", "shallow"),
    (8, 8, 5, "axiom", "shallow"),
    (8, 8, 5, "refuted", "shallow"),
    (16, 16, 4, "axiom", "shallow"),
    (16, 16, 4, "mp", "shallow"),
    (16, 16, 4, "refuted", "shallow"),
    (12, 12, 4, "axiom", "shallow"),
    (12, 12, 4, "refuted", "shallow"),
    (10, 10, 5, "axiom", "shallow"),
    (10, 10, 5, "mp", "shallow"),
    (16, 16, 4, "axiom", "shallow"),
    (2, 2, 8, "axiom", "deep"),
    (2, 2, 8, "mp", "deep"),
    (2, 2, 8, "refuted", "deep"),
    (2, 2, 7, "axiom", "deep"),
    (1, 2, 8, "axiom", "deep"),
    (2, 1, 8, "mp", "deep"),
    (3, 3, 7, "axiom", "deep"),
    (3, 3, 7, "refuted", "deep"),
    (3, 2, 7, "mp", "deep"),
    (2, 3, 7, "axiom", "deep"),
    (3, 2, 7, "axiom", "deep"),
    (1, 1, 8, "refuted", "deep"),
]
SMALL = 960  # 5 of each of the 192 (logic, atoms, kind) cells
# Schemas cycled over the large "axiom" slots; Ax5/Ax6 are left out
# because at high n, k they would put a deep chain into a shallow query.
_LARGE_SCHEMAS = ["Ax1", "Ax2", "Ax7", "Ax8", "Ax3", "Ax9", "Ax10", "Ax11",
                  "Ax4", "Ax12"]


def _axiom_over(rng, schema, n, k, names, chain, extra):
    """An axiom instance whose metavariables together cover names."""
    arity = ref.AXIOM_ARITY[schema]
    shares = [names[i::arity] for i in range(arity)]
    args = [covering_formula(rng, share, chain, extra) if share
            else ref.atom(names[0]) for share in shares]
    return ref.axiom(schema, n, k, *args)


def _small_query(rng, slot: int):
    """Slot j fixes the logic, the atom count, the kind and the size; the
    seed fills in the formulas.  So every seed has the same mix."""
    n, k = slot % 4, slot // 4 % 4
    names = rng.sample(POOL, 1 + slot // 16 % 3)
    kind = slot // 48 % 4
    size = 2 + slot // 192 % 5
    if kind == 0:
        text, f = sugared(rng, names, size)
        return dict(n=n, k=k, hyps=[], goal=(text, f))
    if kind == 1:
        schema = list(ref.AXIOM_ARITY)[slot % 12]
        args = [random_formula(rng, names, size // 2)
                for _ in range(ref.AXIOM_ARITY[schema])]
        f = ref.axiom(schema, n, k, *args)
        return dict(n=n, k=k, hyps=[], goal=(ref.render(f), f))
    if kind == 2:
        hyps = [sugared(rng, names, size - 1) for _ in range(1 + slot % 2)]
        return dict(n=n, k=k, hyps=hyps, goal=sugared(rng, names, size - 1))
    a = random_formula(rng, names, size - 1)
    b = random_formula(rng, names, size - 1)
    ab = ref.imp(a, b)
    return dict(n=n, k=k, hyps=[(ref.render(a), a), (ref.render(ab), ab)],
                goal=(ref.render(b), b))


def _large_query(rng, slot, spec):
    n, k, m, kind, profile = spec
    names = rng.sample(POOL, m)
    if profile == "shallow":
        chain, extra = (0, 1, 2), 2
    else:
        d = max(n, k) + 1
        chain, extra = (d, d + 1), 1
    schema = _LARGE_SCHEMAS[slot % len(_LARGE_SCHEMAS)]
    q = dict(n=n, k=k, hyps=[], large=True)
    if kind == "axiom":
        f = _axiom_over(rng, schema, n, k, names, chain, extra)
        q.update(goal=(ref.render(f), f), expect=None)
    elif kind == "mp":
        a = covering_formula(rng, names[: m // 2], chain, extra)
        b = covering_formula(rng, names, chain, extra)
        ab = ref.imp(a, b)
        q.update(hyps=[(ref.render(a), a), (ref.render(ab), ab)],
                 goal=(ref.render(b), b), expect=None)
    else:
        # (w -> w) -> (X -> w): X valid, w refuted in (n, k) only through
        # its atom, which comes first; so the first counterexample puts
        # that atom at w's first refuting value and every other at F0.
        a_n, a_k = (1, k) if n > 1 else (n, 0)
        w = ref.rename(ref.separating_witness(a_n, a_k, n, k), {"p": names[0]})
        x = _axiom_over(rng, schema, n, k, names[1:], chain, extra)
        f = ref.imp(ref.imp(w, w), ref.imp(x, w))
        mat = ref.Matrix(n, k)
        first = next(c for c in range(mat.size)
                     if not mat.designated(mat.value(w, {names[0]: c}, {})))
        cex = {nm: "F0" for nm in names}
        cex[names[0]] = mat.name(first)
        q.update(goal=(ref.render(f), f), expect=cex)
    return q


class Decide:
    """Parsed is_tautology / entails queries, checked against reference."""

    name = "decide"
    setup_samples = 5
    max_rounds = None
    collect_first = False

    def make_inputs(self, seed: int) -> None:
        rng = random.Random(f"decide:{seed}")
        queries = [_small_query(rng, j) for j in range(SMALL)]
        queries += [_large_query(rng, i, spec) for i, spec in enumerate(LARGE)]
        rng.shuffle(queries)
        self.queries = queries
        self.expected: dict[int, object] = {}

    def setup(self, inpk) -> None:
        self.inpk = inpk
        # first calls into the parser and the vectorized evaluator
        for text in ("p -> p", "!(p -> q) -> !!q", "~p | p", "(p && q) -> p"):
            for n, k in ((0, 0), (1, 1), (3, 3)):
                inpk.is_tautology(inpk.LogicParams(n, k), inpk.parse(text))
        inpk.entails(inpk.LogicParams(1, 1), [inpk.parse("p -> q"), inpk.parse("p")],
                     inpk.parse("q"))
        self.params = {}
        self.ops = [self._op(q) for q in self.queries]

    def _op(self, q):
        inpk = self.inpk
        key = (q["n"], q["k"])
        params = self.params.setdefault(key, inpk.LogicParams(*key))
        parse = inpk.parse
        goal = q["goal"][0]
        if q["hyps"]:
            hyps = [h[0] for h in q["hyps"]]
            entails = inpk.entails
            return lambda: entails(params, [parse(h) for h in hyps], parse(goal))
        is_tautology = inpk.is_tautology
        return lambda: is_tautology(params, parse(goal))

    def check(self, i: int, verdict):
        size = len(json.dumps(verdict_payload(verdict), indent=2)) + 1
        return self._verify(i, verdict), size

    def _verify(self, i: int, verdict):
        q = self.queries[i]
        got = verdict_payload(verdict)
        if i not in self.expected:
            self.expected[i] = self._expected(q)
        want = self.expected[i]
        if got.get("counterexample") != want:
            return f"query {q['goal'][0]!r} at ({q['n']},{q['k']}): got {got}, want {want}"
        cex = got.get("counterexample")
        if cex is not None:
            mat = ref.Matrix(q["n"], q["k"])
            codes = {nm: _code(mat, w) for nm, w in cex.items()}
            if mat.holds([h[1] for h in q["hyps"]], q["goal"][1], codes):
                return f"counterexample {cex} does not refute {q['goal'][0]!r}"
        return None

    def _expected(self, q):
        if q.get("large"):
            return q["expect"]  # known by construction
        mat = ref.Matrix(q["n"], q["k"])
        return mat.first_counterexample([h[1] for h in q["hyps"]], q["goal"][1])


def _code(mat: ref.Matrix, text: str) -> int:
    idx = int(text[1:])
    return idx if text[0] == "F" else mat.t0 + idx


# ---------------------------------------------------------------------------
# prove


X, Y = ref.atom("x"), ref.atom("y")
# (n, k, formula over x, y).  Each takes 0.03 s to 2.6 s today; the one
# round a run makes takes about 21 s.
PROVE = [
    (1, 0, ref.or_cl(ref.negs(2, X), ref.neg(X))),       # !!x || !x
    (1, 0, ref.imp(X, ref.imp(Y, X))),
    (1, 0, ref.imp(ref.imp(X, Y), ref.imp(X, Y))),
    (1, 0, ref.negs(2, ref.imp(X, X))),
    (0, 0, ref.imp(X, ref.imp(Y, X))),
    (0, 0, ref.imp(ref.imp(X, Y), ref.imp(X, Y))),
    (0, 0, ref.or_cl(ref.negs(2, X), ref.neg(X))),
    (0, 0, ref.imp(X, ref.imp(X, X))),
    (0, 1, ref.or_cl(ref.negs(2, X), ref.neg(X))),
    (0, 1, ref.imp(X, ref.imp(Y, X))),
    (0, 1, ref.negs(2, ref.imp(X, X))),
    (1, 1, ref.or_cl(ref.negs(2, X), ref.neg(X))),
    (1, 1, ref.imp(X, ref.imp(X, X))),
    (1, 1, ref.negs(2, ref.imp(X, X))),
    (3, 3, ref.negs(2, ref.imp(X, X))),
    (3, 3, ref.imp(X, ref.imp(X, X))),
    (0, 0, ref.imp(X, ref.imp(Y, Y))),
    (1, 0, ref.imp(Y, ref.imp(X, Y))),
    (3, 3, ref.imp(X, X)),
    (0, 0, ref.imp(Y, ref.imp(X, Y))),
    (1, 0, ref.or_cl(ref.negs(2, X), ref.neg(X))),
]


class Prove:
    """complete_prove on one- and two-atom tautologies."""

    name = "prove"
    setup_samples = 3
    # Later rounds find every template instance memoized: they would time
    # the memo, not synthesis.
    max_rounds = 1
    collect_first = True

    def make_inputs(self, seed: int) -> None:
        # The order is the same for every seed: memo tables and the heap
        # grow with every proof, so an operation costs more the later it
        # runs, and a seeded order would make the totals depend on the seed.
        rng = random.Random(f"prove:{seed}")
        names = iter(rng.sample(POOL2, 2 * len(PROVE)))
        self.items = [(n, k, ref.rename(f, {"x": next(names), "y": next(names)}))
                      for n, k, f in PROVE]

    def setup(self, inpk) -> None:
        self.inpk = inpk
        p = inpk.Atom("p")
        for key in sorted({(n, k) for n, k, _ in self.items}):
            inpk.complete_prove(inpk.LogicParams(*key), inpk.Imp(p, p))
        self.goals = [(inpk.LogicParams(n, k), to_inpk(inpk, f))
                      for n, k, f in self.items]
        prove = inpk.complete_prove
        self.ops = [(lambda L=L, g=g: prove(L, g)) for L, g in self.goals]

    def check(self, i: int, proof):
        return isolated(lambda: (self._verify(i, proof), self._file_bytes(proof)))

    def _verify(self, i: int, proof):
        inpk = self.inpk
        params, goal = self.goals[i]
        verdict = inpk.check(proof)
        if not verdict:
            return f"proof of {ref.render(goal)} rejected: {verdict}"
        if proof.hypotheses:
            return f"proof of {ref.render(goal)} has hypotheses"
        if proof.conclusion is not goal:
            return f"proof of {ref.render(goal)} concludes something else"
        # soundness: every line is valid in the logic
        formulas = list({id(line.formula): line.formula for line in proof.lines}.values())
        mat = ref.Matrix(params.n, params.k)
        if not mat.valid_everywhere(formulas, ref.atom_order(formulas)):
            return f"proof of {ref.render(goal)} has an invalid line"
        return None

    def _file_bytes(self, proof) -> int:
        # the file `inpk prove -o` would write
        text = json.dumps(self.inpk.proof_to_json(proof), indent=2)
        return len(text.encode()) + 1


# ---------------------------------------------------------------------------
# interchange


# ("template", n, k, template id, connective count of each substitution)
# ("leaf", n, k, formula over x, y, codes of x, y)  -- lemma1_derive
# ("full", n, k, formula over x)                     -- complete_prove
INTERCHANGE = [
    # 1 to 15 lines
    ("template", 0, 0, "star_of_star", 2),
    ("template", 1, 1, "intro_classicalize", 3),
    ("template", 2, 1, "refl", 2),
    ("template", 0, 1, "circ_of_circ", 2),
    ("template", 1, 0, "elim_classicalize", 3),
    ("template", 2, 2, "star_of_neg_imp", 2),
    ("template", 3, 3, "strong_neg_cases_classicalize", 1),
    ("template", 0, 2, "circ_of_negstar", 2),
    ("template", 1, 2, "or_intro_right", 3),
    # 65 to 260 lines, each with small and larger substitutions
    ("template", 0, 0, "star_strong_to_weak_neg", 0),
    ("template", 2, 1, "star_strong_to_weak_neg", 2),
    ("template", 1, 1, "strong_neg_cases", 0),
    ("template", 0, 2, "strong_neg_cases", 2),
    ("template", 1, 0, "contraposition", 0),
    ("template", 2, 2, "contraposition", 2),
    ("template", 0, 1, "converse_contraposition", 0),
    ("template", 3, 1, "converse_contraposition", 2),
    ("template", 1, 1, "circ_refute_imp", 0),
    ("template", 0, 0, "circ_refute_imp", 2),
    ("template", 2, 2, "circ_explosion", 0),
    ("template", 1, 0, "circ_explosion", 2),
    ("template", 1, 0, "negstar_explosion", 0),
    ("template", 3, 3, "circ_refute_imp", 1),
    # hypothesis-bearing leaves of the completeness proof
    ("leaf", 0, 0, ref.or_cl(ref.negs(2, X), ref.neg(X)), (1,)),
    ("leaf", 1, 1, ref.imp(X, ref.imp(Y, X)), (1, 3)),
    # a small full proof, and the largest file
    ("full", 0, 0, ref.or_cl(ref.negs(2, X), ref.neg(X))),
    ("template", 0, 0, "or_intro_left", 0),
]
# files up to this many lines also get tampered copies checked
TAMPER_LINES = 70


class Interchange:
    """Proof files written as `inpk prove -o` does, then `inpk --json check`."""

    name = "interchange"
    setup_samples = 3
    max_rounds = None
    collect_first = True

    def make_inputs(self, seed: int) -> None:
        rng = random.Random(f"interchange:{seed}")
        shape_rng = random.Random("interchange:shapes")
        specs = []
        for spec in INTERCHANGE:
            names = rng.sample(POOL, 3)
            if spec[0] == "template":
                _, n, k, tid, comp = spec
                # fixed shapes, seeded names: sizes and parse costs do
                # not depend on the seed
                shapes = [random_formula(shape_rng, ["x", "y", "z"], comp) for _ in range(3)]
                rn = dict(zip(["x", "y", "z"], names))
                specs.append(("template", n, k, tid, [ref.rename(f, rn) for f in shapes]))
            elif spec[0] == "leaf":
                _, n, k, f, codes = spec
                specs.append(("leaf", n, k,
                              ref.rename(f, {"x": names[0], "y": names[1]}),
                              dict(zip(names, codes))))
            else:
                _, n, k, f = spec
                specs.append(("full", n, k, ref.rename(f, {"x": names[0]})))
        order = list(range(len(specs)))
        rng.shuffle(order)
        self.specs = [specs[i] for i in order]
        self.seed = seed

    def setup(self, inpk) -> None:
        self.inpk = inpk
        proofs = []
        memo: dict = {}
        for spec in self.specs:
            kind, n, k = spec[:3]
            params = inpk.LogicParams(n, k)
            if kind == "template":
                tid, substs = spec[3], spec[4]
                metavars = inpk.TEMPLATES[tid].metavariables
                bind = {v: to_inpk(inpk, s, memo) for v, s in zip(metavars, substs)}
                proofs.append(inpk.derive_template(tid, bind, params))
            elif kind == "leaf":
                f, codes = spec[3], spec[4]
                val = {nm: params.value_of_code(c) for nm, c in codes.items()}
                proofs.append(inpk.lemma1_derive(params, to_inpk(inpk, f, memo), val))
            else:
                proofs.append(inpk.complete_prove(params, to_inpk(inpk, spec[3], memo)))
        self.proofs = proofs
        self.verified: dict[int, bytes] = {}
        from inpk import cli

        self.cli = cli
        self.ops = [self._op(i, pf) for i, pf in enumerate(proofs)]

    def _path(self, i: int, tag: str = "") -> str:
        return os.path.join(OUT_DIR, f"interchange-{self.seed}-{i}{tag}.json")

    def _op(self, i, proof):
        path = self._path(i)
        to_json = self.inpk.proof_to_json
        cli = self.cli

        def op():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(to_json(proof), fh, indent=2)
                fh.write("\n")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(["--json", "check", path])
            return rc, out.getvalue()

        return op

    def check(self, i: int, result):
        rc, out = result
        if rc != 0 or json.loads(out).get("accepted") is not True:
            return f"file {i}: check exited {rc}: {out.strip()}", 0
        with open(self._path(i), "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).digest()
        if i in self.verified:
            # a later round wrote the same proof again: same bytes
            if digest != self.verified[i]:
                return f"file {i}: differs from the file written in the first round", len(data)
            return None, len(data)
        self.verified[i] = digest
        return isolated(lambda: (self._verify(i, data), len(data)))

    def _verify(self, i: int, data: bytes):
        doc = json.loads(data)
        proof = self.proofs[i]
        lines = doc["lines"]
        memo: dict = {}
        if (len(lines) != len(proof.lines)
                or [ref.render(h, memo) for h in proof.hypotheses] != doc["hypotheses"]):
            return f"file {i}: lines or hypotheses differ from the source proof"
        for num, (raw, line) in enumerate(zip(lines, proof.lines), start=1):
            if raw["formula"] != ref.render(line.formula, memo):
                return f"file {i} line {num}: formula differs from the source proof"
        if len(lines) <= TAMPER_LINES:
            return self._tamper_checks(i, doc)
        return None

    def _tamper_checks(self, i: int, doc):
        for at, bad in tampered(doc):
            path = self._path(i, "-tampered")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(bad, fh, indent=2)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = self.cli.main(["--json", "check", path])
            os.remove(path)
            got = json.loads(out.getvalue())
            if rc != 1 or got.get("accepted") is not False or got.get("line") != at:
                return f"file {i}: tampered line {at} gave exit {rc}, {got}"
        return None

    def cleanup(self) -> None:
        for i in range(len(self.proofs)):
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._path(i))


def tampered(doc):
    """(1-based line, copy) pairs, each with one fault the checker must
    report at that line: an mp reference moved forward, a formula changed."""
    lines = doc["lines"]
    out = []
    mp_at = next((j for j, raw in enumerate(lines) if raw["just"]["kind"] == "mp"), None)
    if mp_at is not None:
        bad = json.loads(json.dumps(doc))
        bad["lines"][mp_at]["just"]["major"] = mp_at + 1  # the line itself
        out.append((mp_at + 1, bad))
    j = len(lines) // 2
    bad = json.loads(json.dumps(doc))
    bad["lines"][j]["formula"] = f"({lines[j]['formula']}) -> z"
    out.append((j + 1, bad))
    return out


def isolated(fn):
    """Run fn in a forked child and return what it returns (JSON-able).

    Checks that build large temporary data run there, so that their
    memory does not count in the benchmark process's peak RSS.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        try:
            try:
                payload = fn()
            except Exception as exc:
                payload = (f"check raised {type(exc).__name__}: {exc}", 0)
            with os.fdopen(w, "w") as fh:
                fh.write(json.dumps(payload))
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r) as fh:
        text = fh.read()
    os.waitpid(pid, 0)
    if not text:
        return "check process ended without a result", 0
    return tuple(json.loads(text))


OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

WORKLOADS = {w.name: w for w in (Decide, Prove, Interchange)}
