"""Spans at the module boundaries of inpk, recorded from outside.

``install`` replaces each public function listed in ``WRAPPED`` by a
wrapper, in every ``inpk`` module namespace that binds it, so calls
between modules go through the wrapper too (``deduction_transform``
calling ``check``, templates instantiating other templates, the CLI
calling the reader).  Calls inside one module to a private helper are
not spans.

A span records its name, start, end, parent span, the phase of the run
(``setup`` or ``run``), whether an enclosing span has the same name,
and an amount of work (text length, valuations, proof lines).  Spans
stay in memory and are written out when the run ends.  A layer's self
time is its span time minus the time of its child spans; since spans
nest in one thread, the children of a span never overlap.
"""

from __future__ import annotations

import json
import sys
import time

# function name -> module that defines it
WRAPPED = {
    "parse": "formula",
    "render": "formula",
    "is_tautology": "semantics",
    "entails": "semantics",
    "eval_formula": "semantics",
    "derive_template": "templates",
    "classical_core": "classical",
    "lemma1_derive": "kalmar",
    "lemma2_combine": "kalmar",
    "complete_prove": "kalmar",
    "check": "proofs",
    "deduction_transform": "proofs",
    "weaken": "proofs",
    "replace_hyp_with_theorem": "proofs",
    "proof_to_json": "proofs",
    "proof_from_json": "proofs",
    "main": "cli",
}

NAME, START, END, PARENT, PHASE, NESTED, AMOUNT = range(7)


def _valuations(params, names, verdict) -> int:
    """Nominal lexicographic count: all of them when valid, else the
    counterexample's rank plus one."""
    size = params.size
    if verdict.valid:
        return size ** len(names)
    rank = 0
    for nm in names:
        rank = rank * size + params.code(verdict.counterexample[nm])
    return rank + 1


def _taut_amount(args, kw, verdict):
    params, f = args[0], args[1]
    return _valuations(params, list(f.atom_names), verdict)


def _entails_amount(args, kw, verdict):
    params, hyps, f = args[0], args[1], args[2]
    names: dict = {}
    for g in list(hyps) + [f]:
        for nm in g.atom_names:
            names[nm] = None
    return _valuations(params, list(names), verdict)


def _text_amount(args, kw, result):
    data = args[0] if args else kw.get("data", kw.get("text"))
    return len(data) if isinstance(data, (str, bytes)) else 0


AMOUNTS = {
    "parse": _text_amount,
    "proof_from_json": _text_amount,
    "is_tautology": _taut_amount,
    "entails": _entails_amount,
    "lemma1_derive": lambda args, kw, pf: len(pf),
    "lemma2_combine": lambda args, kw, pf: len(pf),
    "complete_prove": lambda args, kw, pf: len(pf),
    "check": lambda args, kw, verdict: len(args[0].lines),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.phase = "setup"
        self.enabled = True

    def wrap(self, label: str, fn):
        spans, stack, active = self.spans, self.stack, self.active
        amount = AMOUNTS.get(fn.__name__)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kw):
            if not tracer.enabled:
                return fn(*args, **kw)
            depth = active.get(label, 0)
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.phase,
                   depth > 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            active[label] = depth + 1
            rec[START] = clock()
            try:
                result = fn(*args, **kw)
            finally:
                rec[END] = clock()
                active[label] = depth
                stack.pop()
            if amount is not None:
                rec[AMOUNT] = amount(args, kw, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def install(inpk) -> Tracer:
    """Wrap every function of WRAPPED wherever an inpk module binds it."""
    tracer = Tracer()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "inpk" or name.startswith("inpk."))]
    for fname, home in WRAPPED.items():
        fn = getattr(sys.modules[f"inpk.{home}"], fname)
        wrapper = tracer.wrap(f"{home}.{fname}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
    return tracer


class _Totals:
    def __init__(self) -> None:
        self.calls = 0
        self.inclusive = 0.0  # outermost spans of this name only
        self.self_time = 0.0
        self.amount = 0


def totals(spans, phases) -> dict[str, _Totals]:
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    out: dict[str, _Totals] = {}
    for i, rec in enumerate(spans):
        if rec[PHASE] not in phases:
            continue
        t = out.setdefault(rec[NAME], _Totals())
        dur = rec[END] - rec[START]
        t.calls += 1
        t.self_time += dur - child[i]
        t.amount += rec[AMOUNT]
        if not rec[NESTED]:
            t.inclusive += dur
    return out


# (metric, unit); how each is computed is in layer_metrics
PER_LAYER = [
    ("formula.parse_calls", "count"),
    ("formula.parse_s", "s"),
    ("formula.parse_mb_per_s", "MB/s"),
    ("formula.render_s", "s"),
    ("semantics.decide_calls", "count"),
    ("semantics.decide_s", "s"),
    ("semantics.valuations", "count"),
    ("semantics.valuations_per_s", "1/s"),
    ("semantics.eval_formula_s", "s"),
    ("templates.derive_calls", "count"),
    ("templates.derive_s", "s"),
    ("templates.derive_self_s", "s"),
    ("templates.setup_derive_calls", "count"),
    ("templates.setup_derive_s", "s"),
    ("templates.setup_derive_self_s", "s"),
    ("classical.core_s", "s"),
    ("kalmar.prove_s", "s"),
    ("kalmar.prove_self_s", "s"),
    ("kalmar.prove_lines", "lines"),
    ("kalmar.lemma1_calls", "count"),
    ("kalmar.lemma1_s", "s"),
    ("kalmar.lemma1_self_s", "s"),
    ("kalmar.lemma1_lines", "lines"),
    ("kalmar.lemma2_calls", "count"),
    ("kalmar.lemma2_s", "s"),
    ("kalmar.lemma2_self_s", "s"),
    ("kalmar.lemma2_lines", "lines"),
    ("proofs.deduction_transform_calls", "count"),
    ("proofs.deduction_transform_self_s", "s"),
    ("proofs.weaken_s", "s"),
    ("proofs.replace_hyp_s", "s"),
    ("proofs.check_s", "s"),
    ("proofs.check_lines_per_s", "lines/s"),
    ("proofs.to_json_s", "s"),
    ("proofs.from_json_s", "s"),
    ("proofs.from_json_mb_per_s", "MB/s"),
    ("cli.main_s", "s"),
    ("cli.self_s", "s"),
    ("trace.spans", "count"),
]


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of the measured operations.  The setup_* and
    classical figures cover set-up too: the classical engine runs only
    while template proofs are first built."""
    run = totals(tracer.spans, {"run"})
    both = totals(tracer.spans, {"setup", "run"})
    setup = totals(tracer.spans, {"setup"})
    z = _Totals()

    def get(table, name):
        return table.get(name, z)

    parse = get(run, "formula.parse")
    taut, ent = get(run, "semantics.is_tautology"), get(run, "semantics.entails")
    decide_s = taut.inclusive + ent.inclusive
    tpl, tpl_setup = get(run, "templates.derive_template"), get(setup, "templates.derive_template")
    l1, l2 = get(run, "kalmar.lemma1_derive"), get(run, "kalmar.lemma2_combine")
    prove = get(run, "kalmar.complete_prove")
    dt = get(run, "proofs.deduction_transform")
    chk, rd = get(run, "proofs.check"), get(run, "proofs.proof_from_json")
    main = get(run, "cli.main")
    values = {
        "formula.parse_calls": parse.calls,
        "formula.parse_s": parse.inclusive,
        "formula.parse_mb_per_s": _rate(parse.amount / 1e6, parse.inclusive),
        "formula.render_s": get(run, "formula.render").inclusive,
        "semantics.decide_calls": taut.calls + ent.calls,
        "semantics.decide_s": decide_s,
        "semantics.valuations": taut.amount + ent.amount,
        "semantics.valuations_per_s": _rate(taut.amount + ent.amount, decide_s),
        "semantics.eval_formula_s": get(run, "semantics.eval_formula").inclusive,
        "templates.derive_calls": tpl.calls,
        "templates.derive_s": tpl.inclusive,
        "templates.derive_self_s": tpl.self_time,
        "templates.setup_derive_calls": tpl_setup.calls,
        "templates.setup_derive_s": tpl_setup.inclusive,
        "templates.setup_derive_self_s": tpl_setup.self_time,
        "classical.core_s": get(both, "classical.classical_core").inclusive,
        "kalmar.prove_s": prove.inclusive,
        "kalmar.prove_self_s": prove.self_time,
        "kalmar.prove_lines": prove.amount,
        "kalmar.lemma1_calls": l1.calls,
        "kalmar.lemma1_s": l1.inclusive,
        "kalmar.lemma1_self_s": l1.self_time,
        "kalmar.lemma1_lines": l1.amount,
        "kalmar.lemma2_calls": l2.calls,
        "kalmar.lemma2_s": l2.inclusive,
        "kalmar.lemma2_self_s": l2.self_time,
        "kalmar.lemma2_lines": l2.amount,
        "proofs.deduction_transform_calls": dt.calls,
        "proofs.deduction_transform_self_s": dt.self_time,
        "proofs.weaken_s": get(run, "proofs.weaken").inclusive,
        "proofs.replace_hyp_s": get(run, "proofs.replace_hyp_with_theorem").inclusive,
        "proofs.check_s": chk.inclusive,
        "proofs.check_lines_per_s": _rate(chk.amount, chk.inclusive),
        "proofs.to_json_s": get(run, "proofs.proof_to_json").inclusive,
        "proofs.from_json_s": rd.inclusive,
        "proofs.from_json_mb_per_s": _rate(rd.amount / 1e6, rd.inclusive),
        "cli.main_s": main.inclusive,
        "cli.self_s": main.self_time,
        "trace.spans": len(tracer.spans),
    }
    return values
