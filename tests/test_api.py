"""The package's public names and what importing it loads."""

import ast
import glob
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import inpk

PUBLIC = (
    # formula
    "Formula", "Atom", "Neg", "Imp", "FormulaSyntaxError", "parse",
    "render", "expand", "atoms", "complexity", "classicalize", "strong_neg",
    "or_", "and_", "or_cl", "and_cl", "star", "circ", "iter_neg",
    # semantics
    "LogicParams", "TruthValue", "F", "T", "Verdict", "OrderVerdict",
    "TruthTable", "eval_formula", "enumerate_valuations", "is_tautology",
    "entails", "parse_valuation", "render_valuation", "compare_logics",
    "separating_witness", "truth_table",
    # proofs
    "AXIOM_IDS", "Axiom", "Hyp", "MP", "Lemma", "ProofLine", "Proof",
    "CheckVerdict",
    "ProofBuilder", "ProofFormatError", "axiom_pattern",
    "axiom_metavariables", "axiom_proof", "match_axiom", "substitute",
    "check", "deduction_transform", "weaken", "replace_hyp_with_theorem",
    "substitute_proof", "prune", "rule_trans", "rule_perm", "rule_red",
    "proof_to_json", "proof_from_json",
    # templates
    "TEMPLATES", "TemplateInfo", "derive_template", "template_ids",
    # classical fragment
    "NotClassicalImage", "untranslate", "classical_core", "classical_prove",
    # completeness engine
    "NotATautology", "AtomContext", "DeltaContext", "phi_v",
    "build_q_set", "build_delta", "lemma1_derive", "lemma2_combine",
    "complete_prove",
)


def test_public_names_are_pinned_and_resolve():
    assert tuple(inpk.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(inpk, name) is not None, name


SUBMODULES = [m.name for m in pkgutil.iter_modules(inpk.__path__)]


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_submodule_export_resolves(module):
    mod = importlib.import_module(f"inpk.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_import_loads_no_numpy():
    # a fresh interpreter: this one may have numpy loaded by a test tool
    src = os.path.dirname(os.path.dirname(inpk.__file__))
    code = "import sys, inpk, inpk.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    ).stdout
    assert out == "False\n"


def _package_imports():
    """module -> (the modules of the package it imports at top level,
    the package imports made inside a function body), read with ast."""
    found = {}
    for path in glob.glob(os.path.join(os.path.dirname(inpk.__file__), "*.py")):
        name = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        top, nested = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "inpk"
            ):
                # from .x import y, or from . import x, y
                target = (node.module or "inpk").split(".")[-1]
                mods = [a.name for a in node.names] if target == "inpk" else [target]
                if node in tree.body:
                    top.update(mods)
                else:
                    nested.append((node.lineno, mods))
        found[name] = (top, nested)
    return found


def test_package_imports_are_acyclic_and_at_module_top():
    found = _package_imports()
    assert {name: nested for name, (_, nested) in found.items() if nested} == {}
    # depth-first search for a back edge
    state: dict[str, str] = {}

    def visit(name, path):
        state[name] = "open"
        for dep in sorted(found[name][0] & found.keys()):
            assert state.get(dep) != "open", " -> ".join(path + [dep])
            if dep not in state:
                visit(dep, path + [dep])
        state[name] = "done"

    for name in sorted(found):
        if name not in state:
            visit(name, [name])
