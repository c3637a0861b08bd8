"""Workbench for the I^nP^k family of finite-valued logics."""

from .formula import (
    Formula, Atom, Neg, Imp, FormulaSyntaxError,
    parse, render, expand, atoms, complexity,
    classicalize, strong_neg, or_, and_, or_cl, and_cl, star, circ, iter_neg,
)
from .semantics import (
    LogicParams, TruthValue, F, T, Verdict, OrderVerdict, TruthTable,
    eval_formula, enumerate_valuations, is_tautology, entails,
    parse_valuation, render_valuation,
    compare_logics, separating_witness, truth_table,
)
from .proofs import (
    AXIOM_IDS, Axiom, Hyp, MP, Lemma, ProofLine, Proof, CheckVerdict,
    ProofBuilder, ProofFormatError,
    axiom_pattern, axiom_metavariables, axiom_proof, match_axiom,
    substitute, check, deduction_transform, weaken,
    replace_hyp_with_theorem, substitute_proof, prune,
    rule_trans, rule_perm, rule_red, proof_to_json, proof_from_json,
)
from .templates import TEMPLATES, TemplateInfo, derive_template, template_ids
from .classical import (
    NotClassicalImage, untranslate, classical_core, classical_prove,
)
from .kalmar import (
    NotATautology, AtomContext, DeltaContext,
    phi_v, build_q_set, build_delta,
    lemma1_derive, lemma2_combine, complete_prove,
)

__all__ = [
    # formula
    "Formula", "Atom", "Neg", "Imp", "FormulaSyntaxError",
    "parse", "render", "expand", "atoms", "complexity",
    "classicalize", "strong_neg", "or_", "and_", "or_cl", "and_cl",
    "star", "circ", "iter_neg",
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
]
