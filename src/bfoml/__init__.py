"""Satisfiability toolkit for bundled fragments of first-order modal logic.

Provides the formula language (parser, printer, NNF, cleansing), Kripke
models with a checked satisfaction relation, two terminating tableau
decision procedures (full language over increasing domains; exists-box
fragment over constant domains), a bounded brute-force model-search oracle,
and the encoding of prenex FO(R) sentences into the exists-diamond fragment
together with its witness-model construction.
"""

from .enumeration import EnumerationResult, enumerate_sat
from .errors import (ArityMismatchError, BfomlError, CaptureError,
                     FragmentError, InternalSolverError, InvalidModelError,
                     IrrelevantAssignmentError, ModelFormatError, ParseError,
                     ResourceLimitError, UnboundVariableError, UnknownWorldError)
from .fo import (FOModel, FOSentence, build_witness_model, fo_check,
                 fo_enumerate_sat, fo_satisfying_models, format_fo, parse_fo,
                 translate_qf, translate_sentence)
from .formulas import (And, Atom, Bot, Bundle, Formula, Fragment, Implies,
                       Mod, Not, Or, Predicate, Quant, Top, Var, ast_size,
                       atom, classify, cleanse, exists_box_vars, format_formula,
                       free_vars, is_clean, is_literal, is_nnf, modal_depth,
                       subformulas, substitute, to_nnf)
from .kripke import (Assignment, KripkeModel, ModelViolation, check,
                     identity_assignment, model_from_json_dict, model_loads,
                     validate)
from .parser import parse
from .results import DecisionResult, TableauNode, Verdict
from .tableau_constant import decide_constant_eb
from .tableau_increasing import decide_increasing

__version__ = "0.1.0"

__all__ = [
    "And", "ArityMismatchError", "Assignment", "Atom", "BfomlError", "Bot",
    "Bundle", "CaptureError", "DecisionResult", "EnumerationResult",
    "FOModel", "FOSentence", "Formula", "Fragment", "FragmentError",
    "Implies", "InternalSolverError", "InvalidModelError",
    "IrrelevantAssignmentError", "KripkeModel", "Mod", "ModelFormatError",
    "ModelViolation", "Not", "Or", "ParseError", "Predicate", "Quant",
    "ResourceLimitError", "TableauNode", "Top", "UnboundVariableError",
    "UnknownWorldError", "Var", "Verdict", "ast_size", "atom",
    "build_witness_model", "check", "classify", "cleanse",
    "decide_constant_eb", "decide_increasing", "enumerate_sat",
    "exists_box_vars", "fo_check", "fo_enumerate_sat",
    "fo_satisfying_models", "format_fo", "format_formula", "free_vars",
    "identity_assignment", "is_clean", "is_literal", "is_nnf",
    "modal_depth", "model_from_json_dict", "model_loads", "parse",
    "parse_fo", "subformulas", "substitute", "to_nnf", "translate_qf",
    "translate_sentence", "validate",
]
