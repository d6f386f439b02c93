"""Core XPath / Regular XPath / Regular XPath(W): syntax and evaluation.

Quick tour::

    from repro.trees import parse_xml
    from repro.xpath import parse_path, select

    tree = parse_xml("<talk><speaker/><title><i/></title></talk>")
    select(tree, parse_path("descendant[i]"))   # node ids of <i> parents...

Public surface: the AST (:mod:`repro.xpath.ast`), the parser
(:func:`parse_path` / :func:`parse_node`), the pretty-printer
(:func:`unparse`), the two evaluators, the simplifier, fragment
classification, and random samplers for property testing.
"""

from . import ast
from .engine import BitsetEvaluator
from .evaluator import (
    BACKENDS,
    Evaluator,
    SetEvaluator,
    converse,
    evaluate_nodes,
    evaluate_pairs,
    evaluate_path,
    select,
)
from .fragments import (
    Dialect,
    axes_used,
    dialect,
    expression_size,
    filter_depth,
    is_conditional_xpath,
    is_core_xpath,
    is_downward,
    is_regular_xpath,
    star_height,
    uses_path_booleans,
    uses_within,
)
from .lexer import XPathSyntaxError
from .normal_forms import (
    NotCoreXPath,
    distribute_unions,
    is_simple_node,
    to_modal_form,
)
from .optimizer import (
    canonical_key,
    canonicalize,
    canonicalize_node,
    canonicalize_path,
)
from .parser import parse_node, parse_path
from .random_exprs import ExprSampler, random_node, random_path
from .reference import node_set, path_pairs
from .rewrite import simplify, simplify_node
from .unparse import unparse

__all__ = [
    "BACKENDS",
    "BitsetEvaluator",
    "Dialect",
    "Evaluator",
    "SetEvaluator",
    "ExprSampler",
    "XPathSyntaxError",
    "ast",
    "axes_used",
    "converse",
    "dialect",
    "evaluate_nodes",
    "evaluate_pairs",
    "evaluate_path",
    "expression_size",
    "filter_depth",
    "is_conditional_xpath",
    "is_core_xpath",
    "is_downward",
    "is_regular_xpath",
    "NotCoreXPath",
    "canonical_key",
    "canonicalize",
    "canonicalize_node",
    "canonicalize_path",
    "distribute_unions",
    "is_simple_node",
    "node_set",
    "parse_node",
    "parse_path",
    "path_pairs",
    "random_node",
    "random_path",
    "select",
    "simplify",
    "simplify_node",
    "star_height",
    "to_modal_form",
    "unparse",
    "uses_path_booleans",
    "uses_within",
]
