"""Sibling-ordered labelled trees: the XML data model of the paper.

Public surface:

* :class:`Tree`, :class:`Node` — the immutable tree structure.
* :class:`Axis` and the axis relation helpers.
* :func:`parse_xml` / :func:`to_xml` — XML in and out.
* the workload generators (:func:`random_tree`, :func:`all_trees`, shaped
  families).
* :class:`TreeStore` — the on-disk (RSTR v2) index store, one checksummed
  file per tree.
"""

from .axes import (
    Axis,
    CLOSURE_BASE,
    PRIMITIVE_AXES,
    TRANSITIVE_AXES,
    axis_image,
    axis_pairs,
    axis_steps,
    inverse_axis,
)
from .generate import (
    all_shapes,
    all_trees,
    binary_string_tree,
    chain,
    comb,
    count_shapes,
    full_kary,
    random_deep_tree,
    random_tree,
    star,
)
from .index import Scope, TreeIndex, tree_index
from .mutate import (
    DeleteSubtree,
    InsertSubtree,
    Relabel,
    apply_edit,
    apply_edit_indexed,
    apply_edits,
    edit_from_json,
    edit_to_json,
)
from .node import Node
from .store import TreeStore, index_nbytes, pack_bytes
from .tree import Tree
from .wal import WriteAheadLog, recover_registry, tree_digest
from .xml_io import XmlReadOptions, XmlSyntaxError, parse_xml, to_xml

__all__ = [
    "Axis",
    "CLOSURE_BASE",
    "DeleteSubtree",
    "InsertSubtree",
    "Relabel",
    "PRIMITIVE_AXES",
    "TRANSITIVE_AXES",
    "Node",
    "Scope",
    "Tree",
    "TreeIndex",
    "TreeStore",
    "WriteAheadLog",
    "index_nbytes",
    "pack_bytes",
    "XmlReadOptions",
    "XmlSyntaxError",
    "all_shapes",
    "all_trees",
    "apply_edit",
    "apply_edit_indexed",
    "apply_edits",
    "axis_image",
    "axis_pairs",
    "axis_steps",
    "binary_string_tree",
    "chain",
    "comb",
    "count_shapes",
    "edit_from_json",
    "edit_to_json",
    "full_kary",
    "inverse_axis",
    "parse_xml",
    "random_deep_tree",
    "random_tree",
    "recover_registry",
    "star",
    "to_xml",
    "tree_digest",
    "tree_index",
]
