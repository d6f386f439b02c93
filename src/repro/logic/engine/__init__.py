"""The bitset model-checking backend: columnar tables + semi-naive TC.

This package is the performance engine behind
``ModelChecker(tree, backend="bitset")``, mirroring the XPath bitset engine
(:mod:`repro.xpath.engine`):

* :mod:`repro.logic.engine.bittable` — relations as columnar tables whose
  last column is a big-int bitmask over preorder node ids (unary relations
  and booleans collapse to a single mask), with join / complement /
  projection / union as mask arithmetic;
* :mod:`repro.logic.engine.checker` — the bottom-up evaluator over the
  shared per-tree :class:`repro.trees.index.TreeIndex`: a guarded ``∃``
  with a path-shaped body is a semi-join on node masks (axis-kernel
  pre-images, a parameter-free ``[TC]`` as one frontier sweep), and other
  ``[TC]`` tables close by batched semi-naive frontier sweeps instead of a
  tuple-at-a-time BFS.

See DESIGN.md ("The bitset model checker") and
``benchmarks/compare_backends.py`` for the measured speedups over the
row-wise ``table`` backend.
"""

from .bittable import BitsetTable
from .checker import BitsetModelChecker, mask_closure

__all__ = ["BitsetModelChecker", "BitsetTable", "mask_closure"]
