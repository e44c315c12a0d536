"""Canonicalization of indexed expressions in the group algebra of S_n.

Expressions built from declared basic tensors are mapped to exact sparse
vectors over permutations; symmetries, multiterm linear identities,
product commutativity and dummy-index renamings span a relation subspace
whose triangle basis projects every expression onto a unique canonical
representative.
"""

from .galg import GroupVector
from .kbasis import KBasis
from .texpr import Registry, TensorExpr, estimate_memory

__all__ = ["GroupVector", "KBasis", "Registry", "TensorExpr",
           "estimate_memory"]

__version__ = "0.1.0"
