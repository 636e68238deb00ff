"""recdig: exact enumeration of recurrent functional digraphs.

Counts endofunctions and Cayley permutations of [n] whose functional
digraphs satisfy structural constraints (trees, forests, connected,
fixed-point-free, bounded indegree, iterate-periodic, ...) via three
independent routes: closed formulas over r-Stirling differences, exact
coefficient recursions for two-sort counting series, and a brute-force
enumeration oracle that verifies every number at desk scale.
"""

from recdig.series import CoeffSeq, atom
from recdig.stirling import r_stirling, sdiff
from recdig.tables import CoeffTable, compose_table, rooted_tree_table

__version__ = "0.1.0"

__all__ = [
    "CoeffSeq",
    "CoeffTable",
    "atom",
    "compose_table",
    "r_stirling",
    "rooted_tree_table",
    "sdiff",
    "__version__",
]
