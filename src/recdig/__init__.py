"""recdig: exact enumeration of recurrent functional digraphs.

Counts endofunctions and Cayley permutations of [n] whose functional
digraphs satisfy structural constraints (trees, forests, connected,
fixed-point-free, bounded indegree, iterate-periodic, ...) via three
independent routes: closed formulas over r-Stirling differences, exact
coefficient recursions for two-sort counting series, and a brute-force
enumeration oracle that verifies every number at desk scale.
"""

__version__ = "0.1.0"
