"""recdig: exact enumeration of recurrent functional digraphs.

Counts endofunctions and Cayley permutations of [n] whose functional
digraphs satisfy structural constraints (trees, forests, connected,
fixed-point-free, bounded indegree, iterate-periodic, ...) via three
independent routes: closed formulas over r-Stirling differences, exact
coefficient recursions for two-sort counting series, and a brute-force
enumeration oracle that verifies every number at desk scale.
"""

__version__ = "0.1.0"

# Each public name resolves, on first use, from the module that defines it,
# so that importing one submodule (recdig.oracle, recdig.cli) loads none of
# the others.
_HOMES = {
    "CoeffSeq": "recdig.series",
    "CoeffTable": "recdig.tables",
    "atom": "recdig.series",
    "compose_table": "recdig.tables",
    "r_stirling": "recdig.stirling",
    "rooted_tree_table": "recdig.tables",
    "sdiff": "recdig.stirling",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module 'recdig' has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(_HOMES[name]), name)
    return value
