"""The position-search lambda column: the reference the memoised
position_count entries of the branch-and-bound families are checked against.

It visits every admissible 1-position set, so its cost grows with lambda_k;
tests run it on small k and on a spec of its own."""

from shiftlab.langkit import DEFAULT_NODE_CAP, extend_column, position_search


def count_positions(spec, k, node_cap=DEFAULT_NODE_CAP):
    """lambda_k of a binary hereditary family from the position search,
    resuming a column of its own on the spec: lambda_j = lambda_(j-1) + the
    number of admissible 1-position sets in [1, j] through 1 (see the
    langkit module docstring). node_cap bounds the nodes this call expands."""
    column, budget = spec.__dict__.setdefault("_position_column", []), node_cap

    def next_lambda(j):
        nonlocal budget
        # the candidates 2..j after a 1 at position 1
        nodes, _ = position_search(spec._narrow, [1],
                                   spec._narrow([1], (1 << (j + 1)) - 4), budget)
        budget -= nodes
        return (column[-1] if column else 1) + 1 + nodes

    return extend_column(column, k, next_lambda)
