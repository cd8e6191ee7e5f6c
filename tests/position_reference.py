"""The position search run on definition-level narrowing steps: the reference
the follower walks of the position families (lambda_k from position_count,
D_k and its witness from position_max) are checked against.

A narrowing step ``narrow(chosen, rest)`` keeps, of the candidate mask
``rest`` (bit q set while position q is a candidate), the positions still
admissible after the 1s in ``chosen``. The steps here read the family's
definition for every chosen 1. The search visits every admissible 1-position
set, so its cost grows with lambda_k; tests run it on small k and keep its
columns apart from the spec's."""

from shiftlab.langkit import DEFAULT_NODE_CAP, extend_column
from shiftlab.sets import position_search


def spacing_narrow(P):
    """The definition-level narrowing step of Omega_P: q stays when q - p
    lies in P for every chosen 1 at p."""
    def narrow(chosen, rest):
        return sum(1 << q for q in positions(rest)
                   if all(P.contains(q - p) for p in chosen))
    return narrow


def counting_narrow(chosen, rest):
    """The counting shift's narrowing step from its window rule, a window
    of length in (2**(j-1), 2**j] holds at most j 1s: q stays when, for
    every chosen 1 at p, the window from p to q does (the other windows
    through q hold no more 1s for a length no shorter)."""
    return sum(1 << q for q in positions(rest)
               if all(len(chosen) - i + 1 <= _window_cap(q - p + 1)
                      for i, p in enumerate(chosen)))


def _window_cap(length):
    # the j with length in (2**(j-1), 2**j], for a window of length >= 2
    j = 1
    while 1 << j < length:
        j += 1
    return j


def positions(mask):
    """The set bits of a candidate mask, ascending."""
    return [q for q in range(mask.bit_length()) if mask >> q & 1]


def count_positions(narrow, k, column=None, node_cap=DEFAULT_NODE_CAP):
    """lambda_k of a binary hereditary family from the position search on
    ``narrow``, resuming ``column`` (a list of its own): lambda_j =
    lambda_(j-1) + the number of admissible 1-position sets in [1, j]
    through 1. node_cap bounds the nodes this call expands."""
    column, budget = [] if column is None else column, node_cap

    def next_lambda(j):
        nonlocal budget
        # the candidates 2..j after a 1 at position 1
        nodes, _ = position_search(narrow, [1], narrow([1], (1 << (j + 1)) - 4), budget)
        budget -= nodes
        return (column[-1] if column else 1) + 1 + nodes

    return extend_column(column, k, next_lambda)


def max_ones(narrow, k, column=None, node_cap=DEFAULT_NODE_CAP):
    """The 1-positions of the lexicographically first word of L_k with D_k
    1s, from the position search on ``narrow`` cut by the suffix bound
    D_(k-q), resuming ``column`` (witnesses; D_j is the length of entry j).
    node_cap bounds the nodes this call expands."""
    column, budget = [] if column is None else column, node_cap

    def next_witness(j):
        nonlocal budget
        nodes, best = position_search(
            narrow, [], (1 << (j + 1)) - 2, budget,
            lambda q: len(column[j - q - 1]) if q < j else 0)
        budget -= nodes
        return best

    return extend_column(column, k, next_witness)
