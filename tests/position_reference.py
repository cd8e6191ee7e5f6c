"""The position search run on definition-level narrowing steps: the reference
the follower walks of the position families (lambda_k from position_count,
D_k and its witness from position_max) and the Delta-set witness of
sets.largest_delta_subset are checked against.

A narrowing step ``narrow(chosen, rest)`` keeps, of the candidate mask
``rest`` (bit q set while position q is a candidate), the positions still
admissible after the 1s in ``chosen``. The steps here read the family's
definition for every chosen 1. The search visits every admissible 1-position
set, so its cost grows with lambda_k; tests run it on small k and keep its
columns apart from the spec's. brute_force_delta_sizes, the largest Delta-set
over every subset of a short horizon, is the exact reference of both."""

from itertools import accumulate

from shiftlab.errors import ResourceCapExceeded
from shiftlab.langkit import DEFAULT_NODE_CAP, extend_column


def position_search(narrow, chosen, cands, node_cap, bound=None):
    """Explicit-stack depth-first walk over the admissible extensions of the
    1-positions ``chosen`` (next candidates ``cands``, an int mask with bit q
    set when q is a candidate): each node adds one candidate q, in ascending
    order, and narrows the candidates above it. Returns (nodes visited, the
    first largest set seen). ``bound(q)``, an upper bound on the 1s after a
    1 at q that does not grow with q, cuts (with the candidates left in the
    level) the branches that cannot beat that set. A node_cap trip leaves
    that set in ResourceCapExceeded.partial."""
    chosen = list(chosen)
    best, nodes = tuple(chosen), 0
    stack = []  # the candidates each open ancestor level has left
    m = cands
    while True:
        while m:
            low = m & -m
            m ^= low
            nodes += 1
            if nodes > node_cap:
                e = ResourceCapExceeded("position search exceeded %d nodes" % node_cap)
                e.partial = best
                raise e
            q = low.bit_length() - 1
            if bound is not None:
                need = len(best) - len(chosen)  # the 1s a branch must add to win
                if m.bit_count() < need or bound(q) < need:
                    # a later q only lowers both bounds: close this level
                    break
            chosen.append(q)
            if len(chosen) > len(best):
                best = tuple(chosen)
            rest = narrow(chosen, m) if m else 0
            if rest:
                stack.append(m)
                m = rest
            else:
                chosen.pop()
        if not stack:
            return nodes, best
        m = stack.pop()
        chosen.pop()


def spacing_narrow(P):
    """The definition-level narrowing step of Omega_P: q stays when q - p
    lies in P for every chosen 1 at p."""
    def narrow(chosen, rest):
        return sum(1 << q for q in positions(rest)
                   if all(P.base.contains(q - p) for p in chosen))
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


def delta_search(A, H, node_cap=DEFAULT_NODE_CAP):
    """(the first largest D in [1, H] with D - D inside A, whether the search
    stopped at node_cap) from the position search in ascending order, cut
    by the H - q places left after a 1 at q: a 1 at p keeps the candidates
    in A's mask << p. A trip gives the best set found so far."""
    a_mask = A.mask(H)

    def narrow(chosen, rest):
        return rest & (a_mask << chosen[-1])

    try:
        return position_search(narrow, [], (1 << (H + 1)) - 2, node_cap,
                               lambda q: H - q)[1], False
    except ResourceCapExceeded as e:
        return e.partial, True


def brute_force_delta_sizes(A, H):
    """max |D| over every D subset of [1, j] with D - D inside A, for j =
    0..H: subsets enumerated as bitmasks (bit i for i in D), each checked
    from its top element t, whose differences t - i to the rest must lie in
    A, and the rest, checked before it."""
    ok = [sum(1 << i for i in range(1, t) if A.contains(t - i)) for t in range(H + 1)]
    valid, best = {0: True}, [0] * (H + 1)
    for mask in range(2, 2 << H, 2):
        t = mask.bit_length() - 1
        rest = mask ^ (1 << t)
        valid[mask] = valid[rest] and rest & ~ok[t] == 0
        if valid[mask]:
            best[t] = max(best[t], mask.bit_count())
    return list(accumulate(best, max))
