"""Per-position and per-candidate forms of the `shiftlab.sets` kernels: the
references the member-start Banach density, the candidate-mask IP search and
the run lengths of `classify` are checked against. All read `contains` one
integer at a time, so tests run them at small horizons and bounds."""

import math
from fractions import Fraction

from shiftlab.sets import IP_MAX_SIZE


def reference_banach(A, H, min_window):
    """The max over doubling window lengths L >= min(min_window, H) and every
    start s of the window density Fraction(|A cap (s, s+L]|, L), one
    Fraction per start."""
    best = Fraction(0)
    L = min(min_window, H)
    while L <= H:
        for s in range(H - L + 1):
            best = max(best, Fraction(sum(1 for i in range(s + 1, s + L + 1) if A.contains(i)), L))
        L *= 2
    return best


def reference_runs(A, H):
    """(thick_run, max_gap) from the list of members of A cap [1, H]: the
    longest run of consecutive members, and the largest of the first member,
    the differences of consecutive members and H + 1 less the last member,
    None when there is no member."""
    members = [i for i in range(1, H + 1) if A.contains(i)]
    best = run = 0
    for prev, m in zip([None] + members, members):
        run = run + 1 if m - 1 == prev else 1
        best = max(best, run)
    if not members:
        return best, None
    gaps = [members[0]] + [b - a for a, b in zip(members, members[1:])] + [H + 1 - members[-1]]
    return best, max(gaps)


def frozenset_ip_reference(A, bound, node_cap):
    """(S, capped) of a recursive search over frozensets of finite sums, one
    node per candidate looked at: each frame tries the members of
    A cap [1, bound] in ascending order past its last element, stops at the
    first c with c + max(sums) > bound (charging it), and returns at the
    first node past node_cap or once some S has IP_MAX_SIZE elements."""
    best, nodes = _ip_search(A, bound, node_cap)
    return best, nodes > node_cap


def ip_nodes(A, bound):
    """The nodes frozenset_ip_reference charges with no cap: the least
    node_cap under which it is not capped."""
    return _ip_search(A, bound, math.inf)[1]


def _ip_search(A, bound, node_cap):
    candidates = [i for i in range(1, bound + 1) if A.contains(i)]
    best = []
    nodes = 0

    def rec(start, chosen, sums):
        nonlocal best, nodes
        if len(chosen) > len(best):
            best = list(chosen)
        top = max(sums) if sums else 0
        for j in range(start, len(candidates)):
            nodes += 1
            if nodes > node_cap or len(best) >= IP_MAX_SIZE:
                return
            c = candidates[j]
            if sums and c + top > bound:
                break
            new_sums = {c} | {c + t for t in sums}
            if any(s > bound or not A.contains(s) for s in new_sums):
                continue
            chosen.append(c)
            rec(j + 1, chosen, sums | new_sums)
            chosen.pop()

    rec(0, [], frozenset())
    return tuple(best), nodes

