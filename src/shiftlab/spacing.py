"""Spacing shifts: binary subshifts where all distances between 1s lie in a
parameter set P, so the language is hereditary by construction.

Each PSetSpec builds its spec once, around one transition(state, a). The
state is an int whose bit d-1 is set when a 1 sits d places back, and a 1
is admissible exactly when the state misses the excluded mask,
PSetSpec.excluded_mask: bit d-1 set when d is not in P, the one place that
shifts the layout of P's ``mask(H)`` (bit d set when d is in P) by one.
The excluded mask grows lazily as longer words ask for it, and with it
pmask, the candidates after a lone 1 in P's own layout.

Only the engine depends on P. When N \\ P is finite with largest element
w <= WINDOWED_DP_MAX_WINDOW, the state is cut to its last w bits and the
transition is handed over, so lambda_k and D_k come from the automaton DPs
over at most 2**w states. Otherwise the transition is the step, and
lambda_k and D_k come from langkit's follower walk over candidate masks: a
key T has bit u set when a 1 placed u past a word's last 1 is still
admissible and inside the word, the root after a 1 at position 1 of a
length-k word is pmask cut to bits 1..k-1, and the follower after a next 1
at offset t is (T >> t) & pmask, since T already cleared what the earlier
1s exclude. The sum fold gives lambda_k (count_spacing) and the max fold
D_k and the lexicographically first densest word, each from one memo on
the spec that serves every word and every k. Either way the spec keeps the
columns and memos, so a K-row column costs one counting pass.

The word test reads a whole word as one int W and decides it from the
definition: no two 1s sit an excluded distance apart. It loops over
whichever is fewer, the 1s of W (testing (W >> (q+1)) & excluded) or the
excluded d (testing W & (W >> d)), so langkit's brute force checks the
engines against the definition rather than against the transition.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Record, set_field
from .errors import PreconditionError
from .langkit import (
    DEFAULT_NODE_CAP,
    SubshiftSpec,
    count_language,
    entropy_estimates,
    follower_count,
    follower_max,
)
from .sets import _BITS_ASCII, ComplementSet, difference_set, largest_delta_subset

WINDOWED_DP_MAX_WINDOW = 24
# the Delta* check reads A - A past its horizon H over at most max(H, this)
# more places, and from A cap [1, H] alone when A's period takes more
EXACT_DIFFERENCE_SPAN = 4096


class PSetSpec(Record):
    """The parameter P of a spacing shift; membership decidable to any horizon."""

    __slots__ = ("base", "_shift")

    def __init__(self, base):
        set_field(self, "base", base)
        # [the langkit spec of Omega_P, its follower walk(k) -> (root,
        # followers)], built once by spacing_shift
        set_field(self, "_shift", [])

    def excluded_mask(self, horizon):
        """The int whose bit d-1 is set exactly when d <= horizon is not in P."""
        return ((1 << horizon) - 1) & ~(self.base.mask(horizon) >> 1)

    def excluded_max(self):
        """Largest element of N \\ P when that set is provably finite, else None."""
        ep = self.base.eventually_periodic()
        if ep is None:
            return None
        pre, per = ep
        if not all(per):
            return None
        return max((i + 1 for i, b in enumerate(pre) if not b), default=0)

    def __str__(self):
        return str(self.base)


def count_spacing(P, k, node_cap=DEFAULT_NODE_CAP):
    """lambda_k for Omega_P, exact, resuming the column on P's spec: by the
    automaton DP when N \\ P is finite and small, else by the follower walk
    over candidate masks (see spacing_shift) with the sum fold: one memo, the
    spec's, serves every k, and langkit's follower_count sums lambda_j =
    lambda_(j-1) + f(root(j)). node_cap bounds the DP's states or the
    (T, t) lookups of this call; a trip leaves the column and the memo
    valid."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    spacing_shift(P)
    spec, walk = P._shift
    if spec.engine == "automaton_dp":
        return count_language(spec, k, node_cap=node_cap)
    return follower_count(spec._column, spec._memo, k, *walk(k), node_cap)


def spacing_shift(P):
    """The langkit spec for Omega_P, built once per PSetSpec around one
    transition: a 1 is refused when the relative 1-mask meets the excluded
    mask, which grows when the state outruns it. With N \\ P finite and
    small the state is cut to the window and the transition handed over
    (automaton DP); otherwise it is the step, and lambda_k (count_spacing)
    and D_k come from one follower walk over candidate masks."""
    if P._shift:
        return P._shift[0]
    excluded = covered = pmask = 0

    def excluded_upto(h):
        # the excluded mask exact to at least h, grown at least twofold, and
        # with it pmask: bit d set when d <= covered is in P
        nonlocal excluded, covered, pmask
        if h > covered:
            covered = 2 * h
            excluded = P.excluded_mask(covered)
            pmask = (~excluded & ((1 << covered) - 1)) << 1
        return excluded

    def transition(state, a):
        if not a:
            return True, state << 1
        if state.bit_length() > covered:
            excluded_upto(state.bit_length())
        if state & excluded:
            return False, state
        return True, (state << 1) | 1

    def root(j):
        # the offsets 1..j-1 after a 1 at position 1 of a length-j word
        return pmask & ((1 << j) - 1)

    def followers(T):
        # (t, the mask after a 1 at offset t) for each t in T: bit u stays
        # when u is in P, since T already cleared what the earlier 1s exclude
        rest = T
        while rest:
            low = rest & -rest
            rest ^= low
            t = low.bit_length() - 1
            yield t, T >> t & pmask

    def walk(k):
        # root and followers with pmask exact past every key of length <= k
        excluded_upto(k)
        return root, followers

    def position_count(k, node_cap):
        return count_spacing(P, k, node_cap=node_cap)

    def position_max(k, node_cap):
        return follower_max(spec._max_memo, k, *walk(k), node_cap)

    def word_test(b):
        # W: the word as one int, its first symbol the top bit, so a pair of
        # 1s d places apart is a pair of set bits d apart
        ones = b.count(1)
        if ones < 2:
            return True
        W, h = int(b.translate(_BITS_ASCII), 2), len(b) - 1
        ex = excluded_upto(h) & ((1 << h) - 1)
        if ones <= ex.bit_count():
            rest = W
            while rest:  # over the 1s: bit d-1 of W >> (q+1) is a 1 d above bit q
                low = rest & -rest
                if W >> low.bit_length() & ex:
                    return False
                rest ^= low
        else:
            while ex:    # over the excluded d: W & (W >> d) is a pair d apart
                low = ex & -ex
                if W & (W >> low.bit_length()):
                    return False
                ex ^= low
        return True

    common = dict(n=2, family="spacing", label="spacing:P=%s" % P, start_state=0,
                  word_test=word_test)
    w = P.excluded_max()
    if w is not None and w <= WINDOWED_DP_MAX_WINDOW:
        window = (1 << w) - 1  # every excluded difference is at most w

        def windowed(state, a):
            ok, state = transition(state, a)
            return ok, state & window

        spec = SubshiftSpec(transition=windowed, **common)
    else:
        spec = SubshiftSpec(transition=transition, position_count=position_count,
                            position_max=position_max, **common)
    P._shift.extend((spec, walk))
    return spec


def recurrence_entropy_probe(R, k_max, node_cap=DEFAULT_NODE_CAP):
    """Entropy-side evidence for R as a recurrence set: h_k upper bounds for
    Omega_{N \\ R} (R is a recurrence set iff that entropy is zero)."""
    P = PSetSpec(ComplementSet(R))
    spec = spacing_shift(P)
    return entropy_estimates(spec, k_max, node_cap=node_cap)


def delta_star_bound_check(A, k, H, node_cap=DEFAULT_NODE_CAP):
    """(holds, B, exact, capped): whether every k-element set in [1, H] has a
    positive difference in A - A, the pigeonhole lemma's conclusion under its
    precondition, a density estimate of A on [1, H] above 1/k. A set's
    differences miss A - A exactly when it is a Delta-set of N \\ (A - A), so
    the bound holds exactly when B, a largest one in [1, H], has fewer than k
    elements, and B[:k] is a counterexample otherwise.

    For eventually periodic A (preperiod L, period p) the differences below H
    are read exactly: one between members past L + p recurs p places lower,
    so the members up to H + L + p give them all. That read is taken while
    L + p <= max(H, EXACT_DIFFERENCE_SPAN), so its cost follows H and not the
    size of A's description. Otherwise they are read from A cap [1, H], a
    subset, which leaves a pass exact but not a counterexample. When the
    walk stops at node_cap, capped is set and B is the greedy dive, a
    counterexample only if it reaches k elements."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if H < 1:
        raise PreconditionError("horizon must be >= 1")
    count = A.bits(H).count(1)
    if count * k <= H:
        raise PreconditionError("density estimate %s <= 1/%d; the bound's precondition fails"
                                % (Fraction(count, H), k))
    if k > H:
        raise PreconditionError("no %d-element set fits in [1, %d]" % (k, H))
    shape = A.periodic_shape()
    exact = shape is not None and sum(shape) <= max(H, EXACT_DIFFERENCE_SPAN)
    D = difference_set(A, H + sum(shape) if exact else H)
    B, capped = largest_delta_subset(ComplementSet(D), H, node_cap)
    if len(B) < k:
        return True, B, not capped, capped
    return False, B, exact, capped

