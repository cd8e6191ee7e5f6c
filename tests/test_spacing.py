import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.core import word
from shiftlab.errors import PreconditionError, ResourceCapExceeded
from shiftlab.langkit import (
    contains_word,
    count_language,
    hereditary_check,
    max_density_word,
    max_symbol_count,
    max_symbol_witness,
)
from shiftlab.sets import (
    EVENS,
    ODDS,
    ComplementSet,
    FiniteSet,
    IntSetSpec,
    PeriodicSet,
    Pow2DiffSet,
    difference_set,
    largest_delta_subset,
    parse_set_expr,
)
from shiftlab.spacing import (
    EXACT_DIFFERENCE_SPAN,
    WINDOWED_DP_MAX_WINDOW,
    PSetSpec,
    count_spacing,
    delta_star_bound_check,
    recurrence_entropy_probe,
    spacing_shift,
)

from position_reference import count_positions, max_ones, positions, spacing_narrow
from spacing_reference import admissible

NATURALS = PeriodicSet((), (1,))
GOLDEN_P = PSetSpec(ComplementSet(FiniteSet(frozenset({1}))))
EVENS_P = PSetSpec(EVENS)
FULL_P = PSetSpec(NATURALS)


class _Unperiodic(IntSetSpec):
    """P with its eventual periodicity hidden, so that spacing_shift gives
    lambda_k and D_k of Omega_P by the follower walk over candidate masks,
    even where N \\ P is finite."""

    def __init__(self, base):
        self.base = base

    def contains(self, i):
        return self.base.contains(i)

    def bits(self, H):
        return self.base.bits(H)

    def to_expr(self):
        return "unperiodic(%s)" % self.base


def test_excluded_max():
    assert GOLDEN_P.excluded_max() == 1
    assert FULL_P.excluded_max() == 0
    assert EVENS_P.excluded_max() is None   # N \ P is infinite (all odds)
    assert PSetSpec(Pow2DiffSet()).excluded_max() is None


def test_admissible():
    assert admissible(EVENS_P, word("10100"))     # gaps 2
    assert not admissible(EVENS_P, word("110"))
    assert admissible(GOLDEN_P, word("1010"))
    assert not admissible(GOLDEN_P, word("11"))
    with pytest.raises(PreconditionError):
        admissible(EVENS_P, word("102", n=3))


def test_fibonacci_counts():
    # P = N \ {1}: no adjacent 1s, lambda_k is the Fibonacci recurrence
    counts = [count_spacing(GOLDEN_P, k) for k in range(1, 11)]
    assert counts == [2, 3, 5, 8, 13, 21, 34, 55, 89, 144]


def test_full_spacing_counts():
    assert count_spacing(FULL_P, 10) == 1024


def test_evens_frozen_counts():
    # all pairwise gaps even: 1s confined to one parity class
    # lambda_k = 2**ceil(k/2) + 2**floor(k/2) - 1
    counts = [count_spacing(EVENS_P, k) for k in range(1, 9)]
    assert counts == [2, 3, 5, 7, 11, 15, 23, 31]


def test_strategies_agree():
    P = PSetSpec(parse_set_expr("complement:(finite:{1,3,7,12})"))
    spec = spacing_shift(P)
    assert spec.engine == "automaton_dp"
    for k in range(1, 31):
        assert count_spacing(P, k) == count_language(spec, k)
    # hiding the period puts the same P on the candidate-mask count, and the
    # position search on its definition stays a third engine to check against
    searched = PSetSpec(_Unperiodic(P.base))
    assert spacing_shift(searched).engine == "branch_and_bound"
    narrow, column = spacing_narrow(P), []
    for k in range(1, 19):
        assert count_spacing(P, k) == count_spacing(searched, k) == \
            count_positions(narrow, k, column)


def test_windowed_dp_needs_finite_excluded():
    # the automaton needs N \ P finite and at most WINDOWED_DP_MAX_WINDOW
    w = WINDOWED_DP_MAX_WINDOW
    assert spacing_shift(PSetSpec(parse_set_expr("complement:(finite:{%d})" % w))) \
        .engine == "automaton_dp"
    wide = PSetSpec(parse_set_expr("complement:(finite:{2,%d})" % (w + 1)))
    assert spacing_shift(wide).engine == "branch_and_bound"
    assert spacing_shift(EVENS_P).engine == "branch_and_bound"
    for k in range(1, 11):
        assert count_spacing(wide, k) == count_language(spacing_shift(wide), k,
                                                        strategy="brute_force")
    with pytest.raises(TypeError):
        count_spacing(GOLDEN_P, 5, strategy="windowed_dp")


def test_spacing_shift_spec():
    spec = spacing_shift(GOLDEN_P)
    assert spec.engine == "automaton_dp"
    assert contains_word(spec, "1010") and not contains_word(spec, "11")
    assert count_language(spec, 10) == 144
    spec_e = spacing_shift(EVENS_P)
    assert spec_e.engine == "branch_and_bound"
    assert contains_word(spec_e, "10100") and not contains_word(spec_e, "1100")


def test_spacing_hereditary():
    for P in [GOLDEN_P, EVENS_P]:
        ok, _ = hereditary_check(spacing_shift(P), 10)
        assert ok


def _gap_words_match(P, H):
    """N([1]_P, [1]_P) = P up to H on P's acceptor: the gap word 1 0^(m-1) 1
    is in its language exactly for m in P."""
    spec = spacing_shift(P)
    return all(spec.accepts((1,) + (0,) * (m - 1) + (1,)) == P.base.contains(m)
               for m in range(1, H + 1))


def test_transition_set_check():
    assert _gap_words_match(GOLDEN_P, 40)
    assert _gap_words_match(EVENS_P, 40)
    assert _gap_words_match(PSetSpec(Pow2DiffSet()), 64)


class _DroppedThree(PSetSpec):
    """P whose excluded mask has lost the difference 3."""

    def excluded_mask(self, horizon):
        return super().excluded_mask(horizon) & ~(1 << 2)


@pytest.mark.parametrize("text", ["evens", "complement:(finite:{1,3})"])
def test_transition_set_check_reads_the_acceptor(text):
    # 3 is not in P, but the acceptor's mask lets 1001 through (on the
    # windowed state graph and on the uncut mask alike)
    assert _gap_words_match(PSetSpec(parse_set_expr(text)), 40)
    assert not _gap_words_match(_DroppedThree(parse_set_expr(text)), 40)


def test_recurrence_probe_naturals():
    # R = N: the complement spacing shift allows at most one 1 per word
    rep = recurrence_entropy_probe(NATURALS, 12)
    assert [r.lam for r in rep.rows] == [k + 1 for k in range(1, 13)]


def test_recurrence_probe_odds():
    # R = odds: complement is the evens spacing shift, entropy >= 1/2
    rep = recurrence_entropy_probe(ODDS, 14)
    for r in rep.rows:
        assert r.lam >= 2 ** ((r.k + 1) // 2)
        assert r.h_k >= 0.5 - 1e-12


def test_delta_star_bound_check_passes():
    # B - B misses evens only for B of one odd and one even element
    holds, B, exact, capped = delta_star_bound_check(EVENS, 3, 512)
    assert holds and exact and not capped and B == (1, 2)


def test_delta_star_precondition():
    # density 1/2 with k = 2: beta * k = 1, the pigeonhole hypothesis fails
    with pytest.raises(PreconditionError):
        delta_star_bound_check(EVENS, 2, 512)


@pytest.mark.parametrize("k", [0, -3])
def test_delta_star_rejects_k_below_one(k):
    # checked first: the density condition beta > 1/k needs k >= 1
    with pytest.raises(PreconditionError, match="k must be >= 1"):
        delta_star_bound_check(EVENS, k, 512)


def test_delta_star_deterministic():
    a = delta_star_bound_check(EVENS, 3, 256)
    b = delta_star_bound_check(EVENS, 3, 256)
    assert a == b


def test_delta_star_counterexample_for_sparse_violator():
    # A = {1, 2}: A - A = {1}, which B = {1, 3} misses. The density
    # precondition still holds at a small horizon, and a finite A is read
    # exactly; the same members as a window leave the set past 3 unknown.
    A = FiniteSet(frozenset({1, 2}))
    assert delta_star_bound_check(A, 2, 3) == (False, (1, 3), True, False)
    assert delta_star_bound_check(parse_set_expr("window:11"), 2, 3) == \
        (False, (1, 3), False, False)


def test_delta_star_reads_differences_past_the_horizon():
    # A = 1, 4 mod 7: A - A is every d > 0 that is 0, 3 or 4 mod 7; a B missing it
    # has at most 3 elements; read from A cap [1, 300] alone, 298 = 302 - 4
    # is missing and (1, 2, 7, 300) would pass for a counterexample
    holds, B, exact, capped = delta_star_bound_check(
        parse_set_expr("periodic:;1001000"), 4, 300)
    assert holds and exact and not capped and len(B) == 3


def test_delta_star_reads_past_the_horizon_within_a_span():
    # the read past H stops at EXACT_DIFFERENCE_SPAN more places, so its cost
    # follows H and not A's description: beyond it the differences come from
    # A cap [1, H] and a counterexample is not exact
    span = EXACT_DIFFERENCE_SPAN
    for top, exact in ((span - 1, True), (span, False)):
        A = FiniteSet(frozenset({1, 2, top}))
        assert delta_star_bound_check(A, 2, 3) == (False, (1, 3), exact, False), top
    # six prime periods, lcm 7 436 429: a pass stays exact
    A = parse_set_expr("union:(%s)" % "|".join(
        "periodic:;" + "0" * (p - 1) + "1" for p in (7, 11, 13, 17, 19, 23)))
    holds, B, exact, capped = delta_star_bound_check(A, 40, 512)
    assert holds and exact and not capped and len(B) == 2


def test_delta_star_under_a_tripped_walk():
    # the greedy dive stays a B whose differences miss A - A: shorter than
    # k it settles nothing, reaching k its first k elements are a
    # counterexample, exact for a finite A
    assert delta_star_bound_check(EVENS, 3, 512, node_cap=5) == (True, (1, 2), False, True)
    A = parse_set_expr("finite:{1,11,12,13,14}")
    assert delta_star_bound_check(A, 3, 14, node_cap=5) == (False, (1, 5, 9), True, True)
    assert delta_star_bound_check(A, 3, 14) == (False, (1, 5, 9), True, False)


def test_difference_subset_witness_evens():
    # a B with B - B inside (A - A) cap [1, H] is a Delta-set of it
    AA = difference_set(EVENS, 128)
    B, capped = largest_delta_subset(AA, 128)
    assert len(B) == 64 and not capped
    diffs = {b - a for i, a in enumerate(B) for b in B[i + 1:]}
    assert all(AA.contains(d) for d in diffs)
    # (B - B) must sit inside (A - A) = evens
    assert all(d % 2 == 0 for d in diffs)


def test_deep_difference_subset_witness_without_recursion():
    # max_density_word recursed once per symbol and overflowed near H = 1000
    spec = spacing_shift(PSetSpec(difference_set(EVENS, 1200)))
    w, value = max_density_word(spec, 1, 1200, require_target=False)
    assert value == Fraction(1, 2) and len(w) == 1200
    assert contains_word(spec, w)


@pytest.mark.parametrize("A,H,size", [
    (EVENS, 1200, 600),
    (parse_set_expr("periodic:;0111011"), 512, 510),
])
def test_difference_subset_witness_sizes(A, H, size):
    B, capped = largest_delta_subset(difference_set(A, H), H)
    assert len(B) == size and not capped


@settings(max_examples=15)
@given(st.sets(st.integers(1, 6), max_size=4))
def test_count_matches_brute_force_random_P(excluded):
    P = PSetSpec(ComplementSet(FiniteSet(frozenset(excluded))))
    spec = spacing_shift(P)
    for k in range(1, 9):
        assert count_language(spec, k) == count_language(spec, k, strategy="brute_force")


@settings(max_examples=15)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple))
def test_periodic_P_strategies(per):
    P = PSetSpec(PeriodicSet((), per))
    spec = spacing_shift(P)
    for k in range(1, 8):
        assert count_language(spec, k) == count_language(spec, k, strategy="brute_force")


@settings(max_examples=10)
@given(st.sets(st.integers(1, 6), max_size=3), st.integers(1, 8))
def test_spacing_language_hereditary_property(excluded, k):
    P = PSetSpec(ComplementSet(FiniteSet(frozenset(excluded))))
    ok, _ = hereditary_check(spacing_shift(P), k)
    assert ok


def _span(lo, hi):
    """The candidate mask of lo, ..., hi - 1."""
    return (1 << hi) - (1 << lo)


def _seeded_window_bits():
    rng = random.Random(29)
    return "".join(rng.choice("0111") for _ in range(40))


@pytest.mark.parametrize("text", [
    "evens", "periodic:;0111011", "complement:(finite:{1,3,7,12})", "pow2diff",
    "window:" + _seeded_window_bits(),
])
def test_position_search_reads_the_excluded_mask(text):
    # hiding the period puts every P, the finite-excluded one too, on the
    # branch-and-bound engine, whose follower walk reads the excluded mask
    P = PSetSpec(_Unperiodic(parse_set_expr(text)))
    spec = spacing_shift(P)
    assert spec.engine == "branch_and_bound"
    ref = spacing_narrow(P)
    rng = random.Random(text)
    for _ in range(200):
        # an admissible 1-set of a length-k word from position 1 on: the key
        # after its last 1 at p is the mask of the offsets still admissible
        # inside the word, and each follower is the key after one more 1
        k = rng.randint(2, 60)
        root, followers = P._shift[1](k)
        chosen = [1]
        assert root(k) == ref(chosen, _span(2, k + 1)) >> 1
        for _ in range(rng.randint(1, 6)):
            p = chosen[-1]
            key = ref(chosen, _span(p + 1, k + 1)) >> p
            want = [(q - p, ref(chosen + [q], _span(q + 1, k + 1)) >> q)
                    for q in positions(key << p)]
            assert list(followers(key)) == want
            if not want:
                break
            chosen.append(p + rng.choice(want)[0])
    # the spec's columns against the position search on the definition, cut
    # by the suffix bound for D_k: the same lambda_k, D_k and first witness
    lams, wits = [], []
    for k in range(1, 31):
        assert count_language(spec, k) == count_positions(ref, k, lams)
        ones = max_ones(ref, k, wits)
        assert max_symbol_count(spec, 1, k) == len(ones)
        assert max_symbol_witness(spec, 1, k).symbols == \
            tuple(int(q in ones) for q in range(1, k + 1))


# -- the candidate-mask count --------------------------------------------------

def _perfbench_periodic_pool():
    """The seeded spacing parameters of the lang-columns benchmark workload,
    each with the kmax its entropy column is run to."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.PERIODIC_POOL


def _seeded_window(seed, length=48):
    rng = random.Random(seed)
    return "window:" + "".join(rng.choice("0111") for _ in range(length))


MASK_COUNT_SETS = (
    "evens", "odds", "pow2diff", "factorial_blocks",
    _seeded_window(3), _seeded_window(17),
    "union:(%s|periodic:;001)" % _seeded_window(5, 24), "union:(pow2diff|periodic:;00001)",
    "complement:(complement:(evens))",
    "complement:(union:(odds|complement:(pow2diff)))",
    # cofinite, but the largest excluded difference is past the windowed DP
    "complement:(finite:{2,%d})" % (WINDOWED_DP_MAX_WINDOW + 1),
    "complement:(finite:{1,3,%d})" % (WINDOWED_DP_MAX_WINDOW + 6),
)


def _check_mask_count(text, kmax, brute_kmax):
    P = PSetSpec(parse_set_expr(text))
    assert spacing_shift(P).engine == "branch_and_bound", text
    got = [count_spacing(P, k) for k in range(1, kmax + 1)]
    # the position search on P's definition, with a column of its own
    narrow, column = spacing_narrow(P), []
    assert got == [count_positions(narrow, k, column) for k in range(1, kmax + 1)], text
    brute = spacing_shift(PSetSpec(parse_set_expr(text)))
    assert got[:brute_kmax] == [count_language(brute, k, strategy="brute_force")
                                for k in range(1, brute_kmax + 1)], text


@pytest.mark.parametrize("text", MASK_COUNT_SETS)
def test_mask_count_matches_position_search_and_brute_force(text):
    _check_mask_count(text, 24, 16)


@pytest.mark.parametrize("per,kmax", _perfbench_periodic_pool())
def test_mask_count_on_the_benchmark_periodic_pool(per, kmax):
    _check_mask_count("periodic:;" + per, kmax, 12)


def test_mask_count_resumes_after_a_cap_trip():
    fresh = PSetSpec(EVENS)
    assert count_spacing(fresh, 60) == 2 ** 31 - 1
    P = PSetSpec(EVENS)
    with pytest.raises(ResourceCapExceeded):
        count_spacing(P, 60, node_cap=200)
    spec = spacing_shift(P)
    memo, fresh_memo = spec._memo, spacing_shift(fresh)._memo
    assert 0 < len(spec._column) < 60
    assert spec._column == spacing_shift(fresh)._column[:len(spec._column)]
    # every memo entry kept through the trip is f(T), so a fresh count agrees
    assert len(memo) > 1 and all(fresh_memo[T] == v for T, v in memo.items())
    # the lookups already made are not made again: the rest of the column
    # fits in a cap that a fresh count of it trips
    with pytest.raises(ResourceCapExceeded):
        count_spacing(PSetSpec(EVENS), 60, node_cap=250)
    assert count_spacing(P, 60, node_cap=250) == 2 ** 31 - 1
    assert spec._column == spacing_shift(fresh)._column


def test_mask_count_work_is_memoised():
    # lambda_60 = 2**31 - 1: a count that visits each admissible 1-set, as the
    # position search does, needs about 2**31 nodes; the memo needs 435
    assert count_spacing(PSetSpec(EVENS), 60, node_cap=1000) == 2 ** 31 - 1
    assert count_spacing(PSetSpec(ODDS), 200, node_cap=10 ** 4) == \
        count_positions(spacing_narrow(PSetSpec(ODDS)), 200)


@pytest.mark.parametrize("base", [
    EVENS, ODDS, PeriodicSet((), (0, 1, 1, 1, 0, 1, 1)), _Unperiodic(EVENS),
    ComplementSet(FiniteSet(frozenset({1, 3, 12}))),
], ids=["evens", "odds", "periodic", "unperiodic", "windowed"])
def test_count_spacing_matches_the_spec_count_and_brute_force(base):
    want = [count_spacing(PSetSpec(base), k) for k in range(1, 31)]
    spec = spacing_shift(PSetSpec(base))
    assert [count_language(spec, k) for k in range(1, 31)] == want
    assert want[:12] == [count_language(spec, k, strategy="brute_force")
                         for k in range(1, 13)]
