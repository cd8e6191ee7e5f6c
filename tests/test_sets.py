import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from shiftlab import sets
from shiftlab.errors import PreconditionError, SpecParseError
from shiftlab.sets import (
    EVENS,
    ODDS,
    ComplementSet,
    FactorialBlocksSet,
    FiniteSet,
    PeriodicSet,
    Pow2DiffSet,
    UnionSet,
    WindowSet,
    asymptotic_density,
    classify,
    difference_set,
    largest_delta_subset,
    largest_ip_subset,
    parse_set_expr,
    upper_banach_density,
    upper_density,
)

from position_reference import brute_force_delta_sizes, delta_search
from sets_reference import frozenset_ip_reference, ip_nodes, reference_banach, reference_runs

NATURALS = PeriodicSet((), (1,))


def test_named_sets_membership():
    assert 2 in EVENS and 4 in EVENS and 1 not in EVENS
    assert 1 in ODDS and 3 in ODDS and 2 not in ODDS
    assert 0 not in EVENS


def test_finite_set():
    s = FiniteSet(frozenset({1, 5}))
    assert s.contains(1) and s.contains(5) and not s.contains(2)
    pre, per = s.eventually_periodic()
    assert pre == (1, 0, 0, 0, 1) and per == (0,)


def test_complement_and_union():
    c = ComplementSet(FiniteSet(frozenset({1})))
    assert not c.contains(1) and c.contains(2) and not c.contains(0)
    u = UnionSet((EVENS, FiniteSet(frozenset({1}))))
    assert u.contains(1) and u.contains(2) and not u.contains(3)
    pre, per = u.eventually_periodic()
    assert all(u.contains(i) == bool((pre + per * 4)[i - 1])
               for i in range(1, len(pre) + 4 * len(per) + 1))


def test_parse_round_trips():
    for expr in [
        "finite:{1,5}",
        "periodic:1;10",
        "complement:(finite:{1})",
        "union:(evens|finite:{1})",
        "evens",
        "odds",
        "pow2diff",
        "factorial_blocks",
        "window:10110",
        "union:(complement:(finite:{2})|periodic:;01)",
    ]:
        s = parse_set_expr(expr)
        assert str(parse_set_expr(str(s))) == str(s)


def test_parse_errors():
    for bad in ["finite:{0}", "periodic:;", "periodic:1;2", "window:", "window:12",
                "union:(|evens)", "nope", "finite:{a}"]:
        with pytest.raises(SpecParseError):
            parse_set_expr(bad)


def test_pow2diff_membership_small():
    p = Pow2DiffSet()
    # 2^n - 2^m values
    expected = sorted({(1 << n) - (1 << m) for n in range(1, 11) for m in range(n)})
    got = [i for i in range(1, 1024) if p.contains(i)]
    assert got == [e for e in expected if e < 1024]


def test_factorial_blocks():
    f = FactorialBlocksSet()
    assert f.contains(2) and f.contains(3)          # [2!, 2!+2)
    assert f.contains(6) and f.contains(8) and not f.contains(9)  # [3!, 3!+3)
    assert f.contains(24) and f.contains(27) and not f.contains(28)
    assert not f.contains(1) and not f.contains(5)


def test_upper_density_exact_periodic():
    r = upper_density(EVENS, 10_000)
    assert r.exact and r.value == Fraction(1, 2) and r.exists
    r = upper_density(parse_set_expr("periodic:;110"), 10_000)
    assert r.exact and r.value == Fraction(2, 3)


def test_asymptotic_density_factorial_blocks_exact_zero():
    r = asymptotic_density(FactorialBlocksSet(), 10_000)
    assert r.exact and r.value == 0 and r.exists


def test_upper_banach_density_factorial_blocks_estimate():
    r = upper_banach_density(FactorialBlocksSet(), H=5100)
    assert not r.exact
    # the block [7!, 7!+7) is a full run of 7: a window of 16 holds all of it,
    # far above the asymptotic density 0
    assert r.value == 7 / 16


def test_upper_banach_density_matches_per_start_reference():
    rng = random.Random(7)
    seeded = WindowSet(tuple(1 if rng.random() < 0.3 else 0 for _ in range(700)))
    for A in (Pow2DiffSet(), FactorialBlocksSet(), seeded):
        # H past the grid, just past it, on it at 4 * 16, and below 16
        for H in (700, 513, 64, 10):
            r = upper_banach_density(A, H=H)
            assert not r.exact and r.horizon == H
            assert r.value == float(reference_banach(A, H, 16)), (A, H)


def _window(ones, length):
    return WindowSet(tuple(1 if i in ones else 0 for i in range(1, length + 1)))


# the lengths double from min(16, H), and every case meets its edge there;
# each id keeps, last, the first length the case had when that was an argument
@pytest.mark.parametrize("A,H", [
    # members only in the last window: no member starts a window that fits
    (_window({100}, 100), 100),
    (_window({90, 95, 100}, 100), 100),
    (_window({200}, 300), 200),
    # A cap [1, H] empty
    (_window(set(), 50), 50),
    (_window({60}, 80), 40),
    (FactorialBlocksSet(), 1),
    # H below 16: the one window is [1, H]
    (Pow2DiffSet(), 5),
    (_window({1, 3}, 7), 7),
    # H on the doubling grid, so the last length is H itself
    (Pow2DiffSet(), 128),
    (FactorialBlocksSet(), 256),
    (_window({1, 2, 3}, 64), 64),
    # dense windows: long runs, and runs that start at 1
    (_window(set(range(1, 301)) - {7, 150, 151, 299}, 300), 300),
    (_window({i for i in range(1, 513) if i % 7}, 512), 512),
    (_window(set(range(1, 41)), 40), 40),
], ids=["A0-100-16", "A1-100-16", "A2-200-4", "A3-50-16", "A4-40-4", "A5-1-16", "A6-5-16",
        "A7-7-64", "A8-128-16", "A9-256-4", "A10-64-16", "A11-300-4", "A12-512-16",
        "A13-40-8"])
def test_upper_banach_density_edge_cases_match_the_reference(A, H):
    r = upper_banach_density(A, H=H)
    assert not r.exact and r.horizon == H
    assert r.value == float(reference_banach(A, H, 16))


def test_density_estimates_flagged():
    r = upper_density(Pow2DiffSet(), H=2048)
    assert not r.exact and r.horizon == 2048
    assert 0 < r.value < 1


def test_density_json_carries_exactness():
    j = upper_density(EVENS, 10_000).to_json()
    assert j["exact"] is True and j["value_exact"] == "1/2"
    j = upper_density(Pow2DiffSet(), H=512).to_json()
    assert j["exact"] is False and j["horizon"] == 512


def test_difference_set():
    d = difference_set(EVENS, 20)
    assert d.contains(2) and d.contains(4) and not d.contains(3)
    d1 = difference_set(FiniteSet(frozenset({3, 10, 14})), 20)
    assert sorted(d1.members(20)) == [4, 7, 11]


def test_largest_delta_subset_evens():
    d, capped = largest_delta_subset(EVENS, 12)
    # any progression with common difference 2 works, so the max has size 6
    diffs = {b - a for i, a in enumerate(d) for b in d[i + 1:]}
    assert all(x in EVENS for x in diffs)
    assert len(d) == 6 and not capped
    with pytest.raises(PreconditionError):
        largest_delta_subset(EVENS, 0)


def _is_delta_set(D, A, H):
    return all(1 <= a <= H for a in D) and \
        all(A.contains(b - a) for i, a in enumerate(D) for b in D[i + 1:])


def _check_delta_against_reference(A, H, cap):
    """largest_delta_subset against the position search of position_reference
    at the same cap: the same size where both finish, at least the search's
    where only the walk finishes, at most it where only the search does (the
    walk's greedy dive is a lower bound), and a Delta-set always. Returns
    (whether the search tripped, whether the walk tripped)."""
    ref, ref_capped = delta_search(A, H, cap)
    got, capped = largest_delta_subset(A, H, node_cap=cap)
    assert _is_delta_set(got, A, H) and _is_delta_set(ref, A, H)
    if not capped:
        assert len(got) >= len(ref) if ref_capped else len(got) == len(ref), (A, H, cap)
    elif not ref_capped:
        assert len(got) <= len(ref), (A, H, cap)
    return ref_capped, capped


def _delta_cases():
    named = ["evens", "odds", "pow2diff", "factorial_blocks", "periodic:;0111011",
             "complement:(finite:{1,3,7,12})", "union:(window:0010011|periodic:;0001)"]
    for text in named:
        for H, cap in ((40, 10 ** 6), (96, 500), (200, 3000)):
            yield text, H, cap
    rng = random.Random(41)
    for _ in range(60):
        bits = "".join(rng.choice("0111") for _ in range(rng.randint(5, 40)))
        yield "window:" + bits, rng.randint(1, 45), rng.choice([1, 50, 300, 10 ** 6])


def test_largest_delta_subset_matches_the_position_search():
    trips = [_check_delta_against_reference(parse_set_expr(text), H, cap)
             for text, H, cap in _delta_cases()]
    # the search trips where the walk finishes, and the other way round
    assert sum(r and not g for r, g in trips) >= 10
    assert sum(g for _, g in trips) > 20
    # a tripped walk returns the greedy dive, on evens every odd number
    for c in range(1, 8):
        assert largest_delta_subset(EVENS, 40, c) == (tuple(range(1, 40, 2)), True)


def _sparse_union(rng):
    # a sparse union like those the benchmark's `sets classify` runs with
    # --cap-states 20000 (Delta witness at min(H, 512))
    def bits(length, ones):
        pos = set(rng.sample(range(length), ones))
        return "".join("1" if i in pos else "0" for i in range(length))

    return parse_set_expr("union:(window:%s|periodic:;%s)" % (bits(128, 24), bits(16, 1)))


def test_largest_delta_subset_under_the_classify_cap():
    # the search trips mid-search, and the walk finishes with a set no smaller
    rng = random.Random(43)
    for _ in range(3):
        assert _check_delta_against_reference(_sparse_union(rng), 512, 20000) == (True, False)


def test_delta_witness_is_the_max_follower_walk_at_the_classify_cap():
    # on the benchmark's sparse unions the walk finishes under the cap, where
    # the search mostly trips
    searches_tripped = 0
    for seed in range(20):
        A = _sparse_union(random.Random(seed))
        ref_capped, capped = _check_delta_against_reference(A, 512, 20000)
        assert not capped, seed
        searches_tripped += ref_capped
    assert searches_tripped > 10


def test_largest_delta_subset_is_the_brute_force_max():
    rng = random.Random(47)
    texts = ["evens", "odds", "pow2diff", "factorial_blocks", "periodic:;0111011",
             "complement:(finite:{1,3,7,12})", "union:(window:0010011|periodic:;0001)"]
    texts += ["window:" + "".join(rng.choice("0111") for _ in range(rng.randint(3, 16)))
              for _ in range(12)]
    for text in texts:
        A = parse_set_expr(text)
        want = brute_force_delta_sizes(A, 14)
        for H in range(1, 15):
            D, capped = largest_delta_subset(A, H)
            assert _is_delta_set(D, A, H) and len(D) == want[H] and not capped, (text, H)


def test_deep_largest_delta_subset_without_recursion():
    # the recursive search overflowed near H = 2000 on evens
    d = largest_delta_subset(EVENS, 2100)[0]
    assert len(d) == 1050 and d[:3] == (1, 3, 5)


def test_set_expression_nesting_is_bounded():
    # each parenthesis nests one level of the parser and of the spec methods
    deep = "union:(" * 50 + "window:01" + "|complement:(evens))" * 50
    A = parse_set_expr(deep)
    assert str(A) == deep
    assert upper_density(A, 100).value == 0.625 and A.eventually_periodic() is None
    with pytest.raises(SpecParseError):
        parse_set_expr("complement:(" * 101 + "evens" + ")" * 101)


def test_largest_ip_subset_pow2diff_small():
    s = largest_ip_subset(Pow2DiffSet(), 64)[0]
    assert len(s) == 2  # e.g. {2, 6}: 2, 6, 8 all of the form 2^n - 2^m


def test_classify_evens():
    rep = classify(EVENS, H=500)
    assert rep.thick_run == 1            # no two consecutive members
    assert rep.max_gap == 2
    assert len(rep.delta_witness) >= 6
    j = rep.to_json()
    assert j["horizon"] == 500 and j["delta_witness_size"] == len(rep.delta_witness)


@pytest.mark.parametrize("A,H,ip_bound,cap,hit", [
    (EVENS, 200, None, 200, True),           # the Delta walk trips, the IP search ends
    (Pow2DiffSet(), 16, 2000, 500, True),    # the Delta walk ends, the IP search trips
    (Pow2DiffSet(), 16, 2000, 50_000, False),
    (EVENS, 200, None, 5000, False),         # the IP search stops at IP_MAX_SIZE
])
def test_classify_cap_hit_says_a_witness_search_stopped_at_the_cap(A, H, ip_bound, cap, hit):
    rep = classify(A, H=H, ip_bound=ip_bound, node_cap=cap)
    assert rep.cap_hit is hit
    # the witnesses are those of the searches on their own
    assert (rep.delta_witness, not rep.delta_exact) == \
        largest_delta_subset(A, min(H, 512), node_cap=cap)
    assert rep.ip_witness == largest_ip_subset(A, rep.ip_bound, node_cap=cap)[0]
    assert "cap_hit" not in rep.to_json()


def test_classify_runs_match_the_member_list_reference():
    rng = random.Random(311)
    named = [EVENS, ODDS, NATURALS, Pow2DiffSet(), FactorialBlocksSet(),
             ComplementSet(FactorialBlocksSet()), FiniteSet(frozenset()),
             FiniteSet(frozenset({1, 7, 64}))]
    seeded = []
    for _ in range(300):
        p = rng.random()
        seeded.append(WindowSet(tuple(int(rng.random() < p)
                                      for _ in range(rng.randint(1, 1200)))))
    for A in named + seeded:
        for H in (1, 2, 7, 64, 1000):
            # the witness searches at their least: a one-node cap and ip_bound 1
            rep = classify(A, H=H, ip_bound=1, node_cap=1)
            assert (rep.thick_run, rep.max_gap) == reference_runs(A, H), (A, H)


def test_classify_empty_like():
    rep = classify(FiniteSet(frozenset()), H=50)
    assert rep.max_gap is None and rep.thick_run == 0


def test_window_set_horizon():
    w = WindowSet((1, 0, 1))
    assert w.contains(1) and w.contains(3)
    assert not w.contains(4)  # beyond the horizon: unknown, reported False
    assert w.eventually_periodic() is None


periodic_sets = st.builds(
    PeriodicSet,
    st.lists(st.integers(0, 1), max_size=3).map(tuple),
    st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
)


@given(periodic_sets)
def test_complement_involution(s):
    c = ComplementSet(ComplementSet(s))
    assert all(c.contains(i) == s.contains(i) for i in range(1, 40))


@given(periodic_sets)
def test_periodic_density_matches_counting(s):
    r = upper_density(s, 10_000)
    H = 40 * len(s.per) + len(s.pre)
    lo = len(s.pre)
    cnt = sum(1 for i in range(lo + 1, H + 1) if s.contains(i))
    assert Fraction(cnt, H - lo) == r.value


@given(periodic_sets)
def test_parse_str_round_trip_periodic(s):
    t = parse_set_expr(str(s))
    assert all(t.contains(i) == s.contains(i) for i in range(1, 40))


def test_periodic_bits_match_contains():
    # PeriodicSet.bits repeats the period as bytes; it must equal the
    # per-position membership definition of IntSetSpec.bits, 0/1 even where
    # the pattern holds other truthy values
    rng = random.Random(23)
    sets = [EVENS, ODDS, PeriodicSet((True, 0, 1), (2, 0))]
    for _ in range(40):
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 9)))
        per = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 13)))
        sets.append(PeriodicSet(pre, per))
    for s in sets:
        for H in (0, len(s.pre) // 2, len(s.pre), len(s.pre) + 1,
                  len(s.pre) + 50 * len(s.per) + 7, -1):
            got = s.bits(H)
            assert got == bytes([1 if s.contains(i) else 0 for i in range(1, H + 1)]), (s, H)
            assert type(got) is bytes


# -- whole-horizon kernels -----------------------------------------------------

def _seeded_set(rng, depth):
    """A random set expression tree over every class: complements and unions
    of windows, finite sets, pow2diff, factorial blocks and periodic sets."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(5)
        if kind == 0:
            return WindowSet(tuple(rng.choice((0, 1, True, False))
                                   for _ in range(rng.randint(1, 60))))
        if kind == 1:
            return FiniteSet(frozenset(rng.sample(range(1, 90), rng.randint(0, 6))))
        if kind == 2:
            return Pow2DiffSet()
        if kind == 3:
            return FactorialBlocksSet()
        return PeriodicSet(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 5))),
                           tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 7))))
    if rng.random() < 0.4:
        return ComplementSet(_seeded_set(rng, depth - 1))
    return UnionSet(tuple(_seeded_set(rng, depth - 1) for _ in range(rng.randint(2, 3))))


def _kernel_sets():
    rng = random.Random(53)
    window = WindowSet((1, 0, 0, 1, 1))
    named = [window, ComplementSet(window), FiniteSet(frozenset()), UnionSet(()),
             ComplementSet(UnionSet((window, FiniteSet(frozenset({2, 9})), Pow2DiffSet(),
                                     FactorialBlocksSet(), EVENS))),
             Pow2DiffSet(), FactorialBlocksSet(), EVENS]
    return named + [_seeded_set(rng, 3) for _ in range(16)]


def _window_lengths(A):
    if isinstance(A, WindowSet):
        yield A.horizon
    for child in getattr(A, "parts", ()) + ((A.inner,) if isinstance(A, ComplementSet) else ()):
        yield from _window_lengths(child)


def test_bits_match_contains_for_every_class():
    for A in _kernel_sets():
        lengths = set(_window_lengths(A))
        Hs = {-1, 0, 1, 20000} | {n + d for n in lengths for d in (-1, 0, 1)}
        for H in sorted(Hs):
            got = A.bits(H)
            assert got == bytes([1 if A.contains(i) else 0 for i in range(1, H + 1)]), (A, H)
            assert type(got) is bytes, (A, H)
            assert A.members(H) == [i for i in range(1, H + 1) if A.contains(i)], (A, H)


def test_density_estimates_match_their_definitions():
    for A in _kernel_sets()[:14]:
        if A.eventually_periodic() is not None:
            continue
        for H in (1, 7, 300, 1000):
            count = [0]
            for i in range(1, H + 1):
                count.append(count[-1] + A.contains(i))
            grid = [n for n in (8, 16, 32, 64, 128, 256, 512) if n < H] + [H]
            assert upper_density(A, H).value == float(max(Fraction(count[n], n) for n in grid))
            r = asymptotic_density(A, H)
            assert r.exact or r.value == float(Fraction(count[H], H))
        assert upper_banach_density(A, 300).value == float(reference_banach(A, 300, 16))


def test_largest_ip_subset_matches_the_frozenset_search():
    rng = random.Random(59)
    cases = [(EVENS, 4096), (NATURALS, 4096), (EVENS, 40), (Pow2DiffSet(), 600),
             (FactorialBlocksSet(), 800), (ComplementSet(FactorialBlocksSet()), 300),
             (parse_set_expr("union:(periodic:;0001|finite:{3,6,9})"), 500)]
    cases += [(_seeded_set(rng, 3), rng.choice((1, 5, 80, 400))) for _ in range(20)]
    capped = least_checked = 0
    for A, bound in cases:
        caps = [20000, 50, 1]
        if not frozenset_ip_reference(A, bound, 20000)[1]:
            # the least cap the search finishes under, and one below it
            least = ip_nodes(A, bound)
            caps += [least, least - 1]
            least_checked += 1
        answers = []
        for cap in caps:
            got = largest_ip_subset(A, bound, node_cap=cap)
            assert got == frozenset_ip_reference(A, bound, cap), (A, bound, cap)
            answers.append(got)
        assert [hit for _, hit in answers[3:]] in ([], [False, True]), (A, bound)
        capped += answers[2] != answers[0]
    assert least_checked > 20
    # evens and the naturals stop at IP_MAX_SIZE, and small caps cut searches short
    assert len(largest_ip_subset(EVENS, 4096)[0]) == sets.IP_MAX_SIZE
    assert len(largest_ip_subset(NATURALS, 4096)[0]) == sets.IP_MAX_SIZE
    assert capped > 5


@pytest.mark.parametrize("A,bound", [
    (EVENS, 40),
    (FiniteSet(frozenset({3, 5, 6})), 6),
    (FiniteSet(frozenset({1, 2, 4, 6, 8, 9})), 9),
    (Pow2DiffSet(), 64),
    (NATURALS, 16),
    (parse_set_expr("union:(periodic:;0001|finite:{3,6,9})"), 60),
    (ComplementSet(FactorialBlocksSet()), 25),
])
def test_largest_ip_subset_matches_the_frozenset_search_at_every_cap(A, bound):
    # every cap up to the least one the search finishes under: each node kind
    # (a child, a skipped candidate, a frame's stop, an unwinding charge) trips
    # the cap somewhere in the sweep
    for cap in range(ip_nodes(A, bound) + 2):
        assert largest_ip_subset(A, bound, node_cap=cap) == \
            frozenset_ip_reference(A, bound, cap), (A, bound, cap)


@pytest.mark.parametrize("A,bound,cap,expected", [
    # {1} has 8 as its one child: 2, 4, 6 are skipped (nodes 2-4), 8 is node 5
    (FiniteSet(frozenset({1, 2, 4, 6, 8, 9})), 9, 2, ((1,), True)),
    (FiniteSet(frozenset({1, 2, 4, 6, 8, 9})), 9, 3, ((1,), True)),
    (FiniteSet(frozenset({1, 2, 4, 6, 8, 9})), 9, 4, ((1,), True)),
    (FiniteSet(frozenset({1, 2, 4, 6, 8, 9})), 9, 5, ((1, 8), True)),
    # the root child 5 > 6/2: its frame stops at its first index (node 4);
    # five nodes in all
    (FiniteSet(frozenset({3, 5, 6})), 6, 3, ((3,), True)),
    (FiniteSet(frozenset({3, 5, 6})), 6, 4, ((3,), True)),
    (FiniteSet(frozenset({3, 5, 6})), 6, 5, ((3,), False)),
    # 1..12 are nodes 1-12; the 13 open frames then charge nodes 13-25
    (NATURALS, 4096, 11, (tuple(range(1, 12)), True)),
    (NATURALS, 4096, 12, (tuple(range(1, 13)), True)),
    (NATURALS, 4096, 24, (tuple(range(1, 13)), True)),
    (NATURALS, 4096, 25, (tuple(range(1, 13)), False)),
])
def test_largest_ip_subset_node_charges(A, bound, cap, expected):
    assert largest_ip_subset(A, bound, node_cap=cap) == expected
    assert frozenset_ip_reference(A, bound, cap) == expected


def test_classify_rejects_an_ip_bound_below_1():
    for ip_bound in (0, -3):
        with pytest.raises(PreconditionError):
            classify(EVENS, H=5, ip_bound=ip_bound)


# -- set algebra on masks -------------------------------------------------------

def _pairwise_difference_reference(A, H):
    """The pairwise loop difference_set ran before its mask form."""
    mem = A.members(H)
    diffs = set()
    for i, a in enumerate(mem):
        for b in mem[:i]:
            diffs.add(a - b)
    return WindowSet(tuple(1 if d in diffs else 0 for d in range(1, H + 1)))


def _algebra_horizons(A):
    return sorted({1, 2, 300} | {n + d for n in _window_lengths(A) for d in (-1, 1)} - {0})


def test_mask_packs_bits():
    for A in _kernel_sets():
        for H in (-1, 0, 1, 2, 61, 300):
            assert A.mask(H) == sum(1 << i for i in A.members(H)), (A, H)


def test_difference_set_matches_the_pairwise_loop():
    for A in _kernel_sets():
        for H in _algebra_horizons(A):
            assert difference_set(A, H) == _pairwise_difference_reference(A, H), (A, H)


def test_deep_set_algebra_finishes():
    # difference_set ORs one shifted mask per member, not one set entry per pair
    assert difference_set(ODDS, 4000).members(4000) == list(range(2, 4000, 2))
