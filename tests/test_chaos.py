import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import inf, lcm

import pytest
from hypothesis import given, settings, strategies as st

import shiftlab
from family_reference import ReferenceFamily
from gap_reference import (
    diff_equal_densities,
    empirical_profile,
    gap_cutoff,
    gap_frequencies,
    gap_series,
    mask_gap_frequencies,
)
from shiftlab.chaos import (
    DEFAULT_GROWTH,
    DistributionProfile,
    _cycle,
    _disagreements,
    _grid,
    build_scrambled_family,
    classify_pair,
    distribution_profile,
    family_pair_frequencies,
    family_pair_profile,
)
from shiftlab.cli import main
from shiftlab.core import periodic_point
from shiftlab.errors import AlphabetMismatch, PreconditionError, ResourceCapExceeded
from shiftlab.sets import EVENS, ComplementSet, FiniteSet, PeriodicSet, parse_set_expr


def P(pre, per):
    return periodic_point(pre, per)


# -- exact densities ----------------------------------------------------------

def _F_one_over_n(x, y):
    """F(1/n) of the exact profile: d_j < 1/n iff x_(j+1) = y_(j+1), so it is
    the Equal density."""
    prof = distribution_profile(x, y)
    return dict(zip(prof.thresholds, prof.F_values))[Fraction(1, x.alphabet.size)]


def test_diff_equal_basic():
    x, y = P("", "10"), P("", "0")
    d, e = diff_equal_densities(x, y)
    assert (d, e) == (Fraction(1, 2), Fraction(1, 2))
    assert _F_one_over_n(x, y) == e


def test_diff_equal_identity():
    x = P("1", "10")
    assert diff_equal_densities(x, x) == (0, 1)
    assert _F_one_over_n(x, x) == 1


def test_diff_equal_antipodal():
    x, y = P("", "10"), P("", "01")
    assert diff_equal_densities(x, y)[0] == 1
    assert _F_one_over_n(x, y) == 0


def test_profile_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        distribution_profile(P("", "10"), periodic_point("", "10", n=3))


def test_diff_equal_preperiod_ignored():
    # disagreements confined to the preperiod have density zero
    x, y = P("111", "0"), P("", "0")
    d, e = diff_equal_densities(x, y)
    assert (d, e) == (0, 1)
    assert _F_one_over_n(x, y) == 1


# -- exact profiles -----------------------------------------------------------

def test_profile_step_function():
    prof = distribution_profile(P("", "10"), P("", "0"))
    assert prof.exact
    lookup = dict(zip(prof.thresholds, prof.F_values))
    assert lookup[Fraction(1, 8)] == 0
    assert lookup[Fraction(1, 4)] == 0
    assert lookup[Fraction(1, 2)] == Fraction(1, 2)
    assert lookup[Fraction(1)] == 1
    assert prof.F_values == prof.Fstar_values


def test_profile_identity_pair():
    prof = distribution_profile(P("", "10"), P("", "10"))
    assert prof.fstar_one_everywhere
    assert all(f == 1 for f, t in zip(prof.F_values, prof.thresholds) if t > 0)


def test_profile_asymptotic_pair():
    # differ only in the preperiod: distances drop to 0
    prof = distribution_profile(P("111", "0"), P("", "0"))
    assert prof.fstar_one_everywhere
    assert all(f == 1 for f in prof.F_values)


def test_profile_monotone_and_bounded():
    prof = distribution_profile(P("01", "110"), P("", "10"))
    assert list(prof.F_values) == sorted(prof.F_values)
    assert all(0 <= f <= 1 for f in prof.F_values)
    assert all(f <= fs for f, fs in zip(prof.F_values, prof.Fstar_values))


def test_profile_mixed_pair_rejected():
    with pytest.raises(PreconditionError):
        distribution_profile(P("", "10"), (0, 1, 0))


def test_profile_json():
    j = distribution_profile(P("", "10"), P("", "0")).to_json()
    assert j["exact"] is True
    assert {"t": "2^-1", "F": "1/2", "Fstar": "1/2"} in j["grid"]


def _reference_exact_F(x, y, thresholds):
    """F(t) = #{j in one cycle : d_j < t} / c straight from the definitions:
    d_j = n**-(gap to the next disagreement after j), found by scanning every
    disagreement of the cycle for every j (O(c*|D|))."""
    n = x.alphabet.size
    p = max(len(x.preperiod), len(y.preperiod))
    c = lcm(len(x.period), len(y.period))
    D = [i for i in range(p + 1, p + c + 1) if x.symbol_at(i) != y.symbol_at(i)]
    if D:
        gaps = [min(d if d > j else d + c for d in D) - j for j in range(p, p + c)]
        dists = [Fraction(1, n ** g) for g in gaps]
        max_k = max(gaps) + 1
    else:
        dists = [Fraction(0)] * c
        max_k = 2
    if thresholds is None:
        thresholds = [Fraction(1, n ** a) for a in range(max_k, 0, -1)] + [Fraction(1)]
    thresholds = tuple(sorted(thresholds))
    F = tuple(Fraction(sum(1 for d in dists if d < t), c) for t in thresholds)
    return thresholds, F, all(d == 0 for d in dists)


def _grid_step(prof, t):
    """F(t) for 0 < t <= 1 read off the profile's grid: F is constant on
    each (n**-(e+1), n**-e], so it is F at the least threshold >= t (the
    least threshold itself when t lies below them all)."""
    return next(f for s, f in zip(prof.thresholds, prof.F_values) if s >= t)


# off-grid thresholds in (0, 1], where F is read off the grid
OFF_GRID = (Fraction(1, 100), Fraction(1, 5), Fraction(1, 3), Fraction(1, 9), Fraction(2, 3),
            Fraction(1, 10 ** 9))


def _random_point(rng, n, pre_len, per_len):
    digits = lambda m: "".join(str(rng.randrange(n)) for _ in range(m))
    return periodic_point(digits(pre_len), digits(per_len), n=n)


def test_exact_profile_matches_reference_gap_loop():
    rng = random.Random(20261018)
    for n in (2, 3):
        for trial in range(40):
            pre_x = rng.randrange(4) if trial % 2 else 0
            pre_y = rng.randrange(4) if trial % 2 else 0
            x = _random_point(rng, n, pre_x, rng.randrange(1, 13))
            y = _random_point(rng, n, pre_y, rng.randrange(1, 13))
            prof = distribution_profile(x, y)
            ts, F, fstar_one = _reference_exact_F(x, y, None)
            assert prof.thresholds == ts, (x, y)
            assert prof.F_values == prof.Fstar_values == F, (x, y)
            assert prof.fstar_one_everywhere == fstar_one
            # the grid determines F everywhere in (0, 1]
            ts, F, _ = _reference_exact_F(x, y, OFF_GRID)
            assert F == tuple(_grid_step(prof, t) for t in ts), (x, y)


def test_exact_profile_agreeing_pair_matches_reference():
    for n in (2, 3):
        x, y = periodic_point("0", "1", n=n), periodic_point("1", "1", n=n)
        prof = distribution_profile(x, y)
        ts, F, fstar_one = _reference_exact_F(x, y, None)
        assert (prof.thresholds, prof.F_values) == (ts, F)
        assert prof.fstar_one_everywhere and fstar_one
        ts, F, _ = _reference_exact_F(x, y, OFF_GRID)
        assert F == tuple(_grid_step(prof, t) for t in ts) == (1,) * len(OFF_GRID)


def _cycle_structure_reference(x, y):
    """(p, c, D), D the disagreement positions in (p, p + c], coordinate by
    coordinate."""
    p = max(len(x.preperiod), len(y.preperiod))
    c = lcm(len(x.period), len(y.period))
    D = [i for i in range(p + 1, p + c + 1) if x.symbol_at(i) != y.symbol_at(i)]
    return p, c, D


def _gap_cycle_reference(x, y):
    """Gaps over one cycle, None for an agreeing pair: one backward sweep
    from the first disagreement of the next cycle."""
    p, c, D = _cycle_structure_reference(x, y)
    if not D:
        return c, None
    gaps = [0] * c
    nxt = D[0] + c
    k = len(D) - 1
    for j in range(p + c - 1, p - 1, -1):
        if k >= 0 and D[k] == j + 1:
            nxt = D[k]
            k -= 1
        gaps[j - p] = nxt - j
    return c, gaps


def _cycle_profile_reference(x, y, thresholds=None):
    n = x.alphabet.size
    c, gaps = _gap_cycle_reference(x, y)
    agreeing = gaps is None
    if thresholds is None:
        top = 2 if agreeing else max(gaps) + 1
        thresholds = [Fraction(1, n ** a) for a in range(top, 0, -1)] + [Fraction(1)]
    thresholds = tuple(sorted(thresholds))
    if agreeing:
        F = tuple(Fraction(1 if t > 0 else 0) for t in thresholds)
    else:
        F = tuple(Fraction(sum(1 for g in gaps if Fraction(1, n ** g) < t), c)
                  for t in thresholds)
    return DistributionProfile(n=n, thresholds=thresholds, F_values=F, Fstar_values=F,
                               exact=True, fstar_one_everywhere=agreeing)


def test_two_cycle_window_matches_the_cycle_structure_sweep():
    rng = random.Random(1103)
    pairs = [(P("", "1"), P("", "1")), (P("", "1"), P("0110", "1")),
             (P("", "110"), P("", "101")), (P("10", "01"), P("", "1"))]
    for _ in range(150):
        n = rng.choice((2, 3, 4))
        x = _random_point(rng, n, rng.randint(0, 6), rng.randint(1, 13))
        y = _random_point(rng, n, rng.randint(0, 6), rng.randint(1, 13))
        pairs.append((x, y))
        # x with its first j coordinates redrawn: an agreeing pair
        L = len(x.preperiod) + len(x.period)
        j = rng.randint(0, L)
        head = [rng.randrange(n) for _ in range(j)] + list(x.prefix(L)[j:])
        pairs.append((x, periodic_point(head, x.period, n=n)))
    agreeing = 0
    for x, y in pairs:
        prof = distribution_profile(x, y)
        assert prof == _cycle_profile_reference(x, y), (x, y)
        ref = _cycle_profile_reference(x, y, OFF_GRID)
        assert ref.F_values == tuple(_grid_step(prof, t) for t in ref.thresholds), (x, y)
        p, c, D = _cycle_structure_reference(x, y)
        assert diff_equal_densities(x, y) == (Fraction(len(D), c), 1 - Fraction(len(D), c))
        assert _F_one_over_n(x, y) == 1 - Fraction(len(D), c)
        agreeing += not D
    assert 0 < agreeing < len(pairs)


def test_nonpositive_thresholds_give_zero():
    grid = [Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
    finite = empirical_profile((0, 1, 1, 0) * 8, (0, 0, 1, 1) * 8, thresholds=grid)
    assert finite.F_values[:2] == finite.Fstar_values[:2] == (0, 0)
    assert finite.F_values[-1] == 1
    # the exact grid holds no t <= 0: an agreeing pair reads 1 on all of it,
    # and a disagreeing one 0 at its least threshold, below every distance
    agreeing = distribution_profile(P("1", "0110"), P("", "0011"))
    assert agreeing.thresholds[0] > 0 and set(agreeing.F_values) == {1}
    periodic = distribution_profile(P("1", "0110"), P("", "0101"))
    assert periodic.F_values[0] == periodic.Fstar_values[0] == 0
    assert periodic.F_values[-1] == 1


def test_classify_large_cycle_F_at_one_over_n_is_equal_density():
    # d_j < 1/n iff x_(j+1) = y_(j+1), so F(1/n) is the density of Equal(x, y)
    rng = random.Random(211243)
    bits = lambda m: "".join(rng.choice("01") for _ in range(m))
    xs, ys = ";" + bits(211), ";" + bits(243)
    out = io.StringIO()
    assert main(["chaos", "classify", "--x", xs, "--y", ys], out=out) == 0
    grid = json.loads(out.getvalue())["result"]["profile"]["grid"]
    F_half = next(row["F"] for row in grid if row["t"] == "2^-1")
    x, y = P("", xs[1:]), P("", ys[1:])
    assert lcm(len(x.period), len(y.period)) == 51273
    assert Fraction(F_half) == diff_equal_densities(x, y)[1]


# -- classification -----------------------------------------------------------

def test_classify_exact_pairs_none():
    for x, y in [(P("", "10"), P("", "0")), (P("", "1"), P("", "1"))]:
        assert classify_pair(distribution_profile(x, y)).verdict == "none"


def test_classify_dc3_profile():
    # synthetic profile with F < F* on a threshold subinterval
    prof = DistributionProfile(
        n=2,
        thresholds=(Fraction(1, 4), Fraction(1, 2), Fraction(1)),
        F_values=(Fraction(0), Fraction(1, 4), Fraction(1)),
        Fstar_values=(Fraction(1, 2), Fraction(3, 4), Fraction(1)),
        exact=True, fstar_one_everywhere=False)
    assert classify_pair(prof).verdict == "DC3-not-DC2"


def test_classify_dc1_profile():
    prof = DistributionProfile(
        n=2,
        thresholds=(Fraction(1, 4), Fraction(1, 2), Fraction(1)),
        F_values=(Fraction(0), Fraction(1, 2), Fraction(1)),
        Fstar_values=(Fraction(1), Fraction(1), Fraction(1)),
        exact=True, fstar_one_everywhere=True)
    cls = classify_pair(prof)
    assert cls.verdict == "DC1" and not cls.evidence


def test_classify_dc2_profile_exact():
    prof = DistributionProfile(
        n=2,
        thresholds=(Fraction(1, 4), Fraction(1, 2), Fraction(1)),
        F_values=(Fraction(1, 3), Fraction(1, 2), Fraction(1)),
        Fstar_values=(Fraction(1), Fraction(1), Fraction(1)),
        exact=True, fstar_one_everywhere=True)
    assert classify_pair(prof).verdict == "DC2-not-DC1"


def test_empirical_never_dc1():
    prof = DistributionProfile(
        n=2,
        thresholds=(Fraction(1, 4), Fraction(1, 2), Fraction(1)),
        F_values=(Fraction(0), Fraction(0), Fraction(1)),
        Fstar_values=(Fraction(1), Fraction(1), Fraction(1)),
        exact=False, fstar_one_everywhere=True, horizon=1000)
    cls = classify_pair(prof)
    assert cls.verdict == "DC2-not-DC1" and cls.evidence


def _ud_positive_iff_F_below_one(x, y):
    d, e = diff_equal_densities(x, y)
    prof = distribution_profile(x, y)
    positives = [f for t, f in zip(prof.thresholds, prof.F_values) if t > 0]
    f_below_one = min(positives) < 1
    fstar_all_one = prof.fstar_one_everywhere
    assert (d > 0) == f_below_one
    assert (e == 1) == fstar_all_one
    # contrapositives are the same assertions read backwards; spell them out
    assert (d == 0) == (not f_below_one)
    assert (e < 1) == (not fstar_all_one)


def test_lemma_equivalence_suite():
    rng = random.Random(0xC0FFEE)
    for _ in range(50):
        def rand_point():
            pre = [rng.randint(0, 1) for _ in range(rng.randint(0, 4))]
            per = [rng.randint(0, 1) for _ in range(rng.randint(1, 12))]
            return periodic_point(pre, per)
        _ud_positive_iff_F_below_one(rand_point(), rand_point())


# -- scrambled family ---------------------------------------------------------

def test_family_requires_positive_density():
    with pytest.raises(PreconditionError):
        build_scrambled_family(FiniteSet(frozenset({4, 8})), 2, 1000)
    with pytest.raises(PreconditionError):
        build_scrambled_family(PeriodicSet((), (0,)), 2, 1000)


def test_family_requires_room():
    with pytest.raises(PreconditionError):
        build_scrambled_family(EVENS, 2, 10)


def test_family_pairs_are_priced_before_the_index_sets():
    # at H = 1000 the checkpoints of EVENS are 2 and 400: m(m - 1)/2 pairs,
    # each read at 2 checkpoints and 13 grid points, against the 2M cap
    assert len(build_scrambled_family(EVENS, 516, 1000).index_sets) == 516  # 1 993 050
    with pytest.raises(ResourceCapExceeded, match="2000790 readings"):
        build_scrambled_family(EVENS, 517, 1000)


def test_family_growth_condition():
    fam = build_scrambled_family(EVENS, 2, 100_000)
    b = fam.b
    assert all(n * b[n - 1] <= b[n] for n in range(1, len(b)))
    assert fam.log["growth_ok"]


def test_family_members_inside_S():
    S = parse_set_expr("periodic:;110")
    fam = ReferenceFamily(S, 3, 100_000, DEFAULT_GROWTH)
    for i in range(3):
        for p in fam.member_ones(i):
            assert S.contains(p)


def test_family_blocks_disjoint_across_members():
    fam = ReferenceFamily(EVENS, 2, 100_000, 20)
    ones = [set(fam.member_ones(i)) for i in range(2)]
    assert not (ones[0] & ones[1])
    # pairwise difference nonempty on every block with index in A_i \ A_j
    for i, A in enumerate(fam.index_sets):
        for n in A:
            lo, hi = fam.blocks[n - 1]
            block_ones = {p for p in ones[i] if lo < p <= hi}
            assert block_ones, "block %d of member %d is empty" % (n, i)


def test_family_members_match_the_block_definition():
    # member i holds position p exactly when p lies in a block (lo, hi] with
    # index in A_i and p is in S
    rng = random.Random(13)
    sets = [EVENS, parse_set_expr("periodic:01;0111"), parse_set_expr("union:(evens|finite:{3})")]
    for _ in range(6):
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4)))
        per = [rng.randint(0, 1) for _ in range(rng.randint(2, 9))]
        per[rng.randrange(len(per))] = 1
        sets.append(PeriodicSet(pre, tuple(per)))
    for S in sets:
        if S.eventually_periodic() is None:
            continue
        m = rng.randint(2, 4)
        H = rng.randint(2000, 30000)
        fam = ReferenceFamily(S, m, H, rng.choice((2, 5, 200)))
        for i, A in enumerate(fam.index_sets):
            ref = [0] * H
            for n in A:
                lo, hi = fam.blocks[n - 1]
                for p in range(lo + 1, hi + 1):
                    ref[p - 1] = 1 if S.contains(p) else 0
            assert fam.members[i] == bytes(ref)


def _full_horizon_profile(fam, i, j):
    """The profile of the reference family's pair from the definition,
    sweeping gaps over the whole horizon: g_k is the distance from k to the
    next disagreement, or N - k when none is visible; d_k = 2**-g_k < t is
    compared in floats, which is exact for these powers of two (gaps past 64
    are below every grid threshold)."""
    xs, ys = fam.members[i], fam.members[j]
    N = len(xs)
    gaps, nxt = [0] * N, None
    for k in range(N - 1, -1, -1):
        if xs[k] != ys[k]:
            nxt = k + 1
        gaps[k] = nxt - k if nxt is not None else N - k
    ts = sorted(Fraction(1, 2 ** a) for a in range(1, 13)) + [Fraction(1)]
    F, Fstar = [], []
    for t in ts:
        freqs = [Fraction(sum(1 for g in gaps[:m] if 2.0 ** -min(g, 64) < float(t)), m)
                 for m in fam.b]
        F.append(min(freqs))
        Fstar.append(max(freqs))
    return tuple(ts), tuple(F), tuple(Fstar)


def test_family_profile_equals_full_horizon_sweep():
    rng = random.Random(11)
    for _ in range(8):
        per = [rng.randint(0, 1) for _ in range(rng.randint(4, 10))]
        per[rng.randrange(len(per))] = 1
        S = PeriodicSet((), tuple(per))
        m, H, growth = rng.randint(2, 4), rng.randint(3000, 20000), rng.choice((3, 10, 200))
        fam = build_scrambled_family(S, m, H, growth=growth)
        ref = ReferenceFamily(S, m, H, growth)
        for i in range(m):
            for j in range(i + 1, m):
                prof = family_pair_profile(fam, i, j)
                assert (prof.thresholds, prof.F_values, prof.Fstar_values) == \
                    _full_horizon_profile(ref, i, j)
                assert prof.horizon == fam.horizon


def test_gap_series_prefix_equals_full_sweep():
    rng = random.Random(12)
    for _ in range(40):
        N = rng.randint(1, 9000)
        xs = [rng.randint(0, 1) for _ in range(N)]
        ys = list(xs)
        # disagreements only in a few stretches, so long agreeing runs lie
        # past the end of the sweep
        for _ in range(rng.randint(0, 3)):
            lo = rng.randrange(N)
            for k in range(lo, min(N, lo + rng.randint(1, 20))):
                ys[k] = rng.randint(0, 1)
        full = gap_series(xs, ys)
        for upto in {0, 1, N, rng.randint(0, N), rng.randint(0, N)}:
            assert gap_series(xs, ys, upto) == full[:upto]
    # the only disagreement past the sweep sits right at its end, or far past it
    for upto, at in ((10, 10), (10, 4106), (0, 0), (5, 8999)):
        xs, ys = [0] * 9000, [0] * 9000
        ys[at] = 1
        assert gap_series(xs, ys, upto) == gap_series(xs, ys)[:upto]


def _random_pair(rng, N, n):
    """xs and a copy with a few stretches redrawn, so both long agreeing
    runs and dense disagreements occur."""
    xs = [rng.randrange(n) for _ in range(N)]
    ys = list(xs)
    for _ in range(rng.randint(0, 4)):
        lo = rng.randrange(N)
        for k in range(lo, min(N, lo + rng.randint(1, 60))):
            ys[k] = rng.randrange(n)
    return xs, ys


def _random_checkpoints(rng, N):
    cps = {N} if rng.random() < 0.7 else set()
    cps.update(rng.randint(1, N) for _ in range(rng.randint(1, 5)))
    return sorted(cps)


_CUTOFFS = [0, 1, 2, 3, 5, 8, 13, 40, inf]


def _assert_mask_counts(xs, ys, checkpoints):
    want = gap_frequencies(gap_series(xs, ys), _CUTOFFS, checkpoints)
    assert mask_gap_frequencies(_disagreements(xs, ys), _CUTOFFS, checkpoints) == want, \
        (xs, ys, checkpoints)
    m = checkpoints[-1]
    if xs[m:] == ys[m:]:
        # a mask cut at the last checkpoint, the agreeing rest given by N
        cut = _disagreements(xs[:m], ys[:m])
        assert mask_gap_frequencies(cut, _CUTOFFS, checkpoints, len(xs)) == want, \
            (xs, ys, checkpoints)


def test_mask_gap_counts_match_the_per_position_reference():
    rng = random.Random(2110)
    for trial in range(400):
        n = rng.randint(2, 5)
        N = rng.randint(1, 300)
        xs, ys = _random_pair(rng, N, n)
        cps = _random_checkpoints(rng, N)
        _assert_mask_counts(xs, ys, cps)
        _assert_mask_counts(bytes(xs), bytes(ys), cps)
        _assert_mask_counts(tuple(xs), tuple(ys), cps)
    # a symbol past one byte only comes as a tuple
    xs, ys = _random_pair(rng, 200, 3)
    xs[rng.randrange(200)] = ys[17] = 300
    _assert_mask_counts(tuple(xs), tuple(ys), _random_checkpoints(rng, 200))
    assert bytes(map(int, _disagreements((300, 1), (300, 2)))) == b"\x00\x01"


def test_mask_gap_counts_at_the_ends():
    rng = random.Random(2111)
    for N in (1, 2, 7, 64, 300):
        for n in (2, 4):
            xs, ys = _random_pair(rng, N, n)
            # a disagreement at the last position
            last = list(ys)
            last[-1] = (xs[-1] + 1) % n
            # nothing to tell the pair apart past the last checkpoint
            m = rng.randint(1, N)
            calm = list(ys[:m]) + list(xs[m:])
            for y in (last, calm, list(xs)):
                for cps in ([N], [m], sorted({1, m, N})):
                    _assert_mask_counts(bytes(xs), bytes(y), cps)
                    _assert_mask_counts(tuple(xs), tuple(y), cps)


def test_exact_profile_counts_the_two_cycle_gaps():
    # over (p, p + 2c] every shift in the first cycle meets its next
    # disagreement within c places, so the first c gaps are exact
    rng = random.Random(2112)
    for _ in range(200):
        n = rng.randint(2, 4)
        x = _random_point(rng, n, rng.randint(0, 5), rng.randint(1, 12))
        y = _random_point(rng, n, rng.randint(0, 5), rng.randint(1, 12))
        p = max(len(x.preperiod), len(y.preperiod))
        c = lcm(len(x.period), len(y.period))
        xs, ys = x.prefix(p + 2 * c)[p:], y.prefix(p + 2 * c)[p:]
        if xs == ys:
            continue
        gaps = gap_series(xs, ys, c)
        prof = distribution_profile(x, y)
        assert prof.thresholds[0] == Fraction(1, n ** (max(gaps) + 1))
        cutoffs = [gap_cutoff(n, t) for t in prof.thresholds]
        assert prof.F_values == tuple(row[0] for row in gap_frequencies(gaps, cutoffs, (c,)))


@pytest.mark.parametrize("n", [2, 3, 10, 257])
def test_gap_cutoff_matches_the_fraction_scale_loop(n):
    # the grid's cutoff e + 1 for n**-e against the scale loop
    for k in (0, 1, 2, 12, 40):
        thresholds, cutoffs = _grid(n, k)
        assert thresholds == tuple(sorted(thresholds)) and thresholds[-1] == 1
        assert thresholds[0] == Fraction(1, n ** k)
        assert cutoffs == [gap_cutoff(n, t) for t in thresholds], (n, k)


def test_mixed_bytes_tuple_pair_profile_is_the_tuple_profile():
    rng = random.Random(2113)
    for _ in range(30):
        N = rng.randint(1, 500)
        xs, ys = _random_pair(rng, N, rng.randint(2, 3))
        cps = _random_checkpoints(rng, N)
        want = empirical_profile(tuple(xs), tuple(ys), checkpoints=cps)
        for pair in ((bytes(xs), tuple(ys)), (tuple(xs), bytes(ys)),
                     (bytes(xs), bytes(ys)), (xs, bytearray(ys))):
            assert empirical_profile(*pair, checkpoints=cps) == want


def test_family_memory_is_set_by_the_blocks():
    # the family and its three pair profiles hold a few block shapes, at a
    # horizon of 3e5 as at one past every memory
    S = parse_set_expr("periodic:;110")
    for H in (300_000, 3 * 10 ** 18):
        tracemalloc.start()
        try:
            fam = build_scrambled_family(S, 3, H)
            for i, j in ((0, 1), (0, 2), (1, 2)):
                family_pair_profile(fam, i, j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, (H, peak)


def test_family_at_a_horizon_of_1e8_runs_in_a_small_child():
    # the member-per-horizon construction peaked at 556 MiB here. The child
    # reads its own VmHWM: ru_maxrss of an exec'd child also carries the high
    # water mark of the process it was forked from, this test runner
    child = ("import sys\n"
             "from shiftlab.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "with open('/proc/self/status') as f:\n"
             "    sys.stderr.write(next(l for l in f if l.startswith('VmHWM:')))\n"
             "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shiftlab.__file__)))
    argv = ["chaos", "family", "--set", "evens", "--members", "4", "--horizon", "100000000"]
    run = subprocess.run([sys.executable, "-c", child] + argv, env=env,
                         capture_output=True, text=True, check=False, timeout=120)
    assert run.returncode == 0, run.stderr
    hwm = run.stderr.split()
    assert hwm[0] == "VmHWM:" and hwm[2] == "kB" and int(hwm[1]) < 64 * 1024, run.stderr
    assert json.loads(run.stdout)["result"]["horizon"] == 10 ** 8


def _seeded_family_sets(rng):
    """Eventually periodic S with period <= 24 and preperiod <= 8, one with
    a preperiod longer than b_1, and a cofinite S of period 1."""
    sets = [PeriodicSet((0,) * 8, (1, 0)), PeriodicSet((1, 0, 1, 1, 0, 0, 0), (0, 1, 1)),
            ComplementSet(FiniteSet(frozenset({1, 2, 6}))), EVENS]
    for trial in range(36):
        # every other S has a short period under a long preperiod, so that
        # the first blocks overlap the preperiod
        short = trial % 2
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(3 * short, 8)))
        per = [rng.randint(0, 1) for _ in range(rng.randint(1, 4 if short else 24))]
        per[rng.randrange(len(per))] = 1
        sets.append(PeriodicSet(pre, tuple(per)))
    return sets


def test_family_matches_the_bytes_reference():
    # every Fraction, log entry and checkpoint chaos family prints, against
    # the construction that builds each member as H bytes
    rng = random.Random(37)
    long_pre = 0
    for S in _seeded_family_sets(rng):
        m, growth = rng.randint(2, 5), rng.choice((2, 5, 200))
        H = int(10 ** rng.uniform(2, 6))
        try:
            ref = ReferenceFamily(S, m, H, growth)
        except PreconditionError:  # no block below H
            with pytest.raises(PreconditionError):
                build_scrambled_family(S, m, H, growth=growth)
            continue
        fam = build_scrambled_family(S, m, H, growth=growth)
        assert (fam.b, fam.blocks, fam.index_sets, fam.horizon, fam.log) == \
            (ref.b, ref.blocks, ref.index_sets, H, ref.log), (S, m, H, growth)
        long_pre += len(S.eventually_periodic()[0]) > fam.b[0]
        for i in range(m):
            for j in range(m):
                assert family_pair_frequencies(fam, i, j) == ref.pair_frequencies(i, j)
                if i <= j:
                    assert family_pair_profile(fam, i, j) == ref.pair_profile(i, j), \
                        (S, m, H, growth, i, j)
    assert long_pre


def test_cycle_windows_are_the_prefix_slice():
    # bytes by whole-period repetition up to 256 symbols, tuples past it
    rng = random.Random(49)
    for n in (2, 3, 256, 257):
        for _ in range(40):
            x = _random_point(rng, n, rng.randint(0, 6), rng.randint(1, 13))
            y = _random_point(rng, n, rng.randint(0, 6), rng.randint(1, 13))
            p = max(len(x.preperiod), len(y.preperiod))
            c, xs, ys = _cycle(x, y)
            assert c == lcm(len(x.period), len(y.period))
            assert type(xs) is type(ys) is (bytes if n <= 256 else tuple)
            assert (tuple(xs), tuple(ys)) == (x.prefix(p + c)[p:], y.prefix(p + c)[p:])


def test_family_measured_frequencies_evens():
    fam = build_scrambled_family(EVENS, 2, 100_000)
    rows = family_pair_frequencies(fam, 0, 1)
    diff_at = {cp: d for cp, d, _ in rows}
    equal_at = {cp: e for cp, _, e in rows}
    # the end of block 1 shows the Diff target, the following gap restores Equal
    assert any(diff_at[b] >= Fraction(2, 5) for b in fam.b)
    assert any(equal_at[b] >= Fraction(99, 100) for b in fam.b)


def test_family_profile_dc2_evidence():
    fam = build_scrambled_family(EVENS, 2, 100_000)
    prof = family_pair_profile(fam, 0, 1)
    assert not prof.exact
    cls = classify_pair(prof)
    assert cls.verdict == "DC2-not-DC1" and cls.evidence


def test_family_frequencies_match_the_per_position_count():
    rng = random.Random(43)
    for S, m, horizon in ((EVENS, 2, 5000), (parse_set_expr("periodic:;110"), 3, 7000),
                          (parse_set_expr("periodic:1;0110100"), 2, 20000)):
        # rebuilt to end on a checkpoint, so the last one equals the horizon
        growth = rng.randint(2, 5)
        end = build_scrambled_family(S, m, horizon, growth=growth).b[-1]
        fam = build_scrambled_family(S, m, end, growth=growth)
        ref = ReferenceFamily(S, m, end, growth)
        for i in range(m):
            for j in range(m):
                xs, ys = ref.members[i], ref.members[j]
                want = []
                for cp in fam.b:
                    diff = sum(1 for p in range(cp) if xs[p] != ys[p])
                    want.append((cp, Fraction(diff, cp), 1 - Fraction(diff, cp)))
                assert family_pair_frequencies(fam, i, j) == want
        assert fam.b[-1] == fam.horizon


def test_family_three_members_pairwise():
    S = parse_set_expr("periodic:;110")   # density 2/3
    fam = build_scrambled_family(S, 3, 100_000, growth=20)
    for i in range(3):
        for j in range(i + 1, 3):
            rows = family_pair_frequencies(fam, i, j)
            assert max(d for _, d, _ in rows) >= Fraction(1, 2)


# -- property tests -----------------------------------------------------------

points = st.builds(
    periodic_point,
    st.lists(st.integers(0, 1), max_size=3),
    st.lists(st.integers(0, 1), min_size=1, max_size=5),
)


@given(points, points)
@settings(max_examples=40)
def test_profile_invariants_property(x, y):
    prof = distribution_profile(x, y)
    assert list(prof.F_values) == sorted(prof.F_values)
    assert all(f <= fs for f, fs in zip(prof.F_values, prof.Fstar_values))
    assert prof.F_values[-1] == 1  # above the diameter everything is below t


@given(points, points)
@settings(max_examples=40)
def test_diff_equal_sum_to_one(x, y):
    d, e = diff_equal_densities(x, y)
    assert d + e == 1
    assert 0 <= d <= 1


@given(points, points)
@settings(max_examples=30)
def test_lemma_equivalence_property(x, y):
    _ud_positive_iff_F_below_one(x, y)
