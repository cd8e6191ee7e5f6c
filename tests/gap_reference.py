"""The per-position gap series of a pair of finite sequences: the reference
the run-length gap counts of `shiftlab.chaos` are checked against. Also the
exact Diff/Equal densities of an eventually periodic pair, which its exact
profile holds as F(1/n). Also the empirical profile of a pair of finite
sequences, read off their whole disagreement mask: the reference for the
scrambled family's block-wise profiles.

g_j = k - j + 1 for the least k >= j with xs[k] != ys[k]; when no
disagreement is visible after j the true distance is below n**-(N-j), and
that lower bound on the gap, N - j, stands in for it. It holds one list entry
per position, so tests run it on short prefixes. Also the threshold cutoffs
as a Fraction scale loop, the reference for the grid's cutoffs."""

from collections import Counter
from fractions import Fraction
from math import inf, lcm

from shiftlab.chaos import DistributionProfile, _closed_gaps, _disagreements
from shiftlab.errors import PreconditionError


def gap_cutoff(n, t):
    """Smallest g with n**-g < t, infinite for t <= 0: the scale n**-g is
    divided down by n as a Fraction until it falls below t."""
    if t <= 0:
        return inf
    g = 0
    scale = Fraction(1)
    while scale >= t:
        scale /= n
        g += 1
    return g


def gap_series(xs, ys, upto=None):
    """Gaps g_j for j = 0..upto-1 (upto defaults to the length N), one
    backward sweep from the first disagreement at or past `upto`."""
    N = len(xs)
    if len(ys) != N:
        raise ValueError("the pair needs equal-length prefixes")
    upto = N if upto is None else upto
    nxt = next((j for j in range(upto, N) if xs[j] != ys[j]), N) + 1  # 1-based
    gaps = [0] * upto
    for j in range(upto - 1, -1, -1):
        if xs[j] != ys[j]:
            nxt = j + 1
        gaps[j] = nxt - j if nxt <= N else N - j
    return gaps


def gap_frequencies(gaps, cutoffs, checkpoints):
    """rows[i][k] = #{j < m_k : g_j >= cutoffs[i]} / m_k, counted gap by gap."""
    return [[Fraction(sum(1 for g in gaps[:m] if g >= cut), m) for m in checkpoints]
            for cut in cutoffs]


def diff_equal_densities(x, y):
    """(d, e): the exact densities of Diff(x, y) = {i : x_i != y_i} and of its
    complement Equal(x, y) for eventually periodic x and y. Past the longer
    preperiod p the pair repeats every c places, c the lcm of the periods, so
    both limits exist; the prefixes are compared coordinate by coordinate
    over the one cycle (p, p + c]."""
    p = max(len(x.preperiod), len(y.preperiod))
    c = lcm(len(x.period), len(y.period))
    xs, ys = x.prefix(p + c), y.prefix(p + c)
    d = Fraction(sum(1 for i in range(p, p + c) if xs[i] != ys[i]), c)
    return d, 1 - d


def mask_gap_frequencies(mask, cutoffs, checkpoints, N=None):
    """rows[i][k] = #{j < m_k : g_j >= cutoffs[i]} / m_k for the ascending
    checkpoints m_k <= len(mask), where g_j = k - j + 1 for the least k >= j
    with mask[k] = 1, or N - j when there is none. N defaults to len(mask);
    a longer N stands for a pair that agrees from len(mask) to N.

    A segment of length s (a run of zeros and the 1 that closes it, or the
    run past the last 1) holds the gaps s, s-1, ..., 1, so a level L >= 1
    counts max(0, s - L + 1) of them. The segments closed before a
    checkpoint are tallied once, by length; the segment open at the
    checkpoint adds its positions before it."""
    N = len(mask) if N is None else N
    levels = [max(cut, 1) for cut in cutoffs]  # every gap is >= 1
    closed = [0] * len(levels)  # gaps >= each level in the closed segments
    rows = [[] for _ in levels]
    start = 0  # where the open segment starts
    for m in checkpoints:
        last = mask.rfind(1, start, m)
        if last >= 0:
            _closed_gaps(Counter(map(len, mask[start:last].split(b"\x01"))), levels, closed)
            start = last + 1
        nxt = mask.find(1, m)
        top = (N if nxt < 0 else nxt + 1) - start  # the open segment's length
        low = top - (m - start) + 1  # the least of its gaps before m
        for i, L in enumerate(levels):
            rows[i].append(Fraction(closed[i] + max(0, top - max(L, low) + 1), m))
    return rows


def empirical_profile(xs, ys, thresholds=None, checkpoints=None, n=2):
    """F and F* of a pair of equal-length finite sequences as the min and max
    of its prefix frequencies at the checkpoints (by default 16, 64, ...
    below the length N, and N), the mask cut at the last checkpoint when the
    pair agrees past it."""
    if not (type(xs) is bytes and type(ys) is bytes):
        xs, ys = tuple(xs), tuple(ys)
    N = len(xs)
    if N == 0:
        raise PreconditionError("empty prefixes")
    if thresholds is None:
        thresholds = [Fraction(1, n ** a) for a in range(12, 0, -1)] + [Fraction(1)]
    thresholds = tuple(sorted(thresholds))
    if checkpoints is None:
        checkpoints = []
        m = 16
        while m < N:
            checkpoints.append(m)
            m *= 4
        checkpoints.append(N)
    checkpoints = tuple(sorted(set(min(m, N) for m in checkpoints if m > 0)))
    if not checkpoints:
        raise PreconditionError("no positive checkpoint")
    if len(ys) != N:
        raise PreconditionError("empirical pair needs equal-length prefixes")
    m = checkpoints[-1]
    if xs[m:] == ys[m:]:
        # nothing past the last checkpoint to find: the mask can stop there
        xs, ys = xs[:m], ys[:m]
    cutoffs = [gap_cutoff(n, t) for t in thresholds]
    rows = mask_gap_frequencies(_disagreements(xs, ys), cutoffs, checkpoints, N)
    F = [min(freqs) for freqs in rows]
    Fstar = [max(freqs) for freqs in rows]
    fstar_one = all(v >= Fraction(99, 100) for v in Fstar)
    return DistributionProfile(n=n, thresholds=thresholds, F_values=tuple(F),
                               Fstar_values=tuple(Fstar), exact=False,
                               fstar_one_everywhere=fstar_one,
                               horizon=N, checkpoints=checkpoints)
