"""The per-position gap series of a pair of finite sequences: the reference
the run-length gap counts of `shiftlab.chaos` are checked against. Also the
exact Diff/Equal densities of an eventually periodic pair, which its exact
profile holds as F(1/n).

g_j = k - j + 1 for the least k >= j with xs[k] != ys[k]; when no
disagreement is visible after j the true distance is below n**-(N-j), and
that lower bound on the gap, N - j, stands in for it. It holds one list entry
per position, so tests run it on short prefixes. Also the threshold cutoffs
as a Fraction scale loop, the reference for the integer cutoffs."""

from fractions import Fraction
from math import inf, lcm


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
