"""Distribution functions of orbit-distance time series and the constructive
scrambled-family machinery.

For a pair of points x, y the time series is d_j = rho(sigma^j x, sigma^j y).
The lower distribution F(t) is the liminf of prefix frequencies of
{j : d_j < t}; the upper distribution F* is the limsup. For an eventually
periodic pair the series is itself eventually periodic, so both functions are
a single exact step function with breakpoints at the rationals n**-k.

Distances are handled through their integer gaps g_j (d_j = n**-g_j), and
d_j < t iff g_j reaches the cutoff of t, so a profile is read from a
histogram of gap values. An exact profile and an empirical one run the same
gap sweep: past the longer preperiod p the pair repeats with the cycle
length c, so the sweep runs over the two-cycle window (p, p + 2c] read by
``prefix``, where every shift in the first cycle meets its next
disagreement within c places and its gap is exact. An exact profile costs
O(c + |grid|) integer operations, and an empirical one is linear in its
last checkpoint.

Generator-backed pairs (the scrambled family below) get empirical profiles:
prefix frequencies measured at the construction's own checkpoints b_n, with
liminf estimated by the minimum over checkpoints and limsup by the maximum.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import inf, lcm
from operator import ne

from .core import EventuallyPeriodicPoint, Record, set_field
from .errors import AlphabetMismatch, PreconditionError
from .sets import IntSetSpec

DEFAULT_GROWTH = 200
_CHUNK = 4096  # positions per slice comparison when skipping an equal stretch


# -- exact machinery for eventually periodic pairs ----------------------------

def _check_pair(x, y):
    if x.alphabet != y.alphabet:
        raise AlphabetMismatch("%r vs %r" % (x.alphabet, y.alphabet))


def _cycle_window(x, y):
    """(c, xs, ys): the cycle length c and both points over (p, p + 2c], with
    p the longer preperiod; beyond index p the pair repeats every c places."""
    p = max(len(x.preperiod), len(y.preperiod))
    c = lcm(len(x.period), len(y.period))
    return c, x.prefix(p + 2 * c)[p:], y.prefix(p + 2 * c)[p:]


def diff_equal_densities(x, y):
    """Exact (upper = asymptotic) densities of Diff(x,y) = {i : x_i != y_i}
    and its complement Equal(x,y); both limits exist for eventually periodic
    pairs."""
    _check_pair(x, y)
    c, xs, ys = _cycle_window(x, y)
    d = Fraction(sum(map(ne, xs[:c], ys[:c])), c)
    return d, 1 - d


class DistributionProfile(Record):
    """F and F* sampled on a threshold grid.

    `fstar_one_everywhere` records whether F*(t) = 1 for every t > 0 (not just
    on the grid): exactly decidable in the exact case, a tolerance judgement
    (threshold 0.99 on every grid point) in the empirical case.
    """

    __slots__ = ("n", "thresholds", "F_values", "Fstar_values", "exact",
                 "fstar_one_everywhere", "horizon", "checkpoints")

    def __init__(self, n, thresholds, F_values, Fstar_values, exact,
                 fstar_one_everywhere, horizon=None, checkpoints=()):
        set_field(self, "n", n)
        set_field(self, "thresholds", thresholds)
        set_field(self, "F_values", F_values)
        set_field(self, "Fstar_values", Fstar_values)
        set_field(self, "exact", exact)
        set_field(self, "fstar_one_everywhere", fstar_one_everywhere)
        set_field(self, "horizon", horizon)
        set_field(self, "checkpoints", checkpoints)

    def to_json(self):
        rows = []
        for t, f, fs in zip(self.thresholds, self.F_values, self.Fstar_values):
            rows.append({"t": _threshold_str(self.n, t),
                         "F": str(f), "Fstar": str(fs)})
        out = {"exact": self.exact, "grid": rows,
               "fstar_one_everywhere": self.fstar_one_everywhere}
        if not self.exact:
            out["horizon"] = self.horizon
            out["checkpoints"] = list(self.checkpoints)
        return out


def _threshold_str(n, t):
    if t >= 1:
        return str(t)
    # render n**-k thresholds symbolically, anything else as a plain fraction
    num, den = t.numerator, t.denominator
    if num == 1:
        k, q = 0, 1
        while q < den:
            q *= n
            k += 1
        if q == den:
            return "%d^-%d" % (n, k)
    return str(t)


def _default_grid(n, max_k):
    grid = [Fraction(1, n ** a) for a in range(max_k, 0, -1)]
    grid.append(Fraction(1))
    return grid


def distribution_profile(x, y, thresholds=None, checkpoints=None, n=None):
    """Exact profile for a pair of eventually periodic points; empirical
    profile (measured at checkpoints up to the prefix length) for a pair of
    finite symbol sequences."""
    if isinstance(x, EventuallyPeriodicPoint) and isinstance(y, EventuallyPeriodicPoint):
        return _exact_profile(x, y, thresholds)
    if isinstance(x, EventuallyPeriodicPoint) or isinstance(y, EventuallyPeriodicPoint):
        raise PreconditionError("mixed exact/empirical pair is not supported")
    if n is None:
        n = 2
    return _empirical_profile(tuple(x), tuple(y), thresholds, checkpoints, n)


def _exact_profile(x, y, thresholds):
    _check_pair(x, y)
    n = x.alphabet.size
    c, xs, ys = _cycle_window(x, y)
    agreeing = xs[:c] == ys[:c]
    gaps = None if agreeing else _gap_series(xs, ys, c)
    if thresholds is None:
        thresholds = _default_grid(n, 2 if agreeing else max(gaps) + 1)
    thresholds = tuple(sorted(thresholds))
    if agreeing:
        # every distance is 0 from the cycle on, so d_j < t iff t > 0
        F = tuple(Fraction(1 if t > 0 else 0) for t in thresholds)
    else:
        cutoffs = [_gap_cutoff(n, t) for t in thresholds]
        F = tuple(row[0] for row in _prefix_frequencies(gaps, cutoffs, (c,)))
    return DistributionProfile(n=n, thresholds=thresholds, F_values=F,
                               Fstar_values=F, exact=True,
                               fstar_one_everywhere=agreeing)


def _gap_series(xs, ys, upto=None):
    """Gaps g_j with d_j = n**-g_j for j = 0..upto-1 (upto defaults to the
    length N); when no disagreement is visible after j the true distance is
    below n**-(N-j), and that lower bound on the gap stands in for it.
    Distances are handled through their exponents to avoid materializing
    n**100000-denominator rationals. Past `upto` only the first disagreement
    is needed, so the backward sweep starts there."""
    N = len(xs)
    if len(ys) != N:
        raise PreconditionError("empirical pair needs equal-length prefixes")
    upto = N if upto is None else upto
    nxt = _first_disagreement_from(xs, ys, upto) + 1  # 1-based, scanning backwards
    gaps = [0] * upto
    for j in range(upto - 1, -1, -1):
        if xs[j] != ys[j]:
            nxt = j + 1
        gaps[j] = nxt - j if nxt <= N else N - j
    return gaps


def _first_disagreement_from(xs, ys, start):
    """The least 0-based j >= start with xs[j] != ys[j], else len(xs); equal
    chunks are skipped by one slice comparison each."""
    N = len(xs)
    for lo in range(start, N, _CHUNK):
        hi = min(lo + _CHUNK, N)
        if xs[lo:hi] != ys[lo:hi]:
            return next(j for j in range(lo, hi) if xs[j] != ys[j])
    return N


def _gap_cutoff(n, t):
    """Smallest g with n**-g < t, so d_j < t iff g_j >= cutoff; infinite for
    t <= 0, which no distance is below."""
    if t <= 0:
        return inf
    g = 0
    scale = Fraction(1)
    while scale >= t:
        scale /= n
        g += 1
    return g


def _prefix_frequencies(gaps, cutoffs, checkpoints):
    """rows[i][k] = #{j <= m_k : g_j >= cutoffs[i]} / m_k for the ascending
    checkpoints m_k <= len(gaps). One pass over the gaps up to the last
    checkpoint tallies each segment's histogram of gap values into buckets
    between the sorted cutoffs; a checkpoint then reads its frequencies from
    the bucket tail sums, so the cost is O(m_last + |cutoffs|*|checkpoints|)
    integer steps plus one Fraction per row entry."""
    levels = sorted(set(cutoffs))
    # tally[b]: gaps g so far with exactly b levels <= g
    tally = [0] * (len(levels) + 1)
    at_least = {cut: [] for cut in levels}
    prev = 0
    for m in checkpoints:
        for g, count in Counter(gaps[prev:m]).items():
            tally[bisect_right(levels, g)] += count
        prev = m
        above = 0
        for b in range(len(levels), 0, -1):
            above += tally[b]
            at_least[levels[b - 1]].append(Fraction(above, m))
    return [at_least[cut] for cut in cutoffs]


def _empirical_profile(xs, ys, thresholds, checkpoints, n):
    N = len(xs)
    if N == 0:
        raise PreconditionError("empty prefixes")
    if thresholds is None:
        thresholds = _default_grid(n, 12)
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
    gaps = _gap_series(xs, ys, checkpoints[-1])
    cutoffs = [_gap_cutoff(n, t) for t in thresholds]
    rows = _prefix_frequencies(gaps, cutoffs, checkpoints)
    F = [min(freqs) for freqs in rows]
    Fstar = [max(freqs) for freqs in rows]
    fstar_one = all(v >= Fraction(99, 100) for v in Fstar)
    return DistributionProfile(n=n, thresholds=thresholds, F_values=tuple(F),
                               Fstar_values=tuple(Fstar), exact=False,
                               fstar_one_everywhere=fstar_one,
                               horizon=N, checkpoints=checkpoints)


# -- classification -----------------------------------------------------------

class PairClass(Record):
    __slots__ = ("verdict", "evidence", "certificates")

    def __init__(self, verdict, evidence, certificates=None):
        set_field(self, "verdict", verdict)    # DC1 | DC2-not-DC1 | DC3-not-DC2 | none
        set_field(self, "evidence", evidence)  # empirical verdicts are evidence, never exact
        set_field(self, "certificates", {} if certificates is None else certificates)

    def to_json(self):
        return {"verdict": self.verdict, "evidence": self.evidence,
                "certificates": {k: str(v) for k, v in self.certificates.items()}}


def classify_pair(profile):
    """DC1: F* = 1 for all t > 0 and F(s) = 0 for some s. DC2: same upper
    condition with F(s) < 1. DC3: F < F* on a subinterval of positive length
    (two consecutive grid thresholds). Empirical profiles use tolerances
    (F* >= 0.99, F <= 0.01 for 'zero', F <= 0.9 for 'below one') and the
    verdict is tagged as evidence."""
    ts, F, Fs = profile.thresholds, profile.F_values, profile.Fstar_values
    evidence = not profile.exact
    one_tol = Fraction(1) if profile.exact else Fraction(9, 10)
    certs = {}
    if profile.fstar_one_everywhere:
        # a measured prefix-frequency minimum of 0 does not evidence
        # liminf = 0, so only exact profiles can earn the DC1 verdict
        zero_at = None
        if profile.exact:
            zero_at = next((t for t, f in zip(ts, F) if f == 0 and t > 0), None)
        small_at = next((t for t, f in zip(ts, F) if f < one_tol and t > 0), None)
        if zero_at is not None:
            certs["F_zero_at"] = zero_at
            return PairClass("DC1", evidence, certs)
        if small_at is not None:
            certs["F_below_one_at"] = small_at
            return PairClass("DC2-not-DC1", evidence, certs)
    gap_tol = Fraction(0) if profile.exact else Fraction(1, 20)
    for i in range(len(ts) - 1):
        if F[i] + gap_tol < Fs[i] and F[i + 1] + gap_tol < Fs[i + 1]:
            certs["F_lt_Fstar_on"] = (ts[i], ts[i + 1])
            return PairClass("DC3-not-DC2", evidence, certs)
    return PairClass("none", evidence, certs)


# -- the scrambled family -----------------------------------------------------

class ScrambledFamily(Record):
    """members: m characteristic sequences, tuples of 0/1 bits; b: the
    checkpoint sequence b_1 < b_2 < ...; blocks: ((lo, hi), ...) with block
    n = (b_{2n-1}, b_{2n}]; index_sets: A_i as tuples of block indices within
    range; density: the exact density of S."""

    __slots__ = ("members", "horizon", "b", "blocks", "index_sets", "density", "log")

    def __init__(self, members, horizon, b, blocks, index_sets, density, log):
        set_field(self, "members", members)
        set_field(self, "horizon", horizon)
        set_field(self, "b", b)
        set_field(self, "blocks", blocks)
        set_field(self, "index_sets", index_sets)
        set_field(self, "density", density)
        set_field(self, "log", log)

    def member_ones(self, i):
        return [p + 1 for p, bit in enumerate(self.members[i]) if bit]


def build_scrambled_family(S, m, horizon, growth=DEFAULT_GROWTH):
    """Family of m binary sequences whose pairwise Diff sets concentrate on
    sparse block ranges of S.

    Checkpoints b_n are multiples of the period of S (so prefix densities on
    blocks are exact) and grow by a factor max(n, growth); the growth factor
    keeps the classical condition n*b_n <= b_{n+1} while pushing the gap
    ranges wide enough that finite-horizon frequency measurements approach
    their limits. Block n is S restricted to (b_{2n-1}, b_{2n}]; member i
    takes the blocks with index congruent to i mod m; the in-between ranges
    (b_{2n}, b_{2n+1}] are empty for every member, which is what drives the
    Equal frequency toward 1.
    """
    if m < 2:
        raise PreconditionError("need at least 2 members")
    if growth < 2:
        raise PreconditionError("growth must be >= 2, got %d" % growth)
    if not isinstance(S, IntSetSpec):
        raise PreconditionError("S must be an integer-set spec")
    ep = S.eventually_periodic()
    if ep is None:
        raise PreconditionError("S must be eventually periodic")
    pre, per = ep
    dens = Fraction(sum(per), len(per))
    if dens == 0:
        raise PreconditionError("S has density 0; the construction needs ud(S) > 0")
    period = len(per)
    b = [period if period > 1 else 2]
    while True:
        n_idx = len(b)
        target = max(n_idx, growth) * b[-1]
        nxt = -(-target // period) * period
        if nxt > horizon:
            break
        b.append(nxt)
    if len(b) < 2:
        raise PreconditionError(
            "horizon %d too small for even one block at growth %d" % (horizon, growth))
    blocks = []
    n_blocks = len(b) // 2
    for k in range(n_blocks):
        blocks.append((b[2 * k], b[2 * k + 1]))
    index_sets = tuple(tuple(n for n in range(1, n_blocks + 1) if n % m == i % m)
                       for i in range(m))
    bits_S = S.bits(horizon)
    members = []
    for A in index_sets:
        # one byte per position as scratch, not a horizon-long list
        bits = bytearray(horizon)
        for n in A:
            lo, hi = blocks[n - 1]
            bits[lo:hi] = bytes(bits_S[lo:hi])
        members.append(tuple(bits))
    log = {
        "b": list(b),
        "growth_ok": all(k * b[k - 1] <= b[k] for k in range(1, len(b))),
        "blocks": [list(bl) for bl in blocks],
        "index_sets": [list(A) for A in index_sets],
        "density": str(dens),
        "growth": growth,
        "block_ones": [sum(bits_S[lo:hi]) for lo, hi in blocks],
    }
    return ScrambledFamily(members=tuple(members), horizon=horizon, b=tuple(b),
                           blocks=tuple(blocks), index_sets=index_sets,
                           density=dens, log=log)


def family_pair_profile(fam, i, j):
    """Empirical distribution profile of members i and j, measured at the
    construction's own checkpoints."""
    return distribution_profile(fam.members[i], fam.members[j],
                                checkpoints=fam.b, n=2)


def family_pair_frequencies(fam, i, j):
    """Raw Diff/Equal prefix frequencies at every checkpoint b_n, for the
    window-level assertions about the construction."""
    xs, ys = fam.members[i], fam.members[j]
    rows = []
    diff = prev = 0
    for cp in fam.b:
        diff += sum(map(ne, xs[prev:cp], ys[prev:cp]))
        prev = cp
        rows.append((cp, Fraction(diff, cp), 1 - Fraction(diff, cp)))
    return rows


# -- minimal DC1-style certificate for syndetic points ------------------------

def dc1_minimal_witness(x, k):
    """For x with no k-run of zeros, pair x with 0^infinity: every shifted
    distance is at least n**-k, so F(n**-k) = 0 exactly. The other half of the
    DC1 definition (F* = 1 for all t > 0) requires the Equal set to have upper
    density one, which fails for periodic x; both certificate components are
    reported separately."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    n = x.alphabet.size
    span = len(x.preperiod) + 2 * len(x.period) + k
    run = 0
    for s in x.prefix(span):
        run = run + 1 if s == 0 else 0
        if run >= k:
            raise PreconditionError("x has a zero run of length %d" % k)
    zero = EventuallyPeriodicPoint(x.alphabet, (), (0,))
    t = Fraction(1, n ** k)
    profile = _exact_profile(x, zero, _default_grid(n, k + 1))
    f_at_t = profile.F_values[profile.thresholds.index(t)]
    cls = classify_pair(profile)
    certs = dict(cls.certificates)
    certs["F_at_threshold"] = t
    certs["F_value"] = f_at_t
    certs["fstar_one_everywhere"] = profile.fstar_one_everywhere
    return PairClass(cls.verdict, cls.evidence, certs)
