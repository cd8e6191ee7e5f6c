"""Distribution functions of orbit-distance time series and the constructive
scrambled-family machinery.

For a pair of points x, y the time series is d_j = rho(sigma^j x, sigma^j y).
The lower distribution F(t) is the liminf of prefix frequencies of
{j : d_j < t}; the upper distribution F* is the limsup. For an eventually
periodic pair the series is itself eventually periodic, so both functions are
a single exact step function with breakpoints at the rationals n**-k.

Distances are handled through their integer gaps g_j (d_j = n**-g_j), and
d_j < t iff g_j reaches the cutoff of t, so a profile is a count of gaps at
or above each cutoff. A cutoff comes from integers too: the numerator and
denominator of t against powers of n, with no Fraction arithmetic. Both
kinds of profile read those counts off one disagreement mask per pair,
bytes that hold 1 exactly where the pair differs.
A run of zeros with the 1 that ends it (or the run past the last 1) is a
segment of length s whose gaps are s, s-1, ..., 1, so the counts come from
the mask's run lengths: ``split(b"\x01")`` gives the runs, a ``Counter``
groups their lengths, and each checkpoint adds the one segment it cuts. An
exact profile runs this over one cycle (p, p + c] past the longer preperiod
p, rotated to end on a disagreement, so that each segment wraps as the
periodic pair does; an empirical one cuts the mask at its last checkpoint
when the pair agrees past it. Building the mask is C-level work linear in
its length; the Python work is one step per distinct run length and cutoff,
plus one per checkpoint and cutoff.

Generator-backed pairs (the scrambled family below) get empirical profiles:
prefix frequencies measured at the construction's own checkpoints b_n, with
liminf estimated by the minimum over checkpoints and limsup by the maximum.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import inf, lcm
from operator import ne

from .core import EventuallyPeriodicPoint, Record, _same_alphabet, set_field
from .errors import PreconditionError
from .sets import IntSetSpec

DEFAULT_GROWTH = 200
_NONZERO_TO_ONE = bytes([0]) + bytes([1]) * 255  # translate table: byte != 0 -> 1


# -- exact machinery for eventually periodic pairs ----------------------------

def _cycle(x, y):
    """(c, xs, ys): the cycle length c and both points over (p, p + c], with
    p the longer preperiod; beyond index p the pair repeats every c places."""
    p = max(len(x.preperiod), len(y.preperiod))
    c = lcm(len(x.period), len(y.period))
    return c, x.prefix(p + c)[p:], y.prefix(p + c)[p:]


def _disagreements(xs, ys):
    """bytes with 1 at j exactly when xs[j] != ys[j]: one XOR of two ints for
    a pair of bytes, else one comparison per position."""
    if type(xs) is bytes and type(ys) is bytes:
        diff = int.from_bytes(xs, "big") ^ int.from_bytes(ys, "big")
        return diff.to_bytes(len(xs), "big").translate(_NONZERO_TO_ONE)
    return bytes(map(ne, xs, ys))


class DistributionProfile(Record):
    """F and F* sampled on a threshold grid.

    `fstar_one_everywhere` records whether F*(t) = 1 for every t > 0 (not just
    on the grid): exactly decidable in the exact case, a tolerance judgement
    (threshold 0.99 on every grid point) in the empirical case. `horizon`
    and `checkpoints` are the empirical case's prefix length and measuring
    points; an exact profile leaves them None and ().
    """

    __slots__ = ("n", "thresholds", "F_values", "Fstar_values", "exact",
                 "fstar_one_everywhere", "horizon", "checkpoints")
    _defaults = {"horizon": None, "checkpoints": ()}

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
    if not (type(x) is bytes and type(y) is bytes):
        x, y = tuple(x), tuple(y)
    return _empirical_profile(x, y, thresholds, checkpoints, n)


def _exact_profile(x, y, thresholds):
    _same_alphabet(x, y)
    n = x.alphabet.size
    c, xs, ys = _cycle(x, y)
    mask = _disagreements(xs, ys)
    last = mask.rfind(1)
    agreeing = last < 0
    if not agreeing:
        # the cycle rotated to end on a disagreement: every segment closes
        # inside it, exactly as it does on the periodic pair
        runs = Counter(map(len, (mask[last + 1:] + mask[:last]).split(b"\x01")))
    if thresholds is None:
        # the largest gap is the longest segment, its run and the closing 1
        top = 1 if agreeing else max(runs) + 1
        thresholds = _default_grid(n, top + 1)
    thresholds = tuple(sorted(thresholds))
    if agreeing:
        # every distance is 0 from the cycle on, so d_j < t iff t > 0
        F = tuple(Fraction(1 if t > 0 else 0) for t in thresholds)
    else:
        levels = [max(_gap_cutoff(n, t), 1) for t in thresholds]
        F = tuple(Fraction(g, c) for g in _closed_gaps(runs, levels, [0] * len(levels)))
    return DistributionProfile(n=n, thresholds=thresholds, F_values=F,
                               Fstar_values=F, exact=True,
                               fstar_one_everywhere=agreeing)


def _gap_cutoff(n, t):
    """Smallest g with n**-g < t, so d_j < t iff g_j >= cutoff; infinite for
    t <= 0, which no distance is below. Read on integers: with t = num/den
    exactly (a Fraction, int or float), n**-g < t iff den < num * n**g."""
    if t <= 0:
        return inf
    if not t <= 1:
        return 0  # t > 1, float inf or nan: g = 0, as the test n**-0 >= t fails
    num, den = t.as_integer_ratio()
    g, p = 0, 1
    while den >= num * p:
        p *= n
        g += 1
    return g


def _closed_gaps(runs, levels, closed):
    """Add to closed[i] the gaps >= levels[i] (each >= 1) of the closed
    segments whose zero-run lengths the Counter runs holds: a run r and its
    closing 1 hold the gaps r + 1, ..., 1, so r + 2 - L of them reach L."""
    for run, count in runs.items():
        for i, L in enumerate(levels):
            if run + 1 >= L:
                closed[i] += count * (run + 2 - L)
    return closed


def _gap_frequencies(mask, cutoffs, checkpoints, N=None):
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
    if len(ys) != N:
        raise PreconditionError("empirical pair needs equal-length prefixes")
    m = checkpoints[-1]
    if xs[m:] == ys[m:]:
        # nothing past the last checkpoint to find: the mask can stop there
        xs, ys = xs[:m], ys[:m]
    cutoffs = [_gap_cutoff(n, t) for t in thresholds]
    rows = _gap_frequencies(_disagreements(xs, ys), cutoffs, checkpoints, N)
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
    """members: m characteristic sequences, bytes of 0/1; b: the
    checkpoint sequence b_1 < b_2 < ...; blocks: ((lo, hi), ...) with block
    n = (b_{2n-1}, b_{2n}]; index_sets: A_i as tuples of block indices within
    range; density: the exact density of S."""

    __slots__ = ("members", "horizon", "b", "blocks", "index_sets", "density", "log")

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
    # S is read up to the last block end; past it every member is 0
    bits_S = S.bits(blocks[-1][1])
    members = []
    for A in index_sets:
        bits = bytearray(horizon)
        for n in A:
            lo, hi = blocks[n - 1]
            bits[lo:hi] = bits_S[lo:hi]
        members.append(bytes(bits))
    log = {
        "b": list(b),
        "growth_ok": all(k * b[k - 1] <= b[k] for k in range(1, len(b))),
        "blocks": [list(bl) for bl in blocks],
        "index_sets": [list(A) for A in index_sets],
        "density": str(dens),
        "growth": growth,
        "block_ones": [bits_S.count(1, lo, hi) for lo, hi in blocks],
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
    end = fam.b[-1]
    mask = _disagreements(fam.members[i][:end], fam.members[j][:end])
    rows = []
    diff = prev = 0
    for cp in fam.b:
        diff += mask.count(1, prev, cp)
        prev = cp
        rows.append((cp, Fraction(diff, cp), 1 - Fraction(diff, cp)))
    return rows
