"""Distribution functions of orbit-distance time series and the constructive
scrambled-family machinery.

For a pair of points x, y the time series is d_j = rho(sigma^j x, sigma^j y).
The lower distribution F(t) is the liminf of prefix frequencies of
{j : d_j < t}; the upper distribution F* is the limsup. For an eventually
periodic pair the series is itself eventually periodic, so both functions are
a single exact step function with breakpoints at the rationals n**-k.

Distances are handled through their integer gaps g_j (d_j = n**-g_j). A
profile is read on the grid n**-k, ..., n**-1, 1, where it can change:
d_j < t iff g_j >= e + 1 for every t in (n**-(e+1), n**-e], so it is a
count of gaps at or above each cutoff e + 1. A run of zeros in a disagreement mask
(1 exactly where the pair differs) with the 1 that ends it, or the run past
the last 1, is a segment of length s whose gaps are s, s-1, ..., 1, so the
counts come from the mask's run lengths, grouped by a ``Counter``: one step
per distinct run length and cutoff. An exact profile reads the mask over one cycle (p, p + c] past the longer
preperiod p, rotated to end on a disagreement, so that each segment wraps as
the periodic pair does. Both cycles are built by whole-period repetition, as
bytes when the alphabet fits in one, so the mask is one XOR of two ints.

Generator-backed pairs (the scrambled family below) get empirical profiles:
prefix frequencies measured at the construction's own checkpoints b_n, with
liminf estimated by the minimum over checkpoints and limsup by the maximum.
No member is built. A pair's mask is 1_S on the union of the two members'
blocks, and each block starts on a multiple of S's period, so past the
preperiod it is whole copies of one rotated cycle: its runs are the
cycle's inner runs once per copy and the run across each seam between
copies. Every checkpoint is a block edge; it adds the runs closed by the
blocks before it and cuts one open segment, which past the last block runs
to the horizon. So the cost is set by the blocks, O(blocks * (L + p) +
checkpoints * cutoffs * distinct runs), whatever the horizon.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm
from operator import ne

from .core import EventuallyPeriodicPoint, Record, _same_alphabet
from .errors import PreconditionError, ResourceCapExceeded
from .langkit import DEFAULT_NODE_CAP
from .sets import IntSetSpec

DEFAULT_GROWTH = 200
_FAMILY_DEPTH = 12  # a family pair's profile is read on the grid 2**-12, ..., 1
_NONZERO_TO_ONE = bytes([0]) + bytes([1]) * 255  # translate table: byte != 0 -> 1


# -- exact machinery for eventually periodic pairs ----------------------------

def _cycle(x, y):
    """(c, xs, ys): the cycle length c and both points over (p, p + c], with
    p the longer preperiod; beyond index p the pair repeats every c places."""
    p = max(len(x.preperiod), len(y.preperiod))
    c = lcm(len(x.period), len(y.period))
    return c, _cycle_window(x, p, c), _cycle_window(y, p, c)


def _cycle_window(x, p, c):
    """x over (p, p + c]: past its preperiod x is its period rotated to start
    at place p + 1 and repeated c / len(period) times, as bytes when every
    symbol fits in one, else as a tuple."""
    per = x.period
    k = (p - len(x.preperiod)) % len(per)
    rotated = per[k:] + per[:k]
    if x.alphabet.size <= 256:
        rotated = bytes(rotated)
    return rotated * (c // len(per))


def _disagreements(xs, ys):
    """bytes with 1 at j exactly when xs[j] != ys[j]: one XOR of two ints for
    a pair of bytes, else one comparison per position."""
    if type(xs) is bytes and type(ys) is bytes:
        diff = int.from_bytes(xs, "big") ^ int.from_bytes(ys, "big")
        return diff.to_bytes(len(xs), "big").translate(_NONZERO_TO_ONE)
    return bytes(map(ne, xs, ys))


class DistributionProfile(Record):
    """F and F* sampled on the grid n**-k, ..., n**-1, 1.

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
        k = len(self.thresholds)
        for f, fs in zip(self.F_values, self.Fstar_values):
            k -= 1  # the threshold n**-k
            rows.append({"t": "%d^-%d" % (self.n, k) if k else "1",
                         "F": str(f), "Fstar": str(fs)})
        out = {"exact": self.exact, "grid": rows,
               "fstar_one_everywhere": self.fstar_one_everywhere}
        if not self.exact:
            out["horizon"] = self.horizon
            out["checkpoints"] = list(self.checkpoints)
        return out


def _grid(n, k):
    """(thresholds, cutoffs): n**-k, ..., n**-1, 1 and the gap cutoff of
    each, e + 1 for n**-e, since n**-g < n**-e iff g >= e + 1."""
    exponents = range(k, -1, -1)
    return tuple(Fraction(1, n ** e) for e in exponents), [e + 1 for e in exponents]


def distribution_profile(x, y):
    """Exact profile for a pair of eventually periodic points."""
    if not (isinstance(x, EventuallyPeriodicPoint) and isinstance(y, EventuallyPeriodicPoint)):
        raise PreconditionError("a distribution profile needs two eventually periodic points")
    _same_alphabet(x, y)
    n = x.alphabet.size
    c, xs, ys = _cycle(x, y)
    mask = _disagreements(xs, ys)
    last = mask.rfind(1)
    if last < 0:
        # every distance is 0 from the cycle on, so d_j < t for every t > 0
        thresholds, _ = _grid(n, 2)
        F = (Fraction(1),) * len(thresholds)
    else:
        # the cycle rotated to end on a disagreement: every segment closes
        # inside it, exactly as it does on the periodic pair
        runs = Counter(map(len, (mask[last + 1:] + mask[:last]).split(b"\x01")))
        # the largest gap, the longest run and its closing 1, is max(runs) + 1;
        # the grid runs one step below it, where F is 0
        thresholds, levels = _grid(n, max(runs) + 2)
        F = tuple(Fraction(g, c) for g in _closed_gaps(runs, levels, [0] * len(levels)))
    return DistributionProfile(n=n, thresholds=thresholds, F_values=F,
                               Fstar_values=F, exact=True,
                               fstar_one_everywhere=last < 0)


def _closed_gaps(runs, levels, closed):
    """Add to closed[i] the gaps >= levels[i] (each >= 1) of the closed
    segments whose zero-run lengths the Counter runs holds: a run r and its
    closing 1 hold the gaps r + 1, ..., 1, so r + 2 - L of them reach L."""
    for run, count in runs.items():
        for i, L in enumerate(levels):
            if run + 1 >= L:
                closed[i] += count * (run + 2 - L)
    return closed


# -- classification -----------------------------------------------------------

class PairClass(Record):
    """verdict: DC1, DC2-not-DC1, DC3-not-DC2 or none; evidence: set for an
    empirical verdict, which is evidence, never exact; certificates: the
    grid points that witness the verdict."""

    __slots__ = ("verdict", "evidence", "certificates")

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
    """The family as its blocks; no member is built. b: the checkpoint
    sequence b_1 < b_2 < ...; blocks: ((lo, hi), ...) with block n =
    (b_{2n-1}, b_{2n}]; index_sets: A_i as tuples of block indices within
    range, member i being 1_S on the blocks of A_i and 0 elsewhere up to the
    horizon; density: the exact density of S; shapes: S over each block as
    (ones, first, last, runs), its number of 1s, the 0-based places of its
    first and last 1 (-1 when it has none) and a Counter of the lengths of
    the zero runs between consecutive 1s."""

    __slots__ = ("horizon", "b", "blocks", "index_sets", "density", "log", "shapes")


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

    The family is built to be measured pair by pair: m(m - 1)/2 pairs, each
    read at every checkpoint and grid point. When those readings pass
    langkit.DEFAULT_NODE_CAP, ResourceCapExceeded is raised before any
    index set is built.
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
    pairs = m * (m - 1) // 2
    readings = pairs * (len(b) + _FAMILY_DEPTH + 1)
    if readings > DEFAULT_NODE_CAP:
        raise ResourceCapExceeded(
            "%d members give %d pairs, each read at %d checkpoints and %d grid points: "
            "%d readings, over the cap of %d"
            % (m, pairs, len(b), _FAMILY_DEPTH + 1, readings, DEFAULT_NODE_CAP))
    blocks = tuple((b[2 * k], b[2 * k + 1]) for k in range(len(b) // 2))
    index_sets = tuple(tuple(n for n in range(1, len(blocks) + 1) if n % m == i % m)
                       for i in range(m))
    shapes = _block_shapes(pre, per, blocks)
    log = {
        "b": list(b),
        "growth_ok": all(k * b[k - 1] <= b[k] for k in range(1, len(b))),
        "blocks": [list(bl) for bl in blocks],
        "index_sets": [list(A) for A in index_sets],
        "density": str(dens),
        "growth": growth,
        "block_ones": [ones for ones, _, _, _ in shapes],
    }
    return ScrambledFamily(horizon=horizon, b=tuple(b), blocks=blocks, index_sets=index_sets,
                           density=dens, log=log, shapes=shapes)


def _run_shape(bits, offset):
    """(ones, first, last, runs) of the 0/1 bytes bits placed at offset."""
    first = bits.find(1)
    if first < 0:
        return 0, -1, -1, Counter()
    last = bits.rfind(1)
    runs = Counter(map(len, bits[first + 1:last].split(b"\x01"))) if first < last else Counter()
    return bits.count(1), offset + first, offset + last, runs


def _block_shapes(pre, per, blocks):
    """The shape of S over each block [lo, hi) (0-based; lo and hi are
    multiples of the period p). From E, the first multiple of p at or past
    the preperiod, S is whole copies of one rotated cycle, so a block is a
    head below E, read directly over at most L + p places, and c copies of
    the cycle: its inner runs c times and the run across the seam between
    two copies c - 1 times."""
    L, p = len(pre), len(per)
    E = -(-L // p) * p
    lead = bytes(pre) + bytes(per[:E - L])  # S over [0, E)
    ones, f, l, inner = _run_shape(bytes(per[E - L:] + per[:E - L]), 0)
    shapes = []
    for lo, hi in blocks:
        mid = min(max(lo, E), hi)
        count, first, last, runs = _run_shape(lead[lo:mid], lo)
        c = (hi - mid) // p
        if c:
            if count:
                runs[mid + f - last - 1] += 1
            else:
                first = mid + f
            for run, k in inner.items():
                runs[run] += c * k
            if c > 1:
                runs[p - 1 - l + f] += c - 1
            last = mid + (c - 1) * p + l
            count += c * ones
        shapes.append((count, first, last, runs))
    return tuple(shapes)


def _pair_checkpoints(fam, i, j):
    """(m, ones, start, nxt, runs) at each checkpoint m for the disagreement
    mask of members i and j, 1_S on the blocks of A_i ^ A_j: its 1s before m,
    one past its last 1 before m (0 with none), its first 1 at or past m
    (None with none), and a Counter of the zero runs that a 1 closed since the
    previous checkpoint. Every checkpoint is a block edge, so each block lies
    wholly before or wholly past it."""
    # the pair's blocks that hold a 1, as indices into blocks and shapes
    active = [n - 1 for n in sorted(set(fam.index_sets[i]) ^ set(fam.index_sets[j]))
              if fam.shapes[n - 1][0]]
    k = start = ones = 0
    for m in fam.b:
        runs = Counter()
        while k < len(active) and fam.blocks[active[k]][1] <= m:
            count, first, last, inner = fam.shapes[active[k]]
            runs[first - start] += 1
            runs.update(inner)
            start, ones, k = last + 1, ones + count, k + 1
        nxt = fam.shapes[active[k]][1] if k < len(active) else None
        yield m, ones, start, nxt, runs


def family_pair_profile(fam, i, j):
    """Empirical distribution profile of members i and j, measured at the
    construction's own checkpoints. A checkpoint m counts the gaps of the
    segments closed before it and those before m of the one open at m; past
    the last block that segment runs to the horizon H, the gap H - j standing
    for the pair's agreeing rest."""
    thresholds, levels = _grid(2, _FAMILY_DEPTH)
    closed = [0] * len(levels)
    rows = [[] for _ in levels]
    for m, _, start, nxt, runs in _pair_checkpoints(fam, i, j):
        _closed_gaps(runs, levels, closed)
        top = (fam.horizon if nxt is None else nxt + 1) - start  # the open segment
        low = top - (m - start) + 1  # the least of its gaps before m
        for row, L, gaps in zip(rows, levels, closed):
            row.append(Fraction(gaps + max(0, top - max(L, low) + 1), m))
    Fstar = tuple(map(max, rows))
    return DistributionProfile(n=2, thresholds=thresholds, F_values=tuple(map(min, rows)),
                               Fstar_values=Fstar, exact=False,
                               fstar_one_everywhere=all(v >= Fraction(99, 100) for v in Fstar),
                               horizon=fam.horizon, checkpoints=fam.b)


def family_pair_frequencies(fam, i, j):
    """Raw Diff/Equal prefix frequencies at every checkpoint b_n, for the
    window-level assertions about the construction."""
    return [(m, Fraction(ones, m), 1 - Fraction(ones, m))
            for m, ones, _, _, _ in _pair_checkpoints(fam, i, j)]
