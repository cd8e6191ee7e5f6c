"""Integer-set calculus: subsets of N with decidable membership.

Every spec answers membership two ways: ``contains(i)`` for one integer, and
``bits(H)``, the 0/1 indicator of A cap [1, H] as ``bytes``, built by byte
operations over the set's structure (a window slice, a repeated period, the
values 2**n - 2**m, the factorial blocks, a translate for a complement, one
int or of the parts' indicators for a union), never one ``contains`` per
integer. ``mask(H)`` packs that indicator into the one int layout of a
finite set: bit i is set exactly when i is in A cap [1, H]. Every range
consumer reads ``bits(H)`` or ``mask(H)``: ``members`` and the density
estimates read the indicator (the upper and asymptotic ones count its 1
bytes, the Banach one reads its prefix counts); the difference mask (an or
of shifted masks) and the IP search read the mask, and difference_set
returns through one unpacking into a WindowSet. ``contains`` is left for
one-off queries.

The Banach estimate and the IP search walk members, not positions. A
densest window of a given length slides, without losing a member, to start
at a run of A cap [1, H] or at the last start H - L, so
upper_banach_density reads each length there alone. The IP search keeps
cand(S), the mask of the x that S may take next (x plus each finite sum of
S stays in A cap [1, bound]); adding c makes it cand & (cand >> c), and the
members skipped between two children are charged to the node cap as one
difference of indices.

The Delta-set witness reads no search of its own: D - D lies in A exactly
when the indicator word of D is in L(Omega_A), so a largest such D in
[1, H] is the 1-set of the D_H witness of the spacing shift Omega_A, from
langkit's follower walk or table DP. A node-cap trip leaves the greedy
dive, which puts each 1 at the lowest position still admissible. Both
``classify`` and the Delta* check in ``spacing`` read largest_delta_subset.

Densities are exact when the description permits (eventually periodic, or a
generator with a sparsity certificate) and finite-horizon estimates
otherwise. Estimates are never silently conflated with exact values: each
density result carries an ``exact`` flag, and classification verdicts are
finite-horizon evidence only.

Set expression grammar (round-trips bit-exactly through parse/str):

    set := finite:{a,b,c} | periodic:<pre>;<per> | complement:(set)
         | union:(set|set|...) | evens | odds | pow2diff | factorial_blocks
         | window:<bitstring>
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import reduce
from itertools import accumulate, compress
from math import lcm
from operator import or_

from .core import Record, set_field
from .errors import PreconditionError, ResourceCapExceeded, SpecParseError
from .langkit import DEFAULT_NODE_CAP, max_symbol_witness

IP_MAX_SIZE = 12
# each parenthesis nests parse_set_expr and the set methods one level deeper
MAX_SET_EXPR_PARENS = 100
# 0/1 byte -> ASCII binary digit, and 0/1 byte -> its complement
_BITS_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _indicator(values):
    """The values as bytes, 1 for a truthy one and 0 for the rest."""
    return bytes(1 if v else 0 for v in values)


class IntSetSpec:
    """Base class; subclasses implement contains(), bits() and to_expr(). The
    set classes below are also Records, compared and hashed by value; a
    subclass that is not keeps identity semantics and may set attributes."""

    __slots__ = ()

    def contains(self, i):
        raise NotImplementedError

    def bits(self, H):
        """bytes([1 if contains(i) else 0 for i in 1..H]), built from the
        set's structure by _bits(max(H, 0)); b"" for H < 1. A horizon past
        the index range (sys.maxsize) is refused before anything is built."""
        if H > sys.maxsize:
            raise ResourceCapExceeded(
                "horizon %d is past the index range (%d)" % (H, sys.maxsize))
        return self._bits(max(H, 0))

    def _bits(self, H):
        raise NotImplementedError

    def to_expr(self):
        raise NotImplementedError

    def members(self, H):
        return list(compress(range(1, H + 1), self.bits(H)))

    def mask(self, H):
        """bits(H) as one int: bit i is set exactly when i is in A cap [1, H]."""
        return int(self.bits(H)[::-1].translate(_BITS_ASCII) + b"0", 2)

    def periodic_shape(self):
        """(L, p) when membership is provably periodic with period p past L,
        read from the set's structure alone; else None."""
        return None

    def eventually_periodic(self):
        """(pre_bits, per_bits) of the lengths periodic_shape() gives, or None."""
        shape = self.periodic_shape()
        if shape is None:
            return None
        bits = self.bits(sum(shape))
        return tuple(bits[:shape[0]]), tuple(bits[shape[0]:])

    def __str__(self):
        return self.to_expr()

    def __contains__(self, i):
        return self.contains(i)


class FiniteSet(IntSetSpec, Record):
    __slots__ = ("elements",)

    def contains(self, i):
        return i in self.elements

    def _bits(self, H):
        out = bytearray(H)
        for e in self.elements:
            if 1 <= e <= H:
                out[e - 1] = 1
        return bytes(out)

    def to_expr(self):
        return "finite:{%s}" % ",".join(str(e) for e in sorted(self.elements))

    def periodic_shape(self):
        return max(self.elements, default=0), 1


class PeriodicSet(IntSetSpec, Record):
    __slots__ = ("pre", "per", "name")

    def __init__(self, pre, per, name=""):
        if not per:
            raise ValueError("period bits must be nonempty")
        set_field(self, "pre", pre)
        set_field(self, "per", per)
        set_field(self, "name", name)

    def contains(self, i):
        if i < 1:
            return False
        if i <= len(self.pre):
            return bool(self.pre[i - 1])
        return bool(self.per[(i - len(self.pre) - 1) % len(self.per)])

    def _bits(self, H):
        # whole periods by bytes repetition, so a horizon past memory fails
        # at the one allocation
        out = _indicator(self.pre[:H])
        return (out + _indicator(self.per) * -(-(H - len(out)) // len(self.per)))[:H]

    def to_expr(self):
        if self.name:
            return self.name
        return "periodic:%s;%s" % ("".join(map(str, self.pre)), "".join(map(str, self.per)))

    def periodic_shape(self):
        return len(self.pre), len(self.per)


class ComplementSet(IntSetSpec, Record):
    __slots__ = ("inner",)

    def contains(self, i):
        return i >= 1 and not self.inner.contains(i)

    def _bits(self, H):
        return self.inner.bits(H).translate(_FLIP)

    def to_expr(self):
        return "complement:(%s)" % self.inner.to_expr()

    def periodic_shape(self):
        return self.inner.periodic_shape()


class UnionSet(IntSetSpec, Record):
    __slots__ = ("parts",)

    def contains(self, i):
        return any(p.contains(i) for p in self.parts)

    def _bits(self, H):
        # 0/1 bytes or bytewise as big-endian ints
        ors = reduce(or_, (int.from_bytes(p.bits(H), "big") for p in self.parts), 0)
        return ors.to_bytes(H, "big")

    def to_expr(self):
        return "union:(%s)" % "|".join(p.to_expr() for p in self.parts)

    def periodic_shape(self):
        shapes = [p.periodic_shape() for p in self.parts]
        if None in shapes or not shapes:
            return None
        return max(L for L, _ in shapes), lcm(*[p for _, p in shapes])


class WindowSet(IntSetSpec, Record):
    """Explicit bits up to a horizon; membership beyond the horizon is unknown
    and reported as False. Density results over window sets are estimates."""

    __slots__ = ("window_bits",)

    @property
    def horizon(self):
        return len(self.window_bits)

    def contains(self, i):
        return 1 <= i <= len(self.window_bits) and bool(self.window_bits[i - 1])

    def _bits(self, H):
        out = _indicator(self.window_bits[:H])
        return out + bytes(H - len(out))

    def to_expr(self):
        return "window:%s" % "".join(map(str, self.window_bits))


class Pow2DiffSet(IntSetSpec, Record):
    """Differences of powers of two, {2**n - 2**m : n > m >= 0}.

    Membership test: i = 2**a * (2**b - 1) with b >= 1, i.e. after stripping
    trailing zero bits the remainder is all-ones in binary.
    """

    __slots__ = ()

    def contains(self, i):
        if i < 1:
            return False
        x = i >> ((i & -i).bit_length() - 1)
        return (x & (x + 1)) == 0

    def _bits(self, H):
        # the O(log^2 H) values 2**n - 2**m <= H; 2**(n-1) is the least for n
        out = bytearray(H)
        n = 1
        while 1 << (n - 1) <= H:
            for m in range(n - 1, -1, -1):
                v = (1 << n) - (1 << m)
                if v > H:
                    break
                out[v - 1] = 1
            n += 1
        return bytes(out)

    def to_expr(self):
        return "pow2diff"


class FactorialBlocksSet(IntSetSpec, Record):
    """Union of blocks [n!, n! + n) for n >= 2: asymptotic density 0 but upper
    Banach density 1 (each block is a run of n consecutive members)."""

    __slots__ = ()

    def contains(self, i):
        if i < 2:
            return False
        f, n = 2, 2
        while f <= i:
            if f <= i < f + n:
                return True
            n += 1
            f *= n
        return False

    def _bits(self, H):
        out = bytearray(H)
        f, n = 2, 2
        while f <= H:
            end = min(f + n, H + 1)
            out[f - 1:end - 1] = b"\x01" * (end - f)
            n += 1
            f *= n
        return bytes(out)

    def to_expr(self):
        return "factorial_blocks"


EVENS = PeriodicSet((), (0, 1), name="evens")
ODDS = PeriodicSet((), (1, 0), name="odds")

_NAMED = {
    "evens": EVENS,
    "odds": ODDS,
    "pow2diff": Pow2DiffSet(),
    "factorial_blocks": FactorialBlocksSet(),
}


def parse_set_expr(text):
    text = text.strip()
    if text.count("(") > MAX_SET_EXPR_PARENS:
        raise SpecParseError("over %d parentheses in a set expression" % MAX_SET_EXPR_PARENS)
    if text in _NAMED:
        return _NAMED[text]
    if text.startswith("finite:{") and text.endswith("}"):
        body = text[len("finite:{"):-1].strip()
        if not body:
            return FiniteSet(frozenset())
        try:
            elems = frozenset(int(t) for t in body.split(","))
        except ValueError as e:
            raise SpecParseError("bad finite set %r" % (text,)) from e
        if any(e < 1 for e in elems):
            raise SpecParseError("finite set elements must be positive: %r" % (text,))
        return FiniteSet(elems)
    if text.startswith("periodic:"):
        body = text[len("periodic:"):]
        if body.count(";") != 1:
            raise SpecParseError("periodic set needs pre;per, got %r" % (text,))
        pre, per = body.split(";")
        if not per or not all(c in "01" for c in pre + per):
            raise SpecParseError("periodic set bits must be 0/1 with nonempty period: %r" % (text,))
        return PeriodicSet(tuple(int(c) for c in pre), tuple(int(c) for c in per))
    if text.startswith("complement:(") and text.endswith(")"):
        return ComplementSet(parse_set_expr(text[len("complement:("):-1]))
    if text.startswith("union:(") and text.endswith(")"):
        body = text[len("union:("):-1]
        parts, depth, start = [], 0, 0
        for i, c in enumerate(body):
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == "|" and depth == 0:
                parts.append(body[start:i])
                start = i + 1
        parts.append(body[start:])
        if any(not p.strip() for p in parts):
            raise SpecParseError("empty union member in %r" % (text,))
        return UnionSet(tuple(parse_set_expr(p) for p in parts))
    if text.startswith("window:"):
        bits = text[len("window:"):]
        if not bits or not all(c in "01" for c in bits):
            raise SpecParseError("window bits must be 0/1: %r" % (text,))
        return WindowSet(tuple(int(c) for c in bits))
    raise SpecParseError("unrecognized set expression %r" % (text,))


# -- densities ---------------------------------------------------------------

class DensityResult(Record):
    """value is a Fraction when exact and a float estimate otherwise; exists
    says whether the asymptotic density exists: True, False or None
    (unknown); horizon is the H an estimate was read to."""

    __slots__ = ("value", "exact", "exists", "horizon")
    _defaults = {"exists": None, "horizon": None}

    def to_json(self):
        out = {"value": float(self.value), "exact": self.exact}
        if self.exact:
            out["value_exact"] = str(self.value)
        if self.exists is not None:
            out["exists"] = self.exists
        if self.horizon is not None:
            out["horizon"] = self.horizon
        return out


def _period_density(ep):
    pre, per = ep
    return Fraction(sum(per), len(per))


def _check_horizon(H):
    if H < 1:
        raise PreconditionError("horizon must be >= 1")


def _grid(H):
    ns, n = [], 8
    while n < H:
        ns.append(n)
        n *= 2
    ns.append(H)
    return ns


def upper_density(A, H):
    """limsup of |A \\cap [1,n]| / n; exact for eventually periodic specs."""
    _check_horizon(H)
    ep = A.eventually_periodic()
    if ep is not None:
        return DensityResult(_period_density(ep), exact=True, exists=True)
    bits = A.bits(H)
    est = max(Fraction(bits.count(1, 0, n), n) for n in _grid(H))
    return DensityResult(float(est), exact=False, horizon=H)


def asymptotic_density(A, H):
    """Density limit where it provably exists, window estimates otherwise."""
    _check_horizon(H)
    ep = A.eventually_periodic()
    if ep is not None:
        return DensityResult(_period_density(ep), exact=True, exists=True)
    if isinstance(A, FactorialBlocksSet):
        # sparsity certificate: |A cap [1, n!]| <= 2 + 3 + ... + (n-1) = o(n!)
        return DensityResult(Fraction(0), exact=True, exists=True)
    est = Fraction(A.bits(H).count(1), H)
    return DensityResult(float(est), exact=False, exists=None, horizon=H)


def upper_banach_density(A, H):
    """limsup of window densities; exact for eventually periodic specs, else the
    max density over sampled windows [m, n) in [1, H] with n - m >= 16, or the
    whole of [1, H] when H is shorter.

    The sampled lengths double from min(16, H). A length L reads
    counts[s+L] - counts[s] at few starts s, not all H - L + 1 of them. A
    window (s, s+L] slides right, losing no member, until it starts at its
    first member m (s = m - 1), unless that would carry it past H; then the
    last window (H-L, H] holds every member it had. It slides left, losing
    no member, while the position before its start is a member. So the
    maximum over all starts is the maximum over the starts m - 1 of the runs
    of A cap [1, H] (members m with m - 1 not a member) and the last start
    H - L. Each length costs O(number of runs) integer operations, and the
    lengths compare their (count, L) pairs by cross products."""
    _check_horizon(H)
    ep = A.eventually_periodic()
    if ep is not None:
        return DensityResult(_period_density(ep), exact=True, exists=True)
    bits = A.bits(H)
    # counts[n] = |A cap [1, n]|, one shared int per value: past the cached
    # small ints the list holds |A cap [1, H]| + 1 int objects, not H + 1,
    # so the memory the estimate leaves in the allocator's pools grows with
    # A and not with H
    ranks = list(range(bits.count(1) + 1))
    counts = list(map(ranks.__getitem__, accumulate(bits, initial=0)))
    # run starts: byte i of x is bits[i], of x >> 8 is bits[i - 1]
    x = int.from_bytes(bits, "big")
    starts = list(compress(range(H), (x & ~(x >> 8)).to_bytes(H, "big")))
    most, length = 0, 1
    L = min(16, H)
    while L <= H:
        fits = starts[:bisect_right(starts, H - L)]
        m = max((counts[s + L] - counts[s] for s in fits), default=0)
        m = max(m, counts[H] - counts[H - L])
        if m * length > most * L:
            most, length = m, L
        L *= 2
    return DensityResult(most / length, exact=False, horizon=H)


# -- set algebra to a horizon --------------------------------------------------

def _window(mask, H):
    """The WindowSet of bits 1..H of mask."""
    digits = format(mask >> 1 & ((1 << H) - 1), "0%db" % H)
    return WindowSet(tuple(map(int, reversed(digits))))


def difference_mask(A, H):
    """{a - a' : a, a' in A cap [1, H], a > a'} as one int, bit d set when d
    is such a difference: the or of mask >> a over the members a, whose bit
    d is set when a + d is in A, cut to bits 1..H."""
    _check_horizon(H)
    mask = A.mask(H)
    return reduce(or_, (mask >> a for a in A.members(H)), 0) & ((2 << H) - 2)


def difference_set(A, H):
    """difference_mask(A, H) as a windowed set."""
    return _window(difference_mask(A, H), H)


# -- finite-horizon classification ---------------------------------------------

class ClassifyReport(Record):
    """max_gap is None when A cap [1, H] is empty. delta_witness is a D in
    [1, delta_horizon] with D - D inside A: a largest one when delta_exact
    (the walk finished), else the greedy dive. ip_witness is the largest S
    found with FS(S) inside A and every finite sum at most ip_bound. cap_hit
    says that a witness search stopped at the node cap."""

    __slots__ = ("horizon", "thick_run", "max_gap", "piecewise_syndetic_evidence",
                 "delta_witness", "delta_horizon", "delta_exact", "ip_witness",
                 "ip_bound", "cap_hit")

    def to_json(self):
        return {
            "horizon": self.horizon,
            "thick_run": self.thick_run,
            "max_gap": self.max_gap,
            "piecewise_syndetic_evidence": self.piecewise_syndetic_evidence,
            "delta_witness": list(self.delta_witness),
            "delta_witness_size": len(self.delta_witness),
            "delta_horizon": self.delta_horizon,
            "delta_exact": self.delta_exact,
            "ip_witness": list(self.ip_witness),
            "ip_witness_size": len(self.ip_witness),
            "ip_bound": self.ip_bound,
        }


def largest_delta_subset(A, H, node_cap=DEFAULT_NODE_CAP):
    """(D, capped): a largest D subset of [1, H] with D - D inside A, the
    1-positions of the densest word of L_H(Omega_A) that max_symbol_witness
    returns. When the walk stops at node_cap, capped is set and D is the
    greedy dive, a lower bound on the true max."""
    _check_horizon(H)
    from .spacing import PSetSpec, spacing_shift  # spacing imports sets
    try:
        w = max_symbol_witness(spacing_shift(PSetSpec(A)), 1, H, node_cap=node_cap)
        return tuple(compress(range(1, H + 1), w.symbols)), False
    except ResourceCapExceeded:
        # the greedy dive: a 1 at the lowest candidate q keeps q + A
        a_mask, m, dive = A.mask(H), (2 << H) - 2, []
        while m:
            dive.append((m & -m).bit_length() - 1)
            m &= a_mask << dive[-1]
        return tuple(dive), True


def largest_ip_subset(A, bound, node_cap=DEFAULT_NODE_CAP):
    """(S, capped): a largest S found with FS(S) inside A and every finite
    sum <= bound, the elements ascending. S is a lower bound on the true
    maximum: the search stops at IP_MAX_SIZE elements, and capped says it
    stopped at node_cap (dense A admits huge IP sets).

    The search is a depth-first walk over S in ascending order, on an
    explicit stack. cand(S) is the int whose bit x is set when x and x + s
    lie in A cap [1, bound] for every finite sum s of S; cand({}) is
    A.mask(bound). The next elements S may take are the members of cand(S)
    above max(S), and adding c gives cand(S + {c}) = cand & (cand >> c), one
    big-int operation per node (x + c must itself be in cand(S)).

    node_cap bounds the candidate indices looked at. A frame for S looks at
    the members of A cap [1, bound] by index from just past max(S) up to its
    stop: the first member c with c + sum(S) > bound, clamped to at least
    the start, looked at itself when it exists (the root has no stop). A
    child at index jc after resume index j charges jc - j + 1 at once, the
    members of A in between that are not in cand(S) included, and a frame
    with no child left charges the rest up to its stop. When S reaches
    IP_MAX_SIZE, every open frame with an index left charges one more."""
    candidates = A.members(bound)
    n = len(candidates)
    best, chosen, nodes = (), [], 0
    # a frame: [members of cand(S) above the last child tried, sum(S),
    # stop index, resume index]
    stack = [[A.mask(bound), 0, n, 0]]
    while stack:
        frame = stack[-1]
        rem, top, stop, j = frame
        if not rem:
            nodes += stop - j + (stop < n)
            if nodes > node_cap:
                return best, True
            stack.pop()
            if stack:
                chosen.pop()
            continue
        low = rem & -rem
        c = low.bit_length() - 1
        jc = bisect_left(candidates, c, j)
        nodes += jc - j + 1
        if nodes > node_cap:
            return best, True
        rem ^= low
        frame[0], frame[3] = rem, jc + 1
        chosen.append(c)
        if len(chosen) > len(best):
            best = tuple(chosen)
        top += c
        # rem is cand(S) above c, and both x and x + c lie above c, so
        # rem & (rem >> c) is cand(S + {c}) above c: the child's candidates
        stack.append([rem & (rem >> c), top, max(bisect_right(candidates, bound - top), jc + 1),
                      jc + 1])
        if len(best) == IP_MAX_SIZE:
            nodes += sum(f[3] < n for f in stack)
            break
    return best, nodes > node_cap


def classify(A, H, ip_bound=None, node_cap=DEFAULT_NODE_CAP):
    """Finite-horizon structure report: longest run (thickness evidence), max gap
    (syndeticity evidence), and bounded Delta / IP witness searches; cap_hit
    says that a search stopped at node_cap, so its witness is a lower bound
    (the Delta one the greedy dive, the IP one the best found)."""
    _check_horizon(H)
    if ip_bound is None:
        ip_bound = min(H, 4096)
    if ip_bound < 1:
        raise PreconditionError("ip_bound must be >= 1")
    bits = A.bits(H)
    # the longest run of members, and the longest run of non-members with
    # the member that ends it (or H + 1 past the last one)
    thick_run = max(map(len, bits.split(b"\x00")))
    max_gap = max(map(len, bits.split(b"\x01"))) + 1 if thick_run else None
    pws = thick_run >= 2 and max_gap is not None
    delta_h = min(H, 512)
    delta_w, delta_capped = largest_delta_subset(A, delta_h, node_cap)
    ip_w, ip_capped = largest_ip_subset(A, ip_bound, node_cap)
    return ClassifyReport(
        horizon=H,
        thick_run=thick_run,
        max_gap=max_gap,
        piecewise_syndetic_evidence=pws,
        delta_witness=delta_w,
        delta_horizon=delta_h,
        delta_exact=not delta_capped,
        ip_witness=ip_w,
        ip_bound=ip_bound,
        cap_hit=delta_capped or ip_capped,
    )
