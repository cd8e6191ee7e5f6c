"""Beta shifts: greedy digit expansion of 1, lexicographic admissibility,
counting by the automaton DP.

The acceptor state is the length of the current match with a digit prefix,
so beta_shift hands langkit a transition and lambda_k comes from its
automaton DP. Each BetaSpec builds that spec once, so count_beta_language
and count_language(beta_shift(spec), k) read one resumable column, kept
next to the digit memo: extending it by one length costs O(current length)
and a K-row column O(K^2). Beta shifts are hereditary, and their lambda_k
also satisfies
lambda_k = lambda_(k-1) + #{w in L_k : w_1 > 0} (a 0 in front of a word of
L_(k-1) keeps it in the language).

The base beta is held exactly as the four integers (a, b, c, d) that the
digit recurrence reads, beta = (a + b*sqrt(d))/c with c > 0: a quadratic
number quad:(a+b*sqrtd)/c has d >= 2 not a square, and a decimal string is
its exact fraction p/q, held as (p, 0, q, 0). floor(beta) is the exact
floor below. Digits come from the greedy recurrence r_0 = 1,
m_i = floor(beta * r_(i-1)), r_i = beta * r_(i-1) - m_i, run on plain
integers: the remainder is kept as (x, y, z) with r = (x + y*sqrt(d))/z, and
one digit is

    X = a*x + b*y*d,  Y = a*y + b*x,  Z = c*z,
    m = floor((X + Y*sqrt(d))/Z),  next remainder (X - m*Z, Y, Z).

No gcd is taken, so x, y and z grow by O(1) bits per digit, and when r
reaches 0 (the expansion of 1 is finite) every later digit is 0 and the
remainder is held as (0, 0, 1). Every digit is exact, and they are computed
in blocks. At the start of a block r is read once as a fixed-point integer
u ~ r * 2^F (F = 2W, W = 64) from the top G = 64 bits of z, with sqrt(d)
one cached fixed-point value S = isqrt(d * 4^P) (P at least doubles when
the conjugate makes y outgrow it). Each digit of the block is the greedy
step on that small integer, t = floor(beta_w * u / 2^W) with
beta_w = floor(beta * 2^W), m = floor(t / 2^F), u = t mod 2^F, and it is
accepted only when t - E_j and t + E_j have one floor, where E_j is a bound
on the error of t after j steps that depends on beta alone (derived in
_block_tables). A block ends before E_j passes 2^(F-16), after at most
BLOCK = 80 digits, or at the first digit it cannot certify. The exact
remainder then advances once by the n steps composed: with
(c*beta)^n = P_n + Q_n*sqrt(d),

    x <- P_n*x + d*Q_n*y - z * sum_j m_j*c^j*P_(n-j),
    y <- P_n*y + Q_n*x - z * sum_j m_j*c^j*Q_(n-j),
    z <- c^n * z,

so (x, y, z) is what the per-digit recurrence gives, bit for bit. A digit
that no block certifies (v within about 2^-112 of an integer, or every
digit when beta * (4 + sqrt(d)) passes about 2^47, so that no block fits)
is taken exactly: X // Z when Y = 0, else one isqrt of an O(i)-bit integer
(_floor). So a block of n digits costs n steps on integers of about 3W bits
and a few products of O(i)-bit integers, where the per-digit recurrence
costs a dozen O(i)-bit operations per digit. The digits are memoised on the
spec. A read of k digits (beta_digits) costs one _extend pass over the
digits it lacks, then a slice, and a pass reads at least one full block
ahead, since the acceptor reads one index at a time.

Finite-length membership rule: w is in L(Omega_beta) iff every suffix of w is
lexicographically <= the equal-length prefix of the digit sequence of 1.
This is the zero-padding reading of the tail condition defining Omega_beta
(replacing a tail by zeros only decreases a sequence lexicographically), and
it makes membership finite and exact.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt
from operator import mul

from .core import Alphabet, EventuallyPeriodicPoint, Word
from .errors import PreconditionError, SpecParseError
from .langkit import SubshiftSpec, count_language

DEFAULT_DIGIT_HORIZON = 4096
W = 64  # bits of beta in a block's fixed-point step
F = 2 * W  # a block holds the remainder r as u ~ r * 2^F
G = 64  # bits of z kept by a block's reading of r, and guard bits of its sqrt(d)
BLOCK = 80  # the most digits one block certifies
_MASK = (1 << F) - 1
_QUAD_RE = re.compile(r"^quad:\((-?\d+)\+(-?\d+)\*sqrt(\d+)\)/(\d+)$")


def parse_beta(text):
    """Parse a beta value: a decimal string or quad:(a+b*sqrtd)/c."""
    text = text.strip()
    m = _QUAD_RE.match(text)
    if m:
        a, b, d, c = (int(g) for g in m.groups())
        if c == 0:
            raise SpecParseError("zero denominator")
        if d < 2 or isqrt(d) ** 2 == d:
            raise SpecParseError("d must be >= 2 and not a perfect square")
        g = gcd(a, b, c)
        a, b, c = a // g, b // g, c // g
    else:
        try:
            q = Fraction(text)
        except (ValueError, ZeroDivisionError) as e:
            raise SpecParseError("bad beta value %r" % (text,)) from e
        a, b, c, d = q.numerator, 0, q.denominator, 0
    return BetaSpec(a, b, c, d, label=text)


class BetaSpec:
    """An exact non-integer base beta = (a + b*sqrt(d))/c > 1, with c > 0 and
    d >= 2 not a square when b != 0. Its digits exist up to digit_horizon."""

    digit_horizon = DEFAULT_DIGIT_HORIZON

    def __init__(self, a, b, c, d, label=None):
        if c < 1 or b and (d < 2 or isqrt(d) ** 2 == d):
            raise PreconditionError(
                "beta = (a + b*sqrt(d))/c needs c >= 1, and d >= 2 not a square when b != 0")
        self._coef = (a, b, c, d)
        fl = a // c if b == 0 else self._floor(a, b, c)
        integer = b == 0 and a % c == 0
        if fl < 1 or (fl == 1 and integer):
            raise PreconditionError("beta must exceed 1")
        if integer:
            raise PreconditionError(
                "integer beta rejected: the digit alphabet {0..floor(beta)} "
                "has floor(beta)+1 symbols but the ambient shift has ceil(beta)")
        self.floor_beta = fl
        # by default the text parse_beta reads back
        self.label = label if label is not None else (
            "%d/%d" % (a, c) if b == 0 else "quad:(%d+%d*sqrt%d)/%d" % (a, b, d, c))
        self._digits = []
        self._rem = (1, 0, 1)  # r = (x + y*sqrt(d))/z, here r_0 = 1
        self._root = (0, 0)  # (P, isqrt(d * 4^P)): sqrt(d) to P bits
        self._blocks = None  # the tables of _block_tables, built on the first read
        self._shift = None  # the langkit spec beta_shift builds once

    def __repr__(self):
        return "BetaSpec(%s)" % self.label

    @property
    def alphabet_size(self):
        return self.floor_beta + 1

    def digit(self, i):
        """0-based: digit(i) is the (i+1)-st digit of the expansion of 1."""
        if i < 0:
            raise PreconditionError("digit index %d is negative" % i)
        if i >= self.digit_horizon:
            raise PreconditionError(
                "digit index %d exceeds digit_horizon %d" % (i, self.digit_horizon))
        digits = self._digits
        if i >= len(digits):
            self._extend(i + 1)
        return digits[i]

    def _extend(self, k):
        """Grow the digit list in place to at least k digits, and to one full
        block more than it holds, up to digit_horizon (the acceptor reads one
        index at a time): blocks of certified digits, each followed by one
        exact update of the remainder, and an exact digit where a block
        cannot certify one (the module docstring)."""
        if self._blocks is None:
            self._blocks = self._block_tables()
        beta_w, bounds, powers, sums_p, sums_q = self._blocks
        full = len(bounds)
        digits = self._digits
        k = max(k, min(len(digits) + full, self.digit_horizon))
        a, b, c, d = self._coef
        x, y, z = self._rem
        while True:
            if not (x or y):
                # r = 0: the expansion of 1 is finite, and every later
                # digit is 0
                z = 1
                digits += [0] * (k - len(digits))
                break
            if len(digits) >= k:
                break
            room = bounds[:k - len(digits)]
            block = []
            if room:
                u = self._read(x, y, z)
                for low, high in room:
                    t = beta_w * u >> W
                    u = t & _MASK
                    if not low <= u < high:
                        break
                    block.append(t >> F)
            n = len(block)
            if n:
                # one exact update: the per-digit step composed n times,
                # with c^(N-n) divided out of the full-block sums
                digits += block
                p, q, cn = powers[n]
                cut = powers[full - n][2]
                sp = sum(map(mul, block, sums_p[full - n + 1:])) // cut
                sq = sum(map(mul, block, sums_q[full - n + 1:])) // cut
                x, y, z = p * x + d * q * y - z * sp, p * y + q * x - z * sq, cn * z
            if room and n == len(room):
                continue  # the block ran to its end
            # the digit this block cannot certify, or any digit when no
            # block fits, exact
            X, Y, Z = a * x + b * y * d, a * y + b * x, c * z
            if Y:
                m = self._floor(X, Y, Z)
                x = X - m * Z
            else:
                m, x = divmod(X, Z)
            y, z = Y, Z
            digits.append(m)
        self._rem = (x, y, z)

    def _read(self, x, y, z):
        """r = (x + y*sqrt(d))/z as u = floor(r * 2^F), to within the
        half-width E_0 of _block_tables: x, y and z are cut to the top G
        bits of z, and sqrt(d) is the cached S = isqrt(d * 4^P) with
        P >= bitlen(y >> s) + G (P at least doubles when it grows)."""
        s = max(0, z.bit_length() - G)
        xs, ys, zs = x >> s, y >> s, z >> s
        if not ys:
            return (xs << F) // zs
        P, S = self._root
        need = abs(ys).bit_length() + G
        if P < need:
            P = max(2 * P, need)
            S = isqrt(self._coef[3] << 2 * P)
            self._root = (P, S)
        return ((xs << P) + ys * S << F) // (zs << P)

    def _block_tables(self):
        """(beta_w, bounds, powers, sums_p, sums_q) for the blocks of
        _extend. beta_w = floor(beta * 2^W). bounds[j-1] = (E_j, 2^F - E_j),
        where E_j bounds |t_j - beta * r_(j-1) * 2^F| for the j-th digit of a
        block; the block is as long as E_j <= 2^(F-16), at most BLOCK
        digits. powers[n] = (P_n, Q_n, c^n) with (c*beta)^n = P_n + Q_n
        sqrt(d), and sums_p[i] = c^i * P_(N-i), sums_q[i] = c^i * Q_(N-i)
        for the full block length N.

        The half-widths. The read of _read: with s > 0, z/2^s lies in
        [zs, zs + 1) and zs >= 2^(G-1); x/2^s and y/2^s exceed xs and ys by
        less than 1, and |ys| * (sqrt(d) * 2^P - S) < |ys| <= 2^(P-G). So
        the numerator (x + y*sqrt(d)) * 2^(P-s) lies within
        2^P * (1 + sqrt(d)) + 2^(P-G) of (xs << P) + ys*S, dividing by zs in
        place of z/2^s moves r * 2^P by less than 2^P / zs, and the floor
        costs 1 more:
            E_0 = 2^(F-G+1) * (3 + ceil(sqrt(d))) + 1
        (with s = 0 only S is inexact, and the error is below 2^(F-G) + 1).
        A step: t_j = floor(beta_w * u / 2^W) for u = u_(j-1), read to within
        E_(j-1) of r_(j-1) * 2^F, with |u| < 2^(F+1). Then
            beta * r * 2^F - beta_w * u / 2^W
                = (beta * 2^W - beta_w) * u / 2^W + beta * (r * 2^F - u),
        where 0 <= beta * 2^W - beta_w < 1 and beta < (beta_w + 1) / 2^W, so
            E_j = floor((beta_w + 1) * E_(j-1) / 2^W) + 2^(W+1) + 2.
        The digit floor(beta * r_(j-1)) is certified when t_j - E_j and
        t_j + E_j have one floor over 2^F, that is E_j <= u_j < 2^F - E_j
        for u_j = t_j mod 2^F; then u_j is r_j * 2^F to within E_j. Each
        E_j depends on beta alone, so one table serves every block."""
        a, b, c, d = self._coef
        beta_w = (a << W) // c if not b else self._floor(a << W, b << W, c)
        e = (3 + isqrt(d) + 1 << F - G + 1) + 1
        grow, step, cap = beta_w + 1, (1 << W + 1) + 2, 1 << F - 16
        bounds = []
        while len(bounds) < BLOCK:
            e = (grow * e >> W) + step
            if e > cap:
                break
            bounds.append((e, (1 << F) - e))
        p, q, cn = 1, 0, 1
        powers = [(p, q, cn)]
        for _ in bounds:
            p, q, cn = a * p + b * d * q, a * q + b * p, c * cn
            powers.append((p, q, cn))
        sums_p = [cn * p for (_, _, cn), (p, _, _) in zip(powers, reversed(powers))]
        sums_q = [cn * q for (_, _, cn), (_, q, _) in zip(powers, reversed(powers))]
        return beta_w, tuple(bounds), powers, sums_p, sums_q

    def _floor(self, X, Y, Z):
        """floor((X + Y*sqrt(d))/Z) for Z > 0 and Y != 0, exact: with
        v = X + Y*sqrt(d), floor(v/Z) = floor(floor(v)/Z), and
        floor(Y*sqrt(d)) is isqrt(Y*Y*d) for Y > 0 and -isqrt(Y*Y*d) - 1 for
        Y < 0 (d is not a square). One isqrt of an integer of the size of Y."""
        root = isqrt(Y * Y * self._coef[3])
        return (X + root) // Z if Y > 0 else (X - root - 1) // Z


def beta_digits(spec, k):
    """The first k digits of the expansion of 1 in base beta, as a Word."""
    if k < 0:
        raise PreconditionError("k must be >= 0")
    if k > spec.digit_horizon:
        raise PreconditionError("k exceeds digit_horizon")
    digits = spec._digits
    if k > len(digits):
        spec._extend(k)
    # ints in 0..floor(beta) by construction: no per-symbol conversion
    return Word(Alphabet(spec.alphabet_size), tuple(digits[:k]))


def parry_check(d, H):
    """Check sigma^k(d) <= d lexicographically for 0 <= k <= H.

    One Z-array pass over a finite window serves words and points. For a
    point d = u v v v ..., sigma^k d = sigma^(k-|v|) d once k >= |u| + |v|,
    so only k <= K = min(H, |u| + |v|) are checked, through
    d.prefix(K + 2|u| + |v| + 1). For k <= K, sigma^k d has preperiod at
    most |u| and period |v|, so it equals d once the two agree on more than
    2|u| + |v| places (both preperiods plus the lcm of the periods), and
    more than that many remain in the window after the shift. A shift whose
    tail matches d to the end of the window therefore equals d, and the
    verdict is exact (True/False). For a finite prefix the result may be
    None: some shifted copy agreed with the prefix over the whole available
    comparison length, which decides nothing.
    """
    point = isinstance(d, EventuallyPeriodicPoint)
    if point:
        H = min(H, len(d.preperiod) + len(d.period))
        syms = d.prefix(H + 2 * len(d.preperiod) + len(d.period) + 1)
    else:
        syms = d.symbols if isinstance(d, Word) else tuple(d)
    L = len(syms)
    indeterminate = False
    # Z-array pass: z[k] is the longest common prefix of syms and syms[k:];
    # syms[l:r] == syms[:r - l] is the match reaching furthest right so far
    z = [0] * L
    l = r = 0
    for k in range(1, min(H, L - 1) + 1):
        n = min(r - k, z[k - l]) if k < r else 0
        while k + n < L and syms[n] == syms[k + n]:
            n += 1
        z[k] = n
        if k + n > r:
            l, r = k, k + n
        if k + n == L:
            # the tail equals the prefix of its length (sigma^k d = d for a point)
            indeterminate = True
        elif syms[k + n] > syms[n]:
            return False
    return None if indeterminate and not point else True


def count_beta_language(spec, k):
    """lambda_k, exact, from the automaton DP of beta_shift(spec). Resumes
    from the spec's last counted length, so a column up to k costs O(k^2)
    time in total."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if k > spec.digit_horizon:
        raise PreconditionError("k exceeds digit_horizon")
    return count_language(beta_shift(spec), k)


def beta_shift(spec):
    """langkit spec for Omega_beta over the alphabet {0..floor(beta)}, built
    once per BetaSpec. The state is the length of the current maximal match
    with a digit prefix: playing the digit extends it, any smaller digit
    resets it."""
    if spec._shift is None:
        def transition(state, a):
            d = spec.digit(state)
            if a > d:
                return False, state
            return True, (state + 1 if a == d else 0)

        spec._shift = SubshiftSpec(
            n=spec.alphabet_size, family="beta", label="beta:beta=%s" % spec.label,
            start_state=0, transition=transition)
    return spec._shift

