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

No gcd is taken, so x, y and z grow by O(1) bits per digit. Every floor is
exact. When Y = 0 it is X // Z. Otherwise v = (X + Y*sqrt(d))/Z is
irrational and its floor is read from a certified bracket: X, Y and Z are
shifted right by s = max(0, bitlen(Z) - G), G = 64, sqrt(d) is one cached
fixed-point value S = isqrt(d * 4^P) with P >= bitlen(Y >> s) + G (P
doubles when the conjugate makes Y outgrow it), and the numerator scaled by
2^(P-s) lies within e of mid = (X >> s << P) + (Y >> s)*S, where e bounds
the truncation of X, Y, Z and the error of S. When both ends of the bracket
divided by Z have one floor, that is the digit. Otherwise v lies within
O((sqrt(d) + v) * 2^-G) of an integer, and the exact floor _floor settles
it with one isqrt of an O(i)-bit integer. So a digit costs O(i)-bit shifts
and sums plus products of O(P)-bit integers, and P stays O(G) for a
Pisot base. The digits are memoised on the spec, and a read of k digits
(beta_digits) costs one _extend pass over the digits it lacks, then a slice.

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

from .core import Alphabet, EventuallyPeriodicPoint, Word
from .errors import PreconditionError, SpecParseError
from .langkit import SubshiftSpec, count_language

DEFAULT_DIGIT_HORIZON = 4096
G = 64  # bits of Z kept by the digit bracket, and guard bits of its sqrt(d)
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
        """Grow the digit list in place to k digits (the greedy recurrence in
        the module docstring)."""
        a, b, c, d = self._coef
        x, y, z = self._rem
        digits = self._digits
        append = digits.append
        for _ in range(k - len(digits)):
            X, Y, Z = a * x + b * y * d, a * y + b * x, c * z
            if Y:
                m = self._bracket_floor(X, Y, Z)
                x = X - m * Z
            else:
                m, x = divmod(X, Z)
                if not x:
                    Z = 1  # r = 0: every later digit is 0
            y, z = Y, Z
            append(m)
        self._rem = (x, y, z)

    def _bracket_floor(self, X, Y, Z):
        """floor((X + Y*sqrt(d))/Z) for Z > 0 and Y != 0 from the certified
        bracket of the module docstring, or from _floor when the bracket
        straddles an integer."""
        s = max(0, Z.bit_length() - G)
        Xs, Ys, Zs = X >> s, Y >> s, Z >> s
        P, S = self._root
        need = abs(Ys).bit_length() + G
        if P < need:
            P = max(2 * P, need)
            S = isqrt(self._coef[3] << 2 * P)
            self._root = (P, S)
        # numerator * 2^(P-s) lies in [mid - e, mid + e]; with s = 0 only
        # S is inexact, by less than 1, so Y*S is off by less than |Y|
        mid = (Xs << P) + Ys * S
        e = abs(Ys) + (S + (1 << P) + 2 if s else 1)
        lo = mid - e
        if lo >= 0:
            # Z lies in [Zs * 2^s, (Zs + 1) * 2^s), exactly Zs when s = 0
            m = (lo >> P) // (Zs + 1 if s else Zs)
            if m == ((mid + e) >> P) // Zs:
                return m
        return self._floor(X, Y, Z)

    def _floor(self, X, Y, Z):
        """floor((X + Y*sqrt(d))/Z) for Z > 0 and Y != 0, exact: with
        v = X + Y*sqrt(d), floor(v/Z) = floor(floor(v)/Z), and
        floor(Y*sqrt(d)) is isqrt(Y*Y*d) for Y > 0 and -isqrt(Y*Y*d) - 1 for
        Y < 0 (d is not a square). The reference for _bracket_floor and its
        fallback where the bracket cannot decide."""
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

