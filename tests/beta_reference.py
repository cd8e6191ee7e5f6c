"""References for shiftlab.beta: membership by the suffix rule, which the
beta acceptor is checked against, and the per-digit greedy recurrence,
which the digit blocks are checked against.

w is in L(Omega_beta) iff every suffix of w is lexicographically <= the
equal-length prefix of the digit sequence of 1. It compares every suffix
with a digit prefix, O(len(w)**2) symbol comparisons, where the acceptor
reads each symbol once; tests run it on short words."""

from math import isqrt

from shiftlab.core import Word
from shiftlab.errors import AlphabetMismatch, PreconditionError


def _symbols(x):
    return x.symbols if isinstance(x, Word) else tuple(x)


def lex_compare(x, y):
    """Lexicographic comparison of two equal-length symbol prefixes.

    Returns -1, 0 or 1. Raises AlphabetMismatch for Words over different
    alphabets.
    """
    if isinstance(x, Word) and isinstance(y, Word) and x.alphabet != y.alphabet:
        raise AlphabetMismatch("lex_compare: %r vs %r" % (x.alphabet, y.alphabet))
    xs, ys = _symbols(x), _symbols(y)
    if len(xs) != len(ys):
        raise ValueError("lex_compare expects equal-length prefixes")
    for a, b in zip(xs, ys):
        if a < b:
            return -1
        if a > b:
            return 1
    return 0


def word_in_beta_language(spec, w):
    """Suffix rule: every suffix of w is <= the equal-length digit prefix."""
    syms = _symbols(w)
    if len(syms) > spec.digit_horizon:
        raise PreconditionError("word longer than digit_horizon")
    n = spec.alphabet_size
    if any(not (0 <= s < n) for s in syms):
        return False
    digits = [spec.digit(i) for i in range(len(syms))]
    for start in range(len(syms)):
        suffix = syms[start:]
        if lex_compare(suffix, tuple(digits[:len(suffix)])) > 0:
            return False
    return True


# -- the per-digit recurrence: the reference for BetaSpec's blocks -------------

G = 64  # bits of Z kept by the digit bracket, and guard bits of its sqrt(d)


def exact_floor(X, Y, Z, d):
    """floor((X + Y*sqrt(d))/Z) for Z > 0, Y != 0 and d not a square: with
    v = X + Y*sqrt(d), floor(v/Z) = floor(floor(v)/Z), and floor(Y*sqrt(d))
    is isqrt(Y*Y*d) for Y > 0 and -isqrt(Y*Y*d) - 1 for Y < 0."""
    root = isqrt(Y * Y * d)
    return (X + root) // Z if Y > 0 else (X - root - 1) // Z


class PerDigit:
    """The greedy recurrence of shiftlab.beta run one digit at a time on the
    exact remainder r = (x + y*sqrt(d))/z:

        X = a*x + b*y*d,  Y = a*y + b*x,  Z = c*z,
        m = floor((X + Y*sqrt(d))/Z),  next remainder (X - m*Z, Y, Z),

    and (0, 0, 1) from the first r = 0 on. Each floor is read from a
    certified bracket (bracket_floor), or from exact_floor where the bracket
    straddles an integer. BetaSpec's blocks must give the same digits and
    the same (x, y, z) after every read."""

    def __init__(self, coef, rem=(1, 0, 1)):
        self.coef = coef
        self.digits = []
        self.rem = rem
        self.root = (0, 0)  # (P, isqrt(d * 4^P)): sqrt(d) to P bits

    def extend(self, k):
        """Grow the digit list to k digits; returns (digits, (x, y, z))."""
        a, b, c, d = self.coef
        x, y, z = self.rem
        digits = self.digits
        for _ in range(k - len(digits)):
            X, Y, Z = a * x + b * y * d, a * y + b * x, c * z
            if Y:
                m = self.bracket_floor(X, Y, Z)
                x = X - m * Z
            else:
                m, x = divmod(X, Z)
                if not x:
                    Z = 1  # r = 0: every later digit is 0
            y, z = Y, Z
            digits.append(m)
        self.rem = (x, y, z)
        return digits, self.rem

    def bracket_floor(self, X, Y, Z):
        """floor((X + Y*sqrt(d))/Z) for Z > 0 and Y != 0. X, Y and Z are
        shifted right by s = max(0, bitlen(Z) - G), sqrt(d) is the cached
        S = isqrt(d * 4^P) with P >= bitlen(Y >> s) + G, and the numerator
        scaled by 2^(P-s) lies within e of mid = (X >> s << P) + (Y >> s)*S.
        When both ends of the bracket divided by Z have one floor, that is
        the floor; otherwise exact_floor settles it."""
        d = self.coef[3]
        s = max(0, Z.bit_length() - G)
        Xs, Ys, Zs = X >> s, Y >> s, Z >> s
        P, S = self.root
        need = abs(Ys).bit_length() + G
        if P < need:
            P = max(2 * P, need)
            S = isqrt(d << 2 * P)
            self.root = (P, S)
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
        return exact_floor(X, Y, Z, d)
