"""The shift metric on eventually periodic points and the point helpers the
tests read: the first disagreement, sigma**j in canonical form and a prefix
as a Word. No command reads them; `parry_check` in `shiftlab.beta` is
checked against a per-shift loop built from them.

rho(x, y) = n**-k at the 1-based index k of the first disagreement, 0 for
equal points, as an exact rational."""

from fractions import Fraction
from math import lcm

from shiftlab.core import EventuallyPeriodicPoint, Word, _same_alphabet


def equality_horizon(x, y):
    """Comparison length after which two eventually periodic points must agree."""
    return len(x.preperiod) + len(y.preperiod) + lcm(len(x.period), len(y.period))


def first_disagreement(x, y):
    """1-based index of the first coordinate where x and y differ, or None."""
    _same_alphabet(x, y)
    L = equality_horizon(x, y)
    return next((i for i, (a, b) in enumerate(zip(x.prefix(L), y.prefix(L)), 1)
                 if a != b), None)


def metric_rho(x, y):
    """The shift metric rho(x, y) = n**-k at the first disagreement k, 0 if equal."""
    k = first_disagreement(x, y)
    if k is None:
        return Fraction(0)
    return Fraction(1, x.alphabet.size ** k)


def shift_point(x, j):
    """sigma**j applied to an eventually periodic point, in canonical form."""
    if j < 0:
        raise ValueError("shift amount must be nonnegative")
    pre, per = x.preperiod, x.period
    if j <= len(pre):
        return EventuallyPeriodicPoint(x.alphabet, pre[j:], per)
    r = (j - len(pre)) % len(per)
    return EventuallyPeriodicPoint(x.alphabet, (), per[r:] + per[:r])


def point_prefix(x, k):
    """The first k coordinates of x as a Word."""
    return Word(x.alphabet, x.prefix(k))
