"""Spacing admissibility read off the definition: the reference the spacing
acceptors are checked against.

It tests every pair of 1s, O(m**2) for m ones, where the acceptors test a
whole word with one int mask; tests run it on short words."""

from shiftlab.core import Word
from shiftlab.errors import PreconditionError


def admissible(P, w):
    """P-admissibility of a binary word: all 1-position differences lie in
    the parameter set of the PSetSpec P."""
    syms = w.symbols if isinstance(w, Word) else tuple(w)
    if any(s not in (0, 1) for s in syms):
        raise PreconditionError("spacing admissibility needs a binary word")
    ones = [i + 1 for i, s in enumerate(syms) if s == 1]
    for i in range(len(ones)):
        for j in range(i + 1, len(ones)):
            if not P.base.contains(ones[j] - ones[i]):
                return False
    return True
