"""Beta membership by the suffix rule: the reference the beta acceptor is
checked against.

w is in L(Omega_beta) iff every suffix of w is lexicographically <= the
equal-length prefix of the digit sequence of 1. It compares every suffix
with a digit prefix, O(len(w)**2) symbol comparisons, where the acceptor
reads each symbol once; tests run it on short words."""

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
