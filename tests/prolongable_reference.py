"""Right-prolongability by enumeration: the reference the state-graph check
of forbidden-word specs is checked against.

It lists L_k for every k up to max_len + 1 and tries every extension of
every word, so its cost grows with n**max_len; tests run it on short
forbidden words."""

from shiftlab.errors import SpecValidationError
from shiftlab.langkit import enumerate_language


def validate_prolongable(spec, depth):
    """Raises SpecValidationError at the first word of L_k, k < depth, by
    length, then lexicographically, that has no extension in L_(k+1)."""
    for k in range(0, depth):
        words_k = list(enumerate_language(spec, k))
        for syms in words_k:
            if not any(spec.accepts(syms + (a,)) for a in range(spec.n)):
                raise SpecValidationError("language not right-prolongable at %r" % (syms,))
        if k and not words_k:
            raise SpecValidationError("language empty at length %d" % k)
