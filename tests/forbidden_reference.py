"""Forbidden-word shifts on the last max_len - 1 symbols: the reference the
Aho-Corasick state of langkit.forbidden_shift is checked against.

Its graph can have n**(max_len - 1) states, so tests build it on short
forbidden words only."""

from shiftlab.core import word
from shiftlab.langkit import SubshiftSpec


def tail_forbidden_shift(forbidden, n=2):
    """The shift avoiding the forbidden words, its state the last
    max_len - 1 symbols read; no word test and no prolongability check."""
    syms = tuple(word(f, n).symbols for f in forbidden)
    max_len = max(len(s) for s in syms)

    def transition(state, a):
        tail = state + (a,)
        for f in syms:
            if len(f) <= len(tail) and tail[-len(f):] == f:
                return False, state
        return True, tail[-(max_len - 1):] if max_len > 1 else ()

    return SubshiftSpec(n=n, family="forbidden-tail", label="tail:%s" % ",".join(forbidden),
                        start_state=(), transition=transition)


def expand_all(spec):
    """The number of states of the spec's graph, every one expanded."""
    graph, i = spec._graph, 0
    while i < len(graph.states):
        graph.expand(i)
        i += 1
    return i
