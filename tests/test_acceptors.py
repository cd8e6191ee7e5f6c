"""Acceptor steps against the definitions of their languages.

Spacing, beta and forbidden-word acceptors keep a canonical state (relative
1-distances, a match length, the last few symbols), so `spec.accepts` is
checked here against the definition-level membership tests on seeded words
both in and out of the language, and `contains_word` against its string
parsing rules."""

import random

import pytest

from shiftlab.beta import parse_beta, word_in_beta_language
from shiftlab.langkit import contains_word, forbidden_shift, full_shift, parse_shift_spec
from shiftlab.sets import parse_set_expr
from shiftlab.spacing import PSetSpec, admissible, spacing_shift

_WINDOW_RNG = random.Random(7)
WINDOW_BITS = "".join(_WINDOW_RNG.choice("01") for _ in range(48))
SPACING_SETS = (
    "evens",
    "complement:(finite:{1,3,7,12})",
    "periodic:;0111011",
    "pow2diff",
    "factorial_blocks",
    "window:" + WINDOW_BITS,    # every difference past 48 is excluded
)
BETAS = ("1.5", "quad:(1+1*sqrt5)/2", "2.7")
FORBIDDEN = ("{111,0101}", "{11}", "{00,212}")


def _walk(spec, rng, length):
    """A random language word: each position tries a random symbol first and
    falls back to the others (every family here is right-prolongable)."""
    state, out = spec._start_state, []
    for i in range(length):
        first = rng.randrange(spec.n)
        for a in range(first, first + spec.n):
            ok, nxt = spec._step(state, i, a % spec.n)
            if ok:
                break
        else:
            raise AssertionError("dead end in %s at %d" % (spec.label, i))
        state = nxt
        out.append(a % spec.n)
    return out


def _seeded_words(spec, seed, count):
    """`count` words of length 1..700; every other one has a random symbol
    raised, which usually takes it out of the language."""
    rng = random.Random("%s/%d" % (spec.label, seed))
    words = []
    for j in range(count):
        w = _walk(spec, rng, rng.randint(1, 700))
        if j % 2:
            low = [i for i, a in enumerate(w) if a < spec.n - 1]
            if low:
                w[rng.choice(low)] += 1
        words.append(tuple(w))
    return words


def _check(spec, words, member):
    answers = [member(w) for w in words]
    assert [spec.accepts(w) for w in words] == answers
    # the seeded words reach both answers, so neither side is vacuous
    assert True in answers and False in answers


@pytest.mark.parametrize("expr", SPACING_SETS)
def test_spacing_accepts_is_admissibility(expr):
    P = PSetSpec(parse_set_expr(expr))
    spec = spacing_shift(P)
    _check(spec, _seeded_words(spec, 1, 24), lambda w: admissible(P, w))


@pytest.mark.parametrize("text", BETAS)
def test_beta_accepts_is_the_suffix_rule(text):
    bspec = parse_beta(text)
    spec = parse_shift_spec("beta:beta=" + text)
    _check(spec, _seeded_words(spec, 1, 16), lambda w: word_in_beta_language(bspec, w))


@pytest.mark.parametrize("forb", FORBIDDEN)
def test_forbidden_accepts_is_substring_avoidance(forb):
    spec = parse_shift_spec("forbidden:" + forb)
    bad = forb[1:-1].split(",")
    _check(spec, _seeded_words(spec, 1, 30),
           lambda w: not any(f in "".join(map(str, w)) for f in bad))


def _state(spec, syms, positions=True):
    state = spec._start_state
    for i, a in enumerate(syms):
        ok, state = spec._step(state, i if positions else None, a)
        assert ok
    return state


@pytest.mark.parametrize("expr", SPACING_SETS)
def test_spacing_states_hold_relative_distances_only(expr):
    spec = spacing_shift(PSetSpec(parse_set_expr(expr)))
    rng = random.Random(expr)
    for _ in range(20):
        tail = tuple(_walk(spec, rng, rng.randint(1, 120)))
        for lead in (1, 5, 77):
            # leading zeros move every 1 but no distance between 1s
            assert _state(spec, (0,) * lead + tail) == _state(spec, tail)
        # the step never reads the position it is given
        assert _state(spec, tail, positions=False) == _state(spec, tail)


def test_windowed_spacing_state_forgets_beyond_the_window():
    # N \ P = {1, 3, 7, 12}: only the last 12 places decide the next symbol
    spec = spacing_shift(PSetSpec(parse_set_expr("complement:(finite:{1,3,7,12})")))
    rng = random.Random(5)
    for _ in range(20):
        head = tuple(_walk(spec, rng, rng.randint(1, 40)))
        tail = (0,) * 12 + tuple(_walk(spec, rng, rng.randint(0, 30)))
        assert _state(spec, head + tail) == _state(spec, tail)


def test_excluded_mask_bits_and_growth():
    P = PSetSpec(parse_set_expr("evens"))
    assert P.excluded_mask(6) & 0b111111 == 0b010101   # d = 1, 3, 5 excluded
    grown = P.excluded_mask(300)
    assert all(bool(grown >> (d - 1) & 1) == (d % 2 == 1) for d in range(1, 301))
    finite = PSetSpec(parse_set_expr("complement:(finite:{2,5})"))
    assert finite.excluded_mask(finite.excluded_max()) == 0b10010


# -- contains_word string parsing ---------------------------------------------

def test_contains_word_ascii_digits_match_the_symbol_path():
    for text in ("forbidden:{111,0101}", "spacing:P=evens", "beta:beta=1.5", "counting"):
        spec = parse_shift_spec(text)
        for w in _seeded_words(spec, 2, 10):
            assert contains_word(spec, "".join(map(str, w))) == contains_word(spec, w)
    assert contains_word(full_shift(2), "")


def test_contains_word_reads_every_ascii_digit():
    # n = 10, and no digit d may be followed by d - 1
    spec = parse_shift_spec("forbidden:{10,21,32,43,54,65,76,87,98}")
    rng = random.Random(3)
    for _ in range(200):
        w = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 8)))
        assert contains_word(spec, w) == contains_word(spec, tuple(int(c) for c in w))
    assert contains_word(spec, "0123456789") and not contains_word(spec, "098")


def test_contains_word_non_ascii_digits_still_parse():
    # Arabic-Indic digits one, zero, two
    one, zero, two = "١", "٠", "٢"
    assert contains_word(full_shift(2), one + zero + one)
    assert not contains_word(forbidden_shift(["11"]), zero + one + one)
    assert not contains_word(full_shift(2), zero + two)       # 2 >= n
    assert contains_word(full_shift(3), zero + two)


def test_contains_word_symbol_outside_the_alphabet_is_false():
    assert not contains_word(full_shift(2), "0120")
    assert not contains_word(parse_shift_spec("forbidden:{11}"), "9")
    assert not contains_word(parse_shift_spec("spacing:P=evens"), "1002")


@pytest.mark.parametrize("w", ["01a", "0 1", "-1", "1.0", "²"])
def test_contains_word_non_digit_raises(w):
    with pytest.raises(ValueError):
        contains_word(full_shift(2), w)
