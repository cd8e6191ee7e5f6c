"""Acceptors against the definitions of their languages.

`spec.accepts` checks the alphabet and runs the spec's one member test: the
family's word test where it has one (full shift, spacing, forbidden words,
counting) and an id-row walk otherwise (beta). It is checked
here against independent definition-level membership tests and against a
walk over the step, which enumeration and the DPs read, on seeded words
both in and out of the language; a property test feeds it arbitrary int
sequences. `contains_word` is checked against its string parsing rules. The
spacing excluded mask is checked against its per-difference form, and the
Delta* check against brute force and the sampler it replaced, on seeded set
expressions."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.beta import parse_beta
from shiftlab.core import Alphabet, Word
from shiftlab.errors import PreconditionError
from shiftlab.langkit import (
    SubshiftSpec,
    _counting_cap,
    contains_word,
    count_language,
    forbidden_shift,
    full_shift,
    parse_shift_spec,
)
from shiftlab.sets import ComplementSet, FiniteSet, parse_set_expr
from shiftlab.spacing import (
    EXACT_DIFFERENCE_SPAN,
    PSetSpec,
    delta_star_bound_check,
    spacing_shift,
)

from beta_reference import word_in_beta_language
from position_reference import brute_force_delta_sizes
from spacing_reference import admissible
from test_columns import FAMILIES

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
            ok, nxt = spec._step(state, a % spec.n)
            if ok:
                break
        else:
            raise AssertionError("dead end in %s at %d" % (spec.label, i))
        state = nxt
        out.append(a % spec.n)
    return out


def _seeded_words(spec, seed, count, lengths=(1, 700)):
    """`count` words with lengths in the closed range `lengths`; every other
    one has a random symbol raised, which usually takes it out of the
    language."""
    rng = random.Random("%s/%d" % (spec.label, seed))
    words = []
    for j in range(count):
        w = _walk(spec, rng, rng.randint(*lengths))
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


def _step_walk(spec, syms):
    """Membership by feeding the symbols through the step one at a time, each
    first checked against the alphabet."""
    state = spec._start_state
    for a in syms:
        if not 0 <= a < spec.n:
            return False
        ok, state = spec._step(state, a)
        if not ok:
            return False
    return True


WORD_TEST_SPECS = tuple("spacing:P=" + e for e in SPACING_SETS) + \
    tuple("forbidden:" + f for f in FORBIDDEN) + ("counting",)


@pytest.mark.parametrize("text", WORD_TEST_SPECS)
def test_word_test_matches_the_step_walk(text):
    spec = parse_shift_spec(text)
    assert spec._word_test is not None
    words = _seeded_words(spec, 3, 60)
    rng = random.Random(text)
    for w in words[:20]:
        # several symbols changed at once, and every prefix of a few words
        w = list(w)
        for i in rng.sample(range(len(w)), min(len(w), rng.randint(1, 6))):
            w[i] = rng.randrange(spec.n)
        words.append(tuple(w))
    words += [w[:j] for w in words[:3] for j in range(0, len(w), 7)]
    answers = [_step_walk(spec, w) for w in words]
    assert [spec.accepts(w) for w in words] == answers
    assert True in answers and False in answers
    # the empty word and every single symbol are in the language
    assert spec.accepts(()) and spec.accepts(b"")
    assert all(spec.accepts((a,)) for a in range(spec.n))


@pytest.mark.parametrize("expr", SPACING_SETS)
def test_spacing_gap_words_as_the_excluded_mask_grows(expr):
    # on a fresh spec, 1 0^(m-1) 1 is in the language exactly when m is in P,
    # with m growing by one, so each answer reads the mask as grown so far;
    # the step walk on a second fresh spec grows it from the step's side
    for first in ("word test", "step"):
        P = PSetSpec(parse_set_expr(expr))
        spec = spacing_shift(P)
        for m in range(1, 400):
            gap = (1,) + (0,) * (m - 1) + (1,)
            if first == "step":
                assert _step_walk(spec, gap + (0,) * m) == P.base.contains(m), m
            assert spec.accepts(gap) == P.base.contains(m), (first, m)


def test_counting_word_test_at_the_cap():
    # 1, 3, 5, 9, ..., 2**(j-1) + 1 realise the cap of the whole word; one
    # more 1 anywhere breaks it, and moving the last one in breaks a window
    spec = parse_shift_spec("counting")
    for length in (1, 2, 3, 5, 9, 17, 33, 65, 200, 513):
        ones = [1] + [(1 << (i - 1)) + 1 for i in range(2, length.bit_length() + 2)]
        ones = [p for p in ones if p <= length]
        syms = [0] * length
        for p in ones:
            syms[p - 1] = 1
        assert spec.accepts(syms) and _step_walk(spec, syms)
        for i in range(length):
            if not syms[i]:
                more = syms[:i] + [1] + syms[i + 1:]
                assert spec.accepts(more) == _step_walk(spec, more)
        if len(ones) > 1:
            moved = list(syms)
            moved[ones[-1] - 1], moved[ones[-1] - 2] = 0, 1
            assert not spec.accepts(moved) and not _step_walk(spec, moved)


def _counting_reference(w):
    """The counting shift from its window definition: every subword of length
    in (2**(j-1), 2**j], j >= 1, carries at most j ones."""
    for i in range(len(w)):
        ones = 0
        for end in range(i, len(w)):
            ones += w[end]
            j = 1
            while 2 ** j < end - i + 1:
                j += 1
            if ones > j:
                return False
    return True


def test_counting_matches_its_window_definition():
    # accepts (the word test), the step walk and the lambda column all read
    # one floor for the next 1; the reference reads every window
    spec = parse_shift_spec("counting")
    for k in range(1, 15):
        words = list(itertools.product((0, 1), repeat=k))
        want = [_counting_reference(w) for w in words]
        assert [spec.accepts(w) for w in words] == want, k
        assert [_step_walk(spec, w) for w in words] == want, k
        assert count_language(spec, k) == sum(want), k


MEMBER_SPECS = FAMILIES + ("forbidden:{00,212}", "full:n=300")


@pytest.mark.parametrize("text", MEMBER_SPECS)
def test_member_is_accepts_over_the_alphabet(text):
    # the member test that brute force calls takes a word already over the
    # alphabet: bytes up to 256 symbols, tuples past that. Every word to
    # k = 10 (while n**k <= 10**5, so to k = 2 for 300 symbols) and seeded
    # words of length 100-600 get the answer of accepts and of the step walk
    spec = parse_shift_spec(text)
    pack = bytes if spec.n <= 256 else tuple
    if spec._word_test is not None and spec.n <= 256:
        # the family's definition, so brute force counts against it
        assert spec._member is spec._word_test
    words = [w for k in range(11) if spec.n ** k <= 10 ** 5
             for w in itertools.product(range(spec.n), repeat=k)]
    words += _seeded_words(spec, 5, 40, lengths=(100, 600))
    answers = [_step_walk(spec, w) for w in words]
    assert [spec._member(pack(w)) for w in words] == answers
    assert [spec.accepts(w) for w in words] == answers
    if spec.family != "full":
        assert False in answers
    assert True in answers


def test_brute_force_and_accepts_read_the_word_test():
    # a spec whose word test (no 11) and transition (the full shift) disagree
    # on purpose: accepts and brute force read the word test, the state DP
    # the transition, so the oracle is not the engine checked against itself
    spec = SubshiftSpec(n=2, family="user", label="no 11 by its word test",
                        start_state=None, transition=lambda state, a: (True, state),
                        word_test=lambda b: b"\x01\x01" not in b)
    assert spec.accepts((1, 0, 1)) and not spec.accepts((0, 1, 1))
    assert _step_walk(spec, (0, 1, 1))
    fib = [2, 3, 5, 8, 13, 21, 34, 55]
    assert [count_language(spec, k, strategy="brute_force") for k in range(1, 9)] == fib
    assert [count_language(spec, k) for k in range(1, 9)] == [2 ** k for k in range(1, 9)]


def test_counting_word_test_is_the_step_walk_on_every_word():
    spec = parse_shift_spec("counting")
    for k in range(1, 17):
        words = list(itertools.product((0, 1), repeat=k))
        assert [spec._word_test(bytes(w)) for w in words] == \
            [_step_walk(spec, w) for w in words], k


def test_counting_word_test_near_the_whole_word_cap():
    # words with cap - 1, cap and cap + 1 ones, cap = _counting_cap(length):
    # at random places, or on the densest chain 0, 2, 4, 8, ..., 2**(cap-1)
    # moved to a random start (with cap + 1, one more 1 at a random place)
    spec = parse_shift_spec("counting")
    rng = random.Random(23)
    answers = {-1: set(), 0: set(), 1: set()}
    for _ in range(300):
        length = rng.randint(3, 700)
        cap = _counting_cap(length)
        chain = [0] + [1 << i for i in range(1, cap)]
        start = rng.randrange(length - chain[-1])
        for more in (-1, 0, 1):
            if rng.random() < 0.5:
                ones = rng.sample(range(length), cap + more)
            else:
                ones = [start + p for p in chain[:cap + min(more, 0)]]
                if more == 1:
                    ones.append(rng.choice([q for q in range(length) if q not in ones]))
            syms = [0] * length
            for q in ones:
                syms[q] = 1
            assert syms.count(1) == cap + more
            want = _step_walk(spec, syms)
            assert spec._word_test(bytes(syms)) == want == spec.accepts(syms), (length, more)
            answers[more].add(want)
    assert answers == {-1: {True, False}, 0: {True, False}, 1: {False}}


@pytest.mark.parametrize("n", (2, 3, 10, 255, 256, 257, 300))
def test_full_shift_rejects_symbols_past_its_alphabet(n):
    spec = full_shift(n)
    assert spec.accepts(()) and spec.accepts(range(n)) and spec.accepts([n - 1] * 9)
    for bad in (n, n + 1, 1 << 70, -1):
        assert not spec.accepts((bad,))
        assert not spec.accepts((0, n - 1, bad, 0))
    if n < 256:
        assert not spec.accepts(bytes([0, n, 0]))
        assert not spec.accepts(bytes([255]))


ARBITRARY_SPECS = tuple(parse_shift_spec(t) for t in WORD_TEST_SPECS + (
    "beta:beta=1.5", "beta:beta=2.7", "full:n=2", "full:n=300"))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_accepts_never_raises_and_matches_the_step_walk(data):
    spec = data.draw(st.sampled_from(ARBITRARY_SPECS))
    inside = st.integers(0, spec.n - 1)
    syms = data.draw(st.lists(st.one_of(
        inside, inside, inside,
        st.integers(-3, 300), st.integers(-(1 << 70), 1 << 70)), max_size=40))
    want = _step_walk(spec, syms)
    assert spec.accepts(syms) is want
    assert spec.accepts(tuple(syms)) is want
    assert contains_word(spec, syms) is want
    if all(0 <= a < 256 for a in syms):
        assert spec.accepts(bytes(syms)) is want
    if all(0 <= a < spec.n for a in syms):
        assert contains_word(spec, Word(Alphabet(spec.n), tuple(syms))) is want
    if all(0 <= a < 10 for a in syms):
        assert contains_word(spec, "".join(map(str, syms))) is want
        # Arabic-Indic digits
        assert contains_word(spec, "".join(chr(0x660 + a) for a in syms)) is want


def _state(spec, syms):
    state = spec._start_state
    for a in syms:
        ok, state = spec._step(state, a)
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


def _seeded_expr(rng, depth):
    """A random set expression: complements and unions of windows, finite
    sets, periodic sets, pow2diff and factorial blocks."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(5)
        if kind == 0:
            return "window:" + "".join(rng.choice("01") for _ in range(rng.randint(1, 60)))
        if kind == 1:
            return "finite:{%s}" % ",".join(map(str, rng.sample(range(1, 90), rng.randint(1, 6))))
        if kind == 2:
            return "periodic:%s;%s" % ("".join(rng.choice("01") for _ in range(rng.randint(0, 5))),
                                       "".join(rng.choice("01") for _ in range(rng.randint(1, 7))))
        return rng.choice(("pow2diff", "factorial_blocks"))
    if rng.random() < 0.4:
        return "complement:(%s)" % _seeded_expr(rng, depth - 1)
    return "union:(%s)" % "|".join(_seeded_expr(rng, depth - 1)
                                    for _ in range(rng.randint(2, 3)))


def _seeded_sets(seed, count):
    rng = random.Random(seed)
    return [parse_set_expr(e) for e in SPACING_SETS] + \
        [parse_set_expr(_seeded_expr(rng, 3)) for _ in range(count)]


def _window_lengths(expr):
    return [len(part.split(")")[0].split("|")[0]) for part in expr.split("window:")[1:]]


def _excluded_mask_reference(P, h):
    """The per-d string excluded_mask built before it read the set's mask."""
    return int("".join("0" if P.base.contains(d) else "1" for d in range(h, 0, -1)) or "0", 2)


def test_excluded_mask_matches_the_per_d_reference():
    for A in _seeded_sets(31, 24):
        P = PSetSpec(A)
        for h in sorted({0, 1, 2, 300} | {n + d for n in _window_lengths(str(A))
                                          for d in (-1, 1)}):
            assert P.excluded_mask(h) == _excluded_mask_reference(P, h), (A, h)


def _differences(A, H):
    """(A - A) cap [1, H - 1] from the pairs of A cap [1, H + L + p] when A
    is eventually periodic with preperiod L and period p, L + p within the
    check's span, else of A cap [1, H]: the differences a set B in [1, H]
    can meet, and whether they are all of A - A there."""
    shape = A.periodic_shape()
    exact = shape is not None and sum(shape) <= max(H, EXACT_DIFFERENCE_SPAN)
    members = A.members(H + sum(shape) if exact else H)
    out = set()
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if b - a >= H:
                break
            out.add(b - a)
    return out, exact


def _misses(B, D):
    return all(b - a not in D for i, a in enumerate(B) for b in B[i + 1:])


def test_delta_star_is_the_brute_force_max():
    # the largest B, over every subset of [1, H], and the verdict k > |B|
    # for every k the density precondition admits; a counterexample is
    # exact where A - A is read exactly, a pass always. An eventually
    # periodic A of positive density always passes, so finite sets that are
    # dense near 1 give the exact counterexamples.
    verdicts = []
    finite = ("finite:{1,2}", "finite:{1,11,12,13,14}", "finite:{3,4,5,7,12,14}")
    for A in _seeded_sets(41, 40) + [parse_set_expr(e) for e in finite]:
        for H in range(1, 15):
            D, D_exact = _differences(A, H)
            best = brute_force_delta_sizes(ComplementSet(FiniteSet(frozenset(D))), H)[H]
            for k in range(1, H + 1):
                if Fraction(len(A.members(H)), H) * k <= 1:
                    with pytest.raises(PreconditionError):
                        delta_star_bound_check(A, k, H)
                    continue
                holds, B, exact, capped = delta_star_bound_check(A, k, H)
                assert len(B) == best and _misses(B, D) and not capped, (A, H, k)
                assert holds == (k > best) and exact == (holds or D_exact), (A, H, k)
                verdicts.append((holds, exact))
    assert all(verdicts.count(v) > 5 for v in ((True, True), (False, True), (False, False)))


def _delta_star_reference(D, k, trials, H, seed):
    """The sampler delta_star_bound_check ran before it read a largest B:
    `trials` seeded random k-sets in [1, H] plus the progressions 1, 1 + s,
    ..., 1 + (k-1)s for s <= 20, each tested pair by pair against the
    differences D. One-sided: a set it finds misses D, a pass proves
    nothing."""
    candidates = []
    for step in range(1, 21):
        B = [1 + t * step for t in range(k)]
        if B[-1] <= H:
            candidates.append(B)
    rng = random.Random(seed)
    for _ in range(trials):
        candidates.append(sorted(rng.sample(range(1, H + 1), k)))
    for B in candidates:
        if _misses(B, D):
            return False, tuple(B)
    return True, None


def test_delta_star_matches_the_pairwise_reference():
    # wherever the sampler finds a counterexample, the exact check finds
    # one too
    verdicts, found = [], 0
    rng = random.Random(37)
    for A in _seeded_sets(41, 40):
        for H in (3, 40, 300):
            k = rng.randint(2, min(H, 12))
            if Fraction(len(A.members(H)), H) * k <= 1:
                with pytest.raises(PreconditionError):
                    delta_star_bound_check(A, k, H)
                continue
            holds = delta_star_bound_check(A, k, H)[0]
            ok, ce = _delta_star_reference(_differences(A, H)[0], k, 30, H, seed=H)
            assert ok or not holds, (A, k, H, ce)
            verdicts.append(holds)
            found += not ok
    # both verdicts occur, and the sampler's counterexamples are checked
    assert verdicts.count(True) > 5 and verdicts.count(False) > 5 and found > 5


def test_delta_star_needs_k_at_most_the_horizon():
    for k, H in ((600, 512), (5, 3), (4, 3)):
        with pytest.raises(PreconditionError):
            delta_star_bound_check(parse_set_expr("evens"), k, H)


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


# the five acceptors of the acceptor-queries bench workload
QUERY_SPECS = ("counting", "spacing:P=periodic:;0111011",
               "spacing:P=complement:(finite:{1,3,7,12})", "beta:beta=1.5",
               "forbidden:{111,0101}")


@pytest.mark.parametrize("text", QUERY_SPECS + ("full:n=10", "full:n=12", "full:n=300"))
def test_contains_word_on_long_words_agrees_across_forms(text):
    # full:n=12 has every ASCII digit as a symbol; full:n=300 checks tuples.
    # Every word is over the digits, so it is also a digit string: the full
    # shift on ten symbols has the words of a larger one over the digits.
    spec = parse_shift_spec(text)
    words = _seeded_words(spec if spec.n <= 10 else full_shift(10), 5, 40, (100, 600))
    answers = []
    for w in words:
        want = _step_walk(spec, w)
        assert contains_word(spec, "".join(map(str, w))) is want
        assert contains_word(spec, w) is want
        assert spec.accepts(bytes(w)) is want
        answers.append(want)
    if spec.family != "full":
        assert True in answers and False in answers


def test_an_ascii_digit_string_reaches_the_member_test_as_one_bytes():
    spec = parse_shift_spec("forbidden:{111,0101}")
    member, seen = spec._member, []

    def record(w):
        seen.append(w)
        return member(w)

    spec._member = record
    assert contains_word(spec, "0110") and not contains_word(spec, "0101")
    assert seen == [bytes((0, 1, 1, 0)), bytes((0, 1, 0, 1))]
    assert all(type(w) is bytes for w in seen)


@pytest.mark.parametrize("w", ["01a", "0 1", "-1", "1.0", "²"])
def test_contains_word_non_digit_raises(w):
    with pytest.raises(ValueError):
        contains_word(full_shift(2), w)
