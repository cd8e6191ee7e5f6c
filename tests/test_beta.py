import math
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.beta import (
    BetaSpec,
    beta_digits,
    beta_shift,
    count_beta_language,
    parry_check,
    parse_beta,
)
from shiftlab.core import periodic_point, word
from shiftlab.errors import PreconditionError, SpecParseError
from shiftlab.langkit import contains_word, count_language, hereditary_check, log2_int

import beta_reference
from beta_reference import PerDigit, exact_floor, lex_compare, word_in_beta_language
from point_reference import equality_horizon, shift_point

GOLDEN = "quad:(1+1*sqrt5)/2"
LOG2_PHI = math.log2((1 + math.sqrt(5)) / 2)
NOT_ABOVE_1 = "beta must exceed 1"
INTEGER = ("integer beta rejected: the digit alphabet {0..floor(beta)} "
           "has floor(beta)+1 symbols but the ambient shift has ceil(beta)")


# -- an exact reference for u + v*sqrt(d) -------------------------------------

def _sign(p, q, d):
    """The sign of p + q*sqrt(d) for integers p, q and d not a square."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp == sq or not sq:
        return sp
    if not sp:
        return sq
    # opposite signs: the term with the larger square wins (no tie, as
    # sqrt(d) is irrational)
    return sp if p * p > q * q * d else sq


def _floor_ref(u, v, d):
    """floor(u + v*sqrt(d)) for Fractions u, v: with u = U/D and v = V/D, the
    m that makes U - m*D + V*sqrt(d) >= 0 and U - (m+1)*D + V*sqrt(d) < 0, a
    guess from isqrt settled by those sign tests."""
    if not v:
        return math.floor(u)
    D = u.denominator * v.denominator
    U, V = u.numerator * v.denominator, v.numerator * u.denominator
    root = isqrt(V * V * d)
    m = (U + (root if V > 0 else -root - 1)) // D
    while _sign(U - (m + 1) * D, V, d) >= 0:
        m += 1
    while _sign(U - m * D, V, d) < 0:
        m -= 1
    return m


def _greedy_reference(coef, k):
    """The first k greedy digits of 1 in base beta = (a + b*sqrt(d))/c:
    m = floor(beta * r), r <- beta * r - m from r = 1, with r = u + v*sqrt(d)
    for Fractions u and v."""
    a, b, c, d = coef
    u, v, out = Fraction(1), Fraction(0), []
    for _ in range(k):
        u, v = (a * u + b * v * d) / c, (a * v + b * u) / c
        m = _floor_ref(u, v, d)
        out.append(m)
        u -= m
    return out


def _quad_id(coef):
    a, b, c, d = coef
    return "(%d%+d*sqrt%d)/%d" % (a, b, d, c)


def _rational(f):
    return (f.numerator, 0, f.denominator, 0)


def test_quadratic_normalization_and_sign():
    # a, b, c are divided by their gcd; the label keeps the text
    spec = parse_beta("quad:(2+2*sqrt5)/4")
    assert spec._coef == (1, 1, 2, 5) and spec.label == "quad:(2+2*sqrt5)/4"
    assert parse_beta("quad:(-4+6*sqrt2)/2")._coef == (-2, 3, 1, 2)
    # mixed signs of a and b: 3 - sqrt2 and 2*sqrt2 - 1 exceed 1
    assert parse_beta("quad:(3+-1*sqrt2)/1").floor_beta == 1
    assert parse_beta("quad:(-1+2*sqrt2)/1").floor_beta == 1
    # 1 - sqrt2 and (-1 - sqrt2)/2 are negative, and sqrt2 - 1 < 1
    for text in ("quad:(1+-1*sqrt2)/1", "quad:(-1+1*sqrt2)/1", "quad:(-1+-1*sqrt2)/2"):
        with pytest.raises(PreconditionError, match="^%s$" % NOT_ABOVE_1):
            parse_beta(text)


def test_quadratic_rejects_square_radicand():
    for d in (0, 1, 4, 9, 144):
        with pytest.raises(SpecParseError, match="^d must be >= 2 and not a perfect square$"):
            parse_beta("quad:(1+1*sqrt%d)/2" % d)
    with pytest.raises(SpecParseError, match="^zero denominator$"):
        parse_beta("quad:(1+1*sqrt5)/0")
    # a spec built from coefficients checks them too
    for coef in [(3, 1, 1, 4), (3, 1, 2, 1), (3, 1, 2, 0), (3, 0, 0, 0), (-3, 0, -2, 0)]:
        with pytest.raises(PreconditionError, match="needs c >= 1"):
            BetaSpec(*coef)


@settings(max_examples=60)
@given(st.integers(-50, 50), st.integers(-50, 50).filter(bool), st.integers(1, 20),
       st.sampled_from([2, 3, 5, 7, 10]))
def test_quadratic_floor_matches_float(a, b, c, d):
    # floor(beta) of BetaSpec against the sign-test reference and the float
    fl = _floor_ref(Fraction(a, c), Fraction(b, c), d)
    assert abs(fl - math.floor((a + b * math.sqrt(d)) / c)) <= 1  # float can straddle
    if fl < 1:
        with pytest.raises(PreconditionError, match="^%s$" % NOT_ABOVE_1):
            BetaSpec(a, b, c, d)
    else:
        spec = BetaSpec(a, b, c, d)
        assert spec.floor_beta == fl and spec.alphabet_size == fl + 1


# -- parsing and digits -------------------------------------------------------

def test_parse_beta_decimal():
    spec = parse_beta("1.5")
    assert spec._coef == (3, 0, 2, 0)
    assert spec.alphabet_size == 2
    spec = parse_beta("2.5")
    assert spec.alphabet_size == 3


def test_parse_beta_quadratic():
    spec = parse_beta(GOLDEN)
    assert spec._coef == (1, 1, 2, 5)
    assert spec.floor_beta == 1
    # a spec built from coefficients is labelled with text that parses back
    for coef in [(1, 1, 2, 5), (5, -1, 2, 3), (3, 0, 2, 0)]:
        label = BetaSpec(*coef).label
        assert parse_beta(label)._coef == coef, label


def test_parse_beta_errors():
    # the exception class and text of each rejected value
    cases = [
        ("2", PreconditionError, INTEGER),
        ("1", PreconditionError, NOT_ABOVE_1),
        ("0.5", PreconditionError, NOT_ABOVE_1),
        ("-1.5", PreconditionError, NOT_ABOVE_1),
        ("1e3", PreconditionError, INTEGER),
        ("abc", SpecParseError, "bad beta value 'abc'"),
        ("quad:(1+1*sqrt4)/2", SpecParseError, "d must be >= 2 and not a perfect square"),
        ("quad:(1+1*sqrt5)/0", SpecParseError, "zero denominator"),
        ("quad:(4+0*sqrt5)/2", PreconditionError, INTEGER),
        ("quad:(-5+1*sqrt2)/1", PreconditionError, NOT_ABOVE_1),
    ]
    for text, error, message in cases:
        with pytest.raises(error) as e:
            parse_beta(text)
        assert (type(e.value), str(e.value)) == (error, message), text


def test_golden_digits():
    spec = parse_beta(GOLDEN)
    assert str(beta_digits(spec, 10)) == "1100000000"


def test_three_halves_digits():
    spec = parse_beta("1.5")
    assert str(beta_digits(spec, 9)) == "101000001"


def test_digit_horizon_enforced():
    spec = BetaSpec(3, 0, 2, 0)
    assert spec.digit_horizon == 4096
    with pytest.raises(PreconditionError):
        beta_digits(spec, 4097)
    with pytest.raises(PreconditionError):
        spec.digit(4096)


def test_finite_expansion_pads_zero():
    spec = BetaSpec(3, 0, 2, 0)
    # greedy remainder cycles; just confirm digits stay in range forever
    w = beta_digits(spec, 50)
    assert all(s in (0, 1) for s in w.symbols)


# -- the shift-dominance condition --------------------------------------------

def test_parry_check_eventually_periodic():
    assert parry_check(periodic_point("11", "0"), 100) is True
    assert parry_check(periodic_point("", "10"), 100) is True
    # 011000... has a shift strictly above it
    assert parry_check(periodic_point("01", "0"), 100) is False


def test_parry_check_prefix():
    assert parry_check(word("110"), 10) is True
    assert parry_check(word("011"), 10) is False
    # all-equal shifts decide nothing about the infinite tail
    assert parry_check(word("111"), 10) is None


def test_parry_check_digit_words():
    for text in [GOLDEN, "1.5", "1.9"]:
        spec = parse_beta(text)
        assert parry_check(beta_digits(spec, 200), 199) in (True, None)


# -- language membership and counting ----------------------------------------

def test_word_in_beta_language_golden():
    spec = parse_beta(GOLDEN)
    assert word_in_beta_language(spec, word("10"))
    assert word_in_beta_language(spec, word("110"))
    assert not word_in_beta_language(spec, word("111"))
    assert word_in_beta_language(spec, word("1011"))   # suffix 11 ties the digits
    assert not word_in_beta_language(spec, word("0111"))


def test_membership_agrees_with_automaton():
    for text in [GOLDEN, "1.5"]:
        spec = parse_beta(text)
        shift = beta_shift(spec)
        for k in range(1, 9):
            for syms in _all_words(spec.alphabet_size, k):
                assert word_in_beta_language(spec, syms) == contains_word(shift, syms)


def _all_words(n, k):
    import itertools
    return itertools.product(range(n), repeat=k)


def test_golden_counts():
    spec = parse_beta(GOLDEN)
    assert [count_beta_language(spec, k) for k in range(1, 6)] == [2, 4, 7, 12, 20]


def test_count_matches_brute_force():
    for text in [GOLDEN, "1.5", "2.5"]:
        spec = parse_beta(text)
        shift = beta_shift(spec)
        for k in range(1, 9):
            assert count_beta_language(spec, k) == \
                count_language(shift, k, strategy="brute_force")


def test_entropy_close_to_log_beta():
    spec = parse_beta(GOLDEN)
    h200 = log2_int(count_beta_language(spec, 200)) / 200
    assert abs(h200 - LOG2_PHI) <= 0.005
    spec = parse_beta("1.5")
    h200 = log2_int(count_beta_language(spec, 200)) / 200
    assert abs(h200 - math.log2(1.5)) <= 0.01


def test_beta_hereditary():
    for text, k in ((GOLDEN, 10), ("1.5", 10), ("2.5", 7)):
        ok, _ = hereditary_check(beta_shift(parse_beta(text)), k)
        assert ok, text


def test_count_preconditions():
    spec = parse_beta("1.5")
    with pytest.raises(PreconditionError):
        count_beta_language(spec, 0)


@settings(max_examples=25)
@given(st.fractions(min_value=Fraction(11, 10), max_value=Fraction(39, 10),
                    max_denominator=64))
def test_digits_below_floor_beta_property(beta):
    if beta.denominator == 1:
        return
    spec = BetaSpec(*_rational(beta))
    w = beta_digits(spec, 40)
    assert w.symbols[0] == spec.floor_beta
    assert all(0 <= s <= spec.floor_beta for s in w.symbols)


@settings(max_examples=15)
@given(st.fractions(min_value=Fraction(11, 10), max_value=Fraction(29, 10),
                    max_denominator=32), st.integers(2, 10))
def test_lambda_monotone_in_k(beta, k):
    if beta.denominator == 1:
        return
    spec = BetaSpec(*_rational(beta))
    assert count_beta_language(spec, k) > count_beta_language(spec, k - 1)


# -- the integer digit recurrence against the greedy reference -------------

def _seeded_quadratic_bases(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.choice([2, 3, 5, 6, 7, 10, 11, 13, 19, 1001])
        a, b, c = rng.randint(-15, 15), rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 7)
        if 1 <= _floor_ref(Fraction(a, c), Fraction(b, c), d) < 30:
            out.append((a, b, c, d))
    return out


def _conjugate(coef):
    a, b, c, d = coef
    return (a - b * math.sqrt(d)) / c


# (7+2*sqrt3)/3 and (-1+3*sqrt11)/4 have a conjugate above 1 in absolute
# value, so Y/Z grows with the digit index and the sqrt(d) precision grows too
NAMED_QUADRATIC = [(7, 2, 3, 3), (-1, 3, 4, 11), (1, 1, 2, 7), (1, 1, 2, 5), (3, 1, 1, 2),
                   (5, -1, 2, 3)]


@pytest.mark.parametrize("beta", NAMED_QUADRATIC, ids=_quad_id)
def test_digits_match_greedy_reference_deep(beta):
    spec = BetaSpec(*beta)
    assert list(beta_digits(spec, 600).symbols) == _greedy_reference(beta, 600)


def test_digits_match_greedy_reference_seeded_quadratic():
    bases = _seeded_quadratic_bases(5, 60)
    # the seeded bases cover every sign and size case of the recurrence
    assert any(b < 0 for _, b, _, _ in bases) and any(c > 1 for _, _, c, _ in bases)
    assert any(abs(_conjugate(q)) > 1 for q in bases)
    assert any(abs(_conjugate(q)) < 1 for q in bases)
    for q in bases:
        spec = BetaSpec(*q)
        assert list(beta_digits(spec, 250).symbols) == _greedy_reference(q, 250), q


def test_digits_match_greedy_reference_rational():
    rng = random.Random(11)
    bases = [Fraction(3, 2), Fraction(5, 2), Fraction(7, 3), Fraction(101, 100)]
    while len(bases) < 30:
        f = Fraction(rng.randint(11, 400), rng.randint(2, 97))
        if f > 1 and f.denominator > 1:
            bases.append(f)
    for f in bases:
        spec = BetaSpec(*_rational(f))
        assert list(beta_digits(spec, 600).symbols) == _greedy_reference(_rational(f), 600), f


def _near_ties(d, rng, count, top=40):
    """(X, Y, Z, m) with v = (X + Y*sqrt(d))/Z within 2^-126 of an integer in
    1..top, on either side, Y of either sign and |Y| up to far above Z, and
    m the floor of v."""
    out = []
    for _ in range(count):
        Z = rng.getrandbits(rng.randint(129, 400)) | (1 << 128)
        Y = rng.getrandbits(rng.randint(1, 600)) + 1
        Y = Y if rng.random() < 0.5 else -Y
        root = isqrt(Y * Y * d)
        floor_y = root if Y > 0 else -root - 1    # floor(Y*sqrt(d))
        m = rng.randint(1, top)
        for delta in (-2, -1, 0, 1):
            out.append((m * Z - floor_y + delta, Y, Z, m - 1 if delta < 0 else m))
    return out


def _convergent_ties(d, rng, top=40):
    """(X, Y, Z, m) with Z below 2^64, where only sqrt(d) is inexact: a
    convergent p/q of sqrt(d) puts q*sqrt(d) within 1/q of p, so
    v = m + (q*sqrt(d) - p)/Z lies within 2^-100/Z of m, above or below as
    the side of the convergent, for an integer in 1..top; and m the floor
    of v."""
    out = []
    for p, q in _sqrt_convergents(d, 400):
        if q < 1 << 100:
            continue
        for Z in (1, 3, rng.getrandbits(63) | 1):
            for sign in (1, -1):
                m = rng.randint(1, top)
                below = (p * p > d * q * q) == (sign > 0)
                out.append((m * Z - sign * p, sign * q, Z, m - 1 if below else m))
    return out


@pytest.mark.parametrize("d", [2, 3, 7, 11, 1001])
def test_floor_at_near_ties(d, monkeypatch):
    # at a near tie the per-digit reference's bracket straddles the integer,
    # so it must reach the exact floor, and BetaSpec._floor is that floor. A
    # fresh reference holds sqrt(d) to bitlen(Y) + 64 bits only.
    rng = random.Random(d)
    spec = BetaSpec(3, 1, 2, d)
    exact = [0]
    monkeypatch.setattr(beta_reference, "exact_floor", _counted(exact, exact_floor))
    for X, Y, Z, m in _near_ties(d, rng, 60) + _convergent_ties(d, rng):
        assert _floor_ref(Fraction(X, Z), Fraction(Y, Z), d) == m
        assert spec._floor(X, Y, Z) == m, (X, Y, Z, d)
        before = exact[0]
        assert PerDigit(spec._coef).bracket_floor(X, Y, Z) == m, (X, Y, Z, d)
        assert exact[0] == before + 1, (X, Y, Z, d)
    # away from an integer the bracket decides alone
    Z = rng.getrandbits(300) | (1 << 299)
    before = exact[0]
    assert PerDigit(spec._coef).bracket_floor(7 * Z + Z // 2, 1, Z) == 7
    assert exact[0] == before


def _before(coef, X, Y, Z):
    """A remainder (x, y, z) whose next step reads v = (X + Y*sqrt(d))/Z:
    r = v/beta = c*(X + Y*sqrt(d))*(a - b*sqrt(d)) / (Z*(a*a - b*b*d))."""
    a, b, c, d = coef
    D = a * a - b * b * d
    sign = 1 if D > 0 else -1
    return sign * c * (a * X - b * d * Y), sign * c * (a * Y - b * X), Z * abs(D)


@pytest.mark.parametrize("d", [2, 3, 7, 11, 1001])
def test_blocks_take_the_exact_digit_at_near_ties(d, monkeypatch):
    # a remainder whose next digit is a near tie: no block can certify it, so
    # it is taken by the exact floor, and the digits and the remainder after
    # it equal the per-digit recurrence's from the same remainder
    rng = random.Random(d + 100)
    coef = (3, 1, 2, d)
    top = BetaSpec(*coef).floor_beta
    exact = _count_exact_floors(monkeypatch)
    for X, Y, Z, m in _near_ties(d, rng, 4, top) + _convergent_ties(d, rng, top)[:12]:
        spec = BetaSpec(*coef)
        spec._blocks = spec._block_tables()
        spec._rem = start = _before(coef, X, Y, Z)
        before = exact[0]
        spec._extend(150)
        assert exact[0] > before and spec._digits[0] == m, (X, Y, Z, d)
        digits, rem = PerDigit(coef, start).extend(len(spec._digits))
        assert spec._digits == digits and spec._rem == rem, (X, Y, Z, d)


def _sqrt_convergents(d, count):
    """The first count continued-fraction convergents (p, q) of sqrt(d)."""
    a0 = isqrt(d)
    m, den, a = 0, 1, a0
    p0, p1, q0, q1 = 1, a0, 0, 1
    out = [(p1, q1)]
    while len(out) < count:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
        out.append((p1, q1))
    return out


def _counted(calls, fn):
    def counted(*args):
        calls[0] += 1
        return fn(*args)
    return counted


def _count_exact_floors(monkeypatch):
    """Count the calls of BetaSpec._floor from here on: [calls]."""
    calls = [0]
    monkeypatch.setattr(BetaSpec, "_floor", _counted(calls, BetaSpec._floor))
    return calls


@pytest.mark.parametrize("beta", NAMED_QUADRATIC, ids=_quad_id)
def test_digits_come_from_the_blocks(beta, monkeypatch):
    # a digit reaches the exact floor only when no block can certify it (v
    # within about 2^-112 of an integer), which none of these bases' first
    # 4096 digits is (they include (1+sqrt7)/2 and the c = 1 base 3+sqrt2)
    spec = BetaSpec(*beta)
    spec._blocks = spec._block_tables()
    assert 10 <= len(spec._blocks[1]) <= 80
    exact = _count_exact_floors(monkeypatch)
    beta_digits(spec, 4096)
    assert exact[0] <= 2


# -- the blocks against the per-digit recurrence, read by read ----------------

BIG = (0, 1, 1, 99999999999999999999999999999999999999)  # floor(beta) >= 2^64
# bases whose remainder reaches 0: phi, (2 + sqrt8)/2 and 4 + 3*sqrt2
FINITE = [(1, 1, 2, 5), (2, 1, 2, 8), (4, 3, 1, 2)]
# and one whose floor is too large for any block, a base just above 1, two
# whose conjugate exceeds 1 in absolute value, and the bench's two bases
READ_BASES = FINITE + [BIG, (10000000001, 0, 10000000000, 0), (7, 2, 3, 3), (-1, 3, 4, 11),
                       (1, 1, 2, 7), (3, 0, 2, 0)]


def _reads_agree(coef, reads, horizon=None):
    """Run reads (("digit", i) or ("word", k)) on a fresh spec, and after each
    one compare its digits and its exact remainder (x, y, z) with the
    per-digit recurrence run to as many digits."""
    spec = BetaSpec(*coef)
    if horizon is not None:
        spec.digit_horizon = horizon
    reference = PerDigit(coef)
    for kind, i in reads:
        if kind == "digit":
            spec.digit(min(i, spec.digit_horizon - 1))
        else:
            beta_digits(spec, min(i, spec.digit_horizon))
        digits, rem = reference.extend(len(spec._digits))
        assert spec._digits == digits and spec._rem == rem, (coef, kind, i)
    return spec


def _read_orders(seed):
    """One read of 4096; reads one index at a time to 600 (the acceptor's
    order); interleaved digit and word reads."""
    rng = random.Random(seed)
    mixed = [(rng.choice(("digit", "word")), rng.randrange(4097)) for _ in range(12)]
    mixed[3:3] = [("digit", i) for i in range(130, 170)]
    return [[("word", 4096)], [("digit", i) for i in range(600)], mixed]


@pytest.mark.parametrize("order", [0, 1, 2], ids=["one", "by-index", "interleaved"])
@pytest.mark.parametrize("beta", READ_BASES, ids=_quad_id)
def test_blocks_match_the_per_digit_recurrence(beta, order):
    # the base with floor(beta) >= 2^64 takes every digit by the exact
    # floor, an isqrt of an integer that grows by 64 bits a digit, so it is
    # read to 300 digits only
    horizon = 300 if beta == BIG else None
    spec = _reads_agree(beta, _read_orders(order)[order], horizon)
    if beta == BIG:
        assert spec._blocks[1] == ()
    if beta in FINITE:
        assert spec._rem == (0, 0, 1)


def test_blocks_match_the_per_digit_recurrence_seeded():
    # seeded quadratic bases (conjugates above and below 1) and seeded
    # rationals, one read to the digit horizon, then single digit reads
    bases = _seeded_quadratic_bases(41, 16)
    assert any(abs(_conjugate(q)) > 1 for q in bases)
    assert any(abs(_conjugate(q)) < 1 for q in bases)
    rng = random.Random(43)
    while len(bases) < 32:
        f = Fraction(rng.randint(11, 400), rng.randint(2, 97))
        if f > 1 and f.denominator > 1:
            bases.append(_rational(f))
    for q in bases:
        _reads_agree(q, [("word", 1000), ("digit", 1000), ("word", 4096)])


# the bases whose conjugate exceeds 1 in absolute value: y/z grows, and the
# fixed-point sqrt(d) of a block's read has to grow with it
@pytest.mark.parametrize("beta", [(1, 1, 2, 13), (7, 2, 3, 3), (-1, 3, 4, 11)], ids=_quad_id)
def test_digits_match_greedy_reference_at_the_digit_horizon(beta):
    assert abs(_conjugate(beta)) > 1
    spec = BetaSpec(*beta)
    k = spec.digit_horizon
    assert list(beta_digits(spec, k).symbols) == _greedy_reference(beta, k)
    assert spec._root[0] > 2 * 64


# a rational base, the base of the density-chaos bench, and a base whose
# conjugate exceeds 1
@pytest.mark.parametrize("beta", [(3, 0, 2, 0), (1, 1, 2, 7), (7, 2, 3, 3)],
                         ids=["3/2", "(1+sqrt7)/2", "(7+2*sqrt3)/3"])
def test_digit_reads_grow_the_memo_in_one_pass(beta, monkeypatch):
    calls = [0]
    extend = BetaSpec._extend

    def counted(self, k):
        calls[0] += 1
        return extend(self, k)
    monkeypatch.setattr(BetaSpec, "_extend", counted)
    spec = BetaSpec(*beta)
    ref = tuple(_greedy_reference(beta, spec.digit_horizon))
    roots = []
    assert beta_digits(spec, 600).symbols == ref[:600] and calls == [1]
    roots.append(spec._root[0])
    assert beta_digits(spec, 3000).symbols == ref[:3000] and calls == [2]
    roots.append(spec._root[0])
    assert beta_digits(spec, spec.digit_horizon).symbols == ref and calls == [3]
    roots.append(spec._root[0])
    assert beta_digits(spec, 1000).symbols == ref[:1000] and calls == [3]
    if beta == (7, 2, 3, 3):
        # the conjugate exceeds 1: the sqrt(d) precision grows with the index
        assert roots[0] < roots[1] < roots[2]
    else:
        # a rational needs no sqrt(d); for the Pisot base y/z shrinks, so
        # the precision of the first reads lasts
        assert roots[0] == roots[2] and roots[2] <= 4 * 64


def test_a_read_reads_one_block_ahead():
    # the acceptor reads one index at a time: a read past the memo computes
    # at least one full block more, up to the digit horizon
    spec = BetaSpec(1, 1, 2, 7)
    full = len(spec._block_tables()[1])
    spec.digit(0)
    assert len(spec._digits) >= full
    spec.digit_horizon = 2 * full + 5
    beta_digits(spec, full + 2)
    assert len(spec._digits) == 2 * full
    spec.digit(2 * full)
    assert len(spec._digits) == spec.digit_horizon


def test_negative_digit_index_rejected():
    for text in ("1.5", GOLDEN, "quad:(7+2*sqrt3)/3"):
        spec = parse_beta(text)
        with pytest.raises(PreconditionError):
            spec.digit(-1)          # fresh spec, no digit computed yet
        beta_digits(spec, 20)
        with pytest.raises(PreconditionError):
            spec.digit(-1)          # the digit list is no longer empty
        assert spec.digit(0) == spec.floor_beta


def test_interleaved_digit_requests_agree():
    beta = (-1, 3, 4, 11)
    ref = _greedy_reference(beta, 500)
    spec = BetaSpec(*beta)
    shift = beta_shift(spec)
    rng = random.Random(3)
    assert spec.digit(37) == ref[37]
    # the acceptor reads the digit list in place and extends it past its end
    assert contains_word(shift, ref[:120])
    assert len(spec._digits) >= 120
    assert list(beta_digits(spec, 90).symbols) == ref[:90]
    for i in rng.sample(range(500), 60):
        assert spec.digit(i) == ref[i]
    assert contains_word(shift, ref[:500])
    i = next(i for i in range(300, 500) if ref[i] < spec.floor_beta)
    assert not contains_word(shift, ref[:i] + [ref[i] + 1])
    assert list(beta_digits(spec, 500).symbols) == ref


# -- parry_check on words against the lex_compare loop ------------------------

def _parry_reference(syms, H):
    L = len(syms)
    indeterminate = False
    for k in range(1, min(H, L - 1) + 1):
        cmp = lex_compare(syms[k:], syms[:L - k])
        if cmp > 0:
            return False
        if cmp == 0:
            indeterminate = True
    return None if indeterminate else True


def test_parry_check_words_match_lex_compare_loop():
    rng = random.Random(17)
    cases = []
    for text in ["2.5", "quad:(3+1*sqrt2)/2", "1.5", GOLDEN]:
        spec = parse_beta(text)
        digits = beta_digits(spec, 300)
        cases.append((digits, spec.alphabet_size))
        # lower one late digit and raise another: both kinds of verdict
        syms = list(digits.symbols)
        for _ in range(10):
            i = rng.randrange(1, 300)
            trial = syms[:]
            trial[i] = rng.randrange(spec.alphabet_size)
            cases.append((word(trial, n=spec.alphabet_size), spec.alphabet_size))
    for _ in range(200):
        n = rng.choice([2, 3])
        cases.append((word([rng.randrange(n) for _ in range(rng.randint(1, 60))], n=n), n))
    cases += [(word("2" * 9, n=3), 3), (word("21" * 7, n=3), 3), (word("210210", n=3), 3)]
    verdicts = set()
    for w, n in cases:
        for H in (1, 5, len(w), 10 * len(w)):
            got = parry_check(w, H)
            assert got is _parry_reference(w.symbols, H)
            verdicts.add(got)
    assert verdicts == {True, False, None}
    assert parry_check(word("2" * 9, n=3), 100) is None


def test_parry_check_symbols_beyond_a_byte():
    # digits of a base above 256 compare like any other symbols
    for syms in [(300, 2, 299), (300, 301), (7, 300, 7), (300, 300, 300)]:
        assert parry_check(syms, 10) is _parry_reference(syms, 10)


def _shift_verdicts(syms):
    """lex_compare of each shifted tail syms[k:] with the prefix of its
    length, k = 1 .. L - 1: the O(L^2) slice definition."""
    L = len(syms)
    return [lex_compare(syms[k:], syms[:L - k]) for k in range(1, L)]


def _parry_from_verdicts(verdicts, H):
    """_parry_reference given the verdicts of every shift."""
    seen = verdicts[:max(H, 0)]
    if 1 in seen:
        return False
    return None if 0 in seen else True


def _fibonacci_word(n):
    a, b = "1", "10"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def test_parry_check_matches_the_slice_definition_on_long_words():
    rng = random.Random(61)
    texts = [
        "10" * 1600, "1" * 3000, "110" * 1000 + "111", "1" * 1500 + "0" + "1" * 1500,
        _fibonacci_word(3200), ("1" * 40 + "0") * 80, ("1" * 40 + "0") * 80 + "1" * 41,
        "".join(rng.choice("1110") for _ in range(3000)), "0" + "1" * 2999,
        "2" + "1" * 500 + ("21" * 1300),
    ]
    words = [tuple(map(int, t)) for t in texts]
    words.append(beta_digits(parse_beta("1.5"), 3000).symbols)
    answers = set()
    for syms in words:
        assert len(syms) >= 3000
        verdicts = _shift_verdicts(syms)
        L = len(syms)
        for H in (0, 1, 2, 3, 40, 41, 82, L // 2, L - 2, L - 1, L, 10 * L):
            got = parry_check(syms, H)
            assert got is _parry_from_verdicts(verdicts, H), (syms[:12], L, H)
            answers.add(got)
        assert parry_check(word("".join(map(str, syms)), n=3), L) is \
            _parry_from_verdicts(verdicts, L)
    assert answers == {True, False, None}


# -- parry_check on points against the per-shift loop -------------------------

def _parry_point_reference(d, H):
    """Each shift sigma^k d, k = 1..H, against d at their first disagreement,
    found coordinate by coordinate."""
    for k in range(1, H + 1):
        shifted = shift_point(d, k)
        i = next((i for i in range(1, equality_horizon(shifted, d) + 1)
                  if shifted.symbol_at(i) != d.symbol_at(i)), None)
        if i is not None and shifted.symbol_at(i) > d.symbol_at(i):
            return False
    return True


def test_parry_check_points_match_the_per_shift_loop():
    rng = random.Random(1104)
    points = [periodic_point("", "1"), periodic_point("", "110"), periodic_point("", "2", n=3),
              periodic_point("", "210", n=3), periodic_point("11", "0"), periodic_point("", "10"),
              periodic_point("01", "0"), periodic_point("", "3302", n=4)]
    for _ in range(150):
        n = rng.choice((2, 3, 4))
        pre = [rng.randrange(n) for _ in range(rng.randint(0, 6))]
        per = [rng.randrange(n) for _ in range(rng.randint(1, 13))]
        if rng.random() < 0.5:
            # a run of the top digit, then lower digits only: Parry holds
            top, low = [n - 1] * rng.randint(1, 3), [min(s, n - 2) for s in pre + per]
            if rng.random() < 0.5:
                pre, per = top + low[:len(pre)], low[len(pre):]
            else:
                pre, per = [], top + low
        points.append(periodic_point(pre, per, n=n))
    verdicts = set()
    for d in points:
        p, q = len(d.preperiod), len(d.period)
        for H in (0, 1, p, p + q, 300):
            got = parry_check(d, H)
            assert got is _parry_point_reference(d, H), (d, H)
            verdicts.add(got)
    assert verdicts == {True, False}
    # a purely periodic d: sigma^|per| d = d, so its window tail meets d
    d = periodic_point("", "2110", n=3)
    assert shift_point(d, 4) == d and parry_check(d, 300) is True


def test_parry_check_points_read_one_orbit_of_shifts(monkeypatch):
    # sigma^k d for k >= |pre| + |per| repeats an earlier shift, so the answer
    # at any H is the per-shift loop's at min(H, |pre| + |per|), and the
    # window read does not grow with H
    from shiftlab.core import EventuallyPeriodicPoint
    read = []
    prefix = EventuallyPeriodicPoint.prefix
    monkeypatch.setattr(EventuallyPeriodicPoint, "prefix",
                        lambda self, k: read.append(k) or prefix(self, k))
    rng = random.Random(1207)
    points = [periodic_point("", "10"), periodic_point("11", "0"), periodic_point("01", "0"),
              periodic_point("", "210", n=3)]
    for _ in range(60):
        n = rng.choice((2, 3))
        points.append(periodic_point([rng.randrange(n) for _ in range(rng.randint(0, 5))],
                                     [rng.randrange(n) for _ in range(rng.randint(1, 9))], n=n))
    verdicts = set()
    for d in points:
        p, q = len(d.preperiod), len(d.period)
        want = _parry_point_reference(d, p + q)
        for H in (p + q - 1, p + q, p + q + 1, 3 * (p + q) + 5):
            assert parry_check(d, H) is _parry_point_reference(d, H), (d, H)
        for H in (p + q, 10 ** 6, 10 ** 12):
            read.clear()
            assert parry_check(d, H) is want, (d, H)
            assert read == [2 * (p + q) + p + 1]
        verdicts.add(want)
    assert verdicts == {True, False}
