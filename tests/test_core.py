import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from shiftlab.core import (
    Alphabet,
    format_point,
    parse_point,
    periodic_point,
    word,
)
from shiftlab.errors import AlphabetMismatch, SpecParseError

from beta_reference import lex_compare
from point_reference import (
    equality_horizon,
    first_disagreement,
    metric_rho,
    point_prefix,
    shift_point,
)


def test_alphabet_rejects_small():
    with pytest.raises(ValueError):
        Alphabet(1)


def test_word_from_string_and_weight():
    w = word("10110")
    assert len(w) == 5
    assert w.weight() == 3
    assert str(w) == "10110"


def test_word_symbol_range_checked():
    with pytest.raises(ValueError):
        word("102")
    w = word("102", n=3)
    assert w.symbols == (1, 0, 2)


def test_lex_compare_basics():
    assert lex_compare(word("10"), word("01")) == 1
    assert lex_compare(word("01"), word("10")) == -1
    assert lex_compare(word("11"), word("11")) == 0
    with pytest.raises(ValueError):
        lex_compare(word("1"), word("10"))


def test_lex_compare_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        lex_compare(word("10"), word("10", n=3))


def test_point_canonicalization():
    # 1.(01)^inf == (10)^inf shifted into the period
    x = periodic_point("1", "01")
    assert x.preperiod == ()
    assert x.period == (1, 0)
    # non-primitive periods collapse
    y = periodic_point("", "1010")
    assert y.period == (1, 0)


def test_point_equality_after_canonicalization():
    assert periodic_point("1", "01") == periodic_point("", "10")
    assert periodic_point("110", "0") == periodic_point("11", "0")


def test_symbol_at_one_based():
    x = periodic_point("11", "0")
    assert [x.symbol_at(i) for i in range(1, 6)] == [1, 1, 0, 0, 0]
    with pytest.raises(IndexError):
        x.symbol_at(0)


def test_parse_format_round_trip():
    for text in [";10", "11;0", ";0", "1;0", ";110"]:
        x = parse_point(text)
        assert parse_point(format_point(x)) == x


def test_parse_point_errors():
    with pytest.raises(SpecParseError):
        parse_point("10")
    with pytest.raises(SpecParseError):
        parse_point("1;")
    with pytest.raises(SpecParseError):
        parse_point("1;0;1")
    with pytest.raises(SpecParseError):
        parse_point("a;b")


def test_metric_values():
    x = periodic_point("", "10")
    y = periodic_point("", "0")
    assert metric_rho(x, y) == Fraction(1, 2)
    assert metric_rho(x, x) == 0
    z = periodic_point("10", "0")  # agrees with x up to index 2
    assert metric_rho(x, z) == Fraction(1, 8)


def test_first_disagreement_none_for_equal():
    x = periodic_point("1", "01")
    y = periodic_point("", "10")
    assert first_disagreement(x, y) is None
    assert equality_horizon(x, y) >= 2


def test_shift_point():
    x = periodic_point("11", "0")
    assert shift_point(x, 1) == periodic_point("1", "0")
    assert shift_point(x, 2) == periodic_point("", "0")
    assert shift_point(x, 5) == periodic_point("", "0")
    y = periodic_point("", "110")
    assert shift_point(y, 1) == periodic_point("", "101")
    with pytest.raises(ValueError):
        shift_point(x, -1)


def test_point_prefix_and_str():
    x = periodic_point("", "10")
    assert point_prefix(x, 5).symbols == (1, 0, 1, 0, 1)
    assert str(x) == ";10"


points = st.builds(
    periodic_point,
    st.lists(st.integers(0, 1), max_size=4),
    st.lists(st.integers(0, 1), min_size=1, max_size=4),
)


@given(points, points, points)
def test_metric_ultrametric(x, y, z):
    assert metric_rho(x, z) <= max(metric_rho(x, y), metric_rho(y, z))


@given(points, points)
def test_metric_symmetric_and_separating(x, y):
    assert metric_rho(x, y) == metric_rho(y, x)
    assert (metric_rho(x, y) == 0) == (x == y)


@given(points, st.integers(0, 6), st.integers(0, 6))
def test_shift_additive(x, a, b):
    assert shift_point(shift_point(x, a), b) == shift_point(x, a + b)


@given(points, st.integers(1, 40))
def test_prefix_matches_symbol_at(x, k):
    assert point_prefix(x, k).symbols == tuple(x.symbol_at(i) for i in range(1, k + 1))


@given(points)
def test_format_round_trip_property(x):
    assert parse_point(format_point(x)) == x


# -- the prefix kernel against the one-coordinate definitions ----------------

def _seeded_point(rng, n):
    """A point over n symbols with preperiod 0..6 and period 1..13."""
    digits = lambda m: [rng.randrange(n) for _ in range(m)]
    return periodic_point(digits(rng.randint(0, 6)), digits(rng.randint(1, 13)), n=n)


def _first_disagreement_reference(x, y):
    """The per-index loop: symbol_at twice per index up to the horizon."""
    for i in range(1, equality_horizon(x, y) + 1):
        if x.symbol_at(i) != y.symbol_at(i):
            return i
    return None


def test_prefix_matches_symbol_at_at_the_window_edges():
    rng = random.Random(1101)
    xs = [_seeded_point(rng, rng.choice((2, 3, 4))) for _ in range(120)]
    for x in xs + [periodic_point("", "1"), periodic_point("201", "2", n=3)]:
        p, q = len(x.preperiod), len(x.period)
        for k in (-1, 0, 1, p, p + q - 1, p + q, p + q + 1, 1000):
            assert x.prefix(k) == tuple(x.symbol_at(i) for i in range(1, k + 1)), (x, k)


def test_first_disagreement_matches_the_per_index_loop():
    rng = random.Random(1102)
    pairs = []
    for _ in range(150):
        n = rng.choice((2, 3, 4))
        x = _seeded_point(rng, n)
        pre, per = list(x.preperiod), list(x.period)
        # a partner that differs from x in one place only, or nowhere
        if rng.random() < 0.5 and pre:
            pre[rng.randrange(len(pre))] = rng.randrange(n)
        else:
            per[rng.randrange(len(per))] = rng.randrange(n)
        pairs.append((x, periodic_point(pre, per, n=n)))
        pairs.append((x, periodic_point(x.preperiod, x.period * 2, n=n)))
        pairs.append((x, _seeded_point(rng, n)))
    seen = set()
    for x, y in pairs:
        got = first_disagreement(x, y)
        assert got == _first_disagreement_reference(x, y), (x, y)
        seen.add(got is None)
    assert seen == {True, False}
