import hashlib
import io
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab import langkit, sets
from shiftlab.cli import main
from shiftlab.errors import (
    PreconditionError,
    ResourceCapExceeded,
    SearchFailure,
    SpecParseError,
    SpecValidationError,
)
from shiftlab.langkit import (
    SubshiftSpec,
    binary_entropy,
    contains_word,
    count_language,
    counting_shift,
    entropy_estimates,
    enumerate_language,
    forbidden_shift,
    full_shift,
    hereditary_check,
    log2_int,
    max_density_word,
    max_symbol_count,
    max_symbol_witness,
    mixing_probe,
    parse_shift_spec,
)
from shiftlab.spacing import PSetSpec

from forbidden_reference import expand_all, tail_forbidden_shift
from position_reference import (
    count_positions,
    counting_narrow,
    delta_search,
    max_ones,
    position_search,
    spacing_narrow,
)
from prolongable_reference import validate_prolongable


def test_log2_int_exact_powers():
    for e in [1, 10, 53, 200, 1000]:
        assert log2_int(2 ** e) == pytest.approx(e)
    with pytest.raises(ValueError):
        log2_int(0)


def test_log2_int_matches_float_range():
    for x in [3, 1000, 123456789, 10 ** 40 + 7]:
        assert log2_int(x) == pytest.approx(math.log(x, 2), rel=1e-12)


def test_binary_entropy():
    assert binary_entropy(0) == 0.0
    assert binary_entropy(1) == 0.0
    assert binary_entropy(Fraction(1, 2)) == pytest.approx(1.0)
    assert binary_entropy(0.3) == pytest.approx(0.8812908992306927)


def test_full_shift_counts_and_membership():
    f2 = full_shift(2)
    assert count_language(f2, 10) == 1024
    assert contains_word(f2, "0110")
    f3 = full_shift(3)
    assert count_language(f3, 4) == 81
    assert contains_word(f3, "0212")
    assert not contains_word(f3, (0, 3))


def test_enumerate_language_lexicographic():
    f2 = full_shift(2)
    words = list(enumerate_language(f2, 2))
    assert words == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # a generator: the first word of a huge language comes out at once
    assert next(enumerate_language(f2, 400)) == (0,) * 400
    for label in ("full:n=3", "counting", "spacing:P=evens", "beta:beta=1.5",
                  "forbidden:{111,0101}"):
        spec = parse_shift_spec(label)
        for k in range(0, 7):
            expected = [w for w in itertools.product(range(spec.n), repeat=k)
                        if spec.accepts(w)]
            assert list(enumerate_language(spec, k)) == expected, (label, k)


def test_language_list_stops_at_limit():
    for shift, k, limit, count in (("full:n=2", 20, ["--limit", "3"], 3),
                                   ("forbidden:{111}", 1200, [], 64)):
        out = io.StringIO()
        argv = ["language", "--shift", shift, "--k", str(k), "--list"] + limit
        assert main(argv, out=out) == 0
        words = json.loads(out.getvalue())["result"]["words"]
        assert len(words) == count and words == sorted(words)
        spec = parse_shift_spec(shift)
        assert all(len(w) == k and contains_word(spec, w) for w in words)


def test_count_language_strategies_agree_small():
    spec = counting_shift()
    for k in range(1, 11):
        assert count_language(spec, k) == count_language(spec, k, strategy="brute_force")


def test_brute_force_cap():
    with pytest.raises(ResourceCapExceeded):
        count_language(full_shift(2), 40, strategy="brute_force")


def _recording_spec(n, seen):
    """The full n-shift by a word test that appends each word it is handed
    to seen."""
    def word_test(w):
        seen.append(w)
        return True

    return SubshiftSpec(n=n, family="user", label="recorded full:n=%d" % n, start_state=0,
                        transition=lambda s, a: (True, s), word_test=word_test)


@pytest.mark.parametrize("n", (2, 3, 5))
def test_brute_force_hands_each_word_once_in_order_as_bytes(n):
    # odd and even k, and k = 1, whose words have no tail
    for k in range(1, 8):
        seen = []
        assert count_language(_recording_spec(n, seen), k, strategy="brute_force") == n ** k
        assert all(type(w) is bytes for w in seen), k
        assert seen == list(map(bytes, itertools.product(range(n), repeat=k))), k


def test_brute_force_past_a_byte_alphabet_walks_tuples():
    spec = full_shift(257)
    walk, seen = spec._member, []

    def member(w):
        seen.append(w)
        return walk(w)

    spec._member = member
    for k in (1, 2):
        seen.clear()
        assert count_language(spec, k, strategy="brute_force") == 257 ** k
        assert seen == list(itertools.product(range(257), repeat=k)), k


def test_brute_force_cap_trips_before_any_word():
    def member(w):
        raise AssertionError("member test called on %r" % (w,))

    spec = full_shift(2)
    spec._member = member
    with pytest.raises(ResourceCapExceeded):
        count_language(spec, 40, strategy="brute_force")
    with pytest.raises(ResourceCapExceeded):
        count_language(spec, 5, strategy="brute_force", node_cap=31)


def test_brute_force_streams_its_words():
    # 65 536 words of 16 bytes: held in a list they would take about 2.5 MB
    tracemalloc.start()
    try:
        assert count_language(full_shift(2), 16, strategy="brute_force") == 65536
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


def test_entropy_report_full_shift():
    rep = entropy_estimates(full_shift(2), 8)
    assert all(r.h_k == pytest.approx(1.0) for r in rep.rows)
    assert rep.inf_so_far == pytest.approx(1.0)
    j = rep.to_json()
    assert j["rows"][0]["lambda"] == "2"


def test_entropy_inf_monotone():
    rep = entropy_estimates(counting_shift(), 16)
    infs = [r.inf_so_far for r in rep.rows]
    assert infs == sorted(infs, reverse=True)
    assert all(r.inf_so_far <= r.h_k for r in rep.rows)


def test_counting_shift_memberships():
    spec = counting_shift()
    assert contains_word(spec, "101")
    assert not contains_word(spec, "11")
    assert not contains_word(spec, "1010101")
    assert contains_word(spec, "1010")
    assert not contains_word(spec, "0110")


def test_counting_shift_frozen_counts():
    # hand-checked against brute force
    spec = counting_shift()
    assert [count_language(spec, k) for k in range(1, 9)] == [2, 3, 5, 8, 13, 21, 33, 50]


def test_max_symbol_count_counting_shift():
    spec = counting_shift()
    assert [max_symbol_count(spec, 1, 2 ** j) for j in range(1, 7)] == [1, 2, 3, 4, 5, 6]
    w = max_symbol_witness(spec, 1, 8)
    assert contains_word(spec, w) and w.weight() == 3


def test_max_symbol_count_full_shift():
    assert max_symbol_count(full_shift(2), 1, 8) == 8
    with pytest.raises(PreconditionError):
        max_symbol_count(full_shift(2), 0, 4)


def test_max_symbol_count_generic_path_ternary():
    f3 = full_shift(3)
    assert max_symbol_count(f3, 2, 5) == 5


def test_maximal_density_estimate():
    spec = counting_shift()
    vals = [Fraction(max_symbol_count(spec, 1, k), k) for k in range(1, 9)]
    assert vals[-1] == Fraction(3, 8)
    # D_k/k upper-bounds the maximal density, approaching it from above
    assert min(vals) == vals[-1]


def test_max_density_word_full_shift():
    w, val = max_density_word(full_shift(2), 1, 6)
    assert str(w) == "111111" and val == 1


def test_max_density_word_counting_shift():
    # the k of the acceptor-queries bench op, against the enumerated language
    spec = counting_shift()
    w, val = max_density_word(spec, 1, 24, require_target=False)
    assert (w.symbols, val) == _least_densest_word(spec, 1, 24)
    assert str(w) == "100010000100001000010000" and val == Fraction(5, 24)
    assert contains_word(spec, w)


def test_hereditary_check():
    assert hereditary_check(counting_shift(), 8) == (True, None)
    # the first word of L_k in lexicographic order with a lowering outside
    # L_k, and its first such lowering
    for text, k, bad, lowered in (
            ("forbidden:{00}", 4, "0101", "0001"),
            ("forbidden:{0}", 3, "111", "011"),
            ("forbidden:{20}", 3, "021", "020"),
            ("forbidden:{111,0101}", 12, "000000001101", "000000000101")):
        spec = parse_shift_spec(text)
        ok, pair = hereditary_check(spec, k)
        assert not ok, text
        assert [(str(w), type(w.symbols)) for w in pair] == [(bad, tuple), (lowered, tuple)]
        assert all(w.alphabet == spec.alphabet for w in pair)
        assert contains_word(spec, bad) and not contains_word(spec, lowered)


@pytest.mark.parametrize("text, k", [
    ("counting", 12), ("spacing:P=periodic:;0111011", 12),
    ("spacing:P=complement:(finite:{1,3,7,12})", 12), ("beta:beta=1.5", 12),
    ("full:n=300", 2),
])
def test_hereditary_check_holds(text, k):
    assert hereditary_check(parse_shift_spec(text), k) == (True, None)


@pytest.mark.parametrize("n, k", [(2, 5), (3, 4), (257, 2)])
def test_hereditary_check_hands_each_lowered_word_once_in_order(n, k):
    # bytes over a byte alphabet, tuples past it
    spec = full_shift(n)
    member, seen = spec._member, []

    def record(w):
        seen.append(w)
        return member(w)

    spec._member = record
    assert hereditary_check(spec, k) == (True, None)
    seq = bytes if n <= 256 else tuple
    assert all(type(w) is seq for w in seen)
    assert seen == [seq(w[:i] + (a - 1,) + w[i + 1:])
                    for w in itertools.product(range(n), repeat=k)
                    for i, a in enumerate(w) if a]


def test_lemma_style_weight_bound_full_shift():
    # hereditary X: 2**weight(w) <= lambda_k for every language word
    spec = full_shift(2)
    lam = count_language(spec, 6)
    for syms in enumerate_language(spec, 6):
        assert 2 ** sum(syms) <= lam


def test_mixing_probe_needs_a_nonnegative_horizon():
    with pytest.raises(PreconditionError):
        mixing_probe(full_shift(2), "1", "1", -1)
    assert mixing_probe(full_shift(2), "1", "1", 0) == 0


def test_mixing_probe_full_shift():
    assert mixing_probe(full_shift(2), "1", "1", 8) == 0


def test_mixing_probe_counting_shift():
    g = mixing_probe(counting_shift(), "101", "101", 64)
    assert g is not None and g <= 8


ACCEPTOR_QUERY_SPECS = ("counting", "spacing:P=periodic:;0111011",
                        "spacing:P=complement:(finite:{1,3,7,12})", "beta:beta=1.5",
                        "forbidden:{111,0101}")


@pytest.mark.parametrize("text", ACCEPTOR_QUERY_SPECS)
def test_mixing_probe_gives_the_least_gap_of_the_tail(text):
    # g is the least gap with u 0^m v in L for every m in [g, m_max], so
    # g - 1 fails; None when m_max itself fails
    spec = parse_shift_spec(text)
    rng = random.Random(20)
    words = [w for k in range(1, 7) for w in enumerate_language(spec, k)]

    def gap_ok(u, v, m):
        return spec.accepts(u + (0,) * m + v)

    seen = set()
    for _ in range(40):
        u, v, m_max = rng.choice(words), rng.choice(words), rng.randrange(0, 30)
        g = mixing_probe(spec, u, v, m_max)
        if g is None:
            assert not gap_ok(u, v, m_max)
            seen.add("none")
            continue
        assert all(gap_ok(u, v, m) for m in range(g, m_max + 1))
        assert g == 0 or not gap_ok(u, v, g - 1)
        seen.add("zero" if g == 0 else "gap")
    assert "gap" in seen


def test_mixing_probe_failure():
    # 11 is forbidden: 1 0^0 1 fails but all gaps >= 1 work
    spec = forbidden_shift(["11"])
    assert mixing_probe(spec, "1", "1", 8) == 1
    with pytest.raises(PreconditionError):
        mixing_probe(spec, "11", "1", 8)


def test_forbidden_shift_counts():
    # golden mean SFT: no 11
    spec = forbidden_shift(["11"])
    counts = [count_language(spec, k) for k in range(1, 8)]
    assert counts == [2, 3, 5, 8, 13, 21, 34]


def test_parse_shift_spec_round_trip():
    for text in ["full:n=2", "full:n=3", "counting",
                 "spacing:P=complement:(finite:{1})",
                 "spacing:P=evens",
                 "beta:beta=1.5",
                 "beta:beta=quad:(1+1*sqrt5)/2",
                 "forbidden:{11}"]:
        spec = parse_shift_spec(text)
        assert parse_shift_spec(spec.label).label == spec.label


def test_parse_shift_spec_errors():
    for bad in ["full:n=1", "full:n=x", "spacing:P=nope", "beta:beta=abc",
                "forbidden:{}", "forbidden:{1a}", "unknown"]:
        with pytest.raises(SpecParseError):
            parse_shift_spec(bad)


def test_binomial_entropy_bound_grid():
    for n in range(1, 31):
        for num in range(1, 11):
            eps = Fraction(num, 20)
            lhs = sum(math.comb(n, j) for j in range(int(n * eps) + 1))
            assert lhs <= 2 ** (n * binary_entropy(eps)) * (1 + 1e-12)


@settings(max_examples=30)
@given(st.integers(2, 3), st.integers(1, 6))
def test_full_shift_lambda_property(n, k):
    assert count_language(full_shift(n), k) == n ** k


@settings(max_examples=20)
@given(st.lists(st.text(alphabet="01", min_size=2, max_size=3), min_size=1, max_size=2))
def test_forbidden_counts_match_brute(forbidden):
    try:
        spec = forbidden_shift(forbidden)
    except SpecValidationError:
        return  # not right-prolongable, e.g. forbidding both 0-extensions
    for k in range(1, 7):
        assert count_language(spec, k) == count_language(spec, k, strategy="brute_force")


def _refusal(build):
    """The SpecValidationError message that build() raises, or None."""
    try:
        build()
    except SpecValidationError as e:
        return str(e)
    return None


def _forbidden_cases():
    """(words, n): every set of at most 3 binary words of length <= 3, plus
    300 seeded ternary sets."""
    binary = ["".join(w) for m in (1, 2, 3) for w in itertools.product("01", repeat=m)]
    cases = [(list(ws), 2) for r in (1, 2, 3) for ws in itertools.combinations(binary, r)]
    rng = random.Random(23)
    return cases + [(["".join(rng.choice("012") for _ in range(rng.randint(1, 3)))
                      for _ in range(rng.randint(1, 6))], 3) for _ in range(300)]


def test_prolongability_on_the_state_graph_matches_the_enumeration(monkeypatch):
    # the same verdict and the same first dead word
    cases = _forbidden_cases()
    got = [_refusal(lambda: forbidden_shift(ws, n=n)) for ws, n in cases]
    # the reference runs on the same spec, built without the graph check
    monkeypatch.setattr(langkit, "_validate_prolongable", lambda spec: None)

    def enumerated(ws, n):
        validate_prolongable(forbidden_shift(ws, n=n), max(map(len, ws)) + 2)

    assert got == [_refusal(lambda: enumerated(ws, n)) for ws, n in cases]
    assert None in got and {g for g in got if g} > {"language not right-prolongable at ()"}


def test_prolongability_check_charges_the_node_cap(monkeypatch):
    # one word of length 22: its 22 proper prefixes are the states
    text = "forbidden:{1000000000000000000001}"
    monkeypatch.setattr(langkit, "DEFAULT_NODE_CAP", 22)
    assert count_language(parse_shift_spec(text), 22) == 2 ** 22 - 1
    monkeypatch.setattr(langkit, "DEFAULT_NODE_CAP", 21)
    with pytest.raises(ResourceCapExceeded):
        parse_shift_spec(text)
    assert main(["language", "--shift", text, "--k", "2"], out=io.StringIO()) == 3


def _brute_columns(spec, k_max):
    """lambda_k and D_k(alpha) for every nonzero alpha, k = 1..k_max, from
    the spec's member test alone: a word without a forbidden factor has
    none in its prefix, so L_k is the words wa of L_(k-1) x A it accepts."""
    out, words, ext = [], [b""], [bytes([a]) for a in range(spec.n)]
    for _ in range(k_max):
        words = [w for w in (u + a for u in words for a in ext) if spec._member(w)]
        out.append((len(words),) + tuple(max(w.count(a) for w in words)
                                         for a in range(1, spec.n)))
    return out


def _columns(spec, k_max):
    return [(count_language(spec, k),) + tuple(max_symbol_count(spec, a, k)
                                               for a in range(1, spec.n))
            for k in range(1, k_max + 1)]


def test_aho_corasick_states_match_the_tail_reference():
    # the columns of brute force and of the last-max_len-1 reference, on at
    # most 1 + sum |f| states and never more than the reference's
    built = 0
    for ws, n in _forbidden_cases():
        try:
            spec = forbidden_shift(ws, n=n)
        except SpecValidationError:
            continue  # not right-prolongable
        built += 1
        ref = tail_forbidden_shift(ws, n=n)
        states = len(spec._graph.states)  # the prolongability check expanded them all
        assert states <= 1 + sum(map(len, ws)) and states <= expand_all(ref), ws
        assert _columns(spec, 10) == _columns(ref, 10) == _brute_columns(spec, 10), ws
    assert built > 200


def test_long_sparse_forbidden_words_count_at_once():
    # 1 0^20 1 overlaps itself in one symbol, so two occurrences need 43
    # places: lambda_40 = 2**40 - 19 * 2**18 (19 starts, 18 free places)
    text = "forbidden:{1000000000000000000001}"
    assert count_language(parse_shift_spec(text), 40) == 2 ** 40 - 19 * 2 ** 18 == 1099506647040
    assert len(parse_shift_spec("forbidden:{999999}")._graph.states) == 6
    out = io.StringIO()
    assert main(["language", "--shift", text, "--k", "40"], out=out) == 0
    assert "1099506647040" in out.getvalue()


@settings(max_examples=20)
@given(st.integers(2, 12), st.integers(2, 12))
def test_counting_lambda_submultiplicative(a, b):
    spec = counting_shift()
    assert count_language(spec, a + b) <= count_language(spec, a) * count_language(spec, b)


@settings(max_examples=20)
@given(st.integers(1, 10), st.integers(1, 10))
def test_counting_D_subadditive(a, b):
    spec = counting_shift()
    d = lambda k: max_symbol_count(spec, 1, k)
    assert d(a + b) <= d(a) + d(b)


def _automaton_specs(forbidden, beta, excluded):
    from shiftlab.beta import BetaSpec, beta_shift
    from shiftlab.sets import ComplementSet, FiniteSet
    from shiftlab.spacing import PSetSpec, spacing_shift

    specs = [beta_shift(BetaSpec(*beta)),
             spacing_shift(PSetSpec(ComplementSet(FiniteSet(frozenset(excluded)))))]
    try:
        specs.append(forbidden_shift(forbidden, n=3))
    except SpecValidationError:
        pass  # not right-prolongable
    return specs


@settings(max_examples=25, deadline=None)
@given(st.lists(st.text(alphabet="012", min_size=1, max_size=3), min_size=1, max_size=3),
       st.integers(2, 7).flatmap(lambda q: st.tuples(st.integers(q + 1, 3 * q - 1),
                                                     st.just(q))),
       st.sets(st.integers(1, 8), max_size=3))
def test_automaton_dp_matches_the_oracles(forbidden, beta, excluded):
    # lambda_k from the (+, x) DP against brute force, D_k from the (max, +)
    # DP against the maximum over the enumerated language
    num, den = beta
    if num % den == 0:
        return  # integer bases are rejected
    for spec in _automaton_specs(forbidden, (num, 0, den, 0), excluded):
        assert spec.engine == "automaton_dp"
        for k in range(1, 7):
            assert count_language(spec, k) == count_language(spec, k, strategy="brute_force")
            words = list(enumerate_language(spec, k))
            for alpha in range(1, spec.n):
                best = max(w.count(alpha) for w in words)
                assert spec._dp(alpha).value(k) == best
                assert max_symbol_count(spec, alpha, k) == best


@pytest.mark.parametrize("shift,d", [("beta:beta=1.5", 501), ("forbidden:{111}", 1000)])
def test_max_symbol_count_deep_k_without_recursion(shift, d):
    # the generic search recursed once per symbol and overflowed near k = 1000
    assert max_symbol_count(parse_shift_spec(shift), 1, 1500) == d


def _user_no11(calls=None):
    """No two adjacent 1s, built as a user builds a subshift: a canonical state
    (the last symbol) and a word test over bytes. calls[0] counts the
    transition's calls."""
    def transition(last, a):
        if calls is not None:
            calls[0] += 1
        return not (last == a == 1), a

    return SubshiftSpec(n=2, family="user", label="no11", start_state=0,
                        transition=transition, word_test=lambda b: b"\x01\x01" not in b)


def test_a_user_built_spec_counts_its_column_once():
    # a K-row entropy table resumes one column: it asks the transition
    # exactly what one count of lambda_K asks
    table_calls, count_calls = [0], [0]
    for_table, for_count = _user_no11(table_calls), _user_no11(count_calls)
    rows = entropy_estimates(for_table, 12).rows
    assert count_language(for_count, 12) == rows[-1].lam == 377  # Fibonacci: F(14)
    assert table_calls[0] == count_calls[0] > 0
    # brute force reads the word test, so it checks the table against it
    assert count_language(for_count, 12, strategy="brute_force") == 377


def test_wide_alphabets_read_one_multiplicity_entry_per_layer():
    spec = full_shift(65536)
    assert count_language(spec, 1000) == 65536 ** 1000
    # one state, so its multiplicity row is one (id, multiplicity) entry
    graph = spec._graph
    assert graph.single[0] + graph.multi[0] == ((0, 65536),)
    # past a byte alphabet: the (max, +) pass over the id row
    assert max_symbol_witness(full_shift(300), 299, 50).symbols == (299,) * 50


def test_word_test_queries_do_not_fill_the_table():
    spec = _user_no11()
    count_language(spec, 3)
    rng = random.Random(19)
    ids = len(spec._graph.ids)
    answers = []
    for _ in range(200):
        w = [0] * 200
        for _ in range(rng.randrange(1, 40)):
            w[rng.randrange(200)] = 1
        answers.append(spec.accepts(w))
        assert answers[-1] == ("11" not in "".join(map(str, w)))
    assert len(spec._graph.ids) == ids
    assert True in answers and False in answers


# -- the position search ------------------------------------------------------------

def _seeded_window():
    rng = random.Random(7)
    return "window:" + "".join(rng.choice("0111") for _ in range(40))


POSITION_FAMILIES = (
    "counting",
    "spacing:P=evens",
    "spacing:P=periodic:;0111011",
    "spacing:P=pow2diff",
    "spacing:P=factorial_blocks",
    "spacing:P=" + _seeded_window(),
)


@pytest.mark.parametrize("text", POSITION_FAMILIES)
def test_position_search_lambda_matches_brute_force(text):
    spec = parse_shift_spec(text)
    assert spec.engine == "branch_and_bound"
    for k in range(1, 15):
        assert count_language(spec, k) == count_language(spec, k, strategy="brute_force"), k
    if text == "spacing:P=evens":
        assert [count_language(spec, k) for k in range(1, 31)] == \
            [2 ** ((k + 1) // 2) + 2 ** (k // 2) - 1 for k in range(1, 31)]


def _list_position_search(narrow, chosen, cands, node_cap, bound=None):
    """position_search as it ran on candidate lists, kept as the reference
    for the mask walk: ``cands`` and the ``rest`` that ``narrow`` gets and
    returns are ascending lists, and the bound cut reads the candidates left
    in the level from the level's length."""
    chosen = list(chosen)
    best, nodes = tuple(chosen), 0
    stack = []  # (candidates, iterator over them) of each open ancestor level
    level, it = cands, enumerate(cands, 1)
    while True:
        for i, q in it:
            nodes += 1
            if nodes > node_cap:
                e = ResourceCapExceeded("position search exceeded %d nodes" % node_cap)
                e.partial = best
                raise e
            if bound is not None:
                need = len(best) - len(chosen)
                if len(level) - i < need or bound(q) < need:
                    it = iter(())
                    break
            chosen.append(q)
            if len(chosen) > len(best):
                best = tuple(chosen)
            rest = level[i:]
            if rest:
                rest = narrow(chosen, rest)
                if rest:
                    stack.append((level, it))
                    level, it = rest, enumerate(rest, 1)
                    break
            chosen.pop()
        else:
            if not stack:
                return nodes, best
            level, it = stack.pop()
            chosen.pop()


def _positions(mask):
    return [q for q in range(mask.bit_length()) if mask >> q & 1]


def _definition_narrow(text):
    """The mask narrowing step of a position family, read off its definition."""
    if text == "counting":
        return counting_narrow
    return spacing_narrow(PSetSpec(sets.parse_set_expr(text[len("spacing:P="):])))


def _membership_narrow(spec):
    """The list narrowing step from membership: q stays when the word with
    its 1s at chosen and q is in the language."""
    def narrow(chosen, rest):
        kept = []
        for q in rest:
            syms = [0] * q
            for p in chosen + [q]:
                syms[p - 1] = 1
            if spec.accepts(syms):
                kept.append(q)
        return kept
    return narrow


def _check_node_for_node(args, ref_narrow):
    """The mask search on args (narrow, chosen, cands, node_cap, bound)
    against the list reference with ref_narrow: the same (nodes, best), or
    the same partial set from a cap trip, at the given cap and at caps that
    trip it at the start, in the middle and at the last node."""
    narrow, chosen, cands, node_cap, bound = args

    def both(cap):
        out = []
        for search, nar, cs in ((position_search, narrow, cands),
                                (_list_position_search, ref_narrow, _positions(cands))):
            try:
                out.append(search(nar, chosen, cs, cap, bound))
            except ResourceCapExceeded as e:
                out.append(("cap", e.partial))
        assert out[0] == out[1], (cap, out)
        return out[0]

    got = both(node_cap)
    if got[0] != "cap":
        for cap in {1, got[0] // 3, got[0] // 2, got[0] - 1}:
            if 1 <= cap < got[0]:
                assert both(cap)[0] == "cap"
    return got


@pytest.mark.parametrize("text", (
    "counting", "spacing:P=evens", "spacing:P=periodic:;0111011", "spacing:P=pow2diff",
    "spacing:P=" + _seeded_window(), "spacing:P=complement:(finite:{2,25})"))
def test_mask_search_matches_the_list_search_node_for_node(text):
    spec = parse_shift_spec(text)
    assert spec.engine == "branch_and_bound"
    # the mask step from the family's definition, the list step from
    # membership
    narrow, ref = _definition_narrow(text), _membership_narrow(spec)
    # the counting shift's D_j search, whose bound is loose, grows fastest
    dmax, lmax = (20, 22) if text == "counting" else (30, 16)
    for j in range(1, dmax + 1):
        # D_j, cut by the suffix bound, as max_ones runs it
        d = [max_symbol_count(spec, 1, i) for i in range(1, j)]

        def bound(q):
            return d[j - q - 1] if q < j else 0

        _, best = _check_node_for_node((narrow, [], (1 << (j + 1)) - 2, 10 ** 6, bound), ref)
        assert len(best) == max_symbol_count(spec, 1, j)
    for j in range(1, lmax + 1):
        # lambda_j through position 1, as count_positions runs it
        cands = narrow([1], (1 << (j + 1)) - 4)
        assert _positions(cands) == ref([1], list(range(2, j + 1)))
        _check_node_for_node((narrow, [1], cands, 10 ** 6, None), ref)


def test_delta_search_matches_the_list_search_node_for_node():
    # the Delta-set search of position_reference against the list search,
    # and largest_delta_subset against both: the same size where the walk
    # and the search finish, no smaller where only the walk does, and a
    # lower bound where the walk trips
    trips = 0
    for text in ("evens", "pow2diff", "periodic:;0111011", "complement:(finite:{1,3,7,12})",
                 _seeded_window()):
        A = sets.parse_set_expr(text)
        for H, cap in ((30, 10 ** 6), (60, 400), (90, 50)):
            a_mask = A.mask(H)

            def narrow(chosen, rest):
                return rest & (a_mask << chosen[-1])

            def ref(chosen, rest):
                return [r for r in rest if A.contains(r - chosen[-1])]

            out = _check_node_for_node(
                (narrow, [], (1 << (H + 1)) - 2, cap, lambda q: H - q), ref)
            trips += out[0] == "cap"
            assert delta_search(A, H, cap) == (out[1], out[0] == "cap")
            got, capped = sets.largest_delta_subset(A, H, cap)
            assert all(A.contains(b - a) for i, a in enumerate(got) for b in got[i + 1:])
            if out[0] == "cap":
                assert capped or len(got) >= len(out[1])
            else:
                assert len(got) <= len(out[1]) if capped else len(got) == len(out[1])
    assert trips


def _max_symbol_spec(name):
    if name == "counting-search":
        # the counting shift with the position search on its window rule in
        # place of its closed form
        spec, column = counting_shift(), []
        spec._position_max = lambda k, node_cap: max_ones(counting_narrow, k, column, node_cap)
        return spec
    return parse_shift_spec(name)


PINNED_COLUMNS = {
    "forbidden:{111,0101}":
        "08af99148adf9dabf6d8000c2a9fc940b8fcfffccba1546ff42cf26b81397c5a",
    "spacing:P=complement:(finite:{1,3,7,12})":
        "4320a0a1cfb726f7aeab333cb2db18ce114aff7877d131861f97423781c2a325",
    "beta:beta=1.5":
        "e421062128a6a75246b3d0c8c27f1e7cf12d9e245dfc8e4f4be247c20229fe10",
    "full:n=3":
        "2609273276bd299c4bcd1c72138e96a4a6d4a8630d5ec73d5afe8bcc164989cf",
}


@pytest.mark.parametrize("name", POSITION_FAMILIES + (
    "counting-search", "full:n=2", "full:n=3", "forbidden:{111,0101}",
    "spacing:P=complement:(finite:{1,3,7,12})", "beta:beta=1.5", "beta:beta=2.5",
    "beta:beta=quad:(1+1*sqrt5)/2"))
def test_max_symbol_count_and_witness_match_enumeration(name):
    spec = _max_symbol_spec(name)
    graph = spec._graph
    if graph is not None:
        # the start state is id 0, and the prefixes that reach one canonical
        # state (walked on the family's own transition) all reach one id
        assert spec._start_state == 0
        id_of = {graph.states[0]: 0}
    for k in range(1, 11):
        words = list(enumerate_language(spec, k))
        if graph is not None:
            for w in words:
                state, i = graph.states[0], 0
                for a in w:
                    state = graph._transition(state, a)[1]
                    i = spec._step(i, a)[1]
                    assert id_of.setdefault(state, i) == i
        for alpha in range(1, spec.n):
            best = max(w.count(alpha) for w in words)
            assert max_symbol_count(spec, alpha, k) == best, (k, alpha)
            wit = max_symbol_witness(spec, alpha, k)
            assert len(wit) == k and contains_word(spec, wit)
            assert wit.symbols.count(alpha) == best
    if name in PINNED_COLUMNS:
        # lambda, D_k and witness columns to k = 30, pinned as digests: how
        # the graph numbers its states must move no answer and no tie
        cols = [[count_language(spec, k) for k in range(1, 31)]]
        for alpha in range(1, spec.n):
            cols.append([max_symbol_count(spec, alpha, k) for k in range(1, 31)])
            cols.append([list(max_symbol_witness(spec, alpha, k).symbols)
                         for k in range(1, 31)])
        digest = hashlib.sha256(json.dumps(cols).encode()).hexdigest()
        assert digest == PINNED_COLUMNS[name]


def test_deep_max_symbol_count_on_a_finite_state_spacing_shift():
    # the (max, +) DP, not the position search, and a witness from one
    # backtracked pass
    spec = parse_shift_spec("spacing:P=complement:(finite:{1})")
    assert max_symbol_count(spec, 1, 2100) == 1050
    wit = max_symbol_witness(spec, 1, 2100)
    assert wit.weight() == 1050 and contains_word(spec, wit)


def _least_densest_word(spec, alpha, k):
    """The lexicographically least word of L_k maximizing the minimum prefix
    frequency of alpha, with that value, from the enumerated language."""
    low = {(): Fraction(1)}  # word -> its least prefix frequency of alpha
    for j in range(1, k + 1):
        for w in enumerate_language(spec, j):
            low[w] = min(low[w[:-1]], Fraction(w.count(alpha), j))
    words = list(enumerate_language(spec, k))  # lexicographic
    best = max(low[w] for w in words)
    return next(w for w in words if low[w] == best), best


@pytest.mark.parametrize("name", POSITION_FAMILIES + (
    "full:n=2", "forbidden:{111,0101}", "forbidden:{22,101}",
    "spacing:P=complement:(finite:{1,3,7,12})", "beta:beta=1.5", "beta:beta=2.5",
    "beta:beta=quad:(1+1*sqrt5)/2"))
def test_max_density_word_is_the_least_densest_word(name):
    spec = _max_symbol_spec(name)
    d = {j: [max(w.count(alpha) for w in enumerate_language(spec, j))
             for alpha in range(spec.n)] for j in range(1, 11)}
    failures = 0
    for k in range(1, 11):
        for alpha in range(1, spec.n):
            ref_word, ref_val = _least_densest_word(spec, alpha, k)
            w, val = max_density_word(spec, alpha, k, require_target=False)
            assert (w.symbols, val) == (ref_word, ref_val), (k, alpha)
            for k_ref in (k, 1, 3):
                # the target D_(k_ref)/k_ref - 1/k
                if ref_val >= Fraction(d[k_ref][alpha], k_ref) - Fraction(1, k):
                    assert max_density_word(spec, alpha, k, k_ref) == (w, val), (k, alpha)
                else:
                    failures += 1
                    with pytest.raises(SearchFailure):
                        max_density_word(spec, alpha, k, k_ref)
    if name != "full:n=2":
        assert failures


@pytest.mark.parametrize("text, nodes", [
    ("counting", 5437), ("beta:beta=1.5", 334), ("spacing:P=periodic:;0111011", 282),
    ("spacing:P=complement:(finite:{1,3,7,12})", 177), ("forbidden:{111,0101}", 80)])
def test_max_density_word_node_charge(text, nodes):
    # every symbol tried is one node, the dive's included: the search at k =
    # 24 finishes under a cap of exactly `nodes` and trips one below it
    want = max_density_word(parse_shift_spec(text), 1, 24, require_target=False)
    assert max_density_word(parse_shift_spec(text), 1, 24, require_target=False,
                            node_cap=nodes) == want
    with pytest.raises(ResourceCapExceeded) as exc:
        max_density_word(parse_shift_spec(text), 1, 24, require_target=False,
                         node_cap=nodes - 1)
    assert str(exc.value) == "max_density_word exceeded %d nodes" % (nodes - 1)


def test_max_density_word_builds_one_fraction(monkeypatch):
    # prefix frequencies are integer pairs: only the returned value is a
    # Fraction, and a failure still names its target as one
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(langkit, "Fraction", counted)
    for text in ACCEPTOR_QUERY_SPECS:
        built.clear()
        w, val = max_density_word(parse_shift_spec(text), 1, 24, require_target=False)
        assert len(built) == 1 and val == Fraction(*built[0]), text
        built.clear()
        max_density_word(parse_shift_spec(text), 1, 12, 12)
        assert len(built) == 1, text
    for text, k, k_ref, target in (("counting", 8, 3, "13/24"), ("beta:beta=1.5", 7, 1, "6/7"),
                                   ("spacing:P=evens", 9, 3, "5/9")):
        with pytest.raises(SearchFailure) as exc:
            max_density_word(parse_shift_spec(text), 1, k, k_ref)
        assert str(exc.value) == \
            "no length-%d word meets the prefix-density target %s" % (k, target)


def test_capped_max_symbol_count_leaves_a_valid_column():
    text = "spacing:P=periodic:;0111011"
    fresh = parse_shift_spec(text)
    want = [max_symbol_witness(fresh, 1, k) for k in range(1, 61)]
    spec = parse_shift_spec(text)
    with pytest.raises(ResourceCapExceeded):
        max_symbol_count(spec, 1, 60, node_cap=40)
    # every max memo entry kept through the trip is g(key), so a fresh walk
    # agrees, and the walk resumes from them
    memo = spec._max_memo
    assert len(memo) > 1 and all(fresh._max_memo[key] == v for key, v in memo.items())
    assert [max_symbol_witness(spec, 1, k) for k in range(60, 0, -1)] == want[::-1]
    assert spec._max_memo == fresh._max_memo


@pytest.mark.parametrize("text", POSITION_FAMILIES + (
    "spacing:P=periodic:;1101", "spacing:P=union:(evens|pow2diff)", "spacing:P=odds"))
def test_position_max_matches_the_position_search(text):
    # D_k and its witness from position_max (the max walk; the counting
    # shift's closed form), against the position search on the family's
    # definition cut by the suffix bound: the lexicographically first
    # densest 1-set of every length
    spec = parse_shift_spec(text)
    assert spec.engine == "branch_and_bound"
    narrow, column = _definition_narrow(text), []
    for k in range(1, 21 if text == "counting" else 31):
        ones = max_ones(narrow, k, column)
        assert max_symbol_count(spec, 1, k) == len(ones), k
        assert max_symbol_witness(spec, 1, k).symbols == \
            tuple(int(q in ones) for q in range(1, k + 1)), k


def test_max_symbol_count_to_120_under_the_default_cap():
    # P holds every d but those = 3 mod 4: a search over 1-sets cut by the
    # suffix bound trips the cap; the max walk reads each key once
    spec = parse_shift_spec("spacing:P=periodic:;1101")
    assert max_symbol_count(spec, 1, 120) == 60
    wit = max_symbol_witness(spec, 1, 120)
    assert wit.weight() == 60 and contains_word(spec, wit)


# -- the counting shift's follower-floor count ---------------------------------------

COUNTING_LAMBDA_40 = 1_211_716


def test_follower_floor_count_matches_brute_force():
    spec = counting_shift()
    for k in range(1, 17):
        brute = count_language(counting_shift(), k, strategy="brute_force")
        assert count_language(spec, k) == brute, k


def test_follower_floor_count_matches_the_position_search():
    # the reference walks every admissible 1-set, on a spec of its own
    spec, column = counting_shift(), []
    for k in range(1, 41):
        assert count_language(spec, k) == count_positions(counting_narrow, k, column), k
    assert spec._column[-1] == COUNTING_LAMBDA_40
    assert count_language(spec, 54) == 14_386_955


def test_follower_floor_count_work_is_memoised():
    # lambda_40 takes ~18k (key, q) lookups; the position search visits each
    # of its ~1.2M admissible 1-sets through position 1
    assert count_language(counting_shift(), 40, node_cap=20_000) == COUNTING_LAMBDA_40
    with pytest.raises(ResourceCapExceeded):
        count_positions(counting_narrow, 40, node_cap=20_000)


def test_follower_floor_count_resumes_after_a_cap_trip():
    fresh = counting_shift()
    assert count_language(fresh, 40) == COUNTING_LAMBDA_40
    spec = counting_shift()
    with pytest.raises(ResourceCapExceeded):
        count_language(spec, 40, node_cap=8000)
    assert 0 < len(spec._column) < 40
    assert spec._column == fresh._column[:len(spec._column)]
    # every memo entry kept through the trip is f(g, r), so a fresh count agrees
    assert len(spec._memo) > 1 and all(fresh._memo[key] == v for key, v in spec._memo.items())
    # the lookups already made are not made again: the rest of the column
    # fits in a cap that a fresh count of it trips
    with pytest.raises(ResourceCapExceeded):
        count_language(counting_shift(), 40, node_cap=10_000)
    assert count_language(spec, 40, node_cap=10_000) == COUNTING_LAMBDA_40
    assert spec._column == fresh._column


def test_counting_entropy_to_k_100_under_the_default_cap():
    out = io.StringIO()
    assert main(["entropy", "--shift", "counting", "--kmax", "100"], out=out) == 0
    rows = json.loads(out.getvalue())["result"]["rows"]
    assert len(rows) == 100 and rows[-1]["lambda"] == "9428688316"


def test_a_position_max_needs_a_position_count():
    # position_count and position_max come together, and the one acceptor
    # hook is transition(state, a)
    common = dict(n=2, family="custom", label="custom", start_state=(),
                  transition=lambda state, a: (True, state))
    with pytest.raises(SpecValidationError):
        SubshiftSpec(position_max=lambda k, node_cap: (1,), **common)
    with pytest.raises(SpecValidationError):
        SubshiftSpec(position_count=lambda k, node_cap: 2 ** k, **common)
    with pytest.raises(TypeError):
        SubshiftSpec(narrow=lambda chosen, rest: rest, **common)
    with pytest.raises(TypeError):
        SubshiftSpec(step=lambda state, i, a: (True, state), **common)
