"""Resumable lambda columns: every counting engine caches lambda_1, lambda_2,
... on its spec object and extends it on demand, so the order of the k asked
for must not change any value, and a cap trip must not leave a bad entry."""

import io
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

import shiftlab
from shiftlab.beta import beta_shift, count_beta_language, parse_beta
from shiftlab.cli import main
from shiftlab.errors import PreconditionError, ResourceCapExceeded
from shiftlab.langkit import (
    count_language,
    entropy_estimates,
    max_symbol_count,
    max_symbol_witness,
    parse_shift_spec,
)
from shiftlab.sets import EVENS, ComplementSet, FiniteSet
from shiftlab.spacing import PSetSpec, count_spacing, spacing_shift

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
K = 14  # brute force checks every k with 2**k <= 2**14

FAMILIES = (
    "full:n=2",
    "forbidden:{111,0101}",
    "spacing:P=complement:(finite:{1,3})",   # automaton DP
    "spacing:P=evens",                       # branch and bound
    "counting",
    "beta:beta=1.5",
    "beta:beta=quad:(1+1*sqrt5)/2",
)


def _orders():
    ks = list(range(1, K + 1))
    shuffled = ks[:]
    random.Random(3).shuffle(shuffled)
    return {"ascending": ks, "descending": ks[::-1], "shuffled": shuffled}


@pytest.mark.parametrize("text", FAMILIES)
def test_column_order_does_not_matter(text):
    fresh = {k: count_language(parse_shift_spec(text), k) for k in range(1, K + 1)}
    brute_spec = parse_shift_spec(text)
    for k in range(1, K + 1):
        assert fresh[k] == count_language(brute_spec, k, strategy="brute_force"), k
    for name, ks in _orders().items():
        spec = parse_shift_spec(text)
        assert {k: count_language(spec, k) for k in ks} == fresh, name


@pytest.mark.parametrize("engine,base", [
    ("automaton_dp", ComplementSet(FiniteSet(frozenset({1, 3})))),
    ("branch_and_bound", EVENS),
], ids=["automaton_dp", "branch_and_bound"])
def test_spacing_engine_columns_resume(engine, base):
    assert spacing_shift(PSetSpec(base)).engine == engine
    fresh = {k: count_spacing(PSetSpec(base), k) for k in range(1, K + 1)}
    for name, ks in _orders().items():
        P = PSetSpec(base)
        assert {k: count_spacing(P, k) for k in ks} == fresh, name


def _evens_closed_form(k):
    return 2 ** ((k + 1) // 2) + 2 ** (k // 2) - 1


def test_spacing_keeps_one_column():
    # the candidate-mask count: the spec's count goes through count_spacing,
    # so both extend the one column kept on P's spec
    P = PSetSpec(EVENS)
    spec = spacing_shift(P)
    assert [count_language(spec, k) for k in range(1, 9)] == \
        [_evens_closed_form(k) for k in range(1, 9)]
    assert spec._column == [_evens_closed_form(k) for k in range(1, 9)]
    assert count_spacing(P, 12) == _evens_closed_form(12) and len(spec._column) == 12
    # the automaton DP keeps its column in its DP, no position column
    golden = PSetSpec(ComplementSet(FiniteSet(frozenset({1}))))
    assert [count_spacing(golden, k) for k in range(1, 13)] == \
        [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377]
    assert spacing_shift(golden) is spacing_shift(golden)
    assert spacing_shift(golden)._dp().column == [2, 3, 5, 8, 13, 21, 34, 55, 89, 144,
                                                  233, 377]
    assert spacing_shift(golden)._column == []


def test_beta_keeps_one_column():
    bspec = parse_beta("1.5")
    spec = beta_shift(bspec)
    assert beta_shift(bspec) is spec
    lams = [count_beta_language(bspec, k) for k in range(1, 21)]
    assert spec._dp().column == lams
    assert count_language(spec, 30) == count_beta_language(bspec, 30)
    assert len(spec._dp().column) == 30


def test_cap_trip_leaves_column_consistent():
    P = PSetSpec(EVENS)
    with pytest.raises(ResourceCapExceeded):
        count_spacing(P, 30, node_cap=50)
    cached = spacing_shift(P)._column
    assert 0 < len(cached) < 30
    assert cached == [_evens_closed_form(k) for k in range(1, len(cached) + 1)]
    assert count_spacing(P, 30) == _evens_closed_form(30)
    assert [count_spacing(P, k) for k in range(1, 31)] == \
        [_evens_closed_form(k) for k in range(1, 31)]


def _tuple_loop_count(spec, k):
    """The brute-force oracle as a loop over symbol tuples, one accepts call
    per word."""
    return sum(1 for syms in itertools.product(range(spec.n), repeat=k) if spec.accepts(syms))


@pytest.mark.parametrize("text", FAMILIES)
def test_brute_force_over_bytes_matches_the_tuple_loop(text):
    spec = parse_shift_spec(text)
    assert spec._symbol_bytes is not None
    for k in range(1, 13):
        assert count_language(spec, k, strategy="brute_force") == _tuple_loop_count(spec, k), k


def test_brute_force_past_a_byte_alphabet_feeds_tuples():
    spec = parse_shift_spec("full:n=300")
    assert spec._symbol_bytes is None
    assert [count_language(spec, k, strategy="brute_force") for k in (1, 2)] == [300, 300 ** 2]


@pytest.mark.parametrize("n", (2, 3))
def test_brute_force_cap_at_its_edge(n):
    # n**k words fit a cap of n**k and trip one of n**k - 1, with the k
    # past the cap's bit length refused before the power is taken
    for k in range(1, 9):
        assert count_language(parse_shift_spec("full:n=%d" % n), k,
                              strategy="brute_force", node_cap=n ** k) == n ** k
        with pytest.raises(ResourceCapExceeded, match=r"brute force over %d\*\*%d words" % (n, k)):
            count_language(parse_shift_spec("full:n=%d" % n), k,
                           strategy="brute_force", node_cap=n ** k - 1)


def test_unknown_strategy_rejected():
    spec = parse_shift_spec("counting")
    with pytest.raises(PreconditionError):
        count_language(spec, 3, strategy="nope")
    with pytest.raises(PreconditionError):
        count_language(spec, 3, strategy="windowed_dp")
    assert count_language(spec, 3, strategy=spec.engine) == 5
    assert count_language(spec, 3, strategy="brute_force") == 5


def test_cli_unknown_strategy_exits_2():
    for argv in (["entropy", "--shift", "counting", "--kmax", "3", "--strategy", "nope"],
                 ["language", "--shift", "full:n=2", "--k", "3", "--strategy", "nope"]):
        assert main(argv, out=io.StringIO()) == 2


def test_forbidden_reports_state_dp():
    spec = parse_shift_spec("forbidden:{11}")
    assert spec.engine == "automaton_dp"
    assert count_language(spec, 26) == 317811   # Fibonacci: F(28)


def test_forbidden_long_word_count_no_traceback():
    # used to end in a RecursionError in the depth-first count
    src = os.path.dirname(os.path.dirname(os.path.abspath(shiftlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "shiftlab.cli", "language", "--shift", "forbidden:{111}",
         "--k", "1200"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    # words avoiding 111: the tribonacci recurrence from 2, 4, 7
    lam = [2, 4, 7]
    while len(lam) < 1200:
        lam.append(lam[-1] + lam[-2] + lam[-3])
    assert json.loads(proc.stdout)["result"]["lambda"] == str(lam[-1])


@pytest.mark.parametrize("argv", [
    ["entropy", "--shift", "spacing:P=evens", "--kmax", "30"],
    ["entropy", "--shift", "counting", "--kmax", "24"],
    ["language", "--shift", "spacing:P=evens", "--k", "30"],
    ["language", "--shift", "counting", "--k", "24"],
    ["spacing", "recurrence-probe", "--set", "odds", "--kmax", "30"],
])
def test_cap_states_bounds_the_position_searches(argv):
    # the spacing candidate-mask count and the counting shift's
    # follower-floor count both count their lookups against --cap-states
    assert main(argv + ["--cap-states", "10"], out=io.StringIO()) == 3
    assert main(argv, out=io.StringIO()) == 0


def test_count_language_passes_node_cap():
    with pytest.raises(ResourceCapExceeded):
        count_language(parse_shift_spec("counting"), 24, node_cap=10)
    with pytest.raises(ResourceCapExceeded):
        entropy_estimates(parse_shift_spec("spacing:P=evens"), 30, node_cap=10)
    # the state DPs charge the states of each layer they build: 26 layers of
    # 2 states (the last symbol) each
    with pytest.raises(ResourceCapExceeded):
        count_language(parse_shift_spec("forbidden:{11}"), 26, node_cap=51)
    assert count_language(parse_shift_spec("forbidden:{11}"), 26, node_cap=52) == 317811


# windowed: its layers hold 2, 3, 5, ..., 130 states, then 195 from k = 12 on,
# so the first 30 layers hold 4083 states and layers 12 to 30 hold 3705
TABLE_DP = "spacing:P=complement:(finite:{1,3,12})"


def test_capped_table_dp_trips_and_resumes():
    full = entropy_estimates(parse_shift_spec(TABLE_DP), 30).rows
    spec = parse_shift_spec(TABLE_DP)
    assert spec.engine == "automaton_dp"
    with pytest.raises(ResourceCapExceeded) as e:
        entropy_estimates(spec, 30, node_cap=150)
    rows = e.value.partial.rows
    assert 0 < len(rows) < 30 and rows == full[:len(rows)]
    assert spec._dp().column == [r.lam for r in rows]
    # the layers already built are not built again: the rest of the column
    # fits in a cap that a fresh count of it trips
    with pytest.raises(ResourceCapExceeded):
        count_language(parse_shift_spec(TABLE_DP), 30, node_cap=3800)
    assert count_language(spec, 30, node_cap=3800) == full[-1].lam
    assert entropy_estimates(spec, 30, node_cap=150).rows == full


def test_capped_max_symbol_dp_trips_and_resumes():
    fresh = parse_shift_spec(TABLE_DP)
    full = [max_symbol_count(fresh, 1, k) for k in range(1, 31)]
    spec = parse_shift_spec(TABLE_DP)
    with pytest.raises(ResourceCapExceeded):
        max_symbol_count(spec, 1, 30, node_cap=500)
    column = spec._dp(1).column
    assert 0 < len(column) < 30 and column == full[:len(column)]
    assert max_symbol_count(spec, 1, 30, node_cap=3800) == full[-1]
    assert spec._dp(1).column == full
    # the witness pass is not resumable: it charges all of its layers
    with pytest.raises(ResourceCapExceeded):
        max_symbol_witness(spec, 1, 30, node_cap=3800)
    assert max_symbol_witness(spec, 1, 30).weight() == full[-1]


def _lang_columns_argvs():
    """Every command of the lang-columns benchmark workload, with each entry
    of its seeded spacing pool."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    argvs = []
    for op in workloads.build("lang-columns", 0):
        if op["id"] != "entropy.spacing.periodic":
            argvs.append(op["argv"])
    for bits, kmax in workloads.PERIODIC_POOL:
        argvs.append(["entropy", "--shift", "spacing:P=periodic:;" + bits,
                      "--kmax", str(kmax)])
    return argvs


def test_lang_columns_commands_pass_under_the_default_cap():
    for argv in _lang_columns_argvs():
        assert main(argv, out=io.StringIO()) == 0, argv


@pytest.mark.parametrize("command,shift", [
    (["entropy", "--shift", "spacing:P=evens"], "spacing:P=evens"),
    (["entropy", "--shift", "counting"], "counting"),
    # the probe counts Omega_P for P = N \ R
    (["spacing", "recurrence-probe", "--set", "odds"], "spacing:P=complement:(odds)"),
], ids=["spacing:P=evens", "counting", "recurrence-probe"])
def test_entropy_cap_trip_emits_the_rows_already_counted(command, shift, capsys):
    argv = command + ["--kmax", "30"]
    out = io.StringIO()
    assert main(argv + ["--cap-states", "10"], out=out) == 3
    assert "resource cap:" in capsys.readouterr().err
    partial = json.loads(out.getvalue())
    full_out = io.StringIO()
    assert main(argv, out=full_out) == 0
    full = json.loads(full_out.getvalue())
    assert partial["cap_hit"] is True and full["cap_hit"] is False
    rows = partial["result"]["rows"]
    # every row counted before the trip is kept, and each is the same upper
    # bound the uncapped run reports
    spec = parse_shift_spec(shift)
    counted = 0
    with pytest.raises(ResourceCapExceeded):
        for k in range(1, 31):
            count_language(spec, k, node_cap=10)
            counted = k
    assert 1 <= len(rows) == counted < 30
    assert rows == full["result"]["rows"][:len(rows)]
    assert partial["result"]["strategy"] == full["result"]["strategy"]
    assert {k: v for k, v in partial.items() if k != "result" and k != "cap_hit"} == \
        {k: v for k, v in full.items() if k != "result" and k != "cap_hit"}
    with pytest.raises(ResourceCapExceeded) as e:
        entropy_estimates(parse_shift_spec(shift), 30, node_cap=10)
    assert [r.to_json() for r in e.value.partial.rows] == rows


def test_entropy_cap_trip_in_csv():
    out = io.StringIO()
    assert main(["entropy", "--shift", "spacing:P=evens", "--kmax", "30",
                 "--cap-states", "10", "--format", "csv"], out=out) == 3
    lines = out.getvalue().splitlines()
    assert lines[0] == "h_k,increment,inf_so_far,k,lambda,strategy"
    assert lines[1].endswith(',1,2,"""branch_and_bound"""')
