import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import shiftlab
from shiftlab import cli
from shiftlab.cli import build_parser, main
from shiftlab.sets import parse_set_expr

from argv_agreement import disagreements, draw_argv, outcome, systematic


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run_cli(argv)
    assert code == 0, text
    return json.loads(text)


def test_entropy_command():
    env = run_json(["entropy", "--shift", "spacing:P=complement:(finite:{1})",
                    "--kmax", "10"])
    assert env["schema"] == 1
    assert env["command"] == "entropy"
    rows = env["result"]["rows"]
    assert rows[-1]["lambda"] == "144"
    assert 0.69 < rows[-1]["h_k"] < 0.75


def test_language_command():
    env = run_json(["language", "--shift", "counting", "--k", "3", "--list"])
    assert env["result"]["lambda"] == "5"
    assert env["result"]["words"] == ["000", "001", "010", "100", "101"]


def test_density_command_exact():
    env = run_json(["density", "--set", "evens"])
    assert env["result"]["exact"] is True
    assert env["result"]["value_exact"] == "1/2"


def test_banach_density_below_the_least_window_samples_the_whole_horizon():
    # H = 10 is shorter than the 16 of the least sampled window
    env = run_json(["density", "--set", "window:1111", "--kind", "banach", "--horizon", "10"])
    assert env["result"]["value"] == 0.4 and env["result"]["horizon"] == 10


def test_density_command_estimate_carries_horizon():
    env = run_json(["density", "--set", "pow2diff", "--kind", "banach",
                    "--horizon", "1000"])
    assert env["result"]["exact"] is False
    assert env["result"]["horizon"] == 1000


def test_sets_classify_command():
    env = run_json(["sets", "classify", "--set", "evens", "--horizon", "300"])
    assert env["command"] == "sets classify"
    assert env["result"]["max_gap"] == 2


def test_sets_diff_command():
    env = run_json(["sets", "diff", "--set", "finite:{3,10,14}", "--horizon", "20"])
    assert env["result"]["members"] == [4, 7, 11]


def test_beta_digits_command():
    env = run_json(["beta", "digits", "--beta", "quad:(1+1*sqrt5)/2", "--k", "16"])
    assert env["result"]["digits"] == "1100000000000000"
    assert env["result"]["exact"] is True


def test_symbols_above_nine_are_separated():
    # over more than 10 symbols a digit string is ambiguous (12 6 or 1 2 6),
    # so beta digits and language --list separate the symbols by one space
    env = run_json(["beta", "digits", "--beta", "12.5", "--k", "6"])
    assert env["result"]["digits"] == "12 6 3 1 7 0"
    env = run_json(["language", "--shift", "beta:beta=12.5", "--k", "2", "--list",
                    "--limit", "40"])
    words = [list(map(int, w.split(" "))) for w in env["result"]["words"]]
    assert words[:2] == [[0, 0], [0, 1]] and [0, 12] in words and [1, 0] in words
    assert all(len(w) == 2 and max(w) <= 12 for w in words)
    # up to 10 symbols the output stays one digit per symbol
    env = run_json(["beta", "digits", "--beta", "9.5", "--k", "4"])
    assert env["result"]["digits"] == "9471"
    env = run_json(["language", "--shift", "full:n=10", "--k", "2", "--list", "--limit", "3"])
    assert env["result"]["words"] == ["00", "01", "02"]


def test_beta_parry_command():
    env = run_json(["beta", "parry", "--beta", "1.5", "--horizon", "500"])
    assert env["result"]["parry"] in (True, None)


def test_beta_parry_reports_the_horizon_it_checked():
    # only digit_horizon (4096) digits exist, so a deeper horizon is not
    # checked and the verdict is not exact
    env = run_json(["beta", "parry", "--beta", "2.5", "--horizon", "10000"])
    assert env["result"] == {"horizon": 4096, "parry": True, "exact": False}
    env = run_json(["beta", "parry", "--beta", "2.5", "--horizon", "4096"])
    assert env["result"] == {"horizon": 4096, "parry": True, "exact": True}


def test_chaos_profile_command():
    env = run_json(["chaos", "profile", "--x", ";10", "--y", ";0"])
    grid = env["result"]["grid"]
    assert {"t": "2^-1", "F": "1/2", "Fstar": "1/2"} in grid


@pytest.mark.parametrize("argv,path,labels", [
    (["profile", "--x", ";12", "--y", ";0", "--n", "3"], ("grid",), ["3^-2", "3^-1", "1"]),
    (["profile", "--x", ";19", "--y", ";0", "--n", "10"], ("grid",), ["10^-2", "10^-1", "1"]),
    (["family", "--set", "evens", "--members", "2", "--horizon", "4000"],
     ("pair_profiles", "0,1", "grid"), ["2^-%d" % e for e in range(12, 0, -1)] + ["1"]),
], ids=["n3", "n10", "family"])
def test_chaos_grid_labels(argv, path, labels):
    # every threshold prints as n^-k, the last as 1
    grid = run_json(["chaos"] + argv)["result"]
    for key in path:
        grid = grid[key]
    assert [row["t"] for row in grid] == labels


def test_chaos_classify_command():
    env = run_json(["chaos", "classify", "--x", ";10", "--y", ";0"])
    assert env["result"]["class"]["verdict"] == "none"


def test_chaos_family_command():
    env = run_json(["chaos", "family", "--set", "evens", "--members", "2",
                    "--horizon", "100000"])
    log = env["result"]["log"]
    assert log["growth_ok"] is True
    assert env["result"]["pair_profiles"]["0,1"]["fstar_one_everywhere"] is True


def test_a_family_past_the_cap_exits_at_once():
    # the pairs are priced before the family is built; a fresh wrapper runs
    # the command, so its RUSAGE_CHILDREN peak is this command's alone
    argv = ["chaos", "family", "--set", "evens", "--horizon", "1000",
            "--members", "100000000"]
    code = ("import json, resource, subprocess, sys, time\n"
            "started = time.monotonic()\n"
            "run = subprocess.run([sys.executable, '-m', 'shiftlab'] + %r,\n"
            "                     capture_output=True, text=True)\n"
            "print(json.dumps([run.returncode, run.stdout, run.stderr,\n"
            "                  time.monotonic() - started,\n"
            "                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]))\n"
            % argv)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shiftlab.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=False, timeout=120)
    assert run.returncode == 0, run.stderr
    code, out, err, seconds, peak_kib = json.loads(run.stdout)
    assert (code, out) == (3, "")
    assert err.startswith("resource cap: 100000000 members give"), err
    assert seconds < 1
    assert peak_kib < 200 * 1024


def test_a_family_of_fifty_prints_what_it_did_before_the_cap():
    # nine checkpoints, four blocks, 1225 pairs: sha256 of the output before
    # the pairs were priced
    code, text = run_cli(["chaos", "family", "--set", "periodic:;0110", "--horizon",
                          "10000000", "--growth", "5", "--members", "50"])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "850f1f005dd7eb93bb5403eaceaac42c7fdd0ae324f87ea669ef0bba36a284bf"


def test_spacing_recurrence_command():
    env = run_json(["spacing", "recurrence-probe", "--set", "odds", "--kmax", "10"])
    assert all(row["h_k"] >= 0.5 - 1e-12 for row in env["result"]["rows"])


def test_spacing_delta_star_command():
    # a largest B whose differences miss A - A = evens has 2 elements, so
    # the bound for k = 3 holds exactly
    env = run_json(["spacing", "delta-star", "--set", "evens", "--k", "3",
                    "--horizon", "256"])
    assert env["result"]["holds"] is True
    assert env["result"]["exact"] is True
    assert env["result"]["witness_size"] == 2 and env["cap_hit"] is False
    assert "seed" not in env and "trials" not in env["result"]
    # A = {1, 2}: B = {1, 3} misses A - A = {1}, which settles the bound
    env = run_json(["spacing", "delta-star", "--set", "finite:{1,2}", "--k", "2",
                    "--horizon", "3"])
    assert env["result"]["holds"] is False
    assert env["result"]["exact"] is True
    assert env["result"]["counterexample"] == [1, 3]
    # a member far past the horizon leaves A - A read from A cap [1, 3]: the
    # same counterexample, not exact, with no list as long as that member
    env = run_json(["spacing", "delta-star", "--set", "finite:{1,2,%d}" % 10 ** 18,
                    "--k", "2", "--horizon", "3"])
    assert env["result"]["counterexample"] == [1, 3]
    assert env["result"]["exact"] is False


@pytest.mark.parametrize("flag", ["--trials", "--seed"])
def test_spacing_delta_star_takes_no_sampler_flags(flag):
    with pytest.raises(SystemExit) as e:
        main(["spacing", "delta-star", "--set", "evens", "--k", "3", flag, "1"],
             out=io.StringIO())
    assert e.value.code == 2


def test_selftest():
    code, text = run_cli(["selftest", "--kmax", "6"])
    assert code == 0
    env = json.loads(text)
    assert env["result"]["all_pass"] is True
    assert all(r["status"] == "pass" for r in env["result"]["rows"])


def test_exit_code_parse_error():
    code, _ = run_cli(["entropy", "--shift", "bogus", "--kmax", "5"])
    assert code == 2
    code, _ = run_cli(["density", "--set", "finite:{0}"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["entropy", "--shift", "forbidden:{1²}", "--kmax", "3"],
    ["language", "--shift", "forbidden:{²}", "--k", "2"],
    ["chaos", "classify", "--x", "²;1", "--y", ";01"],
], ids=["entropy", "language", "chaos-classify"])
def test_a_digit_that_is_not_decimal_is_a_parse_error(argv):
    # ² passes str.isdigit, but int() refuses it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shiftlab.__file__)))
    run = subprocess.run([sys.executable, "-m", "shiftlab"] + argv, env=env,
                         capture_output=True, text=True, check=False, timeout=120)
    assert run.returncode == 2
    assert run.stderr.startswith("error:") and "Traceback" not in run.stderr
    assert "digit" in run.stderr


def test_arabic_indic_digits_name_forbidden_words():
    env = run_json(["language", "--shift", "forbidden:{١١}", "--k", "3"])
    assert env["spec"] == "forbidden:{11}" and env["result"]["lambda"] == "5"


def test_exit_code_precondition():
    code, _ = run_cli(["spacing", "delta-star", "--set", "evens", "--k", "2",
                       "--horizon", "64"])
    assert code == 2


def test_exit_code_resource_cap():
    code, _ = run_cli(["language", "--shift", "full:n=2", "--k", "40",
                       "--strategy", "brute_force"])
    assert code == 3


def test_brute_force_counts_its_words_against_cap_states():
    # 2**k words for lambda_k: k <= 3 fits in a cap of 10 and k = 4 trips
    code, text = run_cli(["entropy", "--shift", "full:n=2", "--kmax", "16",
                          "--strategy", "brute_force", "--cap-states", "10"])
    assert code == 3
    env = json.loads(text)
    assert env["cap_hit"] is True
    assert [r["k"] for r in env["result"]["rows"]] == [1, 2, 3]


@pytest.mark.parametrize("argv", [
    ["density", "--set", "pow2diff", "--kind", "upper", "--horizon", str(10 ** 18)],
    ["sets", "diff", "--set", "pow2diff", "--horizon", str(10 ** 18)],
], ids=["density", "sets-diff"])
def test_out_of_memory_exits_as_a_resource_cap(argv, capsys):
    # a list of 10**18 entries is refused at once, before anything is allocated
    code, text = run_cli(argv)
    assert code == 3 and text == ""
    assert capsys.readouterr().err == "resource cap: out of memory\n"


@pytest.mark.parametrize("argv", [
    ["sets", "diff", "--set", "evens", "--horizon", str(10 ** 18)],
], ids=["sets-diff"])
def test_a_periodic_set_past_memory_exits_at_once(argv):
    # the periodic indicator is one list repetition, which fails as a whole:
    # the child, held to 1 GiB of address space, stops with a small peak RSS,
    # where a list grown element by element would fill the limit first. The
    # child reads its own VmHWM, which starts afresh at the exec: ru_maxrss
    # also carries the high water mark of the process it was forked from, this
    # test runner, and is read only where /proc is missing
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "from shiftlab.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "try:\n"
             "    with open('/proc/self/status') as f:\n"
             "        kib = int(next(l for l in f if l.startswith('VmHWM:')).split()[1])\n"
             "except (OSError, StopIteration):\n"
             "    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
             "sys.stderr.write('peak_kib %d\\n' % kib)\n"
             "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shiftlab.__file__)))
    run = subprocess.run([sys.executable, "-c", child] + argv, env=env,
                         capture_output=True, text=True, check=False, timeout=60)
    assert (run.returncode, run.stdout) == (3, "")
    message, rss = run.stderr.splitlines()
    assert message == "resource cap: out of memory"
    assert int(rss.split()[1]) < 256 * 1024, rss


_PAST_INDEX = str(10 ** 22)  # above sys.maxsize, the largest length a bytes can have


@pytest.mark.parametrize("argv,code", [
    (["density", "--set", "pow2diff", "--kind", "upper", "--horizon", _PAST_INDEX], 3),
    (["density", "--set", "window:1011", "--kind", "upper", "--horizon", _PAST_INDEX], 3),
    (["sets", "classify", "--set", "evens", "--horizon", _PAST_INDEX], 3),
    (["sets", "diff", "--set", "evens", "--horizon", _PAST_INDEX], 3),
    (["spacing", "delta-star", "--set", "evens", "--k", "3", "--horizon", _PAST_INDEX], 3),
    (["density", "--set", "evens", "--horizon", _PAST_INDEX], 0),
    (["chaos", "family", "--set", "evens", "--members", "2", "--horizon", _PAST_INDEX], 0),
], ids=["density-pow2diff", "density-window", "sets-classify", "sets-diff", "delta-star",
        "density-evens", "chaos-family"])
def test_a_horizon_past_the_index_range_ends_without_a_traceback(argv, code):
    # an indicator that long cannot be built, so bits() refuses it before
    # any allocation; an exact density and the block-wise family build none
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shiftlab.__file__)))
    run = subprocess.run([sys.executable, "-m", "shiftlab"] + argv, env=env,
                         capture_output=True, text=True, check=False, timeout=60)
    assert run.returncode == code, run.stderr
    assert "Traceback" not in run.stderr
    if code == 3:
        assert run.stderr.startswith("resource cap: horizon %s is past the index range"
                                     % _PAST_INDEX), run.stderr
    else:
        assert json.loads(run.stdout)["result"]


def test_a_lambda_past_the_int_digit_limit_prints_exactly():
    # 2**14300 has 4305 digits, past the interpreter's default limit of 4300;
    # main must print it whole and leave the limit as it found it
    limited = hasattr(sys, "set_int_max_str_digits")
    before = sys.get_int_max_str_digits() if limited else None
    if limited:
        sys.set_int_max_str_digits(0)
    try:
        want = str(2 ** 14300)
    finally:
        if limited:
            sys.set_int_max_str_digits(before)
    env = run_json(["language", "--shift", "full:n=2", "--k", "14300"])
    assert env["result"]["lambda"] == want
    if limited:
        assert sys.get_int_max_str_digits() == before


def test_determinism_byte_identical():
    argv = ["spacing", "delta-star", "--set", "evens", "--k", "3", "--horizon", "256"]
    _, a = run_cli(argv)
    _, b = run_cli(argv)
    assert a == b
    argv2 = ["chaos", "family", "--set", "evens", "--members", "2",
             "--horizon", "50000"]
    _, c = run_cli(argv2)
    _, d = run_cli(argv2)
    assert c == d


def test_envelope_has_no_cap_seconds():
    env = run_json(["entropy", "--shift", "counting", "--kmax", "3"])
    assert "cap_seconds" not in env
    with pytest.raises(SystemExit) as e:
        main(["density", "--set", "evens", "--cap-seconds", "1"], out=io.StringIO())
    assert e.value.code == 2


@pytest.mark.parametrize("argv", [
    ["density", "--set", "evens"],
    ["sets", "diff", "--set", "evens"],
    ["beta", "digits", "--beta", "1.5", "--k", "5"],
    ["beta", "parry", "--beta", "1.5"],
    ["chaos", "profile", "--x", ";10", "--y", ";0"],
    ["chaos", "classify", "--x", ";10", "--y", ";0"],
    ["chaos", "family", "--set", "evens", "--horizon", "1000"],
    ["spacing", "delta-star", "--set", "evens", "--k", "3"],
    ["selftest", "--kmax", "2"],
])
def test_cap_states_only_where_a_search_reads_it(argv):
    # none of these takes the flag, so it is a usage error: all but
    # delta-star run no capped search, and delta-star's walk runs under the
    # default cap
    assert run_cli(argv)[0] == 0
    with pytest.raises(SystemExit) as e:
        main(argv + ["--cap-states", "-7"], out=io.StringIO())
    assert e.value.code == 2


def test_sets_classify_reads_cap_states():
    full = run_json(["sets", "classify", "--set", "evens", "--horizon", "64"])
    capped = run_json(["sets", "classify", "--set", "evens", "--horizon", "64",
                       "--cap-states", "3"])
    # a tripped walk leaves the greedy dive, on evens every odd number, as
    # the Delta witness, and says it is not known to be a largest one
    assert full["result"]["delta_witness_size"] == 32 and full["result"]["delta_exact"] is True
    assert capped["result"]["delta_witness"] == list(range(1, 64, 2))
    assert capped["result"]["delta_exact"] is False and capped["cap_hit"] is True


def test_sets_classify_flags_partial_witnesses():
    argv = ["sets", "classify", "--set", "evens", "--horizon", "200"]
    full = run_json(argv)
    capped = run_json(argv + ["--cap-states", "10"])
    # the IP search stops at 12 elements by design, not at the cap
    assert full["cap_hit"] is False
    assert (full["result"]["delta_witness_size"], full["result"]["ip_witness_size"]) == (100, 12)
    assert capped["cap_hit"] is True
    assert (capped["result"]["delta_witness_size"], capped["result"]["ip_witness_size"]) == \
        (100, 10)


def test_sets_classify_delta_witness_covers_at_most_512():
    env = run_json(["sets", "classify", "--set", "evens", "--horizon", "1000"])
    assert env["result"]["horizon"] == 1000 and env["result"]["delta_horizon"] == 512
    assert env["result"]["delta_witness_size"] == 256


def test_sets_classify_delta_witness_is_exact_past_the_old_search():
    # the densest word of L_512(Omega_A): 147 ones, where a search over
    # 1-position sets tripped the default cap at 76
    env = run_json(["sets", "classify", "--set", "periodic:;0111011", "--horizon", "512"])
    assert env["result"]["delta_witness_size"] == 147 and env["cap_hit"] is False
    # a tripped walk still returns a Delta-set, flagged
    A = parse_set_expr("union:(evens|pow2diff)")
    env = run_json(["sets", "classify", "--set", "union:(evens|pow2diff)", "--horizon", "512",
                    "--cap-states", "20000"])
    D = env["result"]["delta_witness"]
    assert env["cap_hit"] is True and env["result"]["delta_exact"] is False
    assert all(A.contains(b - a) for i, a in enumerate(D) for b in D[i + 1:])


def test_capped_automaton_dp_exits_3_with_its_rows(capsys):
    # N \ P = {23}: layer k of the windowed DP holds 2**k states up to k = 23,
    # so a cap of 100000 states admits 16 rows
    out = io.StringIO()
    assert main(["entropy", "--shift", "spacing:P=complement:(finite:{23})", "--kmax", "40",
                 "--cap-states", "100000"], out=out) == 3
    assert "resource cap:" in capsys.readouterr().err
    env = json.loads(out.getvalue())
    assert env["cap_hit"] is True and env["result"]["strategy"] == "automaton_dp"
    assert [r["lambda"] for r in env["result"]["rows"]] == [str(2 ** k) for k in range(1, 17)]


@pytest.mark.parametrize("argv", [
    ["sets", "classify", "--set", "evens", "--horizon", "-5"],
    ["sets", "classify", "--set", "evens", "--horizon", "0"],
    ["sets", "diff", "--set", "evens", "--horizon", "-5"],
    ["spacing", "delta-star", "--set", "evens", "--k", "3", "--horizon", "-4"],
    ["spacing", "delta-star", "--set", "evens", "--k", "3", "--horizon", "0"],
    ["spacing", "delta-star", "--set", "evens", "--k", "600", "--horizon", "512"],
    ["spacing", "delta-star", "--set", "evens", "--k", "5", "--horizon", "3"],
    ["spacing", "delta-star", "--set", "evens", "--k", "0"],
    ["selftest", "--kmax", "-2"],
    ["selftest", "--kmax", "0"],
    ["sets", "classify", "--set", "evens", "--horizon", "5", "--ip-bound", "-3"],
    ["sets", "classify", "--set", "evens", "--horizon", "5", "--ip-bound", "0"],
    ["chaos", "family", "--set", "evens", "--horizon", "1000", "--growth", "0"],
    ["chaos", "family", "--set", "evens", "--horizon", "1000", "--growth", "1"],
    ["density", "--set", "evens", "--kind", "banach", "--horizon", "0"],
    ["density", "--set", "factorial_blocks", "--kind", "asymptotic", "--horizon", "0"],
    ["entropy", "--shift", "spacing:P=evens", "--kmax", "3", "--cap-states", "-5"],
    ["entropy", "--shift", "full:n=2", "--kmax", "3", "--cap-states", "0"],
    ["language", "--shift", "spacing:P=evens", "--k", "3", "--cap-states", "0"],
    ["language", "--shift", "full:n=2", "--k", "3", "--cap-states", "-1"],
    ["sets", "classify", "--set", "evens", "--horizon", "64", "--cap-states", "0"],
    ["sets", "classify", "--set", "evens", "--horizon", "64", "--cap-states", "-3"],
    ["spacing", "recurrence-probe", "--set", "odds", "--kmax", "3", "--cap-states", "0"],
    ["spacing", "recurrence-probe", "--set", "odds", "--kmax", "3", "--cap-states", "-5"],
])
def test_sizes_below_their_range_exit_2(argv):
    assert run_cli(argv)[0] == 2


def test_cap_states_of_one_is_in_range():
    assert run_cli(["entropy", "--shift", "full:n=2", "--kmax", "3", "--cap-states", "1"])[0] == 0
    assert run_cli(["language", "--shift", "counting", "--k", "3", "--cap-states", "1"])[0] == 0
    assert run_cli(["spacing", "recurrence-probe", "--set", "odds", "--kmax", "3",
                    "--cap-states", "1"])[0] == 0


def test_language_limit_zero_lists_no_words():
    for k in (14, 200):
        env = run_json(["language", "--shift", "full:n=2", "--k", str(k), "--list",
                        "--limit", "0"])
        assert env["result"] == {"k": k, "lambda": str(2 ** k), "words": []}


def test_evens_column_to_60_under_the_default_cap():
    # the candidate-mask count: the position search tripped the 2M-node cap
    env = run_json(["entropy", "--shift", "spacing:P=evens", "--kmax", "60"])
    rows = env["result"]["rows"]
    assert env["cap_hit"] is False and env["result"]["strategy"] == "branch_and_bound"
    assert [int(r["lambda"]) for r in rows] == \
        [2 ** ((k + 1) // 2) + 2 ** (k // 2) - 1 for k in range(1, 61)]
    assert rows[-1]["lambda"] == str(2 ** 31 - 1)


def test_timing_flag_adds_wall_time():
    env = run_json(["density", "--set", "evens", "--timing"])
    assert "wall_time_s" in env
    env = run_json(["density", "--set", "evens"])
    assert "wall_time_s" not in env


def test_csv_format():
    code, text = run_cli(["entropy", "--shift", "full:n=2", "--kmax", "3",
                          "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].split(",")[0] == "h_k"
    assert len(lines) == 4


@pytest.mark.parametrize("argv", [
    ["entropy", "--shift", "spacing:P=evens", "--kmax", "6"],
    ["selftest", "--kmax", "4"],
    ["language", "--shift", "full:n=2", "--k", "2", "--list"],
    ["sets", "diff", "--set", "finite:{1,3,7}", "--horizon", "10"],
    ["chaos", "profile", "--x", "0;110", "--y", ";01"],
], ids=["entropy", "selftest", "language-list", "sets-diff", "chaos-profile"])
def test_csv_reads_back_as_the_json_result(argv):
    result = run_json(argv)["result"]
    code, text = run_cli(argv + ["--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(text)))
    table = next((t for t in ("rows", "grid") if t in result), None)
    if table:
        # a table of records, each cell its value's text (a null is empty),
        # then one column per other field with its JSON value on every row
        header, *cells = rows
        width = len(result[table][0])
        cols, fields = header[:width], header[width:]
        assert sorted(cols) == sorted(result[table][0])
        assert fields == sorted(set(result) - {table})
        assert all(len(row) == len(header) for row in cells)
        assert [row[:width] for row in cells] == \
            [["" if r[h] is None else str(r[h]) for h in cols] for r in result[table]]
        for row in cells:
            assert dict(zip(fields, map(json.loads, row[width:]))) == \
                {k: result[k] for k in fields}
    else:
        # one key and its JSON value per row, however many commas the value has
        assert rows[0] == ["key", "value"]
        assert all(len(row) == 2 for row in rows)
        assert {k: json.loads(v) for k, v in rows[1:]} == result


def test_brute_force_far_past_the_cap_exits_at_once():
    # 3**(10**9) is never computed: k past the cap's bit length trips first.
    # The child is held to 1 GiB of address space and a timeout
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "from shiftlab.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    argv = ["language", "--shift", "full:n=3", "--k", str(10 ** 9), "--strategy", "brute_force"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shiftlab.__file__)))
    started = time.monotonic()
    run = subprocess.run([sys.executable, "-c", child] + argv, env=env,
                         capture_output=True, text=True, check=False, timeout=30)
    assert (run.returncode, run.stdout) == (3, "")
    assert run.stderr == \
        "resource cap: brute force over 3**1000000000 words exceeds 2000000\n"
    assert time.monotonic() - started < 10


def test_one_parser_serves_consecutive_calls(monkeypatch, capsys):
    # main() reads a whole command from the table, and builds the tree once,
    # on the first argv that needs it (here a usage error), and reuses it:
    # a run of commands in one process, usage errors among them, prints to
    # stdout and stderr what separate processes do
    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the same width
    runs = [
        ["density", "--set", "pow2diff", "--kind", "banach", "--horizon", "300"],
        ["sets", "classify", "--set", "union:(window:0110|periodic:;001)",
         "--horizon", "40", "--cap-states", "50"],
        ["entropy", "--shift", "full:n=2", "--kmax", "3", "--format", "csv"],
        ["beta", "parry", "--beta", "1.5", "--horizon", "64"],
        ["sets", "diff", "--set", "finite:{3,10,14}", "--horizon", "20", "--format", "csv"],
        ["density", "--set", "evens"],
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shiftlab.__file__)))
    for argv in runs:
        for args, expected in ((argv + ["--no-such-flag"], 2), (argv, 0)):
            capsys.readouterr()
            out = io.StringIO()
            try:
                code = main(args, out=out)
            except SystemExit as e:
                code = e.code
            assert code == expected, args
            fresh = subprocess.run([sys.executable, "-m", "shiftlab.cli"] + args, env=env,
                                   capture_output=True, text=True, check=False)
            assert (code, out.getvalue(), capsys.readouterr().err) == \
                (fresh.returncode, fresh.stdout, fresh.stderr), args


def _dispatch_corpus():
    """Per command path of the table: a valid argv (each required flag given
    "3" or "x" by its type), help, a missing required flag, a non-integer, a
    bad choice, --flag=value, an abbreviated flag, an unknown flag and a
    trailing positional; then argvs that name no command."""
    cases = []
    for path, entry in cli._COMMANDS.items():
        if isinstance(entry, str):
            continue
        head, flags = path.split(), entry[2]
        required = [f for f, options in flags.items() if options.get("required")]
        valid = head + [a for f in required
                        for a in (f, "3" if flags[f].get("type") is int else "x")]
        number = next(f for f, options in flags.items() if options.get("type") is int)
        cases += [valid, head + ["-h"], head + valid[len(head) + 2:], valid + [number, "x"],
                  valid + ["--format", "xml"], valid + ["--format=csv"],
                  valid + ["--form", "csv"], valid + ["--no-such-flag"], valid + ["extra"]]
    return cases + [[], ["-h"], ["bogus"], ["sets"], ["sets", "bogus"], ["sets", "-h"],
                    ["sets classify", "--set", "x"]]


@pytest.mark.parametrize("argv", _dispatch_corpus(), ids=" ".join)
def test_a_command_parser_reads_argv_as_the_whole_tree_does(argv):
    # main reads argv from the command table when every token is a whole
    # flag with a value it accepts, and hands it to the tree otherwise: the
    # namespace, or the exit code and what is printed, is the tree's either way
    assert outcome(cli._parse, argv) == outcome(build_parser().parse_args, argv)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_the_reader_agrees_with_the_tree_on_drawn_argvs(data):
    # whole and abbreviated flags, --flag=value and --flag=, repeats, switches
    # given =value, ints with a sign, a space, _ or Arabic-Indic digits,
    # values that start with -, bad choices, missing required flags, --, -h
    # and strays, drawn from the command table
    argv = draw_argv(lambda options: data.draw(st.sampled_from(options)))
    assert outcome(cli._parse, argv) == outcome(build_parser().parse_args, argv)


def test_the_reader_agrees_with_the_tree_on_every_flag_form():
    assert disagreements(systematic()) == []


@pytest.mark.parametrize("path", [p for p, e in cli._COMMANDS.items() if isinstance(e, tuple)])
def test_a_whole_command_is_read_without_the_tree(path):
    # every flag given whole, with a value apart and after "=": the reader
    # answers alone, as the tree would
    head, flags = path.split(), cli._COMMANDS[path][2]
    for eq in (False, True):
        argv = list(head)
        for flag, options in flags.items():
            if options.get("action") == "store_true":
                argv.append(flag)
                continue
            value = options["choices"][-1] if "choices" in options else \
                "7" if options.get("type") is int else "x"
            argv += [flag + "=" + value] if eq else [flag, value]
        args = cli._read(argv)
        assert args is not None, argv
        assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["language", "--shift", "full:n=2", "--k", "16", "--list", "--limit", "65536"],
    ["density", "--set", "evens"],   # short enough to wait in the buffer
])
def test_closed_stdout_exits_quietly(argv):
    # the read end is closed before the child starts, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shiftlab.__file__)))
    try:
        run = subprocess.run([sys.executable, "-m", "shiftlab"] + argv, env=env,
                             stdout=write_end, stderr=subprocess.PIPE, text=True,
                             check=False, timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in run.stderr
    assert run.stderr == ""
    assert run.returncode == 141
