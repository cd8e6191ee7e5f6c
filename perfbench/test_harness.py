"""Tests of the benchmark harness itself: the answer gate counts a wrong
answer and a raising call, passes right answers, and the traced worker
records spans for direct imports and module-attribute calls alike.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py
"""

import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

ENTROPY = {"id": "entropy.full", "kind": "cli",
           "argv": ["entropy", "--shift", "full:n=2", "--kmax", "3"]}
SEARCH = {"id": "max_symbol", "kind": "call", "fn": "max_symbol_count",
          "spec": "counting", "args": [1, 8]}
QUERIES = {"id": "queries", "kind": "queries", "spec": "forbidden:{11}",
           "words": ["0101", "0110", "1001"], "expect": [True, False, True]}


class FakeCli:
    """Answers `entropy` with lambda_3 = 9 instead of 8."""

    @staticmethod
    def main(argv, out):
        rows = [{"k": k, "lambda": str(lam), "h_k": 1.0, "increment": 1.0,
                 "inf_so_far": 1.0} for k, lam in ((1, 2), (2, 4), (3, 9))]
        rows[2]["h_k"] = rows[2]["inf_so_far"] = 0.0
        env = {"schema": 1, "command": "entropy", "spec": "full:n=2",
               "result": {"strategy": "x", "rows": rows}, "cap_hit": False}
        out.write(json.dumps(env))
        return 0


class FakeLangkit:
    @staticmethod
    def parse_shift_spec(text):
        return text

    @staticmethod
    def max_symbol_count(spec, alpha, k):
        raise RuntimeError("injected")

    @staticmethod
    def contains_word(spec, w):
        return "11" not in w


def _score(ops, cli, langkit, pinned=None):
    specs = worker.build_specs(ops, langkit)
    wall, results, lat = worker.run_ops(ops, cli, langkit, specs)
    scorer = run.Scorer(ops, pinned)
    scorer.score(results)
    return scorer, lat


def test_wrong_lambda_and_raising_call_are_counted():
    scorer, lat = _score([ENTROPY, SEARCH, QUERIES], FakeCli, FakeLangkit)
    assert scorer.attempted == 1 + 1 + 3
    assert scorer.failed == 2
    why = {f["op"]: f["why"] for f in scorer.failures}
    assert "lambda_3=9, reference 8" in why["entropy.full"]
    assert "RuntimeError: injected" in why["max_symbol"]
    assert len(lat) == 3


def test_pinned_digest_mismatch_is_counted():
    scorer, _ = _score([QUERIES], FakeCli, FakeLangkit)
    assert scorer.failed == 0
    pinned = {"queries": scorer.digests()["queries"]}
    assert _score([QUERIES], FakeCli, FakeLangkit, pinned)[0].failed == 0
    pinned = {"queries": "0" * 16}
    assert _score([QUERIES], FakeCli, FakeLangkit, pinned)[0].failed == 3


def _cli(op_id, *argv):
    return {"id": op_id, "kind": "cli", "argv": [str(a) for a in argv]}


def _call(op_id, fn, spec, *args):
    return {"id": op_id, "kind": "call", "fn": fn, "spec": spec, "args": list(args)}


# one small instance of every kind of answer the gate checks
CHEAP = (
    _cli("entropy.forbidden", "entropy", "--shift", "forbidden:{11}", "--kmax", 12),
    _cli("entropy.counting", "entropy", "--shift", "counting", "--kmax", 10),
    _cli("entropy.golden", "entropy", "--shift", "spacing:P=complement:(finite:{1})",
         "--kmax", 40),
    _cli("entropy.evens", "entropy", "--shift", "spacing:P=evens", "--kmax", 12),
    _cli("entropy.beta", "entropy", "--shift", "beta:beta=1.5", "--kmax", 12),
    _cli("density.upper", "density", "--set", "pow2diff", "--kind", "upper",
         "--horizon", 2000),
    _cli("density.banach", "density", "--set", "factorial_blocks", "--kind", "banach",
         "--horizon", 500),
    _cli("sets.classify", "sets", "classify", "--set", "evens", "--horizon", 300,
         "--ip-bound", 64, "--cap-states", 2000),
    _cli("chaos.classify", "chaos", "classify", "--x", ";10", "--y", ";0"),
    _cli("chaos.family", "chaos", "family", "--set", "evens", "--members", 2,
         "--horizon", 4000),
    _cli("beta.digits", "beta", "digits", "--beta", "quad:(1+1*sqrt5)/2", "--k", 40),
    _cli("beta.parry", "beta", "parry", "--beta", "1.5", "--horizon", 200),
    _call("mixing", "mixing_probe", "counting", "1", "1", 64),
    _call("hereditary", "hereditary_check", "spacing:P=evens", 8),
    _call("max_density", "max_density_word", "spacing:P=evens", 1, 10),
)


def test_real_program_passes_the_gate():
    from shiftlab import cli, langkit
    queries = workloads._queries("queries.forbidden", "forbidden:{11}",
                                 random.Random(0), 32, 50, 150)
    ops = list(CHEAP) + [queries, ENTROPY, SEARCH, QUERIES]
    scorer, _ = _score(ops, cli, langkit)
    assert scorer.failed == 0, scorer.failures


def test_reference_languages():
    golden = oracle.RefLang("spacing:P=complement:(finite:{1})")
    assert golden.counts(10) == [2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    assert oracle.RefLang("forbidden:{11}").counts(6) == [2, 3, 5, 8, 13, 21]
    # greedy digits of 1 in the golden base are 11000..., so lambda_3 = 7
    assert oracle.RefLang("beta:beta=quad:(1+1*sqrt5)/2").counts(3) == [2, 4, 7]
    assert oracle.RefLang("full:n=3").counts(4) == [3, 9, 27, 81]
    counting = oracle.RefLang("counting")
    assert counting.contains((1, 0, 1)) and not counting.contains((1, 1))
    assert oracle.beta_digits("1.5", 6) == [1, 0, 1, 0, 0, 0]


def test_traced_worker_spans_every_binding(tmp_path):
    ops = [ENTROPY, dict(ENTROPY, id="spacing", argv=[
        "entropy", "--shift", "spacing:P=evens", "--kmax", "4"]),
        dict(ENTROPY, id="recurrence", argv=[
            "spacing", "recurrence-probe", "--set", "odds", "--kmax", "4"]), SEARCH]
    spans_path = str(tmp_path / "spans.json")
    cwd = os.getcwd()
    os.chdir(os.path.dirname(HERE))
    try:
        rep, err = run.run_rep(json.dumps(ops), spans_path, time.monotonic() + 120)
    finally:
        os.chdir(cwd)
    assert err is None, err
    layers = rep["layers"]
    with open(spans_path) as f:
        spans = json.load(f)["spans"]
    assert layers["cli.main.calls"] == 3
    # cli reaches entropy_estimates through the langkit module, spacing
    # through a direct import; both must be traced
    assert sum(1 for s in spans if s[0] == "langkit.entropy_estimates") == 3
    assert layers["langkit.count_language.calls"] == 3 + 4 + 4
    assert layers["spacing.count_spacing.calls"] == 4 + 4
    assert layers["langkit.lambdas"] == 11
    assert "langkit.max_symbol_count" in {s[0] for s in spans}
    assert rep["missing"] == []
