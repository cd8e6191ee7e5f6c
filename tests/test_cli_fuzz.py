"""Property: no argv that the CLI parses ends in a traceback. In-process
cli.main runs over generated commands built from small grammars of shift
specs, set expressions, beta values and points, with garbage (non-ASCII and
non-decimal digits among it), beta <= 1, integer beta, huge alphabets, zero
and negative sizes mixed in, and must return one of the documented exit
codes; a size below its range must exit 2 rather than report on an empty
range. A usage error that argparse
catches leaves main as SystemExit(2), which tests/test_cli.py pins."""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from shiftlab.cli import main

EXIT_CODES = {0, 2, 3}

# ² is a digit that is not decimal, ١ an Arabic-Indic decimal digit
garbage = st.text(alphabet="0123456789²١abn:;=,{}()|+-*/. ", max_size=12)
bits = st.text(alphabet="01", max_size=12)

set_exprs = st.recursive(
    st.one_of(
        st.sampled_from(["evens", "odds", "pow2diff", "factorial_blocks"]),
        st.lists(st.integers(-2, 20), max_size=4).map(
            lambda xs: "finite:{%s}" % ",".join(map(str, xs))),
        st.tuples(bits, bits).map(lambda pp: "periodic:%s;%s" % pp),
        bits.map(lambda b: "window:" + b),
        garbage,
    ),
    lambda inner: st.one_of(
        inner.map(lambda e: "complement:(%s)" % e),
        st.tuples(inner, inner).map(lambda ab: "union:(%s|%s)" % ab),
    ),
    max_leaves=4,
)

betas = st.one_of(
    st.sampled_from(["1.5", "2.5", "1.01", "1", "0.5", "2", "0", "-3", "1e9",
                     "100000000.5", "1/0", "quad:(1+1*sqrt5)/2", "quad:(1+1*sqrt7)/2"]),
    st.tuples(st.integers(-3, 5), st.integers(-3, 3), st.integers(0, 9),
              st.integers(0, 4)).map(lambda t: "quad:(%d+%d*sqrt%d)/%d" % t),
    garbage,
)

shifts = st.one_of(
    st.sampled_from(["-1", "0", "1", "2", "3", "257", "4096", "65536", "65537", "100000000",
                     "x", ""])
    .map(lambda n: "full:n=" + n),
    st.just("counting"),
    set_exprs.map(lambda e: "spacing:P=" + e),
    betas.map(lambda b: "beta:beta=" + b),
    st.lists(st.text(alphabet="0123x²١", max_size=4), max_size=3).map(
        lambda ws: "forbidden:{%s}" % ",".join(ws)),
    garbage,
)

points = st.one_of(
    st.tuples(st.text(alphabet="0123", max_size=5), st.text(alphabet="0123", max_size=5))
    .map(lambda pp: "%s;%s" % pp),
    garbage,
)

sizes = st.integers(-2, 8)
horizons = st.integers(-3, 300)
limits = st.integers(-3, 5)
caps = st.integers(-1, 10 ** 4).map(str)


def _flag(name, values):
    """The flag with a drawn value, or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


commands = st.one_of(
    st.tuples(shifts, st.integers(-2, 6), caps).map(
        lambda t: ["entropy", "--shift", t[0], "--kmax", str(t[1]), "--cap-states", t[2]]),
    st.tuples(shifts, sizes, st.booleans(), _flag("--limit", limits), caps).map(
        lambda t: ["language", "--shift", t[0], "--k", str(t[1])]
        + (["--list"] if t[2] else []) + t[3] + ["--cap-states", t[4]]),
    st.tuples(betas, horizons).map(
        lambda t: ["beta", "digits", "--beta", t[0], "--k", str(t[1])]),
    st.tuples(betas, horizons).map(
        lambda t: ["beta", "parry", "--beta", t[0], "--horizon", str(t[1])]),
    st.tuples(set_exprs, st.sampled_from(["upper", "asymptotic", "banach"]), horizons)
    .map(lambda t: ["density", "--set", t[0], "--kind", t[1], "--horizon", str(t[2])]),
    st.tuples(set_exprs, horizons, _flag("--limit", limits)).map(
        lambda t: ["sets", "diff", "--set", t[0], "--horizon", str(t[1])] + t[2]),
    st.tuples(st.sampled_from(["profile", "classify"]), points, points,
              _flag("--n", st.integers(-1, 4))).map(
        lambda t: ["chaos", t[0], "--x", t[1], "--y", t[2]] + t[3]),
    st.tuples(set_exprs, sizes, horizons, st.integers(-2, 5)).map(
        lambda t: ["chaos", "family", "--set", t[0], "--members", str(t[1]),
                   "--horizon", str(t[2]), "--growth", str(t[3])]),
    st.tuples(set_exprs, horizons, _flag("--ip-bound", horizons),
              st.integers(-1, 2000).map(str)).map(
        lambda t: ["sets", "classify", "--set", t[0], "--horizon", str(t[1])] + t[2]
        + ["--cap-states", t[3]]),
    st.tuples(set_exprs, sizes, horizons).map(
        lambda t: ["spacing", "delta-star", "--set", t[0], "--k", str(t[1]),
                   "--horizon", str(t[2])]),
    st.tuples(set_exprs, st.integers(-2, 6), caps).map(
        lambda t: ["spacing", "recurrence-probe", "--set", t[0], "--kmax", str(t[1]),
                   "--cap-states", t[2]]),
    st.integers(-2, 4).map(lambda k: ["selftest", "--kmax", str(k)]),
)

# (command, size flag) -> the least value that does not ask about an empty range
MINIMUMS = {
    ("entropy", "--kmax"): 1, ("language", "--k"): 1, ("beta digits", "--k"): 0,
    ("beta parry", "--horizon"): 1, ("sets classify", "--horizon"): 1,
    ("sets diff", "--horizon"): 1, ("spacing delta-star", "--horizon"): 1,
    ("selftest", "--kmax"): 1,
    ("sets classify", "--ip-bound"): 1, ("chaos family", "--growth"): 2,
    ("density", "--horizon"): 1, ("entropy", "--cap-states"): 1,
    ("language", "--cap-states"): 1, ("sets classify", "--cap-states"): 1,
    ("spacing recurrence-probe", "--cap-states"): 1, ("spacing recurrence-probe", "--kmax"): 1,
    ("spacing delta-star", "--k"): 1,
}


def _below_range(argv):
    command = " ".join(argv[:2]) if argv[0] in ("beta", "sets", "spacing", "chaos") else argv[0]
    return any(cmd == command and flag in argv and int(argv[argv.index(flag) + 1]) < low
               for (cmd, flag), low in MINIMUMS.items())


# 400 examples drew no forbidden word with a lone non-decimal digit
@settings(max_examples=1500, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(commands)
def test_cli_never_raises(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv, out=io.StringIO())
        except SystemExit as e:
            # argparse rejects a value that looks like a flag (say --beta -:)
            # by exiting with its usage-error status
            code = e.code
    assert code in EXIT_CODES, (argv, code)
    if _below_range(argv):
        assert code == 2, argv
