"""Command-line front end.

Every command emits a versioned JSON envelope (schema 1) with the command
echo, the normalized spec strings and a result payload in which each
asymptotic number carries an exactness flag or a horizon. Output is
deterministic for a fixed config; wall time is reported only when --timing
is passed, precisely so that the default output is byte-reproducible.

Every command and its flags are declared once, in the table _COMMANDS.
An argv that names a command and gives it only whole flags with values
they accept is read straight from that table (_read), without argparse;
any other (help, an abbreviated or unknown flag, a value that starts with
"-", a missing required flag, a bad int or choice) goes to the argparse
tree built from the same table (build_parser), so help, usage errors and
exit codes are argparse's.

Exit codes: 0 success, 1 a selftest family failed, 2 spec/usage error, 3
resource cap (out of memory included), 141 (128 + SIGPIPE) when the reader
closed stdout before the output was written.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time
import types

from . import beta as beta_mod
from . import chaos as chaos_mod
from . import langkit, sets, spacing
from .core import format_symbols, parse_point
from .errors import PreconditionError, ResourceCapExceeded, ShiftlabError

SCHEMA = 1


def _envelope(command, spec_echo, result, timing=None, cap_hit=False):
    env = {
        "schema": SCHEMA,
        "command": command,
        "spec": spec_echo,
        "result": result,
        "cap_hit": cap_hit,
    }
    if timing is not None:
        env["wall_time_s"] = timing
    return env


def _emit(env, fmt, out):
    if fmt == "json":
        out.write(json.dumps(env, sort_keys=True, indent=2))
        out.write("\n")
        return
    # csv: flatten the result payload into rows, quoted where a cell holds a
    # comma or a quote, a null as an empty cell; imported here so that
    # importing the CLI does not load it
    import csv
    csv.writer(out, lineterminator="\n").writerows(_csv_rows(env["result"]))


def _csv_rows(result):
    """A result's table (rows or grid) with one more column per other field,
    its JSON text repeated on every row; else one key and JSON value a row."""
    if not isinstance(result, dict):
        return [[json.dumps(result, sort_keys=True)]]
    items = result.get("rows")
    if isinstance(items, list) and items and isinstance(items[0], dict):
        table, header = "rows", sorted(items[0])
    elif "grid" in result:
        table, items, header = "grid", result["grid"], ["t", "F", "Fstar"]
    else:
        return [["key", "value"]] + [[k, json.dumps(v, sort_keys=True)]
                                     for k, v in sorted(result.items())]
    fields = sorted(k for k in result if k != table)
    tail = [json.dumps(result[k], sort_keys=True) for k in fields]
    return [header + fields] + [[r.get(h, "") for h in header] + tail for r in items]


# -- command implementations --------------------------------------------------

def _cmd_entropy(args):
    spec = langkit.parse_shift_spec(args.shift)
    try:
        report = langkit.entropy_estimates(spec, args.kmax, strategy=args.strategy,
                                           node_cap=args.cap_states)
    except ResourceCapExceeded as e:
        e.spec_echo = spec.label  # main emits e.partial under this spec
        raise
    return spec.label, report.to_json()


def _cmd_language(args):
    if args.limit < 0:
        raise PreconditionError("limit must be >= 0")
    spec = langkit.parse_shift_spec(args.shift)
    lam = langkit.count_language(spec, args.k, strategy=args.strategy,
                                 node_cap=args.cap_states)
    result = {"k": args.k, "lambda": str(lam)}
    if args.list:
        words = itertools.islice(langkit.enumerate_language(spec, args.k), args.limit)
        result["words"] = [format_symbols(w, spec.n) for w in words]
    return spec.label, result


def _cmd_density(args):
    A = sets.parse_set_expr(args.set)
    fns = {
        "upper": sets.upper_density,
        "asymptotic": sets.asymptotic_density,
        "banach": sets.upper_banach_density,
    }
    res = fns[args.kind](A, H=args.horizon)
    return str(A), {"kind": args.kind, **res.to_json()}


def _cmd_sets_classify(args):
    A = sets.parse_set_expr(args.set)
    report = sets.classify(A, H=args.horizon,
                           ip_bound=args.ip_bound, node_cap=args.cap_states)
    return str(A), report.to_json(), report.cap_hit


def _cmd_sets_diff(args):
    if args.limit < 0:
        raise PreconditionError("limit must be >= 0")
    A = sets.parse_set_expr(args.set)
    bits = sets.difference_set(A, args.horizon).bits(args.horizon)
    count = bits.count(1)
    return str(A), {
        "horizon": args.horizon,
        "count": count,
        "members": list(itertools.islice(
            itertools.compress(range(1, args.horizon + 1), bits), args.limit)),
        "truncated": count > args.limit,
    }


def _cmd_beta_digits(args):
    spec = beta_mod.parse_beta(args.beta)
    w = beta_mod.beta_digits(spec, args.k)
    return spec.label, {"k": args.k, "digits": str(w), "exact": True}


def _cmd_beta_parry(args):
    spec = beta_mod.parse_beta(args.beta)
    if args.horizon < 1:
        raise PreconditionError("horizon must be >= 1")
    # past the digit horizon only that many digits exist to compare, so the
    # horizon reported is the one checked and the verdict is not exact
    checked = min(args.horizon, spec.digit_horizon)
    verdict = beta_mod.parry_check(beta_mod.beta_digits(spec, checked), checked)
    return spec.label, {
        "horizon": checked,
        "parry": verdict,
        "exact": verdict is not None and checked == args.horizon,
    }


def _cmd_chaos_profile(args):
    x = parse_point(args.x, n=args.n)
    y = parse_point(args.y, n=args.n)
    profile = chaos_mod.distribution_profile(x, y)
    return {"x": str(x), "y": str(y)}, profile.to_json()


def _cmd_chaos_classify(args):
    x = parse_point(args.x, n=args.n)
    y = parse_point(args.y, n=args.n)
    profile = chaos_mod.distribution_profile(x, y)
    cls = chaos_mod.classify_pair(profile)
    return {"x": str(x), "y": str(y)}, {
        "profile": profile.to_json(), "class": cls.to_json()}


def _cmd_chaos_family(args):
    S = sets.parse_set_expr(args.set)
    fam = chaos_mod.build_scrambled_family(S, args.members, args.horizon,
                                           growth=args.growth)
    profiles = {}
    freqs = {}
    for i in range(args.members):
        for j in range(i + 1, args.members):
            key = "%d,%d" % (i, j)
            profiles[key] = chaos_mod.family_pair_profile(fam, i, j).to_json()
            freqs[key] = [{"checkpoint": cp, "diff": str(d), "equal": str(e)}
                          for cp, d, e in chaos_mod.family_pair_frequencies(fam, i, j)]
    return str(S), {
        "log": fam.log,
        "horizon": fam.horizon,
        "pair_profiles": profiles,
        "pair_frequencies": freqs,
    }


def _cmd_spacing_recurrence(args):
    R = sets.parse_set_expr(args.set)
    try:
        report = spacing.recurrence_entropy_probe(R, args.kmax, node_cap=args.cap_states)
    except ResourceCapExceeded as e:
        e.spec_echo = str(R)  # main emits e.partial under this spec
        raise
    return str(R), report.to_json()


def _cmd_spacing_delta_star(args):
    A = sets.parse_set_expr(args.set)
    holds, B, exact, capped = spacing.delta_star_bound_check(A, args.k, args.horizon)
    return str(A), {
        "k": args.k,
        "horizon": args.horizon,
        "holds": holds,
        "exact": exact,
        "counterexample": None if holds else list(B[:args.k]),
        # a largest B in [1, horizon] whose differences miss A - A, or the
        # greedy dive when the walk stopped at the cap
        "witness": list(B),
        "witness_size": len(B),
    }, capped


_SELFTEST_FAMILIES = (
    "full:n=2",
    "spacing:P=complement:(finite:{1})",
    "spacing:P=evens",
    "beta:beta=quad:(1+1*sqrt5)/2",
    "beta:beta=1.5",
    "counting",
)


def _cmd_selftest(args):
    if args.kmax < 1:
        raise PreconditionError("kmax must be >= 1")
    rows = []
    all_ok = True
    cap_hit = False
    for label in _SELFTEST_FAMILIES:
        spec = langkit.parse_shift_spec(label)
        status = "pass"
        detail = None
        try:
            for k in range(1, args.kmax + 1):
                fast = langkit.count_language(spec, k)
                brute = langkit.count_language(spec, k, strategy="brute_force")
                if fast != brute:
                    status = "fail"
                    detail = "k=%d fast=%d brute=%d" % (k, fast, brute)
                    all_ok = False
                    break
        except ResourceCapExceeded as e:
            status = "cap"
            detail = str(e)
            cap_hit = True
        rows.append({"family": spec.label, "status": status, "detail": detail})
    return {"kmax": args.kmax}, {"rows": rows, "all_pass": all_ok}, cap_hit


# -- argument parsing ---------------------------------------------------------

_REQUIRED = {"required": True}
_INT_REQUIRED = {"type": int, "required": True}
_SWITCH = {"action": "store_true", "default": False}


def _int(default):
    return {"type": int, "default": default}


# The flags every command takes after its own (_SHARED), and the same with
# --cap-states for a command whose search reads the cap (_CAPPED).
_SHARED = {
    "--format": {"choices": ("json", "csv"), "default": "json"},
    "--timing": {**_SWITCH, "help": "include wall time (breaks byte-reproducibility)"},
}
_CAPPED = {**_SHARED, "--cap-states": _int(langkit.DEFAULT_NODE_CAP)}

# Every command by its path. A group's entry is its help; a command's is its
# help, its handler and its flags in order, each with the keywords of its
# add_argument. The tree (build_parser) and the argv reader (_read) both
# read it.
_COMMANDS = {
    "entropy": ("h_k upper bounds for a shift spec", _cmd_entropy, {
        "--shift": _REQUIRED, "--kmax": _INT_REQUIRED, "--strategy": {}, **_CAPPED}),
    "language": ("count (and list) language words", _cmd_language, {
        "--shift": _REQUIRED, "--k": _INT_REQUIRED, "--strategy": {},
        "--list": _SWITCH, "--limit": _int(64), **_CAPPED}),
    "density": ("density of an integer set", _cmd_density, {
        "--set": _REQUIRED,
        "--kind": {"choices": ("upper", "asymptotic", "banach"), "default": "upper"},
        "--horizon": _int(10_000), **_SHARED}),
    "sets": "integer-set analyses",
    "sets classify": ("finite-horizon structure report", _cmd_sets_classify, {
        "--set": _REQUIRED, "--horizon": _int(10_000), "--ip-bound": _int(None),
        **_CAPPED}),
    "sets diff": ("difference set to a horizon", _cmd_sets_diff, {
        "--set": _REQUIRED, "--horizon": _int(256), "--limit": _int(128), **_SHARED}),
    "beta": "beta expansion tools",
    "beta digits": ("greedy digits of 1", _cmd_beta_digits, {
        "--beta": _REQUIRED, "--k": _INT_REQUIRED, **_SHARED}),
    "beta parry": ("shift-dominance check of the digit word", _cmd_beta_parry, {
        "--beta": _REQUIRED, "--horizon": _int(10_000), **_SHARED}),
    "chaos": "distribution functions and families",
    "chaos profile": ("exact F/F* for a periodic pair", _cmd_chaos_profile, {
        "--x": {"required": True, "help": "point as pre;per"}, "--y": _REQUIRED,
        "--n": _int(2), **_SHARED}),
    "chaos classify": ("DC classification of a periodic pair", _cmd_chaos_classify, {
        "--x": _REQUIRED, "--y": _REQUIRED, "--n": _int(2), **_SHARED}),
    "chaos family": ("scrambled family construction + measurement", _cmd_chaos_family, {
        "--set": _REQUIRED, "--members": _int(2), "--horizon": _INT_REQUIRED,
        "--growth": _int(chaos_mod.DEFAULT_GROWTH), **_SHARED}),
    "spacing": "spacing-shift probes",
    "spacing recurrence-probe": ("entropy of the complement spacing shift",
                                 _cmd_spacing_recurrence, {
        "--set": {"required": True, "help": "candidate recurrence set R"},
        "--kmax": _INT_REQUIRED, **_CAPPED}),
    "spacing delta-star": ("difference-intersection bound experiment",
                           _cmd_spacing_delta_star, {
        "--set": _REQUIRED, "--k": _INT_REQUIRED, "--horizon": _int(512), **_SHARED}),
    "selftest": ("oracle-equivalence suite", _cmd_selftest, {
        "--kmax": _int(12), **_SHARED}),
}


@functools.cache
def build_parser():
    """The whole argparse tree, built on the first call and shared by every
    later one in the process (parsing leaves it unchanged). argparse is
    imported here, so a command that _read parses never loads it."""
    import argparse
    ap = argparse.ArgumentParser(prog="shiftlab",
                                 description="subshift language and density workbench")
    subparsers = {"": ap.add_subparsers(dest="command", required=True)}
    for path, entry in _COMMANDS.items():
        group, _, name = path.rpartition(" ")
        if isinstance(entry, str):
            p = subparsers[group].add_parser(name, help=entry)
            subparsers[path] = p.add_subparsers(dest="subcommand", required=True)
            continue
        p = subparsers[group].add_parser(name, help=entry[0])
        for flag, options in entry[2].items():
            p.add_argument(flag, **options)
        p.set_defaults(fn=entry[1])
    return ap


def _read(argv):
    """The namespace build_parser().parse_args(argv) gives, read straight
    from _COMMANDS when argv names a command and every token after it is a
    whole flag of that command with its value (--flag value or
    --flag=value) or a switch, every int passes int() and every choice is
    listed; None for any other argv. A value that starts with "-" is left to
    the tree too: argparse reads it as an option, a negative number or "--"
    depending on the token and the Python version."""
    head = argv[:2] if argv and isinstance(_COMMANDS.get(argv[0]), str) else argv[:1]
    path = " ".join(head)
    entry = _COMMANDS.get(path)
    if not isinstance(entry, tuple) or path.split() != head:
        return None
    _, fn, flags = entry
    values = {}
    tokens = iter(argv[len(head):])
    for token in tokens:
        flag, eq, value = token.partition("=")
        options = flags.get(flag)
        if options is None:
            return None
        if options.get("action") == "store_true":
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(tokens, None)
                if value is None:
                    return None
            if value.startswith("-"):
                return None
            if "type" in options:
                try:
                    value = options["type"](value)
                except ValueError:
                    return None
            if value not in options.get("choices", (value,)):
                return None
        values[flag] = value
    args = {"command": head[0], "fn": fn}
    if len(head) == 2:
        args["subcommand"] = head[1]
    for flag, options in flags.items():
        if flag not in values and options.get("required"):
            return None
        args[flag[2:].replace("-", "_")] = values.get(flag, options.get("default"))
    return types.SimpleNamespace(**args)


def _parse(argv):
    """What build_parser().parse_args(argv) gives: _read's namespace when it
    reads argv, else the tree's answer, so help, usage errors and exit codes
    are the tree's."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    return build_parser().parse_args(argv) if args is None else args


def _path(args):
    """The command path args was parsed for: "density", "sets classify"."""
    if getattr(args, "subcommand", None):
        return "%s %s" % (args.command, args.subcommand)
    return args.command


def _one_value_each(args):
    """args, once every flag that takes a value holds one. On Python
    3.10-3.12 argparse strips a "--" given as an explicit value (--set=--,
    --k=--) and keeps an empty list, the flag with no value; 3.13 keeps the
    string "--". The empty list gets the tree's usage error for the flag
    given no value, exit 2."""
    path = _path(args)
    for flag, options in _COMMANDS[path][2].items():
        if "action" not in options and isinstance(getattr(args, flag[2:].replace("-", "_")), list):
            build_parser().parse_args(path.split() + [flag])
    return args


def _emit_result(args, spec_echo, result, started, out, cap_hit=False):
    timing = round(time.monotonic() - started, 3) if args.timing else None
    env = _envelope(_path(args), spec_echo, result, timing=timing, cap_hit=cap_hit)
    _emit(env, args.format, out)


def main(argv=None, out=None):
    out = out or sys.stdout
    # an exact lambda may pass the int-to-str digit limit (Python >= 3.10.7),
    # so it is lifted while main runs
    digits = None
    if hasattr(sys, "set_int_max_str_digits"):
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        code = _run(_one_value_each(_parse(argv)), out)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes nowhere, so
        # the interpreter's last flush cannot raise either
        if out is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        return 141  # 128 + SIGPIPE, the status of a filter the signal ends
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def _run(args, out):
    started = time.monotonic()
    try:
        if getattr(args, "cap_states", 1) < 1:
            raise PreconditionError("cap-states must be >= 1")
        # a command whose result may be partial returns its cap_hit third
        spec_echo, result, *cap_hit = args.fn(args)
        _emit_result(args, spec_echo, result, started, out, cap_hit=any(cap_hit))
        return 0 if result.get("all_pass", True) else 1  # 1: a selftest family failed
    except ResourceCapExceeded as e:
        spec_echo = getattr(e, "spec_echo", None)
        if spec_echo is not None:
            # the rows built before the trip stay sound: emit them
            _emit_result(args, spec_echo, e.partial.to_json(), started, out,
                         cap_hit=True)
        print("resource cap: %s" % e, file=sys.stderr)
        return 3
    except MemoryError:
        print("resource cap: out of memory", file=sys.stderr)
        return 3
    except ShiftlabError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
