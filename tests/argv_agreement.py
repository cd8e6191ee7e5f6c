"""The CLI's argv reader against the argparse tree, with the standard library
alone.

    PYTHONPATH=src python3 tests/argv_agreement.py [random-count] [seed]

For every argv of a corpus built from ``cli._COMMANDS``, ``cli._parse``
(the table reader, or the tree when the reader declines) must give what
``build_parser().parse_args`` gives: the same namespace, or the same exit
code and the same text on stdout and stderr. argparse differs from one
Python version to the next, so this runs on every supported version; it
needs no pytest. Exit status 0 when every argv agrees, 1 otherwise.
``tests/test_cli.py`` draws argvs with the same ``draw_argv`` under
Hypothesis.
"""

import contextlib
import io
import random
import sys

from shiftlab import cli

COMMANDS = [path for path, entry in cli._COMMANDS.items() if isinstance(entry, tuple)]
# ١٢ is 12 in Arabic-Indic digits, which int() reads
INTS = ("3", "12", "+3", " 4", "5 ", "1_0", "١٢", "0", "-3", "x", "", "3.0", "1__0")
STRINGS = ("x", "evens", "a=b", "x y", "", "-x", "--", "-", " -x")
# tokens that are no whole flag: help, the end of options, strays, unknown
# or malformed flags
NOISE = ("--", "-h", "--help", "x", "", "-x", "--no-such-flag", "--=x", "=x", "-")
# argvs that name no command, or name it in one token
HEADS = (["sets"], ["bogus"], ["-h"], ["sets classify"], ["sets", "bogus"], ["--"], [])


def values(options):
    """The values drawn for a flag that takes one: its choices and some that
    are not, the int pool for an int, else the string pool."""
    if "choices" in options:
        return tuple(options["choices"]) + ("xml", "", "-json")
    return INTS if options.get("type") is int else STRINGS


def render(pick, flag, options):
    """The tokens of one flag: whole or abbreviated, with its value apart,
    after "=" or (a switch) none."""
    name = flag
    if len(flag) > 3 and not pick((True, True, False)):
        name = flag[:pick(range(3, len(flag)))]
    if options.get("action") == "store_true":
        value = pick((None, None, "", "1"))
    else:
        value = pick(values(options))
    if value is None:
        return [name]
    return [name + "=" + value] if pick((False, True)) else [name, value]


def draw_argv(pick):
    """One argv, `pick` choosing each time from a non-empty sequence: a
    command with each required flag most often given, a few flags more
    (repeats among them) and now and then a noise token; or a head that
    names no command."""
    if not pick((True,) * 7 + (False,)):
        return list(pick(HEADS)) + [pick(NOISE) for _ in range(pick(range(2)))]
    path = pick(COMMANDS)
    flags = cli._COMMANDS[path][2]
    chosen = [f for f, options in flags.items()
              if options.get("required") and pick((True, True, True, False))]
    chosen += [pick(tuple(flags)) for _ in range(pick(range(4)))]
    argv = path.split()
    for flag in chosen:
        argv += render(pick, flag, flags[flag])
        if not pick(range(6)):
            argv.append(pick(NOISE))
    return argv


def systematic():
    """Per command: its required flags given whole, then with each flag in
    each form and value appended, each required flag dropped, and each noise
    token appended."""
    cases = []
    for path in COMMANDS:
        head, flags = path.split(), cli._COMMANDS[path][2]
        required = []
        for flag, options in flags.items():
            if options.get("required"):
                required += [flag, "3" if options.get("type") is int else "x"]
        cases.append(head + required)
        for flag, options in flags.items():
            for name in (flag, flag[:-1]):
                if options.get("action") == "store_true":
                    tails = [[name], [name + "="], [name + "=1"], [name, name]]
                else:
                    tails = [t for v in values(options) for t in ([name, v], [name + "=" + v])]
                    tails.append([name])
                cases += [head + required + tail for tail in tails]
        for i in range(0, len(required), 2):
            cases.append(head + required[:i] + required[i + 2:])
        cases += [head + required + [token] for token in NOISE]
        cases += [head + [token] + required for token in NOISE]
    return cases


def outcome(parse, argv):
    """What parse(argv) gives: its namespace as a dict, or the exit code and
    what it printed to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(argv))
    except SystemExit as e:
        return e.code, out.getvalue(), err.getvalue()


def disagreements(argvs):
    """(argv, reader's outcome, tree's outcome) for each argv they differ on."""
    tree = cli.build_parser().parse_args
    found = []
    for argv in argvs:
        got, want = outcome(cli._parse, argv), outcome(tree, argv)
        if got != want:
            found.append((argv, got, want))
    return found


def main(count=2000, seed=0):
    rng = random.Random(seed)
    argvs = systematic() + [draw_argv(rng.choice) for _ in range(count)]
    read = sum(cli._read(argv) is not None for argv in argvs)
    found = disagreements(argvs)
    for argv, got, want in found[:20]:
        print("argv %r\n  reader: %r\n  tree:   %r" % (argv, got, want))
    print("Python %s: %d argvs, %d read from the table, %d disagree"
          % (sys.version.split()[0], len(argvs), read, len(found)))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
