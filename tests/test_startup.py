"""Start-up: importing the CLI loads no introspection machinery, a command
that parses loads no argparse, and the package runs as ``python -m
shiftlab`` from a checkout."""

import json
import os
import subprocess
import sys

import shiftlab

SRC = os.path.dirname(os.path.dirname(shiftlab.__file__))
# what the dataclass machinery pulls in: dataclasses imports inspect, which
# imports ast, dis and tokenize
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _fresh(args, **env):
    return subprocess.run([sys.executable] + args, env=dict(os.environ, PYTHONPATH=SRC, **env),
                          capture_output=True, text=True, check=False, timeout=120)


def test_cli_import_adds_no_introspection_modules():
    # the difference across the import, not absence: site may load some of
    # these before any user code runs
    code = ("import json, sys; before = set(sys.modules); import shiftlab, shiftlab.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    run = _fresh(["-c", code])
    assert run.returncode == 0, run.stderr
    added = set(json.loads(run.stdout))
    assert "shiftlab.cli" in added
    assert not added & INTROSPECTION, sorted(added & INTROSPECTION)


def test_python_m_shiftlab_runs_the_cli():
    run = _fresh(["-m", "shiftlab", "selftest", "--kmax", "4"])
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["result"]["all_pass"] is True


def test_a_command_that_parses_loads_no_argparse():
    # the command is read from the table: neither argparse nor the gettext
    # it loads is imported, and the tree stays unbuilt
    code = ("import io, json, sys; before = set(sys.modules); from shiftlab import cli\n"
            "cli.main(['density', '--set', 'evens'], out=io.StringIO())\n"
            "print(json.dumps([sorted(set(sys.modules) - before),\n"
            "                  cli.build_parser.cache_info().currsize]))\n")
    run = _fresh(["-c", code])
    assert run.returncode == 0, run.stderr
    added, trees = json.loads(run.stdout)
    assert "shiftlab.cli" in added
    assert not {"argparse", "gettext"} & set(added)
    assert trees == 0


def test_a_usage_error_still_gets_the_tree_usage_text():
    run = _fresh(["-m", "shiftlab", "density", "--set", "evens", "--no-such-flag"],
                 COLUMNS="80")
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == (
        "usage: shiftlab [-h]\n"
        "                {entropy,language,density,sets,beta,chaos,spacing,selftest}\n"
        "                ...\n"
        "shiftlab: error: unrecognized arguments: --no-such-flag\n")


def test_help_still_names_every_command():
    run = _fresh(["-m", "shiftlab", "--help"])
    assert run.returncode == 0, run.stderr
    commands = run.stdout.split("{", 1)[1].split("}", 1)[0].split(",")
    assert commands == ["entropy", "language", "density", "sets", "beta", "chaos",
                        "spacing", "selftest"]
