"""shiftlab benchmark: three seeded workloads, every answer checked.

    python3 perfbench/run.py --workload lang-columns --seed 1 --seconds 30 --trace 0

Run from the root of a shiftlab checkout (the program is imported from
./src). Each repetition runs the workload's op list once in a fresh
interpreter (perfbench/worker.py), one repetition at a time, so no memo
survives from one repetition to the next. Repetitions start until
``--seconds`` is used up (at least three). With --trace 0, set-up-only
interpreters are started between repetitions to time set-up on its own.

--trace 0 prints the end-to-end metrics (medians over repetitions).
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones, plus the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A results file with provenance, quartiles, sample counts and every
failure goes to perfbench/results/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402
from worker import SETUP_ONLY  # noqa: E402

MIN_REPS = 3
RUN_LIMIT_S = 150          # no repetition starts or runs past this
CALIB_REF_S = 0.005        # reference time of one calibration chunk
SETUP_SPAWNS = 4           # set-up-only interpreters after each repetition
BENCH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def summary(values, unit, value=None):
    """A metric with its distribution over repetitions: the reported value
    (the median unless given), quartiles, extremes and the sample count."""
    vals = sorted(values)
    q1, q3 = statistics.quantiles(vals, n=4)[::2] if len(vals) > 1 else (vals[0], vals[0])
    med = statistics.median(vals)
    return {"value": med if value is None else value, "unit": unit, "median": med,
            "q1": q1, "q3": q3, "min": vals[0], "max": vals[-1], "n": len(vals),
            "samples": values}


def p99_with_ten_beyond(values):
    """The 99th percentile when at least ten samples lie beyond it, else the
    highest percentile that has ten beyond it."""
    vals = sorted(values)
    idx = min(int(0.99 * len(vals)), max(0, len(vals) - 11))
    return vals[idx]


def run_rep(ops_json, mode, deadline, cpu=None):
    """One worker process, pinned to `cpu` when given; `mode` is None (a
    repetition), SETUP_ONLY or the spans file of a traced repetition.
    None when it crashed or overran."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), repr(time.monotonic())]
    if mode:
        cmd.append(mode)
    env = dict(os.environ, PYTHONHASHSEED="0")
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        proc = subprocess.run(cmd, input=ops_json, capture_output=True, text=True,
                              env=env, preexec_fn=pin,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "repetition overran the run limit"
    if proc.returncode != 0:
        return None, "worker exit %d: %s" % (proc.returncode, proc.stderr.strip()[-400:])
    try:
        # the worker's result is its last line, whatever the program printed
        return json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[-1]), None
    except ValueError:
        return None, "unreadable worker output: %r" % proc.stdout[-200:]


class Scorer:
    """Counts attempted and failed ops over repetitions. An op fails on an
    exception, a nonzero CLI exit, a wrong answer, or an answer digest that
    differs from the one pinned for this seed."""

    def __init__(self, ops, pinned=None):
        self.ops = ops
        self.pinned = pinned or {}
        self.gate = oracle.Gate()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.answers = [None] * len(ops)
        self.op_s = [[] for _ in ops]

    def _fail(self, op, n, why):
        self.failed += n
        if len(self.failures) < 50:
            self.failures.append({"op": op["id"], "count": n, "why": why})

    def rep_crashed(self, why):
        for op in self.ops:
            n = len(op["words"]) if op["kind"] == "queries" else 1
            self.attempted += n
            self._fail(op, n, why)

    def score(self, results):
        for i, (op, res) in enumerate(zip(self.ops, results)):
            n = len(op["words"]) if op["kind"] == "queries" else 1
            self.attempted += n
            self.op_s[i].append(res["dt"])
            if res["status"] != "ok":
                self._fail(op, n, res["value"])
                continue
            try:
                ans = oracle.extract(op, res["value"])
            except (ValueError, KeyError, TypeError) as e:
                self._fail(op, n, "unreadable answer: %s" % e)
                continue
            self.answers[i] = ans
            probs = self.gate.check(op, ans)
            if probs:
                self._fail(op, min(n, len(probs)), "; ".join(probs[:3]))
                continue
            want = self.pinned.get(op["id"])
            if want is not None and want != oracle.digest(ans):
                self._fail(op, n, "answer digest %s, pinned %s" % (oracle.digest(ans), want))

    def digests(self):
        return {op["id"]: oracle.digest(a) for op, a in zip(self.ops, self.answers)
                if a is not None}


def run_reps(ops_json, scorer, args, spans_path, started):
    """Start repetitions one at a time until --seconds is spent (at least
    MIN_REPS of each kind); with --trace 1 every second one is traced.
    Repetitions take turns on the CPUs this process may use (a traced one on
    the same CPU as the untraced one before it): on a shared machine each CPU
    has slow spells of several seconds of its own, and taking turns samples
    both. With --trace 0 each repetition is followed by SETUP_SPAWNS
    set-up-only interpreters, left to the scheduler like a user's command;
    their set-up times are the `setup_s` samples."""
    deadline = started + RUN_LIMIT_S
    cpus = sorted(os.sched_getaffinity(0))
    reps = {"untraced": [], "traced": []}
    setups = []
    errors = []
    while True:
        n_done = len(reps["untraced"]) + len(reps["traced"])
        elapsed = time.monotonic() - started
        durations = [r["rep_s"] for side in reps.values() for r in side]
        next_s = statistics.median(durations) if durations else 0.0
        enough = n_done >= MIN_REPS * (2 if args.trace else 1)
        if enough and elapsed + next_s > args.seconds:
            break
        if time.monotonic() + next_s > deadline:
            break
        traced = bool(args.trace) and n_done % 2 == 1
        rep_spans = "%s.%d" % (spans_path, n_done) if traced else None
        t0 = time.monotonic()
        cpu = cpus[n_done // (2 if args.trace else 1) % len(cpus)]
        rep, err = run_rep(ops_json, rep_spans, deadline, cpu)
        if rep is None:
            errors.append(err)
            scorer.rep_crashed(err)
            if len(errors) >= 3:
                break
            continue
        scorer.score(rep.pop("results"))
        if not args.trace:
            for _ in range(SETUP_SPAWNS):
                sample, err = run_rep(ops_json, SETUP_ONLY, deadline)
                if sample is None:
                    errors.append(err)
                else:
                    setups.append(sample)
        rep["rep_s"] = time.monotonic() - t0
        rep["spans_path"], rep["cpu"] = rep_spans, cpu
        reps["traced" if traced else "untraced"].append(rep)
    return reps, setups, errors


def provenance(args, ops):
    sha = None
    if os.path.isdir(".git"):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(os.path.join("src", "shiftlab"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as f:
                    h.update(name.encode() + b"\0" + f.read())
    kinds = {}
    for op in ops:
        kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1
    return {
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workloads.SIZES[args.workload],
        "op_counts": dict(kinds, queries=sum(len(op["words"]) for op in ops
                                             if op["kind"] == "queries")),
        "ops": [{k: v for k, v in op.items() if k not in ("words", "expect")} for op in ops],
    }


def to_ref(seconds, calib_s):
    """A time scaled to the reference machine speed: seconds * CALIB_REF_S /
    (median calibration chunk time of the same worker process). A shared
    machine's speed can drift by 40 % over minutes; calibration chunks timed
    in the same process follow part of that drift. They run before the op
    loop, so nothing the program keeps can change them."""
    return seconds * CALIB_REF_S / statistics.median(calib_s)


def wall_ref(rep):
    return to_ref(rep["wall_s"], rep["calib_s"])


def end_to_end(untraced, setups):
    """Medians over the untraced repetitions, and over the set-up-only
    interpreters for `setup_s`. The unscaled times (`wall_s`, `setup_raw_s`)
    and the calibration times stay in the results file."""
    out = {
        "wall_ref_s": summary([wall_ref(r) for r in untraced], "s"),
        "wall_s": summary([r["wall_s"] for r in untraced], "s"),
        "calib_chunk_s": summary([statistics.median(r["calib_s"]) for r in untraced], "s"),
        "peak_rss_mib": summary([r["peak_rss_mib"] for r in untraced], "MiB"),
    }
    if setups:
        out["setup_s"] = summary([to_ref(s["setup_s"], s["calib_s"]) for s in setups], "s")
        out["setup_raw_s"] = summary([s["setup_s"] for s in setups], "s")
    lat = [x for r in untraced for x in r["query_lat_us"]]
    if lat:
        out["query_p50_us"] = summary(lat, "us")
        out["query_p99_us"] = summary(lat, "us", p99_with_ten_beyond(lat))
        del out["query_p50_us"]["samples"], out["query_p99_us"]["samples"]
    return out


def per_layer(traced, e2e, spans_path):
    """Per-layer metrics of the fastest traced repetition (one consistent
    snapshot: its self times add up to its wall time minus untraced_s), the
    tracing overhead (median traced over median untraced `wall_ref_s`, - 1)
    and the membership latencies of the untraced ones.
    Keeps that repetition's spans at `spans_path` and deletes the others."""
    best = min(traced, key=lambda r: r["wall_s"])
    overhead = statistics.median(wall_ref(r) for r in traced) / e2e["wall_ref_s"]["value"] - 1
    for rep in traced:
        if rep is best:
            os.replace(rep["spans_path"], spans_path)
        else:
            os.remove(rep["spans_path"])
    layers = {k: {"value": v, "unit": ""} for k, v in best["layers"].items()}
    layers["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
    # membership latency exists on acceptor-queries only; 0 elsewhere
    for key in ("query_p50_us", "query_p99_us"):
        layers[key] = e2e.get(key, {"value": 0.0, "unit": "us", "n": 0})
    for key, unit in metric_names("per_layer").items():
        if key in layers:
            layers[key]["unit"] = unit
    return layers


def metric_names(kind):
    with open(BENCH) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench[kind]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "shiftlab", "__init__.py")):
        print("run.py: no src/shiftlab here; run from the root of a shiftlab checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    compileall.compile_dir(os.path.join("src", "shiftlab"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    gen0 = time.monotonic()
    ops = workloads.build(args.workload, args.seed)
    gen_s = time.monotonic() - gen0
    ops_json = json.dumps([{k: v for k, v in op.items() if k != "expect"} for op in ops])
    with open(os.path.join(HERE, "digests.json")) as f:
        pinned = json.load(f).get(args.workload, {}).get(str(args.seed))
    scorer = Scorer(ops, pinned)
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    spans_path = stem + "-spans.json" if args.trace else None

    reps, setups, errors = run_reps(ops_json, scorer, args, spans_path, started)
    untraced, traced = reps["untraced"], reps["traced"]
    detail = end_to_end(untraced, setups) if untraced else {}
    if not args.trace:
        wanted, source = metric_names("end_to_end"), detail
    else:
        if traced and untraced:
            detail["layers"] = per_layer(traced, detail, spans_path)
            detail["missing_spans"] = traced[-1].get("missing", [])
        wanted, source = metric_names("per_layer"), detail.get("layers", {})
    metrics = {k: {"value": source[k]["value"], "unit": u} for k, u in wanted.items()
               if k in source}

    record = {
        "provenance": provenance(args, ops),
        "input_generation_s": gen_s,
        "repetitions": dict({side: len(v) for side, v in reps.items()},
                            setup_only=len(setups)),
        "repetition_cpus": [r["cpu"] for r in untraced],
        "attempted": scorer.attempted,
        "failed": scorer.failed,
        "ops_failed_frac": scorer.failed / scorer.attempted if scorer.attempted else 1.0,
        "digests_pinned": pinned is not None,
        "answer_digests": scorer.digests(),
        "lambda_column_digest": oracle.digest(oracle.lambda_columns(ops, scorer.answers)),
        "op_samples_s": {op["id"]: dts for op, dts in zip(ops, scorer.op_s)},
        "failures": scorer.failures,
        "worker_errors": errors,
        "metrics": detail,
        "run_s": time.monotonic() - started,
    }
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for key, m in sorted(detail.items()):
        if isinstance(m, dict) and "value" in m:
            print("%-16s %12.6g %-3s median %.6g, q1 %.6g, q3 %.6g, n=%d" % (
                key, m["value"], m["unit"], m["median"], m["q1"], m["q3"], m["n"]))
    for key, m in sorted(detail.get("layers", {}).items()):
        print("%-44s %14.6g %s" % (key, m["value"], m["unit"]))
    print("ops_failed_frac  %.6g (%d of %d)" % (record["ops_failed_frac"], scorer.failed,
                                               scorer.attempted))
    if set(metrics) != set(wanted):
        print("run.py: no value for %s: %s" % (", ".join(sorted(set(wanted) - set(metrics))),
                                              "; ".join(errors)), file=sys.stderr)
        return 1
    print(json.dumps({"correct": scorer.failed == 0, "attempted": scorer.attempted,
                      "failed": scorer.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
