"""One repetition of a workload, in a fresh interpreter.

Run by run.py as ``python3 perfbench/worker.py <t_spawn> [--setup-only |
<spans-file>]`` with the op list as JSON on stdin. Set-up is the
interpreter start, the shiftlab import, reading the ops and building the
specs of library ops; it ends when the op loop would start and is measured
from ``t_spawn``, a `time.monotonic()` reading taken by the parent just
before it started this process. With ``--setup-only`` the process stops
there and reports only its set-up time and five calibration chunks of
fixed pure-Python work timed right after it. Otherwise twenty calibration
chunks are timed before the op loop (see run.py, `wall_ref_s`) and the op
list runs once. With a spans file the repetition is traced: the spans are
written there and the per-layer aggregates are returned. The result is the
last line of stdout, one JSON object.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

SETUP_ONLY = "--setup-only"


def _plain(x):
    """A library result as JSON: words and fractions become strings."""
    if x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    if hasattr(x, "symbols"):
        return str(x)
    raise TypeError("no JSON form for %r" % (x,))


def peak_rss_mib():
    """High-water resident set of this process image. VmHWM starts afresh at
    exec; getrusage's ru_maxrss can carry the parent's pages over the fork."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _calibration_chunk():
    """Fixed pure-Python work of the kinds shiftlab does: tuples, dicts,
    small-int and Fraction arithmetic."""
    counts, state = {}, ()
    for i in range(6000):
        state = (state + (i & 3,))[-4:]
        counts[state] = counts.get(state, 0) + 1
    f = Fraction(0)
    for i in range(1, 300):
        f += Fraction(i % 7, i)
    return len(counts) + f.numerator % 7


def calibrate(chunks=20):
    """Times of `chunks` calibration chunks, with the collector off."""
    times = []
    gc.disable()
    try:
        for _ in range(chunks):
            t0 = time.perf_counter()
            _calibration_chunk()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return times


def build_specs(ops, langkit):
    return {op["spec"]: langkit.parse_shift_spec(op["spec"])
            for op in ops if op["kind"] != "cli"}


def run_ops(ops, cli, langkit, specs, tracer=None):
    """Run every op once, in order. Returns (wall_s, results, query latencies
    in microseconds); an op that raises is recorded and the loop goes on."""
    clock = time.perf_counter
    raw, lat = [], []
    t0 = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = clock()
        try:
            kind = op["kind"]
            if kind == "cli":
                out = io.StringIO()
                rc = cli.main(op["argv"], out=out)
                res = ("ok", (rc, out.getvalue()))
            elif kind == "queries":
                spec, answers = specs[op["spec"]], []
                for w in op["words"]:
                    q0 = clock()
                    try:
                        answers.append(langkit.contains_word(spec, w))
                    except Exception as e:   # one failed query, the batch goes on
                        answers.append("%s: %s" % (type(e).__name__, e))
                    lat.append(clock() - q0)
                res = ("ok", answers)
            else:
                fn = getattr(langkit, op["fn"])
                res = ("ok", fn(specs[op["spec"]], *op["args"]))
        except Exception as e:               # counted as a failed op by the parent
            res = ("error", "%s: %s" % (type(e).__name__, e))
        raw.append((res, clock() - start))
    wall = clock() - t0
    results = []
    for (status, value), dt in raw:
        if status == "ok":
            try:
                value = _plain(value)
            except TypeError as e:
                status, value = "error", str(e)
        results.append({"status": status, "value": value, "dt": dt})
    return wall, results, [x * 1e6 for x in lat]


def main(argv):
    t_spawn = float(argv[1])
    mode = argv[2] if len(argv) > 2 else None
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import shiftlab  # noqa: F401  (set-up cost: the package import)
    from shiftlab import cli, langkit

    ops = json.load(sys.stdin)
    specs = build_specs(ops, langkit)
    tracer = None
    if mode not in (None, SETUP_ONLY):
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - t_spawn
    # before the op loop, so that nothing the program keeps can change it
    calib = calibrate(5 if mode == SETUP_ONLY else 20)
    out = {"setup_s": setup_s, "calib_s": calib}
    if mode == SETUP_ONLY:
        sys.stdout.write("\n" + json.dumps(out) + "\n")
        return
    wall, results, lat = run_ops(ops, cli, langkit, specs, tracer)
    out.update(wall_s=wall, peak_rss_mib=peak_rss_mib(), results=results,
               query_lat_us=lat)
    if tracer is not None:
        from spans import aggregate
        with open(mode, "w") as f:
            json.dump({"missing": tracer.missing, "counts": tracer.counts,
                       "fields": ["name", "tag", "start", "end", "parent", "op"],
                       "spans": tracer.spans}, f)
        out["layers"] = aggregate(tracer.spans, tracer.counts, wall)
        out["missing"] = tracer.missing
    sys.stdout.write("\n" + json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv)
