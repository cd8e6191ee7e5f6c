"""Reference semantics and the answer gate.

Everything here is written from the definitions in the shiftlab README and
docstrings, without importing shiftlab, so that a wrong answer from the
program cannot be hidden by the same wrong code in the check:

* reference languages for the shift-spec mini-language (membership, and a
  prefix-pruned enumeration that gives every lambda_k with n**k <= 2**16);
* reference membership for the set-expression mini-language;
* reference beta digits from exact integer arithmetic;
* `Gate`, which turns one op and the program's answer into a list of
  problems (empty when the answer is right) and a digest of the answer.

The gate runs in the parent process, outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from math import isqrt

BRUTE_LIMIT = 1 << 16


# -- integer sets -------------------------------------------------------------

class RefSet:
    """Membership of a set expression; `period` is (pre, per) bit tuples when
    the set is eventually periodic by construction, else None."""

    def __init__(self, has, period=None):
        self.has = has
        self.period = period

    def bits(self, H):
        return [1 if self.has(i) else 0 for i in range(1, H + 1)]


def _periodic(pre, per):
    def has(i):
        if i < 1:
            return False
        if i <= len(pre):
            return bool(pre[i - 1])
        return bool(per[(i - len(pre) - 1) % len(per)])
    return RefSet(has, (pre, per))


def _pow2diff(i):
    # i = 2**n - 2**m with n > m >= 0  <=>  i + 2**m is a power of two
    return any((i + (1 << m)) & (i + (1 << m) - 1) == 0
               for m in range(i.bit_length() + 1))


def _factorial_blocks(i):
    n, f = 2, 2
    while f <= i:
        if i < f + n:
            return True
        n += 1
        f *= n
    return False


def _split_top(body, sep):
    parts, depth, start = [], 0, 0
    for i, c in enumerate(body):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == sep and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


def parse_set(text):
    text = text.strip()
    if text == "evens":
        return _periodic((), (0, 1))
    if text == "odds":
        return _periodic((), (1, 0))
    if text == "pow2diff":
        return RefSet(lambda i: i >= 1 and _pow2diff(i))
    if text == "factorial_blocks":
        return RefSet(_factorial_blocks)
    if text.startswith("finite:{"):
        body = text[len("finite:{"):-1]
        elems = frozenset(int(t) for t in body.split(",")) if body.strip() else frozenset()
        top = max(elems, default=0)
        return _periodic(tuple(1 if i in elems else 0 for i in range(1, top + 1)), (0,))
    if text.startswith("periodic:"):
        pre, per = text[len("periodic:"):].split(";")
        return _periodic(tuple(map(int, pre)), tuple(map(int, per)))
    if text.startswith("window:"):
        bits = tuple(map(int, text[len("window:"):]))
        return RefSet(lambda i: 1 <= i <= len(bits) and bits[i - 1] == 1)
    if text.startswith("complement:("):
        inner = parse_set(text[len("complement:("):-1])
        period = None
        if inner.period is not None:
            pre, per = inner.period
            period = (tuple(1 - b for b in pre), tuple(1 - b for b in per))
        return RefSet(lambda i: i >= 1 and not inner.has(i), period)
    if text.startswith("union:("):
        parts = [parse_set(p) for p in _split_top(text[len("union:("):-1], "|")]
        period = None
        if all(p.period is not None for p in parts):
            pre_len = max(len(p.period[0]) for p in parts)
            per_len = math.lcm(*[len(p.period[1]) for p in parts])
            bits = [1 if any(p.has(i) for p in parts) else 0
                    for i in range(1, pre_len + per_len + 1)]
            period = (tuple(bits[:pre_len]), tuple(bits[pre_len:]))
        return RefSet(lambda i: any(p.has(i) for p in parts), period)
    raise ValueError("reference cannot parse set %r" % (text,))


# -- beta digits --------------------------------------------------------------

_QUAD = re.compile(r"^quad:\((-?\d+)\+(-?\d+)\*sqrt(\d+)\)/(\d+)$")


def beta_value(text):
    """(a, b, d, c) with beta = (a + b*sqrt(d)) / c; d = 0 for rationals."""
    m = _QUAD.match(text)
    if m:
        a, b, d, c = (int(g) for g in m.groups())
        return a, b, d, c
    f = Fraction(text)
    return f.numerator, 0, 0, f.denominator


def beta_float(text):
    a, b, d, c = beta_value(text)
    return (a + b * math.sqrt(d)) / c


def beta_digits(text, k):
    """First k greedy digits of 1 in base beta: d_i = floor(beta * r_i),
    r_{i+1} = beta * r_i - d_i, r_0 = 1, in exact integer arithmetic with
    r = (A + B*sqrt(d)) / D. For B != 0 the numerator is irrational, so
    floor((X + Y*sqrt(d)) / D) = (X + floor(Y*sqrt(d))) // D."""
    a, b, d, c = beta_value(text)
    A, B, D = 1, 0, 1
    out = []
    for _ in range(k):
        X, Y, D = a * A + b * B * d, a * B + b * A, c * D
        if Y:
            s = isqrt(Y * Y * d)
            digit = (X + (s if Y > 0 else -s - 1)) // D
        else:
            digit = X // D
        out.append(digit)
        A, B = X - digit * D, Y
    return out


# -- shift languages ----------------------------------------------------------

def _counting_cap(length):
    # a window of length L in (2**(j-1), 2**j] may hold at most j ones
    return max(1, (length - 1).bit_length())


class RefLang:
    """Reference language of one shift spec. `step(state, i, a)` returns the
    next state or None; positions i are 0-based."""

    def __init__(self, text):
        self.text = text
        self.hereditary = True
        if text == "counting":
            self.kind, self.n = "counting", 2
        elif text.startswith("full:n="):
            self.kind, self.n = "full", int(text[len("full:n="):])
        elif text.startswith("forbidden:{"):
            words = [w.strip() for w in text[len("forbidden:{"):-1].split(",")]
            self.kind = "forbidden"
            self.forbidden = [tuple(map(int, w)) for w in words]
            self.n = max(2, max(max(f) for f in self.forbidden) + 1)
            self.keep = max(len(f) for f in self.forbidden) - 1
            self.hereditary = False
        elif text.startswith("spacing:P="):
            self.kind, self.n = "spacing", 2
            self.P = parse_set(text[len("spacing:P="):])
            self._ptab = [False]
        elif text.startswith("beta:beta="):
            self.kind = "beta"
            self.beta = text[len("beta:beta="):]
            self.n = math.floor(beta_float(self.beta)) + 1
            self.digits = []
        else:
            raise ValueError("reference cannot parse shift %r" % (text,))

    def reserve(self, length):
        """Precompute P up to `length` and the beta digits the suffix rule
        reads for words of that length."""
        if self.kind == "spacing":
            tab = self._ptab
            while len(tab) <= length:
                tab.append(self.P.has(len(tab)))
        elif self.kind == "beta" and len(self.digits) <= length:
            self.digits = beta_digits(self.beta, 2 * length + 64)

    def start(self):
        return ()

    def step(self, state, i, a):
        if not 0 <= a < self.n:
            return None
        kind = self.kind
        if kind == "full":
            return state
        if kind == "forbidden":
            tail = state + (a,)
            for f in self.forbidden:
                if tail[-len(f):] == f:
                    return None
            return tail[-self.keep:] if self.keep else ()
        if kind == "beta":
            # suffix rule: every suffix is <= the equal-length digit prefix;
            # `state` holds the lengths of the suffixes still equal to it
            ties = []
            for length in state + (0,):
                d = self.digits[length]
                if a > d:
                    return None
                if a == d:
                    ties.append(length + 1)
            return tuple(ties)
        if a == 0:
            return state
        q = i + 1
        if kind == "spacing":
            tab = self._ptab
            for p in state:
                if not tab[q - p]:
                    return None
            return state + (q,)
        # counting: the window from an earlier 1 to q holds (m - idx + 1) ones
        m = len(state)
        for idx, p in enumerate(state):
            if m - idx + 1 > _counting_cap(q - p + 1):
                return None
        return state + (q,)

    def contains(self, symbols):
        self.reserve(len(symbols))
        state = self.start()
        for i, a in enumerate(symbols):
            state = self.step(state, i, a)
            if state is None:
                return False
        return True

    def counts(self, kmax):
        """[lambda_1, ..., lambda_kmax] by prefix-pruned enumeration (every
        prefix of a language word is a language word)."""
        self.reserve(kmax)
        out = [0] * (kmax + 1)
        stack = [(0, self.start())]
        n = self.n
        while stack:
            i, state = stack.pop()
            out[i] += 1
            if i == kmax:
                continue
            for a in range(n):
                nxt = self.step(state, i, a)
                if nxt is not None:
                    stack.append((i + 1, nxt))
        return out[1:]

    def max_ones(self, k):
        """Largest number of 1s over L_k, by the same enumeration."""
        self.reserve(k)
        best = 0
        stack = [(0, self.start(), 0)]
        while stack:
            i, state, ones = stack.pop()
            if i == k:
                best = max(best, ones)
                continue
            for a in range(self.n):
                nxt = self.step(state, i, a)
                if nxt is not None:
                    stack.append((i + 1, nxt, ones + (a == 1)))
        return best


# -- answers ------------------------------------------------------------------

def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _argv_get(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def extract(op, raw):
    """The answer of one op, reduced to the fields that carry the result, so
    that an additive change to the CLI envelope keeps its digest."""
    if op["kind"] != "cli":
        return raw
    rc, text = raw
    if rc != 0:
        raise ValueError("exit code %d" % rc)
    env = json.loads(text)
    res = env["result"]
    cmd = env["command"]
    if cmd == "entropy":
        # floats to 12 digits: a change in the last bits of log2 is not a
        # changed answer
        return {"rows": [[r["k"], r["lambda"], float("%.12g" % r["h_k"]),
                          float("%.12g" % r["inf_so_far"])] for r in res["rows"]]}
    if cmd == "selftest":
        return {"all_pass": res["all_pass"],
                "rows": [[r["family"], r["status"]] for r in res["rows"]]}
    if cmd == "density":
        keep = ("kind", "value", "value_exact", "exact", "exists", "horizon")
        return {k: res[k] for k in keep if k in res}
    if cmd == "sets classify":
        keep = ("horizon", "thick_run", "max_gap", "delta_witness",
                "ip_witness", "ip_bound", "piecewise_syndetic_evidence")
        return {k: res[k] for k in keep}
    if cmd == "chaos classify":
        prof = res["profile"]
        return {"grid": [[g["t"], g["F"], g["Fstar"]] for g in prof["grid"]],
                "exact": prof["exact"], "verdict": res["class"]["verdict"],
                "evidence": res["class"]["evidence"]}
    if cmd == "chaos family":
        return {"b": res["log"]["b"], "growth_ok": res["log"]["growth_ok"],
                "profiles": {k: [[g["t"], g["F"], g["Fstar"]] for g in v["grid"]]
                             for k, v in res["pair_profiles"].items()},
                "frequencies": {k: [[r["checkpoint"], r["diff"], r["equal"]] for r in v]
                                for k, v in res["pair_frequencies"].items()}}
    if cmd == "beta digits":
        return {"k": res["k"], "digits": res["digits"]}
    if cmd == "beta parry":
        return {"horizon": res["horizon"], "parry": res["parry"]}
    raise ValueError("no answer extractor for %r" % (cmd,))


def lambda_columns(ops, answers):
    """{spec: [lambda_1..lambda_K]} for every entropy op, for provenance."""
    cols = {}
    for op, ans in zip(ops, answers):
        if op["kind"] == "cli" and op["argv"][0] == "entropy" and isinstance(ans, dict):
            cols[_argv_get(op["argv"], "--shift")] = [r[1] for r in ans["rows"]]
    return cols


class Gate:
    """Checks answers against the reference semantics. Reference work is
    cached, so each distinct (op, answer) pair is checked once per run."""

    def __init__(self):
        self._langs = {}
        self._counts = {}
        self._verdicts = {}

    def lang(self, text):
        if text not in self._langs:
            self._langs[text] = RefLang(text)
        return self._langs[text]

    def ref_counts(self, text, kmax):
        lang = self.lang(text)
        kmax = min(kmax, int(math.log(BRUTE_LIMIT, lang.n) + 1e-9))
        have = self._counts.get(text, [])
        if len(have) < kmax:
            have = lang.counts(kmax)
            self._counts[text] = have
        return have[:kmax]

    def check(self, op, answer):
        key = (op["id"], digest(answer))
        if key not in self._verdicts:
            try:
                self._verdicts[key] = self._check(op, answer)
            except (ValueError, KeyError, TypeError, IndexError) as e:
                self._verdicts[key] = ["check raised %s: %s" % (type(e).__name__, e)]
        return self._verdicts[key]

    def _check(self, op, ans):
        kind = op["kind"]
        if kind == "cli":
            command = "_".join(a for a in op["argv"][:2] if not a.startswith("-"))
            return getattr(self, "_cli_" + command)(op["argv"], ans)
        if kind == "queries":
            return self._queries(op, ans)
        return getattr(self, "_call_" + op["fn"])(op, ans)

    # entropy columns
    def _cli_entropy(self, argv, ans):
        text = _argv_get(argv, "--shift")
        K = int(_argv_get(argv, "--kmax"))
        rows = ans["rows"]
        probs = []
        if [r[0] for r in rows] != list(range(1, K + 1)):
            return ["rows are not k = 1..%d" % K]
        lams = [int(r[1]) for r in rows]
        inf = math.inf
        for k, lam, h, inf_so_far in rows:
            lam = int(lam)
            ref_h = math.log2(lam) / k
            if abs(h - ref_h) > 1e-9 * max(1.0, ref_h):
                probs.append("h_%d=%r, log2(lambda)/k=%r" % (k, h, ref_h))
            inf = min(inf, h)
            if inf_so_far != inf:
                probs.append("inf_so_far at k=%d is %r, not the running min %r"
                             % (k, inf_so_far, inf))
        for k, lam in enumerate(self.ref_counts(text, K), start=1):
            if lams[k - 1] != lam:
                probs.append("lambda_%d=%d, reference %d" % (k, lams[k - 1], lam))
        lang = self.lang(text)
        if lang.kind == "full":
            probs += ["lambda_%d != n**k" % k for k, lam in enumerate(lams, 1)
                      if lam != lang.n ** k]
        if text == "spacing:P=complement:(finite:{1})":
            fib = [1, 2]
            while len(fib) < K + 1:
                fib.append(fib[-1] + fib[-2])
            probs += ["lambda_%d is not Fibonacci" % k for k, lam in enumerate(lams, 1)
                      if lam != fib[k]]
        if lang.kind == "beta":
            floor = math.log2(beta_float(lang.beta))
            probs += ["h_%d below log2(beta)" % r[0] for r in rows if r[2] < floor - 1e-12]
        # submultiplicativity lambda_{i+j} <= lambda_i * lambda_j
        for i in range(1, K):
            for j in range(i, K - i + 1):
                if lams[i + j - 1] > lams[i - 1] * lams[j - 1]:
                    probs.append("lambda_%d > lambda_%d * lambda_%d" % (i + j, i, j))
        return probs

    def _cli_selftest(self, argv, ans):
        bad = [r for r in ans["rows"] if r[1] != "pass"]
        probs = ["selftest %s: %s" % (r[0], r[1]) for r in bad]
        if not ans["all_pass"]:
            probs.append("selftest all_pass is false")
        return probs

    # integer sets
    def _cli_density(self, argv, ans):
        text = _argv_get(argv, "--set")
        kind = _argv_get(argv, "--kind", "upper")
        H = int(_argv_get(argv, "--horizon", 10000))
        A = parse_set(text)
        if A.period is not None:
            per = A.period[1]
            want = Fraction(sum(per), len(per))
            if not ans["exact"] or Fraction(ans["value_exact"]) != want:
                return ["exact density %s, reference %s" % (ans.get("value_exact"), want)]
            return []
        if ans["exact"]:
            return ["exact density for the non-periodic set %s" % text]
        counts = [0]
        for b in A.bits(H):
            counts.append(counts[-1] + b)
        if kind == "upper":
            grid, n = [], 8
            while n < H:
                grid.append(n)
                n *= 2
            grid.append(H)
            want = max(Fraction(counts[n], n) for n in grid)
        else:
            want, L = Fraction(0), 16
            while L <= H:
                top = max(counts[s + L] - counts[s] for s in range(0, H - L + 1))
                want = max(want, Fraction(top, L))
                L *= 2
        if ans["value"] != float(want) or ans["horizon"] != H:
            return ["%s density estimate %r at H=%d, reference %r"
                    % (kind, ans["value"], H, float(want))]
        return []

    def _cli_sets_classify(self, argv, ans):
        A = parse_set(_argv_get(argv, "--set"))
        H = int(_argv_get(argv, "--horizon", 10000))
        members = [i for i in range(1, H + 1) if A.has(i)]
        probs = []
        run = best = 0
        for i in range(1, H + 1):
            run = run + 1 if A.has(i) else 0
            best = max(best, run)
        if ans["thick_run"] != best:
            probs.append("thick_run %d, reference %d" % (ans["thick_run"], best))
        if members:
            gaps = [members[0]] + [b - a for a, b in zip(members, members[1:])] + \
                [H + 1 - members[-1]]
            if ans["max_gap"] != max(gaps):
                probs.append("max_gap %r, reference %d" % (ans["max_gap"], max(gaps)))
        D = ans["delta_witness"]
        if any(not A.has(b - a) for i, a in enumerate(D) for b in D[i + 1:]):
            probs.append("delta witness has a difference outside A")
        S = ans["ip_witness"]
        sums = {0}
        for s in S:
            sums |= {t + s for t in sums}
        if any(t > ans["ip_bound"] or not A.has(t) for t in sums - {0}):
            probs.append("ip witness has a finite sum outside A")
        return probs

    # chaos
    def _cli_chaos_classify(self, argv, ans):
        xs = _argv_get(argv, "--x").split(";")
        ys = _argv_get(argv, "--y").split(";")
        if xs[0] or ys[0]:
            raise ValueError("reference handles purely periodic pairs only")
        x, y = tuple(map(int, xs[1])), tuple(map(int, ys[1]))
        c = math.lcm(len(x), len(y))
        dis = [x[i % len(x)] != y[i % len(y)] for i in range(c)]
        if not any(dis):
            return [] if ans["verdict"] != "none" else ["agreeing pair classified none"]
        gaps = []
        for j in range(c):
            g = 1
            while not dis[(j + g - 1) % c]:
                g += 1
            gaps.append(g)
        top = max(gaps) + 1
        grid = [Fraction(1, 2 ** a) for a in range(top, 0, -1)] + [Fraction(1)]
        probs = []
        got = [(Fraction(_threshold(t)), Fraction(f), Fraction(fs)) for t, f, fs in ans["grid"]]
        want = [(t, Fraction(sum(1 for g in gaps if Fraction(1, 2 ** g) < t), c)) for t in grid]
        if [g[0] for g in got] != [w[0] for w in want]:
            return ["threshold grid differs from the reference"]
        for (t, f, fs), (_, wf) in zip(got, want):
            if f != wf or fs != wf:
                probs.append("F(%s)=%s F*=%s, reference %s" % (t, f, fs, wf))
        if not ans["exact"] or ans["evidence"] or ans["verdict"] != "none":
            probs.append("periodic pair: verdict %r exact=%r" % (ans["verdict"], ans["exact"]))
        return probs

    def _cli_chaos_family(self, argv, ans):
        probs = []
        b = ans["b"]
        per = len(parse_set(_argv_get(argv, "--set")).period[1])
        if not ans["growth_ok"] or any(x % per for x in b) or b != sorted(set(b)):
            probs.append("checkpoints %r violate the construction" % (b,))
        for key, rows in ans["frequencies"].items():
            if [r[0] for r in rows] != b:
                probs.append("pair %s frequencies not at the checkpoints" % key)
            if any(Fraction(d) + Fraction(e) != 1 for _, d, e in rows):
                probs.append("pair %s diff + equal != 1" % key)
        for key, grid in ans["profiles"].items():
            if any(Fraction(f) > Fraction(fs) for _, f, fs in grid):
                probs.append("pair %s has F > F*" % key)
        return probs

    # beta
    def _cli_beta_digits(self, argv, ans):
        text = _argv_get(argv, "--beta")
        k = int(_argv_get(argv, "--k"))
        want = "".join(map(str, beta_digits(text, k)))
        return [] if ans["digits"] == want else ["digits differ from the reference"]

    def _cli_beta_parry(self, argv, ans):
        text = _argv_get(argv, "--beta")
        H = int(_argv_get(argv, "--horizon", 10000))
        d = beta_digits(text, min(H, 4096))
        verdict, L = True, len(d)
        for k in range(1, min(H, L - 1) + 1):
            a, b = d[k:], d[:L - k]
            if a > b:
                verdict = False
                break
            if a == b:
                verdict = None
        return [] if ans["parry"] == verdict else \
            ["parry %r, reference %r" % (ans["parry"], verdict)]

    # library calls
    def _queries(self, op, ans):
        # one problem per wrong answer; the expected answers were computed
        # from the reference language when the words were generated
        return ["query %d: %r, reference %r" % (i, got, want)
                for i, (got, want) in enumerate(zip(ans, op["expect"])) if got is not want]

    def _call_mixing_probe(self, op, ans):
        lang = self.lang(op["spec"])
        u, v, m_max = op["args"]
        u, v = tuple(map(int, u)), tuple(map(int, v))
        ok = [lang.contains(u + (0,) * m + v) for m in range(m_max + 1)]
        want = None
        if ok[-1]:
            want = m_max
            while want > 0 and ok[want - 1]:
                want -= 1
        return [] if ans == want else ["mixing gap %r, reference %r" % (ans, want)]

    def _call_hereditary_check(self, op, ans):
        lang = self.lang(op["spec"])
        ok, witness = ans
        if ok:
            return [] if lang.hereditary or witness is None else ["witness without a failure"]
        if lang.hereditary:
            return ["hereditary family reported as not hereditary"]
        w, low = (tuple(map(int, s)) for s in witness)
        diffs = [i for i in range(len(w)) if w[i] != low[i]]
        if not (lang.contains(w) and not lang.contains(low) and len(diffs) == 1
                and low[diffs[0]] == w[diffs[0]] - 1):
            return ["heredity counterexample %r does not hold" % (witness,)]
        return []

    def _call_max_symbol_count(self, op, ans):
        lang = self.lang(op["spec"])
        alpha, k = op["args"]
        if not 0 <= ans <= k:
            return ["D_%d=%r outside [0, k]" % (k, ans)]
        if lang.n ** k <= BRUTE_LIMIT and ans != lang.max_ones(k):
            return ["D_%d=%d, reference %d" % (k, ans, lang.max_ones(k))]
        return []

    def _call_max_density_word(self, op, ans):
        lang = self.lang(op["spec"])
        alpha, k = op["args"][:2]
        w, value = ans
        syms = tuple(map(int, w))
        if len(syms) != k or not lang.contains(syms):
            return ["max-density word %s is not a length-%d language word" % (w, k)]
        cnt, low = 0, None
        for i, s in enumerate(syms, start=1):
            cnt += s == alpha
            f = Fraction(cnt, i)
            low = f if low is None else min(low, f)
        if Fraction(value) != low:
            return ["min prefix frequency %s, reported %s" % (low, value)]
        return []


def _threshold(t):
    # "2^-5" -> "1/32"
    if "^-" in t:
        base, exp = t.split("^-")
        return "1/%d" % (int(base) ** int(exp))
    return t
