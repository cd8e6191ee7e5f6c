"""Seeded op lists for the three workloads.

An op is a plain dict that the worker can run without any benchmark state:

* ``{"kind": "cli", "argv": [...]}`` - one in-process ``shiftlab`` command;
* ``{"kind": "queries", "spec": s, "words": [...]}`` - membership queries,
  each timed on its own (``expect`` holds the reference answers and never
  reaches the program);
* ``{"kind": "call", "fn": name, "spec": s, "args": [...]}`` - one library
  search on a spec built during set-up.

The seed changes what the program is asked, not how much work that is: the
seeded spacing parameter is drawn from a pool whose columns cost the same
within a few per cent, seeded bit patterns keep their length and their
number of ones, and seeded words keep their length distribution.
"""

from __future__ import annotations

import random

from oracle import RefLang

WORKLOADS = ("lang-columns", "density-chaos", "acceptor-queries")

# spacing:P=periodic:;<bits> with the kmax at which its entropy column costs
# 0.06 s +- 7 % (minimum of five timings on a shared 2-vCPU VM); only this cheap
# column is seeded in lang-columns, because larger seeded columns made the
# cost differ by up to 30 % from seed to seed
PERIODIC_POOL = (
    ("101001", 37), ("10100011", 43), ("00110101", 43), ("1011101", 29),
    ("1011110", 37), ("1101101", 31), ("011011101", 33), ("10101", 37),
    ("01110001", 43), ("011101", 27), ("0100011", 46), ("01001001", 47),
    ("01001011", 41), ("1111110", 21), ("1001101", 37), ("10011", 30),
    ("00001", 51), ("01001", 39), ("10111101", 28), ("010011", 44),
    ("011110101", 27),
)
SIZES = {
    "lang-columns": {
        "counting_kmax": 24, "forbidden_kmax": (19, 18), "evens_kmax": 30,
        "complement_kmax": 118,
        "beta_kmax": 200, "golden_kmax": 150, "selftest_kmax": 12,
    },
    "density-chaos": {
        "density_horizon": 10000, "window_bits": 256, "classify_horizon": 2000,
        "classify_cap": 20000, "family_members": 3, "family_horizon": 300000,
        "pair_periods": (61, 71), "digits_k": 3000, "parry_horizon": 2000,
    },
    "acceptor-queries": {
        "queries_per_spec": 600, "word_len": (100, 600), "mixing_m_max": 200,
        "hereditary_k": 12, "max_symbol_k": 30, "max_density_k": 24,
    },
}


def _bits(rng, length, ones):
    pos = set(rng.sample(range(length), ones))
    return "".join("1" if i in pos else "0" for i in range(length))


def _cli(op_id, *argv):
    return {"id": op_id, "kind": "cli", "argv": [str(a) for a in argv]}


def _call(op_id, fn, spec, *args):
    return {"id": op_id, "kind": "call", "fn": fn, "spec": spec, "args": list(args)}


def _lang_columns(rng, sz):
    per, per_k = rng.choice(PERIODIC_POOL)
    return [
        _cli("entropy.counting", "entropy", "--shift", "counting",
             "--kmax", sz["counting_kmax"]),
        _cli("entropy.forbidden.a", "entropy", "--shift", "forbidden:{111,0101}",
             "--kmax", sz["forbidden_kmax"][0]),
        _cli("entropy.forbidden.b", "entropy", "--shift", "forbidden:{1111,0110}",
             "--kmax", sz["forbidden_kmax"][1]),
        _cli("entropy.spacing.evens", "entropy", "--shift", "spacing:P=evens",
             "--kmax", sz["evens_kmax"]),
        _cli("entropy.spacing.periodic", "entropy", "--shift",
             "spacing:P=periodic:;" + per, "--kmax", per_k),
        _cli("entropy.spacing.complement", "entropy", "--shift",
             "spacing:P=complement:(finite:{1,3,12})", "--kmax", sz["complement_kmax"]),
        _cli("entropy.beta", "entropy", "--shift", "beta:beta=1.5",
             "--kmax", sz["beta_kmax"]),
        _cli("entropy.golden", "entropy", "--shift", "beta:beta=quad:(1+1*sqrt5)/2",
             "--kmax", sz["golden_kmax"]),
        _cli("selftest", "selftest", "--kmax", sz["selftest_kmax"]),
    ]


def _density_chaos(rng, sz):
    H = sz["density_horizon"]
    nbits = sz["window_bits"]
    union = "union:(window:%s|periodic:;%s)" % (_bits(rng, nbits, nbits * 3 // 8),
                                              _bits(rng, 13, 3))
    sparse = "union:(window:%s|periodic:;%s)" % (_bits(rng, 128, 24), _bits(rng, 16, 1))
    p, q = sz["pair_periods"]
    return [
        _cli("density.pow2diff.banach", "density", "--set", "pow2diff",
             "--kind", "banach", "--horizon", H),
        _cli("density.factorial.upper", "density", "--set", "factorial_blocks",
             "--kind", "upper", "--horizon", 2 * H),
        _cli("density.factorial.banach", "density", "--set", "factorial_blocks",
             "--kind", "banach", "--horizon", H),
        _cli("density.union.banach", "density", "--set", union, "--kind", "banach",
             "--horizon", H),
        _cli("density.union.upper", "density", "--set", union, "--kind", "upper",
             "--horizon", H),
        _cli("sets.classify", "sets", "classify", "--set", sparse,
             "--horizon", sz["classify_horizon"], "--cap-states", sz["classify_cap"]),
        _cli("chaos.family", "chaos", "family", "--set", "periodic:;" + _bits(rng, 12, 5),
             "--members", sz["family_members"], "--horizon", sz["family_horizon"]),
        _cli("chaos.classify", "chaos", "classify", "--x", ";" + _bits(rng, p, p // 2),
             "--y", ";" + _bits(rng, q, q // 2)),
        _cli("beta.digits", "beta", "digits", "--beta", "quad:(1+1*sqrt7)/2",
             "--k", sz["digits_k"]),
        _cli("beta.parry", "beta", "parry", "--beta", "1.5",
             "--horizon", sz["parry_horizon"]),
    ]


def language_word(lang, rng, length):
    """A random word of L(X): each position tries a random symbol first and
    falls back to the others; every family here is right-prolongable."""
    lang.reserve(length)
    state, out = lang.start(), []
    for i in range(length):
        first = rng.randrange(lang.n)
        for a in range(first, first + lang.n):
            a %= lang.n
            nxt = lang.step(state, i, a)
            if nxt is not None:
                break
        else:
            raise ValueError("dead end in %s at %d" % (lang.text, i))
        state = nxt
        out.append(a)
    return out


def _queries(op_id, spec, rng, count, lo, hi):
    lang = RefLang(spec)
    words, expect = [], []
    for j in range(count):
        w = language_word(lang, rng, rng.randint(lo, hi))
        if j % 2:
            # a random 0 raised to 1: usually leaves the language
            zeros = [i for i, a in enumerate(w) if a == 0]
            w[rng.choice(zeros)] = 1
        words.append("".join(map(str, w)))
        expect.append(lang.contains(w))
    return {"id": op_id, "kind": "queries", "spec": spec, "words": words, "expect": expect}


def _acceptor_queries(rng, sz):
    # fixed acceptors: query cost grows with the density of 1s a family
    # allows, so only the words are seeded
    specs = ("counting", "spacing:P=periodic:;0111011",
             "spacing:P=complement:(finite:{1,3,7,12})", "beta:beta=1.5",
             "forbidden:{111,0101}")
    lo, hi = sz["word_len"]
    ops = []
    for idx, spec in enumerate(specs):
        ops.append(_queries("queries.%d" % idx, spec, rng, sz["queries_per_spec"], lo, hi))
        lang = RefLang(spec)
        u = "".join(map(str, language_word(lang, rng, rng.randint(3, 8))))
        v = "".join(map(str, language_word(lang, rng, rng.randint(3, 8))))
        ops += [
            _call("mixing.%d" % idx, "mixing_probe", spec, u, v, sz["mixing_m_max"]),
            _call("hereditary.%d" % idx, "hereditary_check", spec, sz["hereditary_k"]),
            _call("max_symbol.%d" % idx, "max_symbol_count", spec, 1, sz["max_symbol_k"]),
            _call("max_density.%d" % idx, "max_density_word", spec, 1, sz["max_density_k"],
                  None, False),
        ]
    return ops


_BUILDERS = {
    "lang-columns": _lang_columns,
    "density-chaos": _density_chaos,
    "acceptor-queries": _acceptor_queries,
}


def build(workload, seed):
    """The op list of one workload for one seed (same seed, same ops)."""
    rng = random.Random("%s/%d" % (workload, seed))
    return _BUILDERS[workload](rng, SIZES[workload])
