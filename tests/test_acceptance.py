"""Acceptance gate: one test per criterion, each ending in a printed
PASS/FAIL line (the test outcome itself mirrors that line under pytest -v)."""

import io
import json
import math
import random
import time
from fractions import Fraction

from shiftlab.beta import beta_digits, count_beta_language, parry_check, parse_beta
from shiftlab.chaos import (
    build_scrambled_family,
    classify_pair,
    distribution_profile,
    family_pair_frequencies,
    family_pair_profile,
)
from shiftlab.cli import main as cli_main
from shiftlab.core import periodic_point
from shiftlab.langkit import (
    binary_entropy,
    contains_word,
    count_language,
    counting_shift,
    enumerate_language,
    hereditary_check,
    log2_int,
    max_symbol_count,
    mixing_probe,
    parse_shift_spec,
)
from shiftlab.sets import (
    EVENS,
    ODDS,
    PeriodicSet,
    Pow2DiffSet,
    WindowSet,
    difference_set,
    largest_delta_subset,
    largest_ip_subset,
)
from shiftlab.spacing import delta_star_bound_check, recurrence_entropy_probe

from gap_reference import diff_equal_densities

LOG2_PHI = math.log2((1 + math.sqrt(5)) / 2)

FAMILIES = (
    "full:n=2",
    "spacing:P=complement:(finite:{1})",
    "spacing:P=evens",
    "beta:beta=quad:(1+1*sqrt5)/2",
    "beta:beta=1.5",
    "counting",
)


def _report(n, text):
    print("PASS criterion %d: %s" % (n, text))


def test_criterion_01_oracle_equivalence():
    t0 = time.monotonic()
    for label in FAMILIES:
        spec = parse_shift_spec(label)
        for k in range(1, 15):
            fast = count_language(spec, k)
            brute = count_language(spec, k, strategy="brute_force")
            assert fast == brute, (label, k, fast, brute)
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _report(1, "specialized counts equal brute force for k=1..14, "
               "6 families, %.1fs" % elapsed)


def test_criterion_02_full_shift():
    spec = parse_shift_spec("full:n=2")
    for k in range(1, 31):
        lam = count_language(spec, k)
        assert lam == 2 ** k
        assert log2_int(lam) / k == 1.0
    _report(2, "full shift h_k = 1 exactly for k <= 30")


def test_criterion_03_golden_mean_spacing():
    spec = parse_shift_spec("spacing:P=complement:(finite:{1})")
    lam = {k: count_language(spec, k) for k in range(1, 31)}
    assert lam[1] == 2 and lam[2] == 3
    for k in range(3, 31):
        assert lam[k] == lam[k - 1] + lam[k - 2]
    h30 = log2_int(lam[30]) / 30
    assert LOG2_PHI <= h30 <= LOG2_PHI + 0.01
    for k in range(1, 31):
        assert log2_int(lam[k]) / k >= LOG2_PHI - 1e-9
    _report(3, "Fibonacci recurrence to k=30, h_30 = %.5f in "
               "[log2 phi, log2 phi + 0.01]" % h30)


def test_criterion_04_beta_golden():
    t0 = time.monotonic()
    spec = parse_beta("quad:(1+1*sqrt5)/2")
    digits = beta_digits(spec, 64)
    assert str(digits) == "11" + "0" * 62
    assert parry_check(periodic_point("11", "0"), 10_000) is True
    h200 = log2_int(count_beta_language(spec, 200)) / 200
    assert abs(h200 - LOG2_PHI) <= 0.005
    shift = parse_shift_spec("beta:beta=quad:(1+1*sqrt5)/2")
    assert count_beta_language(spec, 3) == 7
    assert count_language(shift, 3, strategy="brute_force") == 7
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    _report(4, "golden beta: 64 exact digits, parry holds to 10^4, "
               "|h_200 - log2 phi| = %.4f, lambda_3 = 7, %.1fs" %
            (abs(h200 - LOG2_PHI), elapsed))


def test_criterion_05_beta_three_halves():
    spec = parse_beta("1.5")
    assert str(beta_digits(spec, 9)) == "101000001"
    h200 = log2_int(count_beta_language(spec, 200)) / 200
    assert abs(h200 - math.log2(1.5)) <= 0.01
    _report(5, "beta=3/2: digit prefix 101000001, |h_200 - log2(3/2)| = %.4f"
            % abs(h200 - math.log2(1.5)))


def test_criterion_06_counting_shift():
    spec = counting_shift()
    assert not contains_word(spec, "11")
    assert not contains_word(spec, "1010101")
    assert contains_word(spec, "101")
    for j in range(1, 7):
        assert max_symbol_count(spec, 1, 2 ** j) == j
    # the forced value 6 at k=64, achieved with ones at positions 2^i - 1
    witness = [0] * 64
    for i in range(1, 7):
        witness[2 ** i - 2] = 1
    assert contains_word(spec, tuple(witness))
    assert sum(witness) == 6 == max_symbol_count(spec, 1, 64)
    h = {k: log2_int(count_language(spec, k)) / k for k in (8, 16, 32)}
    assert h[8] > h[16] > h[32]
    g = mixing_probe(spec, "101", "101", 64)
    assert g is not None and g <= 8
    _report(6, "counting shift: memberships, D_{2^j} = j (j<=6) with verified "
               "witness, h_8 > h_16 > h_32, mixing gap %d <= 8" % g)


def test_criterion_07_heredity_and_weight_bound():
    hereditary = [label for label in FAMILIES if label != "full:n=2"]
    for label in hereditary:
        spec = parse_shift_spec(label)
        ok, _ = hereditary_check(spec, 12)
        assert ok, label
    rng = random.Random(1729)
    for label in FAMILIES:
        spec = parse_shift_spec(label)
        words = list(enumerate_language(spec, 14))
        lam = len(words)
        assert lam == count_language(spec, 14)
        sample = [words[rng.randrange(lam)] for _ in range(1000)]
        for syms in sample:
            assert 2 ** sum(1 for s in syms if s) <= lam
    _report(7, "hereditary closure at k<=12 and the 2^weight <= lambda_k bound "
               "on 1000 sampled words per family at k=14")


def test_criterion_08_binomial_bound():
    for n in range(1, 31):
        for num in range(1, 11):
            eps = Fraction(num, 20)
            lhs = sum(math.comb(n, j) for j in range(int(n * eps) + 1))
            assert lhs <= 2 ** (n * binary_entropy(eps)) * (1 + 1e-12)
    spot = sum(math.comb(10, j) for j in range(4))
    assert spot == 176
    assert spot <= 2 ** (10 * binary_entropy(0.3))
    _report(8, "binomial sum <= 2^(nH(eps)) over the full grid; "
               "spot check 176 <= 2^(10 H(0.3))")


def test_criterion_09_chaos_exact_case():
    x, y = periodic_point("", "10"), periodic_point("", "0")
    prof = distribution_profile(x, y)
    lookup = dict(zip(prof.thresholds, prof.F_values))
    assert lookup[Fraction(1, 8)] == 0 and lookup[Fraction(1, 4)] == 0
    assert lookup[Fraction(1, 2)] == Fraction(1, 2)
    assert lookup[Fraction(1)] == 1
    assert prof.F_values == prof.Fstar_values
    assert classify_pair(prof).verdict == "none"
    rng = random.Random(0xBEEF)
    for _ in range(50):
        def rand_point():
            pre = [rng.randint(0, 1) for _ in range(rng.randint(0, 4))]
            per = [rng.randint(0, 1) for _ in range(rng.randint(1, 12))]
            return periodic_point(pre, per)
        a, b = rand_point(), rand_point()
        d, e = diff_equal_densities(a, b)
        p = distribution_profile(a, b)
        f_below_one = min(f for t, f in zip(p.thresholds, p.F_values) if t > 0) < 1
        assert (d > 0) == f_below_one
        assert (d == 0) == (not f_below_one)
        assert (e == 1) == p.fstar_one_everywhere
        assert (e < 1) == (not p.fstar_one_everywhere)
    _report(9, "exact step profile of ((10)^inf, 0^inf) and the distribution/"
               "density equivalence on 50 random periodic pairs")


def test_criterion_10_scrambled_family():
    fam = build_scrambled_family(EVENS, 2, 100_000)
    b = fam.b
    assert all(n * b[n - 1] <= b[n] for n in range(1, len(b)))
    rows = family_pair_frequencies(fam, 0, 1)
    diff_at = {cp: d for cp, d, _ in rows}
    equal_at = {cp: e for cp, _, e in rows}
    assert any(d >= Fraction(2, 5) for d in diff_at.values())
    assert any(e >= Fraction(99, 100) for e in equal_at.values())
    cls = classify_pair(family_pair_profile(fam, 0, 1))
    assert cls.verdict == "DC2-not-DC1" and cls.evidence
    _report(10, "scrambled family (S=evens, m=2, horizon 10^5): growth "
                "condition bit-exact, Diff >= 0.4 and Equal >= 0.99 at "
                "checkpoints, DC2 evidence")


def test_criterion_11_sets():
    p = Pow2DiffSet()
    for i in range(1, 1 << 20):
        binform = bin(i)[2:]
        ones_then_zeros = "01" not in binform
        assert p.contains(i) == ones_then_zeros, i
    ip = largest_ip_subset(p, 1 << 12)[0]
    assert len(ip) <= 2
    mult3 = PeriodicSet((), (0, 0, 1), "mult3")
    # exact passes: a largest B whose differences miss A - A has 2 and 3
    # elements, read past the horizon for mult3 (a B of 5 otherwise)
    assert delta_star_bound_check(EVENS, 3, 512)[:3] == (True, (1, 2), True)
    holds, B, exact, _ = delta_star_bound_check(mult3, 4, 512)
    assert holds and exact and len(B) == 3
    pow2 = WindowSet(tuple(1 if (i & (i - 1)) == 0 else 0 for i in range(1, 513)))
    # a B with B - B inside A - A is a Delta-set of (A - A) cap [1, H]: the
    # engine finds a largest one
    for A, size in ((EVENS, 256), (pow2, 10)):
        ones, capped = largest_delta_subset(difference_set(A, 512), 512)
        assert len(ones) == size and not capped
        AA = set()
        mem = A.members(512)
        for i, a in enumerate(mem):
            for bb in mem[:i]:
                AA.add(a - bb)
        assert all((q - pq) in AA for i, pq in enumerate(ones) for q in ones[i + 1:])
    _report(11, "pow2diff binary form to 2^20, no 3-element IP set below 2^12, "
                "delta-star holds exactly at H=512, difference-subset "
                "witnesses verified at H=512")


def test_criterion_12_recurrence_probe():
    rep = recurrence_entropy_probe(ODDS, 20)
    for r in rep.rows:
        assert r.lam >= 2 ** ((r.k + 1) // 2)
        assert r.h_k >= 0.5 - 1e-12
    rep = recurrence_entropy_probe(PeriodicSet((), (1,)), 20)
    assert [r.lam for r in rep.rows] == [k + 1 for k in range(1, 21)]
    _report(12, "R=odds gives h_k >= 1/2 (lambda_k >= 2^ceil(k/2)); "
                "R=N gives lambda_k = k+1")


def test_criterion_13_determinism():
    cases = [
        ["spacing", "delta-star", "--set", "evens", "--k", "3", "--horizon", "256"],
        ["entropy", "--shift", "counting", "--kmax", "12"],
        ["chaos", "family", "--set", "evens", "--members", "2",
         "--horizon", "50000"],
    ]
    for argv in cases:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            assert cli_main(argv, out=buf) == 0
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
        json.loads(outs[0])  # well-formed
    _report(13, "repeated CLI runs with identical config are "
                "byte-identical JSON")
