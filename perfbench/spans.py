"""Spans recorded around calls into shiftlab's public functions.

`Tracer.install` wraps each function listed in `TARGETS` and rebinds the
wrapper under every name that held the original in any loaded shiftlab
module, so direct imports (``from .langkit import entropy_estimates``) and
module-attribute calls (``langkit.count_language``) are both seen. A span is
``(name, tag, start, end, parent, op)``; spans stay in memory until the
repetition ends. A function missing from the program is skipped and listed
in ``missing``; its time then shows up in ``untraced_s``.
"""

from __future__ import annotations

import functools
import math
import sys
import time

PACKAGE = "shiftlab"


def _family(args, kwargs):
    return getattr(args[0], "family", "other") if args else "other"


def _strategy(args, kwargs):
    s = kwargs.get("strategy", args[2] if len(args) > 2 else None)
    return s or "auto"


def _lambdas_rows(tr, args, kwargs, result):
    tr.count("langkit.lambdas", len(result.rows))


def _lambdas_single(tr, args, kwargs, result):
    if "langkit.entropy_estimates" not in tr.open_names:
        tr.count("langkit.lambdas", 1)


def _symbols(tr, args, kwargs, result):
    tr.count("langkit.symbols_fed", len(args[1]))


def _digits(tr, args, kwargs, result):
    tr.count("beta.digits_requested", args[1])


def _horizon(tr, args, kwargs, result):
    if not getattr(result, "exact", False):
        tr.count("sets.positions_scanned", kwargs.get("H", args[1] if len(args) > 1 else 0))


def _cycle(tr, args, kwargs, result):
    x, y = args[0], args[1]
    if hasattr(x, "period") and hasattr(y, "period"):
        tr.count("chaos.cycle_positions", math.lcm(len(x.period), len(y.period)))


# (module, function, tag of a call or None, work counter or None)
TARGETS = (
    ("cli", "main", None, None),
    ("langkit", "parse_shift_spec", None, None),
    ("langkit", "count_language", _family, _lambdas_single),
    ("langkit", "entropy_estimates", None, _lambdas_rows),
    ("langkit", "contains_word", None, _symbols),
    ("langkit", "mixing_probe", None, None),
    ("langkit", "hereditary_check", None, None),
    ("langkit", "max_symbol_count", None, None),
    ("langkit", "max_density_word", None, None),
    ("spacing", "count_spacing", _strategy, None),
    ("beta", "count_beta_language", None, None),
    ("beta", "beta_digits", None, _digits),
    ("beta", "parry_check", None, None),
    ("sets", "parse_set_expr", None, None),
    ("sets", "upper_density", None, _horizon),
    ("sets", "upper_banach_density", None, _horizon),
    ("sets", "classify", None, _horizon),
    ("chaos", "build_scrambled_family", None, None),
    ("chaos", "family_pair_profile", None, None),
    ("chaos", "family_pair_frequencies", None, None),
    ("chaos", "distribution_profile", None, _cycle),
    ("chaos", "classify_pair", None, None),
    ("core", "parse_point", None, None),
)
MODULES = ("cli", "langkit", "spacing", "beta", "sets", "chaos", "core")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = -1
        self.missing = []
        self._stack = []
        self.open_names = []

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name, fn, tagger, counter):
        spans, stack, names = self.spans, self._stack, self.open_names
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            names.append(name)
            tag = tagger(args, kwargs) if tagger else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                names.pop()
                spans[idx] = (name, tag, start, end, parent, self.op)
            if counter:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        mods = [m for key, m in list(sys.modules.items())
                if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod_name, fn_name, tagger, counter in TARGETS:
            home = sys.modules.get("%s.%s" % (PACKAGE, mod_name))
            fn = getattr(home, fn_name, None)
            if fn is None:
                self.missing.append("%s.%s" % (mod_name, fn_name))
                continue
            wrapper = self._wrap("%s.%s" % (mod_name, fn_name), fn, tagger, counter)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)


def aggregate(spans, counts, wall_s):
    """Per-layer metrics of one traced repetition: self time is a span's
    duration minus its children's; `.s` sums the outermost span of each
    name (recursive calls are not counted twice)."""
    child = [0.0] * len(spans)
    for name, tag, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    self_by = {}
    incl_by = {}
    calls = {}
    for i, (name, tag, start, end, parent, op) in enumerate(spans):
        self_t = end - start - child[i]
        for key in (name, "%s.%s" % (name, tag)) if tag else (name,):
            self_by[key] = self_by.get(key, 0.0) + self_t
        mod = name.split(".")[0]
        self_by[mod] = self_by.get(mod, 0.0) + self_t
        calls[name] = calls.get(name, 0) + 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][4]
        if p < 0:
            for key in (name, "%s.%s" % (name, tag)) if tag else (name,):
                incl_by[key] = incl_by.get(key, 0.0) + end - start

    def s(key):
        return incl_by.get(key, 0.0)

    def st(key):
        return self_by.get(key, 0.0)

    count_calls = calls.get("langkit.count_language", 0)
    m = {
        "cli.main.calls": calls.get("cli.main", 0),
        "cli.self_s": st("cli"),
        "langkit.count_language.calls": count_calls,
        "langkit.entropy_estimates.self_s": st("langkit.entropy_estimates"),
        "langkit.parse_shift_spec.s": s("langkit.parse_shift_spec"),
        "langkit.lambdas": counts.get("langkit.lambdas", 0),
        "langkit.lambdas_per_count_call":
            counts.get("langkit.lambdas", 0) / count_calls if count_calls else 0.0,
        "langkit.contains_word.calls": calls.get("langkit.contains_word", 0),
        "langkit.contains_word.s": s("langkit.contains_word"),
        "langkit.symbols_fed": counts.get("langkit.symbols_fed", 0),
        "spacing.count_spacing.calls": calls.get("spacing.count_spacing", 0),
        "beta.count_beta_language.calls": calls.get("beta.count_beta_language", 0),
        "beta.count_beta_language.s": s("beta.count_beta_language"),
        "beta.beta_digits.s": s("beta.beta_digits"),
        "beta.digits_requested": counts.get("beta.digits_requested", 0),
        "beta.parry_check.s": s("beta.parry_check"),
        "sets.positions_scanned": counts.get("sets.positions_scanned", 0),
        "chaos.cycle_positions": counts.get("chaos.cycle_positions", 0),
        "core.parse_point.s": s("core.parse_point"),
    }
    for fam in ("full", "forbidden", "spacing", "beta", "counting"):
        m["langkit.count_language.self_s." + fam] = st("langkit.count_language." + fam)
    for strat in ("windowed_dp", "branch_and_bound"):
        m["spacing.count_spacing.s." + strat] = s("spacing.count_spacing." + strat)
    for fn in ("mixing_probe", "hereditary_check", "max_symbol_count", "max_density_word"):
        m["langkit.%s.s" % fn] = s("langkit." + fn)
    for fn in ("parse_set_expr", "upper_density", "upper_banach_density", "classify"):
        m["sets.%s.s" % fn] = s("sets." + fn)
    for fn in ("build_scrambled_family", "family_pair_profile", "family_pair_frequencies",
               "distribution_profile", "classify_pair"):
        m["chaos.%s.s" % fn] = s("chaos." + fn)
    for mod in MODULES[1:]:
        m[mod + ".self_s"] = st(mod)
    m["untraced_s"] = wall_s - sum(st(mod) for mod in MODULES)
    return m
