"""The subshift engine: membership, language counting, entropy bounds,
maximal symbol density and finite-horizon probes.

A subshift is described by an incremental acceptor: a start state plus a
``step(state, prefix_len, symbol) -> (ok, state)`` transition. Words are fed
symbol by symbol, which keeps depth-first enumeration output-sensitive (a
prefix is extended only while it stays in the language; predicates are
monotone under subwords by the factorial contract).

Acceptor states are canonical and free of absolute positions wherever the
family allows it: two prefixes that leave the same constraints on every
continuation reach equal states, and the step does not read prefix_len.
Spacing shifts keep the relative 1-mask (bit d-1 set when a 1 sits d places
back, cut to the largest excluded difference when N \\ P is finite), beta
shifts the length of the current match with a digit prefix, and
forbidden-word shifts the last max_len-1 symbols, with every (state, symbol)
transition memoised in a table the counting DP reads too. A step then costs
O(1) Python work. Only the counting shift and custom specs keep the prefix
itself (1-positions or symbols) as their state.

Counting strategies:

* ``brute_force`` - test all n**k words independently (the oracle);
* ``windowed_dp`` - bounded-window dynamic programs (full shift, spacing
  shifts whose excluded-difference set is finite);
* ``automaton_dp`` - layered state dynamic program over a canonical acceptor
  state (beta shifts: match length; forbidden-word shifts: the last
  max_len-1 symbols);
* ``branch_and_bound`` - pruned search over 1-position subsets (general
  spacing shifts, the counting shift);
* ``dfs`` - depth-first search over the acceptor's prefixes (custom specs).

Every engine but brute force and dfs is resumable. The lambda_1, lambda_2, ...
column and the engine's working state (a DP layer, say) are cached on the
spec object a parse builds, so ``count_language(spec, k)`` returns a cached
lambda_k or advances the saved state from its last length to k: a K-row
entropy table costs one counting pass, in any order of k. The position
searches use that the binary families they serve are hereditary and
shift-invariant, so 0w is in L_k exactly when w is in L_(k-1), and

    lambda_k = lambda_(k-1) + #{w in L_k : w_1 = 1},

where the second term counts the admissible 1-position sets through
position 1. Nothing is cached at module level: two separate runs do the
same work.

Entropy values h_k = log2(lambda_k)/k are reported as upper bounds only:
h(X) is the infimum of the sequence, so no extrapolation is ever sound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Alphabet, Word, word
from .errors import (
    AlphabetMismatch,
    PreconditionError,
    ResourceCapExceeded,
    SearchFailure,
    SpecParseError,
    SpecValidationError,
)

BRUTE_FORCE_CAP = 1 << 22
DEFAULT_NODE_CAP = 20_000_000


def log2_int(x):
    """log2 of a positive arbitrary-size integer, via exponent extraction."""
    if x <= 0:
        raise ValueError("log2_int needs a positive integer")
    b = x.bit_length()
    if b <= 53:
        return math.log2(x)
    return (b - 53) + math.log2(x >> (b - 53))


def binary_entropy(eps):
    """H(eps) = -eps*log2(eps) - (1-eps)*log2(1-eps), with H(0)=H(1)=0."""
    eps = float(eps)
    if eps <= 0.0 or eps >= 1.0:
        return 0.0
    return -eps * math.log2(eps) - (1.0 - eps) * math.log2(1.0 - eps)


class SubshiftSpec:
    """Immutable description of a subshift plus its counting machinery.

    ``position_next`` (optional, binary hereditary families only) yields the
    admissible next 1-positions given the chosen 1-positions so far; it backs
    the branch-and-bound counting and maximum-weight searches.
    """

    def __init__(self, n, family, label, start_state, step, counting_strategy,
                 counter=None, position_next=None, ones_exact=None, params=None):
        self.alphabet = Alphabet(n)
        self.n = n
        self.family = family
        self.label = label
        self._start_state = start_state
        self._step = step
        self.counting_strategy = counting_strategy
        self._counter = counter
        self._position_next = position_next
        self._ones_exact = ones_exact
        self.params = dict(params or {})
        self._d_cache = {}

    def __repr__(self):
        return "SubshiftSpec(%s)" % self.label

    def accepts(self, symbols):
        state, step, n = self._start_state, self._step, self.n
        for i, a in enumerate(symbols):
            if not (0 <= a < n):
                return False
            ok, state = step(state, i, a)
            if not ok:
                return False
        return True


# ASCII digit byte -> symbol value
_DIGIT_BYTES = bytes.maketrans(b"0123456789", bytes(range(10)))


def contains_word(spec, w):
    """Membership of a finite word in the language L(X)."""
    if isinstance(w, Word):
        if w.alphabet != spec.alphabet:
            raise AlphabetMismatch("word over %r, spec over %r" % (w.alphabet, spec.alphabet))
        syms = w.symbols
    elif isinstance(w, str):
        if w.isascii() and w.isdigit():
            syms = tuple(w.encode().translate(_DIGIT_BYTES))
        else:
            # non-ASCII digits parse too; any other character raises
            syms = tuple(int(c) for c in w)
    else:
        syms = tuple(w)
    return spec.accepts(syms)


def enumerate_language(spec, k):
    """Yield all language words of length k as symbol tuples (lexicographic).

    An explicit-stack depth-first search: words come out one at a time, the
    working memory is O(k), and k is not bounded by the recursion limit."""
    if k < 0:
        raise PreconditionError("k must be >= 0")
    if k == 0:
        yield ()
        return
    step, symbols, last = spec._step, range(spec.n), k - 1
    if last == 0:
        yield from ((a,) for a in symbols if step(spec._start_state, 0, a)[0])
        return
    # the prefix, its acceptor states, and the symbols left to try at each
    # depth below the last; the last symbol is tried in a flat loop, since
    # most nodes are leaves
    prefix, states, pending = [], [spec._start_state], [iter(symbols)]
    while pending:
        i = len(prefix)
        for a in pending[-1]:
            ok, st = step(states[-1], i, a)
            if not ok:
                continue
            if i + 1 < last:
                prefix.append(a)
                states.append(st)
                pending.append(iter(symbols))
                break
            head = tuple(prefix) + (a,)
            for b in symbols:
                if step(st, last, b)[0]:
                    yield head + (b,)
        else:
            pending.pop()
            states.pop()
            if prefix:
                prefix.pop()


def _count_dfs(spec, k):
    n = spec.n

    def rec(i, state):
        if i == k:
            return 1
        total = 0
        for a in range(n):
            ok, st = spec._step(state, i, a)
            if ok:
                total += rec(i + 1, st)
        return total

    return rec(0, spec._start_state)


def extend_column(column, k, next_lambda):
    """lambda_k from a cached column (column[j-1] = lambda_j), first appending
    next_lambda(j) for every missing j <= k in ascending order. A value is
    appended only after next_lambda returns, so a call that raises (a node
    cap, say) leaves every cached value valid."""
    while len(column) < k:
        column.append(next_lambda(len(column) + 1))
    return column[k - 1]


def hereditary_column(column, k, with_one):
    """lambda_k of a hereditary, shift-invariant binary family, where
    with_one(j) counts the admissible 1-position sets B in [1, j] with 1 in B:
    lambda_j = lambda_(j-1) + with_one(j), lambda_0 = 1."""
    return extend_column(
        column, k, lambda j: (column[-1] if column else 1) + with_one(j))


class StateDP:
    """A resumable layered {state: count} DP. ``successors(state)`` yields
    ``(next_state, multiplicity)`` pairs and lambda_j is the total count after
    j layers; the last layer and the lambda column are kept between calls."""

    def __init__(self, start, successors):
        self.column = []
        self._layer = {start: 1}
        self._successors = successors

    def count(self, k):
        return extend_column(self.column, k, self._advance)

    def _advance(self, j):
        nxt = {}
        for state, cnt in self._layer.items():
            for st, mult in self._successors(state):
                nxt[st] = nxt.get(st, 0) + cnt * mult
        self._layer = nxt
        return sum(nxt.values())


def count_language(spec, k, strategy=None, node_cap=DEFAULT_NODE_CAP):
    """Exact lambda_k = #L_k(X); independent of the chosen strategy, which is
    None (the spec's own), ``brute_force`` or ``spec.counting_strategy``.
    node_cap bounds the nodes one call of a branch-and-bound engine expands;
    the state DPs, whose layers are bounded by their state count, ignore it."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if strategy not in (None, "brute_force", spec.counting_strategy):
        raise PreconditionError(
            "unknown counting strategy %r for %s (use %r or 'brute_force')"
            % (strategy, spec.label, spec.counting_strategy))
    strategy = strategy or spec.counting_strategy
    if strategy == "brute_force":
        if spec.n ** k > BRUTE_FORCE_CAP:
            raise ResourceCapExceeded("brute force over %d**%d words" % (spec.n, k))
        total = 0
        for syms in itertools.product(range(spec.n), repeat=k):
            if spec.accepts(syms):
                total += 1
        return total
    if spec._counter is not None:
        return spec._counter(k, node_cap)
    return _count_dfs(spec, k)


@dataclass(frozen=True)
class EntropyRow:
    k: int
    lam: int
    h_k: float
    increment: float
    inf_so_far: float

    def to_json(self):
        return {
            "k": self.k,
            "lambda": str(self.lam),
            "h_k": self.h_k,
            "increment": self.increment,
            "inf_so_far": self.inf_so_far,
        }


@dataclass(frozen=True)
class EntropyReport:
    rows: tuple
    strategy: str

    @property
    def inf_so_far(self):
        return self.rows[-1].inf_so_far

    def to_json(self):
        return {"strategy": self.strategy, "rows": [r.to_json() for r in self.rows]}


def entropy_estimates(spec, k_max, strategy=None, ks=None, node_cap=DEFAULT_NODE_CAP):
    """Rows (k, lambda_k, h_k) for k = 1..k_max; every h_k is an upper bound for
    h(X) since h is the infimum. The increment column log2(lambda_k/lambda_{k-1})
    is advisory only. node_cap goes to every count_language call; when it
    trips, the ResourceCapExceeded carries the rows built so far as
    ``partial`` (an EntropyReport)."""
    if k_max < 1:
        raise PreconditionError("k_max must be >= 1")
    strategy = strategy or spec.counting_strategy
    ks = list(ks) if ks is not None else list(range(1, k_max + 1))
    rows = []
    inf_so_far = math.inf
    prev = None
    for k in ks:
        try:
            lam = count_language(spec, k, strategy=strategy, node_cap=node_cap)
        except ResourceCapExceeded as e:
            # each row already built is an upper bound on its own
            e.partial = EntropyReport(rows=tuple(rows), strategy=strategy)
            raise
        h_k = log2_int(lam) / k
        inc = log2_int(lam) - log2_int(prev) if prev is not None else h_k
        inf_so_far = min(inf_so_far, h_k)
        rows.append(EntropyRow(k=k, lam=lam, h_k=h_k, increment=inc, inf_so_far=inf_so_far))
        prev = lam
    return EntropyReport(rows=tuple(rows), strategy=strategy)


# -- maximal symbol density ------------------------------------------------------

def _max_ones_by_positions(spec, k, node_cap):
    """Max number of 1s over L_k via branch and bound on 1-position subsets.
    Uses previously computed D-values as suffix bounds; deterministic ascending
    order. Requires spec.position_next."""
    pos_next = spec._position_next
    d = spec._d_cache

    def ub(rem):
        if rem <= 0:
            return 0
        got = d.get(("D", 1, rem))
        return got if got is not None else rem

    best = 0
    best_set = ()
    nodes = 0

    def rec(chosen, start):
        nonlocal best, best_set, nodes
        if len(chosen) > best:
            best = len(chosen)
            best_set = tuple(chosen)
        for q in pos_next(chosen, start, k):
            nodes += 1
            if nodes > node_cap:
                raise ResourceCapExceeded("max-ones search exceeded %d nodes" % node_cap)
            if len(chosen) + 1 + ub(k - q) <= best:
                break  # later q only shrinks the suffix bound
            chosen.append(q)
            rec(chosen, q + 1)
            chosen.pop()

    rec([], 1)
    return best, best_set


def max_symbol_count(spec, alpha, k, node_cap=DEFAULT_NODE_CAP):
    """D_k(X, alpha): the maximal number of occurrences of alpha over L_k(X).
    Subadditive in k."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if alpha == 0 or not (0 < alpha < spec.n):
        raise PreconditionError("alpha must be a nonzero symbol")
    key = ("D", alpha, k)
    if key in spec._d_cache:
        return spec._d_cache[key]
    if spec._ones_exact is not None and alpha == 1 and spec.n == 2:
        # family-supplied closed form; the witness is verified by membership,
        # the upper bound is the family's analytic argument
        val, wit = spec._ones_exact(k)
        syms = [0] * k
        for p in wit:
            syms[p - 1] = 1
        if len(wit) != val or not spec.accepts(tuple(syms)):
            raise SpecValidationError(
                "ones_exact witness invalid for %s at k=%d" % (spec.label, k))
        spec._d_cache[key] = val
        spec._d_cache[("Dwit", 1, k)] = tuple(wit)
        return val
    if spec._position_next is not None and alpha == 1 and spec.n == 2:
        # fill the table bottom-up so suffix bounds are available
        for kk in range(1, k + 1):
            kk_key = ("D", 1, kk)
            if kk_key not in spec._d_cache:
                val, wit = _max_ones_by_positions(spec, kk, node_cap)
                spec._d_cache[kk_key] = val
                spec._d_cache[("Dwit", 1, kk)] = wit
        return spec._d_cache[key]
    # generic search over language words
    best = 0
    nodes = 0
    n = spec.n
    order = [alpha] + [a for a in range(n) if a != alpha]

    def rec(i, state, cnt):
        nonlocal best, nodes
        if cnt > best:
            best = cnt
        if i == k or cnt + (k - i) <= best:
            return
        for a in order:
            nodes += 1
            if nodes > node_cap:
                raise ResourceCapExceeded("max-symbol search exceeded %d nodes" % node_cap)
            ok, st = spec._step(state, i, a)
            if ok:
                rec(i + 1, st, cnt + (1 if a == alpha else 0))

    rec(0, spec._start_state, 0)
    spec._d_cache[key] = best
    return best


def max_symbol_witness(spec, alpha, k, node_cap=DEFAULT_NODE_CAP):
    """A word realizing D_k (as a Word), when the position search is available."""
    max_symbol_count(spec, alpha, k, node_cap=node_cap)
    wit = spec._d_cache.get(("Dwit", alpha, k))
    if wit is None:
        raise PreconditionError("witness only tracked for binary position families")
    syms = [0] * k
    for p in wit:
        syms[p - 1] = 1
    return Word(spec.alphabet, tuple(syms))


def maximal_density_estimate(spec, alpha, k_max, ks=None, node_cap=DEFAULT_NODE_CAP):
    """Upper bounds D_k/k for the maximal density of alpha in X (the infimum of
    the sequence). Returns a list of (k, D_k, Fraction(D_k, k))."""
    if alpha == 0:
        raise PreconditionError("alpha must be nonzero")
    ks = list(ks) if ks is not None else list(range(1, k_max + 1))
    out = []
    for k in ks:
        d = max_symbol_count(spec, alpha, k, node_cap=node_cap)
        out.append((k, d, Fraction(d, k)))
    return out


def max_density_word(spec, alpha, k, k_ref=None, require_target=True,
                     node_cap=DEFAULT_NODE_CAP):
    """A length-k language word whose every prefix has alpha-frequency at least
    D_{k_ref}/k_ref - 1/k (the constructive step behind the max-density point).

    Search: branch and bound maximizing the minimum prefix frequency, ties
    broken by lexicographically least word. With require_target=False the
    target check is skipped and the best word found is returned (used by
    difference-set witnesses, where the density target of the underlying
    theorem is the true maximal density, not its finite upper bound)."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    target = None
    if require_target:
        k_ref = k if k_ref is None else k_ref
        d_ref = max_symbol_count(spec, alpha, k_ref, node_cap=node_cap)
        target = Fraction(d_ref, k_ref) - Fraction(1, k)
    n = spec.n
    nodes = 0

    def search(sym_order, floor_value, stop_at_first):
        nonlocal nodes
        best_val = None
        best_word = None

        def rec(prefix, state, cnt, cur_min):
            nonlocal best_val, best_word, nodes
            if best_word is not None and stop_at_first:
                return
            if len(prefix) == k:
                if best_val is None or cur_min > best_val:
                    best_val = cur_min
                    best_word = tuple(prefix)
                return
            i = len(prefix)
            for a in sym_order:
                nodes += 1
                if nodes > node_cap:
                    raise ResourceCapExceeded("max_density_word exceeded %d nodes" % node_cap)
                ok, st = spec._step(state, i, a)
                if not ok:
                    continue
                c = cnt + (1 if a == alpha else 0)
                m = min(cur_min, Fraction(c, i + 1))
                if floor_value is not None and m < floor_value:
                    continue
                if best_val is not None and m <= best_val and not stop_at_first:
                    continue
                prefix.append(a)
                rec(prefix, st, c, m)
                prefix.pop()

        rec([], spec._start_state, 0, Fraction(k + 1))  # min over empty prefix set: +inf surrogate
        return best_val, best_word

    desc = sorted(range(n), reverse=True)
    best_val, best_word = search(desc, target, stop_at_first=False)
    if best_word is None:
        raise SearchFailure(
            "no length-%d word meets the prefix-density target %s" % (k, target))
    # second pass: lexicographically least among the maximizers
    asc = sorted(range(n))
    _, lex_word = search(asc, best_val, stop_at_first=True)
    return Word(spec.alphabet, lex_word), best_val


# -- heredity ----------------------------------------------------------------------

def hereditary_check(spec, k):
    """Exhaustively checks closure of L_k(X) under coordinate-wise lowering.
    Returns (True, None) or (False, (word, lowered_word)). Closure under
    single-symbol decrements implies full coordinate-wise closure."""
    for syms in enumerate_language(spec, k):
        for i, s in enumerate(syms):
            if s > 0:
                lowered = syms[:i] + (s - 1,) + syms[i + 1:]
                if not spec.accepts(lowered):
                    return False, (Word(spec.alphabet, syms), Word(spec.alphabet, lowered))
    return True, None


def heredity_entropy_bound(spec, w):
    """Lower entropy evidence from one dense word: for hereditary X and
    w in L_k(X), 2**(#nonzero positions) <= lambda_k, so the returned value
    (#nonzero)/|w| is a lower bound for log2(lambda_k)/k."""
    if not contains_word(spec, w):
        raise PreconditionError("word %s is not in the language" % (w,))
    w = word(w, spec.n) if not isinstance(w, Word) else w
    return Fraction(w.weight(), len(w))


def mixing_probe(spec, u, v, m_max):
    """Smallest gap g such that u 0^m v is in L(X) for all g <= m <= m_max,
    or None when the scan gives no such tail (finite-horizon evidence only)."""
    u = word(u, spec.n) if not isinstance(u, Word) else u
    v = word(v, spec.n) if not isinstance(v, Word) else v
    if not contains_word(spec, u):
        raise PreconditionError("u not in the language")
    if not contains_word(spec, v):
        raise PreconditionError("v not in the language")
    ok = []
    for m in range(m_max + 1):
        syms = u.symbols + (0,) * m + v.symbols
        ok.append(spec.accepts(syms))
    if not ok[-1]:
        return None
    g = m_max
    while g > 0 and ok[g - 1]:
        g -= 1
    return g


# -- built-in families ---------------------------------------------------------------

def full_shift(n=2):
    def step(state, i, a):
        return True, state

    def counter(k, node_cap):
        return n ** k

    def pos_next(chosen, start, k):
        return range(start, k + 1)

    return SubshiftSpec(
        n=n, family="full", label="full:n=%d" % n,
        start_state=None, step=step,
        counting_strategy="windowed_dp", counter=counter,
        position_next=pos_next if n == 2 else None,
        params={"n": n})


def _counting_cap(length):
    """Max number of 1s allowed in a window of the given length: the whole word
    of length L in (2**(j-1), 2**j] may contain at most j ones."""
    if length <= 1:
        return 1
    return (length - 1).bit_length()


def _counting_min_span(count):
    """Smallest window length whose cap admits `count` ones."""
    if count <= 1:
        return 1
    return (1 << (count - 1)) + 1


def counting_shift():
    """The zero-entropy mixing hereditary shift: a word is admissible iff every
    subword of length in (2**(j-1), 2**j] carries at most j ones."""

    def pos_ok(chosen, q):
        m = len(chosen)
        for i in range(m):
            if q - chosen[i] + 1 < _counting_min_span(m - i + 1):
                return False
        return True

    def step(state, i, a):
        # state: tuple of 1-based 1-positions so far
        if a == 0:
            return True, state
        q = i + 1
        if not pos_ok(state, q):
            return False, state
        return True, state + (q,)

    def pos_next(chosen, start, k):
        q_min = start
        m = len(chosen)
        for i in range(m):
            q_min = max(q_min, chosen[i] + _counting_min_span(m - i + 1) - 1)
        return range(q_min, k + 1)

    column = []

    def counter(k, node_cap):
        nodes = 0

        def rec(chosen, start, j):
            nonlocal nodes
            total = 1
            for q in pos_next(chosen, start, j):
                nodes += 1
                if nodes > node_cap:
                    raise ResourceCapExceeded("counting-shift count exceeded %d nodes"
                                              % node_cap)
                chosen.append(q)
                total += rec(chosen, q + 1, j)
                chosen.pop()
            return total

        return hereditary_column(column, k, lambda j: rec([1], 2, j))

    def ones_exact(k):
        # the window covering the whole word already forces <= cap(k) ones,
        # and the chain 1, 3, 5, 9, ..., 2**(j-1)+1 realizes it: the window
        # from position 1 to 2**(j-1)+1 has length in (2**(j-1), 2**j]
        cap = _counting_cap(k)
        wit = (1,) + tuple((1 << (i - 1)) + 1 for i in range(2, cap + 1))
        return cap, wit

    return SubshiftSpec(
        n=2, family="counting", label="counting",
        start_state=(), step=step,
        counting_strategy="branch_and_bound", counter=counter,
        position_next=pos_next, ones_exact=ones_exact, params={})


class _TransitionTable(dict):
    """state -> the row (ok, next_state) for each symbol a = 0..n-1, computed
    by ``transition(state, a)`` when the state is first looked up."""

    def __init__(self, n, transition):
        super().__init__()
        self._n = n
        self._transition = transition

    def __missing__(self, state):
        row = self[state] = tuple(self._transition(state, a) for a in range(self._n))
        return row


def forbidden_shift(forbidden, n=2, sample_depth=None):
    """Subshift avoiding an explicit finite set of forbidden words. Not
    hereditary in general; validated for right-prolongability by sampling."""
    forb = tuple(word(f, n) if not isinstance(f, Word) else f for f in forbidden)
    if not forb:
        return full_shift(n)
    syms = tuple(f.symbols for f in forb)
    max_len = max(len(s) for s in syms)

    def transition(state, a):
        # state: the last (max_len - 1) symbols
        tail = state + (a,)
        for f in syms:
            if len(f) <= len(tail) and tail[-len(f):] == f:
                return False, state
        return True, tail[-(max_len - 1):] if max_len > 1 else ()

    # at most n**(max_len-1) states, so one step is a lookup after the first
    # visit to a state; the counting DP reads the same rows
    table = _TransitionTable(n, transition)

    def step(state, i, a):
        return table[state][a]

    def successors(state):
        return [(st, 1) for ok, st in table[state] if ok]

    dp = StateDP((), successors)
    label = "forbidden:{%s}" % ",".join(str(f) for f in forb)
    spec = SubshiftSpec(
        n=n, family="forbidden", label=label,
        start_state=(), step=step,
        counting_strategy="automaton_dp", counter=lambda k, node_cap: dp.count(k),
        params={"forbidden": [str(f) for f in forb]})
    _validate_prolongable(spec, sample_depth or max_len + 2)
    return spec


def custom_shift(predicate, n=2, label="custom", sample_depth=6):
    """Subshift from a word predicate; factoriality and right-prolongability are
    sampled up to sample_depth and violations raise SpecValidationError."""

    def step(state, i, a):
        w = state + (a,)
        return bool(predicate(w)), w

    spec = SubshiftSpec(
        n=n, family="custom", label=label,
        start_state=(), step=step,
        counting_strategy="dfs", params={})
    _validate_factorial(spec, predicate, sample_depth)
    _validate_prolongable(spec, sample_depth)
    return spec


def _validate_factorial(spec, predicate, depth):
    for k in range(1, depth + 1):
        for syms in itertools.product(range(spec.n), repeat=k):
            if predicate(syms):
                for i in range(k):
                    for j in range(i + 1, k + 1):
                        if i == 0 and j == k:
                            continue
                        if j > i and not predicate(syms[i:j]):
                            raise SpecValidationError(
                                "predicate not factorial: %r in, %r out" % (syms, syms[i:j]))


def _validate_prolongable(spec, depth):
    for k in range(0, depth):
        words_k = list(enumerate_language(spec, k))
        for syms in words_k:
            if not any(spec.accepts(syms + (a,)) for a in range(spec.n)):
                raise SpecValidationError("language not right-prolongable at %r" % (syms,))
        if k and not words_k:
            raise SpecValidationError("language empty at length %d" % k)


def parse_shift_spec(text):
    """Parse the shift-spec mini-language:
    full:n=2 | spacing:P=<set-expr> | beta:beta=<decimal|quad:...> | counting |
    forbidden:{<word>,<word>,...}
    """
    text = text.strip()
    if text == "counting":
        return counting_shift()
    if text.startswith("full:n="):
        try:
            n = int(text[len("full:n="):])
        except ValueError as e:
            raise SpecParseError("bad alphabet size in %r" % (text,)) from e
        if n < 2:
            raise SpecParseError("alphabet size must be >= 2 in %r" % (text,))
        return full_shift(n)
    if text.startswith("spacing:P="):
        from .sets import parse_set_expr
        from .spacing import PSetSpec, spacing_shift
        return spacing_shift(PSetSpec(parse_set_expr(text[len("spacing:P="):])))
    if text.startswith("beta:beta="):
        from .beta import beta_shift, parse_beta
        return beta_shift(parse_beta(text[len("beta:beta="):]))
    if text.startswith("forbidden:{") and text.endswith("}"):
        body = text[len("forbidden:{"):-1]
        parts = [p.strip() for p in body.split(",") if p.strip()]
        if not parts or not all(all(c.isdigit() for c in p) for p in parts):
            raise SpecParseError("forbidden words must be digit strings: %r" % (text,))
        n = max(2, max(int(c) for p in parts for c in p) + 1)
        return forbidden_shift(parts, n=n)
    raise SpecParseError("unrecognized shift spec %r" % (text,))
