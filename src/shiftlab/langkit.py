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
Such a family hands over its ``transition(state, a) -> (ok, next_state)``
instead of a step, and every (state, symbol) row is memoised in one
transition table that the step and the counting DPs all read. The full
shift (one state), forbidden-word shifts (the last max_len-1 symbols), beta
shifts (the length of the current match with a digit prefix) and spacing
shifts with N \\ P finite and small (the relative 1-mask cut to the largest
excluded difference) are built this way, so a step is one table lookup.
Spacing shifts with any other P keep the uncut relative 1-mask; only the
counting shift and custom specs keep the prefix itself (1-positions or
symbols) as their state.

Counting engines, named by ``spec.engine`` after what the spec provides:

* ``automaton_dp`` - a transition table: layered DPs over its states, in
  (+, x) for lambda_k and in (max, +) with edge weight [a == alpha] for the
  maximal symbol count D_k (the walk counts of Lind & Marcus, ch. 4);
* ``branch_and_bound`` - position_next without a table: a pruned search over
  1-position subsets (spacing shifts with any other P, the counting shift);
* ``dfs`` - neither: a walk over enumerate_language (custom specs).

``brute_force`` tests all n**k words independently and is the oracle every
engine is checked against.

Every engine but dfs is resumable. The lambda_1, lambda_2, ... column and
the engine's working state (a DP layer, say) are cached on the spec object a
parse builds, so ``count_language(spec, k)`` returns a cached lambda_k or
advances the saved state from its last length to k: a K-row entropy table
costs one counting pass, in any order of k. The D_k columns of the (max, +)
DP are kept the same way. The position searches use that the binary
families they serve are hereditary and shift-invariant, so 0w is in L_k
exactly when w is in L_(k-1), and

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
DEFAULT_NODE_CAP = 2_000_000


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


class SubshiftSpec:
    """Immutable description of a subshift plus its counting machinery.

    The acceptor is either ``transition(state, a)`` over canonical states,
    which is memoised in a transition table, or ``step(state, prefix_len, a)``.
    ``position_next`` (optional, binary hereditary families only) yields the
    admissible next 1-positions given the chosen 1-positions so far; it backs
    the branch-and-bound counting and maximum-weight searches, and
    ``position_count(k, node_cap)`` may stand in for the generic position
    count with a faster one of the same sets. ``engine`` names the counting
    engine these select (see the module docstring).
    """

    def __init__(self, n, family, label, start_state, step=None, transition=None,
                 position_next=None, position_count=None, ones_exact=None, params=None):
        self.alphabet = Alphabet(n)
        self.n = n
        self.family = family
        self.label = label
        self._start_state = start_state
        self._table = None
        if transition is not None:
            table = self._table = _TransitionTable(n, transition)

            def step(state, i, a):
                return table[state][a]

            self.engine = "automaton_dp"
        elif position_next is not None:
            self.engine = "branch_and_bound"
        else:
            self.engine = "dfs"
        self._step = step
        self._position_next = position_next
        self._position_count = position_count
        self._ones_exact = ones_exact
        self.params = dict(params or {})
        self._column = []   # lambda column of the generic position count
        self._dps = {}      # alpha (None for lambda) -> StateDP on the table
        self._d_cache = {}  # D_k and witnesses of the position searches

    def _dp(self, alpha=None):
        dp = self._dps.get(alpha)
        if dp is None:
            dp = self._dps[alpha] = StateDP(self._table, self._start_state, alpha)
        return dp

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


def _walk_language(spec, k, node_cap):
    """enumerate_language(spec, k), raising ResourceCapExceeded once more than
    node_cap words have been walked."""
    for i, w in enumerate(enumerate_language(spec, k), 1):
        if i > node_cap:
            raise ResourceCapExceeded("walk over L_%d exceeded %d words" % (k, node_cap))
        yield w


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
    """A resumable layered DP over a transition table, kept between calls as
    its last layer and its column. With alpha None it runs in (+, x): the
    layer maps each state to the number of words that reach it, and
    column[j-1] = lambda_j. With a symbol alpha it runs in (max, +) with edge
    weight [a == alpha]: the layer maps each state to the most alphas on a
    word that reaches it, and column[j-1] = D_j(alpha)."""

    def __init__(self, table, start, alpha=None):
        self.column = []
        self._table = table
        self._alpha = alpha
        self._layer = {start: 1 if alpha is None else 0}

    def value(self, k):
        return extend_column(self.column, k, self._advance)

    def _advance(self, j):
        table, alpha, nxt = self._table, self._alpha, {}
        if alpha is None:
            for state, cnt in self._layer.items():
                for ok, st in table[state]:
                    if ok:
                        nxt[st] = nxt.get(st, 0) + cnt
            self._layer = nxt
            return sum(nxt.values())
        for state, best in self._layer.items():
            for a, (ok, st) in enumerate(table[state]):
                if ok:
                    got = best + (a == alpha)
                    if got > nxt.get(st, -1):
                        nxt[st] = got
        self._layer = nxt
        return max(nxt.values())


def _count_positions(spec, k, node_cap):
    """lambda_k of a binary hereditary family from its position_next, by an
    explicit-stack walk over the 1-position sets through position 1 (see the
    module docstring). node_cap bounds the nodes this call expands."""
    pos_next = spec._position_next
    nodes = 0

    def with_one(j):
        nonlocal nodes
        chosen, pending, total = [1], [iter(pos_next([1], 2, j))], 1
        while pending:
            for q in pending[-1]:
                nodes += 1
                if nodes > node_cap:
                    raise ResourceCapExceeded("position count exceeded %d nodes" % node_cap)
                total += 1
                chosen.append(q)
                pending.append(iter(pos_next(chosen, q + 1, j)))
                break
            else:
                pending.pop()
                chosen.pop()
        return total

    return hereditary_column(spec._column, k, with_one)


def count_language(spec, k, strategy=None, node_cap=DEFAULT_NODE_CAP):
    """Exact lambda_k = #L_k(X); independent of the chosen strategy, which is
    None (the spec's own engine), ``brute_force`` or ``spec.engine``.
    node_cap bounds the nodes one call of a branch-and-bound engine expands
    and the words one dfs call walks; the automaton DP, whose layers are
    bounded by its state count, ignores it."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if strategy not in (None, "brute_force", spec.engine):
        raise PreconditionError(
            "unknown counting strategy %r for %s (use %r or 'brute_force')"
            % (strategy, spec.label, spec.engine))
    if strategy == "brute_force":
        if spec.n ** k > BRUTE_FORCE_CAP:
            raise ResourceCapExceeded("brute force over %d**%d words" % (spec.n, k))
        total = 0
        for syms in itertools.product(range(spec.n), repeat=k):
            if spec.accepts(syms):
                total += 1
        return total
    if spec.engine == "automaton_dp":
        return spec._dp().value(k)
    if spec.engine == "branch_and_bound":
        if spec._position_count is not None:
            return spec._position_count(k, node_cap)
        return _count_positions(spec, k, node_cap)
    return sum(1 for _ in _walk_language(spec, k, node_cap))


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
    strategy = strategy or spec.engine
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
    Subadditive in k. Binary position families search 1-position sets (and
    record a witness); a transition table runs the resumable (max, +) DP; a
    custom spec walks L_k under node_cap."""
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
    if spec._table is not None:
        return spec._dp(alpha).value(k)
    return max(w.count(alpha) for w in _walk_language(spec, k, node_cap))


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
    def transition(state, a):
        return True, state

    return SubshiftSpec(
        n=n, family="full", label="full:n=%d" % n,
        start_state=None, transition=transition, params={"n": n})


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
        position_next=pos_next, ones_exact=ones_exact, params={})


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

    label = "forbidden:{%s}" % ",".join(str(f) for f in forb)
    spec = SubshiftSpec(
        n=n, family="forbidden", label=label,
        start_state=(), transition=transition,
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
        start_state=(), step=step, params={})
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
