"""The subshift engine: membership, language counting, entropy bounds,
maximal symbol density and finite-horizon probes.

A subshift is described by an incremental acceptor: a start state plus a
``transition(state, a) -> (ok, next_state)``, which is given no position.
Words are fed symbol by symbol, which keeps depth-first enumeration
output-sensitive (a prefix is extended only while it stays in the language,
and a factorial language holds every prefix of its words). States
are canonical wherever the family allows it: two prefixes that leave the
same constraints on every continuation reach equal states. The full shift
(one state), forbidden-word shifts (the Aho-Corasick state: the longest
suffix of the word read that is a proper prefix of a forbidden word), beta
shifts (the length of the current match with a digit prefix) and spacing
shifts with N \\ P finite and small (the relative 1-mask cut to the largest
excluded difference) grow one numbered state graph from their transition
(``_StateGraph``): the step, enumeration and the (max, +) DP read its id
rows, the (+, x) DP its multiplicity rows, so the full shift on n symbols
costs one entry per layer. Spacing shifts with any other P (the relative
1-mask, uncut) and the counting shift (the symbols read, the 1-positions
and the floor of the next 1, taken once when a 1 is accepted, so a refused
1 costs one comparison) run their transition unmemoised as the step.
Another subshift is a ``SubshiftSpec`` built the same way, around a
canonical state.

Membership of a whole word does not go through the step when the family can
test its definition directly. Such a family hands over ``word_test(b)``,
which gets the word as ``bytes`` of symbol values: the full shift accepts
every word, spacing shifts test the word's 1s as one int against the
excluded differences, forbidden-word shifts look for each forbidden word
with ``in``, and the counting shift counts its 1s against the whole-word cap
and walks the few left with ``bytes.find``. Each spec binds one member test
when it is built: the word test, or else (beta shifts, alphabets past 256
symbols) a walk over the id rows. ``accepts`` checks the alphabet with one
``bytes.translate`` and then calls it. ``contains_word`` tests an ASCII
string for digits on its encoded bytes (``bytes.isdigit``, a C table, not
the Unicode tables ``str.isdigit`` reads) and hands ``accepts`` the symbol
bytes one ``translate`` makes of them. ``hereditary_check`` makes each word
of L_k ``bytes`` once and hands each lowering, over the alphabet by
construction, straight to the member test. The step and the graph serve
enumeration and the DPs.

Counting engines, named by ``spec.engine`` after what the spec provides;
each is one DP run in two semirings, one for lambda_k and one for the
maximal symbol count D_k:

* ``automaton_dp`` - a state graph: layered DPs over its ids, in (+, x)
  over the multiplicity rows for lambda_k and in (max, +) over the id rows
  with edge weight [a == alpha] for D_k and its witness, one layer step for
  both (the walk counts of Lind & Marcus, ch. 4);
* ``branch_and_bound`` - ``position_count`` and ``position_max``, which
  come together, for binary families that are hereditary and
  shift-invariant (spacing shifts: keys are candidate masks; the counting
  shift: the floors of its next 1s). A key says what may follow a word's
  last 1 in the places left, and its followers are the keys after each
  admissible next 1. One memoised explicit-stack walk over the keys
  (``_follow``) folds a key's followers two ways: f(key) = 1 + the sum of
  f counts the sets of later 1s, and g(key) = 1 + the max of g counts the
  1s of a densest one. Since 0w is in L_k exactly when w is in L_(k-1),

      lambda_k = lambda_(k-1) + #{w in L_k : w_1 = 1} = lambda_(k-1) + f(root(k))

  with root(k) the key after a 1 at position 1 of a length-k word
  (follower_count); a densest word shifts to start with its first 1, so
  D_k = g(root(k)), and the walk back from the root, taking at each key
  the smallest offset whose follower reaches the max, gives the
  lexicographically first densest 1-set (follower_max). A family with a
  closed form hands it over as its position_max (the counting shift).

``node_cap`` bounds what one call of each engine spends: the states of the
DP layers it builds, the follower lookups of a walk, the n**k words of
brute force. A trip raises ResourceCapExceeded and leaves every cached
column and memo valid.

``brute_force`` tests all n**k words independently and is the oracle every
engine is checked against. It calls the spec's member test once on each
word, in lexicographic order, so for a family with a word test it checks the
engines against the definition, not against the transition they read. When
n <= 256 a word is ``bytes``: a head of k - k//2 symbols joined to a tail of
k//2, both halves made once, and the join runs in C; past 256 symbols it is
a tuple.

Every engine is resumable. The lambda_1, lambda_2, ... column and the
engine's working state (a DP layer, a follower memo) are cached on the spec
object a parse builds, so ``count_language(spec, k)`` returns a cached
lambda_k or advances the saved state from its last length to k: a K-row
entropy table costs one counting pass, in any order of k. D_k is kept the
same way. Nothing is cached at module level: two separate runs do the same
work.

Entropy values h_k = log2(lambda_k)/k are reported as upper bounds only:
h(X) is the infimum of the sequence, so no extrapolation is ever sound.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .core import Alphabet, Record, Word, word
from .errors import (
    AlphabetMismatch,
    PreconditionError,
    ResourceCapExceeded,
    SearchFailure,
    SpecParseError,
    SpecValidationError,
)

# largest alphabet a shift spec may name: a state's id row holds one entry
# per symbol
MAX_ALPHABET = 1 << 16
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


class _StateGraph:
    """The states ``transition`` reaches from ``start``, numbered as they are
    first reached (the start state is id 0). State i is expanded, its n
    transitions computed once, when a pass first reads it; before that
    rows[i], single[i] and multi[i] are None. rows[i] is its id row, the n
    target ids (-1 for a refused symbol). single[i] with multi[i] is its
    multiplicity row: the ids one symbol leads to, and (id, m) for each id
    m >= 2 symbols lead to. single[i] is rows[i] itself when the n targets
    differ, so a binary row costs one tuple; the full shift on n symbols
    has the multiplicity row ((), ((0, n),))."""

    __slots__ = ("n", "ids", "states", "rows", "single", "multi", "_transition")

    def __init__(self, n, start, transition):
        self.n = n
        self.ids = {start: 0}  # state -> id
        self.states = [start]
        self.rows = [None]
        self.single = [None]
        self.multi = [None]
        self._transition = transition

    def expand(self, i):
        """Sets state i's rows from its n transitions; returns the id row."""
        ids, states, row, weight = self.ids, self.states, [], {}
        for a in range(self.n):
            ok, st = self._transition(states[i], a)
            if not ok:
                row.append(-1)
                continue
            j = ids.setdefault(st, len(states))
            if j == len(states):
                states.append(st)
                self.rows.append(None)
                self.single.append(None)
                self.multi.append(None)
            row.append(j)
            weight[j] = weight.get(j, 0) + 1
        row = self.rows[i] = tuple(row)
        self.single[i] = row if len(weight) == self.n else tuple(
            j for j, m in weight.items() if m == 1)
        self.multi[i] = tuple((j, m) for j, m in weight.items() if m > 1)
        return row


class SubshiftSpec:
    """Immutable description of a subshift plus its counting machinery.

    The acceptor is ``transition(state, a) -> (ok, next_state)``. Without
    ``position_count`` it is expanded into a numbered state graph
    (automaton_dp), and the step, enumeration and the DPs see ids, the start
    state as 0. ``position_count(k, node_cap)`` (lambda_k, extending
    ``_column``) and ``position_max(k, node_cap)`` (the 1-positions of a
    word realising D_k) come together, for binary hereditary families; with
    them the transition runs unmemoised as the step (branch_and_bound).
    ``engine`` names the engine these select. ``word_test(b)`` (optional)
    decides membership of a word over the alphabet, given as ``bytes`` of
    symbol values, from the family's definition.

    ``_member`` is the one membership test of a word already over the
    alphabet, chosen here once: the word test when there is one and n <=
    256, else a walk over the graph's id rows, else a walk over the step.
    ``accepts`` checks the alphabet and calls it; brute force calls it on
    the words it generates, and ``hereditary_check`` on the lowered words
    it makes, which are over the alphabet by construction.
    """

    def __init__(self, n, family, label, start_state, transition,
                 position_count=None, position_max=None, word_test=None):
        if (position_count is None) != (position_max is None):
            raise SpecValidationError(
                "%s: position_count and position_max come together" % label)
        self.alphabet = Alphabet(n)
        self.n = n
        self.family = family
        self.label = label
        self._start_state = start_state
        self._graph = None
        self._step = transition
        self._member = self._walk
        self.engine = "branch_and_bound"
        if position_count is None:
            graph = self._graph = _StateGraph(n, start_state, transition)
            rows, expand = graph.rows, graph.expand

            def step(i, a):
                j = (rows[i] or expand(i))[a]
                return j >= 0, j

            def walk_rows(symbols):
                i = 0
                for a in symbols:
                    i = (rows[i] or expand(i))[a]
                    if i < 0:
                        return False
                return True

            self._start_state, self._step, self._member = 0, step, walk_rows
            self.engine = "automaton_dp"
        self._position_count = position_count
        self._position_max = position_max
        self._word_test = word_test
        # the symbol values as bytes: a byte string is over the alphabet
        # exactly when deleting these leaves nothing
        self._symbol_bytes = None
        if n <= 256:
            self._symbol_bytes = bytes(range(n))
            if word_test is not None:
                self._member = word_test
        self._column = []     # lambda column of the position_count entry
        self._memo = {}       # the follower memos behind position_count and
        self._max_memo = {}   # position_max, where the spec keeps them
        self._dps = {}        # alpha (None for lambda) -> StateDP on the graph

    def _dp(self, alpha=None):
        dp = self._dps.get(alpha)
        if dp is None:
            dp = self._dps[alpha] = StateDP(self._graph, alpha)
        return dp

    def __repr__(self):
        return "SubshiftSpec(%s)" % self.label

    def accepts(self, symbols):
        """Membership of a word given as symbol values (ints, or bytes); a
        value outside 0..n-1 answers False."""
        if self._symbol_bytes is None:
            symbols = tuple(symbols)
            if not all(0 <= a < self.n for a in symbols):
                return False
        else:
            if not isinstance(symbols, bytes):
                try:
                    symbols = bytes(symbols)
                except ValueError:  # a value outside 0..255, so outside the alphabet
                    return False
            if symbols.translate(None, self._symbol_bytes):
                return False
        return self._member(symbols)

    def _walk(self, symbols):
        state, step = self._start_state, self._step
        for a in symbols:
            ok, state = step(state, a)
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
        # bytes.isdigit reads a C table; str.isdigit looks each character up
        # in the Unicode tables
        if w.isascii() and (b := w.encode()).isdigit():
            syms = b.translate(_DIGIT_BYTES)
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
        yield from ((a,) for a in symbols if step(spec._start_state, a)[0])
        return
    # the prefix, its acceptor states, and the symbols left to try at each
    # depth below the last; the last symbol is tried in a flat loop, since
    # most nodes are leaves
    prefix, states, pending = [], [spec._start_state], [iter(symbols)]
    while pending:
        i = len(prefix)
        for a in pending[-1]:
            ok, st = step(states[-1], a)
            if not ok:
                continue
            if i + 1 < last:
                prefix.append(a)
                states.append(st)
                pending.append(iter(symbols))
                break
            head = tuple(prefix) + (a,)
            for b in symbols:
                if step(st, b)[0]:
                    yield head + (b,)
        else:
            pending.pop()
            states.pop()
            if prefix:
                prefix.pop()


def extend_column(column, k, next_value):
    """The k-th entry of a cached column (column[j-1] for length j: lambda_j,
    say), first appending next_value(j) for every missing j <= k in
    ascending order. A value is appended only after next_value returns, so a
    call that raises (a node cap, say) leaves every cached value valid."""
    while len(column) < k:
        column.append(next_value(len(column) + 1))
    return column[k - 1]


def _layer(graph, layer, alpha, budget, node_cap, back=None):
    """The DP layer after ``layer`` on a state graph, and its number of
    states. With alpha None it runs in (+, x) over the multiplicity rows, on
    a list of counts indexed by id. With a symbol alpha it runs in (max, +)
    over the id rows with edge weight [a == alpha], on a dict id -> best
    count in the order the ids are first reached, so a tie goes to the
    first; ``back``, when given, maps each id to the (id, symbol) its best
    count came from. A layer of more than ``budget`` states raises
    ResourceCapExceeded."""
    rows, expand, states = graph.rows, graph.expand, graph.states
    if alpha is None:
        single, multi, nxt = graph.single, graph.multi, [0] * len(states)
        for i, cnt in enumerate(layer):
            if cnt:
                if rows[i] is None:
                    expand(i)
                    nxt += [0] * (len(states) - len(nxt))
                for j in single[i]:
                    nxt[j] += cnt
                for j, m in multi[i]:
                    nxt[j] += cnt * m
        reached = len(nxt) - nxt.count(0)
    else:
        nxt = {}
        for i, best in layer.items():
            for a, j in enumerate(rows[i] or expand(i)):
                if j >= 0:
                    got = best + (a == alpha)
                    if got > nxt.get(j, -1):
                        nxt[j] = got
                        if back is not None:
                            back[j] = i, a
        reached = len(nxt)
    if reached > budget:
        raise ResourceCapExceeded("automaton DP exceeded %d states" % node_cap)
    return nxt, reached


class StateDP:
    """A resumable layered DP over a state graph, kept between calls as its
    last layer and its column. With alpha None it runs in (+, x): the layer
    maps each id to the number of words that reach it, and column[j-1] =
    lambda_j. With a symbol alpha it runs in (max, +) with edge weight
    [a == alpha]: the layer maps each id to the most alphas on a word that
    reaches it, and column[j-1] = D_j(alpha)."""

    def __init__(self, graph, alpha=None):
        self.column = []
        self._graph = graph
        self._alpha = alpha
        self._layer = [1] if alpha is None else {0: 0}

    def value(self, k, node_cap=DEFAULT_NODE_CAP):
        """column[k-1]. node_cap bounds the states of the layers this call
        builds; a trip leaves the layer and the column valid."""
        budget = node_cap

        def next_value(j):
            nonlocal budget
            layer, reached = _layer(self._graph, self._layer, self._alpha, budget, node_cap)
            self._layer, budget = layer, budget - reached
            return sum(layer) if self._alpha is None else max(layer.values())

        return extend_column(self.column, k, next_value)


def _follow(memo, key, followers, fold, budget, node_cap):
    """Fills memo[key] = 1 + the fold over followers(key) of memo[child],
    with 0 for a key without followers, by an explicit stack; returns the
    lookups left of budget. followers(key) yields (offset, child): the key
    after a next 1 at that offset past the last, in ascending order. A
    follower has fewer places left than its key, so none is still open. A
    trip leaves every memo entry valid."""
    if key in memo:
        return budget
    # the open key, its followers not yet looked up and its fold so far, and
    # the same for each open ancestor on an explicit stack
    it, acc, stack = followers(key), 0, []
    while True:
        for _, child in it:
            budget -= 1
            if budget < 0:
                raise ResourceCapExceeded("follower walk exceeded %d lookups" % node_cap)
            got = memo.get(child)
            if got is None:
                stack.append((key, it, acc))
                key, it, acc = child, followers(child), 0
                break
            acc = fold(acc, got)
        else:
            got = memo[key] = 1 + acc
            if not stack:
                return budget
            key, it, acc = stack.pop()
            acc = fold(acc, got)


def follower_count(column, memo, k, root, followers, node_cap):
    """lambda_k of a position family, resuming its column: lambda_j =
    lambda_(j-1) + f(root(j)), f the sum fold (see the module docstring),
    memoised in memo for every k. node_cap bounds the follower lookups of
    this call; a trip leaves the column and every memo entry valid."""
    budget = node_cap

    def next_lambda(j):
        nonlocal budget
        key = root(j)
        budget = _follow(memo, key, followers, operator.add, budget, node_cap)
        return (column[-1] if column else 1) + memo[key]

    return extend_column(column, k, next_lambda)


def follower_max(memo, k, root, followers, node_cap):
    """The 1-positions of the lexicographically first word of L_k with D_k
    = g(root(k)) 1s, g the max fold (see the module docstring), memoised in
    memo for every k: from the root, the smallest offset whose follower
    reaches the max, key by key. node_cap bounds the follower lookups of
    this call; a trip leaves every memo entry valid."""
    key = root(k)
    _follow(memo, key, followers, max, node_cap, node_cap)
    ones = [1]
    for want in range(memo[key] - 1, 0, -1):
        q, key = next((q, child) for q, child in followers(key) if memo[child] == want)
        ones.append(ones[-1] + q)
    return tuple(ones)


def count_language(spec, k, strategy=None, node_cap=DEFAULT_NODE_CAP):
    """Exact lambda_k = #L_k(X); independent of the chosen strategy, which is
    None (the spec's own engine), ``brute_force`` or ``spec.engine``.
    node_cap bounds what one call of an engine spends: the states of the
    automaton DP layers it builds, the lookups of a branch-and-bound count,
    the n**k words of brute force, checked before any word is made. Brute
    force hands the spec's member test each word once, in lexicographic
    order: when n <= 256 as ``bytes``, a head of k - k//2 symbols joined to
    a tail of k//2 from halves made once, else as a tuple."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if strategy not in (None, "brute_force", spec.engine):
        raise PreconditionError(
            "unknown counting strategy %r for %s (use %r or 'brute_force')"
            % (strategy, spec.label, spec.engine))
    if strategy == "brute_force":
        # n >= 2, so n**k >= 2**k > node_cap once k passes its bit length,
        # and the power is not computed for such k
        if k > node_cap.bit_length() or spec.n ** k > node_cap:
            raise ResourceCapExceeded(
                "brute force over %d**%d words exceeds %d" % (spec.n, k, node_cap))
        symbols = range(spec.n)
        if spec._symbol_bytes is None:
            words = itertools.product(symbols, repeat=k)
        else:
            # tails vary fastest, so the joins come in lexicographic order
            heads = map(bytes, itertools.product(symbols, repeat=k - k // 2))
            tails = map(bytes, itertools.product(symbols, repeat=k // 2))
            words = itertools.starmap(operator.add, itertools.product(heads, tails))
        return sum(map(spec._member, words))
    if spec.engine == "automaton_dp":
        return spec._dp().value(k, node_cap)
    return spec._position_count(k, node_cap)


class EntropyRow(Record):
    __slots__ = ("k", "lam", "h_k", "increment", "inf_so_far")

    def to_json(self):
        return {
            "k": self.k,
            "lambda": str(self.lam),
            "h_k": self.h_k,
            "increment": self.increment,
            "inf_so_far": self.inf_so_far,
        }


class EntropyReport(Record):
    __slots__ = ("rows", "strategy")

    @property
    def inf_so_far(self):
        return self.rows[-1].inf_so_far

    def to_json(self):
        return {"strategy": self.strategy, "rows": [r.to_json() for r in self.rows]}


def entropy_estimates(spec, k_max, strategy=None, node_cap=DEFAULT_NODE_CAP):
    """Rows (k, lambda_k, h_k) for k = 1..k_max; every h_k is an upper bound for
    h(X) since h is the infimum. The increment column log2(lambda_k/lambda_{k-1})
    is advisory only. node_cap goes to every count_language call; when it
    trips, the ResourceCapExceeded carries the rows built so far as
    ``partial`` (an EntropyReport)."""
    if k_max < 1:
        raise PreconditionError("k_max must be >= 1")
    strategy = strategy or spec.engine
    rows = []
    inf_so_far = math.inf
    prev = None
    for k in range(1, k_max + 1):
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

def _graph_witness(spec, alpha, k, node_cap):
    """Symbols of a word realising D_k(alpha) on a state graph: the forward
    (max, +) layers, keeping where each best count came from, then a walk
    back from a best state of the last layer. node_cap bounds the states of
    its layers."""
    layer, backs, budget = {0: 0}, [], node_cap
    for _ in range(k):
        backs.append({})
        layer, reached = _layer(spec._graph, layer, alpha, budget, node_cap, backs[-1])
        budget -= reached
    i = max(layer, key=layer.get)
    syms = [0] * k
    for j in range(k - 1, -1, -1):
        i, syms[j] = backs[j][i]
    return syms


def _check_symbol(spec, alpha, k):
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if alpha == 0 or not (0 < alpha < spec.n):
        raise PreconditionError("alpha must be a nonzero symbol")


def max_symbol_count(spec, alpha, k, node_cap=DEFAULT_NODE_CAP):
    """D_k(X, alpha): the maximal number of occurrences of alpha over L_k(X).
    Subadditive in k. By spec.engine: the resumable (max, +) DP on a state
    graph, the family's position_max (binary, so alpha is 1); each under
    node_cap."""
    _check_symbol(spec, alpha, k)
    if spec.engine == "automaton_dp":
        return spec._dp(alpha).value(k, node_cap)
    return len(spec._position_max(k, node_cap))


def max_symbol_witness(spec, alpha, k, node_cap=DEFAULT_NODE_CAP):
    """A word of L_k(X) (as a Word) with D_k(X, alpha) occurrences of alpha,
    found by the engine that gives D_k. On a state graph it costs one
    forward (max, +) pass kept for the walk back, which max_symbol_count
    does not keep."""
    _check_symbol(spec, alpha, k)
    if spec.engine == "automaton_dp":
        syms = _graph_witness(spec, alpha, k, node_cap)
    else:  # binary, so alpha is 1
        ones = set(spec._position_max(k, node_cap))
        syms = [int(q in ones) for q in range(1, k + 1)]
    return Word(spec.alphabet, tuple(syms))


def max_density_word(spec, alpha, k, k_ref=None, require_target=True,
                     node_cap=DEFAULT_NODE_CAP):
    """A length-k language word whose every prefix has alpha-frequency at least
    D_{k_ref}/k_ref - 1/k (the constructive step behind the max-density point).

    Returns the lexicographically least word maximizing the minimum prefix
    frequency, and that value: an ascending explicit-stack branch and bound
    keeps strict improvements only, so it finds that word first. Its floor is
    the target or the value of a greedy dive (alpha first, then the others
    descending) that reaches length k. require_target=False skips the target
    (difference-set witnesses, whose theorem targets the true maximal
    density). node_cap bounds the symbols tried, the dive's included.

    A frequency c/d is held as the integer pair (c, d), d > 0, and two are
    compared by cross products (c*d' against c'*d), so the search builds no
    Fraction; the value returned is the only one it builds."""
    _check_symbol(spec, alpha, k)
    tc, td = 0, 1  # the target; no prefix frequency is below 0
    if require_target:
        k_ref = k if k_ref is None else k_ref
        d_ref = max_symbol_count(spec, alpha, k_ref, node_cap=node_cap)
        tc, td = d_ref * k - k_ref, k_ref * k  # D/k_ref - 1/k
    step, nodes = spec._step, 0
    order = [alpha] + [a for a in range(spec.n - 1, -1, -1) if a != alpha]
    state, cnt, fc, fd = spec._start_state, 0, 1, 1  # the dive's minimum
    for i in range(k):
        for a in order:
            nodes += 1
            ok, st = step(state, a)
            if ok:
                break
        else:
            fc, fd = 0, 1  # a dead end: no floor from the dive
            break
        state, cnt = st, cnt + (a == alpha)
        if cnt * fd < fc * (i + 1):
            fc, fd = cnt, i + 1
    if fc * td < tc * fd:
        fc, fd = tc, td  # the floor: the larger of the target and the dive
    bc, bd, best_word = -1, 1, None
    # the prefix, and (state, alpha count, minimum prefix frequency as a
    # pair, symbols left to try) of each open ancestor
    prefix, stack = [], []
    state, cnt, lc, ld, it = spec._start_state, 0, 1, 1, iter(range(spec.n))
    while True:
        d = len(prefix) + 1
        for a in it:
            nodes += 1
            if nodes > node_cap:
                raise ResourceCapExceeded("max_density_word exceeded %d nodes" % node_cap)
            ok, st = step(state, a)
            if not ok:
                continue
            c = cnt + (a == alpha)
            mc, md = (c, d) if c * ld < lc * d else (lc, ld)
            if mc * fd < fc * md or mc * bd <= bc * md:
                continue
            if d == k:
                bc, bd, best_word = mc, md, tuple(prefix) + (a,)
                continue
            stack.append((state, cnt, lc, ld, it))
            prefix.append(a)
            state, cnt, lc, ld, it = st, c, mc, md, iter(range(spec.n))
            break
        else:
            if not stack:
                break
            state, cnt, lc, ld, it = stack.pop()
            prefix.pop()
    if best_word is None:
        raise SearchFailure("no length-%d word meets the prefix-density target %s"
                            % (k, Fraction(tc, td)))
    return Word(spec.alphabet, best_word), Fraction(bc, bd)


# -- heredity ----------------------------------------------------------------------

def hereditary_check(spec, k):
    """Exhaustively checks closure of L_k(X) under coordinate-wise lowering.
    Returns (True, None) or (False, (word, lowered_word)). Closure under
    single-symbol decrements implies full coordinate-wise closure.

    Each word of L_k is made ``bytes`` once (a tuple past 256 symbols), and
    each lowering of it, over the alphabet by construction, goes straight to
    the spec's member test, in enumeration order."""
    member = spec._member
    seq = tuple if spec._symbol_bytes is None else bytes
    for syms in enumerate_language(spec, k):
        w = seq(syms)
        for i, s in enumerate(syms):
            if s > 0:
                lowered = w[:i] + seq((s - 1,)) + w[i + 1:]
                if not member(lowered):
                    return False, (Word(spec.alphabet, syms),
                                   Word(spec.alphabet, tuple(lowered)))
    return True, None


def mixing_probe(spec, u, v, m_max):
    """Smallest gap g such that u 0^m v is in L(X) for all g <= m <= m_max,
    or None when the scan gives no such tail (finite-horizon evidence only).
    Each u 0^m v is over the alphabet, so it goes straight to the spec's
    member test: as bytes, or as a tuple past 256 symbols."""
    if m_max < 0:
        raise PreconditionError("m_max must be >= 0")
    u = word(u, spec.n)
    v = word(v, spec.n)
    if not contains_word(spec, u):
        raise PreconditionError("u not in the language")
    if not contains_word(spec, v):
        raise PreconditionError("v not in the language")

    member = spec._member
    seq = tuple if spec._symbol_bytes is None else bytes
    us, zero, vs = seq(u.symbols), seq((0,)), seq(v.symbols)

    def gap_ok(m):
        return member(us + zero * m + vs)

    if not gap_ok(m_max):
        return None
    g = m_max
    while g > 0 and gap_ok(g - 1):
        g -= 1
    return g


# -- built-in families ---------------------------------------------------------------

def full_shift(n=2):
    def transition(state, a):
        return True, state

    def word_test(b):
        # the definition: every word over the alphabet is in the language
        return True

    return SubshiftSpec(
        n=n, family="full", label="full:n=%d" % n,
        start_state=None, transition=transition, word_test=word_test)


def _counting_cap(length):
    """Max number of 1s allowed in a window of the given length: the whole word
    of length L in (2**(j-1), 2**j] may contain at most j ones."""
    if length <= 1:
        return 1
    return (length - 1).bit_length()


def counting_shift():
    """The zero-entropy mixing hereditary shift: a word is admissible iff every
    subword of length in (2**(j-1), 2**j] carries at most j ones."""

    # 2**64, ..., 4, 2: the last m are the gaps that m earlier 1s need
    gaps = tuple(1 << j for j in range(64, 0, -1))

    def _floor(ones):
        # the least position a next 1 may take: p_j - p_i >= 2**(j-i) for
        # i < j keeps every window from a 1 to it in its cap
        return max(map(operator.add, ones, gaps[-len(ones):]))

    def transition(state, a):
        # state: (symbols read, tuple of 1-based 1-positions so far, the
        # floor of the next 1, or 0 before the first 1)
        i, ones, fl = state
        q = i + 1
        if a == 0:
            return True, (q, ones, fl)
        if q < fl:
            return False, state
        ones += (q,)
        return True, (q, ones, _floor(ones))

    def word_test(b):
        # the definition on 1-positions. The whole word is one window, so
        # more than _counting_cap(len(b)) <= 64 1s settle it at once; the
        # floors would reject such a word too, later. The walk is short.
        if b.count(1) > _counting_cap(len(b)):
            return False
        ones, q = [], b.find(1)
        while q >= 0:
            if ones and q < _floor(ones):
                return False
            ones.append(q)
            q = b.find(1, q + 1)
        return True

    def followers(key):
        # key = (r, g_1, g_2, ...): r places are left after the last 1, and
        # the m-th next 1 needs an offset of at least g_m, cut to r (a floor
        # above r drops out, and so does every floor after it). A next 1 at
        # offset q leaves r - q places and g'_m = max(g_(m+1) - q, 2**m);
        # floors increase with m, so the cut stops at the first one too far.
        r, *g = key  # g[m] is g_(m+1)
        for q in range(g[0], r + 1) if g else ():
            child = [r - q]
            for m in range(1, len(g)):
                x = max(g[m] - q, 1 << m)
                if x > r - q:
                    break
                child.append(x)
            yield q, tuple(child)

    def position_count(k, node_cap):
        # a lone 1 at position 1 has the floors g_m = 2**m
        return follower_count(
            spec._column, spec._memo, k,
            lambda j: (j - 1,) + tuple(1 << m for m in range(1, (j - 1).bit_length())),
            followers, node_cap)

    def position_max(k, node_cap):
        # the closed form: the window covering the whole word already forces
        # <= cap(k) ones, and the chain 1, 3, 5, 9, ..., 2**(j-1)+1 realizes
        # it: the window from position 1 to 2**(j-1)+1 has length in
        # (2**(j-1), 2**j]
        return (1,) + tuple((1 << (i - 1)) + 1 for i in range(2, _counting_cap(k) + 1))

    spec = SubshiftSpec(
        n=2, family="counting", label="counting",
        start_state=(0, (), 0), transition=transition, position_count=position_count,
        position_max=position_max, word_test=word_test)
    return spec


def forbidden_shift(forbidden, n=2):
    """Subshift avoiding an explicit finite set of forbidden words. Not
    hereditary in general; checked for right-prolongability on its whole
    state graph.

    The state is the Aho-Corasick one (Aho & Corasick, "Efficient string
    matching", CACM 18(6), 1975): the longest suffix of the word read that
    is a proper prefix of a forbidden word, so there are at most 1 + the
    total length of the forbidden words. A forbidden f ending at the next
    symbol leaves f minus that symbol, a proper prefix, as a suffix of the
    word read, hence of the state: the refusal test reads the state alone."""
    forb = tuple(word(f, n) for f in forbidden)
    if not forb:
        return full_shift(n)
    syms = tuple(f.symbols for f in forb)
    prefixes = {f[:i] for f in syms for i in range(len(f))} | {()}

    def transition(state, a):
        # state: the longest suffix of the word read in prefixes
        tail = state + (a,)
        for f in syms:
            if len(f) <= len(tail) and tail[-len(f):] == f:
                return False, state
        while tail not in prefixes:
            tail = tail[1:]
        return True, tail

    # the transition never matches an empty forbidden word
    fbytes = tuple(bytes(f) for f in syms if f) if n <= 256 else ()

    def word_test(b):
        return not any(f in b for f in fbytes)

    label = "forbidden:{%s}" % ",".join(str(f) for f in forb)
    spec = SubshiftSpec(
        n=n, family="forbidden", label=label,
        start_state=(), transition=transition, word_test=word_test)
    _validate_prolongable(spec)
    return spec


def _validate_prolongable(spec):
    """Right-prolongability on the state graph: every reachable state reads
    some symbol. A forbidden-word state is a word of L, a suffix of every
    word that reaches it, and the word itself reaches it first: a longer
    state is reached only from its own prefix one symbol shorter. So the
    graph numbers its states by length, then lexicographically, and the
    first dead state is the first word of L with no extension. The states
    count against DEFAULT_NODE_CAP."""
    graph, cap, i = spec._graph, DEFAULT_NODE_CAP, 0
    while i < len(graph.states):
        if i == cap:
            raise ResourceCapExceeded(
                "right-prolongability check exceeded %d states" % cap)
        if max(graph.expand(i)) < 0:
            raise SpecValidationError(
                "language not right-prolongable at %r" % (graph.states[i],))
        i += 1


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
        if not 2 <= n <= MAX_ALPHABET:
            raise SpecParseError(
                "alphabet size must be in [2, %d] in %r" % (MAX_ALPHABET, text))
        return full_shift(n)
    if text.startswith("spacing:P="):
        from .sets import parse_set_expr
        from .spacing import PSetSpec, spacing_shift
        return spacing_shift(PSetSpec(parse_set_expr(text[len("spacing:P="):])))
    if text.startswith("beta:beta="):
        from .beta import beta_shift, parse_beta
        bspec = parse_beta(text[len("beta:beta="):])
        if bspec.alphabet_size > MAX_ALPHABET:
            raise SpecParseError(
                "beta alphabet exceeds %d symbols in %r" % (MAX_ALPHABET, text))
        return beta_shift(bspec)
    if text.startswith("forbidden:{") and text.endswith("}"):
        body = text[len("forbidden:{"):-1]
        parts = [p.strip() for p in body.split(",") if p.strip()]
        if not parts or not all(p.isdecimal() for p in parts):
            raise SpecParseError("forbidden words must be digit strings: %r" % (text,))
        n = max(2, max(int(c) for p in parts for c in p) + 1)
        return forbidden_shift(parts, n=n)
    raise SpecParseError("unrecognized shift spec %r" % (text,))
