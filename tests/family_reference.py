"""The scrambled family built member by member, each member as H bytes: the
reference that the block-wise family of `shiftlab.chaos` is checked against.
It reads S through S.bits up to the last block end, copies S into every
block of each member, and measures a pair on the XOR mask of two whole
members, so it costs O(m * H) time and memory; tests run it at H <= 10**6."""

from fractions import Fraction

from gap_reference import empirical_profile
from shiftlab.chaos import _disagreements
from shiftlab.errors import PreconditionError


class ReferenceFamily:
    """b, blocks, index_sets and log as the construction defines them, and
    members: the m characteristic sequences, bytes of 0/1."""

    def __init__(self, S, m, horizon, growth):
        self.horizon = horizon
        pre, per = S.eventually_periodic()
        period = len(per)
        b = [period if period > 1 else 2]
        while True:
            target = max(len(b), growth) * b[-1]
            nxt = -(-target // period) * period  # the next multiple of the period
            if nxt > horizon:
                break
            b.append(nxt)
        if len(b) < 2:
            raise PreconditionError("no block below the horizon")
        self.b = tuple(b)
        self.blocks = tuple((b[2 * k], b[2 * k + 1]) for k in range(len(b) // 2))
        self.index_sets = tuple(tuple(n for n in range(1, len(self.blocks) + 1)
                                      if n % m == i % m) for i in range(m))
        # S is read up to the last block end; past it every member is 0
        bits_S = S.bits(self.blocks[-1][1])
        members = []
        for A in self.index_sets:
            bits = bytearray(horizon)
            for n in A:
                lo, hi = self.blocks[n - 1]
                bits[lo:hi] = bits_S[lo:hi]
            members.append(bytes(bits))
        self.members = tuple(members)
        self.log = {
            "b": list(b),
            "growth_ok": all(k * b[k - 1] <= b[k] for k in range(1, len(b))),
            "blocks": [list(bl) for bl in self.blocks],
            "index_sets": [list(A) for A in self.index_sets],
            "density": str(Fraction(sum(per), period)),
            "growth": growth,
            "block_ones": [bits_S.count(1, lo, hi) for lo, hi in self.blocks],
        }

    def member_ones(self, i):
        """The 1-based places where member i is 1."""
        return [p + 1 for p, bit in enumerate(self.members[i]) if bit]

    def pair_profile(self, i, j):
        """Members i and j measured at the checkpoints b."""
        return empirical_profile(self.members[i], self.members[j], checkpoints=self.b, n=2)

    def pair_frequencies(self, i, j):
        """(b_n, Diff frequency, Equal frequency) at every checkpoint."""
        end = self.b[-1]
        mask = _disagreements(self.members[i][:end], self.members[j][:end])
        rows = []
        diff = prev = 0
        for cp in self.b:
            diff += mask.count(1, prev, cp)
            prev = cp
            rows.append((cp, Fraction(diff, cp), 1 - Fraction(diff, cp)))
        return rows
