"""Value semantics of the package's records: equality by class and fields,
hashes that agree with it, the repr that error messages show, and fields
that cannot be reassigned."""

import copy
import pickle
from fractions import Fraction

import pytest

from shiftlab.chaos import DistributionProfile, PairClass, classify_pair, distribution_profile
from shiftlab.core import Alphabet, Word, metric_rho, parse_point, periodic_point, word
from shiftlab.errors import AlphabetMismatch
from shiftlab.langkit import EntropyReport, entropy_estimates, parse_shift_spec
from shiftlab.sets import (
    EVENS,
    DensityResult,
    FactorialBlocksSet,
    FiniteSet,
    PeriodicSet,
    Pow2DiffSet,
    UnionSet,
    WindowSet,
    parse_set_expr,
    upper_density,
)
from shiftlab.spacing import PSetSpec, count_spacing

SET_EXPRS = [
    "finite:{1,5}",
    "finite:{}",
    "periodic:1;10",
    "evens",
    "complement:(finite:{1})",
    "union:(evens|finite:{1})",
    "window:10110",
    "pow2diff",
    "factorial_blocks",
]


@pytest.mark.parametrize("expr", SET_EXPRS)
def test_set_specs_equal_and_hash_by_value(expr):
    s = parse_set_expr(expr)
    t = parse_set_expr(str(s))
    assert t == s and hash(t) == hash(s)
    assert s != FiniteSet(frozenset({2}))


def test_set_equality_compares_class_and_every_field():
    assert PeriodicSet((), (0, 1)) == PeriodicSet((), (0, 1), name="")
    assert PeriodicSet((), (0, 1)) != EVENS  # the name is a field
    assert Pow2DiffSet() != FactorialBlocksSet()  # same (empty) fields, other class
    assert WindowSet((1, 0)) != UnionSet((1, 0))
    assert len({parse_set_expr(e) for e in SET_EXPRS + SET_EXPRS}) == len(SET_EXPRS)


def test_pset_spec_compares_its_base_only():
    built, fresh = PSetSpec(EVENS), PSetSpec(EVENS)
    count_spacing(built, 6)
    assert built._shift and not fresh._shift
    assert built == fresh and hash(built) == hash(fresh)
    assert repr(built) == "PSetSpec(base=%r)" % (EVENS,)


def test_constructor_errors_keep_their_text():
    with pytest.raises(ValueError, match=r"^alphabet size must be >= 2, got 1$"):
        Alphabet(1)
    with pytest.raises(ValueError, match=r"^symbol 2 out of range for alphabet of size 2$"):
        Word(Alphabet(2), (0, 2))
    with pytest.raises(ValueError, match=r"^period bits must be nonempty$"):
        PeriodicSet((1,), ())


def test_point_canonicalises_in_its_constructor():
    x, y = parse_point("1;01"), parse_point(";10")
    assert x == y and hash(x) == hash(y)
    assert (x.preperiod, x.period) == ((), (1, 0))
    assert periodic_point("", "1010") == y


def test_alphabet_mismatch_names_the_alphabets():
    with pytest.raises(AlphabetMismatch, match=r"Alphabet\(size=2\) vs Alphabet\(size=3\)"):
        metric_rho(parse_point(";1"), parse_point(";1", 3))


def test_fields_refuse_assignment():
    x, y = parse_point(";10"), parse_point(";0")
    report = entropy_estimates(parse_shift_spec("full:n=2"), 2)
    for obj, field in [(Alphabet(2), "size"), (word("10"), "symbols"), (x, "period"),
                       (EVENS, "per"), (PSetSpec(EVENS), "base"),
                       (upper_density(EVENS), "value"), (report, "rows"),
                       (report.rows[0], "lam"), (distribution_profile(x, y), "exact"),
                       (PairClass("none", False), "verdict")]:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)


def test_defaults_and_repr():
    assert PairClass("none", True).certificates == {}
    assert PairClass("none", True).certificates is not PairClass("none", True).certificates
    p = DistributionProfile(2, (Fraction(1),), (1,), (1,), True, True)
    assert (p.horizon, p.checkpoints) == (None, ())
    assert repr(DensityResult(Fraction(1, 2), True)) == (
        "DensityResult(value=Fraction(1, 2), exact=True, exists=None, horizon=None)")
    assert repr(EntropyReport((), "dfs")) == "EntropyReport(rows=(), strategy='dfs')"
    assert repr(word("01")) == "Word(alphabet=Alphabet(size=2), symbols=(0, 1))"


def test_records_copy_and_pickle_through_their_constructor():
    x, y = parse_point("1;01"), parse_point(";0")
    for obj in [Alphabet(3), word("0110"), x, parse_set_expr("union:(evens|finite:{1})"),
                PSetSpec(EVENS), upper_density(EVENS), classify_pair(distribution_profile(x, y))]:
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert copy.deepcopy(obj) == obj
