"""Value semantics of the package's records: equality by class and fields,
hashes that agree with it, the repr that error messages show, and fields
that cannot be reassigned."""

import ast
import copy
import importlib
import pathlib
import pickle
import pkgutil
import random
from fractions import Fraction

import pytest

import shiftlab
from shiftlab.chaos import DistributionProfile, PairClass, classify_pair, distribution_profile
from shiftlab.core import Alphabet, Record, Word, parse_point, periodic_point, word
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

from point_reference import metric_rho

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


def _first_out_of_range(symbols, n):
    """The per-symbol range check: the first symbol outside 0..n-1, or None."""
    for s in symbols:
        if not (0 <= s < n):
            return s
    return None


def test_word_rejects_what_the_symbol_walk_rejects():
    # a negative symbol first, a too-large one first, and both kinds mixed
    cases = [((0, -1, 2), 3, -1), ((1, 3, 0), 3, 3), ((2, -2, 7, -1), 3, -2),
             ((0, 9, -4, 5), 3, 9), ((), 2, None), ((0, 1, 2), 3, None)]
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(2, 12)
        syms = tuple(rng.randint(-3, n + 2) if rng.random() < 0.1 else rng.randrange(n)
                     for _ in range(rng.randint(0, 30)))
        cases.append((syms, n, _first_out_of_range(syms, n)))
    for syms, n, bad in cases:
        assert bad == _first_out_of_range(syms, n)
        if bad is None:
            assert Word(Alphabet(n), syms).symbols == syms
            continue
        with pytest.raises(ValueError, match=r"^symbol %d out of range for alphabet of size %d$"
                           % (bad, n)):
            Word(Alphabet(n), syms)
    assert word([], n=3).symbols == ()


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
                       (upper_density(EVENS, 10_000), "value"), (report, "rows"),
                       (report.rows[0], "lam"), (distribution_profile(x, y), "exact"),
                       (PairClass("none", False, {}), "verdict")]:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)


def test_defaults_and_repr():
    with pytest.raises(TypeError):
        PairClass("none", True)  # classify_pair always passes its certificates
    p = DistributionProfile(2, (Fraction(1),), (1,), (1,), True, True)
    assert (p.horizon, p.checkpoints) == (None, ())
    assert repr(DensityResult(Fraction(1, 2), True)) == (
        "DensityResult(value=Fraction(1, 2), exact=True, exists=None, horizon=None)")
    assert repr(EntropyReport((), "dfs")) == "EntropyReport(rows=(), strategy='dfs')"
    assert repr(word("01")) == "Word(alphabet=Alphabet(size=2), symbols=(0, 1))"


def test_records_copy_and_pickle_through_their_constructor():
    x, y = parse_point("1;01"), parse_point(";0")
    for obj in [Alphabet(3), word("0110"), x, parse_set_expr("union:(evens|finite:{1})"),
                PSetSpec(EVENS), upper_density(EVENS, 10_000), classify_pair(distribution_profile(x, y))]:
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert copy.deepcopy(obj) == obj


def _records():
    for info in pkgutil.iter_modules(shiftlab.__path__):
        if info.name != "__main__":
            importlib.import_module("shiftlab." + info.name)
    found, todo = [], [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("shiftlab.") and sub not in found:
                found.append(sub)
    return found


# each of these does more than bind its fields, so it keeps its constructor
OWN_INIT = {
    "Alphabet": "validates the size",
    "Word": "validates the symbols",
    "EventuallyPeriodicPoint": "canonicalises preperiod and period",
    "PeriodicSet": "refuses an empty period",
    "PSetSpec": "sets its private _shift cache",
}


def test_only_the_records_that_do_more_than_bind_fields_write_init():
    own = {cls.__name__ for cls in _records() if "__init__" in vars(cls)}
    assert own == set(OWN_INIT)


@pytest.mark.parametrize("cls", [c for c in _records() if c.__init__ is Record.__init__],
                         ids=lambda c: c.__name__)
def test_base_constructor_contract(cls):
    fields, defaults = cls._fields, cls._defaults
    assert list(defaults) == list(fields[len(fields) - len(defaults):])
    values = tuple(range(10, 10 + len(fields)))
    record = cls(*values)
    assert record == cls(**dict(zip(fields, values)))
    assert record == cls(*values[:1], **dict(zip(fields[1:], values[1:])))
    assert tuple(getattr(record, f) for f in fields) == values
    required = len(fields) - len(defaults)
    filled = cls(*values[:required])
    assert tuple(getattr(filled, f) for f in fields) == values[:required] + tuple(
        defaults.values())
    if required:
        with pytest.raises(TypeError, match="missing argument %r" % (fields[required - 1],)):
            cls(*values[:required - 1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'no_such_field'"):
        cls(*values, no_such_field=1)
    if fields:
        with pytest.raises(TypeError, match="multiple values for argument %r" % (fields[0],)):
            cls(*values, **{fields[0]: 1})
    with pytest.raises(TypeError, match="takes %d arguments but %d were given"
                       % (len(fields), len(fields) + 1)):
        cls(*values, 0)
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record
    for field in fields + ("no_such_field",):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def _set_field_only(init):
    """True when init's body, past a docstring, is only set_field(self, "f", f)
    statements, which the base constructor already does."""
    body = init.body[1:] if ast.get_docstring(init) is not None else init.body
    return bool(body) and all(
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Name) and stmt.value.func.id == "set_field"
        and len(stmt.value.args) == 3 and not stmt.value.keywords
        and isinstance(stmt.value.args[0], ast.Name) and stmt.value.args[0].id == "self"
        and isinstance(stmt.value.args[1], ast.Constant)
        and isinstance(stmt.value.args[2], ast.Name)
        and stmt.value.args[2].id == stmt.value.args[1].value
        for stmt in body)


def test_no_record_restates_its_fields_as_an_init():
    restated = []
    for path in sorted(pathlib.Path(shiftlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id == "Record" for b in node.bases):
                restated += ["%s.%s" % (path.stem, node.name) for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and item.name == "__init__" and _set_field_only(item)]
    assert not restated, restated
