"""Alphabets, finite words and eventually periodic points.

Conventions used everywhere in the package:

* symbols are the integers ``0 .. n-1`` for an alphabet of size ``n >= 2``;
* sequence indices are 1-based, so a point is ``omega = (omega_i), i >= 1``.

An eventually periodic point ``u . v v v ...`` is kept in a canonical form
(minimal preperiod, primitive period), which makes equality exact and
decidable.

A point has one whole-window kernel, ``prefix(k)``: omega_1 .. omega_k in
one pass over the preperiod and the repeated period. The point branch of
the Parry check in ``beta`` reads it; the exact profiles in ``chaos`` build
their cycle windows by whole-period repetition instead, and ``symbol_at``
is for one-off queries.
"""

from __future__ import annotations

from itertools import chain, cycle, islice
from operator import attrgetter

from .errors import AlphabetMismatch, SpecParseError


set_field = object.__setattr__


class Record:
    """Base of shiftlab's immutable value types. A record's fields are the
    public names in its ``__slots__``; slots named with a leading underscore
    hold private state that is neither compared, hashed nor shown. Records
    compare equal when their classes are the same and their fields are equal,
    hash by their field values, show as ``Name(field=value, ...)``, pickle
    through their constructor, and refuse assignment with an AttributeError.

    The constructor binds the fields in ``__slots__`` order, by position or
    by name. Fields left out at the end take their values from the class's
    ``_defaults`` dict; a missing, unknown or repeated field, or more
    positional arguments than fields, raises TypeError. A subclass writes its
    own ``__init__`` only when construction does more than bind fields
    (validation, a canonical form, a fresh mutable default or private state),
    and sets each slot there once through ``set_field``."""

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        # what eq and hash read: the field tuple, or a single field's value
        cls._key = staticmethod(attrgetter(*cls._fields) if cls._fields else lambda record: ())

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError("%s() takes %d arguments but %d were given"
                            % (type(self).__qualname__, len(fields), len(args)))
        for field, value in zip(fields, args):
            set_field(self, field, value)
        for field in fields[len(args):]:
            if field in kwargs:
                set_field(self, field, kwargs.pop(field))
            elif field in self._defaults:
                set_field(self, field, self._defaults[field])
            else:
                raise TypeError("%s() missing argument %r" % (type(self).__qualname__, field))
        if kwargs:
            field = next(iter(kwargs))
            raise TypeError("%s() got %s %r" % (
                type(self).__qualname__, "multiple values for argument" if field in fields
                else "an unexpected keyword argument", field))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))


class Alphabet(Record):
    __slots__ = ("size",)

    def __init__(self, size):
        if size < 2:
            raise ValueError("alphabet size must be >= 2, got %r" % (size,))
        set_field(self, "size", size)


class Word(Record):
    """A finite string of symbols over a fixed alphabet. The range check is
    one min and one max, run in C; only a word that fails it is walked, to
    name its first symbol out of range."""

    __slots__ = ("alphabet", "symbols")

    def __init__(self, alphabet, symbols):
        n = alphabet.size
        if symbols and not (min(symbols) >= 0 and max(symbols) < n):
            s = next(s for s in symbols if not (0 <= s < n))
            raise ValueError("symbol %r out of range for alphabet of size %d" % (s, n))
        set_field(self, "alphabet", alphabet)
        set_field(self, "symbols", symbols)

    def __len__(self):
        return len(self.symbols)

    def __str__(self):
        return format_symbols(self.symbols, self.alphabet.size)

    def weight(self):
        """Number of nonzero symbols (equals sum(w) on a binary alphabet)."""
        return sum(1 for s in self.symbols if s != 0)


def format_symbols(symbols, n):
    """A word over {0..n-1} as text: one digit per symbol for n <= 10, and the
    symbols separated by one space above that, where a digit string would not
    say where a symbol such as 12 ends."""
    return ("" if n <= 10 else " ").join(map(str, symbols))


def word(text_or_symbols, n=2):
    """Build a Word from a digit string or a symbol iterable."""
    if isinstance(text_or_symbols, Word):
        return text_or_symbols
    if isinstance(text_or_symbols, str):
        syms = tuple(int(c) for c in text_or_symbols)
    else:
        syms = tuple(int(s) for s in text_or_symbols)
    return Word(Alphabet(n), syms)


def _primitive_root(per):
    k = len(per)
    for d in range(1, k + 1):
        if k % d == 0 and per[:d] * (k // d) == per:
            return per[:d]
    return per


def _canonicalize(pre, per):
    pre, per = tuple(pre), tuple(per)
    if not per:
        raise ValueError("period must be nonempty")
    # absorb trailing preperiod symbols that merely rotate the period
    while pre and pre[-1] == per[-1]:
        pre = pre[:-1]
        per = (per[-1],) + per[:-1]
    return pre, _primitive_root(per)


class EventuallyPeriodicPoint(Record):
    """The infinite sequence preperiod . period period ... in canonical form."""

    __slots__ = ("alphabet", "preperiod", "period")

    def __init__(self, alphabet, preperiod, period):
        pre, per = _canonicalize(preperiod, period)
        n = alphabet.size
        for s in pre + per:
            if not (0 <= s < n):
                raise ValueError("symbol %r out of range for alphabet of size %d" % (s, n))
        set_field(self, "alphabet", alphabet)
        set_field(self, "preperiod", pre)
        set_field(self, "period", per)

    def symbol_at(self, i):
        """1-based coordinate omega_i."""
        if i < 1:
            raise IndexError("indices are 1-based")
        p = len(self.preperiod)
        if i <= p:
            return self.preperiod[i - 1]
        return self.period[(i - p - 1) % len(self.period)]

    def prefix(self, k):
        """omega_1 .. omega_k as a tuple, empty for k <= 0."""
        return tuple(islice(chain(self.preperiod, cycle(self.period)), max(k, 0)))

    def __str__(self):
        return format_point(self)


def periodic_point(pre, per, n=2):
    """Build an EventuallyPeriodicPoint from digit strings or symbol iterables."""
    pre_s = tuple(int(c) for c in pre)
    per_s = tuple(int(c) for c in per)
    return EventuallyPeriodicPoint(Alphabet(n), pre_s, per_s)


def parse_point(text, n=2):
    """Parse the textual syntax ``pre;per`` (e.g. ``;10`` or ``11;0``)."""
    if text.count(";") != 1:
        raise SpecParseError("point must be written as pre;per, got %r" % (text,))
    pre, per = text.split(";")
    if not per:
        raise SpecParseError("period part must be nonempty in %r" % (text,))
    if not (pre + per).isdecimal():
        raise SpecParseError("point symbols must be digits in %r" % (text,))
    try:
        return periodic_point(pre, per, n)
    except ValueError as e:
        raise SpecParseError(str(e)) from e


def format_point(x):
    # canonical form round-trips bit-exactly through parse_point
    return "%s;%s" % ("".join(map(str, x.preperiod)), "".join(map(str, x.period)))


def _same_alphabet(x, y):
    if x.alphabet != y.alphabet:
        raise AlphabetMismatch("%r vs %r" % (x.alphabet, y.alphabet))
