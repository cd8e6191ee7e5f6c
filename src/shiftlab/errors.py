"""Exception types shared across the package.

The CLI maps these onto exit codes: parse errors -> 2, resource caps -> 3.
"""


class ShiftlabError(Exception):
    pass


class AlphabetMismatch(ShiftlabError):
    """Operands live over different alphabets."""


class SpecParseError(ShiftlabError):
    """A shift-spec / set-expr / point string failed to parse."""


class SpecValidationError(ShiftlabError):
    """A spec violates its structural contract (e.g. a forbidden-word language
    that is empty or not right-prolongable)."""


class ResourceCapExceeded(ShiftlabError):
    """An enumeration or search hit its configured resource cap. ``partial``
    holds a result that stays sound without the rest, when the raiser built
    one before the cap tripped."""

    partial = None


class SearchFailure(ShiftlabError):
    """A bounded search ended without a witness meeting its target."""


class PreconditionError(ShiftlabError):
    """An operation's stated precondition does not hold for the inputs."""
