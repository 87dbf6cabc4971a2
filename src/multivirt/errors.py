"""Exception hierarchy shared by the whole package, and the argument checks
that entry points use to turn a wrong-kind argument into one of them."""

import operator


class MultivirtError(Exception):
    """Base class for every domain error raised by multivirt."""


class ParseError(MultivirtError):
    """The VGC text does not match the grammar."""


class ValidationError(MultivirtError):
    """Structurally invalid diagram (wrong passage multiplicity, roles, or signs),
    or an argument that is not of the kind an entry point documents."""


class UnknownCrossing(MultivirtError):
    """Crossing id not present in the diagram."""


class NotReal(MultivirtError):
    """Operation requires a real (over/under) crossing."""


class MixedCrossing(MultivirtError):
    """The over and under passages lie on different circles, so no over-to-under
    path exists along a single component."""


class NotAKnot(MultivirtError):
    """Operation requires a one-component diagram."""


class BadComponent(MultivirtError):
    """Component index out of range."""


class BadR(MultivirtError):
    """Multiplicity / covering order out of range."""


class BadModulus(MultivirtError):
    """Coloring modulus must be >= 1."""


class BadMatrix(MultivirtError):
    """Matrix rows differ in length, an entry is not an integer, the rows of
    a coloring system are not a tuple, or one of them is not a tuple of
    (unknown, nonzero integer) pairs with unknowns strictly increasing in
    range(n_unknowns)."""


class TooLarge(MultivirtError):
    """A search space or a construction exceeds its size limit: a brute-force
    enumeration its `limit`, or a multiplex `constructions.MAX_PASSAGES`."""


class MissingProvenance(MultivirtError):
    """Constrained coloring systems need the multiplexing provenance."""


class InvalidColoring(MultivirtError):
    """The supplied assignment does not satisfy its relation system."""


class StaleSite(MultivirtError):
    """A move site no longer matches the diagram it was found on."""


def checked(value, kind: type, error: type[MultivirtError], what: str):
    """Return `value` if it is of `kind`, else raise `error` naming it.

    For `kind` int, anything `operator.index` accepts passes and comes back as
    the int it equals (bools and numpy integers do; floats and strings do
    not).  Any other `kind`, such as an Enum, is an isinstance check."""
    if kind is int:
        try:
            return operator.index(value)
        except TypeError:
            pass
    elif isinstance(value, kind):
        return value
    raise error(f"{what} must be of type {kind.__name__}, got {value!r}")


def iterated(value, what: str, of: str, into: type = tuple):
    """`into(value)`, the items of `value` in a tuple or a set, if `value`
    is an iterable other than a `str` or `bytes`, which would be read as its
    characters; else raise ValidationError naming it."""
    if isinstance(value, (str, bytes)):
        raise ValidationError(f"{what} must be an iterable of {of}, got the string {value!r}")
    try:
        return into(value)
    except TypeError:  # not iterable, or holding an unhashable item of a set
        raise ValidationError(f"{what} must be an iterable of {of}, got {value!r}") from None
