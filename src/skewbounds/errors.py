"""Exception hierarchy shared by all skewbounds modules."""


class SkewboundsError(Exception):
    """Base class for all errors raised by this package.

    Functions that evaluate a stack of points set ``row`` to the index of the
    point an error belongs to; it stays None for an error that concerns every
    point alike.
    """

    row: int | None = None


class NotHermitian(SkewboundsError):
    """A matrix required to be Hermitian failed the symmetry check."""


class ConvergenceFailure(SkewboundsError):
    """The eigensolver did not converge."""


class DimensionMismatch(SkewboundsError):
    """Operands have incompatible matrix dimensions."""


class LengthMismatch(SkewboundsError):
    """Vectors passed to a chain/bound routine have different lengths."""


class DomainError(SkewboundsError):
    """A scalar parameter is outside its allowed domain."""


class ComplexityRefusal(SkewboundsError):
    """An exhaustive search was requested beyond the enumeration cap."""


class ParseError(SkewboundsError):
    """A scenario file is malformed."""


class ValidationError(SkewboundsError):
    """A parsed value fails semantic validation (state, observable, metric)."""


class InvariantViolation(SkewboundsError):
    """A computed result violated a bound-ordering invariant."""


def raise_first(checks) -> None:
    """Raise the error of the first failing point of a stack, if any fails.

    ``checks`` holds (bad, make) pairs in check order: ``bad`` is a numpy
    boolean array whose first axis runs over the points, True where the
    check fails (a point fails if any of its entries does), and
    ``make(row)`` builds that point's exception.  The point reported is the
    first, in stack order, that fails any check; its error is that of the
    first check it fails.  The exception's ``row`` is set to that point.
    """
    first = None
    for bad, make in checks:
        if bad.any():
            if bad.ndim > 1:
                bad = bad.reshape(len(bad), -1).any(axis=1)
            row = int(bad.argmax())
            if first is None or row < first[0]:
                first = (row, make)
    if first is not None:
        row, make = first
        exc = make(row)
        exc.row = row
        raise exc
