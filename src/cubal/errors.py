"""Exception types shared across the package, and the four argument rules.

Every value is checked once, by one of the rules below, where it enters the
library; values the library builds itself skip the check.
"""


class CubalError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(CubalError):
    """A requested computation exceeds its enumeration budget."""


class FormatError(CubalError):
    """Malformed table, matrix, or serialized document."""


class NotAssociativeError(FormatError):
    """A Cayley table failed the associativity check."""


def require_indices(values, m: int, what: str) -> None:
    """Raise FormatError naming the first value that is not an index of 1..m:
    an int (not a bool, nor any other subclass) from 1 to m."""
    for v in values:
        if type(v) is not int or not 1 <= v <= m:
            raise FormatError(f"{what} {v!r} outside 1..{m}")


def require_size(n, name: str = "m", error: type = FormatError) -> int:
    """n, when it is a size: an int (not a bool, nor any other subclass) of at
    least 1; else ``error``."""
    if type(n) is not int or n < 1:
        raise error(f"{name} must be a positive integer, got {n!r}")
    return n


def require_count(n, name: str, error: type = ValueError) -> int:
    """n, when it is a count: an int (not a bool, nor any other subclass) of at
    least 0; else ``error`` naming ``name``."""
    if type(n) is not int or n < 0:
        raise error(f"{name} must be an int and nonnegative, got {n!r}")
    return n


def same_size(a, b, c=None, *, error: type = ValueError, names=None) -> int:
    """The size ``m`` that the two or three objects passed to one map share;
    when they differ, ``error`` names each one's m, after its name in
    ``names`` or its type."""
    m = a.m
    if b.m != m or c is not None and c.m != m:
        objects = (a, b) if c is None else (a, b, c)
        names = names or [type(x).__name__ for x in objects]
        shown = ", ".join(f"{name} has m={x.m}" for name, x in zip(names, objects))
        raise error(f"size mismatch, different sizes: {shown}")
    return m
