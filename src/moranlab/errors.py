"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input is outside the mathematical domain of an operation.

    Examples: a stopping radius at least as large as the seed diameter,
    a snowflake exponent outside (0, 1), a finite-depth pressure curve
    with no zero.
    """


class EnumerationCapError(RuntimeError):
    """A requested word enumeration exceeds the configured size cap.

    The cap exists so that a careless depth/alphabet combination fails
    fast instead of exhausting memory.  See :func:`moranlab.words.enum_cap`.
    """


class SpecError(ValueError):
    """Malformed specification input (file, JSON shape, key, or flag value)."""
