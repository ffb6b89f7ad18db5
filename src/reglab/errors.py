"""Exception types shared across the package.

The CLI maps these onto exit codes: input problems exit 2, resource limits
exit 3, failed mathematical cross-checks exit 1. Every Tate degree is an
input tate accepts; a degree whose resolution grows wider than
REGLAB_LIMIT_COLS is a resource limit.
"""


class ValidationError(ValueError):
    """An input object violates a structural invariant; message names a witness."""


class InputError(ValueError):
    """Malformed JSON, unknown identifiers, bad CLI arguments."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured size cap."""


class ConsistencyError(AssertionError):
    """Two independent routes to the same value disagreed.

    This is always a bug (or a genuinely false identity); it never indicates
    bad user input, so it is kept distinct from ValidationError.
    """
