"""Exception types shared across the package.

Each type carries the CLI's exit code for it: guard violations (work too
large for an exhaustive path) -> 3, numerical failures -> 4.  Malformed
input and bad usage (``FormatError`` and any other ``ValueError``) -> 2.
"""


class GuardError(RuntimeError):
    """A command asked an exhaustive or dense-linear-algebra path to exceed its size guard; the CLI raises it."""

    exit_code = 3


class NumericError(RuntimeError):
    """A numerical procedure failed (non-finite values, no feasible point, ...)."""

    exit_code = 4


class FormatError(ValueError):
    """A text artifact (formula file, sample file, predictor file, ...) is malformed."""
