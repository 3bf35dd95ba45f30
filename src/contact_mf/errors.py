"""Error taxonomy shared across the package.

The CLI maps these onto process exit codes (see the exit-code list in
cli.py's module docstring).
"""


class UsageError(ValueError):
    """Bad arguments or configuration: wrong dimension, invalid grid, bad flag."""


class NumericalError(RuntimeError):
    """A numerical procedure failed: non-convergence, detected instability,
    or parameters outside a formula's domain."""


class InvariantViolation(RuntimeError):
    """A mathematical identity that must hold pathwise or to tolerance did not."""
