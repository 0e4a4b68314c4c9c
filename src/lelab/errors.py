"""Exception types shared across the package."""


class DimensionCapError(ValueError):
    """Requested object exceeds a configured size cap."""


class StateValidationError(ValueError):
    """A state failed its structural invariants (Hermiticity, trace, positivity, mass)."""


class ConfigError(ValueError):
    """Config text failed validation.  Carries a list of (field_path, message) pairs."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{path or '<config>'}: {msg}" for path, msg in self.errors))


class InvariantViolation(RuntimeError):
    """A physics invariant failed on data produced by a run."""
