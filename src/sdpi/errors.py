"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ShapeError(ValueError):
    """Inputs are structurally incompatible (misaligned grids, size mismatch)."""


class NoSolutionError(RuntimeError):
    """A threshold solver found no admissible value in its search range."""


class BudgetError(RuntimeError):
    """An enumeration or allocation would exceed its budget."""


class ProfileFailureError(RuntimeError):
    """No valid characteristic-function decay profile exists for this noise."""


class AccuracyError(RuntimeError):
    """A quadrature routine cannot meet its accuracy target."""

