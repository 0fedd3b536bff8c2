"""Exception types shared across the package."""


class DegeneratePairError(ValueError):
    """Coefficient pair so close to the unit bound that the matrix form collapses."""


class NonEllipticError(ValueError):
    """A matrix (or matrix field) fails one of the two positivity requirements."""


class MeshBudgetError(RuntimeError):
    """Requested mesh would exceed the configured triangle budget."""


class SolverError(RuntimeError):
    """Linear solve failed or missed its residual gate."""


class ConfigError(ValueError):
    """Experiment configuration failed validation; names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field
