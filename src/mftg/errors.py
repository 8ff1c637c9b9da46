"""Exception types shared across the package."""


class MftgError(Exception):
    """Base class for all package errors."""


class ConfigSyntaxError(MftgError):
    """Scenario document could not be parsed; message carries line/column."""


class SchemaError(MftgError):
    """Parsed document violates the scenario schema (missing field, wrong
    type, forbidden family/field combination)."""


class ScenarioValidationError(MftgError):
    """Structurally complete scenario fails a validation condition."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        summary = "; ".join(d.message for d in self.diagnostics)
        super().__init__(f"scenario validation failed: {summary}")


class NumericDomainError(MftgError, ValueError):
    """Numeric kernel called outside its domain (non-finite input,
    zero lemma coefficient, unsampleable noise kind)."""


class CoefficientOverflowError(MftgError):
    """A backward coefficient exceeded 1e300; the closed loop is too unstable
    for the requested cost order and horizon."""


class MissingMomentError(MftgError):
    """An explicit-moment noise table lacks a required even order."""


class ResourceLimitError(MftgError):
    """A scenario's tables or a requested Monte Carlo size exceed their
    memory ceiling."""
