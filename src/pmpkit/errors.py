"""Exception types shared across the toolkit."""


class NumericalError(RuntimeError):
    """A computation failed for numerical reasons (not a usage error)."""


class IntegrationBlowUp(NumericalError):
    """The integrated state became non-finite."""


class ChatteringError(NumericalError):
    """A switching-time locator found more sign changes than allowed."""

    def __init__(self, message, event_count=None):
        super().__init__(message)
        self.event_count = event_count


class UnreachableTargetError(NumericalError):
    """A shooting solver found no admissible trajectory hitting the target."""

    def __init__(self, message, best_residual=None, best_candidate=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.best_candidate = best_candidate
