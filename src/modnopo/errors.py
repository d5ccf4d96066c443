"""Exception types shared across the simulation modules."""


class InvalidParameterError(ValueError):
    """A model parameter violates its documented invariant."""


class BelowThresholdError(RuntimeError):
    """The asymptotic photon-number integral diverges (period-averaged pump
    at or below threshold); the caller must fall back to the zero orbit."""


class TruncationError(RuntimeError):
    """A truncated Fock state accumulated too much population near the
    cutoff."""


class ConvergenceError(RuntimeError):
    """A periodic state was not reached.  Raised before any work where no
    periodic state attracts: one period's decay D (a deviation shrinks by
    exp(-D)) is not > 0, in the closed form and the ODE routes alike.
    Raised by an ODE route whose shot periodic state has an error bound
    over CROSS_TOL: its last period's end-to-start change, floored at a
    rounding of the start, over 1 - exp(-D)."""


class CrossCheckError(RuntimeError):
    """The two independent computational routes (direct ODE integration and
    closed-form quadrature) disagree beyond the allowed tolerance."""


class DivergenceBudgetError(RuntimeError):
    """The fraction of discarded (diverged) trajectories exceeded the
    acceptable budget; ensemble averages would be biased."""


class FockDimensionError(ValueError):
    """Requested Fock truncation exceeds the configured memory budget."""
