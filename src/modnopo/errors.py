"""Exception types shared across the simulation modules."""


class InvalidParameterError(ValueError):
    """A model parameter violates its documented invariant."""


class BelowThresholdError(RuntimeError):
    """The asymptotic photon-number integral diverges (period-averaged pump
    at or below threshold); the caller must fall back to the zero orbit."""


class TruncationError(RuntimeError):
    """A truncated Fock state accumulated too much population near the
    cutoff, or lost its norm.  The closed-form tail quadratures never raise
    it: they integrate one period exactly and sum the rest in closed form."""


class ConvergenceError(RuntimeError):
    """A periodic state was not reached.  Raised before any work where no
    periodic state attracts: the closed form's decay D = K(T, T) is not
    > 0, or an ODE period loop's multiplier m is not below 1.  Raised by a
    period loop that ran MAX_PERIODS periods; was refused after its second
    period because its predicted period count was over twice that, or once
    it ran past twice its prediction plus ten; or stopped with an error
    bound over the routes' tolerance."""


class CrossCheckError(RuntimeError):
    """The two independent computational routes (direct ODE integration and
    closed-form quadrature) disagree beyond the allowed tolerance."""


class DivergenceError(RuntimeError):
    """A single phase-space trajectory exceeded the divergence guard."""


class DivergenceBudgetError(RuntimeError):
    """The fraction of discarded (diverged) trajectories exceeded the
    acceptable budget; ensemble averages would be biased."""


class FockDimensionError(ValueError):
    """Requested Fock truncation exceeds the configured memory budget."""
