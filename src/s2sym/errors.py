"""Exception types shared across the package."""


class InvalidParametersError(ValueError):
    """Inputs are well formed but outside the admissible parameter domain."""


class InvalidThetaError(InvalidParametersError):
    """The matrix is not in SL2(Z) with trace in {-2, -1, 0, 1} (finite order)."""


class NotGeneratingError(ValueError):
    """A generator triple cannot generate the discrete group (hcf precondition)."""


class NotAnAutomorphismError(ValueError):
    """Parameters (zeta, chi, beta1, gamma1) violate an automorphism condition."""


class NotElasticError(ValueError):
    """An automorphism of D that does not extend to the continuous group."""


class InternalInconsistencyError(RuntimeError):
    """A mathematically guaranteed invariant failed; indicates a bug, not bad input."""
