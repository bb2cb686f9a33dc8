"""Exception hierarchy for ratiopt."""


class RatioptError(Exception):
    """Base class for all ratiopt errors."""


class DimensionMismatch(RatioptError):
    """Operands have incompatible shapes."""


class ConeViolation(RatioptError):
    """A point lies outside the feasible cone."""


class SingularResidual(RatioptError):
    """Residual-norm fidelity evaluated where Ax = b (gradient undefined)."""


class NonConvergence(RatioptError):
    """An iterative subroutine exhausted its iteration budget."""


class InnerNoConvergence(NonConvergence):
    """The inner y-subproblem solver exhausted its iteration budget."""


class ZeroVector(RatioptError):
    """Operation requires a nonzero vector."""


class ZeroEntry(RatioptError):
    """Reduced-space vector left the manifold interior (has a zero entry)."""


class FactorizationFailure(RatioptError):
    """Linear-system factorization failed (bad beta or non-finite data)."""


class LineSearchStall(RatioptError):
    """Backtracking line search exceeded its backtrack budget."""

    def __init__(self, message, alpha=None):
        super().__init__(message)
        self.alpha = alpha


class EmptySupportAfterShrink(RatioptError):
    """Hard shrinkage removed every entry; tau is too large."""


class DegenerateColumn(RatioptError):
    """A data column is constant and cannot be standardized."""


class ZeroReference(RatioptError):
    """Relative-error metric called with a zero reference vector."""


class NotPositiveDefinite(RatioptError):
    """Matrix expected to be symmetric positive definite is not."""
