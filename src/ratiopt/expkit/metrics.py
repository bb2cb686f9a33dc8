"""Recovery and prediction metrics."""

from __future__ import annotations

import numpy as np

from ..exceptions import DimensionMismatch, ZeroReference
# re-exported: defined in model so that admm, below expkit, can share it
from ..model import relerr  # noqa: F401


def _pair(x, y):
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise DimensionMismatch(f"shapes {x.shape} and {y.shape} differ")
    return x, y


def rerr(x, xstar) -> float:
    """Recovery error ||x - x*|| / ||x*||."""
    x, xstar = _pair(x, xstar)
    nrm = np.linalg.norm(xstar)
    if nrm == 0.0:
        raise ZeroReference("rerr needs a nonzero reference")
    return float(np.linalg.norm(x - xstar) / nrm)


def iacc(x1, x2) -> float:
    """Fraction of coordinates agreeing on zero/nonzero status."""
    x1, x2 = _pair(x1, x2)
    return float(np.mean((x1 != 0.0) == (x2 != 0.0)))


def tmse(A_test, b_test, x) -> float:
    """Held-out mean squared prediction error."""
    A_test = np.atleast_2d(np.asarray(A_test, dtype=float))
    b_test = np.asarray(b_test, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    if A_test.shape[0] != b_test.shape[0] or A_test.shape[1] != x.shape[0]:
        raise DimensionMismatch("test data and x have incompatible shapes")
    res = A_test @ x - b_test
    return float(res @ res / b_test.shape[0])
