"""Sparse recovery with the L1-over-L2 ratio penalty.

Solvers for min_x gamma * ||x||_1 / ||x||_2 + Phi(x): an exact proximal
operator for the ratio term, an ADMM splitting, and a two-phase scheme that
switches to a semismooth Newton method once the support settles.
"""

from .admm import AdmmState, run_admm, run_admm_l1_baseline
from .hafam import run_hafam
from .model import (Cone, Fidelity, NewtonConfig, Problem, SolverConfig,
                    certificate, fidelity_grad, lipschitz_estimate,
                    objective, ratio, relerr, subgradient_distance)
from .prox import (ProxQuery, fraction_tau, hard_shrink_support,
                   prox_l1_over_l2, soft_threshold)
from .ssnewton import run_ssnewton

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Cone", "Fidelity", "Problem", "SolverConfig", "NewtonConfig",
    "ratio", "relerr", "objective", "fidelity_grad", "certificate",
    "subgradient_distance", "lipschitz_estimate",
    "ProxQuery", "prox_l1_over_l2", "hard_shrink_support", "soft_threshold",
    "fraction_tau",
    "AdmmState", "run_admm", "run_admm_l1_baseline",
    "run_ssnewton",
    "run_hafam",
]
