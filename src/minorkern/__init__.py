"""Numerical laboratory for classical projection (minor-type) eigenvalue processes.

Finite-N determinantal correlation kernels for the Gaussian, Laguerre and
Jacobi chains, seeded Monte Carlo samplers, lattice / last-passage models,
scaling-limit kernels, and the validation machinery tying them together.
"""

from .orthopoly import (
    GAUSSIAN,
    JACOBI,
    LAGUERRE,
    EnsembleSpec,
    ShiftedFamily,
    airy,
    eval_eta,
    eval_poly,
    eval_weight,
)
from .kernel import (
    KernelValue,
    ProcessSpec,
    SpeciesPoint,
    correlation,
    density,
    kernel_K,
    phi_cap,
    phi_conv,
    psi,
)
from .numerics import NumericError

__version__ = "0.1.0"
