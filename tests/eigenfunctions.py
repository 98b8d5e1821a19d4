"""The oscillatory generalized eigenfunctions of the Bessel operator, a test
oracle: phi_lam(x) = prod_j (lam_j x_j)^{1/2} J_{nu_j}(lam_j x_j) satisfies
e^{-tL} phi_lam = e^{-t |lam|^2} phi_lam and R_j phi_lam^nu = -phi_lam^{nu+e_j}.

J comes from ``scipy.special.jv``, which shares no code with
``besselops.special``, so the checks built on it are independent of the
Bessel functions they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sps

from besselops.errors import DomainError
from besselops.grids import Grid, GridFunction
from besselops.heat import as_nu_vector

__all__ = ["EigenfunctionSpec", "eigenfunction", "eigenfunction_gridfn"]


@dataclass(frozen=True)
class EigenfunctionSpec:
    """Frequency vector of the oscillatory generalized eigenfunction."""

    lam: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(float(v) for v in np.atleast_1d(self.lam)))
        if any(v <= 0.0 for v in self.lam):
            raise DomainError("frequency components must be positive")

    @property
    def norm2(self) -> float:
        return float(sum(v * v for v in self.lam))


def eigenfunction(nu, spec: EigenfunctionSpec, x) -> float:
    """phi_lam(x) = prod_j (lam_j x_j)^{1/2} J_{nu_j}(lam_j x_j)."""
    nu = as_nu_vector(nu)
    xs = tuple(float(v) for v in np.atleast_1d(x))
    if len(xs) != nu.n or len(spec.lam) != nu.n:
        raise DomainError("dimension mismatch")
    if any(v <= 0.0 for v in xs):
        raise DomainError("coordinates must be positive")
    out = 1.0
    for j in range(nu.n):
        z = spec.lam[j] * xs[j]
        out *= math.sqrt(z) * float(sps.jv(nu.nu[j], z))
    return out


def eigenfunction_gridfn(nu, spec: EigenfunctionSpec, grid: Grid) -> GridFunction:
    """phi_lam sampled on the tensor grid (separable, built per axis)."""
    nu = as_nu_vector(nu)
    vals = None
    for j in range(grid.ndim):
        z = spec.lam[j] * grid.axes[j].nodes
        fj = np.sqrt(z) * sps.jv(nu.nu[j], z)
        vals = fj if vals is None else np.multiply.outer(vals, fj)
    return GridFunction(grid, vals)
