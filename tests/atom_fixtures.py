"""Bundled deterministic fixtures: six labeled atom candidates and the
dyadic-decomposition input.

The six atoms exercise each validator branch exactly once:

  1. valid-critical-radius   r = rho(x0), sign-changing, nonzero mean
  2. invalid-mean            r < rho(x0), p = 1, nonzero mean
  3. invalid-size            sup norm at twice the allowed bound
  4. valid-left-indicator    (1/delta) on (0, delta), delta = 1/2
  5. valid-interval-zero-mean two-level bump on (1, 2), discrete mean zero
  6. invalid-interval-mean   two-level bump with deliberately nonzero mean

Atom kinds 1-3 target the ball-based validator, 4-6 the 1-D two-kind
validator.  Everything is built from closed-form profiles on the given
grid so the fixtures are reproducible bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

from besselops.grids import Grid, GridFunction, default_grid, uniform_axis
from besselops.heat import critical_function
from besselops.spaces import AtomCandidate, Ball

__all__ = [
    "bundled_ball_atoms",
    "bundled_line_atoms",
    "decomposition_fixture",
]


def _bump_profile(dist, radius):
    """Smooth sign-changing radial profile supported strictly inside."""
    u = dist / radius
    out = np.where(u < 0.95, np.cos(3.0 * math.pi * u) * (0.95 - u) ** 2, 0.0)
    return out


def _project_zero_mean(values, weights, mask):
    """Subtract the weighted mean on the support, keeping the support."""
    m = float(np.sum(weights[mask] * values[mask]))
    vol = float(np.sum(weights[mask]))
    out = values.copy()
    out[mask] -= m / vol
    return out


def bundled_ball_atoms(grid: Grid | None = None):
    """The three labeled ball-atom fixtures on a 1-D grid.

    Returns a list of (label, AtomCandidate, expected_valid).
    """
    grid = grid or default_grid(1, nodes_per_axis=512)
    x = grid.axes[0].nodes
    w = grid.weight_array
    out = []

    # 1: critical radius, nonzero mean allowed.
    center, p = 4.0, 1.0
    rho = critical_function((center,))
    ball = Ball((center,), rho)
    dist = np.abs(x - center)
    prof = _bump_profile(dist, rho) + 0.3 * np.where(dist < 0.9 * rho, 1.0, 0.0)
    mask = dist < 0.95 * rho
    prof = np.where(mask, prof, 0.0)
    vals = prof * (0.9 * ball.volume ** (-1.0 / p) / np.max(np.abs(prof)))
    out.append(
        ("valid-critical-radius", AtomCandidate(GridFunction(grid, vals), ball, p), True)
    )

    # 2: subcritical radius with nonzero mean.
    ball2 = Ball((center,), rho / 2.0)
    dist2 = np.abs(x - center)
    mask2 = dist2 < 0.95 * ball2.radius
    prof2 = np.where(mask2, 1.0 - (dist2 / ball2.radius) ** 2, 0.0)
    vals2 = prof2 * (0.9 * ball2.volume ** (-1.0 / p) / np.max(np.abs(prof2)))
    out.append(
        ("invalid-mean", AtomCandidate(GridFunction(grid, vals2), ball2, p), False)
    )

    # 3: mean-zero but twice the size bound.
    ball3 = Ball((center,), rho / 2.0)
    prof3 = np.where(mask2, _bump_profile(dist2, ball3.radius), 0.0)
    prof3 = _project_zero_mean(prof3, w, mask2)
    vals3 = prof3 * (2.0 * ball3.volume ** (-1.0 / p) / np.max(np.abs(prof3)))
    out.append(
        ("invalid-size", AtomCandidate(GridFunction(grid, vals3), ball3, p), False)
    )
    return out


def bundled_line_atoms(grid: Grid | None = None):
    """The three labeled 1-D two-kind fixtures: (label, GridFunction, expected)."""
    grid = grid or default_grid(1, nodes_per_axis=512)
    x = grid.axes[0].nodes
    w = grid.weight_array
    out = []

    # 4: left indicator of height 1/delta.
    delta = 0.5
    vals = np.where(x < delta, 1.0 / delta, 0.0)
    out.append(("valid-left-indicator", GridFunction(grid, vals), True))

    # 5: two-level bump on (1, 2), discrete mean zero, sup = 1/|I|.
    left = (x > 1.0) & (x <= 1.5)
    right = (x > 1.5) & (x < 2.0)
    m_left = float(np.sum(w[left]))
    m_right = float(np.sum(w[right]))
    vals5 = np.where(left, 1.0 / m_left, 0.0) - np.where(right, 1.0 / m_right, 0.0)
    vals5 = vals5 / np.max(np.abs(vals5))  # sup exactly 1 = 1/|I|
    out.append(("valid-interval-zero-mean", GridFunction(grid, vals5), True))

    # 6: same shape with the negative half shrunk: mean clearly nonzero.
    vals6 = np.where(left, 1.0, 0.0) - np.where(right, 0.4, 0.0)
    out.append(("invalid-interval-mean", GridFunction(grid, vals6), False))
    return out


def decomposition_fixture(big_n: int = 1):
    """Atom input for the dyadic decomposition test (n = 1, p = 1).

    Supported in a ball with r = rho/32 (five dyadic levels to the
    critical radius); its mean is held at half the bound
    (r/rho)^{2 big_n} |B|^{1 - 1/p} that the dyadic decay test assumes.
    """
    center = 4.0
    rho = critical_function((center,))
    radius = rho / 32.0
    grid = Grid((uniform_axis(3.0, 5.5, 4097),))
    x = grid.axes[0].nodes
    w = grid.weight_array
    ball = Ball((center,), radius)
    dist = np.abs(x - center)
    mask = dist < 0.95 * radius
    osc = np.where(mask, np.sin(2.0 * math.pi * dist / radius) * (0.95 - dist / radius), 0.0)
    osc = _project_zero_mean(osc, w, mask)
    pos = np.where(mask, (0.95 - dist / radius) ** 2, 0.0)
    target_mean = 0.5 * (radius / rho) ** (2 * big_n) * (2.0 * radius) ** 0.0
    pos_mean = float(np.sum(w * pos))
    vals = osc + (target_mean / pos_mean) * pos
    sup_bound = (2.0 * radius) ** -1.0
    scale = 0.9 * sup_bound / np.max(np.abs(vals))
    if scale < 1.0:
        # rescaling would break the mean target; the profile is built so
        # this cannot happen for big_n = 1
        raise RuntimeError("fixture profile exceeds the atom size bound")
    return AtomCandidate(GridFunction(grid, vals), ball, 1.0)
