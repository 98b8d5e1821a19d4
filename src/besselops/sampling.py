"""Deterministic sampling for verification sweeps.

All randomness flows through numpy's Philox generator, a 64-bit
counter-based generator with a published specification and identical
streams across platforms.  Reference stream (checked in the tests):

    Generator(Philox(key=42)).random(3)
      == [0.8201981478608876, 0.18924562408645496, 0.8676608148821462]

Sample plans are nested: a refinement level doubles the count and the
first half of the samples reproduces the previous level, so fitted
constants are monotone under refinement.

Every campaign's verdict follows one refinement ladder: a sample scores
lhs/rhs (``_ratios``, the one ratio rule, which ``riesz`` uses too),
level ``lev`` is the prefix of ``base * 2**lev`` samples,
``_level_maxima`` takes the maximum on each level and ``_drift`` the
largest relative step between levels.  ``_verdict`` is ``violated`` once
a level is not finite, else ``stable`` below the drift gate
``DRIFT_GATE`` and ``unstable`` at or above it.  The worst sample is the
first one where the score is largest (``_worst``).  An atom family is
uniformly bounded when max/median of its quasi-norms is at most
``UNIFORMITY_GATE`` at every level.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DRIFT_GATE",
    "UNIFORMITY_GATE",
    "make_rng",
    "loguniform",
    "sample_kernel_points",
    "sample_offdiag_pairs",
    "sample_smooth_triples",
]


DRIFT_GATE = 0.05
UNIFORMITY_GATE = 10.0


def _level_maxima(values, base: int, levels: int) -> list[float]:
    """Maxima over the nested prefixes of base * 2**lev entries."""
    return [float(np.max(values[: base * 2**lev])) for lev in range(levels)]


def _ratios(lhs, rhs) -> np.ndarray:
    """lhs/rhs per sample, where x/0 scores inf and 0/0 scores 0."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(rhs > 0.0, lhs / rhs, np.where(lhs > 0.0, np.inf, 0.0))


def _worst(ratio, /, **columns) -> dict:
    """Each column at the first sample where ``ratio`` is largest: a 2-D
    column (one row per coordinate) as a list, a 1-D column as a Python
    scalar, so an int column gives an int."""
    i = int(np.argmax(ratio))
    return {
        name: col[:, i].tolist() if col.ndim == 2 else col[i].item()
        for name, col in columns.items()
    }


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D array, bit for bit, nan if it holds a nan:
    the mean of its one or two middle values, which ``np.median`` takes
    too.  ``np.median`` imports ``numpy.ma`` for its nan check; this does
    not."""
    s = np.sort(values)
    if np.isnan(s[-1]):
        return math.nan
    m = s.size // 2
    middle = s[m : m + 1] if s.size % 2 else s[m - 1 : m + 1]
    return float(middle.sum() / middle.size)


def _drift(values) -> float:
    """Largest relative step between consecutive refinement levels; inf
    once a level is not finite."""
    worst = 0.0
    for a, b in zip(values, values[1:]):
        if math.isfinite(a) and a > 0:
            worst = max(worst, abs(b - a) / a)
        elif not math.isfinite(a) or not math.isfinite(b):
            worst = math.inf
    return worst


def _verdict(levels, drift) -> str:
    if not all(map(math.isfinite, levels)):
        return "violated"
    return "stable" if drift < DRIFT_GATE else "unstable"


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def loguniform(rng: np.random.Generator, lo: float, hi: float, size) -> np.ndarray:
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def sample_kernel_points(
    rng, count: int, n: int, t_range=(1e-4, 1e2), box=(1e-2, 20.0)
):
    """(t, x, y) samples: t log-uniform, coordinates log-uniform on the box.

    Every fourth sample from index 0 (the stride ``[::4]``) is
    near-diagonal: plain independent sampling starves the x ~ y regime in
    product dimension, where several bounds attain their suprema.
    Interleaving keeps nested prefixes homogeneous so refinement maxima are
    monotone and comparable.

    Returns t of shape (count,) and x, y of shape (n, count).
    """
    t = loguniform(rng, t_range[0], t_range[1], count)
    x = loguniform(rng, box[0], box[1], (n, count))
    y = loguniform(rng, box[0], box[1], (n, count))
    # Every fourth sample explores the scaled landscape directly:
    # coordinates and separations drawn in units of sqrt(t), where the
    # weighted bounds turn over and their suprema live.  Independent
    # log-uniform draws starve that manifold in product dimension.
    scales = loguniform(rng, 3e-2, 3e1, (n, count))
    eta = loguniform(rng, 1e-1, 3e1, count)
    u = _unit_vectors(rng, n, count)
    rt = np.sqrt(t[::4])
    y[:, ::4] = rt * scales[:, ::4]
    step = rt * eta[::4] * u[:, ::4]
    cand = y[:, ::4] + step
    x[:, ::4] = np.where(cand > 0.0, cand, y[:, ::4] + np.abs(step))
    return t, x, y


def _unit_vectors(rng, n: int, count: int) -> np.ndarray:
    v = rng.normal(size=(n, count))
    norms = np.sqrt(np.sum(v * v, axis=0))
    # Philox normals are continuous; exact zeros do not occur.
    return v / norms


def sample_offdiag_pairs(rng, count: int, n: int, box=(0.1, 10.0), min_sep=1e-2):
    """Pairs (x, y) with |x - y| >= min_sep, positivity kept by sign flips.

    y = x + r u with r log-uniform in [min_sep, box diameter] and u a random
    unit vector; any coordinate that would leave the open orthant has its
    direction component flipped, which preserves |x - y| = r.
    """
    diam = (box[1] - box[0]) * np.sqrt(n)
    x = loguniform(rng, box[0], box[1], (n, count))
    r = loguniform(rng, min_sep, diam, count)
    u = _unit_vectors(rng, n, count)
    y = x + r * u
    bad = y <= 0.0
    y = np.where(bad, x + r * np.abs(u), y)
    return x, y, r


def sample_smooth_triples(rng, count: int, n: int, box=(0.1, 10.0), min_sep=1e-2):
    """Triples (x, y, y') with |y - y'| <= |x - y|/2, by construction.

    y' = y + theta (|x-y|/2) v with v a unit vector and the same
    positivity-preserving sign flip as the pairs.  theta = u^{1/4} biases
    toward the admissibility boundary |y - y'| = |x - y|/2, where the
    difference-quotient suprema sit; small theta still receives mass.
    """
    x, y, r = sample_offdiag_pairs(rng, count, n, box, min_sep)
    idx = np.arange(count)
    # Corner stratum: the difference-quotient suprema are scale invariant
    # and attained as one coordinate of y degenerates toward the axis;
    # every eighth sample pins one y coordinate near the box floor.
    corner = idx % 8 == 4
    if np.any(corner):
        cols = idx[corner]
        rows = (cols // 8) % n
        floor_vals = box[0] * np.exp(rng.uniform(0.0, 0.5, cols.size))
        keep_sep = x[rows, cols] >= 4.0 * box[0]
        y[rows[keep_sep], cols[keep_sep]] = floor_vals[keep_sep]
    d = np.sqrt(np.sum((x - y) ** 2, axis=0))
    theta = (1.0 - rng.uniform(0.0, 1.0, count)) ** 0.25  # in (0, 1]
    boundary = idx % 4 == 0
    theta[boundary] = 1.0  # exact admissibility boundary
    v = _unit_vectors(rng, n, count)
    # Quotients also peak when y' moves straight toward x; point the
    # boundary-theta samples at the midpoint configuration.
    v[:, boundary] = ((x - y) / d)[:, boundary]
    step = theta * 0.5 * d
    yp = y + step * v
    bad = yp <= 0.0
    yp = np.where(bad, y + step * np.abs(v), yp)
    return x, y, yp, d
