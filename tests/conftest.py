"""Shared fixtures."""

import numpy as np
import pytest

import besselops.heat as heat
from besselops.special import besseli_scaled


class BesselCalls(list):
    """(orders, arguments) of each ``besseli_scaled`` call made by ``heat``."""

    def assert_blocks(self, nodes):
        """The calls evaluate the per-node arguments ``nodes`` in node order,
        concatenated: every call ends on a node boundary, every call but the
        last holds at least ``heat._BESSEL_BLOCK`` arguments, and none holds
        a node more than it needs to reach that."""
        assert self, "no Bessel call"
        assert np.array_equal(
            np.concatenate([z for _, z in self]), np.concatenate([np.ravel(z) for z in nodes])
        )
        sizes = [np.size(z) for z in nodes]
        last_node = {end: size for end, size in zip(np.cumsum(sizes).tolist(), sizes)}
        end = 0
        for i, (_, z) in enumerate(self):
            end += z.size
            assert end in last_node, "a call ends inside a node"
            assert z.size - last_node[end] < heat._BESSEL_BLOCK
            assert i == len(self) - 1 or z.size >= heat._BESSEL_BLOCK


@pytest.fixture
def bessel_calls(monkeypatch) -> BesselCalls:
    calls = BesselCalls()
    bessel = heat.besseli_scaled

    def recorded(alpha, z):
        calls.append((list(np.atleast_1d(alpha)), np.array(z, dtype=float).ravel()))
        return bessel(alpha, z)

    monkeypatch.setattr(heat, "besseli_scaled", recorded)
    return calls


def class_products(axis) -> np.ndarray:
    """The n x n matrix of the product-class representatives of an axis:
    entry (i, j) is distinct[inverse] of the pair {i, j} (``Axis.pairs``)."""
    _, _, distinct, inverse, i, j = axis.pairs
    out = np.empty((axis.size, axis.size))
    out[i, j] = distinct[inverse]
    out[j, i] = distinct[inverse]
    return out


def class_ladder(nu, shifts, t, x, y, bessel_xy) -> dict:
    """{m: p_t^{nu+m}(x, y)} on every pair of a batch, written out as a
    grid ladder forms it: the Bessel functions at bessel_xy / 2t and the
    prefactor sqrt(xy)/2t exp(-(x-y)^2/4t) at each pair's own product
    xy = x*y, every entry as computed (+0 only where the Gaussian factor
    underflows)."""
    xy, d2 = x * y, (x - y) ** 2
    common = np.sqrt(xy) / (2.0 * t) * np.exp(-d2 / (4.0 * t))
    rows = besseli_scaled([nu + m for m in shifts], bessel_xy / (2.0 * t))
    return {m: row * common for m, row in zip(shifts, rows)}


def underflow_regime(d2, t) -> str:
    """How many of the pairs with squared distances ``d2`` lie past the
    exact-underflow cut at time t (an array t broadcasts with d2), where
    the Gaussian factor exp(-d2/4t) is exactly 0.0 and every ladder holds
    +0: none of them, some, or most (more than half)."""
    dead = np.exp(-d2 / (4.0 * np.asarray(t, dtype=float))) == 0.0
    count = np.count_nonzero(dead)
    return "none" if count == 0 else "most" if 2 * count > dead.size else "some"
