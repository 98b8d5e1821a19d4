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
    """{m: p_t^{nu+m}(x, y)} on every pair of a batch, written out: the
    Bessel functions at bessel_xy / 2t, the prefactor
    sqrt(xy)/2t exp(-(x-y)^2/4t) at each pair's own product xy = x*y, and
    the prefactors at most 1e-280 set to 0 when fewer than 85% of more than
    512 exceed it.  With bessel_xy = x*y this is the pointwise kernel."""
    xy, d2 = x * y, (x - y) ** 2
    common = np.sqrt(xy) / (2.0 * t) * np.exp(-d2 / (4.0 * t))
    if common.size > 512 and np.count_nonzero(common > 1e-280) / common.size < 0.85:
        common[common <= 1e-280] = 0.0
    rows = besseli_scaled([nu + m for m in shifts], bessel_xy / (2.0 * t))
    return {m: row * common for m, row in zip(shifts, rows)}
