"""Shared fixtures."""

import numpy as np
import pytest

import besselops.heat as heat


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
