"""Deterministic sampling tests, including the generator reference stream."""

import numpy as np
import pytest

from besselops.sampling import (
    _worst,
    loguniform,
    make_rng,
    sample_kernel_points,
    sample_offdiag_pairs,
    sample_smooth_triples,
)


def test_philox_reference_stream():
    # Counter-based generator with a published spec: this stream must be
    # identical on every platform.
    got = make_rng(42).random(3)
    expected = [0.8201981478608876, 0.18924562408645496, 0.8676608148821462]
    assert np.allclose(got, expected, rtol=0, atol=1e-16)


def test_streams_are_reproducible_and_nested():
    a = sample_kernel_points(make_rng(7), 1000, 2)
    b = sample_kernel_points(make_rng(7), 1000, 2)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


def test_worst_reads_every_column_at_the_first_maximum():
    ratio = np.array([1.0, 3.0, 2.0, 3.0])
    x = np.arange(8.0).reshape(2, 4)
    got = _worst(ratio, x=x, lhs=ratio / 2.0, index=np.arange(4), ratio=ratio)
    assert got == {"x": [1.0, 5.0], "lhs": 1.5, "index": 1, "ratio": 3.0}
    assert type(got["index"]) is int and type(got["lhs"]) is float
    assert all(type(v) is float for v in got["x"])


def test_kernel_points_domain():
    t, x, y = sample_kernel_points(make_rng(3), 4000, 2)
    assert t.shape == (4000,) and x.shape == (2, 4000)
    assert np.all(t > 0) and np.all(x > 0) and np.all(y > 0)
    # the interleaved near-diagonal component ties scales to sqrt(t)
    near = np.arange(4000) % 4 == 0
    ratios = np.max(np.abs(np.log(y[:, near] / np.sqrt(t[near]))), axis=0)
    assert np.all(ratios <= -np.log(3e-2) + 1e-9)


def mask_kernel_points(rng, count, n, t_range=(1e-4, 1e2), box=(1e-2, 20.0)):
    """sample_kernel_points with its near-diagonal quarter picked by a mask."""
    t = loguniform(rng, t_range[0], t_range[1], count)
    x = loguniform(rng, box[0], box[1], (n, count))
    y = loguniform(rng, box[0], box[1], (n, count))
    scales = loguniform(rng, 3e-2, 3e1, (n, count))
    eta = loguniform(rng, 1e-1, 3e1, count)
    v = rng.normal(size=(n, count))
    u = v / np.sqrt(np.sum(v * v, axis=0))
    near = np.arange(count) % 4 == 0
    rt = np.sqrt(t[near])
    y[:, near] = rt * scales[:, near]
    step = rt * eta[near] * u[:, near]
    cand = y[:, near] + step
    x[:, near] = np.where(cand > 0.0, cand, y[:, near] + np.abs(step))
    return t, x, y


@pytest.mark.parametrize("n, count", [(1, 1000), (2, 1000), (1, 1003), (2, 2)])
def test_kernel_points_stride_matches_the_mask(n, count):
    got = sample_kernel_points(make_rng(11), count, n)
    want = mask_kernel_points(make_rng(11), count, n)
    for u, v in zip(got, want):
        assert np.array_equal(u, v)


def test_offdiag_pairs():
    x, y, r = sample_offdiag_pairs(make_rng(5), 3000, 2, min_sep=1e-2)
    d = np.sqrt(np.sum((x - y) ** 2, axis=0))
    assert np.all(y > 0)
    # separation preserved unless a sign flip changed the direction
    flipped = np.any(y - x != np.broadcast_to(r, d.shape)[None, :] * 0 + (y - x), axis=0)
    assert np.all(d >= 1e-2 * 0.99) or flipped.any()
    assert np.all(d > 0)


def test_smooth_triples_constraint():
    x, y, yp, r = sample_smooth_triples(make_rng(9), 3000, 2, min_sep=1e-2)
    d = np.sqrt(np.sum((x - y) ** 2, axis=0))
    dp = np.sqrt(np.sum((y - yp) ** 2, axis=0))
    assert np.all(yp > 0)
    assert np.all(dp <= 0.5 * d + 1e-12)


def test_loguniform_range():
    v = loguniform(make_rng(1), 1e-3, 1e2, 10000)
    assert v.min() >= 1e-3 and v.max() <= 1e2
