"""Grid calculus tests: quadrature semantics, semigroup action, maximal
function, norms, eigenfunctions, finite-difference delta, serialization."""

import math

import numpy as np
import pytest
from scipy import special as sps

import besselops.grids as grids
import besselops.heat as heat
from besselops.errors import DomainError, GridError, UnderResolvedError
from besselops.grids import (
    Axis,
    EigenfunctionSpec,
    Grid,
    GridFunction,
    T_GRID_DEFAULT,
    apply_delta_fd,
    apply_semigroup,
    default_grid,
    eigenfunction,
    eigenfunction_gridfn,
    gridfunction_from_csv,
    gridfunction_to_csv,
    log_axis,
    lp_norm,
    maximal_function,
    uniform_axis,
    _kernel_matrices,
    _maximal_values,
    _semigroup_values,
    _trapezoid_weights,
)
from besselops.heat import NuVector, _p1d, eval_delta_heat_1d, heat_kernel_1d
from besselops.special import _SERIES_EDGES, besselj
from conftest import class_ladder, class_products


def live_regime(axis, t) -> str:
    """Which branch of the ladder's live rule the axis's pairs take at time t:
    fewer than 85% of the prefactors above 1e-280, 85-100%, or all of them."""
    x = axis.nodes
    iu = np.triu_indices(axis.size)
    xy, d2 = x[iu[0]] * x[iu[1]], (x[iu[0]] - x[iu[1]]) ** 2
    live = np.count_nonzero(np.sqrt(xy) / (2.0 * t) * np.exp(-d2 / (4.0 * t)) > 1e-280)
    if live == xy.size:
        return "all"
    return "most" if live / xy.size >= 0.85 else "few"


def regime_times(axis) -> dict:
    """The first time of a log-spaced scan in each live regime."""
    times = {}
    for t in np.geomspace(1e-4, 10.0, 51):
        times.setdefault(live_regime(axis, t), float(t))
    assert sorted(times) == ["all", "few", "most"]
    return times


def kernel_matrix(nu, t, axis):
    """The semigroup kernel matrix at the one time t."""
    return next(_kernel_matrices(nu, (t,), axis))


def all_pairs_kernel_matrix(nu, t, axis, own_products=False):
    """The semigroup kernel matrix from every pair of the triangle, in the
    order of ``np.triu_indices``, mirrored and weighted: the Bessel function
    at the pair's class representative (``class_ladder``), or with
    ``own_products`` the pointwise kernel at the pair's own product."""
    x = axis.nodes
    iu = np.triu_indices(x.size)
    if own_products:
        vals = _p1d(nu, t, x[iu[0]], x[iu[1]])
    else:
        vals = class_ladder(nu, (0,), t, x[iu[0]], x[iu[1]], class_products(axis)[iu])[0]
    out = np.empty((x.size, x.size))
    out[iu] = vals
    out.T[iu] = vals
    return out * axis.weights[None, :]


class TestGridConstruction:
    def test_weight_sum_matches_box_measure(self):
        ax = log_axis(1e-2, 20.0, 257)
        assert np.all(ax.weights > 0)
        assert float(np.sum(ax.weights)) == pytest.approx(20.0 - 1e-2, abs=1e-12)
        g = Grid((ax, uniform_axis(0.5, 4.0, 129)))
        measure = (20.0 - 1e-2) * 3.5
        assert float(np.sum(g.weight_array)) == pytest.approx(measure, rel=1e-13)

    @pytest.mark.parametrize(
        "kind,axis",
        [("log", log_axis(1e-2, 20.0, 64)), ("uniform", uniform_axis(0.05, 10.0, 33))],
        ids=["log", "uniform"],
    )
    def test_pairs_are_the_triangle_sorted_by_distance(self, kind, axis):
        xy, d2, distinct, inverse, i, j = axis.pairs
        x = axis.nodes
        assert i.dtype == j.dtype == inverse.dtype == np.int32
        assert np.all(np.diff(d2) >= 0.0)
        assert np.array_equal(d2, (x[i] - x[j]) ** 2)
        assert np.array_equal(xy, x[i] * x[j])
        # The product classes are numbered by first use in the sorted
        # order, so the pairs of any prefix use a prefix of them, and each
        # class's representative is the product of its first pair.
        ids, first = np.unique(inverse, return_index=True)
        assert np.array_equal(ids, np.arange(distinct.size))
        assert np.all(np.diff(first) > 0)
        assert np.array_equal(distinct, xy[first])
        if kind == "log":
            # x_i x_j depends on i + j alone: one class per index sum.
            assert distinct.size == 2 * axis.size - 1
            sums = np.empty(distinct.size, dtype=np.int64)
            sums[inverse] = i + j
            assert np.array_equal(sums[inverse], i + j)
        else:
            assert np.array_equal(xy, distinct[inverse])
            assert np.array_equal(np.sort(distinct), np.unique(xy))
        # (i, j) is a permutation of the triangle i <= j.
        iu = np.triu_indices(axis.size)
        assert np.array_equal(np.sort(i.astype(np.int64) * axis.size + j), iu[0] * axis.size + iu[1])

    def test_rejects_bad_axes(self):
        with pytest.raises(GridError):
            log_axis(0.0, 1.0, 32)
        with pytest.raises(GridError):
            uniform_axis(2.0, 1.0, 32)

    @pytest.mark.parametrize(
        "nodes",
        [
            [1.0, math.nan, 3.0],
            [1.0, 2.0, math.inf],
            [0.0, 1.0, 2.0],
            [-1.0, 1.0, 2.0],
            [1.0, 3.0, 2.0],
            [1.0, 2.0, 2.0, 3.0],
            [1.0, 2.0],
            [[1.0, 2.0, 3.0]],
        ],
        ids=["nan", "inf", "zero", "negative", "decreasing", "repeated", "two_nodes", "2d"],
    )
    def test_axis_refuses_bad_nodes(self, nodes):
        with pytest.raises(GridError):
            Axis(nodes)

    @pytest.mark.parametrize(
        "axis,ends",
        [
            (log_axis(1e-2, 20.0, 64), (1e-2, 20.0)),
            (uniform_axis(0.05, 10.0, 33), (0.05, 10.0)),
            (Axis([0.3, 0.5, 2.0, 2.25]), (0.3, 2.25)),
        ],
        ids=["log", "uniform", "irregular"],
    )
    def test_axis_is_its_nodes(self, axis, ends):
        nodes = np.array(axis.nodes)
        assert np.array_equal(axis.weights, _trapezoid_weights(nodes))
        assert (axis.lo, axis.hi) == ends == (nodes[0], nodes[-1])
        assert type(axis.lo) is type(axis.hi) is float
        assert Grid((axis, axis)).box == (ends, ends)
        assert float(np.sum(axis.weights)) == pytest.approx(axis.hi - axis.lo, rel=1e-14)
        assert not axis.nodes.flags.writeable and not axis.weights.flags.writeable
        with pytest.raises(TypeError):
            Axis(nodes, axis.weights)

    def test_gridfunction_shape_check(self):
        g = default_grid(2, nodes_per_axis=16)
        with pytest.raises(GridError):
            GridFunction(g, np.zeros((16, 15)))

    def test_values_frozen(self):
        g = default_grid(1, nodes_per_axis=16)
        f = GridFunction(g, np.zeros(16))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestProductClasses:
    def test_default_log_axis_has_one_class_per_index_sum(self):
        axis = default_grid(1, nodes_per_axis=512).axes[0]
        xy, _, distinct, inverse, i, j = axis.pairs
        assert distinct.size == 2 * 512 - 1 < np.unique(xy).size
        sums = np.empty(distinct.size, dtype=np.int64)
        sums[inverse] = i + j
        assert np.array_equal(sums[inverse], i + j)

    def test_uniform_axis_merges_nothing(self):
        axis = uniform_axis(1e-2, 20.0, 512)
        xy, _, distinct, inverse, _, _ = axis.pairs
        assert distinct.size == np.unique(xy).size == 512 * 513 // 2
        assert np.array_equal(xy, distinct[inverse])

    @pytest.mark.parametrize(
        "axis",
        [log_axis(1e-2, 20.0, 512), log_axis(1e-2, 20.0, 384), uniform_axis(0.05, 10.0, 512)],
        ids=["log512", "log384", "uniform512"],
    )
    def test_every_pair_is_near_its_representative(self, axis):
        xy, _, distinct, inverse, _, _ = axis.pairs
        rep = distinct[inverse]
        assert np.all(np.abs(xy - rep) <= 2.0**-44 * rep)
        # Numbered by first use, the representative the first pair's product.
        ids, first = np.unique(inverse, return_index=True)
        assert np.array_equal(ids, np.arange(distinct.size))
        assert np.all(np.diff(first) > 0)
        assert np.array_equal(distinct, xy[first])

    def test_classes_do_not_chain(self):
        # Five values 0.6 * 2^-44 apart, each within the tolerance of the
        # next: a chaining rule would make them one class spanning 2.4 times
        # the tolerance.  Split from the smallest they make three.
        eps = 2.0**-44
        chain = 1.0 + 0.6 * eps * np.arange(5)
        xy = chain[[3, 0, 4, 2, 1]]
        distinct, inverse = grids._product_classes(xy)
        assert inverse.dtype == np.int32
        assert np.array_equal(distinct, chain[[3, 0, 4]])
        assert np.array_equal(inverse, [0, 1, 2, 0, 1])
        rep = distinct[inverse]
        assert np.all(np.abs(xy - rep) <= eps * rep)


class TestPairsTouching:
    MASKS = {
        "empty": np.zeros(64, dtype=bool),
        "one": np.arange(64) == 21,
        "random": np.random.default_rng(0).random(64) < 0.3,
        "all": np.ones(64, dtype=bool),
    }

    @pytest.mark.parametrize("mask", list(MASKS))
    @pytest.mark.parametrize(
        "axis", [log_axis(1e-2, 20.0, 64), uniform_axis(0.05, 10.0, 64)], ids=["log", "uniform"]
    )
    def test_kept_pairs_are_the_axis_pairs_that_touch_the_mask(self, axis, mask):
        support = self.MASKS[mask]
        full = axis.pairs
        kept = grids._pairs_touching(axis, support)
        i, j = full[4:]
        keep = [p for p in range(i.size) if support[i[p]] or support[j[p]]]
        # xy, d2, inverse, i and j at the kept positions, in order; the one
        # distinct array, so every kept pair reads the same representative.
        for n in (0, 1, 3, 4, 5):
            assert kept[n].dtype == full[n].dtype
            assert np.array_equal(kept[n], full[n][keep])
        assert kept[2] is full[2]
        assert grids._pairs_touching(axis, None) is full

    @pytest.mark.parametrize("mask", list(MASKS))
    def test_every_prefix_evaluates_the_classes_it_uses(self, mask):
        # For each cut the ladder's prefix rule can make, the classes of the
        # first cut kept pairs are among those ``heat._grid_nodes`` evaluates.
        axis = log_axis(1e-2, 20.0, 64)
        xy, d2, distinct, inverse, _, _ = grids._pairs_touching(axis, self.MASKS[mask])
        node = heat._grid_nodes(xy, d2, distinct, inverse)
        # Just below and just above each distance, every cut a time can make.
        levels = np.unique(d2[d2 > 0.0]) / (4.0 * 746.0)
        times = [*(levels * (1 - 1e-9)), *(levels * (1 + 1e-9)), 1.0]
        cuts = set()
        for t in times:
            cut = int(np.searchsorted(d2, 746.0 * 4.0 * t))
            cuts.add(cut)
            z, finish = node(t)
            assert np.array_equal(z, distinct[: z.size] / (2.0 * t))
            if cut:
                assert int(np.max(inverse[:cut])) < z.size
            assert finish(np.ones((1, z.size))).shape == (1, cut)
        reachable = {int(np.searchsorted(d2, v, side)) for v in d2 for side in ("left", "right")}
        assert cuts == reachable - {0} if d2.size else cuts == {0}


class TestSemigroup:
    def test_zero_and_linearity(self):
        g = default_grid(1, nodes_per_axis=128)
        zero = GridFunction(g, np.zeros(g.shape))
        out = apply_semigroup(0.5, 1.0, zero)
        assert np.all(out.values == 0.0)

        f1 = GridFunction.from_callable(g, lambda x: np.exp(-((x - 2.0) ** 2)))
        f2 = GridFunction.from_callable(g, lambda x: np.exp(-((x - 4.0) ** 2)))
        combo = GridFunction(g, 2.0 * f1.values - 3.0 * f2.values)
        lhs = apply_semigroup(0.5, 0.7, combo).values
        rhs = (
            2.0 * apply_semigroup(0.5, 0.7, f1).values
            - 3.0 * apply_semigroup(0.5, 0.7, f2).values
        )
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-300)

    def test_positivity_and_sup_contraction(self):
        g = default_grid(1, nodes_per_axis=512)
        f = GridFunction.from_callable(g, lambda x: np.exp(-((x - 3.0) ** 2) / 0.5))
        for t in (0.1, 1.0, 4.0):
            out = apply_semigroup(1.0, t, f)
            assert np.all(out.values >= 0.0)
            assert np.max(out.values) <= np.max(f.values) + 1e-8

    def test_sub_markov_mass(self):
        # Mass <= 1 requires nu >= 1/2: below that the inverse-square
        # potential is attractive and the integral can exceed 1 (e.g.
        # 1.00348 at nu=0, t=2, x=3, confirmed by adaptive quadrature).
        # The tight tolerance needs the spectrally accurate log-uniform
        # trapezoid (the box-exact grid weights are only O(h^2)).
        u = np.linspace(math.log(1e-4), math.log(60.0), 8192)
        h = u[1] - u[0]
        y = np.exp(u)
        w = h * y
        w[0] *= 0.5
        w[-1] *= 0.5
        for nu in (0.5, 0.75, 1.5):
            for t in (0.05, 0.5, 2.0):
                for x in (0.1, 0.4, 1.0, 4.1, 9.7):
                    mass = float(np.sum(w * heat_kernel_1d(nu, t, x, y)))
                    assert mass <= 1.0 + 1e-8

    def test_grid_route_mass_within_quadrature_error(self):
        g = default_grid(1, nodes_per_axis=1024)
        one = GridFunction(g, np.ones(g.shape))
        for nu in (0.5, 0.75, 1.5):
            for t in (0.05, 0.5, 2.0):
                mass = apply_semigroup(nu, t, one)
                assert np.max(mass.values) <= 1.0 + 2e-5

    def test_chapman_kolmogorov(self):
        # Direct z-integration against the exact additive-time kernel,
        # using the log-uniform trapezoid (spectral for decaying integrands).
        u = np.linspace(math.log(1e-3), math.log(40.0), 4096)
        z = np.exp(u)
        w = (u[1] - u[0]) * z
        w[0] *= 0.5
        w[-1] *= 0.5
        rng = np.random.default_rng(2)
        for _ in range(20):
            t, s = rng.choice([0.5, 1.0], size=2)
            x, y = rng.uniform(0.5, 4.0, size=2)
            for nu in (0.3, 1.0):
                comp = float(np.sum(w * heat_kernel_1d(nu, t, x, z) * heat_kernel_1d(nu, s, z, y)))
                exact = heat_kernel_1d(nu, t + s, x, y)
                assert comp == pytest.approx(exact, rel=1e-6)

    def test_semigroup_composition_on_grid(self):
        g = default_grid(1, nodes_per_axis=1024)
        f = GridFunction.from_callable(g, lambda x: np.exp(-((x - 2.0) ** 2) / 0.3))
        one_step = apply_semigroup(0.7, 1.5, f)
        two_step = apply_semigroup(0.7, 1.0, apply_semigroup(0.7, 0.5, f))
        interior = (g.axes[0].nodes > 0.3) & (g.axes[0].nodes < 8.0)
        diff = np.max(np.abs(one_step.values - two_step.values)[interior])
        assert diff <= 1e-5

    def test_quadrature_convergence_order(self):
        # Uniform grid, kernel wide relative to the box so the boundary terms
        # make the trapezoid error genuinely O(h^2).
        t, nu = 9.0, 0.8
        results = {}
        for n in (65, 129, 257):
            ax = uniform_axis(0.5, 6.0, n)
            g = Grid((ax,))
            f = GridFunction.from_callable(g, lambda x: 1.0 / (1.0 + x))
            results[n] = apply_semigroup(nu, t, f).values
        d1 = np.max(np.abs(results[65] - results[129][::2]))
        d2 = np.max(np.abs(results[129] - results[257][::2]))
        order = math.log2(d1 / d2)
        assert order >= 1.8

    def test_dimension_mismatch(self):
        g = default_grid(2, nodes_per_axis=8)
        f = GridFunction(g, np.zeros(g.shape))
        with pytest.raises(GridError):
            apply_semigroup(NuVector((0.5,)), 1.0, f)

    @pytest.mark.parametrize("nu, t", [(2.0, 2.0**-10), (0.6, 3.0)])
    def test_kernel_matrix_from_the_triangle_is_the_full_build(self, nu, t):
        # The triangle i <= j is evaluated and mirrored; p^nu is symmetric
        # bit for bit, so nothing moves against evaluating every entry.
        ax = default_grid(1, nodes_per_axis=512).axes[0]
        x = ax.nodes
        full = class_ladder(nu, (0,), t, x[:, None], x[None, :], class_products(ax))[0]
        assert np.array_equal(kernel_matrix(nu, t, ax), full * ax.weights[None, :])


    @pytest.mark.parametrize(
        "axis", [log_axis(1e-2, 20.0, 64), uniform_axis(0.05, 10.0, 64)], ids=["log", "uniform"]
    )
    @pytest.mark.parametrize("nu, t", [(2.0, 2.0**-10), (0.6, 3.0)])
    def test_kernel_matrix_matches_the_per_pair_build(self, axis, nu, t):
        # Bessel functions once per product class on the live prefix of the
        # distance-sorted pairs, against the kernel evaluated on every pair
        # of the triangle at its class's representative.
        assert np.array_equal(kernel_matrix(nu, t, axis), all_pairs_kernel_matrix(nu, t, axis))

    @pytest.mark.parametrize(
        "axis", [log_axis(1e-2, 20.0, 64), uniform_axis(0.05, 10.0, 64)], ids=["log", "uniform"]
    )
    @pytest.mark.parametrize("nu", [1.0, 0.3, -0.2])
    def test_kernel_matrix_matches_the_per_pair_build_in_every_live_regime(self, axis, nu):
        for t in regime_times(axis).values():
            assert np.array_equal(
                kernel_matrix(nu, t, axis), all_pairs_kernel_matrix(nu, t, axis)
            ), t

    @pytest.mark.parametrize(
        "axis", [log_axis(1e-2, 20.0, 64), log_axis(1e-2, 20.0, 512)], ids=["log64", "log512"]
    )
    @pytest.mark.parametrize("nu", [1.0, 0.3, -0.2])
    def test_kernel_matrix_is_near_the_own_product_build_in_every_live_regime(self, axis, nu):
        # Against the kernel on each pair's own product x_i x_j, the class
        # representatives move every entry by rounding only.
        for t in regime_times(axis).values():
            own = all_pairs_kernel_matrix(nu, t, axis, own_products=True)
            err = np.max(np.abs(kernel_matrix(nu, t, axis) - own))
            assert err <= 1e-13 * np.max(np.abs(own)), t

    @pytest.mark.parametrize(
        "axis", [log_axis(1e-2, 20.0, 64), uniform_axis(0.05, 10.0, 64)], ids=["log", "uniform"]
    )
    def test_kernel_matrix_ladders_cover_the_live_prefix(self, monkeypatch, axis):
        # Each ladder of the stream returns the first cut pairs, where cut
        # counts the pairs with d2 < 746 * 4t, and exp(-d2/4t) is exactly 0
        # on every pair left out.
        calls = []
        ladders = grids._ladders

        def recorded(nu, shifts, times, xy, d2, unique=None):
            for t, ladder in zip(times, ladders(nu, shifts, times, xy, d2, unique)):
                (row,) = ladder.values()
                calls.append((t, d2, row.size))
                yield ladder

        monkeypatch.setattr(grids, "_ladders", recorded)
        times = tuple(regime_times(axis).values())
        matrices = list(_kernel_matrices(0.6, times, axis))
        assert [t for t, _, _ in calls] == list(times)
        for (t, d2, cut), mat in zip(calls, matrices):
            assert d2 is axis.pairs[1]
            assert cut == np.searchsorted(d2, 746.0 * 4.0 * t)
            assert np.all(np.exp(-d2[cut:] / (4.0 * t)) == 0.0)
            assert np.array_equal(mat, kernel_matrix(0.6, t, axis))
        assert calls[0][2] < axis.pairs[0].size

    @pytest.mark.parametrize(
        "kind,axis",
        [("log", log_axis(1e-2, 20.0, 96)), ("uniform", uniform_axis(0.05, 10.0, 96))],
        ids=["log", "uniform"],
    )
    def test_bessel_points_per_time_node_are_the_distinct_products(
        self, monkeypatch, bessel_calls, kind, axis
    ):
        # The maximal function draws its kernels from one ladder stream: the
        # Bessel calls run on the product classes of the pairs i <= j with
        # d2 < 746 * 4t, the prefix each ladder covers, node after node, in
        # blocks of at least _BESSEL_BLOCK arguments (a small block forms
        # several of them).
        g = Grid((axis,))
        f = GridFunction(g, np.ones(g.shape))
        _, d2, distinct, inverse, _, _ = axis.pairs
        expected = [np.unique(inverse[d2 < 746.0 * 4.0 * t]).size for t in T_GRID_DEFAULT]
        # Every class of a log axis holds a pair next to the diagonal, live at
        # every default time; the early nodes of a uniform axis use fewer.
        assert max(expected) == distinct.size
        assert (min(expected) < distinct.size) == (kind == "uniform")
        nodes = [distinct[:u] / (2.0 * t) for u, t in zip(expected, T_GRID_DEFAULT)]
        for block in (heat._BESSEL_BLOCK, 1500):
            monkeypatch.setattr(heat, "_BESSEL_BLOCK", block)
            bessel_calls.clear()
            maximal_function(NuVector((0.6,)), f)
            bessel_calls.assert_blocks(nodes)
            assert len(bessel_calls) > (block == 1500)
            assert all(orders == [0.6] for orders, _ in bessel_calls)


class TestMaximalFunction:
    def test_nonnegative_and_monotone_in_t_grid(self):
        g = default_grid(1, nodes_per_axis=256)
        f = GridFunction.from_callable(g, lambda x: np.sin(x) * np.exp(-x))
        small = maximal_function(0.5, f, (0.5, 1.0))
        large = maximal_function(0.5, f, (0.25, 0.5, 1.0, 2.0))
        assert np.all(small.values >= 0.0)
        assert np.all(small.values <= large.values + 1e-15)

    def test_empty_t_grid(self):
        g = default_grid(1, nodes_per_axis=16)
        f = GridFunction(g, np.zeros(16))
        with pytest.raises(DomainError):
            maximal_function(0.5, f, ())

    @pytest.mark.parametrize("nu, nodes", [((0.5,), 96), ((0.6, 1.2), 40)], ids=["1d", "2d"])
    def test_stack_core_matches_column_by_column(self, nu, nodes):
        # A stack of functions contracts as matrix-matrix products, one
        # function as matrix-vector products: they sum in different orders.
        nu = NuVector(nu)
        g = default_grid(nu.n, nodes_per_axis=nodes)
        stack = np.random.default_rng(7).standard_normal(g.shape + (5,))
        t_grid = (2.0**-6, 0.5, 4.0)
        got_apply = next(_semigroup_values(nu, (0.5,), g, stack))
        got_max = _maximal_values(nu, t_grid, g, stack)
        for b in range(stack.shape[-1]):
            f = GridFunction(g, stack[..., b])
            for got, ref in (
                (got_apply[..., b], apply_semigroup(nu, 0.5, f).values),
                (got_max[..., b], maximal_function(nu, f, t_grid).values),
            ):
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestLpNorm:
    def test_indicator_measure_semantics(self):
        g = default_grid(1, nodes_per_axis=256)
        x = g.axes[0].nodes
        mask = (x >= 1.0) & (x <= 3.0)
        f = GridFunction(g, mask.astype(float))
        mu = float(np.sum(g.weight_array[mask]))
        for p in (0.5, 1.0, 2.0):
            assert lp_norm(f, p) == pytest.approx(mu ** (1.0 / p), rel=1e-13)
        assert lp_norm(f, math.inf) == 1.0

    def test_scaling(self):
        g = default_grid(1, nodes_per_axis=64)
        f = GridFunction.from_callable(g, lambda x: np.cos(x))
        for p in (0.7, 1.0, 2.0, math.inf):
            assert lp_norm(GridFunction(g, -2.5 * f.values), p) == pytest.approx(
                2.5 * lp_norm(f, p), rel=1e-13
            )

    def test_p2_against_direct_sum(self):
        g = default_grid(2, nodes_per_axis=32)
        f = GridFunction.from_callable(g, lambda x, y: np.exp(-x - y))
        direct = math.sqrt(float(np.sum(g.weight_array * f.values**2)))
        assert lp_norm(f, 2.0) == pytest.approx(direct, rel=1e-14)


class TestEigenfunctions:
    def test_besselj_half_closed_form(self):
        # Alternating-series cancellation costs ~7 digits by z = 20.
        z = np.linspace(0.05, 20.0, 157)
        ours = besselj(0.5, z)
        closed = np.sqrt(2.0 / (math.pi * z)) * np.sin(z)
        assert np.allclose(ours, closed, rtol=1e-8, atol=2e-9)

    def test_besselj_against_scipy(self):
        # J's bins end at each series edge and at its domain edge 21.
        edges = np.array([*_SERIES_EDGES[1:], 21.0])
        z = np.concatenate(
            [np.linspace(0.0, 20.0, 200), edges, np.nextafter(edges, 0.0),
             np.nextafter(edges[:-1], np.inf)]
        )
        for a in (-0.3, 0.0, 0.5, 1.0, 2.7, 5.5, 7.5):
            ours, ref = besselj(a, z), sps.jv(a, z)
            both_inf = np.isinf(ours) & np.isinf(ref)
            assert np.allclose(ours[~both_inf], ref[~both_inf], rtol=1e-7, atol=5e-9)
            assert np.array_equal(np.isinf(ours), np.isinf(ref))

    def test_besselj_refuses_large_arguments(self):
        # The series returned 7.1 for J_0(45) = 0.0903 before the guard.
        with pytest.raises(UnderResolvedError):
            besselj(0.0, 45.0)
        with pytest.raises(UnderResolvedError):
            besselj(1.0, np.array([1.0, 30.0]))
        z = np.linspace(0.0, 21.0, 211)
        assert np.allclose(besselj(0.0, z), sps.jv(0.0, z), rtol=1e-7, atol=5e-9)
        with pytest.raises(DomainError):
            besselj(0.5, np.array([1.0, -1.0]))

    def test_vanishing_at_origin(self):
        nu = NuVector((0.7, 1.2))
        spec = EigenfunctionSpec((1.0, 1.0))
        val = eigenfunction(nu, spec, (1e-4, 1e-4))
        # leading order prod x_j^{nu_j+1/2}
        expect = 1.0
        for nuj in nu.nu:
            expect *= (1e-4) ** (nuj + 0.5) / (2.0**nuj * math.gamma(nuj + 1.0))
        assert val == pytest.approx(expect, rel=1e-3)

    @pytest.mark.parametrize("n,lam,nu", [(1, (1.0,), (0.5,)), (2, (0.6, 0.8), (0.5, 1.5))])
    def test_eigen_relation(self, n, lam, nu):
        g = default_grid(n, nodes_per_axis=512)
        nuv = NuVector(nu)
        spec = EigenfunctionSpec(lam)
        phi = eigenfunction_gridfn(nuv, spec, g)
        t = 0.5
        out = apply_semigroup(nuv, t, phi)
        target = math.exp(-t * spec.norm2) * phi.values
        interior = np.ones(g.shape, dtype=bool)
        for j, ax in enumerate(g.axes):
            m = (ax.nodes >= 0.3) & (ax.nodes <= 6.0)
            interior &= m.reshape((-1,) + (1,) * (g.ndim - 1 - j)) if j else m.reshape(
                (-1,) + (1,) * (g.ndim - 1)
            )
        err = np.max(np.abs(out.values - target)[interior]) / np.max(np.abs(target[interior]))
        assert err <= 1e-4


class TestDeltaFd:
    def test_annihilates_power(self):
        g = default_grid(1, nodes_per_axis=1024)
        nu = 0.7
        f = GridFunction.from_callable(g, lambda x: x ** (nu + 0.5))
        out = apply_delta_fd(nu, 0, f)
        interior = (g.axes[0].nodes > 0.1) & (g.axes[0].nodes < 15.0)
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(out.values[interior])) <= 1e-6 * scale

    def test_constant(self):
        g = default_grid(1, nodes_per_axis=128)
        f = GridFunction(g, np.ones(g.shape))
        out = apply_delta_fd(1.2, 0, f)
        expect = -(1.2 + 0.5) / g.axes[0].nodes
        assert np.allclose(out.values, expect, rtol=1e-10)

    def test_matches_symbolic_on_kernel_slice(self):
        g = Grid((uniform_axis(0.5, 6.0, 4097),))
        nu, t, y = 0.8, 0.9, 2.3
        f = GridFunction.from_callable(g, lambda x: heat_kernel_1d(nu, t, x, y))
        fd = apply_delta_fd(nu, 0, f)
        x = g.axes[0].nodes
        interior = (x > 0.7) & (x < 5.5)
        exact = eval_delta_heat_1d(nu, 1, t, x[interior], y)
        rel = np.max(
            np.abs(fd.values[interior] - exact) / np.maximum(np.abs(exact), 1e-3)
        )
        assert rel <= 1e-5


class TestSerialization:
    def test_csv_roundtrip(self):
        g = default_grid(2, nodes_per_axis=12)
        f = GridFunction.from_callable(g, lambda x, y: np.sin(x) * y)
        text = gridfunction_to_csv(f)
        assert text.splitlines()[0] == "x1,x2,value"
        back = gridfunction_from_csv(text)
        assert np.array_equal(back.values, f.values)
        assert np.array_equal(back.grid.axes[0].nodes, g.axes[0].nodes)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_csv_rejects_non_finite(self, bad):
        g = default_grid(1, nodes_per_axis=4)
        lines = gridfunction_to_csv(GridFunction.from_callable(g, lambda x: x)).splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + bad
        with pytest.raises(GridError):
            gridfunction_from_csv("\n".join(lines) + "\n")

    def test_csv_file_io(self, tmp_path):
        g = default_grid(1, nodes_per_axis=17)
        f = GridFunction.from_callable(g, lambda x: x**2)
        path = tmp_path / "f.csv"
        gridfunction_to_csv(f, path)
        back = gridfunction_from_csv(path)
        assert np.array_equal(back.values, f.values)
        assert np.array_equal(back.grid.axes[0].nodes, g.axes[0].nodes)
        assert np.array_equal(back.grid.axes[0].weights, g.axes[0].weights)
        assert back.grid.box == g.box

    @pytest.mark.parametrize(
        "text,match",
        [
            ("", "no header"),
            ("x1,value\n", "no rows"),
            ("x1,x2,value\n\n", "no rows"),
            ("x1,value\n0.1,1.0\n0.2,2.0,3.0\n0.3,3.0\n", "header's 2 fields"),
            ("x1,x2,value\n0.1,1.0\n0.2,2.0\n0.3,3.0\n", "header's 3 fields"),
        ],
        ids=["empty", "header_only", "blank_rows", "long_row", "short_rows"],
    )
    def test_csv_refuses_missing_header_rows_or_fields(self, tmp_path, text, match):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(GridError, match=match):
            gridfunction_from_csv(path)

    @pytest.mark.parametrize(
        "edit,match",
        [
            (lambda lines: lines.insert(2, lines.pop(3)), "ordering"),
            (lambda lines: lines.pop(6), "full tensor grid"),
        ],
        ids=["permuted_rows", "missing_row"],
    )
    def test_csv_refuses_rows_off_the_tensor_grid(self, edit, match):
        g = default_grid(2, nodes_per_axis=4)
        lines = gridfunction_to_csv(GridFunction.from_callable(g, lambda x, y: x * y)).splitlines()
        edit(lines)
        with pytest.raises(GridError, match=match):
            gridfunction_from_csv("\n".join(lines) + "\n")
