"""Campaign harness tests: configs, determinism, verdict logic, and light
smoke runs of each inequality family (the heavy acceptance-tolerance runs
live in the acceptance suite)."""

import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from besselops import campaigns, cli, grids, heat, riesz, sampling
from besselops.campaigns import (
    INEQUALITY_IDS,
    SPECS,
    BoundReport,
    CampaignConfig,
    bundled_config_path,
    default_config,
    run_campaign,
)
from besselops.errors import ConfigError, DomainError
from besselops.grids import (
    T_GRID_DEFAULT,
    GridFunction,
    default_grid,
    lp_norm,
    maximal_function,
)
from besselops.riesz import riesz_apply
from besselops.sampling import DRIFT_GATE, _drift, _level_maxima, _median, _verdict, make_rng
from besselops.spaces import BallSampler, bmo_norm


def small(cfg: CampaignConfig, **over) -> CampaignConfig:
    base = dict(cfg.__dict__)
    base.update(samples=400, refine_levels=2)
    base.update(over)
    return CampaignConfig(**base)


class TestConfig:
    def test_roundtrip(self):
        cfg = default_config("thm2_1")
        back = CampaignConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_validation(self):
        with pytest.raises(ConfigError):
            CampaignConfig(inequality="nope")
        with pytest.raises(ConfigError):
            CampaignConfig(inequality="thm2_1", samples=10)
        with pytest.raises(ConfigError):
            CampaignConfig(inequality="thm2_1", refine_levels=1)
        with pytest.raises(ConfigError):
            CampaignConfig.from_json('{"inequality": "thm2_1", "bogus": 1}')

    @pytest.mark.parametrize("c_grid", [[-1.0], [0.0], [math.nan], [math.inf], [2.0, -1.0]])
    def test_c_grid_rates_must_be_finite_and_positive(self, c_grid):
        with pytest.raises(ConfigError, match="finite rates > 0"):
            CampaignConfig(inequality="thm2_1", c_grid=c_grid)

    def test_bundled_configs_exist_and_parse(self):
        for ineq in INEQUALITY_IDS:
            path = bundled_config_path(ineq)
            cfg = CampaignConfig.from_json(str(path))
            assert cfg.inequality == ineq

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_json("/nonexistent/config.json")

    def test_registry_bundled_json_and_cli_ids_agree(self, monkeypatch, tmp_path):
        config_dir = bundled_config_path("thm2_1").parent
        stems = {p.name[: -len(".json")] for p in config_dir.iterdir() if p.name.endswith(".json")}
        assert set(SPECS) == stems == set(INEQUALITY_IDS)
        resolved = []

        def fake_run(config, collect_samples=False):
            resolved.append(config.inequality)
            report = BoundReport(config.inequality, {}, 0.0, 0.0, {}, [0.0, 0.0], 0.0, "stable")
            return report, None

        monkeypatch.setattr(cli, "run_campaign", fake_run)
        for ineq in sorted(stems):
            assert cli.main(["--out", str(tmp_path), "campaign", "run", "--config", ineq]) == 0
        assert resolved == sorted(stems)


class TestDeterminism:
    def test_byte_identical_reports(self):
        cfg = small(default_config("thm2_1"))
        rep1, _ = run_campaign(cfg)
        rep2, _ = run_campaign(cfg)
        assert rep1.canonical_json() == rep2.canonical_json()

    @pytest.mark.parametrize("ineq", ["thm1_6i", "thm1_6ii"])
    def test_grid_campaigns_repeat_in_one_process(self, ineq):
        # The grid streams own their matrix buffers: no state may carry
        # from one run into the next.
        first, _ = run_campaign(default_config(ineq))
        second, _ = run_campaign(default_config(ineq))
        assert first.canonical_json() == second.canonical_json()

    def test_seed_changes_samples(self):
        cfg = small(default_config("thm2_1"))
        cfg2 = small(default_config("thm2_1"), seed=1)
        rep1, _ = run_campaign(cfg)
        rep2, _ = run_campaign(cfg2)
        assert rep1.worst_sample != rep2.worst_sample

    def test_sample_rows_deterministic(self):
        cfg = small(default_config("prop2_7"))
        _, rows1 = run_campaign(cfg, collect_samples=True)
        _, rows2 = run_campaign(cfg, collect_samples=True)
        assert rows1 == rows2
        assert rows1[0][:1] == ["t"]


class TestPointwiseCampaigns:
    @pytest.mark.parametrize(
        "ineq",
        ["thm2_1", "thm2_4", "thm2_5", "cor2_6a", "cor2_6b", "prop2_7", "prop2_9", "prop2_10", "cor2_11"],
    )
    def test_smoke(self, ineq):
        rep, _ = run_campaign(small(default_config(ineq)))
        assert rep.inequality == ineq
        assert rep.C_hat > 0 and np.isfinite(rep.C_hat)
        assert rep.c_hat in (2.0, 4.0, 8.0, 16.0, 32.0)
        assert len(rep.per_refinement_C) == 2
        assert {"t", "x", "y", "lhs", "rhs", "ratio"} <= set(rep.worst_sample)

    @pytest.mark.parametrize(
        "ineq, over",
        [
            ("prop2_9", {"ell": (1,)}),
            ("prop2_10", {"k": (1,)}),
            ("prop2_10", {"ell": (0, 0, 1)}),
            ("cor2_11", {"k": (1,)}),
            ("cor2_11", {"k": (1, 1, 5)}),
        ],
    )
    def test_prop2_9_ell_must_match_dimension(self, monkeypatch, ineq, over):
        # Each per-axis multi-index is checked before any sample is drawn.
        def no_samples(*args):
            raise AssertionError("samples drawn")

        monkeypatch.setattr(campaigns, "sample_kernel_points", no_samples)
        with pytest.raises(ConfigError, match="must match dimension"):
            run_campaign(small(default_config(ineq), **over))

    ONE_AXIS_IDS = [
        "thm2_1", "thm2_4", "thm2_5", "cor2_6a", "cor2_6b", "prop2_7", "prop2_8", "thm1_6i", "thm4_1"
    ]

    def test_one_axis_ids_are_the_registry_entries_so_marked(self):
        assert sorted(self.ONE_AXIS_IDS) == sorted(i for i, spec in SPECS.items() if spec.one_axis)

    @pytest.mark.parametrize("ineq", ONE_AXIS_IDS)
    def test_one_axis_ids_refuse_an_nd_nu(self, monkeypatch, ineq):
        # Refused before any sample, atom or corpus is drawn.
        def no_samples(*args, **kwargs):
            raise AssertionError("samples drawn")

        for name in ("make_rng", "sample_kernel_points", "loguniform"):
            monkeypatch.setattr(campaigns, name, no_samples)
        with pytest.raises(ConfigError, match="nu must have one entry"):
            run_campaign(small(default_config(ineq), nu=(0.6, 1.5)))

    @pytest.mark.parametrize("over", [{"k": (1, 2)}, {"ell": (2, 5)}])
    @pytest.mark.parametrize("ineq", ONE_AXIS_IDS)
    def test_one_axis_ids_refuse_a_multi_entry_k_or_ell(self, monkeypatch, ineq, over):
        # A 1-D runner reads entry 0 only; the rest would be echoed unused.
        def no_samples(*args, **kwargs):
            raise AssertionError("samples drawn")

        for name in ("make_rng", "sample_kernel_points", "loguniform"):
            monkeypatch.setattr(campaigns, name, no_samples)
        with pytest.raises(ConfigError, match=f"{next(iter(over))} must have one entry"):
            run_campaign(small(default_config(ineq), **over))

    def test_report_schema(self):
        rep, _ = run_campaign(small(default_config("thm2_1")))
        payload = json.loads(rep.canonical_json())
        assert set(payload) == {
            "inequality",
            "params",
            "C_hat",
            "c_hat",
            "worst_sample",
            "per_refinement_C",
            "refinement_delta",
            "verdict",
            "notes",
        }

    def test_ratios_never_infinite_when_rhs_underflows(self):
        # extreme box: both sides underflow together and count as ratio 0
        cfg = small(default_config("thm2_1"), box=(1e-2, 20.0), t_range=(1e-4, 1e-3))
        rep, _ = run_campaign(cfg)
        assert np.isfinite(rep.C_hat)


def eager_fit(lhs, rhs_of_c, config):
    """The rate fit that builds every c of the grid first, as a reference."""
    rhs_by_c = {c: rhs_of_c(c) for c in config.c_grid}
    results = {}
    selection_drift = {}
    for c, rhs in rhs_by_c.items():
        ratios = sampling._ratios(lhs, rhs)
        levels = _level_maxima(ratios, config.samples, config.refine_levels)
        results[c] = (levels, _drift(levels), ratios)
        selection_drift[c] = _drift(campaigns._selection_levels(ratios, config))
    stable = [
        c for c in config.c_grid if _verdict(results[c][0], selection_drift[c]) == "stable"
    ]
    if stable:
        c_hat = min(stable)
    else:
        scores = []
        for c in config.c_grid:
            levels, drift, _ = results[c]
            top = levels[-1]
            scores.append(top * (1.0 + drift) if math.isfinite(top) else math.inf)
        c_hat = config.c_grid[int(np.argmin(scores))]
    levels, _, ratios = results[c_hat]
    return c_hat, levels, ratios, rhs_by_c[c_hat]


SESSION_IDS = ("thm2_1", "thm2_4", "thm2_5", "cor2_6a", "cor2_6b", "prop2_7")


class TestFitC:
    def pointwise_inputs(self, ineq, **over):
        config = small(default_config(ineq), **over)
        spec = SPECS[ineq]
        count = config.samples * 2 ** (config.refine_levels - 1)
        t, x, y = spec.sampler(config, count)
        lhs = np.abs(spec.lhs(config, t, x, y))
        k_slot, ell_slot = spec.rhs(config)
        rhs_of_c = heat._bound_rhs_arrays(ineq, config.nu_vector, k_slot, ell_slot, t, x, y)
        return lhs, rhs_of_c, config

    def assert_same_fit(self, lhs, rhs_of_c, config):
        built = []

        def counted(c):
            built.append(c)
            return rhs_of_c(c)

        c_hat, levels, ratios, rhs = campaigns._fit_c(lhs, counted, config)
        want_c, want_levels, want_ratios, want_rhs = eager_fit(lhs, rhs_of_c, config)
        assert c_hat == want_c and levels == want_levels
        assert np.array_equal(ratios, want_ratios) and np.array_equal(rhs, want_rhs)
        return c_hat, built

    @pytest.mark.parametrize(
        "c_grid",
        [(2.0, 4.0, 8.0, 16.0, 32.0), (32.0, 8.0, 2.0, 16.0, 4.0), (8.0, 2.0, 8.0, 4.0, 2.0)],
    )
    @pytest.mark.parametrize("ineq, stable", [("thm2_1", True), ("prop2_7", True), ("prop2_9", False)])
    def test_fit_matches_the_eager_fit(self, ineq, stable, c_grid):
        lhs, rhs_of_c, config = self.pointwise_inputs(ineq, c_grid=c_grid)
        c_hat, built = self.assert_same_fit(lhs, rhs_of_c, config)
        # Ascending, each distinct c once, up to the first stable one; all
        # of them when none is stable (prop2_9 at 400 samples).
        assert built == sorted(c for c in set(c_grid) if c <= c_hat or not stable)

    @pytest.mark.parametrize(
        "c_grid, want",
        [((2.0, 4.0, 8.0), 8.0), ((16.0, 2.0, 8.0), 16.0), ((4.0, 2.0, 4.0, 32.0), 32.0)],
    )
    def test_no_stable_fallback_matches_the_eager_fit(self, c_grid, want):
        # lhs grows along the samples, so every level doubles its maximum
        # and no c is stable; C(c) = count / c, so the largest c scores best.
        config = small(default_config("thm2_1"), c_grid=c_grid)
        lhs = np.arange(1.0, 801.0)
        c_hat, built = self.assert_same_fit(lhs, lambda c: np.full(800, c), config)
        assert c_hat == want and built == sorted(set(c_grid))

    @pytest.mark.parametrize("c_grid", [(16.0, 2.0, 8.0), (8.0, 2.0, 8.0, 16.0)])
    def test_fallback_ties_keep_the_first_c_of_the_grid(self, c_grid):
        config = small(default_config("thm2_1"), c_grid=c_grid)
        lhs = np.arange(1.0, 801.0)
        c_hat, _ = self.assert_same_fit(lhs, lambda c: np.ones(800), config)
        assert c_hat == c_grid[0]

    def test_one_session_pass_builds_the_rhs_up_to_each_c_hat(self, monkeypatch):
        # One pass of the six pointwise session ids at the bundled seed 0
        # builds 16 of the 30 right-hand sides an eager fit builds.
        built = []
        real = campaigns._bound_rhs_arrays

        def counting(kind, *args):
            rhs = real(kind, *args)

            def counted(c):
                built.append((kind, c))
                return rhs(c)

            return counted

        monkeypatch.setattr(campaigns, "_bound_rhs_arrays", counting)
        c_hats = {ineq: run_campaign(default_config(ineq))[0].c_hat for ineq in SESSION_IDS}
        grid = sorted(default_config("thm2_1").c_grid)
        assert built == [(i, c) for i in SESSION_IDS for c in grid if c <= c_hats[i]]
        assert (len(built), len(SESSION_IDS) * len(grid)) == (16, 30)

    def test_prop2_7_fits_its_rate_on_a_representable_sample(self):
        # Every sampled kernel value is its one-pair value, so no batch-wide
        # cutoff zeroes the samples that show the growth at c = 4: the fit
        # stops at c = 8, on a worst sample far from the underflow range.
        rep, _ = run_campaign(default_config("prop2_7"))
        assert rep.params["seed"] == 0
        assert rep.c_hat == 8.0
        assert rep.worst_sample["lhs"] > 1e-200

    def test_ratios_of_a_subnormal_rhs_are_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sampling._ratios(np.array([1.0, 0.0, 2.0]), np.array([1e-320, 0.0, 0.0]))
        assert got[0] == math.inf and got[1] == 0.0 and got[2] == math.inf


class TestProp28:
    def test_regional_bound_smoke(self):
        cfg = small(default_config("prop2_8"))
        rep, _ = run_campaign(cfg)
        assert rep.inequality == "prop2_8"
        assert rep.c_hat == 0.0
        assert np.isfinite(rep.C_hat)
        assert "no exponential rate" in rep.notes[0]


class TestOperatorCampaigns:
    def test_thm1_5_reports(self):
        cfg = small(default_config("thm1_5_size"), samples=200, min_separation=5e-2)
        rep, _ = run_campaign(cfg)
        assert rep.inequality == "thm1_5_size"
        assert np.isfinite(rep.C_hat)
        cfg2 = small(default_config("thm1_5_smooth"), samples=200, min_separation=5e-2)
        rep2, _ = run_campaign(cfg2)
        assert "exponent" in rep2.notes[1]

    def test_thm1_5_size_is_below_the_exact_supremum(self):
        # At k = 2, |R(x, y)| |x - y| = (2 nu + 1) r^a (1 - r) with r = y/x < 1
        # and a = nu + 1/2 (the Green's function of L_nu), whose supremum
        # (2 nu + 1) a^a / (a + 1)^(a + 1) sits at r = a / (a + 1).
        cfg = default_config("thm1_5_size")
        assert cfg.k == (2,) and len(cfg.nu) == 1
        a = cfg.nu[0] + 0.5
        supremum = (2.0 * cfg.nu[0] + 1.0) * a**a / (a + 1.0) ** (a + 1.0)
        rep, _ = run_campaign(cfg)
        assert rep.C_hat <= supremum
        assert supremum - rep.C_hat <= DRIFT_GATE * supremum

    @pytest.mark.parametrize("ineq,batches", [("thm1_5_size", 1), ("thm1_5_smooth", 2)])
    def test_thm1_5_bessel_work(self, monkeypatch, ineq, batches):
        # In 1-D the kernels are the exact time integral: no Bessel call.
        # The size sweep needs only R(x,y); the smoothness sweep gets
        # R(x,y), R(y,x), R(x,y') and R(y',x) from one batch per pair.
        cfg = small(default_config(ineq), samples=100, plan_nodes_per_decade=4)
        calls = []
        besseli_scaled = heat.besseli_scaled

        def counted(alpha, z):
            calls.append(alpha)
            return besseli_scaled(alpha, z)

        exact_batches = []
        exact = riesz.riesz_kernel_1d

        def counted_batches(*args, **kwargs):
            exact_batches.append(args)
            return exact(*args, **kwargs)

        monkeypatch.setattr(heat, "besseli_scaled", counted)
        monkeypatch.setattr(riesz, "riesz_kernel_1d", counted_batches)
        run_campaign(cfg)
        assert calls == []
        assert len(exact_batches) == batches

    def test_thm1_6i_k0_reduces_to_maximal(self):
        cfg = small(default_config("thm1_6i"), k=(0,), atom_count=8, seed=2, grid_nodes=256)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep, _ = run_campaign(cfg)
        assert _note_value(rep, "max quasi-norm: ") > 0 and rep.verdict == "stable"

    def test_thm1_6ii_runs(self):
        cfg = small(default_config("thm1_6ii"), k=(1,), corpus_size=3, seed=4, grid_nodes=192)
        rep, _ = run_campaign(cfg)
        assert rep.notes[0].startswith("advisory only")
        assert len(rep.worst_sample["ratios"]) >= 1
        assert all(np.isfinite(v) for v in rep.worst_sample["ratios"])

    def test_thm1_6ii_passes_warnings_on(self, monkeypatch):
        # The runner hides no warning: one raised inside its norm passes
        # reaches its caller.
        def warning_norm(*args):
            warnings.warn("probe", RuntimeWarning)
            return bmo_norm(*args)

        monkeypatch.setattr(campaigns, "bmo_norm", warning_norm)
        cfg = small(default_config("thm1_6ii"), corpus_size=3, grid_nodes=64)
        with pytest.warns(RuntimeWarning, match="probe"):
            run_campaign(cfg)

    def test_thm4_1_smoke(self):
        cfg = small(default_config("thm4_1"), corpus_size=6, grid_nodes=192)
        rep, _ = run_campaign(cfg)
        assert np.isfinite(rep.C_hat)
        assert rep.C_hat < 10.0

    @pytest.mark.parametrize(
        "ineq,nu,k",
        [("thm1_6i", (0.6,), (1,)), ("thm1_6ii", (0.6, 0.8), (1, 1)), ("thm4_1", (0.6,), (1,))],
        ids=["thm1_6i", "thm1_6ii", "thm4_1"],
    )
    def test_grid_spans_the_config_box(self, monkeypatch, ineq, nu, k):
        class Built(Exception):
            pass

        grids_built = []

        def recorded_grid(*args, **kwargs):
            grids_built.append(default_grid(*args, **kwargs))
            raise Built

        monkeypatch.setattr(campaigns, "default_grid", recorded_grid)
        cfg = small(default_config(ineq), nu=nu, k=k, box=(0.5, 10.0), grid_nodes=16)
        with pytest.raises(Built):
            run_campaign(cfg)
        assert [g.box for g in grids_built] == [((0.5, 10.0),) * len(nu)]


class TestPlanBudget:
    """The bundled time-plan densities against their error budget: the grid
    campaigns' constants move by at most 1e-4 relative, with the same
    verdict, when the density is taken 4 times."""

    @pytest.mark.parametrize(
        "ineq, nodes",
        [("thm1_6i", 61), ("thm1_6ii", 61), ("thm4_1", 61), ("prop2_8", 225)],
    )
    def test_bundled_plans_count_their_time_nodes(self, ineq, nodes):
        # The time nodes each grid Riesz build (or prop2_8 sample batch)
        # sums: a work count that does not vary with machine noise.
        assert default_config(ineq).plan.nodes()[0].size == nodes

    # Seeds 9 (thm1_6ii, 1.30e-5 from 48 per decade) and 10 (thm4_1,
    # 1.29e-5) move the most of seeds 0-15.
    @pytest.mark.parametrize("seed", [0, 9, 10])
    @pytest.mark.parametrize("ineq", ["thm1_6i", "thm1_6ii", "thm4_1"])
    def test_bundled_density_is_within_the_report_budget(self, ineq, seed):
        cfg = dataclasses.replace(default_config(ineq), seed=seed)
        fine = dataclasses.replace(cfg, plan_nodes_per_decade=4 * cfg.plan_nodes_per_decade)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got, _ = run_campaign(cfg)
            want, _ = run_campaign(fine)
        assert got.C_hat == pytest.approx(want.C_hat, rel=1e-4, abs=0.0)
        assert got.per_refinement_C == pytest.approx(want.per_refinement_C, rel=1e-4, abs=0.0)
        assert got.verdict == want.verdict


def _note_value(report, prefix):
    """The Python literal that follows ``prefix`` in one of the report's notes."""
    (note,) = [n for n in report.notes if n.startswith(prefix)]
    return ast.literal_eval(note[len(prefix):])


def per_atom_hardy(cfg):
    """The thm1_6i campaign one atom at a time: the maximal function and the
    quasi-norm per atom, the worst atom picked inside the loop, and both
    time grids applied to its transform afresh.  The transforms come from
    one ``riesz_apply`` call, bit for bit the one-atom calls.  The config's
    big_m is 0, so the maximal function runs at order nu + k."""
    assert cfg.big_m == 0
    nu, k, p, atom_count, levels = cfg.nu_vector, cfg.k, cfg.p, cfg.atom_count, cfg.refine_levels
    grid = default_grid(1, nodes_per_axis=cfg.grid_nodes)
    nu_shifted = nu.shifted(k)
    rng = make_rng(cfg.seed)
    atoms = [campaigns._random_atom(rng, grid, p) for _ in range(atom_count * 2 ** (levels - 1))]
    transforms = riesz_apply(nu, k, [atom.f for atom in atoms], cfg.plan)
    norms = []
    worst = None
    for i, ra in enumerate(transforms):
        norms.append(lp_norm(maximal_function(nu_shifted, ra, T_GRID_DEFAULT), p))
        if worst is None or norms[-1] >= max(norms):
            worst = i
    worst_atom, ra = atoms[worst], transforms[worst]
    norms = np.asarray(norms)
    prefixes = [norms[: atom_count * 2**lev] for lev in range(levels)]
    dense = tuple(2.0 ** (m / 2.0) for m in range(-20, 13))
    base = lp_norm(maximal_function(nu_shifted, ra, T_GRID_DEFAULT), p)
    fine = lp_norm(maximal_function(nu_shifted, ra, dense), p)
    return {
        "max": float(np.max(norms)),
        "median": float(np.median(norms)),
        "per_refinement_max": [float(np.max(v)) for v in prefixes],
        "per_refinement_ratio": [float(np.max(v) / np.median(v)) for v in prefixes],
        "worst_atom": {"center": list(worst_atom.ball.center), "radius": worst_atom.ball.radius},
        "t_grid_refinement_delta": abs(fine - base) / base,
    }


def per_function_bmo(cfg):
    """The thm1_6ii campaign one function at a time: a denominator, and the
    norm of the transform where the denominator is not 0, per function and
    per sampler.  The transforms come from one ``riesz_apply`` call, bit
    for bit the one-function calls."""
    nu, k, s, corpus_size = cfg.nu_vector, cfg.k, cfg.s, cfg.corpus_size
    grid = default_grid(nu.n, nodes_per_axis=cfg.grid_nodes)
    max_degree = max(0, math.floor(s))
    corpus = campaigns._random_corpus(make_rng(cfg.seed), grid, corpus_size)
    transforms = riesz_apply(nu, k, corpus, cfg.plan)
    passes = []
    for count, sampler in (
        (corpus_size, BallSampler(grid, 16, 8)),
        (max(2, corpus_size // 3), BallSampler(grid, 32, 16)),
    ):
        ratios = []
        for f, rf in zip(corpus[:count], transforms):
            denom = bmo_norm(f, s, max_degree, sampler)
            if denom == 0.0:
                continue
            ratios.append(bmo_norm(rf, s, max_degree, sampler) / denom)
        passes.append(ratios)
    return {
        "ratios": passes[0],
        "max_ratio": max(passes[0]) if passes[0] else 0.0,
        "sampler_refined_max": max(passes[1]) if passes[1] else 0.0,
    }


class TestBmoSpotCheck:
    @pytest.mark.parametrize("k, s", [((1,), 0.0), ((1,), 1.5), ((0,), 0.5)])
    def test_stacks_match_the_per_function_loop(self, monkeypatch, k, s):
        # Corpus function 1 is 0, so both samplers take the 0/0 skip.
        draw = campaigns._random_corpus

        def with_zero(rng, grid, count):
            corpus = draw(rng, grid, count)
            corpus[1] = GridFunction(grid, np.zeros(grid.shape))
            return corpus

        monkeypatch.setattr(campaigns, "_random_corpus", with_zero)
        cfg = small(default_config("thm1_6ii"), k=k, s=s, corpus_size=6, seed=3, grid_nodes=160)
        ref = per_function_bmo(cfg)
        norm_calls = []
        transforms = []
        riesz_builds = []

        def counted_norm(f, *rest):
            norm_calls.append(f)
            return bmo_norm(f, *rest)

        def counted_apply(*a):
            transforms.append(a)
            return riesz_apply(*a)

        grid_matrix = riesz._grid_matrix

        def counted_matrix(*a, **kw):
            riesz_builds.append(a)
            return grid_matrix(*a, **kw)

        monkeypatch.setattr(campaigns, "bmo_norm", counted_norm)
        monkeypatch.setattr(campaigns, "riesz_apply", counted_apply)
        monkeypatch.setattr(riesz, "_grid_matrix", counted_matrix)
        got, _ = run_campaign(cfg)
        assert got.worst_sample == {"ratios": ref["ratios"]}
        assert got.per_refinement_C == [ref["max_ratio"], ref["sampler_refined_max"]]
        assert got.C_hat == ref["max_ratio"]
        assert got.notes[0].startswith("advisory only")
        assert len(ref["ratios"]) == 5
        # One pass per sampler over its functions and their transforms; the
        # whole corpus transformed by one call, which builds one Riesz
        # matrix (none at order 0).
        assert [len(stack) for stack in norm_calls] == [12, 4]
        assert len(transforms) == 1
        assert len(riesz_builds) == (1 if sum(k) else 0)

    @pytest.mark.parametrize(
        "nu, k",
        [((1.0,), (1, 1)), ((1.0,), (3,)), ((1.0,), (-1,)), ((1.0,), (2,)), ((1.0, 1.0), (1, 0))],
        ids=["k0", "k1", "k2", "order-two", "2d-axis-of-order-zero"],
    )
    def test_refuses_k_before_drawing_the_corpus(self, monkeypatch, nu, k):
        # k = 2, and in 2-D a k_j = 0 axis, are orders the grid transform
        # does not resolve (``riesz.grid_multi_index``).
        def no_corpus(*args, **kwargs):
            raise AssertionError("corpus drawn")

        monkeypatch.setattr(campaigns, "_random_corpus", no_corpus)
        cfg = small(default_config("thm1_6ii"), nu=nu, k=k, corpus_size=3, grid_nodes=64)
        with pytest.raises(DomainError):
            run_campaign(cfg)


class TestRandomCorpus:
    def test_one_dimensional_draws_are_the_bumps_on_the_axis(self):
        # At n = 1 each bump's centre, width and amplitude are drawn in that
        # order and summed on the axis nodes, cut past |x - 3| > 8.
        from besselops.sampling import loguniform

        g = default_grid(1, nodes_per_axis=256)
        corpus = campaigns._random_corpus(make_rng(4), g, 5)
        rng, x = make_rng(4), g.axes[0].nodes
        for f in corpus:
            vals = np.zeros(g.shape)
            for _ in range(3):
                c = float(loguniform(rng, 0.3, 9.0, ()))
                width = float(loguniform(rng, 0.05, 1.0, ()))
                amp = float(rng.uniform(-1.0, 1.0))
                vals += amp * np.exp(-((x - c) ** 2) / width**2)
            vals[np.abs(x - 3.0) > 8.0] = 0.0
            assert np.array_equal(f.values, vals)

    def test_two_dimensional_bumps_vary_along_both_axes(self):
        g = default_grid(2, nodes_per_axis=64)
        x1, x2 = g.node_mesh
        cut = (np.abs(x1 - 3.0) > 8.0) | (np.abs(x2 - 3.0) > 8.0)
        assert cut[:, 0].any() and cut[0, :].any() and not cut.all()
        for f in campaigns._random_corpus(make_rng(0), g, 4):
            assert np.all(f.values[cut] == 0.0)
            kept = f.values[~cut[:, 0]][:, ~cut[0]]
            assert np.any(kept != 0.0)
            # Neither all rows nor all columns alike: a bump per coordinate.
            assert np.any(kept != kept[:1, :]) and np.any(kept != kept[:, :1])


def projected_atom(rng, grid, p):
    """A subcritical atom drawn as ``campaigns._random_atom`` draws it, with
    the moments removed by a local moment projection: the scaled-basis Gram
    solve, and the correction summed column by column on the support."""
    from besselops.sampling import loguniform
    from besselops.spaces import (
        AtomCandidate, Ball, _node_stack, _scaled_basis, _weighted_gram, multi_indices,
    )

    x, axis = grid.axes[0].nodes, grid.axes[0]
    c = float(loguniform(rng, 0.7, 7.0, ()))
    rho = c / 16.0
    spacing = c * math.log(axis.hi / axis.lo) / (axis.size - 1)
    r = min(max(rho * (0.3 + 0.7 * float(rng.uniform())), 3.0 * spacing), rho)
    ball = Ball((c,), r)
    dist = np.abs(x - c)
    mask = dist < 0.95 * r
    if int(np.count_nonzero(mask)) < 4:
        mask = dist < r
    u = dist / r
    shape1 = np.cos((1.5 + 2.0 * float(rng.uniform())) * math.pi * u)
    shape2 = np.sin(math.pi * u + float(rng.uniform()))
    prof = np.where(mask, (0.95 - u) * (shape1 + 0.5 * shape2), 0.0)
    if r < rho:
        indices = multi_indices(1, math.floor(1.0 / p - 1.0))
        pts = _node_stack(grid)[:, mask]
        w = grid.weight_array[mask]
        cols = _scaled_basis(pts, ball.center, r, indices)
        rhs = np.array([float(np.sum(w * ca * prof[mask])) for ca in cols])
        coef = np.linalg.solve(_weighted_gram(cols, w), rhs)
        correction = np.zeros(pts.shape[1:])
        for cf, col in zip(coef, cols):
            correction += cf * col
        prof[mask] = prof[mask] - correction
    vals = prof * (0.9 * ball.volume ** (-1.0 / p) / float(np.max(np.abs(prof))))
    return AtomCandidate(GridFunction(grid, vals), ball, p)


class TestRandomAtom:
    @pytest.mark.parametrize("p", [1.0, 0.5, 0.45])
    def test_draws_are_the_projected_atoms_and_cancel(self, p):
        # omega = 0, 1 and 1: p = 0.5 and 0.45 take the degree-1 fit.
        from besselops.spaces import validate_p_rho_atom

        grid = default_grid(1, nodes_per_axis=512)
        rng, ref_rng = make_rng(3), make_rng(3)
        for _ in range(100):
            atom = campaigns._random_atom(rng, grid, p)
            expected = projected_atom(ref_rng, grid, p)
            assert atom.ball == expected.ball
            assert np.array_equal(atom.f.values, expected.f.values)
            verdict = validate_p_rho_atom(atom, nu=1.0)
            assert verdict.valid, verdict.diagnostics

    def test_small_p_draws_validate_unless_the_support_is_interpolated(self):
        # p = 0.2 fits the 5 moments up to omega = 4.  A 5-node support is
        # interpolated, so the fit leaves rounding noise that the sup
        # scaling blows up to the bound, and its centred moments show it.
        # Every larger support cancels to rounding, at c/r up to 22.4.
        from besselops.spaces import validate_p_rho_atom

        grid = default_grid(1, nodes_per_axis=512)
        rng = make_rng(0)
        sizes = []
        for _ in range(40):
            atom = campaigns._random_atom(rng, grid, 0.2)
            verdict = validate_p_rho_atom(atom, nu=5.0)
            sizes.append(int(np.count_nonzero(atom.f.values)))
            assert verdict.support_ok and verdict.size_ok and verdict.cancellation_required
            assert verdict.cancellation_ok == verdict.valid == (sizes[-1] >= 6), sizes[-1]
        assert sizes.count(5) == 6 and min(sizes) == 5


class TestHardySpotCheck:
    @pytest.mark.parametrize("k", [(1,), (0,)])
    def test_atom_stack_matches_the_per_atom_loop(self, k):
        cfg = small(default_config("thm1_6i"), k=k, atom_count=8, seed=3, grid_nodes=128)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got, _ = run_campaign(cfg)
            ref = per_atom_hardy(cfg)
        mx = _note_value(got, "max quasi-norm: ")
        # gemm and gemv sum in different orders: rounding only
        close = dict(rel=1e-12, abs=0.0)
        assert mx == pytest.approx(ref["max"], **close)
        assert mx / got.C_hat == pytest.approx(ref["median"], **close)
        assert got.per_refinement_C == pytest.approx(ref["per_refinement_ratio"], **close)
        assert got.C_hat == got.per_refinement_C[-1]
        assert _note_value(got, "per-refinement max quasi-norms: ") == pytest.approx(
            ref["per_refinement_max"], **close
        )
        assert _note_value(got, "time-grid density sensitivity: ") == pytest.approx(
            ref["t_grid_refinement_delta"], rel=0.0, abs=1e-10
        )
        assert got.worst_sample["center"] == ref["worst_atom"]["center"]
        assert got.worst_sample["radius"] == ref["worst_atom"]["radius"]
        assert got.worst_sample["norm"] == mx

    def test_builds_each_matrix_once(self, monkeypatch):
        # One Riesz matrix, and one semigroup kernel per time of the dense
        # grid 2^(m/2), m = -20..12: the default grid's 17 for the whole
        # atom stack, the other 16 for the worst atom.
        kernel_times = []
        ladders = grids._ladders

        def counted_ladders(nu, shifts, times, *args):
            # A time counts once its ladder is drawn from the stream.
            for t, ladder in zip(times, ladders(nu, shifts, times, *args)):
                kernel_times.append(t)
                yield ladder

        riesz_builds = []
        grid_matrix = riesz._grid_matrix

        def counted_matrix(*args, **kwargs):
            riesz_builds.append(kwargs)
            return grid_matrix(*args, **kwargs)

        atoms = []
        draw = campaigns._random_atom

        def recorded_atom(*args):
            atoms.append(draw(*args))
            return atoms[-1]

        monkeypatch.setattr(grids, "_ladders", counted_ladders)
        monkeypatch.setattr(riesz, "_grid_matrix", counted_matrix)
        monkeypatch.setattr(campaigns, "_random_atom", recorded_atom)
        cfg = small(default_config("thm1_6i"), k=(1,), atom_count=4, grid_nodes=96)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_campaign(cfg)
        dense = tuple(2.0 ** (m / 2.0) for m in range(-20, 13))
        assert Counter(kernel_times) == Counter(dense)
        assert len(riesz_builds) == 1
        # The one build covers the nodes where some atom is not 0.
        stack = np.stack([atom.f.values for atom in atoms], axis=-1)
        support = riesz_builds[0]["support"]
        assert np.array_equal(support, np.any(stack != 0.0, axis=1))
        assert 0 < np.count_nonzero(support) < support.size

    @pytest.mark.parametrize("seed", [3, 5])
    def test_report_is_the_whole_matrix_report(self, monkeypatch, seed):
        # The matrix built on the pairs the atoms touch gives the report of
        # the whole matrix, byte for byte.
        cfg = small(default_config("thm1_6i"), atom_count=8, seed=seed, grid_nodes=128)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got, _ = run_campaign(cfg)
            whole = riesz.riesz_matrix
            supports = []

            def whole_matrix(*args, support=None):
                supports.append(support)
                return whole(*args)

            monkeypatch.setattr(campaigns, "riesz_matrix", whole_matrix)
            ref, _ = run_campaign(cfg)
        assert len(supports) == 1 and 0 < np.count_nonzero(supports[0]) < supports[0].size
        assert got.canonical_json() == ref.canonical_json()

    def test_median_is_numpy_median(self):
        rng = np.random.default_rng(0)
        cases = [rng.lognormal(0.0, 2.0, size) for size in range(1, 202) for _ in range(15)]
        cases += [
            np.array(v)
            for v in (
                [np.inf], [1.0, np.inf], [-np.inf, np.inf], [np.inf, np.inf, 2.0],
                [np.nan], [1.0, np.nan], [np.nan, 2.0, 3.0], [np.inf, np.nan],
                [0.0, -0.0], [-0.0, -0.0, 1.0], [5e-324, 1e308, 1.7e308, 3.0],
            )
        ]
        for values in cases:
            with np.errstate(invalid="ignore"):  # -inf + inf
                want = np.median(values)
                got = _median(values)
            assert repr(got) == repr(float(want)) or (math.isnan(got) and math.isnan(want))

    def test_run_does_not_import_numpy_ma(self):
        # np.median imports numpy.ma for its nan check, at 9-15 ms a process.
        code = (
            "import sys\n"
            "from besselops.campaigns import default_config, run_campaign\n"
            "run_campaign(default_config('thm1_6i'))\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        src = str(Path(campaigns.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("nodes", [16, 64])
    def test_refuses_more_than_one_dimension_before_building_a_grid(self, monkeypatch, nodes):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built")

        monkeypatch.setattr(campaigns, "default_grid", no_grid)
        cfg = small(
            default_config("thm1_6i"), nu=(1.0, 1.0), k=(1, 0), atom_count=2, grid_nodes=nodes
        )
        with pytest.raises(ConfigError, match="one dimension"):
            run_campaign(cfg)
