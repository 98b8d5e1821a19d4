"""Campaign harness tests: configs, determinism, verdict logic, and light
smoke runs of each inequality family (the heavy acceptance-tolerance runs
live in the acceptance suite)."""

import json
import warnings

import numpy as np
import pytest

from besselops import cli, heat
from besselops.campaigns import (
    INEQUALITY_IDS,
    SPECS,
    BoundReport,
    CampaignConfig,
    bundled_config_path,
    default_config,
    hardy_spot_check,
    bmo_spot_check,
    run_campaign,
)
from besselops.errors import ConfigError
from besselops.heat import NuVector


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

    def test_prop2_9_ell_must_match_dimension(self):
        with pytest.raises(ConfigError):
            run_campaign(small(default_config("prop2_9"), ell=(1,)))

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

    @pytest.mark.parametrize("ineq,batches", [("thm1_5_size", 1), ("thm1_5_smooth", 2)])
    def test_thm1_5_bessel_work(self, monkeypatch, ineq, batches):
        # Four independent quadratures of R(x,y), R(y,x), R(x,y'), R(y',x)
        # would make 4 ladders per time node; the size sweep needs only
        # R(x,y), and the smoothness sweep gets each reverse order from the
        # ladder of its pair.
        cfg = small(default_config(ineq), samples=100, plan_nodes_per_decade=4)
        calls = []
        besseli_scaled = heat.besseli_scaled

        def counted(alpha, z):
            calls.append(alpha)
            return besseli_scaled(alpha, z)

        monkeypatch.setattr(heat, "besseli_scaled", counted)
        run_campaign(cfg)
        shifts = len(heat.delta_expansion(cfg.nu[0], cfg.k[0]).shifts)
        four_batches = 4 * cfg.plan.nodes()[0].size * shifts
        assert len(calls) * 4 == four_batches * batches

    def test_hardy_spot_check_k0_reduces_to_maximal(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r = hardy_spot_check(
                NuVector((1.0,)), (0,), 1.0, atom_count=8, seed=2, grid_nodes=256, levels=2
            )
        assert r["max"] > 0 and r["uniform"]

    def test_bmo_spot_check_runs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r = bmo_spot_check(NuVector((1.0,)), (1,), corpus_size=3, seed=4, grid_nodes=192)
        assert r["advisory"] is True
        assert len(r["ratios"]) >= 1
        assert all(np.isfinite(v) for v in r["ratios"])

    def test_thm4_1_smoke(self):
        cfg = small(default_config("thm4_1"), corpus_size=6, grid_nodes=192)
        rep, _ = run_campaign(cfg)
        assert np.isfinite(rep.C_hat)
        assert rep.C_hat < 10.0
