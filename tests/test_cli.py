"""CLI contract tests: commands, outputs, exit codes, determinism."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from besselops import campaigns, cli
from besselops.campaigns import CampaignConfig, bundled_config_path
from besselops.cli import _plan_from_args, build_parser, main
from besselops.grids import GridFunction, default_grid, gridfunction_to_csv
from besselops.riesz import DEFAULT_PLAN
from besselops.sampling import make_rng

from atom_fixtures import bundled_ball_atoms, bundled_line_atoms


@pytest.fixture()
def ball_atom_csv(tmp_path):
    label, atom, expected = bundled_ball_atoms()[0]
    path = tmp_path / "atom.csv"
    gridfunction_to_csv(atom.f, path)
    ball = ",".join(map(str, atom.ball.center)) + ";" + str(atom.ball.radius)
    return path, ball, expected


class TestExitCodes:
    def test_missing_config_is_2(self, capsys):
        rc = main(["campaign", "run", "--config", "/no/such/file.json"])
        assert rc == 2

    def test_unknown_inequality_id_is_2(self):
        rc = main(["campaign", "run", "--config", "thm9_9"])
        assert rc == 2

    def test_non_finite_csv_is_2(self, tmp_path, capsys):
        from besselops.grids import GridFunction, default_grid

        g = default_grid(1, nodes_per_axis=16)
        values = np.ones(16)
        values[3] = np.nan
        path = tmp_path / "f.csv"
        gridfunction_to_csv(GridFunction(g, values), path)
        rc = main(["bmo", "norm", "--input", str(path)])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["bmo", "norm"],
            ["riesz", "apply", "--nu", "0.8", "--k", "1"],
            ["atoms", "check"],
            ["atoms", "decompose", "--ball", "1.0;0.5"],
        ],
        ids=["bmo_norm", "riesz_apply", "atoms_check", "atoms_decompose"],
    )
    @pytest.mark.parametrize(
        "text,message", [("", "csv has no header"), ("x1,value\n", "csv has no rows")],
        ids=["empty", "header_only"],
    )
    def test_empty_csv_is_2(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "f.csv"
        path.write_text(text)
        rc = main(["--out", str(tmp_path), *command, "--input", str(path)])
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_riesz_apply_on_a_uniform_axis_is_2(self, tmp_path, capsys):
        # The 1-D grid transform is a Mellin convolution: it needs a
        # log-uniform axis, and the axis read from the CSV is not one.
        from besselops.grids import Grid, uniform_axis

        g = Grid((uniform_axis(0.05, 10.0, 64),))
        path = tmp_path / "f.csv"
        gridfunction_to_csv(GridFunction(g, np.exp(-((g.axes[0].nodes - 3.0) ** 2))), path)
        rc = main(["--out", str(tmp_path), "riesz", "apply", "--nu", "0.8", "--k", "1", "--input", str(path)])
        assert rc == 2
        assert "log-uniform" in capsys.readouterr().err
        assert not (tmp_path / "riesz_apply.csv").exists()

    def test_float_overflow_is_2(self, monkeypatch, capsys):
        import besselops.cli as cli

        def overflow(args):
            return 10.0**400.0  # a float power raises OverflowError

        monkeypatch.setattr(cli, "cmd_kernel_eval", overflow)
        rc = main(["kernel", "eval", "--nu", "0.5", "--t", "1.0", "--x", "1.0", "--y", "2.0"])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    def test_riesz_kernel_off_the_half_line_is_2(self, capsys):
        rc = main(["riesz", "kernel", "--nu", "0.7", "--k", "2", "--x=-1", "--y=-2"])
        assert rc == 2
        assert "strictly positive" in capsys.readouterr().err

    def test_kernel_eval_at_a_refused_bessel_order_is_2(self, capsys):
        # z = xy/2t = 700 lies in the first asymptotic bin (600, 1000],
        # where order 60's Hankel terms stop shrinking above 1e-17.
        rc = main(["kernel", "eval", "--nu", "60", "--t", "1e-3", "--x", "1", "--y", "1.4"])
        assert rc == 2
        assert "too large" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "point",
        [
            ["--nu", "0.5", "--x", "1,2", "--y", "1.5,7", "--ell", "1"],
            ["--nu", "0.5,0.5", "--x", "1", "--y", "1.5", "--ell", "1,1"],
            ["--nu", "0.5", "--x", "1,2", "--y", "1.5,7"],
            ["--nu", "0.5,0.5", "--x", "1", "--y", "1.5"],
        ],
        ids=["ell_point_longer", "ell_point_shorter", "point_longer", "point_shorter"],
    )
    def test_kernel_eval_point_dimension_mismatch_is_2(self, capsys, point):
        rc = main(["kernel", "eval", "--t", "1", *point])
        assert rc == 2
        assert "point dimension does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("p", [0.2, 0.4])
    def test_thm1_6i_at_or_below_the_p_range_is_2(self, tmp_path, monkeypatch, capsys, p):
        # At nu = 1 the range is p > 1/(1 + 3/2) = 0.4: below it the
        # transform of an atom is not in L^p(0, inf), and only the box keeps
        # the measured quasi-norm finite.  The run stops before any draw.
        def no_draw(*args):
            raise AssertionError("an atom was drawn")

        monkeypatch.setattr(campaigns, "_random_atom", no_draw)
        config = json.loads(bundled_config_path("thm1_6i").read_text())
        config["p"] = p
        path = tmp_path / "thm1_6i.json"
        path.write_text(json.dumps(config))
        rc = main(["campaign", "run", "--config", str(path)])
        assert rc == 2
        assert "below the admissible range" in capsys.readouterr().err

    def test_kernel_eval_ok(self, capsys):
        rc = main(["kernel", "eval", "--nu", "0.5", "--t", "1.0", "--x", "1.0", "--y", "2.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(0.18996, abs=1e-5)

    def test_atom_check_valid_and_invalid(self, tmp_path, capsys):
        for (label, atom, expected) in bundled_ball_atoms():
            path = tmp_path / f"{label}.csv"
            gridfunction_to_csv(atom.f, path)
            ball = ",".join(map(str, atom.ball.center)) + ";" + str(atom.ball.radius)
            rc = main(["atoms", "check", "--input", str(path), "--ball", ball, "--p", "1.0"])
            capsys.readouterr()
            assert rc == (0 if expected else 1), label

    def test_f_atom_check(self, tmp_path, capsys):
        for label, f, expected in bundled_line_atoms():
            path = tmp_path / f"{label}.csv"
            gridfunction_to_csv(f, path)
            rc = main(["atoms", "check", "--input", str(path), "--f-atom"])
            capsys.readouterr()
            assert rc == (0 if expected else 1), label


class TestCampaignRun:
    def test_bundled_id_and_report_files(self, tmp_path, capsys):
        rc = main(
            [
                "--out",
                str(tmp_path),
                "--seed",
                "0",
                "campaign",
                "run",
                "--config",
                "thm2_1",
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "thm2_1.report.json").read_text())
        assert report["verdict"] == "stable"
        meta = json.loads((tmp_path / "thm2_1.meta.json").read_text())
        assert "runtime_seconds" in meta
        assert "runtime" not in json.dumps(report)

    def test_meta_records_the_environment(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        rc = main(["--out", str(tmp_path), "campaign", "run", "--config", "thm2_1"])
        assert rc == 0
        env = json.loads((tmp_path / "thm2_1.meta.json").read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert list(env["threads"]) == [
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
        ]
        assert env["threads"]["OMP_NUM_THREADS"] == "1"
        assert env["threads"]["MKL_NUM_THREADS"] is None
        report = (tmp_path / "thm2_1.report.json").read_text()
        assert "numpy" not in report and "THREADS" not in report

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            rc = main(["--out", str(out), "campaign", "run", "--config", "prop2_7"])
            assert rc == 0
        b1 = (out1 / "prop2_7.report.json").read_bytes()
        b2 = (out2 / "prop2_7.report.json").read_bytes()
        assert b1 == b2

    def test_csv_sample_dump(self, tmp_path, capsys):
        rc = main(
            [
                "--out",
                str(tmp_path),
                "--format",
                "csv",
                "campaign",
                "run",
                "--config",
                "thm2_1",
            ]
        )
        assert rc == 0
        lines = (tmp_path / "thm2_1.samples.csv").read_text().splitlines()
        assert lines[0] == "t,x1,y1,lhs,rhs,ratio"
        assert len(lines) == 1 + 10000 * 4


class TestGlobalFlags:
    def run(self, capsys, argv):
        rc = main(argv)
        return rc, json.loads(capsys.readouterr().out)

    def test_riesz_verify_defaults_when_unset(self, capsys):
        # The README's command: an unset --seed and --refine mean the
        # sample plan's own seed 0 and 3 levels.
        rc, out = self.run(capsys, ["riesz", "verify", "--nu", "0.7", "--k", "2", "--samples", "400"])
        assert rc == 0 and out["verdict"] == "stable"
        assert len(out["size"]["per_refinement_C"]) == 3
        _, seeded = self.run(
            capsys,
            ["--seed", "0", "--refine", "3", "riesz", "verify", "--nu", "0.7", "--k", "2",
             "--samples", "400"],
        )
        assert seeded == out

    def test_riesz_verify_honours_given_flags(self, capsys):
        argv = ["riesz", "verify", "--nu", "0.7", "--k", "2", "--samples", "100"]
        _, default = self.run(capsys, argv)
        _, given = self.run(capsys, ["--seed", "5", "--refine", "2", *argv])
        assert len(given["size"]["per_refinement_C"]) == 2
        assert given["size"]["worst_sample"] != default["size"]["worst_sample"]

    def test_kernel_verify_honours_the_global_seed(self, capsys):
        _, default = self.run(capsys, ["kernel", "verify"])
        _, zero = self.run(capsys, ["--seed", "0", "kernel", "verify"])
        _, five = self.run(capsys, ["--seed", "5", "kernel", "verify"])
        assert zero == default
        assert five["worst"] != default["worst"]

    def test_kernel_verify_draws_from_make_rng(self, monkeypatch, capsys):
        # All randomness flows through sampling.make_rng (Philox).
        drawn = []

        def recorded(seed):
            drawn.append((seed, make_rng(seed)))
            return drawn[-1][1]

        monkeypatch.setattr(cli, "make_rng", recorded)
        self.run(capsys, ["--seed", "5", "kernel", "verify"])
        [(seed, rng)] = drawn
        assert seed == 5
        # The verify loop drew from it: its stream has moved on.
        assert not np.array_equal(rng.random(4), make_rng(5).random(4))

    @pytest.mark.parametrize("ineq, k", [("cor2_11", [1]), ("cor2_11", [1, 1, 5]), ("prop2_10", [1])])
    def test_per_axis_mismatch_is_a_configuration_error(self, tmp_path, capsys, ineq, k):
        config = json.loads(bundled_config_path(ineq).read_text())
        config.update(k=k, samples=100)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        rc = main(["--out", str(tmp_path), "campaign", "run", "--config", str(path)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err


    @pytest.mark.parametrize("ineq", ["thm2_1", "cor2_6a", "prop2_7", "prop2_8"])
    def test_one_axis_id_with_an_nd_nu_is_a_configuration_error(self, tmp_path, capsys, ineq):
        config = json.loads(bundled_config_path(ineq).read_text())
        config.update(nu=[0.6, 1.5], samples=100)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        rc = main(["--out", str(tmp_path), "campaign", "run", "--config", str(path)])
        assert rc == 2
        assert "nu must have one entry" in capsys.readouterr().err

    @pytest.mark.parametrize("c_grid", ["[-1.0]", "[0.0]", "[NaN]", "[Infinity]", "[2.0, -1.0]"])
    def test_c_grid_rate_not_finite_and_positive_is_a_configuration_error(
        self, tmp_path, capsys, c_grid
    ):
        path = tmp_path / "config.json"
        path.write_text(f'{{"inequality": "thm2_1", "samples": 100, "c_grid": {c_grid}}}')
        rc = main(["--out", str(tmp_path), "campaign", "run", "--config", str(path)])
        assert rc == 2
        assert "finite rates > 0" in capsys.readouterr().err


class TestMiscCommands:
    @pytest.mark.parametrize(
        "command, name",
        [
            (["kernel", "verify"], "kernel_verify.json"),
            (["riesz", "verify", "--nu", "0.7", "--k", "2", "--samples", "100"], "riesz_verify.json"),
            (["atoms", "check", "--input", "{csv}", "--ball", "{ball}"], "atom_check.json"),
            (["atoms", "decompose", "--input", "{csv}", "--ball", "{ball}"], "decomposition.json"),
            (["bmo", "norm", "--input", "{csv}"], "bmo_norm.json"),
            (["cover", "build", "--nodes", "64"], "covering.json"),
        ],
        ids=lambda v: v if isinstance(v, str) else "_".join(v[:2]),
    )
    def test_out_writes_the_named_file_and_stdout_has_no_file_key(
        self, tmp_path, capsys, command, name
    ):
        _, atom, _ = bundled_ball_atoms()[1]  # a subcritical ball, so it decomposes
        csv = tmp_path / "atom.csv"
        gridfunction_to_csv(atom.f, csv)
        ball = ",".join(map(str, atom.ball.center)) + ";" + str(atom.ball.radius)
        out = tmp_path / "out"
        rc = main(["--out", str(out), *(a.format(csv=csv, ball=ball) for a in command)])
        assert rc in (0, 1)
        printed = json.loads(capsys.readouterr().out)
        assert "_file" not in printed
        assert [p.name for p in out.glob("*.json")] == [name]
        assert json.loads((out / name).read_text()) == printed

    def test_kernel_eval_and_riesz_kernel_keep_their_files_in_one_out(self, tmp_path, capsys):
        out = tmp_path / "out"
        printed = {}
        for name, command in (
            ("kernel_eval.json", ["kernel", "eval", "--nu", "0.5", "--t", "1", "--x", "1", "--y", "2"]),
            ("riesz_kernel.json", ["riesz", "kernel", "--nu", "0.5", "--k", "1", "--x", "1", "--y", "3"]),
        ):
            assert main(["--out", str(out), *command]) == 0
            printed[name] = json.loads(capsys.readouterr().out)
        assert sorted(p.name for p in out.glob("*.json")) == sorted(printed)
        for name, payload in printed.items():
            assert json.loads((out / name).read_text()) == payload

    def test_plan_defaults_are_the_default_plan(self):
        parser = build_parser()
        for argv in (
            ["riesz", "kernel", "--nu", "1", "--k", "1", "--x", "1", "--y", "2"],
            ["riesz", "apply", "--nu", "1", "--k", "1", "--input", "f.csv"],
            ["riesz", "verify", "--nu", "1", "--k", "1"],
        ):
            assert _plan_from_args(parser.parse_args(argv)) == DEFAULT_PLAN
        assert CampaignConfig(inequality="thm2_1").plan == DEFAULT_PLAN

    def test_kernel_verify(self, capsys):
        rc = main(["kernel", "verify"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["verdict"] == "valid"

    def test_cover_build(self, capsys):
        rc = main(["cover", "build", "--box", "0.5", "8.0", "--dim", "1", "--nodes", "512"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["verdict"] == "valid"
        assert out["max_overlap"] >= 1

    def test_bmo_norm_command(self, tmp_path, capsys):
        from besselops.grids import GridFunction, default_grid

        g = default_grid(1, nodes_per_axis=256)
        f = GridFunction(g, np.log(g.axes[0].nodes))
        path = tmp_path / "f.csv"
        gridfunction_to_csv(f, path)
        rc = main(["bmo", "norm", "--input", str(path), "--s", "0.0", "--degree", "1"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["value"] > 0

    def test_riesz_kernel_command(self, capsys):
        rc = main(
            [
                "riesz", "kernel", "--nu", "0.5", "--k", "1", "--x", "1.0", "--y", "3.0",
                "--plan-t-max", "1e8",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        import math

        K = math.log(4.0 / 2.0) / math.pi
        oracle = (1.0 / 4.0 - 1.0 / (-2.0)) / math.pi - K / 1.0
        assert out["value"] == pytest.approx(oracle, rel=1e-8)

    def test_riesz_apply_command(self, tmp_path, capsys):
        from besselops.grids import GridFunction, default_grid, gridfunction_from_csv
        from besselops.riesz import riesz_matrix

        g = default_grid(1, nodes_per_axis=64)
        x = g.axes[0].nodes
        f = GridFunction(g, x**1.3 * np.exp(-((x - 3.0) ** 2)))
        path = tmp_path / "f.csv"
        gridfunction_to_csv(f, path)
        rc = main(
            [
                "--out", str(tmp_path), "riesz", "apply", "--nu", "0.8", "--k", "1",
                "--input", str(path), "--plan-nodes", "8",
            ]
        )
        assert rc == 0
        # Floats are written with repr, so the CSV holds the transform exactly.
        out = gridfunction_from_csv(tmp_path / "riesz_apply.csv")
        assert np.array_equal(out.values, riesz_matrix(0.8, (1,), g) @ f.values)

    def test_riesz_apply_does_not_import_numpy_ma(self, tmp_path):
        # The plain np.unique imports numpy.ma (numpy 2.x), at 9-15 ms a
        # process; reading the CSV's axes must not.
        g = default_grid(1, nodes_per_axis=64)
        x = g.axes[0].nodes
        gridfunction_to_csv(GridFunction(g, x**1.3 * np.exp(-((x - 3.0) ** 2))), tmp_path / "f.csv")
        code = (
            "import sys\n"
            "from besselops.cli import main\n"
            "argv = ['--out', sys.argv[1], 'riesz', 'apply', '--nu', '0.8', '--k', '1',\n"
            "        '--input', sys.argv[2], '--plan-nodes', '8']\n"
            "assert main(argv) == 0\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path), str(tmp_path / "f.csv")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "riesz_apply.csv").exists()

    def test_console_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "besselops.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "campaign" in proc.stdout
