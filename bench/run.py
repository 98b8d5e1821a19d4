"""Campaign benchmark for besselops.

    python3 bench/run.py --workload cz_cold --seed 3 --seconds 20 --trace 0

Runs whole rounds of one workload's campaigns until ``--seconds`` have gone
by, checks every report against an independent recomputation
(``checks.py``), and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``wall_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` every campaign process records spans
around each layer's entry points and the metrics are the per-layer ones.

One operation is one campaign run.  It fails if it raises, exits non-zero,
returns a verdict other than ``stable`` or fails a correctness check.  The
load is closed-loop from this one process; campaigns run one at a time,
each child with BLAS and OpenMP threads pinned to 1.  See README.md for the
workloads, the seeds and how the bounds were derived.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = SRC / "besselops" / "configs"
CHILD = BENCH / "child.py"

# Campaign seed = benchmark seed mod SEED_SPACE.  Every id below was run at
# each of these campaign seeds and reached "stable" (README.md, "Seeds").
SEED_SPACE = 16

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    ids: tuple[str, ...]
    session_processes: int = 0  # 0: one fresh CLI process per campaign


WORKLOADS = {
    "cz_cold": Workload(("thm1_5_size", "thm1_5_smooth", "prop2_8")),
    "grid_cold": Workload(("thm1_6i", "thm1_6ii")),
    "pointwise_session": Workload(
        ("thm2_1", "thm2_4", "thm2_5", "cor2_6a", "cor2_6b", "prop2_7"), session_processes=5
    ),
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Extra set-up samples after each campaign process, so that the median
# set-up time rests on enough samples spread over the run.
PROBES = 2

# Median time of calib.py on this machine in its usual state (2 vCPUs,
# Python 3.11.7, numpy 2.4.6); times are reported scaled to it.
CALIB_REFERENCE_S = 0.1

_CAMPAIGN_IDS = tuple(i for w in WORKLOADS.values() for i in w.ids)
PER_LAYER = (
    ("special.besseli_scaled.calls", "count"),
    ("special.besseli_scaled.points", "count"),
    ("special.besseli_scaled.s", "s"),
    ("heat.eval_delta_heat_1d.calls", "count"),
    ("heat.eval_delta_heat_1d.points", "count"),
    ("heat.eval_delta_heat_1d.s", "s"),
    ("heat.mixed_partial_delta.s", "s"),
    ("heat.delta_dt_heat_1d.s", "s"),
    ("heat.adjoint_power_heat_1d.s", "s"),
    ("heat.bound_rhs.s", "s"),
    ("heat.p1d_shifts.calls", "count"),
    ("heat.p1d_shifts.s", "s"),
    ("heat.self_s", "s"),
    ("riesz.riesz_kernel_batch.calls", "count"),
    ("riesz.riesz_kernel_batch.s", "s"),
    ("riesz.riesz_kernel_batch.pair_nodes", "count"),
    ("riesz.riesz_matrix.calls", "count"),
    ("riesz.riesz_matrix.builds", "count"),
    ("riesz.riesz_matrix.s", "s"),
    ("riesz.riesz_apply.calls", "count"),
    ("riesz.riesz_apply.s", "s"),
    ("riesz.cz_bound_check.s", "s"),
    ("riesz.self_s", "s"),
    ("grids.apply_semigroup.calls", "count"),
    ("grids.apply_semigroup.s", "s"),
    ("grids.maximal_function.calls", "count"),
    ("grids.maximal_function.s", "s"),
    ("grids.lp_norm.s", "s"),
    ("grids.self_s", "s"),
    ("spaces.bmo_norm.calls", "count"),
    ("spaces.bmo_norm.s", "s"),
    ("spaces.minimizing_polynomial.calls", "count"),
    ("spaces.minimizing_polynomial.s", "s"),
    ("sampling.s", "s"),
    ("campaigns.run_campaign.s", "s"),
    ("campaigns.self_s", "s"),
    *((f"campaigns.{i}.s", "s") for i in _CAMPAIGN_IDS),
    ("cli.main.s", "s"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
)


def _config(ineq: str, seed: int) -> dict:
    with open(CONFIGS / f"{ineq}.json") as fh:
        config = json.load(fh)
    config["seed"] = seed
    return config


@dataclass
class Proc:
    """One finished child process."""

    code: int
    wall: float
    setup: float | None
    rss_mb: float
    result: dict
    stderr: str


def _spawn(child_args: list[str], work: Path, tag: str, trace: bool, probe: bool = False) -> Proc:
    result_path = work / f"{tag}.result.json"
    cmd = [sys.executable, str(CHILD), "--result", str(result_path)]
    if trace:
        cmd += ["--trace", str(work / f"{tag}.spans.json")]
    if probe:
        cmd += ["--probe"]
    cmd += child_args
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
    result_path.unlink(missing_ok=True)
    with open(work / f"{tag}.stderr", "wb+") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    result = {}
    if result_path.exists():
        result = json.loads(result_path.read_text())
    ready = result.get("ready")
    return Proc(
        code=proc.returncode,
        wall=ended - spawned,
        setup=None if ready is None else ready - spawned,
        rss_mb=usage.ru_maxrss / 1024.0,
        result=result,
        stderr=stderr,
    )


class Run:
    """Everything one benchmark run records: the operations with their
    reports and times, the processes, set-up times and speed samples."""

    def __init__(self, work: Path, seed: int, trace: bool):
        self.work, self.seed, self.trace = work, seed, trace
        self.ops: list[tuple[str, dict, str | None, str | None]] = []
        self.op_seconds: dict[str, list[float]] = {}
        self.procs: list[Proc] = []
        self.setups: list[float] = []
        self.calib: list[float] = []

    def record(self, ineq: str, seconds: float, report_text, error) -> None:
        self.ops.append((ineq, _config(ineq, self.seed), report_text, error))
        self.op_seconds.setdefault(ineq, []).append(seconds)

    def process(self, child_args: list[str], tag: str) -> Proc:
        """Run one campaign process, then the set-up probes and a speed sample."""
        proc = _spawn(child_args, self.work, tag, self.trace)
        self.procs.append(proc)
        if proc.setup is not None:
            self.setups.append(proc.setup)
        if not self.trace:
            for n in range(PROBES):
                probe = _spawn(child_args, self.work, f"{tag}-probe{n}", False, probe=True)
                if probe.code != 0 or probe.setup is None:
                    raise RuntimeError(f"set-up probe failed ({probe.code}): {probe.stderr[-2000:]}")
                self.setups.append(probe.setup)
        self.calibrate()
        return proc

    def calibrate(self) -> None:
        out = subprocess.run(
            [sys.executable, str(BENCH / "calib.py")],
            env={**os.environ, **THREAD_ENV},
            capture_output=True,
            text=True,
            check=True,
        )
        self.calib.append(float(out.stdout))

    def scale(self) -> float:
        """Reference speed over this run's median speed; see calib.py."""
        return CALIB_REFERENCE_S / statistics.median(self.calib)

    def wall_s(self) -> float:
        """Time of one round: the sum over the workload's campaigns of each
        one's mean time.  The machine runs slow in bursts of a few seconds;
        a mean over the run averages them, where a median of short
        operations would jump between the fast and the slow mode."""
        return sum(statistics.fmean(v) for v in self.op_seconds.values())

    def check(self) -> tuple[int, int]:
        """(failed, wrong): operations that failed, and those of them whose
        report failed a correctness check.

        Reports are checked after the timed loop: the parent stays small
        while it spawns campaign processes (a child's peak RSS starts from
        the parent's resident size until it execs), and scipy is imported
        only then.
        """
        import checks

        failed = wrong = 0
        for ineq, config, text, error in self.ops:
            if error is None and text is None:
                error = "no report written"
            if error is None:
                problems = checks.check_report_text(text, config)
                verdict = json.loads(text)["verdict"]
                if problems:
                    wrong += 1
                    error = "; ".join(problems)
                elif verdict != "stable":
                    error = f"verdict {verdict}"
            if error is not None:
                failed += 1
                print(f"FAILED {ineq} (seed {config['seed']}): {error}", file=sys.stderr)
        return failed, wrong


def _run_cold(wl: Workload, seconds: float, run: Run) -> int:
    rounds = 0
    started = time.monotonic()
    while rounds == 0 or time.monotonic() - started < seconds:
        for ineq in wl.ids:
            report_path = run.work / f"{ineq}.report.json"
            report_path.unlink(missing_ok=True)
            argv = ["cli", "--seed", str(run.seed), "--out", str(run.work)]
            proc = run.process([*argv, "campaign", "run", "--config", ineq], f"r{rounds}-{ineq}")
            error = None
            if proc.code != 0:
                error = f"exit code {proc.code}: {proc.stderr.strip()[-500:]}"
            text = report_path.read_text() if report_path.exists() else None
            run.record(ineq, proc.wall, text, error)
        rounds += 1
    return rounds


def _run_session(wl: Workload, seconds: float, run: Run) -> int:
    share = seconds / wl.session_processes
    for n in range(wl.session_processes):
        argv = ["session", "--seed", str(run.seed), "--seconds", repr(share), "--ids", ",".join(wl.ids)]
        proc = run.process(argv, f"s{n}")
        ops = proc.result.get("ops", [])
        if proc.code != 0 or not ops:
            raise RuntimeError(f"session process failed ({proc.code}): {proc.stderr[-2000:]}")
        for op in ops:
            run.record(op["id"], op["s"], op["report"], op["error"])
    return len(run.ops) // len(wl.ids)


def _per_layer(work: Path, rounds: int, scale: float, wall: float) -> dict[str, float]:
    """Per-round totals over every traced process; seconds are scaled to the
    reference speed like the end-to-end times."""
    import spans

    totals: dict[str, float] = {}
    for path in sorted(work.glob("*.spans.json")):
        for name, value in spans.aggregate(json.loads(path.read_text())).items():
            totals[name] = totals.get(name, 0.0) + value
    out = {
        name: totals.get(name, 0.0) / rounds * (scale if unit == "s" else 1.0)
        for name, unit in PER_LAYER
    }
    out["trace.wall_s"] = wall
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="besselops campaign benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "besselops" / "cli.py").is_file():
        print(f"besselops sources not found under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = args.seed % SEED_SPACE
    trace = bool(args.trace)

    sys.path.insert(0, str(BENCH))
    work = BENCH / ("trace" if trace else "out") / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Byte-compile and page in the package once, so that no timed set-up
    # pays for it.
    warm = subprocess.run(
        [sys.executable, "-c", "import besselops.cli"],
        env={**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)},
        cwd=ROOT,
        capture_output=True,
    )
    if warm.returncode != 0:
        print(f"cannot import besselops: {warm.stderr.decode()[-2000:]}", file=sys.stderr)
        return 2

    run = Run(work, seed, trace)
    run.calibrate()
    runner = _run_session if wl.session_processes else _run_cold
    rounds = runner(wl, args.seconds, run)
    scale = run.scale()
    wall = run.wall_s() * scale
    if trace:
        metrics = _per_layer(work, rounds, scale, wall)
        units = dict(PER_LAYER)
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(run.setups) * scale,
            "peak_rss_mb": max(p.rss_mb for p in run.procs),
        }
        units = dict(END_TO_END)
        shutil.rmtree(work, ignore_errors=True)
    print(
        f"{args.workload}: campaign seed {seed}, {rounds} rounds, {len(run.procs)} processes,"
        f" measured wall {run.wall_s():.4f} s, set-up {statistics.median(run.setups):.4f} s,"
        f" speed scale {scale:.4f}",
        file=sys.stderr,
    )
    failed, wrong = run.check()
    correct = wrong == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(run.ops),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
