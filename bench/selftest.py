"""Quick self-test of the benchmark (about half a minute).

    python3 bench/selftest.py

1. The delta-derivative recursion in ``checks.py`` agrees with mpmath
   numerical differentiation of the kernel.
2. Small campaign reports pass ``checks.check_report``; the same reports
   with C_hat perturbed fail it, both when C_hat alone moves and when the
   top per-refinement constant and worst ratio move with it, so that only
   the independent recomputation can catch it.
3. Every metric named in BENCHMARK.json is printed with its unit, by a short
   run with tracing off and one with tracing on.
4. In a directory holding only BENCHMARK.json and the benchmark, the
   command exits non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import mpmath

import checks
import run

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def recursion_vs_mpmath() -> None:
    mpmath.mp.dps = 40

    def delta_mp(nu, ell, dx, t, x, y):
        a = mpmath.mpf(nu) + mpmath.mpf(1) / 2

        def kernel(xx):
            z = xx * y / (2 * t)
            return mpmath.sqrt(xx * y) / (2 * t) * mpmath.exp(-(xx * xx + y * y) / (4 * t)) * mpmath.besseli(nu, z)

        f = kernel
        for _ in range(ell):
            f = (lambda g: lambda xx: mpmath.diff(g, xx) - a * g(xx) / xx)(f)
        for _ in range(dx):
            f = (lambda g: lambda xx: mpmath.diff(g, xx))(f)
        return float(f(mpmath.mpf(x)))

    worst = 0.0
    for nu, ell, dx in ((0.3, 0, 0), (0.6, 1, 0), (0.7, 2, 0), (0.6, 1, 1), (1.6, 3, 0)):
        for t, x, y in ((0.3, 1.2, 0.9), (2.0, 0.4, 3.1), (0.05, 2.0, 2.2)):
            want = delta_mp(nu, ell, dx, mpmath.mpf(t), x, mpmath.mpf(y))
            got = checks.derivative_kernel(nu, ell, t, x, y, dx=dx)
            worst = max(worst, abs(got - want) / abs(want))
    expect(worst < 1e-10, f"delta recursion vs mpmath.diff (worst rel {worst:.1e})")


def small_reports():
    from besselops.campaigns import CampaignConfig, run_campaign

    for ineq, small in (
        ("thm1_5_size", {"samples": 100, "refine_levels": 2}),
        ("thm1_5_smooth", {"samples": 100, "refine_levels": 2}),
        ("prop2_8", {"samples": 200, "refine_levels": 2}),
        ("thm2_1", {}),
        ("thm2_4", {}),
        ("thm2_5", {}),
        ("prop2_7", {}),
    ):
        config = run._config(ineq, 0)
        config.update(small)
        report, _ = run_campaign(CampaignConfig(**config))
        yield ineq, config, json.loads(report.canonical_json())


def checks_catch_perturbation() -> None:
    for ineq, config, report in small_reports():
        problems = checks.check_report(report, config)
        expect(not problems, f"{ineq}: unperturbed report passes" + (f" {problems}" if problems else ""))
        alone = copy.deepcopy(report)
        alone["C_hat"] *= 1.0 + 1e-4
        expect(bool(checks.check_report(alone, config)), f"{ineq}: C_hat * (1 + 1e-4) fails")
        moved = copy.deepcopy(alone)
        moved["per_refinement_C"][-1] = moved["C_hat"]
        if "ratio" in moved["worst_sample"]:
            moved["worst_sample"]["ratio"] = moved["C_hat"]
            moved["worst_sample"]["lhs"] = moved["C_hat"] * moved["worst_sample"]["rhs"]
        problems = checks.check_report(moved, config)
        expect(
            any("recomputed" in p and "top" not in p and "ratio" not in p for p in problems),
            f"{ineq}: consistently perturbed C_hat fails the recomputation",
        )


def metrics_printed() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(
        sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
        "BENCHMARK.json names the workloads that run.py runs",
    )
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", "pointwise_session",
             "--seed", "0", "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(proc.returncode == 0 and got == want, f"--trace {trace} prints every {key} metric with its unit")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"--trace {trace} run is correct with no failed operation")


def bare_directory_fails() -> None:
    bare = run.BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "trace", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cz_cold", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "bare directory: non-zero exit, no result")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    recursion_vs_mpmath()
    checks_catch_perturbation()
    metrics_printed()
    bare_directory_fails()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
