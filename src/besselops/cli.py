"""Command-line interface.

Exit codes: 0 for passing verdicts (stable/valid), 1 for failing ones
(violated/invalid/unstable), 2 for configuration errors and for inputs the
library refuses.  Campaign reports are canonical JSON (deterministic for
fixed config and seed); wall-clock runtime and the environment (Python and
numpy versions, thread variables) go to a sidecar meta file, and the runtime
to stderr; neither enters the report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import pathlib
import platform
import sys
import time

import numpy as np

from .campaigns import (
    INEQUALITY_IDS,
    CampaignConfig,
    bundled_config_path,
    run_campaign,
)
from .errors import ConfigError, DomainError, GridError, UnderResolvedError
from .grids import (
    default_grid,
    gridfunction_from_csv,
    gridfunction_to_csv,
)
from .heat import KernelPoint, NuVector, delta_heat_kernel_nd
from .riesz import (
    DEFAULT_PLAN, CzSamplePlan, SubordinationPlan, cz_bound_check, riesz_apply, riesz_kernel,
)
from .sampling import make_rng
from .spaces import (
    AtomCandidate,
    Ball,
    atom_dual_decompose,
    bmo_norm,
    validate_f_atom,
    validate_p_rho_atom,
    vitali_covering,
)

PASS_VERDICTS = {"stable", "valid"}


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _emit(payload: dict, args, name: str) -> None:
    """Prints the payload as JSON and, given --out, writes it there as ``name``."""
    text = json.dumps(payload, sort_keys=True, indent=2)
    print(text)
    if getattr(args, "out", None):
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text + "\n")


def _plan_from_args(args) -> SubordinationPlan:
    return SubordinationPlan(args.plan_t_min, args.plan_t_max, args.plan_nodes)


def _exit_for(verdict: str) -> int:
    return 0 if verdict in PASS_VERDICTS else 1


def _given(args, refine_field: str) -> dict:
    """The global --seed and --refine flags that were given, under the
    command's field names; an unset flag leaves the command's default."""
    flags = {"seed": args.seed, refine_field: args.refine}
    return {name: value for name, value in flags.items() if value is not None}


# ---------------------------------------------------------------------------
# kernel


def cmd_kernel_eval(args) -> int:
    nu = NuVector(_floats(args.nu))
    q = KernelPoint(args.t, _floats(args.x), _floats(args.y))
    ell = _ints(args.ell) if args.ell else (0,) * nu.n
    value = delta_heat_kernel_nd(nu, ell, q)
    _emit(
        {
            "nu": list(nu.nu),
            "t": q.t,
            "x": list(q.x),
            "y": list(q.y),
            "ell": list(ell),
            "value": value,
        },
        args,
        "kernel_eval.json",
    )
    return 0


def cmd_kernel_verify(args) -> int:
    """Quick recurrence/derivative identity sweep for the kernel family."""
    from .special import besseli_scaled
    from .heat import heat_kernel_1d

    def ratio(a, z, order):
        """z^{-a} I_order(z); e^z is finite on the z < 50 it is used on."""
        return z ** (-a) * math.exp(z) * besseli_scaled(order, z)

    rng = make_rng(0 if args.seed is None else args.seed)
    worst = {"difference_identity": 0.0, "interlacing": 0.0, "ratio_derivative": 0.0,
             "kernel_difference": 0.0, "dirichlet": 0.0}
    for _ in range(200):
        a = rng.uniform(-0.49, 4.0)
        z = 10.0 ** rng.uniform(-2, 2.2)
        lhs = besseli_scaled(a, z) - besseli_scaled(a + 2.0, z)
        rhs = 2.0 * (a + 1.0) / z * besseli_scaled(a + 1.0, z)
        worst["difference_identity"] = max(
            worst["difference_identity"], abs(lhs / rhs - 1.0)
        )
        mid = besseli_scaled(a, z) - besseli_scaled(a + 1.0, z)
        ok = 0.0 < mid < 2.0 * (a + 1.0) / z * besseli_scaled(a + 1.0, z)
        worst["interlacing"] = max(worst["interlacing"], 0.0 if ok else 1.0)
        if z < 50.0:
            h = 1e-5 * max(z, 1.0)
            fd = (ratio(a, z + h, a) - ratio(a, z - h, a)) / (2 * h)
            worst["ratio_derivative"] = max(
                worst["ratio_derivative"], abs(fd - ratio(a, z, a + 1.0)) / abs(fd)
            )
        t = 10.0 ** rng.uniform(-2, 1)
        x, y = 10.0 ** rng.uniform(-1, 1, 2)
        nu = rng.uniform(-0.45, 3.0)
        lhs = heat_kernel_1d(nu, t, x, y) - heat_kernel_1d(nu + 2.0, t, x, y)
        rhs = 4.0 * (nu + 1.0) * t / (x * y) * heat_kernel_1d(nu + 1.0, t, x, y)
        if rhs > 0.0:
            worst["kernel_difference"] = max(
                worst["kernel_difference"], abs(lhs / rhs - 1.0)
            )
        direct = heat_kernel_1d(0.5, t, x, y)
        image = (4.0 * math.pi * t) ** -0.5 * (
            math.exp(-((x - y) ** 2) / (4 * t)) - math.exp(-((x + y) ** 2) / (4 * t))
        )
        if image > 0.0:
            worst["dirichlet"] = max(worst["dirichlet"], abs(direct / image - 1.0))
    tolerances = {
        "difference_identity": 1e-12,
        "interlacing": 0.5,
        "ratio_derivative": 1e-6,
        "kernel_difference": 1e-12,
        "dirichlet": 1e-10,
    }
    failures = [k for k, v in worst.items() if v > tolerances[k]]
    verdict = "valid" if not failures else "invalid"
    _emit({"verdict": verdict, "worst": worst, "failures": failures}, args, "kernel_verify.json")
    return _exit_for(verdict)


# ---------------------------------------------------------------------------
# riesz


def cmd_riesz_kernel(args) -> int:
    nu = NuVector(_floats(args.nu))
    value = riesz_kernel(nu, _ints(args.k), _floats(args.x), _floats(args.y), _plan_from_args(args))
    _emit({"nu": list(nu.nu), "k": list(_ints(args.k)), "x": list(_floats(args.x)),
           "y": list(_floats(args.y)), "value": value}, args, "riesz_kernel.json")
    return 0


def cmd_riesz_apply(args) -> int:
    f = gridfunction_from_csv(args.input)
    nu = NuVector(_floats(args.nu))
    out = riesz_apply(nu, _ints(args.k), f, _plan_from_args(args))
    target = pathlib.Path(args.out or ".") / "riesz_apply.csv"
    target.parent.mkdir(parents=True, exist_ok=True)
    gridfunction_to_csv(out, target)
    print(f"wrote {target}")
    return 0


def cmd_riesz_verify(args) -> int:
    nu = NuVector(_floats(args.nu))
    report = cz_bound_check(
        nu,
        _ints(args.k),
        CzSamplePlan(count=max(100, args.samples), **_given(args, "levels")),
        _plan_from_args(args),
    )
    _emit(report, args, "riesz_verify.json")
    return _exit_for(report["verdict"])


# ---------------------------------------------------------------------------
# atoms / bmo / cover


def _parse_ball(text: str) -> Ball:
    center, radius = text.split(";")
    return Ball(_floats(center), float(radius))


def cmd_atoms_check(args) -> int:
    f = gridfunction_from_csv(args.input)
    if args.f_atom:
        verdict = validate_f_atom(f)
    else:
        if not args.ball:
            raise ConfigError("--ball 'c1,...,cn;r' is required unless --f-atom")
        atom = AtomCandidate(f, _parse_ball(args.ball), args.p)
        verdict = validate_p_rho_atom(atom, restrict_radius=args.restrict_radius)
    payload = dataclasses.asdict(verdict)
    payload["verdict"] = "valid" if verdict.valid else "invalid"
    _emit(payload, args, "atom_check.json")
    return _exit_for(payload["verdict"])


def cmd_atoms_decompose(args) -> int:
    f = gridfunction_from_csv(args.input)
    atom = AtomCandidate(f, _parse_ball(args.ball), args.p)
    result = atom_dual_decompose(atom)
    out = pathlib.Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    gridfunction_to_csv(result.a1, out / "a1.csv")
    for (j, alpha), piece in result.a2.items():
        name = "a2_j%d_%s.csv" % (j, "_".join(map(str, alpha)))
        gridfunction_to_csv(piece, out / name)
    for alpha, piece in result.a3.items():
        gridfunction_to_csv(piece, out / ("a3_%s.csv" % "_".join(map(str, alpha))))
    ok = (
        result.certificates["reconstruction_residual"] <= 1e-10
        and result.certificates["dual_pairing_residual"] <= 1e-10
    )
    payload = {
        "verdict": "valid" if ok else "invalid",
        "j0": result.j0,
        "omega": result.omega,
        "certificates": result.certificates,
    }
    _emit(payload, args, "decomposition.json")
    return _exit_for(payload["verdict"])


def cmd_bmo_norm(args) -> int:
    f = gridfunction_from_csv(args.input)
    value = bmo_norm(f, args.s, args.degree)
    _emit({"s": args.s, "degree": args.degree, "value": value}, args, "bmo_norm.json")
    return 0


def cmd_cover_build(args) -> int:
    grid = default_grid(args.dim, nodes_per_axis=args.nodes)
    box = tuple((args.box[0], args.box[1]) for _ in range(args.dim))
    cov = vitali_covering(box, grid)
    psum = cov.partition_sum().values
    sum_err = float(np.max(np.abs(psum[cov.node_in_box] - 1.0)))
    gap = cov.min_pairwise_fifth_gap()
    ok = sum_err <= 1e-12 and gap > 0.0
    payload = {
        "verdict": "valid" if ok else "invalid",
        "balls": len(cov.centers),
        "max_overlap": cov.max_overlap,
        "partition_sum_error": sum_err,
        "min_fifth_ball_gap": gap,
        "centers": [list(c) for c in cov.centers],
        "radii": cov.radii,
    }
    _emit(payload, args, "covering.json")
    return _exit_for(payload["verdict"])


# ---------------------------------------------------------------------------
# campaign


# The thread-pool variables of the numerical libraries numpy may load; a
# run's speed depends on them, so the sidecar records them.
_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _environment() -> dict:
    """Python and numpy versions and the thread variables (None when unset)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {name: os.environ.get(name) for name in _THREAD_VARIABLES},
    }


def cmd_campaign_run(args) -> int:
    source = args.config
    if source in INEQUALITY_IDS:
        source = str(bundled_config_path(source))
    config = CampaignConfig.from_json(source)
    overrides = _given(args, "refine_levels")
    if overrides:
        config = CampaignConfig(**{**config.__dict__, **overrides})
    started = time.time()
    report, samples = run_campaign(config, collect_samples=args.format == "csv")
    elapsed = time.time() - started
    out = pathlib.Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / f"{config.inequality}.report.json"
    report_path.write_text(report.canonical_json())
    meta = {"runtime_seconds": elapsed, "environment": _environment()}
    (out / f"{config.inequality}.meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    if samples is not None:
        csv_path = out / f"{config.inequality}.samples.csv"
        with open(csv_path, "w") as fh:
            for row in samples:
                fh.write(",".join(row) + "\n")
    print(f"{config.inequality}: {report.verdict} (C_hat={report.C_hat:.6g}, c_hat={report.c_hat:g})")
    print(f"report: {report_path}", file=sys.stderr)
    print(f"runtime: {elapsed:.2f}s", file=sys.stderr)
    return _exit_for(report.verdict)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besselops",
        description="Bessel-operator kernels, Riesz transforms, and bound-verification campaigns",
    )
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--refine", type=int, default=None, help="refinement levels override")
    sub = parser.add_subparsers(dest="group", required=True)

    def plan_flags(p):
        p.add_argument("--plan-t-min", type=float, default=DEFAULT_PLAN.t_min)
        p.add_argument("--plan-t-max", type=float, default=DEFAULT_PLAN.t_max)
        p.add_argument(
            "--plan-nodes", type=int, default=DEFAULT_PLAN.nodes_per_decade, help="nodes per decade"
        )

    kernel = sub.add_parser("kernel", help="heat kernel evaluation and verification")
    ksub = kernel.add_subparsers(dest="action", required=True)
    ke = ksub.add_parser("eval")
    ke.add_argument("--nu", required=True, help="comma-separated orders")
    ke.add_argument("--t", type=float, required=True)
    ke.add_argument("--x", required=True)
    ke.add_argument("--y", required=True)
    ke.add_argument("--ell", default=None, help="derivative multi-index")
    ke.set_defaults(func=cmd_kernel_eval)
    kv = ksub.add_parser("verify")
    kv.set_defaults(func=cmd_kernel_verify)

    riesz = sub.add_parser("riesz", help="Riesz transforms")
    rsub = riesz.add_subparsers(dest="action", required=True)
    rk = rsub.add_parser("kernel")
    for name in ("--nu", "--k", "--x", "--y"):
        rk.add_argument(name, required=True)
    plan_flags(rk)
    rk.set_defaults(func=cmd_riesz_kernel)
    ra = rsub.add_parser(
        "apply",
        help="Riesz transform of a grid function CSV",
        description="Riesz transform of a grid function CSV.  On a 1-D grid the transform "
        "is a Mellin convolution on the log-uniform axis (any other axis exits with 2) and "
        "the --plan-* flags are unused; they govern the subordination quadrature for n >= 2.",
    )
    ra.add_argument("--nu", required=True)
    ra.add_argument("--k", required=True)
    ra.add_argument("--input", required=True, help="grid function CSV")
    plan_flags(ra)
    ra.set_defaults(func=cmd_riesz_apply)
    rv = rsub.add_parser(
        "verify",
        help="Calderon-Zygmund size and smoothness sweep of the kernel",
        description="Calderon-Zygmund size and smoothness sweep.  For n = 1 the kernel is "
        "the exact time integral (the Green's function of L_nu at k = 2, Schlafli's "
        "integral otherwise) and the --plan-* flags are unused; "
        "they govern the subordination quadrature for n >= 2.",
    )
    rv.add_argument("--nu", required=True)
    rv.add_argument("--k", required=True)
    rv.add_argument("--samples", type=int, default=400)
    plan_flags(rv)
    rv.set_defaults(func=cmd_riesz_verify)

    atoms = sub.add_parser("atoms", help="atom validation and decomposition")
    asub = atoms.add_subparsers(dest="action", required=True)
    ac = asub.add_parser("check")
    ac.add_argument("--input", required=True)
    ac.add_argument("--ball", default=None, help="'c1,...,cn;r'")
    ac.add_argument("--p", type=float, default=1.0)
    ac.add_argument("--f-atom", action="store_true", help="use the 1-D two-kind validator")
    ac.add_argument("--restrict-radius", action="store_true")
    ac.set_defaults(func=cmd_atoms_check)
    ad = asub.add_parser("decompose")
    ad.add_argument("--input", required=True)
    ad.add_argument("--ball", required=True)
    ad.add_argument("--p", type=float, default=1.0)
    ad.set_defaults(func=cmd_atoms_decompose)

    bmo = sub.add_parser("bmo", help="localized oscillation norm")
    bsub = bmo.add_subparsers(dest="action", required=True)
    bn = bsub.add_parser("norm")
    bn.add_argument("--input", required=True)
    bn.add_argument("--s", type=float, default=0.0)
    bn.add_argument("--degree", type=int, default=0)
    bn.set_defaults(func=cmd_bmo_norm)

    cover = sub.add_parser("cover", help="critical-radius covering")
    csub = cover.add_subparsers(dest="action", required=True)
    cb = csub.add_parser("build")
    cb.add_argument("--box", type=float, nargs=2, default=(0.5, 8.0))
    cb.add_argument("--dim", type=int, default=1)
    cb.add_argument("--nodes", type=int, default=1024)
    cb.set_defaults(func=cmd_cover_build)

    campaign = sub.add_parser("campaign", help="verification campaigns")
    camp_sub = campaign.add_subparsers(dest="action", required=True)
    cr = camp_sub.add_parser("run")
    cr.add_argument("--config", required=True, help="path to JSON config or a bundled inequality id")
    cr.set_defaults(func=cmd_campaign_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (
        DomainError,
        GridError,
        UnderResolvedError,
        OverflowError,
        FileNotFoundError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
