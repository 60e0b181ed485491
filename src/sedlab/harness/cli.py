"""Command-line front end.

Exit codes: 0 success, 1 failed check or usage error, 2 violated sampling
or regime assumption, 3 solver non-convergence, 4 a cloud's stencils
outgrew the configured grid's side.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .. import bounds, kinetic, metrics, micro
from ..csvfile import write_csv, write_rows
from ..errors import SedlabError
from ..kernels import GridSpec, StokesOperator, Window, oseen_tensor, stokes_direct_sum
from .config import load_config
from .runner import run
from .sweeps import compare_tiers, sweep_hydrodynamic, sweep_meanfield


def _add_common(parser):
    parser.add_argument("--config", type=Path, default=None, help="key = value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--lambda", dest="lam", type=float, default=None)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--tier", choices=("micro", "vlasov", "transport"), default=None)


# the [run] key that each common flag (by its argparse dest) overrides
_RUN_FLAGS = {"seed": "seed", "lam": "lambda", "n": "n", "tier": "tier"}


def _build_config(args):
    run = {key: getattr(args, dest) for dest, key in _RUN_FLAGS.items() if getattr(args, dest) is not None}
    return load_config(args.config, {"run": run})


def _cmd_simulate(args):
    config = _build_config(args)
    record = run(config, out_dir=args.out)
    for key in sorted(record.summary):
        print(f"{key} = {record.summary[key]}")
    if not record.ok:
        print(f"aborted: {record.abort['type']}: {record.abort['message']}", file=sys.stderr)
        return int(record.abort["exit_code"])
    return 0


def _cmd_compare(args):
    config = _build_config(args)
    tiers = tuple(args.tiers.split(","))
    report = compare_tiers(config, tiers, out_dir=args.out)
    print(f"tiers = {'+'.join(report.tiers)}")
    print(f"w2_final = {report.w2_final}")
    if report.energies:
        last = report.energies[-1]
        print(f"E_final = {last.E}")
        print(f"H_final = {last.H}")
    return 0


def _cmd_sweep_hydro(args):
    config = _build_config(args)
    lambdas = [float(v) for v in args.lambdas.split(",")]
    report = sweep_hydrodynamic(config, lambdas, out_dir=args.out)
    for m in report.members:
        print(
            f"lambda={m.lam:g} dt={m.dt:.6g} w2={m.w2_final:.6g} "
            f"s_rate={m.s_rate:.6g} plateau={m.s_plateau:.6g}"
        )
    print(f"slope = {report.slope:.4f} (r2 = {report.slope_r2:.4f})")
    print(f"slope_ok = {report.slope_ok}")
    print(f"rate_ratio_ok = {report.rate_ratio_ok} (worst deviation {report.rate_ratio_worst:.3f})")
    print(f"plateau_ok = {report.plateau_ok}")
    return 0 if report.ok else 1


def _cmd_sweep_meanfield(args):
    config = _build_config(args)
    n_values = [int(v) for v in args.n_values.split(",")]
    report = sweep_meanfield(config, n_values, out_dir=args.out)
    for m in report.members:
        print(
            f"n={m.n} w2_initial={m.w2_initial:.6g} w2_final={m.w2_final:.6g} "
            f"growth={m.growth:.4f} dmin_constant={m.dmin_constant:.4g}"
        )
    print(f"growth_spread = {report.growth_spread:.4f}")
    print(f"spread_ok = {report.spread_ok}")
    print(f"h4_ok = {report.h4_ok}")
    print(f"dmin_ok = {report.dmin_ok}")
    return 0 if report.ok else 1


def _brute_force_w2(x, y):
    from itertools import permutations

    n = x.shape[0]
    best = np.inf
    for perm in permutations(range(n)):
        cost = float(np.sum((x - y[list(perm)]) ** 2)) / n
        best = min(best, cost)
    return np.sqrt(best)


def _cmd_check_identities(args):
    rng = np.random.default_rng(0)
    checks = []

    phi = oseen_tensor(np.array([[1.0, 0.0, 0.0]]))[0]
    expected = np.diag([1.0 / (4 * np.pi), 1.0 / (8 * np.pi), 1.0 / (8 * np.pi)])
    checks.append(("stokeslet diagonal at e1", float(np.abs(phi - expected).max()), 1e-14))

    pts = rng.standard_normal((200, 3)) * 2.0
    tensors = oseen_tensor(pts)
    sym = np.abs(tensors - tensors.transpose(0, 2, 1)).max()
    parity = np.abs(oseen_tensor(-pts) - tensors).max()
    homog = np.abs(oseen_tensor(2.0 * pts) - tensors / 2.0).max()
    checks.append(("stokeslet symmetry/parity/homogeneity", float(max(sym, parity, homog)), 1e-13))

    grid = GridSpec(8.0, 8)
    force = np.random.default_rng(1).standard_normal((8, 8, 8, 3))  # faces included
    direct = stokes_direct_sum(grid, force)
    err = float(np.abs(StokesOperator(grid).apply(force) - direct).max() / np.abs(direct).max())
    checks.append(("grid Stokes vs direct sum", err, 1e-13))

    grid = GridSpec(8.0, 16)
    force = np.zeros((16, 16, 16, 3))
    force[3:11, 5:12, 10:16] = np.random.default_rng(3).standard_normal((8, 7, 6, 3))  # on the z = L face
    window = Window(grid, (3, 5, 8), GridSpec(4.0, 8))  # a window of side 8 that holds the force's cells
    whole = StokesOperator(grid).apply(force)[window.cells]
    err = float(np.abs(StokesOperator(window.spec).apply(force[window.cells]) - whole).max() / np.abs(whole).max())
    checks.append(("window Stokes vs whole grid", err, 1e-14))

    n = 32
    x = 8.0 + 1.5 * rng.standard_normal((n, 3))
    v = np.array([0.0, 0.0, -1.0]) + 0.1 * rng.standard_normal((n, 3))
    ens = micro.ParticleEnsemble(x=x, v=v, lam=10.0, gravity=np.array([0.0, 0.0, -1.0]))
    w_iter = micro.implicit_velocities(ens, tol=1e-14)
    checks.append(("closure vs dense solve", float(np.abs(w_iter - micro.dense_velocities(x, v)).max()), 1e-10))

    pair_rng = np.random.default_rng(2)
    xk = 1e3 + 1.5 * pair_rng.standard_normal((512, 3))  # far from the origin
    q = pair_rng.standard_normal((512, 3))
    dense = (micro._interaction_matrix(xk) @ q.reshape(-1)).reshape(512, 3)
    err = float(np.abs(micro._PairKernel(xk).apply(q) - dense).max() / np.abs(dense).max())
    checks.append(("pair kernel vs dense matrix", err, 1e-11))

    lam, dt = 100.0, 0.1  # lam dt = 10, the stiff end
    ens2 = micro.ParticleEnsemble(
        x=x[:4], v=v[:4], lam=lam, gravity=np.array([0.0, 0.0, -1.0])
    )
    stepped = micro.step(ens2, dt, w=np.zeros_like(ens2.v))
    drift = ens2.gravity[None, :]
    dev = ens2.v - drift
    v_exact = drift + np.exp(-lam * dt) * dev
    x_exact = ens2.x + dt * drift + (1.0 - np.exp(-lam * dt)) / lam * dev
    err = max(float(np.abs(stepped.v - v_exact).max()), float(np.abs(stepped.x - x_exact).max()))
    checks.append(("stiff relaxation exactness", err, 1e-12))

    xa = rng.standard_normal((6, 3))
    xb = rng.standard_normal((6, 3))
    pair = metrics.wasserstein2_exact(xa, xb, space="spatial")
    checks.append(
        ("assignment W2 vs brute force", abs(pair.distance - _brute_force_w2(xa, xb)), 1e-12)
    )

    env = bounds.GronwallEnvelope(C=1.0, c=1.0, lam=1.0, d=0.0, a0=1.0, b0=0.0)
    checks.append(("envelope equality case", abs(bounds.envelope_a(env, 1.0) - np.e), 1e-12))

    lam, dt, steps, gravity = 8.0, 0.02, 10, np.array([0.0, 0.0, -1.0])
    cloudx = np.round((8.0 + rng.standard_normal((16, 3))) * 2.0**20) / 2.0**20  # whole-cell shifts are exact
    cloudv = gravity + 0.05 * rng.standard_normal((16, 3))
    cloud = kinetic.PhaseCloud(x=cloudx, v=cloudv, w=np.full(16, 1 / 16), lam=lam, gravity=gravity)
    history = kinetic.FieldHistory([], [], [])
    for _ in range(steps):
        history.append(dt, None, 0.0)
    jac = kinetic.jacobian_check(cloud, history, probes=3, seed=1)
    target = np.exp(-3.0 * lam * steps * dt)
    jac_err = max(abs(d - target) / target for d in jac.det_values)
    checks.append(("free-flow volume contraction", float(jac_err), 1e-8))

    def shifted(cells):  # iterations, field and field at the samples of one vlasov step, moved by whole cells
        fluid = kinetic.vlasov_step(replace(cloud, x=cloudx + cells * 0.5), GridSpec(16.0, 32), dt, budget=False)[1]
        return fluid.iterations, fluid.velocity.tobytes(), fluid.at(cloudx + cells * 0.5).tobytes()

    changed = sum(shifted(cells) != shifted(0) for cells in (3, 40, -40, 1000))  # negative origins included
    checks.append(("vlasov steps changed by whole-cell shifts", float(changed), 0.0))

    failures = 0
    for name, err, tol in checks:
        ok = err <= tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: error {err:.3e} tolerance {tol:.0e}")
    return 0 if failures == 0 else 1


def _parse_params(raw):
    params = {}
    if not raw:
        return params
    for item in raw.split(","):
        key, _, value = item.partition("=")
        if not _:
            raise ValueError(f"malformed parameter {item!r}, expected key=value")
        params[key.strip()] = float(value)
    return params


def _cmd_oracle(args):
    start, stop, count = args.times.split(":")
    times = np.linspace(float(start), float(stop), int(count))
    params = _parse_params(args.params)
    env = bounds.GronwallEnvelope(
        C=params.get("C", 1.0),
        c=params.get("c", 1.0),
        lam=params.get("lambda", 1.0),
        d=params.get("d", 0.0),
        a0=params.get("a0", 0.0),
        b0=params.get("b0", 0.0),
    )
    values_a = bounds.envelope_a(env, times)
    values_b = bounds.envelope_b(env, times)
    header = ["t", "envelope_a", "envelope_b"]
    rows = [[float(t), float(a), float(b)] for t, a, b in zip(times, values_a, values_b)]
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        write_csv(args.out, header, rows)
        print(f"wrote {args.out}")
    else:
        write_rows(sys.stdout, header, rows)
    if not env.guarantees_domination:
        print("warning: c < 1, envelopes do not certify domination", file=sys.stderr)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sedlab", description="sedimentation laboratory: particle, kinetic and transport tiers"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one tier to its final time")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="run two tiers from one draw and report the gap")
    _add_common(p)
    p.add_argument("--tiers", default="vlasov,transport", help="comma pair of tiers")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep-hydro", help="relaxation-rate ladder against the transport limit")
    _add_common(p)
    p.add_argument("--lambdas", default="10,20,40,80", help="comma list of relaxation rates")
    p.set_defaults(func=_cmd_sweep_hydro)

    p = sub.add_parser("sweep-meanfield", help="particle-count ladder against the kinetic reference")
    _add_common(p)
    p.add_argument("--n-values", default="250,500,1000,2000", help="comma list of particle counts")
    p.set_defaults(func=_cmd_sweep_meanfield)

    p = sub.add_parser("check-identities", help="closed-form self-checks, one PASS/FAIL line each")
    p.set_defaults(func=_cmd_check_identities)

    p = sub.add_parser("oracle", help="evaluate decay envelopes on a time range")
    p.add_argument("--times", default="0:1:11", help="start:stop:count")
    p.add_argument("--params", default="", help="comma list like C=1,c=1,lambda=2,a0=1")
    p.add_argument("--out", type=Path, default=None, help="CSV destination (default stdout)")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SedlabError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return err.exit_code
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
