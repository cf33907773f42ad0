"""Command line for the sector-magic laboratory.

Exit codes: 0 success, 2 configuration / usage error, 3 numerical
contract violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..asymptotics import (XI_HESSIAN, XI_PRINTED, asymptotic_prediction,
                           tilted_asymptotic_q0)
from ..hamiltonians import NumericalContractError
from ..moments import (K2_PRINTED, K2_SECTOR, analytic_moments,
                       levy_variance_bound, mean_sp2_tilted, tilted_m2_bound)
from ..sectors import Direction, sector_dimension
from .config import ConfigError, ExperimentConfig, load_config
from .experiments import (run_asymptotic_collapse, run_disorder_sweep,
                          run_ensemble_experiment, run_mixed_charge,
                          run_pe_check, run_self_averaging,
                          run_variance_convergence)
from .records import _jsonable, write_csv, write_jsonl, write_summary


def _add_io(sp, seed=True):
    if seed:
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--out", default=None,
                    help="output prefix; writes <out>.csv|.jsonl and "
                         "<out>.summary.json")
    sp.add_argument("--format", choices=("csv", "jsonl"), default=None)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sectormagic",
        description="Exact and sampled stabilizer-entropy statistics of "
                    "charge-constrained random states and eigenstates.")
    p.add_argument("--config", default=None,
                   help="flat key=value config file; flags override it")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analytic", help="closed-form quantities")
    suba = pa.add_subparsers(dest="what", required=True)
    sm = suba.add_parser("mean", help="exact sector mean of Xi_2")
    sm.add_argument("--L", type=int, required=True)
    sm.add_argument("--q", type=int, required=True)
    sv = suba.add_parser("variance", help="exact sector mean/variance of Xi_2")
    sv.add_argument("--L", type=int, required=True)
    sv.add_argument("--q", type=int, required=True)
    sv.add_argument("--k2-coefficient", choices=(K2_SECTOR, K2_PRINTED),
                    default=K2_SECTOR)
    sa = suba.add_parser("asymptotic", help="large-L prediction at density s")
    sa.add_argument("--s", type=float, required=True)
    sa.add_argument("--xi-variant", choices=(XI_HESSIAN, XI_PRINTED),
                    default=XI_HESSIAN)
    st = suba.add_parser("tilted", help="exact mean with a tilted charge axis")
    st.add_argument("--L", type=int, required=True)
    st.add_argument("--q", type=int, required=True)
    st.add_argument("--theta", type=float, required=True)
    st.add_argument("--phi", type=float, default=0.0)

    ps = sub.add_parser("sample", help="constrained Haar ensemble sampling")
    ps.add_argument("--L", type=int, default=None)
    ps.add_argument("--q", type=int, action="append", default=None)
    ps.add_argument("--samples", type=int, default=None)
    ps.add_argument("--frame", choices=("z", "x", "y"), default=None)
    ps.add_argument("--histogram-bins", type=int, default=None)
    ps.add_argument("--allow-large", action="store_true", default=None)
    _add_io(ps)

    pv = sub.add_parser("variance-convergence",
                        help="running moments vs exact values")
    pv.add_argument("--L", type=int, default=None)
    pv.add_argument("--q", type=int, action="append", default=None)
    pv.add_argument("--samples", type=int, default=None)
    pv.add_argument("--checkpoints", default=None,
                    help="comma-separated sample counts")
    pv.add_argument("--allow-large", action="store_true", default=None)
    _add_io(pv)

    for model in ("csyk", "xxz", "mfim"):
        pm = sub.add_parser(model, help=f"{model} disorder sweep")
        pm.add_argument("--L", type=int, default=None)
        if model != "mfim":
            pm.add_argument("--q", type=int, action="append", default=None)
        pm.add_argument("--realizations", type=int, default=None)
        pm.add_argument("--window", type=float, default=None)
        pm.add_argument("--fraction", type=float, default=None)
        if model == "xxz":
            pm.add_argument("--J1", type=float, default=None)
            pm.add_argument("--delta", type=float, default=None)
            pm.add_argument("--J2", type=float, default=None)
            pm.add_argument("--h-b", dest="h_b", type=float, default=None)
            pm.add_argument("--h-x", dest="h_x", type=float, default=None)
        if model == "mfim":
            pm.add_argument("--g", type=float, default=None)
            pm.add_argument("--h", type=float, default=None)
            pm.add_argument("--h1", type=float, default=None)
            pm.add_argument("--hL", type=float, default=None)
        _add_io(pm)

    px = sub.add_parser("mixed", help="tilted-axis theta sweep")
    px.add_argument("--L", type=int, default=None)
    px.add_argument("--q", type=int, default=None)
    px.add_argument("--theta", type=float, action="append", default=None)
    px.add_argument("--phi", type=float, default=None)
    px.add_argument("--samples", type=int, default=None)
    px.add_argument("--allow-large", action="store_true", default=None)
    _add_io(px)

    pc = sub.add_parser("collapse", help="exact vs asymptotic residuals")
    pc.add_argument("--L", type=int, action="append", default=None,
                    dest="L_values")
    pc.add_argument("--s", type=float, action="append", default=None,
                    dest="s_values")
    pc.add_argument("--xi-variant", choices=(XI_HESSIAN, XI_PRINTED),
                    default=None)
    _add_io(pc, seed=False)

    pf = sub.add_parser("self-averaging",
                        help="disorder fluctuations vs system size")
    pf.add_argument("--L", type=int, action="append", default=None,
                    dest="L_values")
    pf.add_argument("--realizations", type=int, default=None)
    pf.add_argument("--fraction", type=float, default=None)
    _add_io(pf)

    pp = sub.add_parser("pe-check", help="participation-entropy statistics")
    pp.add_argument("--L", type=int, default=None)
    pp.add_argument("--q", type=int, default=None)
    pp.add_argument("--samples", type=int, default=None)
    pp.add_argument("--allow-large", action="store_true", default=None)
    _add_io(pp)

    pr = sub.add_parser("run", help="run the experiment named in --config")
    _add_io(pr)

    return p


def _merge_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for key in ExperimentConfig._PARSERS:
        if not hasattr(args, key):
            continue
        value = getattr(args, key)
        if value is None:
            continue
        if key == "checkpoints" and isinstance(value, str):
            value = [int(tok) for tok in value.split(",") if tok.strip()]
        overrides[key] = value
    if getattr(args, "q", None) is not None and "q" in overrides:
        overrides["q"] = list(args.q) if isinstance(args.q, list) else [args.q]
    if getattr(args, "theta", None) is not None:
        overrides["theta"] = list(args.theta)
    return cfg.override(**overrides)


def _analytic_payload(args) -> dict:
    if args.what == "mean":
        mom = analytic_moments(args.L, args.q)
        return {
            "L": args.L, "q": args.q,
            "dimension": sector_dimension(args.L, args.q),
            "mean_xi2": str(mom.mean),
            "mean_xi2_float": float(mom.mean),
            "m2_mean_bound": mom.m2_mean_bound,
        }
    if args.what == "variance":
        mom = analytic_moments(args.L, args.q,
                               k2_coefficient=args.k2_coefficient)
        return {
            "L": args.L, "q": args.q,
            "k2_coefficient": args.k2_coefficient,
            "mean_xi2": str(mom.mean),
            "mean_xi2_float": float(mom.mean),
            "second_moment_xi2": str(mom.second_moment),
            "second_moment_xi2_float": float(mom.second_moment),
            "variance_xi2": str(mom.variance),
            "variance_xi2_float": float(mom.variance),
            "levy_variance_bound": levy_variance_bound(args.L, args.q),
        }
    if args.what == "asymptotic":
        pred = asymptotic_prediction(args.s, xi_variant=args.xi_variant)
        return {
            "s": pred.s, "z": pred.z, "F_star": pred.F_star,
            "xi": pred.xi, "m": pred.m, "g": pred.g,
            "xi_variant": args.xi_variant,
        }
    direction = Direction.from_angles(args.theta, args.phi)
    return {
        "L": args.L, "q": args.q,
        "theta": args.theta, "phi": args.phi,
        "mean_xi2": mean_sp2_tilted(args.L, args.q, direction),
        "m2_mean_bound": tilted_m2_bound(args.L, args.q, direction),
        "asymptotic_q0_offset": tilted_asymptotic_q0(direction),
    }


def _xxz_couplings(cfg: ExperimentConfig) -> dict:
    return {"J1": cfg.J1, "delta": cfg.delta, "J2": cfg.J2,
            "h_b": cfg.h_b, "h_x": cfg.h_x}


def _mfim_couplings(cfg: ExperimentConfig) -> dict:
    return {"g": cfg.g, "h": cfg.h, "h1": cfg.h1, "hL": cfg.hL}


def _dispatch(command: str, cfg: ExperimentConfig):
    if command == "sample":
        return run_ensemble_experiment(
            cfg.L, cfg.q, cfg.samples, frame=cfg.frame, seed=cfg.seed,
            threads=cfg.threads, histogram_bins=cfg.histogram_bins,
            allow_large=cfg.allow_large)
    if command == "variance-convergence":
        return run_variance_convergence(
            cfg.L, cfg.q, cfg.samples, seed=cfg.seed, threads=cfg.threads,
            checkpoints=cfg.checkpoints or None, allow_large=cfg.allow_large)
    if command in ("csyk", "xxz", "mfim"):
        window, fraction = cfg.window, cfg.fraction
        if window is None and fraction is None:
            # central 10% by default; xxz keeps an energy-density window
            if command == "xxz":
                window = 0.25
            else:
                fraction = 0.1
        couplings = None
        if command == "xxz":
            couplings = _xxz_couplings(cfg)
        elif command == "mfim":
            couplings = _mfim_couplings(cfg)
        realizations = cfg.realizations
        if realizations is None:
            # xxz/mfim are clean models: every realization is identical
            realizations = 100 if command == "csyk" else 1
        return run_disorder_sweep(
            command, cfg.L, qs=None if command == "mfim" else cfg.q,
            realizations=realizations, seed=cfg.seed,
            threads=cfg.threads, window=window, fraction=fraction,
            couplings=couplings)
    if command == "mixed":
        if not cfg.theta:
            raise ConfigError("mixed needs at least one --theta")
        return run_mixed_charge(
            cfg.L, cfg.q[0] if isinstance(cfg.q, list) else cfg.q,
            cfg.theta, cfg.samples, seed=cfg.seed, phi=cfg.phi,
            threads=cfg.threads, allow_large=cfg.allow_large)
    if command == "collapse":
        return run_asymptotic_collapse(
            cfg.L_values, cfg.s_values, xi_variant=cfg.xi_variant,
            seed=cfg.seed)
    if command == "self-averaging":
        return run_self_averaging(
            Ls=cfg.L_values,
            realizations=50 if cfg.realizations is None else cfg.realizations,
            seed=cfg.seed, threads=cfg.threads,
            fraction=0.1 if cfg.fraction is None else cfg.fraction)
    if command == "pe-check":
        return run_pe_check(
            cfg.L, cfg.q[0] if isinstance(cfg.q, list) else cfg.q,
            cfg.samples, seed=cfg.seed, threads=cfg.threads,
            allow_large=cfg.allow_large)
    raise ConfigError(f"unknown experiment {command!r}")


def _emit(records, summary, cfg: ExperimentConfig, stdout) -> None:
    if cfg.out:
        if cfg.format == "jsonl":
            write_jsonl(records, cfg.out + ".jsonl")
        else:
            write_csv(records, cfg.out + ".csv")
        write_summary(summary, cfg.out + ".summary.json")
    json.dump(_jsonable(summary), stdout, indent=2, sort_keys=True,
              allow_nan=False)
    stdout.write("\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "analytic":
            json.dump(_jsonable(_analytic_payload(args)), sys.stdout,
                      indent=2, sort_keys=True, allow_nan=False)
            sys.stdout.write("\n")
            return 0
        cfg = _merge_config(args)
        command = args.command
        if command == "run":
            command = cfg.experiment
        records, summary = _dispatch(command, cfg)
        _emit(records, summary, cfg, sys.stdout)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalContractError as exc:
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
