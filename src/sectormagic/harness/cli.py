"""Command line for the sector-magic laboratory.

Every subcommand is one entry of TABLE: the keys it reads and the driver
it runs.  A key is a flag, a config-file key and the driver's keyword of
the same name; one parser reads it from either source.  The argparse
subcommands and the config-file checks are generated from the table.
`resolve` gives the one effective dict a run reads (table default < config
file < flag), and the driver is called with every value in it but out and
format.

Exit codes: 0 success, 2 configuration / usage error, 3 numerical
contract violation.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import asdict
from typing import Any, Callable, NamedTuple

from ..asymptotics import (_check_density, asymptotic_prediction,
                           tilted_asymptotic_q0)
from ..hamiltonians import COUPLINGS, NumericalContractError
from ..moments import (SectorError, analytic_moments, levy_variance_bound,
                       m2_mean_bound, mean_sp2, mean_sp2_tilted,
                       tilted_m2_bound)
from ..sectors import Direction, sector_dimension
from .config import ConfigError, load_config
from .experiments import (run_asymptotic_collapse, run_disorder_sweep,
                          run_ensemble_experiment, run_mixed_charge,
                          run_pe_check, run_self_averaging,
                          run_variance_convergence)
from .records import dump_summary, write_csv, write_jsonl, write_summary

#: default of a key that every run must set
REQUIRED = object()


class Key(NamedTuple):
    """One settable value: config-file name, the parser of one flag or file
    token, default, help, and whether it takes a list (flags repeat, file
    values are comma separated)."""

    name: str
    parse: Callable[[str], Any]
    default: Any = None
    help: str = ""
    many: bool = False
    choices: tuple = ()
    flag: str | None = None  # None: --name with "_" as "-"


class Experiment(NamedTuple):
    """One subcommand: its keys and its driver, called with each key but
    out and format as the keyword of the same name.  band = (key, value) is
    set when neither window nor fraction is given."""

    help: str
    keys: tuple
    run: Callable[..., Any] | None
    band: tuple = ()


def _at_least(lo: int):
    def parse(raw: str) -> int:
        value = int(raw)
        if value < lo:
            raise ValueError(f"must be >= {lo}, got {value}")
        return value
    return parse


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _density(raw: str) -> float:
    return _check_density(_finite(raw))


# keys shared by several experiments
SIZE = Key("L", _at_least(1), 8, "number of qubits")
CHARGES = Key("q", int, (0,), "charge sector", many=True)
CHARGE = CHARGES._replace(default=0, many=False)
SAMPLES = Key("samples", int, 1000, "draws per sector")
SEED = Key("seed", int, 0, "root seed of the per-task random streams")
THREADS = Key("threads", int, None,
              "worker processes (default SECTORMAGIC_THREADS, else the CPUs "
              "in the affinity mask)")
OUT = Key("out", str, None, "output prefix; writes <out>.csv|.jsonl and "
                            "<out>.summary.json")
FORMAT = Key("format", str, "csv", "record file format",
             choices=("csv", "jsonl"))
IO = (SEED, THREADS, OUT, FORMAT)
SIZES = Key("L_values", _at_least(1), (6, 8, 10), "system sizes", many=True,
            flag="--L")
REALIZATIONS = Key("realizations", int, 100, "disorder realizations")
WINDOW = Key("window", _finite, None,
             "half-width of the mid-spectrum energy-density window")
FRACTION = Key("fraction", _finite, None,
               "central fraction of each spectrum kept")
THETAS = Key("theta", _finite, REQUIRED, "polar angle of the charge axis",
             many=True)
PHI = Key("phi", _finite, 0.0, "azimuth of the charge axis")
ANALYTIC_SIZE = SIZE._replace(default=REQUIRED)
ANALYTIC_CHARGE = CHARGE._replace(default=REQUIRED)


def _analytic_mean(L: int, q: int) -> dict:
    mean = mean_sp2(L, q)
    return {
        "L": L, "q": q,
        "dimension": sector_dimension(L, q),
        "mean_xi2": str(mean),
        "mean_xi2_float": float(mean),
        "m2_mean_bound": m2_mean_bound(L, q),
    }


# the fixed "k2_coefficient" and "xi_variant" strings record which reading
# of the printed formulas the payloads were computed with
def _analytic_variance(L: int, q: int) -> dict:
    mom = analytic_moments(L, q)
    return {
        "L": L, "q": q,
        "k2_coefficient": "sector-dimension",
        "mean_xi2": str(mom.mean),
        "mean_xi2_float": float(mom.mean),
        "second_moment_xi2": str(mom.second_moment),
        "second_moment_xi2_float": float(mom.second_moment),
        "variance_xi2": str(mom.variance),
        "variance_xi2_float": float(mom.variance),
        "levy_variance_bound": levy_variance_bound(L, q),
    }


def _analytic_asymptotic(s: float) -> dict:
    return {**asdict(asymptotic_prediction(s)), "xi_variant": "hessian"}


def _analytic_tilted(L: int, q: int, theta: float, phi: float) -> dict:
    direction = Direction.from_angles(theta, phi)
    return {
        "L": L, "q": q,
        "theta": theta, "phi": phi,
        "mean_xi2": mean_sp2_tilted(L, q, direction),
        "m2_mean_bound": tilted_m2_bound(L, q, direction),
        "asymptotic_q0_offset": tilted_asymptotic_q0(direction),
    }


def _sweep(model: str, realizations: int, band: tuple, charges=(CHARGES,),
           coupling_help="") -> Experiment:
    """Entry of one model's disorder sweep, a key per builder coupling."""
    keys = ((SIZE,) + charges
            + (REALIZATIONS._replace(default=realizations), WINDOW, FRACTION)
            + tuple(Key(name, _finite, default, coupling_help)
                    for name, default in COUPLINGS[model].items()) + IO)
    return Experiment(f"{model} disorder sweep", keys,
                      functools.partial(run_disorder_sweep, model), band)


#: subcommand -> entry; "analytic <what>" nests under `analytic`.  Entries
#: without `out` take no config file and print their payload only.
TABLE = {
    "analytic mean": Experiment(
        "exact sector mean of Xi_2", (ANALYTIC_SIZE, ANALYTIC_CHARGE),
        _analytic_mean),
    "analytic variance": Experiment(
        "exact sector mean/variance of Xi_2",
        (ANALYTIC_SIZE, ANALYTIC_CHARGE), _analytic_variance),
    "analytic asymptotic": Experiment(
        "large-L prediction at density s",
        (Key("s", _density, REQUIRED, "charge density q/L in [0, 1)"),),
        _analytic_asymptotic),
    "analytic tilted": Experiment(
        "exact mean with a tilted charge axis",
        (ANALYTIC_SIZE, ANALYTIC_CHARGE, THETAS._replace(many=False), PHI),
        _analytic_tilted),
    "sample": Experiment(
        "constrained Haar ensemble sampling",
        (SIZE, CHARGES, SAMPLES,
         Key("frame", str, "z", "axis of the conserved charge",
             choices=("z", "x", "y")),
         Key("histogram_bins", _at_least(0), 200,
             "bins of the Pauli-spectrum histogram (0: none)")) + IO,
        run_ensemble_experiment),
    "variance-convergence": Experiment(
        "running moments vs exact values",
        (SIZE, CHARGES, SAMPLES,
         Key("checkpoints", int, (), "sample counts of the running moments "
             "(default: logarithmic)", many=True)) + IO,
        run_variance_convergence),
    # xxz and mfim are clean models: they take one realization
    "csyk": _sweep("csyk", 100, ("fraction", 0.1)),
    "xxz": _sweep("xxz", 1, ("window", 0.25), coupling_help="xxz coupling"),
    "mfim": _sweep("mfim", 1, ("fraction", 0.1), charges=(),
                   coupling_help="mfim field"),
    "mixed": Experiment(
        "tilted-axis theta sweep",
        (SIZE, CHARGE, THETAS, PHI, SAMPLES) + IO,
        run_mixed_charge),
    "collapse": Experiment(
        "exact vs asymptotic residuals",
        (SIZES, Key("s_values", _density, (0.0, 0.25, 0.5),
                    "charge densities in [0, 1)", many=True, flag="--s"),
         SEED, OUT, FORMAT),
        run_asymptotic_collapse),
    "self-averaging": Experiment(
        "disorder fluctuations vs system size",
        (SIZES, REALIZATIONS._replace(default=50),
         FRACTION._replace(default=0.1)) + IO,
        run_self_averaging),
    "pe-check": Experiment(
        "participation-entropy statistics",
        (SIZE, CHARGE, SAMPLES) + IO,
        run_pe_check),
    "run": Experiment("run the experiment named in --config (default sample)",
                      IO, None),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sectormagic",
        description="Exact and sampled stabilizer-entropy statistics of "
                    "charge-constrained random states and eigenstates.")
    p.add_argument("--config", default=None,
                   help="flat key=value config file; flags override it")
    sub = p.add_subparsers(dest="command", required=True)
    groups = {}
    for name, entry in TABLE.items():
        group, _, leaf = name.rpartition(" ")
        if group and group not in groups:
            groups[group] = sub.add_parser(
                group, help="closed-form quantities").add_subparsers(
                dest="command", required=True)
        sp = (groups[group] if group else sub).add_parser(leaf,
                                                          help=entry.help)
        sp.set_defaults(command=name)
        for key in entry.keys:
            flag = key.flag or "--" + key.name.replace("_", "-")
            helptext = key.help + (" (required)" if key.default is REQUIRED
                                   else " (repeatable)" if key.many else "")
            sp.add_argument(flag, dest=key.name, action="append",
                            metavar="{%s}" % ",".join(key.choices)
                            if key.choices else None, help=helptext)
    return p


def _read(key: Key, raws: list):
    """A key's value from its raw flag or file strings."""
    if key.many:
        raws = [tok for raw in raws for tok in raw.split(",") if tok.strip()]
        if not raws:
            raise ConfigError(f"{key.name} needs at least one value")
    elif len(raws) > 1:
        raise ConfigError(f"{key.name} takes one value, got {len(raws)}")
    try:
        values = [key.parse(raw.strip()) for raw in raws]
    except ValueError as exc:
        raise ConfigError(f"bad value for {key.name!r}: {exc}") from None
    for value in values:
        if key.choices and value not in key.choices:
            raise ConfigError(f"{key.name} must be one of "
                              f"{', '.join(key.choices)}, got {value!r}")
    if len(set(values)) < len(values):
        raise ConfigError(f"{key.name} repeats a value")
    return values if key.many else values[0]


def resolve(command: str, file: dict | None = None,
            flags: dict | None = None) -> dict:
    """The effective values of one run of command: every key of its entry
    from the flags (lists of raw strings), else the config file (raw
    strings), else the table default."""
    entry = TABLE[command]
    raw = {name: [value] for name, value in (file or {}).items()}
    named = raw.pop("experiment", [command])[0]
    if named != command:
        raise ConfigError(f"config file is for {named!r}, not {command!r}")
    raw.update(flags or {})
    unread = sorted(set(raw) - {key.name for key in entry.keys})
    if unread:
        raise ConfigError(f"{command} does not read {', '.join(unread)}")
    values = {}
    for key in entry.keys:
        if key.name in raw:
            values[key.name] = _read(key, raw[key.name])
        elif key.default is REQUIRED:
            raise ConfigError(f"{command} needs a value for {key.name}")
        else:
            values[key.name] = (list(key.default) if key.many
                                else key.default)
    if entry.band and values["window"] is None and values["fraction"] is None:
        values[entry.band[0]] = entry.band[1]
    return values


def _emit(result, values: dict, stdout) -> None:
    """Print the summary (or analytic payload); with `out`, also write the
    record and summary files."""
    if "out" in values:
        records, result = result
        if values["out"]:
            if values["format"] == "jsonl":
                write_jsonl(records, values["out"] + ".jsonl")
            else:
                write_csv(records, values["out"] + ".csv")
            write_summary(result, values["out"] + ".summary.json")
    dump_summary(result, stdout)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = args.command
    flags = {key.name: getattr(args, key.name) for key in TABLE[command].keys
             if getattr(args, key.name) is not None}
    try:
        file = {}
        if args.config:
            if OUT not in TABLE[command].keys:
                raise ConfigError(f"{command} takes no --config")
            file = load_config(args.config)
        if command == "run":
            command = file.get("experiment", "sample")
            entry = TABLE.get(command)
            if entry is None or entry.run is None or OUT not in entry.keys:
                raise ConfigError(f"unknown experiment {command!r}")
        values = resolve(command, file, flags)
        folder = os.path.dirname(values.get("out") or "") or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"output directory {folder} does not exist")
        params = {name: value for name, value in values.items()
                  if name not in ("out", "format")}
        _emit(TABLE[command].run(**params), values, sys.stdout)
        return 0
    except (ConfigError, SectorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalContractError as exc:
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
