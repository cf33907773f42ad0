"""The four benchmark workloads: inputs from the seed, CLI calls, checks.

Each workload drives the README command line (``sectormagic.harness.cli``)
and stresses a different layer:

sample_sector  the Pauli kernel on many small sparse sector states (L=8);
csyk_eigen     Hamiltonian assembly, ``eigh`` and a few memory-bound L=12
               kernel calls;
pe_check       the sampler and the harness; the kernel is never called;
exact_moments  exact bigint/mpmath moments; no numpy layer does real work.

The benchmark seed only generates inputs (the CLI seed, and for
exact_moments the sector charges and tilt angle); the program sees nothing
else.  Every check below uses values recorded in ``reference.json`` or
closed forms, never the program's own summary alone.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import statistics
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

#: an observed mean further than this many standard errors from the exact
#: ensemble mean fails the call (false-alarm rate ~2e-9 per check)
Z_LIMIT = 6.0

SAMPLE_L, SAMPLE_QS, SAMPLE_N = 8, (0, 2, 4), 192
PE_L, PE_Q, PE_N = 12, 0, 16000
CSYK_L, CSYK_QS, CSYK_REALIZATIONS, CSYK_FRACTION = 12, (0, 2), 1, 0.001
#: exact_moments: sizes, the charges the seed picks from (q = 0 takes a
#: cheaper path through the K1 sum, so it is left out), tilt angles
EXACT_LS = (64, 80, 96)
EXACT_QS = (2, 4, 6, 8, 10, 12)
TILTED_L, TILTED_Q = 128, 0
TILTED_THETAS = ("0.3", "0.5", "0.7", "0.9", "1.1")


#: workload -> CLI --threads of untraced calls (worker processes)
WORKERS = {"sample_sector": 2, "csyk_eigen": 1, "pe_check": 2,
           "exact_moments": 1}


def inputs(name: str, seed: int) -> dict:
    """The generated inputs of one workload; the same seed gives the same
    inputs."""
    rng = random.Random(f"sectormagic-bench:{name}:{seed}")
    params = {"cli_seed": rng.randrange(2 ** 31)}
    if name == "exact_moments":
        params["sectors"] = [[L, rng.choice(EXACT_QS)] for L in EXACT_LS]
        params["theta"] = rng.choice(TILTED_THETAS)
    return params


def calls(name: str, params: dict, threads: int, outdir: Path) -> list:
    """CLI calls of one child process: argv, stdout file, output files and
    the work items the call counts for."""
    seed = ["--seed", str(params["cli_seed"]), "--threads", str(threads)]
    if name == "exact_moments":
        out = []
        for i, (L, q) in enumerate(params["sectors"]):
            out.append({"argv": ["analytic", "variance", "--L", str(L),
                                 "--q", str(q)],
                        "stdout": str(outdir / f"variance{i}.json"),
                        "files": [], "items": 1})
        out.append({"argv": ["analytic", "tilted", "--L", str(TILTED_L),
                             "--q", str(TILTED_Q), "--theta",
                             params["theta"]],
                    "stdout": str(outdir / "tilted.json"), "files": [],
                    "items": 1})
        return out
    prefix = str(outdir / name)
    if name == "sample_sector":
        argv = ["sample", "--L", str(SAMPLE_L), "--samples", str(SAMPLE_N),
                "--frame", "z", "--histogram-bins", "200"]
        for q in SAMPLE_QS:
            argv += ["--q", str(q)]
        items = SAMPLE_N * len(SAMPLE_QS)
    elif name == "csyk_eigen":
        argv = ["csyk", "--L", str(CSYK_L), "--fraction", str(CSYK_FRACTION),
                "--realizations", str(CSYK_REALIZATIONS)]
        for q in CSYK_QS:
            argv += ["--q", str(q)]
        items = CSYK_REALIZATIONS
    elif name == "pe_check":
        argv = ["pe-check", "--L", str(PE_L), "--q", str(PE_Q),
                "--samples", str(PE_N)]
        items = PE_N
    else:
        raise KeyError(name)
    return [{"argv": argv + seed + ["--out", prefix, "--format", "csv"],
             "stdout": prefix + ".stdout.json",
             "files": [prefix + ".csv", prefix + ".summary.json"],
             "items": items}]


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def variance_digest(payload: dict) -> str:
    """SHA-256 of the three printed rational strings of `analytic variance`."""
    text = "\n".join(payload[k] for k in ("mean_xi2", "second_moment_xi2",
                                          "variance_xi2"))
    return hashlib.sha256(text.encode()).hexdigest()


def _mean_sem(values):
    return statistics.fmean(values), statistics.stdev(values) / math.sqrt(
        len(values))


def _compare(problems, label, observed_mean, csv_values, exact):
    """Summary mean must equal the CSV mean; both within Z_LIMIT sem of the
    exact ensemble mean."""
    mean, sem = _mean_sem(csv_values)
    if not math.isclose(observed_mean, mean, rel_tol=1e-9):
        problems.append(f"{label}: summary mean {observed_mean} != CSV mean "
                        f"{mean}")
    z = abs(mean - exact) / sem
    if not z <= Z_LIMIT:
        problems.append(f"{label}: mean {mean} is {z:.2f} sem from exact "
                        f"{exact}")


def check(name: str, call: dict, texts: dict, reference: dict) -> list:
    """Problems found in one call's outputs (empty when correct).

    texts maps the call's stdout path and output files to their contents.
    """
    try:
        return _check(name, call, texts, reference)
    except (KeyError, ValueError, TypeError, ZeroDivisionError,
            statistics.StatisticsError) as exc:
        return [f"malformed output: {exc!r}"]


def _check(name, call, texts, reference):
    problems = []
    if name == "exact_moments":
        payload = json.loads(texts[call["stdout"]])
        if call["argv"][1] == "variance":
            key = f"{payload['L']}:{payload['q']}"
            if variance_digest(payload) != reference["variance_digest"][key]:
                problems.append(f"variance ({key}) rationals differ from "
                                f"the recorded digest")
        else:
            ref = reference["tilted"][call["argv"][-1]]
            for k in ("mean_xi2", "m2_mean_bound"):
                if not math.isclose(payload[k], ref[k], rel_tol=1e-12):
                    problems.append(f"tilted {k} {payload[k]} != {ref[k]}")
        return problems

    csv_text, summary_text = (texts[p] for p in call["files"])
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    summary = json.loads(summary_text)
    if json.loads(texts[call["stdout"]]) != summary:
        problems.append("printed summary differs from the summary file")

    if name == "sample_sector":
        if len(rows) != SAMPLE_N * len(SAMPLE_QS) * 4:
            problems.append(f"{len(rows)} CSV rows")
        for q in SAMPLE_QS:
            xi2 = [float(r["value"]) for r in rows
                   if r["q"] == str(q) and r["observable"] == "xi2"]
            observed = summary["sectors"][str(q)]["observed"]["xi2"]
            if len(xi2) != SAMPLE_N or observed["count"] != SAMPLE_N:
                problems.append(f"q={q}: {len(xi2)} xi2 rows")
                continue
            exact = float(Fraction(reference["mean_sp2"][f"{SAMPLE_L}:{q}"]))
            _compare(problems, f"xi2 q={q}", observed["mean"], xi2, exact)
    elif name == "pe_check":
        if len(rows) != 2 * PE_N:
            problems.append(f"{len(rows)} CSV rows")
        d = math.comb(PE_L, (PE_L - PE_Q) // 2)
        ipr = [2.0 ** -float(r["value"]) for r in rows
               if r["observable"] == "s2"]
        shannon = [float(r["value"]) for r in rows
                   if r["observable"] == "shannon_pe"]
        harmonic = math.fsum(1.0 / p for p in range(1, d + 1))
        _compare(problems, "ipr2", summary["ipr2"]["observed"]["mean"], ipr,
                 2.0 / (d + 1))
        _compare(problems, "shannon_pe",
                 summary["shannon_pe"]["observed"]["mean"], shannon,
                 (harmonic - 1.0) / math.log(2))
    elif name == "csyk_eigen":
        expected = CSYK_REALIZATIONS * len(CSYK_QS)
        m2 = [float(r["value"]) for r in rows if r["observable"] == "m2"]
        if len(rows) != expected or len(m2) != expected:
            problems.append(f"{len(rows)} CSV rows, expected {expected}")
        if not all(math.isfinite(v) and 0.0 < v <= CSYK_L for v in m2):
            problems.append(f"m2 values out of (0, L]: {m2}")
        for q in CSYK_QS:
            kept = summary["sectors"][str(q)]["eigenstates"]
            if kept != CSYK_REALIZATIONS:
                problems.append(f"q={q}: {kept} eigenstates kept")
    return problems
