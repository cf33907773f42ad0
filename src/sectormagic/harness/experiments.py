"""Experiment drivers: state source x observable set x reducer.

Two state sources, sector-Haar draws (`_haar_chunk`) and disorder
realizations (`_disorder_chunk`), measure their states in one
Pauli-kernel loop (`_magic`) and run behind one task dispatcher
(`_dispatch`); each run_* driver only reduces their rows to RunRecords,
SummaryStats and a summary dict.  One pool per run: a driver hands every
job of the run (one per sector, angle or size) to a single `_dispatch`
call, whose chunks share one worker pool.  Task i of an experiment owns
the stream SeedPolicy(seed).stream(experiment id, i).  The ids
sample:L=..:q=..:frame=.., varconv:L=..:q=.., mixed:L=..:q=..:t=..,
pe:L=..:q=.., {model}:L=.. and selfavg:csyk:L=.. never change.
Degenerate inputs raise ConfigError up front, and a statistic that means
nothing (fewer than two samples, a one-state sector) is None, never NaN.

Determinism, stated here once.  No output byte depends on the worker
count or on CHUNK.  (1) Each task's values depend only on its stream key:
the batched draw works element by element and normalizes row by row, so
row i has the bits of the per-state draw; `_participation` reduces each
row on its own, `_magic` takes one state per call, and histograms are
integer counts.  (2) Every floating-point reduction across tasks runs in
the parent, in task order (SummaryStats, pooled statistics, the
self-averaging sums).  The envelope: the bytes are fixed by the config
for a given numpy build and SIMD tier (np.log and np.exp, and complex
np.abs below AVX2, dispatch by CPU), BLAS build and BLAS thread count
(eigh).  tests/test_golden.py runs every case at three chunk sizes.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..sectors import (Direction, apply_frame_rotation, enumerate_sector,
                       sector_dimension)
from ..moments import (
    haar_mean_sp2,
    m2_mean_bound,
    mean_sp2,
    mean_sp2_tilted,
    pe_moment_mean,
    pe_shannon_mean,
    porter_thomas_cdf,
    variance_sp2,
)
from ..asymptotics import asymptotic_prediction, nearest_sector_charge
from ..sampler import GaussianStream, SeedPolicy, sector_haar_coefficients
from ..magic import pauli_spectrum
# not called here; bench/tracer.py times these names on this module
from ..sampler import constrained_haar_state  # noqa: F401
from ..magic import shannon_pe  # noqa: F401
from ..hamiltonians import (
    CHARGED,
    CLEAN_BUILDERS,
    COUPLINGS,
    L_RANGE,
    adjacent_gap_ratio,
    build_csyk,
    diagonalize,
    embed_eigenvector,
    extract_sector_block,
    midspectrum_filter,
)
from .config import ConfigError
from .records import RunRecord
from .stats import SummaryStats, ks_two_sided

__all__ = [
    "resolve_threads",
    "run_ensemble_experiment",
    "run_variance_convergence",
    "run_disorder_sweep",
    "run_mixed_charge",
    "run_asymptotic_collapse",
    "run_self_averaging",
    "run_pe_check",
]

#: tasks per worker call: the per-call overhead of a batched sector-Haar
#: draw against the size of its (CHUNK, d) coefficient block
CHUNK = 64

#: peak memory of assembling and diagonalizing a dense block over its own
#: bytes (3.1-4.0 measured: mfim full space d = 1024-4096, csyk d = 1024-3432)
_DENSE_COPIES = 5
#: peak memory of a sample run per histogram bin and sector, in bytes
#: (64-80 measured in the main process, 128-144 with its largest worker)
_HIST_BIN_BYTES = 160
#: peak memory of a sampling run per sample, in bytes: its stream key, its
#: row and its records (402-861 measured for sample, mixed and pe-check at
#: L = 2 between 5e4 and 1e5 samples, one and two workers)
_SAMPLE_BYTES = 1200
try:  # bytes of physical memory; inf where os.sysconf cannot tell
    _PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
except (AttributeError, ValueError, OSError):
    _PHYSICAL_MEMORY = math.inf


def resolve_threads(flag: int | None = None) -> int:
    """Worker count: the flag (refused below 1), else the CPUs this
    process may run on (its affinity mask, else the cpu count)."""
    if flag is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if int(flag) < 1:
        raise ConfigError(f"worker count must be >= 1, got {flag}")
    return int(flag)


def _size_check(Ls, qs, L_range, what: str) -> dict:
    """Refuse, before any work, an L outside L_range and an empty sector;
    (L, q) -> dimension of every block, q None being the full 2^L space.
    Sampling needs no dimension cap: its L range bounds a sector at
    C(14, 7) = 3432 states."""
    lo, hi = L_range
    dims = {}
    for L in Ls:
        if not lo <= L <= hi:
            raise ConfigError(f"{what} supports {lo} <= L <= {hi}, got L={L}")
        for q in qs:
            d = dims[L, q] = 2 ** L if q is None else sector_dimension(L, q)
            if d == 0:
                raise ConfigError(f"sector (L={L}, q={q}) is empty")
    return dims


def _block_check(Ls, qs, model: str) -> dict:
    """_size_check of a disorder run, then refuse a block too large to
    diagonalize in physical memory (_DENSE_COPIES times its bytes; only a
    clean model's blocks are real); (L, q) -> dimension of every block."""
    per_entry = _DENSE_COPIES * (8 if model in CLEAN_BUILDERS else 16)
    dims = _size_check(Ls, qs, L_RANGE, model)
    for (L, q), d in dims.items():
        if per_entry * d * d > _PHYSICAL_MEMORY:
            raise ConfigError(f"sector (L={L}, q={q}) of dimension {d} is "
                              f"too large to diagonalize in physical memory")
    return dims


def _realization_check(realizations: int, per_realization: int):
    """Refuse, before any stream key is made, a disorder run that would not
    fit in physical memory: per realization, per_realization stream keys
    and kept eigenstates, _SAMPLE_BYTES each."""
    if realizations * per_realization * _SAMPLE_BYTES > _PHYSICAL_MEMORY:
        raise ConfigError(f"{realizations} realizations do not fit in "
                          f"physical memory")


def _fraction_check(fraction):
    """Refuse, before any work, a band fraction outside [0, 1]."""
    if fraction is not None and not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"fraction must be in [0, 1], got {fraction}")


def _z_score(stats: SummaryStats, exact: float, d: int):
    """(observed mean - exact mean) / sem, or None when it means nothing:
    fewer than two samples, or a one-state sector (every draw is the same
    state, so the spread is rounding noise)."""
    if stats.count < 2 or d == 1:
        return None
    return (stats.mean - exact) / stats.sem


def _dispatch(worker, jobs, seed: int, threads: int):
    """The one task dispatcher, one pool per run: per job, the per-chunk
    results of worker in task order.

    Each job is (exp_id, tasks, *params).  Task i of exp_id owns the stream
    keyed by SeedPolicy(seed) on (exp_id, i).  Every job's tasks go out in
    ranges of CHUNK, read at call time; each worker call gets the stream
    keys of one range followed by its job's params.  The chunks of all jobs
    share one worker pool, and every job is checked before any fork.
    """
    for _, tasks, *_ in jobs:
        if tasks < 1:
            raise ConfigError(f"need at least one sample or realization, "
                              f"got {tasks}")
    # a fork pool starts every worker at once: no more than there are CPUs
    threads = min(resolve_threads(threads), resolve_threads())
    policy = SeedPolicy(seed)
    arglist, bounds = [], []
    for exp_id, tasks, *params in jobs:
        start = len(arglist)
        arglist += [([policy.child_key(exp_id, i)
                      for i in range(lo, min(lo + CHUNK, tasks))],
                     *params)
                    for lo in range(0, tasks, CHUNK)]
        bounds.append((start, len(arglist)))
    if threads <= 1 or len(arglist) <= 1:
        results = [worker(a) for a in arglist]
    else:
        with ProcessPoolExecutor(
                max_workers=min(threads, len(arglist)),
                mp_context=multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(worker, arglist))
    return [results[lo:hi] for lo, hi in bounds]


# ---------------------------------------------------------------------------
# state sources
# ---------------------------------------------------------------------------

def _haar_chunk(args):
    """Sector-Haar draws, one per stream key: rows (task order, one column
    per requested observable) and the pooled |<P>|^2 histogram (None
    without bins).

    Observables: xi2 and m2 (Pauli kernel), ipr2 = sum p^2 and s2, the
    Shannon participation entropy shannon_pe, and probe, the weight
    d |c_x0|^2 of the first sector basis state.  Only the requested ones
    are computed.  The chunk's coefficients are drawn as one block, and
    one participation call reduces the weights of all its states, on the
    sector basis in the z frame and on all 2^L amplitudes once rotated;
    kernel calls take the states one at a time.  Every value has the bits
    of the per-state computation kept in tests/oracles.py.

    Rotation stays per state: rotating the whole (64, 4096) block at
    once, in an x-frame pe-check at L = 12, took 717-827 us per state
    against 557-755 us for the per-state path (median of 15 calls,
    repeated 5 times, on a 2-vCPU machine).
    """
    keys, L, q, frame, observables, hist_bins = args
    basis = enumerate_sector(L, q)
    coeffs = sector_haar_coefficients(keys, basis.dimension)
    kernel = "xi2" in observables or "m2" in observables
    if frame == "z":
        # a z-frame state's weights sit on the sector basis states, in
        # increasing x; its probe weight is in column 0
        states = map(basis.embed, coeffs)
        cols = _participation(np.abs(coeffs) ** 2, basis.states, 0, basis,
                              observables)
    else:
        states = np.empty((len(keys), 2 ** L), dtype=complex)
        for state, c in zip(states, coeffs):
            state[:] = apply_frame_rotation(basis.embed(c), frame)
        cols = _participation(np.abs(states) ** 2, slice(None),
                              int(basis.states[0]), basis, observables)
    hist = np.zeros(hist_bins, dtype=np.int64) if hist_bins else None
    if kernel:
        cols["xi2"], cols["m2"] = _magic(states, len(keys), hist)
    return np.column_stack([cols[obs] for obs in observables]), hist


def _magic(states, count: int, hist=None):
    """The Xi_2 and m2 columns of count states, one pauli_spectrum call per
    state in order; with hist, each state's |<P>|^2 counts over hist.size
    bins are added to it."""
    xi2s, m2s = np.empty(count), np.empty(count)
    bins = None if hist is None else hist.size
    for i, state in enumerate(states):
        summ = pauli_spectrum(state, (2.0,), histogram_bins=bins)
        xi2 = xi2s[i] = summ.purity(2.0)
        # 0.0 - x, not -x: a zero entropy is written as 0, not -0
        m2s[i] = 0.0 - math.log2(xi2)
        if hist is not None:
            hist += summ.histogram[0]
    return xi2s, m2s


def _participation(weights, support, probe: int, basis, observables):
    """The requested participation observables of a block of states, one
    array per observable.  Row i of weights holds the weights p_x =
    |c_x|^2 of one normalized 2^L-amplitude state at x = support, in
    increasing x (every other p_x is 0); column probe holds x0, the first
    state of the sector basis.

    Each value has the bits of the formula on the full 2^L weight vector:
    ipr2 is one BLAS dot over the 2^L weights (a dot over the support alone
    rounds differently), and shannon_pe is one 1-D pairwise np.sum per row
    over the positive weights, the order of magic.shannon_pe (numpy does
    not promise that order for a 2-D reduction along axis 1).
    """
    out = {}
    if not {"ipr2", "s2"}.isdisjoint(observables):
        full = np.zeros(2 ** basis.L)
        ipr2 = np.empty(len(weights))
        for i, w in enumerate(weights):
            full[support] = w
            ipr2[i] = full @ full
        out["ipr2"] = ipr2
        out["s2"] = np.array([0.0 - math.log2(x) for x in ipr2])
    if "shannon_pe" in observables:
        positive = weights > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = weights * np.log2(weights)
        out["shannon_pe"] = np.array([
            0.0 - np.sum(t if pos.all() else t[pos])
            for t, pos in zip(terms, positive)])
    if "probe" in observables:
        out["probe"] = basis.dimension * weights[:, probe]
    return out


def _haar_draws(jobs, seed, threads, L, observables, hist_bins=0):
    """Per (exp_id, samples, q, frame) job in jobs: the dimension of its
    sector, all rows of its sector-Haar draws at size L in task order, and
    their pooled histogram (None without bins).  Refuses, before any draw,
    an L outside 1..L_RANGE[1], an empty sector and more samples than fit
    in physical memory (_SAMPLE_BYTES each)."""
    qs = [q for _, _, q, _ in jobs]
    dims = _size_check([L], qs, (1, L_RANGE[1]), "sampling")
    total = sum(samples for _, samples, _, _ in jobs)
    if total * _SAMPLE_BYTES > _PHYSICAL_MEMORY:
        raise ConfigError(f"{total} samples do not fit in physical memory")
    per_job = _dispatch(_haar_chunk, [
        (exp_id, samples, L, q, frame, observables, hist_bins)
        for exp_id, samples, q, frame in jobs], seed, threads)
    out = []
    for q, chunks in zip(qs, per_job):
        rows = np.concatenate([vals for vals, _ in chunks])
        hist = sum(h for _, h in chunks) if hist_bins else None
        out.append((dims[L, q], rows, hist))
    return out


def _disorder_chunk(args):
    """Disorder realizations, one per stream key, in task order: per
    realization a list with one cell per sector in qs, holding the m2 of
    each kept mid-spectrum eigenstate, their energy densities, the gap ratio
    and whether the block is zero.  q None means the full space."""
    keys, model, L, qs, params, window, fraction = args
    out = []
    for key in keys:
        # build_csyk by this module's name: bench/tracer.py times it here
        H = (CLEAN_BUILDERS[model](L, **dict(params))
             if model in CLEAN_BUILDERS
             else build_csyk(L, seed=GaussianStream(key)))
        row = []
        for q in qs:
            block, basis = extract_sector_block(H, q)
            block_zero = not np.any(block)
            es = diagonalize(block)
            keep = midspectrum_filter(es.values, L, window=window,
                                      fraction=fraction)
            _, m2s = _magic((embed_eigenvector(es.vectors[:, k], basis)
                             for k in keep), keep.size)
            row.append({
                "m2": m2s,
                "e_density": es.values[keep] / L,
                "gap_ratio": adjacent_gap_ratio(es.values),
                "block_zero": block_zero,
            })
            del block, es  # free them before the next sector's assembly
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# constrained-ensemble sampling
# ---------------------------------------------------------------------------

_SAMPLE_OBS = ("xi2", "m2", "s2", "shannon_pe")


def run_ensemble_experiment(L, q, samples, frame="z", seed=0, threads=None,
                            histogram_bins=200):
    """Sample the charge-constrained Haar ensemble of each sector in q and
    stream stabilizer purity / entropy and participation entropies per
    sample, with the exact ensemble moments attached for comparison."""
    qs = list(q)
    if histogram_bins * len(qs) * _HIST_BIN_BYTES > _PHYSICAL_MEMORY:
        raise ConfigError(f"{histogram_bins} histogram bins per sector do not "
                          f"fit in physical memory")

    draws = _haar_draws(
        [(f"sample:L={L}:q={q}:frame={frame}", samples, q, frame)
         for q in qs], seed, threads, L, _SAMPLE_OBS, histogram_bins)
    records = []
    sectors = {}
    for q, (d, rows, hist) in zip(qs, draws):
        stats = {obs: SummaryStats() for obs in _SAMPLE_OBS}
        for task, row in enumerate(rows):
            for obs, value in zip(_SAMPLE_OBS, row):
                records.append(RunRecord("sample", seed, task, L, q, obs,
                                         float(value)))
                stats[obs].update(value)

        sector = {
            "dimension": d,
            "observed": {obs: st.to_dict() for obs, st in stats.items()},
            "analytic": {
                "mean_xi2": float(mean_sp2(L, q)),
                "variance_xi2": float(variance_sp2(L, q)),
                "m2_mean_bound": m2_mean_bound(L, q),
                "pe_moment_mean": float(pe_moment_mean(d, 2)),
                "pe_shannon_mean": pe_shannon_mean(d),
            },
        }
        if hist is not None:
            sector["histogram"] = {
                "bin_edges": np.linspace(0.0, 1.0, histogram_bins + 1).tolist(),
                "counts": hist.tolist(),
            }
        sectors[str(q)] = sector

    summary = {
        "experiment": "sample",
        "seed": seed,
        "L": L,
        "frame": frame,
        "samples": samples,
        "sectors": sectors,
    }
    return records, summary


def run_variance_convergence(L, q, samples, seed=0, threads=None,
                             checkpoints=None):
    """Running mean/variance of Xi_2 against the exact moments of each
    sector in q at checkpoints up to samples (default logarithmic)."""
    qs = list(q)
    if samples < 2:
        raise ConfigError(f"samples must be >= 2, got {samples}")
    if not checkpoints:
        checkpoints = [c for c in (100, 300, 1000, 3000, 10000, 30000, 100000)
                       if c < samples]
    checkpoints = sorted(set(int(c) for c in checkpoints) | {samples})
    if checkpoints[0] < 2:
        raise ConfigError("checkpoints must be >= 2")
    if checkpoints[-1] > samples:
        raise ConfigError(f"checkpoints must be <= samples = {samples}")
    marks = set(checkpoints)

    draws = _haar_draws([(f"varconv:L={L}:q={q}", samples, q, "z")
                         for q in qs], seed, threads, L, ("xi2",))
    records = []
    sectors = {}
    for q, (d, xi2s, _) in zip(qs, draws):
        exact_mean = float(mean_sp2(L, q))
        exact_var = float(variance_sp2(L, q))
        stats = SummaryStats()
        rows = []
        for (xi2,) in xi2s:
            stats.update(xi2)
            if stats.count in marks:
                records.append(RunRecord("variance-convergence", seed,
                                         stats.count, L, q, "xi2", stats.mean,
                                         aux1=stats.variance,
                                         aux2=float(stats.count)))
                rows.append({
                    "count": stats.count,
                    "mean": stats.mean,
                    "variance": stats.variance,
                    "mean_z": _z_score(stats, exact_mean, d),
                    # a one-state sector has exact variance 0
                    "variance_ratio": (None if d == 1
                                       else stats.variance / exact_var),
                })
        sectors[str(q)] = {
            "dimension": d,
            "exact_mean": exact_mean,
            "exact_variance": exact_var,
            "checkpoints": rows,
        }

    summary = {
        "experiment": "variance-convergence",
        "seed": seed,
        "L": L,
        "samples": samples,
        "sectors": sectors,
    }
    return records, summary


# ---------------------------------------------------------------------------
# tilted-frame sweep
# ---------------------------------------------------------------------------

def run_mixed_charge(L, q, theta, samples, seed=0, phi=0.0, threads=None):
    """Constrain the charge along a tilted axis n(theta, phi) for each theta
    and compare the sampled mean Xi_2 against the exact tilted
    prediction."""
    thetas = [float(t) for t in theta]

    directions = [Direction.from_angles(theta, phi) for theta in thetas]
    draws = _haar_draws([(f"mixed:L={L}:q={q}:t={ti}", samples, q, direction)
                         for ti, direction in enumerate(directions)],
                        seed, threads, L, ("xi2", "m2"))
    records = []
    sweep = []
    task = 0
    for theta, direction, (d, rows, _) in zip(thetas, directions, draws):
        analytic = mean_sp2_tilted(L, q, direction)
        stats = SummaryStats()
        for xi2, m2 in rows:
            records.append(RunRecord("mixed", seed, task, L, q, "xi2",
                                     float(xi2), aux1=theta))
            records.append(RunRecord("mixed", seed, task, L, q, "m2",
                                     float(m2), aux1=theta))
            stats.update(xi2)
            task += 1
        sweep.append({
            "theta": theta,
            "phi": phi,
            "analytic_mean_xi2": analytic,
            "observed": stats.to_dict(),
            "mean_z": _z_score(stats, analytic, d),
        })

    summary = {
        "experiment": "mixed",
        "seed": seed,
        "L": L,
        "q": q,
        "samples": samples,
        "sweep": sweep,
    }
    return records, summary


# ---------------------------------------------------------------------------
# disorder ensembles
# ---------------------------------------------------------------------------

def run_disorder_sweep(model, L, q=None, realizations=1, seed=0,
                       threads=None, window=None, fraction=None, **couplings):
    """Mid-spectrum stabilizer entropy across disorder realizations of one
    Hamiltonian family, pooled per charge sector in q.

    A model outside CHARGED takes q None, the full spectrum.  Exactly one
    of window / fraction selects the mid-spectrum band.  The keyword
    couplings go to the model's builder (COUPLINGS); a name the builder does
    not take is refused before any work.  A clean model (CLEAN_BUILDERS) has
    fixed couplings, so it takes exactly one realization.
    """
    if model not in COUPLINGS:
        raise ConfigError(f"unknown model {model!r}")
    if (window is None) == (fraction is None):
        raise ConfigError("give exactly one of window / fraction")
    _fraction_check(fraction)
    unknown = sorted(set(couplings) - set(COUPLINGS[model]))
    if unknown:
        raise ConfigError(f"{model} takes no coupling {', '.join(unknown)}")
    if model in CLEAN_BUILDERS and realizations != 1:
        raise ConfigError(f"{model} is a clean model and takes one "
                          f"realization, got {realizations}")
    qs = [None] if q is None else list(q)
    if model not in CHARGED and qs != [None]:
        raise ConfigError(f"{model} has no conserved charge; leave q unset")
    dims = _block_check([L], qs, model)
    # a window's kept count is known only after diagonalization
    _realization_check(realizations, 1 + (0 if fraction is None else sum(
        round(fraction * d) for d in dims.values())))
    params = tuple(sorted(couplings.items()))

    (chunks,) = _dispatch(_disorder_chunk, [
        (f"{model}:L={L}", realizations, model, L, tuple(qs), params, window,
         fraction)], seed, threads)

    records = []
    pooled = {q: {"m2": SummaryStats(), "gap": SummaryStats(), "zero": 0}
              for q in qs}
    task = 0
    for r, row in enumerate(row for chunk in chunks for row in chunk):
        for q, cell in zip(qs, row):
            agg = pooled[q]
            agg["zero"] += bool(cell["block_zero"])
            if math.isfinite(cell["gap_ratio"]):
                agg["gap"].update(cell["gap_ratio"])
            for m2, ed in zip(cell["m2"], cell["e_density"]):
                records.append(RunRecord(model, seed, task, L, q, "m2",
                                         float(m2), aux1=float(r),
                                         aux2=float(ed)))
                agg["m2"].update(m2)
                task += 1

    full_bound = -math.log2(float(haar_mean_sp2(L)))
    sectors = {}
    for q in qs:
        agg = pooled[q]
        bound = full_bound if q is None else m2_mean_bound(L, q)
        stats = agg["m2"]
        sectors["all" if q is None else str(q)] = {
            "dimension": dims[L, q],
            "eigenstates": stats.count,
            "m2": stats.to_dict(),
            "m2_mean_bound": bound,
            "m2_deficit": None if stats.count == 0 else bound - stats.mean,
            "gap_ratio": agg["gap"].to_dict(),
            "degenerate": agg["zero"] == realizations,
        }

    summary = {
        "experiment": model,
        "seed": seed,
        "L": L,
        "realizations": realizations,
        "window": window,
        "fraction": fraction,
        "couplings": dict(params),
        "sectors": sectors,
    }
    return records, summary


def run_self_averaging(L_values=(6, 8, 10), realizations=50, seed=0,
                       threads=None, fraction=0.1):
    """Relative disorder fluctuation of the mean mid-spectrum m2 of csyk per
    system size; self-averaging shows up as a decreasing sequence.  Only
    csyk: a clean model (xxz, mfim) has one realization and no disorder
    fluctuation."""
    _fraction_check(fraction)
    q = 0  # half filling / zero magnetization
    dims = _block_check(L_values, [q], "csyk")
    for L in L_values:
        d = dims[L, q]
        if round(fraction * d) == 0:
            raise ConfigError(
                f"fraction {fraction} keeps no eigenstate of the L={L}, "
                f"q={q} sector (dimension {d})")
    _realization_check(realizations, sum(1 + round(fraction * d)
                                         for d in dims.values()))

    per_size = _dispatch(_disorder_chunk, [
        (f"selfavg:csyk:L={L}", realizations, "csyk", L, (q,), (), None,
         fraction) for L in L_values], seed, threads)
    records = []
    sizes = []
    for L, chunks in zip(L_values, per_size):
        stats = SummaryStats()
        for r, (cell,) in enumerate(row for chunk in chunks for row in chunk):
            acc = 0.0
            for m2 in cell["m2"]:
                acc += float(m2)
            mean = acc / cell["m2"].size
            records.append(RunRecord("self-averaging", seed, r, L, q,
                                     "m2", mean, aux1=float(r)))
            stats.update(mean)
        sizes.append({
            "L": L,
            "q": q,
            "m2": stats.to_dict(),
            # one realization has no spread, a zero mean no relative one
            "relative_variance": (None if stats.count < 2 or stats.mean == 0
                                  else stats.variance / stats.mean ** 2),
        })

    rels = [s["relative_variance"] for s in sizes]
    summary = {
        "experiment": "self-averaging",
        "seed": seed,
        "model": "csyk",
        "realizations": realizations,
        "fraction": fraction,
        "sizes": sizes,
        "monotone_decreasing": (
            None if None in rels
            else all(b < a for a, b in zip(rels, rels[1:]))),
    }
    return records, summary


# ---------------------------------------------------------------------------
# exact-vs-asymptotic collapse
# ---------------------------------------------------------------------------

def run_asymptotic_collapse(L_values, s_values, seed=0):
    """Exact -log2 E[Xi_2] against the large-L prediction L*m(s) + g(s).

    No sampling: the exact sector mean is evaluated in rational arithmetic
    at the nearest realizable charge q = round_parity(s L), and the residual
    scaled by L exposes the 1/L collapse constant.
    """
    records = []
    per_s = []
    task = 0
    for s in s_values:
        pred = asymptotic_prediction(s)
        rows = []
        for L in L_values:
            q = nearest_sector_charge(L, s)
            exact = m2_mean_bound(L, q)
            asym = L * pred.m + pred.g
            scaled = L * (exact - asym)
            records.append(RunRecord("collapse", seed, task, L, q, "m2",
                                     exact, aux1=asym, aux2=scaled))
            rows.append({"L": L, "q": q, "exact": exact, "asymptotic": asym,
                         "g_estimate": exact - L * pred.m,
                         "scaled_residual": scaled})
            task += 1
        scaled_vals = [row["scaled_residual"] for row in rows]
        mean_abs = sum(abs(v) for v in scaled_vals) / len(scaled_vals)
        spread = ((max(scaled_vals) - min(scaled_vals)) / mean_abs
                  if mean_abs > 0 else 0.0)
        per_s.append({
            "s": s,
            "m": pred.m,
            "g": pred.g,
            "xi": pred.xi,
            "rows": rows,
            "relative_spread": spread,
        })

    summary = {
        "experiment": "collapse",
        "seed": seed,
        "xi_variant": "hessian",
        "L_values": list(L_values),
        "s_values": [float(s) for s in s_values],
        "per_s": per_s,
    }
    return records, summary


# ---------------------------------------------------------------------------
# participation-entropy checks
# ---------------------------------------------------------------------------

_PE_OBS = ("ipr2", "s2", "shannon_pe", "probe")


def run_pe_check(L, q, samples, seed=0, threads=None):
    """Participation-entropy statistics of the constrained ensemble against
    the exact Dirichlet moments and the one-component Porter-Thomas law."""
    ((d, rows, _),) = _haar_draws([(f"pe:L={L}:q={q}", samples, q, "z")],
                                  seed, threads, L, _PE_OBS)

    records = []
    ipr_stats = SummaryStats()
    sh_stats = SummaryStats()
    for task, (ipr2, s2, sh, w) in enumerate(rows):
        records.append(RunRecord("pe-check", seed, task, L, q, "s2",
                                 float(s2), aux1=float(w)))
        records.append(RunRecord("pe-check", seed, task, L, q,
                                 "shannon_pe", float(sh)))
        ipr_stats.update(ipr2)
        sh_stats.update(sh)

    ipr_exact = float(pe_moment_mean(d, 2))
    sh_exact = pe_shannon_mean(d)
    # the Porter-Thomas law of a one-state sector is a point mass at w = 1
    ks = (None if samples < 2 or d == 1 else
          ks_two_sided(rows[:, 3], lambda w: porter_thomas_cdf(w, d)))
    summary = {
        "experiment": "pe-check",
        "seed": seed,
        "L": L,
        "q": q,
        "dimension": d,
        "samples": samples,
        "ipr2": {
            "observed": ipr_stats.to_dict(),
            "exact_mean": ipr_exact,
            "mean_z": _z_score(ipr_stats, ipr_exact, d),
        },
        "shannon_pe": {
            "observed": sh_stats.to_dict(),
            "exact_mean": sh_exact,
            "mean_z": _z_score(sh_stats, sh_exact, d),
        },
        "porter_thomas": {
            "ks_statistic": None if ks is None else ks[0],
            "ks_pvalue": None if ks is None else ks[1],
        },
    }
    return records, summary
