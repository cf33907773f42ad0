"""Span tracing of sectormagic's layers from outside the package.

The tracer replaces public functions at the module attributes their callers
look them up under (for example ``sectormagic.harness.experiments.
pauli_spectrum``), records one span per call (name, layer, start, end,
parent) in memory, and puts every original attribute back on exit.  Nothing
under ``src/`` is edited: the wrappers exist only inside a traced child
process.

A layer's self time is the summed duration of its spans minus the time
their direct child spans cover.  The root span is ``cli.main``, so the layer
self times add up to the traced work time.
"""

from __future__ import annotations

import functools
import importlib
import math
import resource
import statistics
import time

import numpy as np

HARNESS, MAGIC, SHANNON, SAMPLER, HAMILTONIANS, MOMENTS = (
    "harness", "magic", "shannon", "sampler", "hamiltonians", "moments")
LAYERS = (HARNESS, MAGIC, SHANNON, SAMPLER, HAMILTONIANS, MOMENTS)

_CLI = "sectormagic.harness.cli"
_EXP = "sectormagic.harness.experiments"

#: (module, attribute, span name, layer, record the RSS high-water mark)
SPAN_TARGETS = (
    (_CLI, "main", "cli.main", HARNESS, False),
    (_CLI, "write_csv", "harness.write_csv", HARNESS, False),
    (_CLI, "write_summary", "harness.write_summary", HARNESS, False),
    (_CLI, "analytic_moments", "moments.analytic_moments", MOMENTS, False),
    (_CLI, "levy_variance_bound", "moments.levy_variance_bound", MOMENTS,
     False),
    (_CLI, "mean_sp2_tilted", "moments.mean_sp2_tilted", MOMENTS, False),
    (_CLI, "tilted_m2_bound", "moments.tilted_m2_bound", MOMENTS, False),
    (_CLI, "tilted_asymptotic_q0", "moments.tilted_asymptotic_q0", MOMENTS,
     False),
    (_EXP, "mean_sp2", "moments.mean_sp2", MOMENTS, False),
    (_EXP, "variance_sp2", "moments.variance_sp2", MOMENTS, False),
    (_EXP, "m2_mean_bound", "moments.m2_mean_bound", MOMENTS, False),
    (_EXP, "haar_mean_sp2", "moments.haar_mean_sp2", MOMENTS, False),
    (_EXP, "pe_moment_mean", "moments.pe_moment_mean", MOMENTS, False),
    (_EXP, "pe_shannon_mean", "moments.pe_shannon_mean", MOMENTS, False),
    (_EXP, "porter_thomas_cdf", "moments.porter_thomas_cdf", MOMENTS, False),
    (_EXP, "pauli_spectrum", "magic.pauli_spectrum", MAGIC, True),
    (_EXP, "shannon_pe", "magic.shannon_pe", SHANNON, False),
    (_EXP, "constrained_haar_state", "sampler.constrained_haar_state",
     SAMPLER, False),
    (_EXP, "enumerate_sector", "sectors.enumerate_sector", SAMPLER, False),
    ("sectormagic.sampler", "enumerate_sector", "sectors.enumerate_sector",
     SAMPLER, False),
    (_EXP, "build_csyk", "hamiltonians.build_csyk", HAMILTONIANS, True),
    # private, but it is where the first build fills the csyk index maps
    ("sectormagic.hamiltonians", "_csyk_index_maps",
     "hamiltonians.csyk_index_maps", HAMILTONIANS, True),
    (_EXP, "extract_sector_block", "hamiltonians.extract_sector_block",
     HAMILTONIANS, True),
    (_EXP, "diagonalize", "hamiltonians.diagonalize", HAMILTONIANS, True),
)

#: (module, attribute, counter name): counted, never timed
COUNT_TARGETS = (
    ("sectormagic.moments", "kravchuk_int", "kravchuk.calls"),
    (_EXP, "embed_eigenvector", "hamiltonians.eigenstates"),
)

# FWHT: one 16-B complex read and write per element and butterfly level
# (32 L B); gather, conj, product, abs, square and sum: six 16-B passes.
BYTES_PER_PAULI_STRING = "32*L + 96"

#: per-layer metric -> (unit, note).  A note starting with "computed"
#: gives the formula the value is computed from instead of measured.
LAYER_METRICS = {
    "magic.busy_s": ("s", "self time of pauli_spectrum"),
    "magic.share": ("share", "magic.busy_s / traced work time"),
    "magic.ms_per_state_p50": ("ms", "median pauli_spectrum call"),
    "magic.ms_per_state_tail": (
        "ms", "highest of p99.9/p99/p90 with >= 10 calls beyond it, "
              "else the slowest call"),
    "magic.ns_per_pauli_string": ("ns", "magic.busy_s / magic.pauli_strings"),
    "magic.pauli_strings": ("count", "computed: sum over calls of 4^L"),
    "magic.bytes_moved_computed": (
        "B", "computed: sum over calls of 4^L * (%s) B, cache misses ignored"
             % BYTES_PER_PAULI_STRING),
    "magic.nonzero_row_share": (
        "share", "computed from the input states: X-masks a with some x, "
                 "c_x != 0 and c_(x^a) != 0, over 2^L, summed over calls"),
    "magic.peak_mb": ("MB", "rise of the process peak RSS during "
                            "pauli_spectrum calls"),
    "magic.shannon_s": ("s", "self time of shannon_pe"),
    "hamiltonians.build_s": (
        "s", "median build_csyk self time, index-map fill excluded"),
    "hamiltonians.build_first_s": (
        "s", "first build_csyk call, index-map fill included"),
    "hamiltonians.extract_s": ("s", "median extract_sector_block call"),
    "hamiltonians.eigh_s": ("s", "median diagonalize call"),
    "hamiltonians.share": ("share", "layer self time / traced work time"),
    "hamiltonians.eigenstates": ("count", "kept eigenstates embedded"),
    "hamiltonians.peak_mb": ("MB", "rise of the process peak RSS during "
                                   "hamiltonian calls"),
    "hamiltonians.block_to_dense_bytes": (
        "ratio", "computed: sum of d^2 / sum of 4^L over "
                 "extract_sector_block calls"),
    "sampler.busy_s": ("s", "self time of constrained_haar_state and "
                            "enumerate_sector"),
    "sampler.us_per_state": ("us", "sampler.busy_s / states drawn"),
    "sampler.amplitudes": ("count", "sum of sector dimensions of states "
                                    "drawn"),
    "sectors.enumerate_calls": ("count", "enumerate_sector calls"),
    "sectors.enumerate_reuse": (
        "share", "distinct (L, q) / enumerate_sector calls"),
    "harness.self_s": ("s", "self time of cli.main and the writers"),
    "harness.share": ("share", "harness.self_s / traced work time"),
    "harness.records": ("count", "CSV rows written plus analytic payloads "
                                 "printed"),
    "harness.us_per_record": ("us", "harness.self_s / harness.records"),
    "harness.write_s": ("s", "write_csv and write_summary calls"),
    "harness.bytes_written": ("B", "bytes of CSV, summary and stdout"),
    "moments.busy_s": ("s", "self time of the exact-moment calls"),
    "moments.s_per_sector": ("s", "moments.busy_s / distinct sector "
                                  "dimensions d passed to moment calls"),
    "moments.share": ("share", "moments.busy_s / traced work time"),
    "kravchuk.calls": ("count", "calls of moments.kravchuk_int"),
    "trace.overhead_s": ("s", "median traced work time minus median "
                              "untraced work time"),
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# moment calls that name their sector by (L, q), and by its dimension d
# (value: position of d in the arguments)
_LQ_MOMENTS = frozenset(
    "moments." + f for f in ("analytic_moments", "levy_variance_bound",
                             "mean_sp2_tilted", "tilted_m2_bound", "mean_sp2",
                             "variance_sp2", "m2_mean_bound"))
_D_MOMENTS = {"moments.pe_moment_mean": 0, "moments.pe_shannon_mean": 0,
              "moments.porter_thomas_cdf": 1}


def _span_info(name, args, kwargs, result):
    """Small facts about one call, taken outside its timed interval."""
    if name == "magic.pauli_spectrum":
        state = np.asarray(args[0])
        return (state.size.bit_length() - 1,
                np.flatnonzero(state).astype(np.int64))
    if name in ("sampler.constrained_haar_state", "sectors.enumerate_sector"):
        return (int(args[0]), int(_arg(args, kwargs, 1, "q")))
    if name == "hamiltonians.extract_sector_block":
        return (int(args[0].L), int(result[0].shape[0]))
    if name == "harness.write_csv":
        return len(args[0])
    if name in _LQ_MOMENTS:
        L, q = int(args[0]), int(_arg(args, kwargs, 1, "q"))
        return math.comb(L, (L - q) // 2)
    if name in _D_MOMENTS:
        return int(args[_D_MOMENTS[name]])
    return None


class Tracer:
    """Installs span and count wrappers; use as a context manager so the
    original attributes are restored on every exit path."""

    def __init__(self):
        self.spans = []  # [name, layer, t0, t1, parent, info, rss_rise]
        self.counts = {name: 0 for _, _, name in COUNT_TARGETS}
        self._stack = []
        self._saved = []

    def __enter__(self):
        try:
            for target in SPAN_TARGETS:
                self._install(target[0], target[1],
                              self._span_wrapper(*target))
            for module, attr, counter in COUNT_TARGETS:
                self._install(module, attr,
                              self._count_wrapper(module, attr, counter))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _install(self, module_name, attr, wrapper):
        module = importlib.import_module(module_name)
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _span_wrapper(self, module_name, attr, name, layer, rss):
        fn = getattr(importlib.import_module(module_name), attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None,
                    0.0]
            stack.append(len(spans))
            spans.append(span)
            rss0 = _peak_rss_mb() if rss else 0.0
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if rss:
                span[6] = _peak_rss_mb() - rss0
            span[5] = _span_info(name, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, module_name, attr, counter):
        fn = getattr(importlib.import_module(module_name), attr)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper


def self_times(spans) -> list:
    """Per-span duration minus the durations of its direct children."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def _tail(values) -> float:
    n = len(values)
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10:
            return float(np.percentile(values, p))
    return max(values)


def _nonzero_rows(support: np.ndarray) -> int:
    """Number of X-masks a with f_a(x) = conj(c_(x^a)) c_x nonzero somewhere."""
    return int(np.unique(support[:, None] ^ support[None, :]).size)


def _ratio(num, den) -> float:
    """num / den, or 0.0 when the layer was never called (den == 0)."""
    return num / den if den else 0.0


def layer_metrics(spans, counts, output_bytes: int):
    """(metrics, traced work seconds, self seconds per layer) of one traced
    process.  ``trace.overhead_s`` needs the untraced calls and is added by
    the caller."""
    own = self_times(spans)
    work = sum(s[3] - s[2] for s in spans if s[4] < 0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    by_name = {}
    for s, t in zip(spans, own):
        layer_self[s[1]] += t
        by_name.setdefault(s[0], []).append((s, t))

    def spans_of(name):
        return by_name.get(name, [])

    def rss_rise(layer):
        # outermost spans of the layer only: a nested span's rise is
        # already inside its parent's
        return sum(s[6] for s in spans
                   if s[1] == layer and (s[4] < 0 or spans[s[4]][1] != layer))

    kernel = spans_of("magic.pauli_spectrum")
    kernel_ms = [(s[3] - s[2]) * 1e3 for s, _ in kernel]
    row_cache = {}
    strings = rows = bytes_moved = 0
    for s, _ in kernel:
        L, support = s[5]
        key = (L, support.tobytes())
        if key not in row_cache:
            row_cache[key] = _nonzero_rows(support)
        rows += row_cache[key]
        strings += 4 ** L
        bytes_moved += 4 ** L * (32 * L + 96)
    magic_busy = sum(t for _, t in kernel)

    builds = spans_of("hamiltonians.build_csyk")
    extracts = spans_of("hamiltonians.extract_sector_block")
    blocks = [s[5] for s, _ in extracts]

    draws = spans_of("sampler.constrained_haar_state")
    enums = spans_of("sectors.enumerate_sector")
    records = sum(s[5] for s, _ in spans_of("harness.write_csv"))
    records += len(spans_of("moments.analytic_moments"))
    records += len(spans_of("moments.mean_sp2_tilted"))
    writes = (spans_of("harness.write_csv")
              + spans_of("harness.write_summary"))
    sectors = {s[5] for s in spans if s[1] == MOMENTS and s[5] is not None}

    return {
        "magic.busy_s": magic_busy,
        "magic.share": _ratio(magic_busy, work),
        "magic.ms_per_state_p50": (statistics.median(kernel_ms)
                                   if kernel_ms else 0.0),
        "magic.ms_per_state_tail": _tail(kernel_ms) if kernel_ms else 0.0,
        "magic.ns_per_pauli_string": _ratio(magic_busy * 1e9, strings),
        "magic.pauli_strings": strings,
        "magic.bytes_moved_computed": bytes_moved,
        "magic.nonzero_row_share": _ratio(
            rows, sum(2 ** s[5][0] for s, _ in kernel)),
        "magic.peak_mb": rss_rise(MAGIC),
        "magic.shannon_s": layer_self[SHANNON],
        "hamiltonians.build_s": (statistics.median(t for _, t in builds)
                                 if builds else 0.0),
        "hamiltonians.build_first_s": (builds[0][0][3] - builds[0][0][2]
                                       if builds else 0.0),
        "hamiltonians.extract_s": _median_duration(extracts),
        "hamiltonians.eigh_s": _median_duration(
            spans_of("hamiltonians.diagonalize")),
        "hamiltonians.share": _ratio(layer_self[HAMILTONIANS], work),
        "hamiltonians.eigenstates": counts["hamiltonians.eigenstates"],
        "hamiltonians.peak_mb": rss_rise(HAMILTONIANS),
        "hamiltonians.block_to_dense_bytes": _ratio(
            sum(d * d for _, d in blocks), sum(4 ** L for L, _ in blocks)),
        "sampler.busy_s": layer_self[SAMPLER],
        "sampler.us_per_state": _ratio(layer_self[SAMPLER] * 1e6,
                                       len(draws)),
        "sampler.amplitudes": sum(math.comb(L, (L - q) // 2)
                                  for L, q in (s[5] for s, _ in draws)),
        "sectors.enumerate_calls": len(enums),
        "sectors.enumerate_reuse": _ratio(len({s[5] for s, _ in enums}),
                                          len(enums)),
        "harness.self_s": layer_self[HARNESS],
        "harness.share": _ratio(layer_self[HARNESS], work),
        "harness.records": records,
        "harness.us_per_record": _ratio(layer_self[HARNESS] * 1e6, records),
        "harness.write_s": sum(s[3] - s[2] for s, _ in writes),
        "harness.bytes_written": output_bytes,
        "moments.busy_s": layer_self[MOMENTS],
        "moments.s_per_sector": _ratio(layer_self[MOMENTS], len(sectors)),
        "moments.share": _ratio(layer_self[MOMENTS], work),
        "kravchuk.calls": counts["kravchuk.calls"],
    }, work, layer_self


def _median_duration(pairs) -> float:
    return statistics.median(s[3] - s[2] for s, _ in pairs) if pairs else 0.0
