"""sectormagic benchmark: the README command line, end to end and per layer.

    python3 bench/run.py --workload sample_sector --seed 1 --seconds 28 --trace 0

Run from the repository root.  Every CLI call runs in a fresh interpreter
(``child.py``) with ``src/`` on its path, because the package caches exact
moments and csyk index maps per process and a user pays for them on every
call.  Calls repeat, with the same generated inputs, until the next one
would end after ``--seconds``; each is checked (exact-moment agreement,
row counts, recorded digests, and byte-identical CSV, summary and stdout
across the repeats).

--trace 0 reports the end-to-end metrics (medians over the calls):
    throughput    work items per second of the cli.main phase
    setup_s       interpreter start until `import sectormagic.harness.cli`
                  returns (import-only children add samples)
    peak_rss_mb   max(RUSAGE_SELF, RUSAGE_CHILDREN) peak RSS of a child
    success_rate  1 - error_rate, error_rate = failed / attempted calls
--trace 1 alternates untraced and traced calls at --threads 1 and reports
the per-layer metrics of ``tracer.LAYER_METRICS``.  The last line of
stdout is the JSON result; the lines before it print every metric with
its unit and the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

END_TO_END = {
    "throughput": "items/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "share",
}
#: a run, its set-up children included, must end well within 180 s
RUN_LIMIT_S = 170.0
#: set-up samples per run: at least MIN, import-only children up to MAX
SETUP_MIN, SETUP_MAX = 3, 5


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Spawns child interpreters for one workload and checks their output."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.params = wl.inputs(name, seed)
        self.reference = wl.load_reference()
        self.workdir = workdir
        self.started = _now()
        nproc = len(os.sched_getaffinity(0))
        self.workers = min(wl.WORKERS[name], nproc)
        # worker processes x BLAS threads <= nproc
        self.blas_threads = max(1, nproc // self.workers)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else []))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = str(self.blas_threads)
        self.nproc = nproc
        self.first_bytes = {}  # call index -> output bytes of its first run
        self.attempted = self.failed = 0
        self.setup = []
        self.provenance = {}
        self._count = 0

    def spawn(self, threads: int | None, trace: bool = False) -> dict:
        """One child; threads=None runs no calls (import only).  Returns
        {"ok", "wall_s", "work_s", "items", "rss_mb", "trace"}."""
        self._count += 1
        outdir = self.workdir / f"c{self._count}"
        outdir.mkdir()
        calls = ([] if threads is None
                 else wl.calls(self.name, self.params, threads, outdir))
        spec = {"src": str(SRC), "bench": str(BENCH), "calls": calls,
                "trace": trace, "result": str(outdir / "result.json")}
        spec_path = outdir / "spec.json"
        spec_path.write_text(json.dumps(spec))

        t0 = _now()
        timeout = max(1.0, RUN_LIMIT_S - (t0 - self.started))
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            env=self.env, cwd=str(ROOT), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, err = proc.communicate()
            err += f"\nchild killed after {timeout:.0f} s"
        wall = _now() - t0

        if proc.returncode != 0:
            # an import-only child that fails counts as one failed call
            sys.stderr.write(f"child exited {proc.returncode}:\n{err}\n")
            self.attempted += max(1, len(calls))
            self.failed += max(1, len(calls))
            return {"ok": False, "wall_s": wall}
        self.attempted += len(calls)
        result = json.loads(Path(spec["result"]).read_text())
        self.setup.append(result["imported"] - t0)
        self.provenance = result["provenance"]
        ok = True
        for i, (call, res) in enumerate(zip(calls, result["calls"])):
            problems = self._check(i, call, res["rc"])
            if problems:
                ok = False
                self.failed += 1
                sys.stderr.write(f"call {call['argv']} failed: "
                                 f"{'; '.join(problems)}\n{err}\n")
        shutil.rmtree(outdir)
        return {"ok": ok, "wall_s": wall,
                "work_s": sum(c["work_s"] for c in result["calls"]),
                "items": sum(c["items"] for c in calls),
                "rss_mb": result["peak_rss_mb"], "trace": result.get("trace")}

    def _check(self, index: int, call: dict, rc: int) -> list:
        if rc != 0:
            return [f"exit code {rc}"]
        paths = [call["stdout"], *call["files"]]
        try:
            blobs = [Path(p).read_bytes() for p in paths]
        except OSError as exc:
            return [f"missing output: {exc}"]
        texts = {p: b.decode() for p, b in zip(paths, blobs)}
        problems = wl.check(self.name, call, texts, self.reference)
        first = self.first_bytes.setdefault(index, blobs)
        if blobs != first:
            problems.append("outputs differ from the first call at the same "
                            "seed")
        return problems


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(runner: Runner, seconds: float, trace: bool):
    """Run children until the next would end after `seconds`.  Returns the
    run's metrics and, when tracing, the first traced child's trace."""
    # warm-up: byte-compiles src/ and fills the page cache
    probe_s = runner.spawn(None)["wall_s"]
    runner.setup.clear()
    deadline = _now() + seconds
    if trace:
        pairs = []
        while True:
            untraced = runner.spawn(1)
            traced = runner.spawn(1, trace=True)
            pairs.append((untraced, traced))
            longest = max(u["wall_s"] + t["wall_s"] for u, t in pairs)
            if deadline - _now() < longest:
                break
        good = [(u, t) for u, t in pairs if u["ok"] and t["ok"]]
        if not good:
            return {}, None
        per_call = [t["trace"]["metrics"] for _, t in good]
        metrics = {k: _median([m[k] for m in per_call]) for k in per_call[0]}
        metrics["trace.overhead_s"] = (
            _median([t["work_s"] for _, t in good])
            - _median([u["work_s"] for u, _ in good]))
        return metrics, good[0][1]["trace"]

    children = []
    while True:
        children.append(runner.spawn(runner.workers))
        longest = max(c["wall_s"] for c in children[-3:])
        if deadline - _now() < longest:
            break
    for _ in range(SETUP_MAX):
        if len(runner.setup) >= SETUP_MAX or (
                len(runner.setup) >= SETUP_MIN
                and deadline - _now() < probe_s):
            break
        probe_s = max(probe_s, runner.spawn(None)["wall_s"])
    good = [c for c in children if c["ok"]]
    return {
        "throughput": _median([c["items"] / c["work_s"] for c in good]),
        "setup_s": _median(runner.setup),
        "peak_rss_mb": _median([c["rss_mb"] for c in good]),
        "success_rate": 1.0 - runner.failed / runner.attempted,
    }, None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _report(runner: Runner, args, metrics: dict, trace) -> None:
    units = ({k: (v, "") for k, v in END_TO_END.items()} if not args.trace
             else LAYER_METRICS)
    provenance = dict(runner.provenance, nproc=runner.nproc,
                      git_sha=_git_sha(), seed=args.seed,
                      cli_seed=runner.params["cli_seed"],
                      workers=1 if args.trace else runner.workers,
                      blas_threads=runner.blas_threads,
                      blas_env={k: runner.env[k] for k in (
                          "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")})
    print(f"# workload {args.workload}, inputs "
          f"{json.dumps(runner.params, sort_keys=True)}")
    print(f"# provenance {json.dumps(provenance, sort_keys=True)}")
    for name, (unit, note) in units.items():
        value = metrics.get(name, float("nan"))
        print(f"{name:36s} {value:>16.6g} {unit:8s} {note}")
    print(f"{'error_rate':36s} {runner.failed / runner.attempted:>16.6g} "
          f"{'share':8s} {runner.failed} failed / {runner.attempted} "
          f"attempted calls")
    if trace:
        layer_self = trace["layer_self_s"]
        parts = ", ".join(f"{k} {v:.4g}" for k, v in layer_self.items())
        print(f"# layer self seconds ({parts}) sum to "
              f"{sum(layer_self.values()):.4g} s of {trace['work_s']:.4g} s "
              f"traced work in the first traced child")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "sectormagic" / "harness" / "cli.py").is_file():
        print(f"error: no sectormagic sources under {SRC}", file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as work:
        runner = Runner(args.workload, args.seed, Path(work))
        metrics, trace = measure(runner, args.seconds, bool(args.trace))
    _report(runner, args, metrics, trace)
    names = LAYER_METRICS if args.trace else END_TO_END
    print(json.dumps({
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics.get(k, 0.0),
                        "unit": LAYER_METRICS[k][0] if args.trace
                        else END_TO_END[k]} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
