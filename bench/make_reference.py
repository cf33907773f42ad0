"""Regenerate ``bench/reference.json`` from the source tree.

    python3 bench/make_reference.py

Records what the benchmark's checks compare against: the exact sector means
of the sample_sector workload, a digest of the printed rational strings of
every `analytic variance` call exact_moments can make, and the tilted-axis
values for each angle it can pick.  Run it only on a commit whose numbers
are trusted (the tests pass); the file it writes is committed.  It takes a
few minutes, mostly the L=96 second moments.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from sectormagic.harness import cli  # noqa: E402
from sectormagic.moments import mean_sp2  # noqa: E402

import workloads as wl  # noqa: E402


def _analytic(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if cli.main(argv) != 0:
            raise SystemExit(f"{argv} failed")
    return json.loads(buf.getvalue())


def main() -> None:
    ref = {"mean_sp2": {f"{wl.SAMPLE_L}:{q}": str(mean_sp2(wl.SAMPLE_L, q))
                        for q in wl.SAMPLE_QS},
           "variance_digest": {}, "tilted": {}}
    for L in wl.EXACT_LS:
        for q in wl.EXACT_QS:
            payload = _analytic(["analytic", "variance", "--L", str(L),
                                 "--q", str(q)])
            ref["variance_digest"][f"{L}:{q}"] = wl.variance_digest(payload)
            print(f"variance L={L} q={q}", file=sys.stderr)
    for theta in wl.TILTED_THETAS:
        payload = _analytic(["analytic", "tilted", "--L", str(wl.TILTED_L),
                             "--q", str(wl.TILTED_Q), "--theta", theta])
        ref["tilted"][theta] = {k: payload[k]
                                for k in ("mean_xi2", "m2_mean_bound")}
    with open(wl.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
