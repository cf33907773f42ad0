"""Golden output bytes of every CLI experiment.

Each case runs the command line at a small size (L <= 6, and two sampling
cases at L = 10) with one worker and compares
the SHA-256 of the record file (CSV, or JSONL where the case asks for it)
and the summary file with digests recorded once and never re-recorded: a
refactor of the drivers must reproduce the records and summaries byte for
byte.  The printed summary must equal the summary file.

Every case also runs with experiments.CHUNK at 1 and 7, and must give the
same digests: no output byte depends on the chunk boundaries (the rule is
stated in the harness.experiments docstring).  At 7 the 9- to 80-sample
cases split into several worker calls, at 1 the 3-realization cases too.

The digests hold only inside that docstring's envelope.  They were recorded
with numpy 2.4 and scipy 1.17 on an x86-64 CPU with AVX-512, at OpenBLAS's
default thread count.  numpy's np.log and np.exp round differently at its
X86_V3 tier (AVX2, no AVX-512), where sample_z_hist and self_averaging have
digests of their own, kept beside the others in TIER_GOLDEN; the tier is
the highest x86 level numpy reports as found.  On an AVX-512 CPU one more
test reruns every case in a subprocess with numpy's AVX-512 loops switched
off, so one machine checks both tiers.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sectormagic.harness import experiments
from sectormagic.harness.cli import main

#: case name -> CLI arguments (seed, threads and output prefix are added)
CASES = {
    "sample_z_hist": ["sample", "--L", "4", "--q", "0", "--q", "2",
                      "--samples", "70", "--frame", "z",
                      "--histogram-bins", "16"],
    "sample_l10": ["sample", "--L", "10", "--q", "0", "--samples", "32",
                   "--frame", "z", "--histogram-bins", "16"],
    "sample_x_hist": ["sample", "--L", "4", "--q", "0", "--samples", "9",
                      "--frame", "x", "--histogram-bins", "8"],
    "variance_convergence": ["variance-convergence", "--L", "4", "--q", "0",
                             "--q", "2", "--samples", "80",
                             "--checkpoints", "5,64"],
    "mixed": ["mixed", "--L", "4", "--q", "0", "--theta", "0.3",
              "--theta", "1.1", "--phi", "0.2", "--samples", "7"],
    "pe_check": ["pe-check", "--L", "6", "--q", "2", "--samples", "70"],
    "pe_check_jsonl": ["pe-check", "--L", "6", "--q", "2", "--samples", "70",
                       "--format", "jsonl"],
    "pe_check_l10": ["pe-check", "--L", "10", "--q", "0", "--samples", "64"],
    "csyk": ["csyk", "--L", "6", "--q", "0", "--q", "2",
             "--realizations", "3", "--fraction", "0.3"],
    "xxz": ["xxz", "--L", "6", "--q", "0", "--window", "0.6",
            "--J2", "0.4", "--h-b", "0.1"],
    "mfim": ["mfim", "--L", "4"],
    "self_averaging": ["self-averaging", "--L", "4", "--L", "6",
                       "--realizations", "3", "--fraction", "0.3"],
    "collapse": ["collapse", "--L", "16", "--L", "24", "--s", "0.0",
                 "--s", "0.25"],
}

#: case name -> (record file digest, summary digest)
GOLDEN = {
    "collapse": (
        "f230ef8432c9334f8fa45819194ea49f49be07e6116fa9db840e938eb504d114",
        "ea8418527d5248094133a7298bb9f568dc1a90500e085ce96c80edae1fd33c4a"),
    "csyk": (
        "6a9f89defc9b04b1406ff28ac68554659228b83e017911a80f78a4002db43403",
        "f1f2d392153b8f313db1e3efcfc4007bd93435296d14e50dc1025e77fa68d34c"),
    "mfim": (
        "3c151fa84878dce6142f08d45d1857d1b54b46c668d5cd62fc67f8d6958acc58",
        "a91808ebeb465e7001427e4bd39eaf2438c0163d9627c437c1a64165e374f298"),
    "mixed": (
        "308d9909a1dc4541d3f6b30ec6fa432d0da638b4ff1cf5ba36f56499916e6ee0",
        "ae45c2c040ecb647e16598d2f71be3867d9ad92023a462085370a7db2f238bf2"),
    "pe_check": (
        "515d39df96beb7fde488f2831bef479abab30fde1487337180ce7ad587c79feb",
        "d9025f2c42fe4d16c4113014a61fcbbaa4053641cff67b922d1476764b82fbe0"),
    "pe_check_jsonl": (
        "cc86eb4318c0d759252fe202eb0543c4d815339d04772ca86ab9115041182ad6",
        "d9025f2c42fe4d16c4113014a61fcbbaa4053641cff67b922d1476764b82fbe0"),
    "pe_check_l10": (
        "005871e507afe292281b5e4d4babd06b9fdedd31a0de1043457a49fb4ee73c79",
        "6543d3e9bec3746900eca34cce6fead783b26f94dccb8c572e07c3043ce20a66"),
    "sample_l10": (
        "82a6a070a2358e12a2cf0febfa0702357e228b7fddebb693ff094c1bb0734db6",
        "5e599fbd5e2944ba6e9ccccadd8294a1049c1e22c01eff734eafbfa7637427e5"),
    "sample_x_hist": (
        "c481834cb7cef9d7b84486083fe25e5f7fe99cc76abe39e6d1c417e96c0aa40b",
        "d1607e492a1a40d3af73d3683263a26d082f82de0a89dacdc3fda1778ede743e"),
    "sample_z_hist": (
        "a4c8df72e4ab9b8aed507a56758082a83607b523ac6d8c92ba1e3e50324da2d7",
        "6eb44e2a579b48a4dbff29161e158d25cd38c4e7e40b705f45f29917a5b3678f"),
    "self_averaging": (
        "d7374ed5627ebc39644ddfe5b0903bd7221ce42a075d065189c460fbf99d3d08",
        "53ff1b2731c8dcbc8f34d79ad2c2899907003a9a24b63f3a8c12a7282957b6c6"),
    "variance_convergence": (
        "16c50ce311410541be7a0a8e198f077a8352502dd997e6fb9b033cf6ee978522",
        "db08327c65dfcff084484cc108c5cdd32db5bf3935fdb7fa92d5632bc06b638f"),
    "xxz": (
        "da35e6c4c5fc549434502e0efb957aa11b8ff02e641cd85d272fa9116d295306",
        "bb26f572407a6e696e38f91060e4e970e6b692ed4e6536f413ddd92c2857d711"),
}


#: tier -> the cases whose digests differ there, (record, summary); the
#: X86_V3 ones were recorded with NPY_DISABLE_CPU_FEATURES set to
#: V3_ONLY on an AVX-512 CPU
TIER_GOLDEN = {
    "X86_V3": {
        "sample_z_hist": (
            "e2933d43d24548384665d018016daeb538bb1d678ac91e7fb6ae0f9722646671",
            "360632ddf81b17f25ebbee427da7092426cc93c37bc6c057ac62be49cb3f2ba4"),
        "self_averaging": (
            "d8822304439ce3a0beb58c866332a33e1deefa14469a70112892b69ec9a02ad7",
            "6afe30e3564f3b3946876ec91d0b74b2d3de9238cba2d85f5bd1d93f63dfab96"),
    },
}

#: numpy's SIMD features switched off to run at the X86_V3 tier
V3_ONLY = "X86_V4 AVX512_ICL AVX512_SPR"

_FOUND = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
#: the highest x86 level numpy found on this CPU (None on other CPUs)
TIER = max((f for f in _FOUND if f.startswith("X86_V")), default=None)


def _golden(name):
    return TIER_GOLDEN.get(TIER, {}).get(name, GOLDEN[name])


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


#: worker-call sizes every case runs at; the default keeps the bare case id
CHUNKS = (experiments.CHUNK, 1, 7)


@pytest.mark.parametrize("name, chunk", [
    pytest.param(name, chunk, id=(name if chunk == experiments.CHUNK
                                  else f"{name}-chunk{chunk}"))
    for name in sorted(CASES) for chunk in CHUNKS])
def test_golden_output_bytes(name, chunk, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "CHUNK", chunk)
    argv = list(CASES[name])
    if name != "collapse":
        argv += ["--seed", "5", "--threads", "1"]
    prefix = tmp_path / name
    assert main(argv + ["--out", str(prefix)]) == 0
    summary = tmp_path / f"{name}.summary.json"
    assert capsys.readouterr().out == summary.read_text()
    ext = "jsonl" if "jsonl" in argv else "csv"
    got = (_sha(tmp_path / f"{name}.{ext}"), _sha(summary))
    assert got == _golden(name)


@pytest.mark.skipif(TIER != "X86_V4", reason="numpy runs no AVX-512 loops "
                    "here, so it cannot switch them off")
def test_golden_output_bytes_at_the_x86_v3_tier():
    """Every golden case, rerun in one subprocess whose numpy finds X86_V3
    at most, gives the X86_V3 digests where it has them and GOLDEN's
    elsewhere."""
    tests = Path(__file__).resolve().parent
    code = ("import sys, pytest, test_golden\n"
            "print('tier', test_golden.TIER, flush=True)\n"
            "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', '-k',"
            " 'test_golden_output_bytes', test_golden.__file__]))\n")
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=tests.parent, capture_output=True,
        text=True, timeout=600,
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": V3_ONLY,
             "PYTHONPATH": path})
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.startswith("tier X86_V3\n"), run.stdout
    assert f"{len(CASES) * len(CHUNKS)} passed" in run.stdout, run.stdout
