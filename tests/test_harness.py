import hashlib
import inspect
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles

from sectormagic import (Direction, mean_sp2, mean_sp2_tilted, moments,
                         second_moment_sp2)
from sectormagic.harness import (
    CSV_HEADER,
    ConfigError,
    RunRecord,
    SummaryStats,
    format_value,
    load_config,
    parse_config_text,
    render_csv,
    resolve_threads,
    run_asymptotic_collapse,
    run_ensemble_experiment,
    run_mixed_charge,
    run_pe_check,
    run_variance_convergence,
    write_csv,
    write_jsonl,
    write_summary,
)
from sectormagic.harness import cli, experiments, stats
from sectormagic.sampler import SeedPolicy
from sectormagic.harness.cli import TABLE, build_parser, main, resolve


# ---------------------------------------------------------------------------
# streaming statistics


def test_summary_stats_against_numpy():
    rng = np.random.default_rng(1)
    xs = rng.normal(size=500)
    st_ = SummaryStats()
    for x in xs:
        st_.update(x)
    assert st_.count == 500
    assert st_.mean == pytest.approx(xs.mean(), abs=1e-12)
    assert st_.variance == pytest.approx(xs.var(ddof=1), rel=1e-12)
    assert st_.std == pytest.approx(xs.std(ddof=1), rel=1e-12)
    assert st_.sem == pytest.approx(xs.std(ddof=1) / math.sqrt(500), rel=1e-12)
    assert st_.min == xs.min() and st_.max == xs.max()


def test_summary_stats_degenerate_counts():
    s = SummaryStats()
    assert s.count == 0 and math.isnan(s.variance)
    d = s.to_dict()
    assert d["mean"] is None and d["variance"] is None and d["min"] is None
    s.update(2.5)
    assert s.mean == 2.5 and math.isnan(s.variance)
    assert s.to_dict()["mean"] == 2.5 and s.to_dict()["variance"] is None


# (n, D, branch of the survival function D reaches): a sample of n uniform
# points shifted so that its two-sided statistic is D
_KS_CASES = [
    (140, 0.8 / 140, "ends"),      # n D <= 1
    (140, 139.5 / 140, "ends"),    # n D >= n - 1
    (140, 0.6, "smirnov"),         # D >= 0.5
    (140, 0.07, "dmtw"),           # n D^2 <= 0.754693
    (140, 0.1, "pomeranz"),        # n D^2 <= 4
    (140, 0.2, "smirnov"),         # n D^2 > 4
    (1000, 0.0008, "ends"),        # n D <= 1, by Stirling
    (1000, 0.01, "dmtw"),          # n D^1.5 <= 1.4
    (1000, 0.03, "pelz_good"),     # n D^1.5 > 1.4
    (1000, 0.06, "smirnov"),       # n D^2 >= 2.2
    (2000, 0.45, "ends"),          # n D^2 >= 370: 0
    (120000, 0.0005, "pelz_good"),  # n > 100 000, n D^1.5 <= 1.4
]
_KS_BRANCHES = {"dmtw": "_kolmogn_dmtw", "pomeranz": "_kolmogn_pomeranz",
                "pelz_good": "_kolmogn_pelz_good", "smirnov": "_smirnov_sf"}


@pytest.mark.parametrize("n, D, branch", _KS_CASES,
                         ids=[f"{b}-n{n}-D{D:.4g}" for n, D, b in _KS_CASES])
def test_ks_two_sided_is_scipy_kstest_bit_for_bit(monkeypatch, n, D, branch):
    """The port gives kstest's statistic and p-value bits on each branch of
    kstwo.sf; the case names the branch it reaches."""
    reached = []
    for name, attr in _KS_BRANCHES.items():
        def recording(*args, _fn=getattr(stats, attr), _name=name):
            reached.append(_name)
            return _fn(*args)
        monkeypatch.setattr(stats, attr, recording)
    x = (np.arange(n) + 0.5) / n + (D - 0.5 / n)

    def cdf(w):
        return np.clip(w, 0.0, 1.0)

    got = stats.ks_two_sided(x, cdf)
    assert got[0] == pytest.approx(D, rel=1e-9)
    assert reached == ([] if branch == "ends" else [branch])
    assert got == oracles.kstest(x, cdf)


@pytest.mark.parametrize("seed", range(4))
def test_ks_two_sided_on_porter_thomas_samples(seed):
    """At the benchmark's 16 000 samples of an L = 12, q = 0 sector weight,
    the port and kstest agree bit for bit."""
    d = 924
    w = np.random.default_rng(seed).beta(1.0, d - 1.0, size=16000)

    def cdf(x):
        return moments.porter_thomas_cdf(x, d)

    assert stats.ks_two_sided(w, cdf) == oracles.kstest(w, cdf)


# ---------------------------------------------------------------------------
# records and serialization


def test_format_value_cells():
    assert format_value(None) == ""
    assert format_value(7) == "7"
    assert format_value(0.5) == "0.5"
    txt = format_value(0.1)
    assert float(txt) == 0.1  # %.17g round-trips exactly


def test_run_record_csv_line():
    rec = RunRecord("sample", 1, 2, 3, 0, "xi2", 0.5, aux1=None, aux2=1.25)
    assert rec.to_csv_line() == "sample,1,2,3,0,xi2,0.5,,1.25"
    rec2 = RunRecord("mfim", 0, 9, 8, None, "m2", 0.1)
    assert rec2.to_csv_line() == "mfim,0,9,8,,m2,0.10000000000000001,,"


def test_csv_and_jsonl_files(tmp_path):
    recs = [
        RunRecord("sample", 5, 0, 2, 0, "xi2", 0.75),
        RunRecord("sample", 5, 1, 2, 0, "m2", 0.415, aux1=3.0),
    ]
    csv_path = tmp_path / "r.csv"
    write_csv(recs, csv_path)
    text = csv_path.read_text()
    assert text == render_csv(recs)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("sample,5,0,2,0,xi2,0.75")
    jl_path = tmp_path / "r.jsonl"
    write_jsonl(recs, jl_path)
    rows = [json.loads(line) for line in jl_path.read_text().splitlines()]
    assert rows[0]["observable"] == "xi2" and rows[0]["value"] == 0.75
    assert rows[1]["aux1"] == 3.0 and rows[1]["aux2"] is None


def test_write_summary_handles_numpy(tmp_path):
    path = tmp_path / "s.json"
    stats = SummaryStats().update(1.0).update(2.0)
    write_summary({"a": np.float64(1.5), "b": np.arange(3), "stats": stats},
                  path)
    data = json.loads(path.read_text())
    assert data["a"] == 1.5 and data["b"] == [0, 1, 2]
    assert data["stats"]["count"] == 2 and data["stats"]["mean"] == 1.5


# ---------------------------------------------------------------------------
# configuration


def test_parse_config_text():
    raw = parse_config_text(
        "# comment\n"
        "L = 4\n"
        "q = 0,2  # trailing comment\n"
        "\n"
        "samples = 100\n"
    )
    assert raw == {"L": "4", "q": "0,2", "samples": "100"}
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_text("= 3\n")
    with pytest.raises(ConfigError):
        parse_config_text("L = 4\nL = 5\n")


def test_config_mapping_and_roundtrip(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("L = 6\nq = 0,2\nsamples = 50\n")
    values = resolve("sample", load_config(path))
    assert values["L"] == 6 and values["q"] == [0, 2]
    assert values["samples"] == 50
    for raw in ("true", "off"):
        with pytest.raises(ConfigError,
                           match="sample does not read allow_large"):
            resolve("sample", {"allow_large": raw})
    assert resolve("csyk", {"window": "0.25"})["window"] == 0.25
    for raw in ({"nonsense": "1"}, {"L": "abc"}, {"format": "xml"}):
        with pytest.raises(ConfigError):
            resolve("sample", raw)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def test_config_override():
    file = {"L": "4", "samples": "30"}
    values = resolve("sample", file, {"L": ["9"], "seed": ["3"]})
    assert values["L"] == 9 and values["seed"] == 3
    assert values["samples"] == 30  # an unset flag leaves the file value
    with pytest.raises(ConfigError):
        resolve("sample", file, {"bogus": ["1"]})


#: effective values with only the required flags, as the drivers received
#: them before the experiment table existed
DEFAULTS = {
    "analytic mean": {"L": 4, "q": 0},
    "analytic variance": {"L": 4, "q": 0},
    "analytic asymptotic": {"s": 0.5},
    "analytic tilted": {"L": 4, "q": 0, "theta": 0.3, "phi": 0.0},
    "sample": {"L": 8, "q": [0], "samples": 1000, "frame": "z",
               "histogram_bins": 200},
    "variance-convergence": {"L": 8, "q": [0], "samples": 1000,
                             "checkpoints": []},
    "csyk": {"L": 8, "q": [0], "realizations": 100, "window": None,
             "fraction": 0.1},
    "xxz": {"L": 8, "q": [0], "window": 0.25, "fraction": None, "J1": 1.0,
            "delta": 0.5, "J2": 0.0, "h_b": 0.0, "h_x": 0.0},
    "mfim": {"L": 8, "window": None, "fraction": 0.1,
             "g": 1.1, "h": 0.35, "h1": 0.25, "hL": -0.25},
    "mixed": {"L": 8, "q": 0, "theta": [0.3], "phi": 0.0, "samples": 1000},
    "collapse": {"L_values": [6, 8, 10], "s_values": [0.0, 0.25, 0.5],
                 "seed": 0, "out": None, "format": "csv"},
    "self-averaging": {"L_values": [6, 8, 10], "realizations": 50,
                       "fraction": 0.1},
    "pe-check": {"L": 8, "q": 0, "samples": 1000},
}
REQUIRED_FLAGS = {
    "analytic mean": {"L": ["4"], "q": ["0"]},
    "analytic variance": {"L": ["4"], "q": ["0"]},
    "analytic asymptotic": {"s": ["0.5"]},
    "analytic tilted": {"L": ["4"], "q": ["0"], "theta": ["0.3"]},
    "mixed": {"theta": ["0.3"]},
}


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_effective_defaults_pinned(command):
    expected = dict(DEFAULTS[command])
    if not command.startswith("analytic") and command != "collapse":
        expected.update(seed=0, threads=None, out=None, format="csv")
    values = resolve(command, flags=REQUIRED_FLAGS.get(command))
    assert values == expected


def test_resolve_threads(monkeypatch):
    assert resolve_threads(5) == 5
    with pytest.raises(ConfigError):
        resolve_threads(0)
    assert resolve_threads() >= 1
    # the default counts the CPUs this process may run on, not the machine's
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert resolve_threads() == 1
    monkeypatch.delattr(experiments.os, "sched_getaffinity")
    assert resolve_threads() == 2
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    assert resolve_threads() == 1


# ---------------------------------------------------------------------------
# experiment drivers (small smoke runs; statistics live in the acceptance suite)


def test_sampling_budget_guard():
    with pytest.raises(ConfigError):
        run_ensemble_experiment(15, [1], 4, threads=1)
    with pytest.raises(ConfigError):
        run_ensemble_experiment(4, [1], 4, threads=1)  # empty sector


@pytest.mark.parametrize("run", [
    lambda L: run_ensemble_experiment(L, [1], 2, threads=1),
    lambda L: run_variance_convergence(L, [1], 2, threads=1),
    lambda L: run_mixed_charge(L, 1, [0.3], 2, threads=1),
    lambda L: run_pe_check(L, 1, 2, threads=1),
], ids=["sample", "variance-convergence", "mixed", "pe-check"])
def test_sampling_drivers_share_the_model_L_range(monkeypatch, run):
    """Every sampling driver takes L up to the models' largest L and
    refuses L = 15, before any draw."""
    monkeypatch.setattr(experiments, "_dispatch", None)
    for L in (0, 15):
        with pytest.raises(ConfigError, match=f"sampling supports "
                                              f"1 <= L <= 14, got L={L}"):
            run(L)


def test_ensemble_experiment_structure():
    records, summary = run_ensemble_experiment(2, [0], 10, seed=4, threads=1,
                                               histogram_bins=20)
    assert len(records) == 40  # four observables per sample
    sector = summary["sectors"]["0"]
    assert sector["dimension"] == 2
    assert sector["observed"]["xi2"]["count"] == 10
    assert sector["analytic"]["mean_xi2"] == pytest.approx(0.8)
    assert sum(sector["histogram"]["counts"]) == 10 * 4 ** 2
    xi_values = [r.value for r in records if r.observable == "xi2"]
    m2_values = [r.value for r in records if r.observable == "m2"]
    for xi, m2 in zip(xi_values, m2_values):
        assert m2 == pytest.approx(-math.log2(xi), abs=1e-12)


@pytest.fixture
def three_cpus(monkeypatch):
    """An affinity mask of three CPUs: threads=3 (or 2) is not capped to
    fewer workers on a smaller machine."""
    monkeypatch.setattr(experiments.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2}, raising=False)


def test_ensemble_worker_count_invariance(three_cpus):
    """Records and summary are byte-identical for any worker split."""
    out = []
    for threads in (1, 3):
        records, summary = run_ensemble_experiment(2, [0, 2], 130, seed=11,
                                                   threads=threads)
        out.append((render_csv(records),
                    json.dumps(summary, sort_keys=True)))
    assert out[0] == out[1]


def test_pe_check_worker_count_invariance(three_cpus):
    """pe-check records and summary are byte-identical for any worker
    split; 130 samples leave a short third chunk."""
    out = []
    for threads in (1, 3):
        records, summary = run_pe_check(10, 0, 130, seed=13, threads=threads)
        out.append((render_csv(records),
                    json.dumps(summary, sort_keys=True)))
    assert out[0] == out[1]


def _csv_and_summary(out):
    records, summary = out
    return render_csv(records), json.dumps(summary, sort_keys=True)


@pytest.mark.parametrize("run", [
    # 70 samples: a full and a short chunk per angle
    lambda t: run_mixed_charge(4, 0, [0.3, 0.7, 1.1], 70, seed=3, threads=t),
    lambda t: run_variance_convergence(4, [0, 2], 130, seed=5, threads=t),
    lambda t: experiments.run_self_averaging([4, 6, 8], 5, seed=2,
                                             threads=t),
    lambda t: experiments.run_disorder_sweep("csyk", 4, q=[0],
                                             realizations=65, seed=4,
                                             threads=t, fraction=0.5),
], ids=["mixed", "variance-convergence", "self-averaging", "csyk"])
def test_multi_job_worker_count_invariance(run, three_cpus):
    """Every multi-job driver gives byte-identical records and summary at
    one and three workers."""
    assert _csv_and_summary(run(1)) == _csv_and_summary(run(3))


def test_one_pool_per_run(monkeypatch, three_cpus):
    """All jobs of a run share one process pool; a one-chunk run forks
    none, and a run with no tasks is refused before any pool exists."""
    made = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    runs = [
        lambda: run_ensemble_experiment(4, [0, 2, 4], 10, seed=1, threads=2,
                                        histogram_bins=0),
        lambda: run_mixed_charge(4, 0, [0.3, 0.7, 1.1], 10, seed=1,
                                 threads=2),
        lambda: experiments.run_self_averaging([4, 6, 8], 2, seed=1,
                                               threads=2),
    ]
    for run in runs:
        made.clear()
        run()
        assert len(made) == 1
    made.clear()
    run_pe_check(4, 0, 10, seed=1, threads=2)
    assert made == []
    with pytest.raises(ConfigError):
        run_ensemble_experiment(4, [0, 2], 0, threads=2)
    assert made == []


@pytest.mark.parametrize("argv, keys", [
    # 130 samples: three chunks, two of them forked out
    (["pe-check", "--L", "4", "--q", "0", "--samples", "130"], 130),
    # 65 realizations: a full and a short chunk, one csyk stream each
    (["csyk", "--L", "4", "--q", "0", "--realizations", "65",
      "--fraction", "0.5"], 65),
], ids=["pe-check", "csyk"])
def test_stream_keys_are_made_only_in_the_workers(capsys, monkeypatch,
                                                  tmp_path, three_cpus, argv,
                                                  keys):
    """A forked run keys each task's stream in the worker that runs the
    task: the parent derives no key, and every key is derived once."""
    log = tmp_path / "pids"
    child_key = SeedPolicy.child_key

    def logged(self, experiment_id, task_index):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return child_key(self, experiment_id, task_index)

    monkeypatch.setattr(SeedPolicy, "child_key", logged)
    code, _, _ = run_cli(capsys, argv + ["--seed", "3", "--threads", "2"])
    assert code == 0
    pids = log.read_text().split()
    assert len(pids) == keys
    assert str(os.getpid()) not in pids


def test_variance_convergence_checkpoints():
    records, summary = run_variance_convergence(2, [0], 300, seed=2,
                                               threads=1,
                                               checkpoints=[100, 200])
    rows = summary["sectors"]["0"]["checkpoints"]
    assert [r["count"] for r in rows] == [100, 200, 300]
    final = rows[-1]
    assert abs(final["mean_z"]) < 4.5
    assert 0.5 < final["variance_ratio"] < 1.7
    assert len(records) == 3
    with pytest.raises(ConfigError):
        run_variance_convergence(2, [0], 50, checkpoints=[1], threads=1)


def test_mixed_charge_sweep_structure():
    records, summary = run_mixed_charge(2, 0, [0.0, 0.8], 40, seed=6,
                                        threads=1)
    sweep = summary["sweep"]
    assert sweep[0]["analytic_mean_xi2"] == pytest.approx(float(mean_sp2(2, 0)))
    for entry in sweep:
        assert abs(entry["mean_z"]) < 4.5
    thetas = {r.aux1 for r in records}
    assert thetas == {0.0, 0.8}


def test_collapse_records_carry_scaled_residual():
    records, summary = run_asymptotic_collapse([32, 64], [0.0, 0.5], seed=0)
    for rec in records:
        assert rec.aux2 == pytest.approx(rec.L * (rec.value - rec.aux1), rel=1e-12)
    s0 = summary["per_s"][0]
    assert s0["s"] == 0.0
    g_est = s0["rows"][-1]["g_estimate"]
    assert g_est == pytest.approx(-3.0, abs=0.01)


def test_pe_check_structure():
    records, summary = run_pe_check(3, 1, 200, seed=8, threads=1)
    assert summary["dimension"] == 3
    assert abs(summary["ipr2"]["mean_z"]) < 4.5
    assert abs(summary["shannon_pe"]["mean_z"]) < 4.5
    assert 0.0 <= summary["porter_thomas"]["ks_pvalue"] <= 1.0
    assert sum(1 for r in records if r.observable == "s2") == 200


@pytest.mark.parametrize("seeds", [(0, 2 ** 64), (-1, 2 ** 64 - 1)])
def test_seeds_equal_modulo_2_64_draw_different_states(seeds):
    values = [[r.value for r in run_pe_check(4, 0, 3, seed=s, threads=1)[0]]
              for s in seeds]
    assert values[0] != values[1]


def test_frame_choice_statistically_irrelevant():
    """x- and z-frame sampling of the same sector agree on the mean."""
    _, sz = run_ensemble_experiment(4, [0], 400, frame="z", seed=3, threads=1)
    _, sx = run_ensemble_experiment(4, [0], 400, frame="x", seed=4, threads=1)
    oz = sz["sectors"]["0"]["observed"]["xi2"]
    ox = sx["sectors"]["0"]["observed"]["xi2"]
    combined_se = math.hypot(oz["sem"], ox["sem"])
    assert abs(oz["mean"] - ox["mean"]) < 3 * combined_se


@pytest.mark.parametrize("L,q,n", [(8, 2, 16), (10, 0, 4)])
def test_frames_are_clifford_rotations_state_by_state(L, q, n):
    """The x and y frames rotate each z-frame state by a product of
    single-qubit Cliffords, which permutes its Pauli strings up to sign: the
    same stream keys give the same Xi_2 in every frame, through the kernel's
    parity path (z) and its all-rows path (x, y)."""
    xi2 = {frame: experiments._haar_chunk(
               (range(n), 11, f"frames:L={L}", L, q, frame, ("xi2",), 0))[0]
           for frame in "zxy"}
    for frame in "xy":
        np.testing.assert_allclose(xi2[frame], xi2["z"], rtol=1e-13, atol=0)


def test_saturated_sector_samples_are_stabilizer_states():
    """The one-dimensional q=L sector is a basis state up to phase, so every
    sample has unit stabilizer purity to rounding."""
    records, _ = run_ensemble_experiment(8, [8], 20, seed=0, threads=1)
    xi = [r.value for r in records if r.observable == "xi2"]
    m2 = [r.value for r in records if r.observable == "m2"]
    assert len(xi) == 20
    assert all(abs(v - 1.0) < 1e-12 for v in xi)
    assert all(abs(v) < 1e-11 for v in m2)


# ---------------------------------------------------------------------------
# command line


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_analytic_mean(capsys):
    code, out, _ = run_cli(capsys, ["analytic", "mean", "--L", "2", "--q", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["mean_xi2"] == "4/5"
    assert data["dimension"] == 2
    assert data["m2_mean_bound"] == pytest.approx(math.log2(5) - 2)


def test_cli_analytic_mean_skips_second_moment(capsys):
    second_moment_sp2.cache_clear()
    code, _, _ = run_cli(capsys, ["analytic", "mean", "--L", "6", "--q", "2"])
    assert code == 0
    assert second_moment_sp2.cache_info().currsize == 0


#: SHA-256 of the stdout of `analytic` payloads: a faster exact layer must
#: print the same bytes (sizes from 64 up exercise the big-integer sums)
ANALYTIC_STDOUT_SHA256 = {
    "variance --L 3 --q 1":
        "9b166205a77876467358456b4e04874527633fb0b29453f1fd134550cdec5cd6",
    "variance --L 64 --q 4":
        "6aa9e1a5bb7114715739711bca1be8083fa7bf5b697c4b5475dd5c2cde52ec2f",
    "variance --L 96 --q 12":
        "1405eaa27c3ee01413906f52d4867f655f622abae449f1c602ecac0e875d1343",
    "mean --L 200 --q 10":
        "b9f8a7db3736c3b95a9785d2d7b610c70e9e99a10133481bcaf3a9ac306f7931",
    "tilted --L 128 --q 0 --theta 0.7":
        "e926eb632d7f9a425b685ec5f385935f93a707a1c370a9105608931d6a0c83c1",
    "tilted --L 6 --q 2 --theta 1.1 --phi 0.3":
        "301c7c1d042ded8f935c30a0542a79afc90f7eeda6dcccdd3a4f561f1e24ba4a",
    "variance --L 128 --q 0":
        "095babd08776bf08471745fc504ca39f3f99a441273ead5454c8e52b8cae5d62",
    "tilted --L 97 --q 5 --theta 0.4 --phi 1.3":
        "e865c2192453a73a4c0152af8510f9fcfa0c3353ed8be403983eaf1317509744",
    "asymptotic --s 0.0":
        "bba75393752c1c17a7a89bcc60ad2df84435297d03d803e16403cc2d8f9f1f91",
    "asymptotic --s 0.25":
        "9ad2eaf1a23f832c70cd792220a5c39d8120568438c101cc07dc5d89b6d229df",
    "asymptotic --s 0.5":
        "c1dacf254fd624faa615022c50a20cde646d71c6bf6839471a44bcd3c2716fbb",
    "asymptotic --s 0.9":
        "24cf3f86aa2012edd94298fb1beccb2f79275640fc5ddaa97650bc19e054ba91",
}


@pytest.mark.parametrize("args", sorted(ANALYTIC_STDOUT_SHA256))
def test_cli_analytic_payload_bytes_pinned(capsys, args):
    code, out, _ = run_cli(capsys, ["analytic", *args.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        ANALYTIC_STDOUT_SHA256[args]


def test_cli_exact_payload_prints_past_the_int_text_cap(capsys):
    """Python refuses to write an int of more digits than its cap; the
    payload's rationals print at any size, and the cap is put back."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, _ = run_cli(
            capsys, ["analytic", "variance", "--L", "300", "--q", "0"])
        kept = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(cap)
    assert code == 0 and kept == 640
    data = json.loads(out)
    texts = [data[key] for key in
             ("mean_xi2", "second_moment_xi2", "variance_xi2")]
    assert max(len(text) for text in texts) > 2 * 640
    mom = moments.analytic_moments(300, 0)
    assert [Fraction(text) for text in texts] == [
        mom.mean, mom.second_moment, mom.variance]


def test_cli_keeps_the_int_text_cap_for_parsing(capsys):
    """A flag of more digits than Python's cap is refused, not parsed."""
    err = _refused(capsys, ["analytic", "mean", "--L", "1" * 5000,
                            "--q", "0"])
    assert "bad value for 'L'" in err


def test_cli_analytic_tilted_evaluates_the_sum_once(capsys):
    """The payload's mean and -log2 bound share one exact evaluation; list
    and ndarray axes are still accepted."""
    moments._tilted_mean_sum.cache_clear()
    code, out, _ = run_cli(capsys, ["analytic", "tilted", "--L", "12",
                                    "--q", "2", "--theta", "0.4"])
    assert code == 0
    assert moments._tilted_mean_sum.cache_info().misses == 1
    want = json.loads(out)["mean_xi2"]
    assert mean_sp2_tilted(12, 2, Direction.from_angles(0.4)) == want
    assert moments._tilted_mean_sum.cache_info().misses == 1
    n = [math.sin(0.4), 0.0, math.cos(0.4)]
    for axis in (n, 3.0 * np.array(n)):
        assert mean_sp2_tilted(12, 2, axis) == pytest.approx(want, rel=1e-14)


def test_cli_analytic_variance_coefficient_choice(capsys):
    """One reading of the K2 prefactor, recorded in the payload; the flags
    that used to pick a formula are refused."""
    code, out, _ = run_cli(
        capsys, ["analytic", "variance", "--L", "3", "--q", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["second_moment_xi2"] == "13/35"
    assert data["k2_coefficient"] == "sector-dimension"
    for argv in (["analytic", "variance", "--L", "3", "--q", "1",
                  "--k2-coefficient", "printed-power"],
                 ["analytic", "asymptotic", "--s", "0",
                  "--xi-variant", "printed"],
                 ["collapse", "--L", "16", "--xi-variant", "printed"]):
        code, out, _ = run_cli(capsys, argv)
        assert code == 2 and out == ""


def test_cli_analytic_asymptotic_and_tilted(capsys):
    code, out, _ = run_cli(capsys, ["analytic", "asymptotic", "--s", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["m"] == pytest.approx(1.0) and data["g"] == pytest.approx(-3.0)
    assert data["xi_variant"] == "hessian"
    code, out, _ = run_cli(
        capsys, ["analytic", "tilted", "--L", "4", "--q", "0",
                 "--theta", "0", "--phi", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["mean_xi2"] == pytest.approx(float(mean_sp2(4, 0)), rel=1e-10)
    assert data["asymptotic_q0_offset"] == -3.0


def test_cli_sample_writes_outputs(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code, out, _ = run_cli(
        capsys, ["sample", "--L", "2", "--q", "0", "--samples", "8",
                 "--seed", "9", "--out", prefix])
    assert code == 0
    summary = json.loads(out)
    assert summary["sectors"]["0"]["observed"]["xi2"]["count"] == 8
    csv_text = (tmp_path / "run.csv").read_text()
    assert csv_text.splitlines()[0] == CSV_HEADER
    assert len(csv_text.splitlines()) == 1 + 8 * 4
    on_disk = json.loads((tmp_path / "run.summary.json").read_text())
    assert on_disk == summary


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment = sample\nL = 2\nq = 0\nsamples = 6\nseed = 1\n")
    code, out, _ = run_cli(capsys, ["--config", str(cfg), "run"])
    assert code == 0
    assert json.loads(out)["samples"] == 6
    code, out, _ = run_cli(
        capsys, ["--config", str(cfg), "sample", "--samples", "4"])
    assert code == 0
    assert json.loads(out)["samples"] == 4


def test_cli_jsonl_format(tmp_path, capsys):
    prefix = str(tmp_path / "j")
    code, out, _ = run_cli(
        capsys, ["pe-check", "--L", "2", "--q", "0", "--samples", "5",
                 "--seed", "2", "--out", prefix, "--format", "jsonl"])
    assert code == 0
    text = (tmp_path / "j.jsonl").read_text()
    lines = text.splitlines()
    assert len(lines) == 10
    assert all(json.loads(line)["L"] == 2 for line in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2ce5208c9164bf94a6d578e9dc6b3122b903f4e350dad30127298a50a18cd4cf")


def test_cli_exit_codes(tmp_path, capsys):
    # usage errors from argparse; a clean model has no --realizations
    for argv in (["sample", "--no-such-flag"],
                 ["xxz", "--q", "0", "--realizations", "1"],
                 ["mfim", "--realizations", "1"]):
        code, _, err = run_cli(capsys, argv)
        assert code == 2 and "unrecognized arguments" in err
    # config errors
    code, _, err = run_cli(capsys, ["--config", str(tmp_path / "nope.cfg"),
                                    "sample"])
    assert code == 2 and "error" in err
    code, _, _ = run_cli(capsys, ["mixed", "--L", "2", "--q", "0",
                                  "--samples", "4"])
    assert code == 2  # no theta given
    code, _, _ = run_cli(capsys, ["sample", "--L", "15", "--q", "1",
                                  "--samples", "2"])
    assert code == 2  # over the size cap
    # numerical contract violation: transverse field breaks the charge
    code, _, err = run_cli(capsys, ["xxz", "--L", "4", "--h-x", "0.5",
                                    "--seed", "0"])
    assert code == 3 and "contract" in err


def _strict_json(text):
    """Parse CLI output, rejecting the NaN / Infinity extensions."""
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def _refused(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_cli_degenerate_inputs_refused_up_front(capsys, monkeypatch, tmp_path):
    for argv in (["sample", "--L", "4", "--samples", "0"],
                 ["variance-convergence", "--L", "4", "--samples", "0"],
                 ["mixed", "--L", "4", "--theta", "0.3", "--samples", "0"],
                 ["pe-check", "--L", "4", "--samples", "-1"],
                 ["csyk", "--L", "4", "--realizations", "0"],
                 ["self-averaging", "--L", "4", "--realizations", "0"],
                 ["self-averaging", "--L", "4", "--fraction", "0"],
                 # a checkpoint the run never reaches
                 ["variance-convergence", "--L", "4", "--samples", "100",
                  "--checkpoints", "500"]):
        _refused(capsys, argv + ["--seed", "0", "--threads", "1"])
    # a band fraction outside [0, 1]: no traceback, no silently shifted band
    for argv in (["self-averaging", "--L", "4", "--realizations", "2",
                  "--fraction", "-0.5"],
                 ["csyk", "--L", "4", "--q", "0", "--realizations", "2",
                  "--fraction", "1.5"]):
        err = _refused(capsys, argv + ["--seed", "0", "--threads", "1"])
        assert "fraction must be in [0, 1]" in err
    # an empty mid-spectrum band is known before any diagonalization
    err = _refused(capsys, ["self-averaging", "--L", "4", "--L", "6",
                            "--fraction", "0.01", "--threads", "1"])
    assert "keeps no eigenstate" in err and "L=4" in err
    # outside inputs: a config file that is not UTF-8, and an output prefix
    # in a directory that does not exist, refused before any draw
    monkeypatch.setattr(experiments, "_dispatch", None)
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe L = 3\n")
    err = _refused(capsys, ["--config", str(bad), "sample"])
    assert "cannot read config" in err
    err = _refused(capsys, ["sample", "--L", "2", "--q", "0", "--samples", "3",
                            "--out", str(tmp_path / "missing" / "x")])
    assert "output directory" in err and "does not exist" in err


_SAMPLE_OUT = ["sample", "--L", "2", "--q", "0", "--samples", "2", "--out"]


@pytest.mark.parametrize("name", ["x.csv", "x.summary.json"])
def test_cli_output_path_that_is_a_directory_refused_up_front(
        capsys, monkeypatch, tmp_path, name):
    """A directory named like the record or the summary file is refused
    before any draw, with exit 2 and one line."""
    (tmp_path / name).mkdir()
    monkeypatch.setattr(experiments, "_dispatch", None)
    err = _refused(capsys, _SAMPLE_OUT + [str(tmp_path / "x")])
    assert f"output path {tmp_path / name} is a directory" in err


@pytest.mark.parametrize("writer", ["write_csv", "write_summary"])
def test_cli_writer_os_error_exits_2(capsys, monkeypatch, tmp_path, writer):
    """An OSError of either writer ends the run with exit 2 and one line,
    never a traceback.  A record file that could not be opened is left as
    it was; one this run wrote goes when its summary cannot be written."""
    def refuse(obj, path):
        raise PermissionError(13, "Permission denied", str(path))
    (tmp_path / "x.csv").write_text("kept\n")
    monkeypatch.setattr(cli, writer, refuse)
    err = _refused(capsys, _SAMPLE_OUT + [str(tmp_path / "x")])
    assert "cannot write output" in err and "Permission denied" in err
    if writer == "write_csv":
        assert (tmp_path / "x.csv").read_text() == "kept\n"
    assert os.listdir(tmp_path) == (["x.csv"] if writer == "write_csv"
                                    else [])


def test_cli_summary_name_too_long_exits_2(capsys, tmp_path):
    """A prefix whose record file name fits but whose summary file name is
    longer than a file name may be: the writer's OSError exits 2, and the
    record file written before it is removed."""
    prefix = tmp_path / ("x" * 250)
    err = _refused(capsys, _SAMPLE_OUT + [str(prefix)])
    assert "cannot write output" in err
    assert os.listdir(tmp_path) == []


def _disorder_case(message, *argv):
    return pytest.param(list(argv), message,
                        id="-".join(a.lstrip("-") for a in argv))


@pytest.mark.parametrize("argv,message", [
    # one L range for every model
    _disorder_case("supports 2 <= L <= 14", "csyk", "--L", "15", "--q", "1"),
    _disorder_case("supports 2 <= L <= 14", "xxz", "--L", "1", "--q", "1"),
    _disorder_case("supports 2 <= L <= 14", "mfim", "--L", "1"),
    _disorder_case("supports 2 <= L <= 14", "xxz", "--L", "15", "--q", "13"),
    # one-state blocks whose basis enumeration would not fit in memory
    _disorder_case("supports 2 <= L <= 14", "xxz", "--L", "30", "--q", "30"),
    _disorder_case("supports 2 <= L <= 14", "xxz", "--L", "64", "--q", "64"),
    # empty sectors
    _disorder_case("is empty", "csyk", "--L", "4", "--q", "1"),
    _disorder_case("is empty", "xxz", "--L", "4", "--q", "1"),
])
def test_cli_degenerate_disorder_request_refused(capsys, monkeypatch, argv,
                                                 message):
    built = []
    monkeypatch.setattr(experiments, "extract_sector_block",
                        lambda *args: built.append(args))
    assert message in _refused(capsys, argv + ["--threads", "1"])
    assert built == []


def test_block_above_physical_memory_refused_before_any_build(
        capsys, monkeypatch):
    """A block whose assembly and eigendecomposition would not fit in
    physical memory exits 2 before any build.  csyk blocks are complex: at
    a memory between the needs of a real and a complex 20-state block, csyk
    is refused at L = 6, q = 0 where xxz runs."""
    memory = 12 * experiments._DENSE_COPIES * 20 ** 2
    built = []
    monkeypatch.setattr(experiments, "_PHYSICAL_MEMORY", memory)
    monkeypatch.setattr(experiments, "extract_sector_block",
                        lambda *args: built.append(args))
    for argv, block in ((["csyk", "--L", "6", "--q", "0"], "(L=6, q=0)"),
                        (["self-averaging", "--L", "4", "--L", "6"],
                         "(L=6, q=0)"),
                        (["xxz", "--L", "8", "--q", "0"], "(L=8, q=0)"),
                        (["mfim", "--L", "5"], "(L=5, q=None)")):
        err = _refused(capsys, argv + ["--threads", "1"])
        assert f"sector {block} of dimension" in err
        assert "too large to diagonalize in physical memory" in err
    assert built == []
    monkeypatch.undo()
    monkeypatch.setattr(experiments, "_PHYSICAL_MEMORY", memory)
    for argv in (["xxz", "--L", "6", "--q", "0"], ["mfim", "--L", "4"]):
        code, _, _ = run_cli(capsys, argv + ["--threads", "1"])
        assert code == 0


def test_histogram_beyond_physical_memory_refused(capsys, monkeypatch):
    """A sample run whose histograms (bins times sectors) would not fit in
    physical memory exits 2 before any draw."""
    monkeypatch.setattr(experiments, "_PHYSICAL_MEMORY",
                        200 * experiments._HIST_BIN_BYTES)
    argv = ["sample", "--L", "2", "--samples", "3", "--threads", "1"]
    code, _, _ = run_cli(capsys, argv + ["--q", "0", "--histogram-bins", "200"])
    assert code == 0
    monkeypatch.setattr(experiments, "_dispatch", None)
    for extra in (["--q", "0", "--histogram-bins", "201"],
                  ["--q", "0", "--histogram-bins", "10000000000"],
                  ["--q", "0", "--q", "2", "--histogram-bins", "200"]):
        err = _refused(capsys, argv + extra)
        assert "histogram bins per sector do not fit in physical memory" in err


def test_samples_beyond_physical_memory_refused(capsys, monkeypatch):
    """A sampling run whose samples, summed over its sectors or angles,
    would not fit in physical memory exits 2 before any stream key is
    made."""
    monkeypatch.setattr(experiments, "_PHYSICAL_MEMORY",
                        10 * experiments._SAMPLE_BYTES)
    code, _, _ = run_cli(capsys, ["sample", "--L", "2", "--q", "0",
                                  "--samples", "10", "--histogram-bins", "0",
                                  "--threads", "1"])
    assert code == 0
    monkeypatch.setattr(experiments, "_dispatch", None)
    for argv in (["sample", "--q", "0", "--samples", "11",
                  "--histogram-bins", "0"],
                 ["sample", "--q", "0", "--q", "2", "--samples", "6",
                  "--histogram-bins", "0"],
                 ["variance-convergence", "--q", "0", "--samples", "11"],
                 ["mixed", "--q", "0", "--theta", "0.3", "--theta", "0.7",
                  "--samples", "6"],
                 ["pe-check", "--q", "0", "--samples", "11"]):
        err = _refused(capsys, argv + ["--L", "2", "--threads", "1"])
        assert "samples do not fit in physical memory" in err
    monkeypatch.undo()
    monkeypatch.setattr(experiments, "_dispatch", None)
    err = _refused(capsys, ["sample", "--L", "2", "--q", "0",
                            "--samples", "100000000000"])
    assert "100000000000 samples do not fit in physical memory" in err


def test_realizations_beyond_physical_memory_refused(capsys, monkeypatch):
    """A disorder run whose realizations, each with its stream key and kept
    eigenstates (round(fraction * d) per sector, none counted for a window),
    would not fit in physical memory exits 2 before any stream key is
    made."""
    # csyk L = 4 with --fraction 0.5 keeps 3 of q = 0's 6 states and 2 of
    # q = 2's 4: 1 + 5 entries per realization; self-averaging at L = 4 and
    # 6 keeps 3 and 10 states: (1 + 3) + (1 + 10)
    monkeypatch.setattr(experiments, "_PHYSICAL_MEMORY",
                        30 * experiments._SAMPLE_BYTES)
    csyk = ["csyk", "--L", "4", "--q", "0", "--q", "2", "--threads", "1"]
    selfavg = ["self-averaging", "--L", "4", "--L", "6", "--fraction", "0.5",
               "--threads", "1"]
    for argv in (csyk + ["--fraction", "0.5", "--realizations", "5"],
                 csyk + ["--window", "0.5", "--realizations", "30"],
                 selfavg + ["--realizations", "2"]):
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
    monkeypatch.setattr(experiments, "_dispatch", None)
    for argv, n in ((csyk + ["--fraction", "0.5", "--realizations", "6"], 6),
                    (csyk + ["--window", "0.5", "--realizations", "31"], 31),
                    (selfavg + ["--realizations", "3"], 3)):
        err = _refused(capsys, argv)
        assert f"{n} realizations do not fit in physical memory" in err
    monkeypatch.undo()
    monkeypatch.setattr(experiments, "_dispatch", None)
    for argv in (["csyk", "--L", "2", "--q", "0"],
                 ["self-averaging", "--L", "4"]):
        err = _refused(capsys, argv + ["--realizations", "100000000000"])
        assert "100000000000 realizations do not fit" in err


@pytest.mark.parametrize("sysconf", [
    "del os.sysconf",
    "os.sysconf = lambda name: (_ for _ in ()).throw(ValueError(name))",
])
def test_physical_memory_unknown_skips_the_check(sysconf):
    """Where os.sysconf or its names are missing, memory bounds nothing."""
    code = (f"import os; {sysconf}\n"
            "from sectormagic.harness import experiments\n"
            "print(experiments._PHYSICAL_MEMORY)")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out == "inf\n"


_SCIPY_PROBE = """
import contextlib, io, json, sys
import sectormagic.harness.cli as cli

def scipy_modules():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]

loaded = {"import": scipy_modules()}
for argv in (["analytic", "mean", "--L", "4", "--q", "0"],
             ["sample", "--L", "4", "--q", "0", "--samples", "3",
              "--threads", "1"],
             ["pe-check", "--L", "6", "--q", "0", "--samples", "20",
              "--threads", "1"],
             ["csyk", "--L", "4", "--threads", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    loaded[argv[0]] = scipy_modules()
print(json.dumps(loaded))
"""


def test_cli_loads_scipy_only_to_diagonalize():
    """Importing the CLI and running analytic, sample and a pe-check whose
    KS p-value is off the smirnov branch load no scipy module; csyk loads
    scipy.linalg for eigh, and no command loads scipy.stats."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    loaded = json.loads(out)
    for step in ("import", "analytic", "sample", "pe-check"):
        assert loaded[step] == [], step
    assert "scipy.linalg" in loaded["csyk"]
    assert "scipy.stats" not in loaded["csyk"]


_MPMATH_PROBE = """
import contextlib, io, json, sys
sys.modules["mpmath"] = None
import sectormagic.harness.cli as cli

def mpmath_modules():
    return [m for m, mod in sys.modules.items()
            if m.split(".")[0] == "mpmath" and mod is not None]

loaded = [mpmath_modules()]
for argv in (["analytic", "tilted", "--L", "64", "--q", "0", "--theta", "0.7"],
             ["analytic", "variance", "--L", "8", "--q", "2"],
             ["mixed", "--L", "4", "--q", "0", "--theta", "0.3",
              "--samples", "3", "--threads", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    loaded.append(mpmath_modules())
print(json.dumps(loaded))
"""


def test_cli_runs_without_mpmath():
    """With mpmath unimportable, the CLI imports and its exact tilted mean,
    exact variance and a mixed run exit 0, loading no mpmath module."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", _MPMATH_PROBE], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert json.loads(out) == [[]] * 4


@pytest.fixture
def pools(monkeypatch):
    """The worker pools that the test's runs make."""
    made = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    return made


def test_clean_model_takes_one_realization(monkeypatch, pools):
    """xxz and mfim builders ignore the stream, so a second realization
    would repeat the first: it is refused before any build or pool.  csyk
    builds one Hamiltonian per realization."""
    calls = []

    def counted(build):
        def wrapper(*args, **kwargs):
            calls.append(build)
            return build(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiments, "build_csyk",
                        counted(experiments.build_csyk))
    for model, build in list(experiments.CLEAN_BUILDERS.items()):
        monkeypatch.setitem(experiments.CLEAN_BUILDERS, model, counted(build))
    for model, qs in (("xxz", [0]), ("mfim", None)):
        with pytest.raises(ConfigError, match=f"{model} is a clean model and "
                                              f"takes one realization, got 2"):
            experiments.run_disorder_sweep(model, 4, q=qs, realizations=2,
                                           threads=2, fraction=0.5)
    assert calls == [] and pools == []
    records, _ = experiments.run_disorder_sweep(
        "csyk", 4, q=[0], realizations=3, threads=1, fraction=0.5)
    assert len(calls) == 3
    assert {rec.aux1 for rec in records} == {0.0, 1.0, 2.0}


def test_disorder_sweep_refuses_couplings_the_builder_does_not_take(pools):
    """A coupling the model's builder does not take is refused before any
    pool exists: csyk takes none, xxz and mfim only their own."""
    for model, qs, coupling in (("csyk", [0], "J1"), ("xxz", [0], "g"),
                                ("mfim", None, "J2")):
        with pytest.raises(ConfigError, match=f"{model} takes no coupling "
                                              f"{coupling}"):
            experiments.run_disorder_sweep(
                model, 4, q=qs, realizations=130, threads=2, fraction=0.5,
                **{coupling: 3.0})
    assert pools == []


@pytest.mark.parametrize("model, q, message", [
    ("ising", [0], "unknown model 'ising'"),
    ("mfim", [0], "mfim has no conserved charge; leave q unset"),
])
def test_disorder_sweep_refuses_unknown_model_and_charged_mfim(
        monkeypatch, pools, model, q, message):
    """Both are refused before any block is built or any pool exists."""
    built = []
    monkeypatch.setattr(experiments, "extract_sector_block",
                        lambda *args: built.append(args))
    with pytest.raises(ConfigError, match=message):
        experiments.run_disorder_sweep(model, 4, q=q, realizations=1,
                                       threads=2, fraction=0.5)
    assert built == [] and pools == []


def test_every_table_entry_binds_its_driver_by_key_name():
    """Each key name is the keyword of its driver: the effective values of
    every table command, and of every README "Command line" example without
    --config, bind to the driver's signature.  No driver runs."""
    argvs = [command.split()
             + [arg for name, (raw,) in REQUIRED_FLAGS.get(command, {}).items()
                for arg in ("--" + name, raw)]
             for command, entry in TABLE.items() if entry.run is not None]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    examples = [shlex.split(line, comments=True)[1:]
                for line in section.splitlines()
                if line.startswith("sectormagic ") and "--config" not in line]
    assert examples
    for argv in argvs + examples:
        args = build_parser().parse_args(argv)
        entry = TABLE[args.command]
        flags = {key.name: getattr(args, key.name) for key in entry.keys
                 if getattr(args, key.name) is not None}
        params = {name: value
                  for name, value in resolve(args.command, flags=flags).items()
                  if name not in ("out", "format")}
        inspect.signature(entry.run).bind(**params)


def test_cli_worker_count_below_one_refused(capsys, monkeypatch):
    _refused(capsys, ["pe-check", "--L", "2", "--samples", "2",
                      "--threads", "0"])
    # no environment variable sets the worker count
    monkeypatch.setenv("SECTORMAGIC_THREADS", "0")
    code, _, _ = run_cli(capsys, ["pe-check", "--L", "2", "--samples", "2"])
    assert code == 0


def test_worker_pool_capped_at_the_affinity_mask(monkeypatch):
    """A fork-context pool starts every worker it is asked for, so a
    --threads above the CPUs in the affinity mask gets one worker per CPU;
    the bytes are those of one worker."""
    asked = []

    class RecordingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, max_workers=None, **kwargs):
            asked.append(max_workers)
            super().__init__(*args, max_workers=max_workers, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    # 640 samples are 10 chunks of CHUNK = 64
    capped = run_pe_check(2, 0, 640, seed=3, threads=64)
    assert asked == [2]
    one = run_pe_check(2, 0, 640, seed=3, threads=1)
    assert _csv_and_summary(capped) == _csv_and_summary(one)


def test_cli_window_and_fraction_together_refused(capsys):
    """Both band selectors at once is ambiguous: exit 2, not a silently
    dropped --fraction."""
    for argv in (["csyk", "--q", "0", "--realizations", "1"],
                 ["xxz", "--q", "0"], ["mfim"]):
        err = _refused(capsys, argv + ["--L", "4", "--window", "0.5",
                                       "--fraction", "0.1",
                                       "--threads", "1"])
        assert "exactly one of window / fraction" in err


@pytest.mark.parametrize("text, argv", [
    # a one-value key given several values
    ("experiment = pe-check\nL = 2\nq = 0,2\nsamples = 2\n", ["run"]),
    ("experiment = mixed\nL = 2\nq = 0,2\ntheta = 0.3\nsamples = 2\n",
     ["run"]),
    # keys the experiment does not read
    ("experiment = sample\nL = 2\nsamples = 2\nwindow = 0.25\n", ["run"]),
    ("experiment = sample\nL = 2\nsamples = 2\nrealizations = 3\n",
     ["run"]),
    ("experiment = mfim\nL = 2\nq = 2\n", ["run"]),
    ("experiment = collapse\nL_values = 16\n", ["run", "--threads", "1"]),
    ("L_values = 16\nxi_variant = printed\n", ["collapse"]),
    # values outside a key's choices or range
    ("L = 2\nsamples = 2\nframe = w\n", ["sample"]),
    ("L = 2\nsamples = 2\nthreads = 0\n", ["sample"]),
    # the file is for another experiment
    ("experiment = csyk\nL = 2\nsamples = 2\n", ["sample"]),
    # analytic payloads read no config file
    ("L = 2\nq = 0\n", ["analytic", "mean", "--L", "2", "--q", "0"]),
    # a list key that yields no value
    ("L = 2\nq =\nsamples = 2\n", ["sample"]),
    ("experiment = mixed\nL = 2\ntheta = ,\nsamples = 2\n", ["run"]),
    ("experiment = collapse\nL_values = 16\ns_values = ,\n", ["run"]),
    ("L_values = ,\n", ["self-averaging", "--threads", "1"]),
], ids=["pe-check-q", "mixed-q", "sample-window", "sample-realizations",
        "mfim-q", "collapse-threads", "xi-variant", "frame", "threads-zero",
        "wrong-experiment", "analytic-config", "empty-q", "empty-theta",
        "empty-s", "empty-L"])
def test_cli_config_keys_checked(tmp_path, capsys, text, argv):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    _refused(capsys, ["--config", str(cfg)] + argv)


@pytest.mark.parametrize("text, argv, message", [
    (None, ["pe-check", "--q", "0", "--q", "2"], "q takes one value, got 2"),
    (None, ["mixed", "--q", "0", "--q", "2", "--theta", "0.3"],
     "q takes one value, got 2"),
    ("experiment = nonsense\n", ["run"], "unknown experiment 'nonsense'"),
    ("experiment = analytic mean\n", ["run"],
     "unknown experiment 'analytic mean'"),
    ("L = 2\nsamples = 2\nallow_large = maybe\n", ["sample"],
     "sample does not read allow_large"),
    (None, ["variance-convergence", "--L", "4", "--samples", "1"],
     "samples must be >= 2, got 1"),
    # a clean model has one realization and no key to count them
    ("experiment = xxz\nrealizations = 1\n", ["run"],
     "xxz does not read realizations"),
    ("experiment = mfim\nrealizations = 1\n", ["run"],
     "mfim does not read realizations"),
], ids=["pe-check-q-twice", "mixed-q-twice", "run-nonsense", "run-analytic",
        "allow-large-maybe", "variance-convergence-one-sample",
        "xxz-realizations", "mfim-realizations"])
def test_cli_refusal_names_its_cause(tmp_path, capsys, monkeypatch, text, argv,
                                     message):
    """A one-value key given twice as a flag, a run of an experiment that
    `run` does not know, a key the experiment does not read and a
    variance-convergence run of one sample exit 2 before any draw."""
    monkeypatch.setattr(experiments, "_dispatch", None)
    if text is not None:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        argv = ["--config", str(cfg)] + argv
    assert message in _refused(capsys, argv)


@pytest.mark.parametrize("text, argv, key", [
    (None, ["csyk", "--L", "4", "--q", "0", "--q", "0"], "q"),
    (None, ["sample", "--L", "2", "--q", "0", "--q", "0"], "q"),
    ("q = 0, 2, 0\n", ["variance-convergence", "--L", "2"], "q"),
    (None, ["self-averaging", "--L", "4", "--L", "4"], "L_values"),
    (None, ["mixed", "--L", "2", "--theta", "0.3", "--theta", "0.30"],
     "theta"),
    (None, ["collapse", "--L", "4", "--s", "0.25,0.25"], "s_values"),
    ("checkpoints = 5,5\n",
     ["variance-convergence", "--L", "2", "--samples", "10"], "checkpoints"),
], ids=["csyk-q", "sample-q", "config-q", "self-averaging-L", "mixed-theta",
        "collapse-s", "config-checkpoints"])
def test_cli_repeated_list_value_refused(tmp_path, capsys, monkeypatch, text,
                                         argv, key):
    """A list key that names one value twice, from flags or a config file,
    exits 2 before any draw: the repeat would pool the same streams twice."""
    monkeypatch.setattr(experiments, "_dispatch", None)
    if text is not None:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        argv = ["--config", str(cfg)] + argv
    assert f"{key} repeats a value" in _refused(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["xxz", "--L", "4", "--q", "0", "--J1", "1e308"],
    ["xxz", "--L", "4", "--q", "0", "--delta", "1e308", "--J2", "1e308"],
    ["mfim", "--L", "4", "--h", "1e308", "--h1", "1e308"],
], ids=["xxz", "xxz-delta-J2", "mfim"])
@pytest.mark.filterwarnings("error")
def test_cli_overflowing_block_exits_3(capsys, argv):
    """Finite couplings whose block overflows exit 3 with the one contract
    line: no traceback from eigh, no numpy warning from the assembly."""
    code, out, err = run_cli(capsys, argv + ["--threads", "1"])
    assert code == 3 and out == ""
    assert err == ("numerical contract violated: "
                   "matrix has a non-finite entry\n")


class _Dispatched(Exception):
    pass


@pytest.mark.parametrize("argv", [
    ["sample", "--q", "{q}", "--samples", "2"],
    ["variance-convergence", "--q", "{q}", "--samples", "2"],
    ["mixed", "--q", "{q}", "--theta", "0.3", "--samples", "2"],
    ["pe-check", "--q", "{q}", "--samples", "2"],
], ids=lambda argv: argv[0])
def test_cli_sampling_takes_L_up_to_14_with_no_flag(capsys, monkeypatch, argv):
    """L = 13 and 14 pass every check of the sampling commands and reach
    the dispatcher (patched out, so no draw runs); --allow-large is gone."""
    def dispatch(*args):
        raise _Dispatched
    monkeypatch.setattr(experiments, "_dispatch", dispatch)
    for L, q in ((13, 1), (14, 0)):
        with pytest.raises(_Dispatched):
            main([arg.format(q=q) for arg in argv]
                 + ["--L", str(L), "--threads", "1"])
    code, _, err = run_cli(capsys, [arg.format(q=0) for arg in argv]
                           + ["--L", "8", "--allow-large"])
    assert code == 2 and "unrecognized arguments: --allow-large" in err


@pytest.mark.parametrize("model, q", [("xxz", [0]), ("mfim", None)])
def test_disorder_sweep_default_realizations_run_every_model(model, q):
    """The driver's default of one realization is one every model takes,
    the clean models too."""
    _, summary = experiments.run_disorder_sweep(model, 6, q=q, window=0.25,
                                                threads=1)
    assert summary["realizations"] == 1


@pytest.mark.parametrize("argv", [
    ["analytic", "mean", "--L", "4", "--q", "1"],  # empty sector
    ["analytic", "variance", "--L", "0", "--q", "0"],
    ["analytic", "tilted", "--L", "4", "--q", "6", "--theta", "0.3"],
    ["analytic", "asymptotic", "--s", "1.5"],  # density outside [0, 1)
    ["collapse", "--L", "16", "--s", "1.5"],
    ["collapse", "--L", "0", "--s", "0.2"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_cli_degenerate_analytic_request_refused(capsys, argv):
    _refused(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["sample", "--L", "2", "--samples", "2", "--histogram-bins", "-3"],
    ["variance-convergence", "--L", "2", "--samples", "3",
     "--checkpoints", "a,b"],
    ["mixed", "--L", "2", "--theta", "0.3", "--phi", "nan",
     "--samples", "2"],
    ["mixed", "--L", "2", "--theta", "inf", "--samples", "2"],
    ["csyk", "--L", "4", "--window", "nan", "--realizations", "1"],
    ["xxz", "--L", "4", "--J2", "inf"],
    ["mfim", "--L", "2", "--fraction", "nan"],
    ["self-averaging", "--L", "4", "--fraction", "nan"],
    ["self-averaging", "--L", ","],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_cli_bad_flag_values_refused_up_front(capsys, argv):
    _refused(capsys, argv + ["--seed", "0", "--threads", "1"])


def test_cli_one_state_sector_gives_null_statistics(capsys):
    code, out, _ = run_cli(capsys, ["variance-convergence", "--L", "4",
                                    "--q", "4", "--samples", "5",
                                    "--threads", "1"])
    assert code == 0
    for row in _strict_json(out)["sectors"]["4"]["checkpoints"]:
        assert row["mean_z"] is None and row["variance_ratio"] is None
    code, out, _ = run_cli(capsys, ["pe-check", "--L", "4", "--q", "4",
                                    "--samples", "5", "--threads", "1"])
    assert code == 0
    data = _strict_json(out)
    assert data["dimension"] == 1
    assert data["ipr2"]["mean_z"] is None
    assert data["shannon_pe"]["mean_z"] is None
    assert data["porter_thomas"] == {"ks_statistic": None, "ks_pvalue": None}


def test_cli_zero_entropies_are_not_negative_zero(tmp_path, capsys):
    """A one-state sector has m2 = s2 = shannon_pe = 0 exactly; the CSV
    and the summary must not write them as -0."""
    prefix = str(tmp_path / "one")
    code, out, _ = run_cli(capsys, ["sample", "--L", "1", "--q", "1",
                                    "--samples", "2", "--threads", "1",
                                    "--histogram-bins", "0", "--out", prefix,
                                    "--format", "csv"])
    assert code == 0
    cells = [line.split(",")[6] for line in
             (tmp_path / "one.csv").read_text().splitlines()[1:]]
    assert "0" in cells and "-0" not in cells
    summary = (tmp_path / "one.summary.json").read_text()
    assert summary == out and "-0.0" not in summary
    observed = json.loads(summary)["sectors"]["1"]["observed"]
    for obs in ("m2", "s2", "shannon_pe"):
        assert math.copysign(1.0, observed[obs]["min"]) == 1.0


def test_cli_single_sample_gives_null_statistics(capsys):
    code, out, _ = run_cli(capsys, ["pe-check", "--L", "4", "--samples", "1",
                                    "--threads", "1"])
    assert code == 0
    data = _strict_json(out)
    assert data["ipr2"]["mean_z"] is None
    assert data["shannon_pe"]["mean_z"] is None
    assert data["porter_thomas"]["ks_pvalue"] is None
    code, out, _ = run_cli(capsys, ["mixed", "--L", "4", "--theta", "0.4",
                                    "--samples", "1", "--threads", "1"])
    assert code == 0
    assert _strict_json(out)["sweep"][0]["mean_z"] is None
    code, out, _ = run_cli(capsys, ["self-averaging", "--L", "4", "--L", "6",
                                    "--realizations", "1", "--fraction",
                                    "0.3", "--threads", "1"])
    assert code == 0
    data = _strict_json(out)
    assert [s["relative_variance"] for s in data["sizes"]] == [None, None]
    assert data["monotone_decreasing"] is None


def test_cli_self_averaging_zero_mean_gives_null_statistics(capsys):
    """The csyk L = 2, q = 0 block is zero, so every kept eigenvector is a
    basis state with m2 = 0: a zero mean has no relative variance."""
    for argv, count in ((["--L", "2", "--realizations", "2"], 1),
                        (["--L", "2", "--L", "4", "--realizations", "3"], 2)):
        code, out, _ = run_cli(capsys, ["self-averaging", *argv, "--fraction",
                                        "1", "--seed", "0", "--threads", "1"])
        assert code == 0
        data = _strict_json(out)
        sizes = data["sizes"]
        assert len(sizes) == count
        assert sizes[0]["m2"]["mean"] == 0.0
        assert sizes[0]["relative_variance"] is None
        assert all(s["relative_variance"] > 0 for s in sizes[1:])
        assert data["monotone_decreasing"] is None


def test_summary_writer_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        write_summary({"x": float("nan")}, tmp_path / "s.json")


def test_cli_collapse(capsys):
    code, out, _ = run_cli(
        capsys, ["collapse", "--L", "32", "--L", "64", "--s", "0.5"])
    assert code == 0
    data = json.loads(out)
    assert data["L_values"] == [32, 64]
    assert len(data["per_s"][0]["rows"]) == 2
