import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectormagic import mean_sp2
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
from sectormagic.harness import experiments
from sectormagic.harness.cli import main, resolve


# ---------------------------------------------------------------------------
# streaming statistics


def test_summary_stats_against_numpy():
    rng = np.random.default_rng(1)
    xs = rng.normal(size=500)
    st_ = SummaryStats.from_values(xs)
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


@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=0, max_size=60),
    st.lists(st.floats(min_value=-50, max_value=50), min_size=0, max_size=60),
)
@settings(max_examples=80, deadline=None)
def test_summary_stats_merge_equals_sequential(a, b):
    merged = SummaryStats.from_values(a).merge(SummaryStats.from_values(b))
    direct = SummaryStats.from_values(a + b)
    assert merged.count == direct.count
    if direct.count:
        assert merged.mean == pytest.approx(direct.mean, abs=1e-9)
        assert merged.min == direct.min and merged.max == direct.max
    if direct.count >= 2:
        assert merged.variance == pytest.approx(direct.variance,
                                                rel=1e-8, abs=1e-9)


# ---------------------------------------------------------------------------
# records and serialization


def test_format_value_cells():
    assert format_value(None) == ""
    assert format_value(True) == "1" and format_value(False) == "0"
    assert format_value(7) == "7"
    assert format_value(0.5) == "0.5"
    txt = format_value(0.1)
    assert float(txt) == 0.1  # %.17g round-trips exactly


def test_run_record_csv_line():
    rec = RunRecord("sample", 1, 2, 3, 0, "xi2", 0.5, aux1=None, aux2=1.25)
    assert rec.to_csv_line() == "sample,1,2,3,0,xi2,0.5,,1.25"
    rec2 = RunRecord("mfim", 0, 9, 8, None, "m2", 0.1)
    assert rec2.to_csv_line() == "mfim,0,9,8,,m2,0.10000000000000001,,"
    with pytest.raises(ValueError):
        RunRecord("x", 0, 0, 2, 0, "not-an-observable", 1.0)


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
    write_summary(
        {"a": np.float64(1.5), "b": np.arange(3), "stats": SummaryStats.from_values([1.0, 2.0])},
        path,
    )
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
    path.write_text("L = 6\nq = 0,2\nsamples = 50\nallow_large = true\n")
    values = resolve("sample", load_config(path))
    assert values["L"] == 6 and values["q"] == [0, 2]
    assert values["samples"] == 50 and values["allow_large"] is True
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
    "analytic variance": {"L": 4, "q": 0,
                          "k2_coefficient": "sector-dimension"},
    "analytic asymptotic": {"s": 0.5, "xi_variant": "hessian"},
    "analytic tilted": {"L": 4, "q": 0, "theta": 0.3, "phi": 0.0},
    "sample": {"L": 8, "q": [0], "samples": 1000, "frame": "z",
               "histogram_bins": 200, "allow_large": False},
    "variance-convergence": {"L": 8, "q": [0], "samples": 1000,
                             "checkpoints": [], "allow_large": False},
    "csyk": {"L": 8, "q": [0], "realizations": 100, "window": None,
             "fraction": 0.1},
    "xxz": {"L": 8, "q": [0], "realizations": 1, "window": 0.25,
            "fraction": None, "J1": 1.0, "delta": 0.5, "J2": 0.0, "h_b": 0.0,
            "h_x": 0.0},
    "mfim": {"L": 8, "realizations": 1, "window": None, "fraction": 0.1,
             "g": 1.1, "h": 0.35, "h1": 0.25, "hL": -0.25},
    "mixed": {"L": 8, "q": 0, "theta": [0.3], "phi": 0.0, "samples": 1000,
              "allow_large": False},
    "collapse": {"L_values": [6, 8, 10], "s_values": [0.0, 0.25, 0.5],
                 "xi_variant": "hessian", "seed": 0, "out": None,
                 "format": "csv"},
    "self-averaging": {"L_values": [6, 8, 10], "realizations": 50,
                       "fraction": 0.1},
    "pe-check": {"L": 8, "q": 0, "samples": 1000, "allow_large": False},
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
    assert resolve_threads(0) == 1
    monkeypatch.setenv("SECTORMAGIC_THREADS", "7")
    assert resolve_threads() == 7
    assert resolve_threads(2) == 2  # explicit flag wins
    monkeypatch.setenv("SECTORMAGIC_THREADS", "x")
    with pytest.raises(ConfigError):
        resolve_threads()
    monkeypatch.delenv("SECTORMAGIC_THREADS")
    assert resolve_threads() >= 1


# ---------------------------------------------------------------------------
# experiment drivers (small smoke runs; statistics live in the acceptance suite)


def test_sampling_budget_guard():
    with pytest.raises(ConfigError):
        run_ensemble_experiment(13, [1], 4, threads=1)
    with pytest.raises(ConfigError):
        run_ensemble_experiment(15, [1], 4, threads=1, allow_large=True)
    with pytest.raises(ConfigError):
        run_ensemble_experiment(4, [1], 4, threads=1)  # empty sector


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


def test_ensemble_worker_count_invariance():
    """Records and summary are byte-identical for any worker split."""
    out = []
    for threads in (1, 3):
        records, summary = run_ensemble_experiment(2, [0, 2], 130, seed=11,
                                                   threads=threads)
        out.append((render_csv(records),
                    json.dumps(summary, sort_keys=True)))
    assert out[0] == out[1]


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


def test_frame_choice_statistically_irrelevant():
    """x- and z-frame sampling of the same sector agree on the mean."""
    _, sz = run_ensemble_experiment(4, [0], 400, frame="z", seed=3, threads=1)
    _, sx = run_ensemble_experiment(4, [0], 400, frame="x", seed=4, threads=1)
    oz = sz["sectors"]["0"]["observed"]["xi2"]
    ox = sx["sectors"]["0"]["observed"]["xi2"]
    combined_se = math.hypot(oz["sem"], ox["sem"])
    assert abs(oz["mean"] - ox["mean"]) < 3 * combined_se


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


def test_cli_analytic_variance_coefficient_choice(capsys):
    code, out, _ = run_cli(
        capsys, ["analytic", "variance", "--L", "3", "--q", "1"])
    assert code == 0
    default = json.loads(out)
    assert default["second_moment_xi2"] == "13/35"
    code, out, _ = run_cli(
        capsys, ["analytic", "variance", "--L", "3", "--q", "1",
                 "--k2-coefficient", "printed-power"])
    assert code == 0
    printed = json.loads(out)
    assert printed["second_moment_xi2"] != default["second_moment_xi2"]


def test_cli_analytic_asymptotic_and_tilted(capsys):
    code, out, _ = run_cli(capsys, ["analytic", "asymptotic", "--s", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["m"] == pytest.approx(1.0) and data["g"] == pytest.approx(-3.0)
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
    lines = (tmp_path / "j.jsonl").read_text().splitlines()
    assert len(lines) == 10
    assert all(json.loads(line)["L"] == 2 for line in lines)


def test_cli_exit_codes(tmp_path, capsys):
    # usage error from argparse
    code, _, _ = run_cli(capsys, ["sample", "--no-such-flag"])
    assert code == 2
    # config errors
    code, _, err = run_cli(capsys, ["--config", str(tmp_path / "nope.cfg"),
                                    "sample"])
    assert code == 2 and "error" in err
    code, _, _ = run_cli(capsys, ["mixed", "--L", "2", "--q", "0",
                                  "--samples", "4"])
    assert code == 2  # no theta given
    code, _, _ = run_cli(capsys, ["sample", "--L", "13", "--q", "1",
                                  "--samples", "2"])
    assert code == 2  # over the size cap
    # numerical contract violation: transverse field breaks the charge
    code, _, err = run_cli(capsys, ["xxz", "--L", "4", "--h-x", "0.5",
                                    "--realizations", "1", "--seed", "0"])
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


def test_cli_degenerate_inputs_refused_up_front(capsys):
    for argv in (["sample", "--L", "4", "--samples", "0"],
                 ["variance-convergence", "--L", "4", "--samples", "0"],
                 ["mixed", "--L", "4", "--theta", "0.3", "--samples", "0"],
                 ["pe-check", "--L", "4", "--samples", "-1"],
                 ["csyk", "--L", "4", "--realizations", "0"],
                 ["self-averaging", "--L", "4", "--realizations", "0"],
                 ["self-averaging", "--L", "4", "--fraction", "0"]):
        _refused(capsys, argv + ["--seed", "0", "--threads", "1"])
    # an empty mid-spectrum band is known before any diagonalization
    err = _refused(capsys, ["self-averaging", "--L", "4", "--L", "6",
                            "--fraction", "0.01", "--threads", "1"])
    assert "keeps no eigenstate" in err and "L=4" in err


@pytest.mark.parametrize("argv", [
    ["csyk", "--L", "15", "--q", "1"],  # above the csyk builder's range
    ["csyk", "--L", "4", "--q", "1"],  # empty sector
    ["xxz", "--L", "1", "--q", "1"],  # below the chain builders' range
    ["xxz", "--L", "4", "--q", "1"],  # empty sector
    ["mfim", "--L", "1"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_cli_degenerate_disorder_request_refused(capsys, argv):
    _refused(capsys, argv + ["--threads", "1"])


def test_disorder_block_cap_refused_before_any_build(capsys, monkeypatch):
    monkeypatch.setattr(experiments, "_BLOCK_DIM_CAP", 19)
    err = _refused(capsys, ["xxz", "--L", "6", "--q", "0", "--threads", "1"])
    assert "dimension 20 > 19" in err
    err = _refused(capsys, ["self-averaging", "--L", "4", "--L", "6",
                            "--threads", "1"])
    assert "L=6" in err


def test_clean_model_is_built_once_per_chunk(monkeypatch):
    """xxz and mfim builders ignore the stream: a chunk of realizations
    builds one Hamiltonian and repeats its row, csyk builds one per key."""
    calls = []

    def counted(build):
        def wrapper(*args, **kwargs):
            calls.append(build)
            return build(*args, **kwargs)
        return wrapper

    for name in ("build_csyk", "build_xxz_nnn", "build_mfim"):
        monkeypatch.setattr(experiments, name,
                            counted(getattr(experiments, name)))
    for model, qs, built in (("xxz", [0], 1), ("mfim", None, 1),
                             ("csyk", [0], 3)):
        calls.clear()
        records, _ = experiments.run_disorder_sweep(
            model, 4, qs=qs, realizations=3, threads=1, fraction=0.5)
        assert len(calls) == built, model
        per_realization = {}
        for rec in records:
            per_realization.setdefault(rec.aux1, []).append(rec.value)
        assert len(per_realization) == 3
        if built == 1:
            assert len({tuple(v) for v in per_realization.values()}) == 1


def test_cli_window_and_fraction_together_refused(capsys):
    """Both band selectors at once is ambiguous: exit 2, not a silently
    dropped --fraction."""
    for argv in (["csyk", "--q", "0"], ["xxz", "--q", "0"], ["mfim"]):
        err = _refused(capsys, argv + ["--L", "4", "--window", "0.5",
                                       "--fraction", "0.1",
                                       "--realizations", "1",
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
    # values outside a key's choices
    ("L = 2\nsamples = 2\nframe = w\n", ["sample"]),
    ("L_values = 16\nxi_variant = bogus\n", ["collapse"]),
    # the file is for another experiment
    ("experiment = csyk\nL = 2\nsamples = 2\n", ["sample"]),
    # analytic payloads read no config file
    ("L = 2\nq = 0\n", ["analytic", "mean", "--L", "2", "--q", "0"]),
], ids=["pe-check-q", "mixed-q", "sample-window", "sample-realizations",
        "mfim-q", "collapse-threads", "frame", "xi-variant",
        "wrong-experiment", "analytic-config"])
def test_cli_config_keys_checked(tmp_path, capsys, text, argv):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    _refused(capsys, ["--config", str(cfg)] + argv)


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
