"""End-to-end acceptance suite.

Each test checks one acceptance criterion and prints a single PASS/FAIL
verdict line directly on the terminal (bypassing pytest's capture), so the
twelve verdicts are visible in any run.  Statistical checks use fixed seeds;
the tolerance windows were chosen before the seeds were frozen.

AC-10 is expected to fail: the mid-spectrum stabilizer-entropy deficit of
the charge-conserving chain measures ~0.84 bits, far outside the stated
0.2 +- 0.1 window.  The ~0.2 offset is a property of full-spectrum
eigenstates of the non-conserving transverse-field model, reproduced in
test_hamiltonians.  The test asserts the criterion as stated and is marked
strict-xfail so the discrepancy stays visible without being silently waved
through.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sectormagic.asymptotics import asymptotic_prediction
from sectormagic.hamiltonians import build_csyk, extract_sector_block
from sectormagic.harness import (
    run_asymptotic_collapse,
    run_disorder_sweep,
    run_ensemble_experiment,
    run_mixed_charge,
    run_pe_check,
)
from sectormagic.harness import experiments
from sectormagic.harness.cli import main
from sectormagic.magic import pauli_spectrum
from sectormagic.moments import (
    levy_tail_bound,
    levy_variance_bound,
    m2_mean_bound,
    mean_sp2,
    mean_sp2_tilted,
    variance_sp2,
)
from sectormagic.sectors import Direction

from oracles import (dense_csyk, engine_mean, g_printed, haar_state,
                     xi_alpha_reference)

EPS_GRID = (0.01, 0.02, 0.05)


def _report(capsys, label, budget, body):
    """Run one criterion body, print its verdict, enforce its time budget."""
    t0 = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - t0
        if budget is not None:
            assert elapsed < budget, (
                f"{label}: runtime {elapsed:.1f} s exceeds {budget:.0f} s")
    except BaseException:
        with capsys.disabled():
            print(f"\n[{label}] FAIL ({time.perf_counter() - t0:.1f} s)",
                  flush=True)
        raise
    with capsys.disabled():
        print(f"\n[{label}] PASS ({elapsed:.1f} s)", flush=True)


@pytest.fixture(scope="session")
def ensemble_l8():
    """10^4 constrained-Haar samples in each of three L=8 sectors.

    Shared by the Monte Carlo cross-check, the entropy-inequality scan and
    the concentration checks; the sampling cost is paid once.
    """
    t0 = time.perf_counter()
    records, summary = run_ensemble_experiment(
        8, [0, 2, 4], 10_000, seed=20260823)
    return records, summary, time.perf_counter() - t0


@pytest.fixture(scope="session")
def tail_l10():
    """500 samples at (L=10, q=0) for the empirical tail fractions.

    The tail criterion targets this sector; 10^4 samples would take ~16 min
    of kernel time on one core, so the sample count is reduced and the full
    10^4-sample comparison is carried by the shared L=8 ensemble instead.
    """
    t0 = time.perf_counter()
    records, summary = run_ensemble_experiment(
        10, [0], 500, seed=11)
    return records, summary, time.perf_counter() - t0


def _xi2_values(records, q):
    return np.array([r.value for r in records
                     if r.q == q and r.observable == "xi2"])


def test_exact_mean_against_permutation_oracle(capsys):
    """AC-1: closed-form sector mean vs an independent symmetric-group sum."""
    def body():
        assert mean_sp2(2, 0) == Fraction(4, 5)
        assert abs(engine_mean(2, 0) - 0.8) < 1e-12
        assert abs(engine_mean(3, 1) - float(mean_sp2(3, 1))) < 1e-11
        for L in range(1, 13):
            assert mean_sp2(L, L) == 1
            assert mean_sp2(L, -L) == 1
    _report(capsys, "AC-1 exact mean vs permutation oracle", 1.0, body)


def test_fast_kernel_matches_dense_pauli_sweep(capsys):
    """AC-2: streamed purity kernel vs brute-force dense Pauli expectations."""
    def body():
        for L in range(1, 6):
            for k in range(100):
                psi = haar_state(L, 1000 * L + k)
                ref = xi_alpha_reference(psi, (2, 3))
                for alpha in (2, 3):
                    got = pauli_spectrum(psi, alpha)
                    assert abs(ref[alpha] - got) < 1e-10
    _report(capsys, "AC-2 fast kernel vs dense sweep", 30.0, body)


def test_monte_carlo_matches_exact_moments(capsys, ensemble_l8):
    """AC-3: sampled mean/variance of Xi_2 vs the exact sector moments."""
    def body():
        _, summary, sampling_time = ensemble_l8
        assert sampling_time < 295.0
        for q in (0, 2, 4):
            sec = summary["sectors"][str(q)]
            obs = sec["observed"]["xi2"]
            ana = sec["analytic"]
            assert obs["count"] == 10_000
            z = (obs["mean"] - ana["mean_xi2"]) / obs["sem"]
            assert abs(z) <= 4.0, f"q={q}: mean off by {z:.2f} SE"
            ratio = obs["variance"] / ana["variance_xi2"]
            assert 0.6 <= ratio <= 1.6, f"q={q}: variance ratio {ratio:.3f}"
    _report(capsys, "AC-3 Monte Carlo vs exact moments", 300.0, body)


def test_charge_symmetry_and_haar_gap(capsys):
    """AC-4: moments even in q; sector mean one bit below the Haar baseline."""
    def body():
        for L in range(1, 13):
            for q in range(L % 2, L + 1, 2):
                assert mean_sp2(L, q) == mean_sp2(L, -q)
                assert variance_sp2(L, q) == variance_sp2(L, -q)
        gap = math.log2((2 ** 20 + 3) / 4) - m2_mean_bound(20, 0)
        assert abs(gap - 1.0) < 0.05, f"half-filling gap {gap:.4f}"
    _report(capsys, "AC-4 charge symmetry and Haar gap", 10.0, body)


def test_finite_size_collapse(capsys):
    """AC-5: L*(exact - asymptote) collapses across L in {64, 128, 256}."""
    def body():
        _, summary = run_asymptotic_collapse([64, 128, 256], [0.5])
        cell = summary["per_s"][0]
        for row in cell["rows"]:
            assert math.isfinite(row["scaled_residual"])
        assert cell["relative_spread"] < 0.10, (
            f"spread {cell['relative_spread']:.4f}")
    _report(capsys, "AC-5 finite-size collapse", 60.0, body)


def test_subleading_constant_resolved(capsys):
    """AC-6: exact large-L limit of the offset pins g(0) = -3, not -6."""
    def body():
        pred = asymptotic_prediction(0.0)
        assert pred.m == 1.0 and pred.g == -3.0
        g_limit = m2_mean_bound(64, 0) - 64 * pred.m
        assert abs(g_limit - pred.g) < 0.05, f"limit {g_limit:.5f}"
        # the printed fluctuation factor lands near -6 and is excluded
        assert abs(g_printed(0.0) - g_limit) > 2.5
    _report(capsys, "AC-6 subleading constant", 60.0, body)


def test_tilted_axis_reduction_and_sweep(capsys):
    """AC-7: tilted formula reduces to the sector mean on the z axis and
    tracks sampling along a tilted constraint axis."""
    def body():
        z_axis = Direction(0.0, 0.0, 1.0)
        for L in range(1, 9):
            for q in range(L % 2, L + 1, 2):
                exact = float(mean_sp2(L, q))
                assert abs(mean_sp2_tilted(L, q, z_axis) - exact) <= 1e-10
        thetas = [k * math.pi / 14 for k in range(8)]
        _, summary = run_mixed_charge(6, 0, thetas, 200, seed=7, threads=1)
        for cell in summary["sweep"]:
            assert abs(cell["mean_z"]) <= 4.5, (
                f"theta={cell['theta']:.3f}: {cell['mean_z']:.2f} SE")
    _report(capsys, "AC-7 tilted-axis reduction and sweep", 300.0, body)


def test_participation_entropy_suite(capsys, ensemble_l8):
    """AC-8: Dirichlet moments, Porter-Thomas law, and M2 <= 2 S2 on every
    sample."""
    def body():
        records, _, _ = ensemble_l8
        for q in (0, 2, 4):
            m2s = [r.value for r in records
                   if r.q == q and r.observable == "m2"]
            s2s = [r.value for r in records
                   if r.q == q and r.observable == "s2"]
            assert len(m2s) == 10_000 and len(s2s) == 10_000
            assert all(m <= 2 * s + 1e-9 for m, s in zip(m2s, s2s))
        _, pe = run_pe_check(8, 0, 10_000, seed=5, threads=1)
        assert abs(pe["ipr2"]["mean_z"]) <= 4.0
        assert abs(pe["shannon_pe"]["mean_z"]) <= 4.0
        assert pe["porter_thomas"]["ks_pvalue"] > 0.01
    _report(capsys, "AC-8 participation-entropy suite", 120.0, body)


def test_quartic_fermion_benchmark(capsys):
    """AC-9: mid-spectrum eigenstates of the quartic fermion model reach the
    sector prediction; charge conservation is exact; the single-particle
    sector block vanishes identically."""
    def body():
        _, summary = run_disorder_sweep(
            "csyk", 8, q=[0, 2, -2, -6], realizations=100, fraction=0.1,
            seed=7, threads=1)
        sec0 = summary["sectors"]["0"]
        assert abs(sec0["m2_deficit"]) <= 0.05, (
            f"q=0 deficit {sec0['m2_deficit']:.4f}")
        assert 0.55 <= sec0["gap_ratio"]["mean"] <= 0.65
        for key in ("2", "-2"):
            assert abs(summary["sectors"][key]["m2_deficit"]) <= 0.05
        empty = summary["sectors"]["-6"]
        assert empty["degenerate"] is True
        assert empty["m2"]["mean"] == 0.0
        assert empty["dimension"] == 8

        H = build_csyk(8, seed=123)
        # the dense operator of this realization has no element between
        # states of unequal charge 2 N_f - L, i.e. it commutes with Q
        qvec = 2 * np.bitwise_count(np.arange(2 ** 8)).astype(int) - 8
        ref = dense_csyk(H)
        off = ref[qvec[:, None] != qvec[None, :]]
        assert off.size and not np.any(off)
        block, basis = extract_sector_block(H, -6)
        assert basis.dimension == 8 and block.shape == (8, 8)
        assert not np.any(block)
    _report(capsys, "AC-9 quartic-fermion benchmark", 600.0, body)


@pytest.mark.xfail(strict=True, reason=(
    "mid-spectrum deficit of the charge-conserving chain measures ~0.84 "
    "bits, not 0.2 +- 0.1; the ~0.2 offset belongs to full-spectrum "
    "eigenstates of the non-conserving transverse-field model "
    "(see test_hamiltonians)"))
def test_conserving_chain_midspectrum_offset(capsys):
    """AC-10: stated criterion for the conserving chain, asserted as given."""
    def body():
        _, summary = run_disorder_sweep(
            "xxz", 10, q=[0], realizations=1, window=0.25, seed=0, threads=1,
            J1=1.0, delta=0.5, J2=0.6, h_b=0.25)
        deficit = summary["sectors"]["0"]["m2_deficit"]
        assert abs(deficit - 0.2) <= 0.1, (
            f"mid-spectrum deficit {deficit:.4f} outside 0.2 +- 0.1")
    _report(capsys, "AC-10 conserving-chain offset", 300.0, body)


def test_concentration_bounds(capsys, ensemble_l8, tail_l10):
    """AC-11: exact variance under the concentration bound in every sector;
    empirical tail fractions under the tail bound."""
    def body():
        for L in range(1, 13):
            for q in range(L % 2, L + 1, 2):
                assert float(variance_sp2(L, q)) <= levy_variance_bound(L, q)

        def check_tails(records, L, q):
            center = float(mean_sp2(L, q))
            xs = _xi2_values(records, q)
            for eps in EPS_GRID:
                frac = float(np.mean(np.abs(xs - center) >= eps))
                assert frac <= levy_tail_bound(L, q, eps)

        rec10, _, sampling_time = tail_l10
        assert sampling_time < 115.0
        check_tails(rec10, 10, 0)
        rec8, _, _ = ensemble_l8
        for q in (0, 2, 4):
            check_tails(rec8, 8, q)
    _report(capsys, "AC-11 concentration bounds", 120.0, body)


def test_worker_count_invariance(capsys, tmp_path, monkeypatch):
    """AC-12: identical configs give byte-identical CSV and summary files
    regardless of worker count."""
    # three CPUs, so that --threads 3 runs three workers on any machine
    monkeypatch.setattr(experiments.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2}, raising=False)

    def body():
        outputs = []
        for name, threads in (("a", "1"), ("b", "3"), ("c", "1")):
            prefix = tmp_path / name
            code = main(["sample", "--L", "6", "--q", "0", "--q", "2",
                         "--samples", "130", "--seed", "9",
                         "--threads", threads, "--out", str(prefix)])
            assert code == 0
            csv = (tmp_path / f"{name}.csv").read_bytes()
            js = (tmp_path / f"{name}.summary.json").read_bytes()
            outputs.append((csv, js))
        assert outputs[0] == outputs[1] == outputs[2]
        # 2 sectors x 130 samples x 4 observables plus the header line
        assert outputs[0][0].count(b"\n") == 2 * 130 * 4 + 1
    _report(capsys, "AC-12 worker-count invariance", None, body)
