"""Spin-chain and complex-fermion Hamiltonians with a conserved (or
deliberately broken) U(1) charge, assembled block by block on the sector
basis, plus a checked eigensolver.

Models
------
csyk  complex SYK_4: H = 4 (2L)^{-3/2} sum_{i<j, k<l} J_{ij;kl}
      cdag_i cdag_j c_k c_l on L fermion modes, J Hermitian in the pair
      indices, mapped to qubits by Jordan-Wigner.  Charge Q = 2 N_f - L.
xxz   open XXZ chain with a three-site ZZZ coupling, boundary z fields of
      opposite sign, and an optional transverse field that breaks the
      U(1).  Charge q = L - 2 N_down (z magnetization).
mfim  mixed-field Ising chain (no conserved charge).

A builder only fixes the couplings; extract_sector_block assembles the
charge-q block on the sector's basis states (q=None: all 2^L states).
Qubit 0 is the least significant bit of the basis index.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .sectors import SectorBasisMap, enumerate_sector
from .sampler import GaussianStream, SeedPolicy

__all__ = [
    "NumericalContractError",
    "CouplingTensor",
    "Hamiltonian",
    "EigenSystem",
    "L_RANGE",
    "COUPLINGS",
    "build_csyk",
    "build_xxz_nnn",
    "build_mfim",
    "extract_sector_block",
    "embed_eigenvector",
    "diagonalize",
    "midspectrum_filter",
    "adjacent_gap_ratio",
]

_HERMITICITY_TOL = 1e-12
_EIG_TOL = 1e-10
#: rows and columns per tile or slice of the block-wide Hermitian work:
#: its temporaries stay a few tiles, not blocks
_TILE = 128

#: smallest and largest L of every builder; the largest bounds every
#: command, sampling too, since each state it measures has 2^L amplitudes
#: for the O(L 4^L) Pauli kernel
L_RANGE = (2, 14)


class NumericalContractError(RuntimeError):
    """A numerical post-condition (Hermiticity, residual, orthonormality,
    charge conservation) failed beyond tolerance."""


@dataclass(frozen=True)
class CouplingTensor:
    """Hermitian two-body couplings J[(i<j), (k<l)] over ordered mode pairs."""

    L: int
    pairs: tuple  # tuple of (i, j) with i < j, lexicographic
    values: np.ndarray  # (P, P) complex, values[p, p'] = J_{pairs[p]; pairs[p']}

    def __post_init__(self):
        v = self.values
        if np.max(np.abs(v - v.conj().T)) > _HERMITICITY_TOL:
            raise NumericalContractError("coupling tensor not Hermitian")


@dataclass(frozen=True)
class Hamiltonian:
    """One operator of a model: the spin-chain couplings (params) or the
    csyk coupling tensor, never a matrix."""

    model: str
    L: int
    params: dict = field(default_factory=dict)
    couplings: CouplingTensor | None = None


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and phase-fixed orthonormal eigenvectors
    (column i belongs to values[i])."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dimension(self) -> int:
        return self.values.size


def _check_L(model: str, L: int):
    lo, hi = L_RANGE
    if not lo <= L <= hi:
        raise ValueError(f"{model} supports {lo} <= L <= {hi}, got {L}")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_csyk(L: int, seed=0) -> Hamiltonian:
    """Draw one complex-SYK realization on L modes.

    The pair-basis coupling matrix is J = (G + Gdag)/sqrt(2) with G iid
    standard complex Gaussian, so J_{kl;ij} = conj(J_{ij;kl}), off-diagonal
    entries have unit mean square modulus and diagonal entries are real
    N(0, 1).  Prefactor 4 (2L)^{-3/2}.
    """
    _check_L("csyk", L)
    if not isinstance(seed, GaussianStream):
        seed = SeedPolicy(int(seed)).stream("hamiltonian", 0)
    pairs = tuple(itertools.combinations(range(L), 2))
    P = len(pairs)
    g = seed.complex_normals(P * P).reshape(P, P)
    J = (g + g.conj().T) / math.sqrt(2.0)
    return Hamiltonian("csyk", L,
                       couplings=CouplingTensor(L=L, pairs=pairs, values=J))


def build_xxz_nnn(L: int, J1=1.0, delta=0.5, J2=0.0, h_b=0.0,
                  h_x=0.0) -> Hamiltonian:
    """Open XXZ chain with a three-site ZZZ term and boundary pinning:

        H = sum_j [J1 (X_j X_{j+1} + Y_j Y_{j+1}) + delta Z_j Z_{j+1}]
          + J2 sum_j Z_j Z_{j+1} Z_{j+2} + h_b (Z_0 - Z_{L-1})
          + h_x sum_j X_j.

    The odd-Z triple term breaks global spin flip, and h_b breaks
    inversion, so no discrete symmetry survives inside a magnetization
    sector.  h_x != 0 breaks the U(1) itself: only the full space (q=None)
    can then be assembled, and a sector request fails its conservation
    check.
    """
    _check_L("xxz", L)
    return Hamiltonian("xxz", L, params=dict(J1=J1, delta=delta, J2=J2,
                                             h_b=h_b, h_x=h_x))


def build_mfim(L: int, g=1.1, h=0.35, h1=0.25, hL=-0.25) -> Hamiltonian:
    """Mixed-field Ising chain (open) with boundary longitudinal fields:

        H = sum_j Z_j Z_{j+1} + g sum_j X_j + h sum_j Z_j + h1 Z_0 + hL Z_{L-1}.

    Nonintegrable at the default couplings; no conserved charge.
    """
    _check_L("mfim", L)
    return Hamiltonian("mfim", L, params=dict(g=g, h=h, h1=h1, hL=hL))


#: model -> {coupling: default}: the parameters after L of its builder, in
#: signature order (csyk draws its couplings per realization and takes none)
COUPLINGS = {"csyk": {}, **{
    model: {p.name: p.default
            for p in list(inspect.signature(build).parameters.values())[1:]}
    for model, build in (("xxz", build_xxz_nnn), ("mfim", build_mfim))}}


# ---------------------------------------------------------------------------
# sectors and diagonalization
# ---------------------------------------------------------------------------

def _sector_basis(model: str, L: int, q) -> SectorBasisMap:
    """Basis of the charge-q block; q=None is the full 2^L space."""
    if q is None:
        return SectorBasisMap(L=L, q=None,
                              states=np.arange(2 ** L, dtype=np.int64))
    if model == "mfim":
        raise ValueError(f"model {model!r} has no conserved charge")
    # the csyk charge 2 popcount - L is minus the z-charge of sectors.py
    states = enumerate_sector(L, -q if model == "csyk" else q).states
    if states.size == 0:
        raise ValueError(f"charge {q} absent for model {model!r} at L={L}")
    return SectorBasisMap(L=L, q=q, states=states)


def _positions(basis: SectorBasisMap, targets: np.ndarray) -> np.ndarray:
    """Positions of target states in the basis; a target outside it means
    the term does not conserve the charge."""
    pos = np.minimum(np.searchsorted(basis.states, targets),
                     basis.dimension - 1)
    if np.any(basis.states[pos] != targets):
        raise NumericalContractError(
            f"charge not conserved: a term leaves the q={basis.q} sector "
            f"at L={basis.L}")
    return pos


@functools.cache
def _csyk_index_maps(L: int, q):
    """Assembly maps of the two-body term on the csyk charge-q basis: for
    every basis state x and every ((i<j), (k<l)) with k, l occupied in x
    and i, j free after their removal, the row and column positions, the
    fermionic sign and the flat coupling index (i, j) * P + (k, l).

    Entries run by x, then (k, l), then (i, j), each ascending: the order
    in which np.add.at accumulates duplicates, fixed so blocks are
    reproducible bit for bit.  The maps are filled 64 basis states at a
    time, in that order, so no temporary spans the whole basis.
    """
    basis = _sector_basis("csyk", L, q)
    lo, hi = np.array(list(itertools.combinations(range(L), 2)),
                      dtype=np.int64).T
    pbits = (1 << lo) | (1 << hi)
    # annihilate l then k, create j then i: each Jordan-Wigner string
    # counts the modes below its site (k < l, i < j keep the partner out)
    below = (1 << np.arange(L)) - 1
    parts = []
    for first in range(0, basis.dimension, 64):
        x = basis.states[first : first + 64, None]
        y0 = x ^ pbits  # c_k c_l applied, where both are occupied
        cols, kl, ij = np.nonzero(((x & pbits) == pbits)[:, :, None]
                                  & ((y0[:, :, None] & pbits) == 0))
        x, y0 = x[cols, 0], y0[cols, kl]
        strings = sum(np.bitwise_count(v & below[site]) for v, site in (
            (x, hi[kl]), (x, lo[kl]), (y0, hi[ij]), (y0, lo[ij])))
        parts.append((_positions(basis, y0 | pbits[ij]), cols + first,
                      1.0 - 2.0 * (strings & 1), ij * lo.size + kl))
    maps = tuple(np.concatenate(a) for a in zip(*parts))
    for a in maps:  # shared by every caller through the cache
        a.flags.writeable = False
    return maps


def _csyk_block(H: Hamiltonian, basis: SectorBasisMap) -> np.ndarray:
    rows, cols, signs, cidx = _csyk_index_maps(H.L, basis.q)
    block = np.zeros((basis.dimension,) * 2, dtype=np.complex128)
    np.add.at(block, (rows, cols),
              signs * H.couplings.values.reshape(-1)[cidx])
    block *= 4.0 * (2 * H.L) ** -1.5
    # the Hermiticity delta and (block + block^H) / 2, in place, one pair of
    # mirrored tiles at a time; each entry takes the whole-block operations
    delta = 0.0
    for i in range(0, block.shape[0], _TILE):
        for j in range(i, block.shape[0], _TILE):
            a = block[i : i + _TILE, j : j + _TILE]
            b = block[j : j + _TILE, i : i + _TILE]
            delta = max(delta, float(np.max(np.abs(a - b.conj().T))))
            upper = a + b.conj().T
            upper /= 2
            if j > i:
                b += a.conj().T
                b /= 2
            a[...] = upper
    if delta > _HERMITICITY_TOL:
        raise NumericalContractError(f"csyk assembly non-Hermitian by {delta}")
    return block


def _z(basis: SectorBasisMap) -> np.ndarray:
    """(L, d) sigma^z eigenvalues of the basis states: bit 0 -> +1."""
    return 1.0 - 2.0 * ((basis.states >> np.arange(basis.L)[:, None]) & 1)


def _xxz_block(H: Hamiltonian, basis: SectorBasisMap) -> np.ndarray:
    p, L, x = H.params, H.L, basis.states
    z = _z(basis)
    diag = np.zeros(x.size)
    for j in range(L - 1):
        diag += p["delta"] * z[j] * z[j + 1]
    for j in range(L - 2):
        diag += p["J2"] * z[j] * z[j + 1] * z[j + 2]
    diag += p["h_b"] * (z[0] - z[L - 1])
    block = np.diag(diag)
    for j in range(L - 1):
        cols = np.nonzero(((x >> j) & 1) != ((x >> (j + 1)) & 1))[0]
        block[_positions(basis, x[cols] ^ (3 << j)), cols] += 2.0 * p["J1"]
    if p["h_x"] != 0.0:
        for j in range(L):
            rows = _positions(basis, x ^ (1 << j))
            block[rows, np.arange(x.size)] += p["h_x"]
    return block


def _mfim_block(H: Hamiltonian, basis: SectorBasisMap) -> np.ndarray:
    p, L, x = H.params, H.L, basis.states
    z = _z(basis)
    diag = p["h"] * z.sum(axis=0) + p["h1"] * z[0] + p["hL"] * z[L - 1]
    for j in range(L - 1):
        diag += z[j] * z[j + 1]
    block = np.diag(diag)
    for j in range(L):
        block[_positions(basis, x ^ (1 << j)), np.arange(x.size)] += p["g"]
    return block


_BLOCKS = {"csyk": _csyk_block, "xxz": _xxz_block, "mfim": _mfim_block}


def extract_sector_block(H: Hamiltonian, q):
    """The charge-q block of H, assembled on the sector basis; q=None gives
    the full 2^L space.

    Returns (block, basis) where basis maps block positions back to full
    basis states.  A term that leaves the sector (xxz with h_x != 0) raises
    NumericalContractError; an absent charge raises ValueError.
    """
    basis = _sector_basis(H.model, H.L, q)
    # finite couplings can overflow an entry; diagonalize is the one place
    # that reports a non-finite block
    with np.errstate(over="ignore", invalid="ignore"):
        return _BLOCKS[H.model](H, basis), basis


def embed_eigenvector(v: np.ndarray, basis: SectorBasisMap) -> np.ndarray:
    """Lift a sector eigenvector to the full 2^L Hilbert space."""
    return basis.embed(np.asarray(v))


def diagonalize(matrix: np.ndarray) -> EigenSystem:
    """Full Hermitian eigendecomposition with deterministic phases.

    A non-finite entry is refused before eigh, which cannot take one.
    Each eigenvector is rotated so its largest-modulus component (first
    index on ties) is real positive.  Residual ||Hv - Ev|| <= 1e-10 ||H||
    and orthonormality to 1e-10 are enforced.  The checks and the phase
    fix run on slices of _TILE columns, so their temporaries stay a few
    slices; the Gram check takes each slice's rows against the columns
    from the slice on, so it covers every pair i <= j once.  The vectors
    are eigh's own column-major array, phases divided out in place, so
    each eigenvector is a contiguous column.
    """
    Hm = np.asarray(matrix)
    slices = [slice(s, s + _TILE) for s in range(0, Hm.shape[1], _TILE)]
    delta = big = 0.0
    for s in slices:
        # np.max passes a NaN on, where the Python max below drops it
        col_max = float(np.max(np.abs(Hm[:, s])))
        if not math.isfinite(col_max):
            raise NumericalContractError("matrix has a non-finite entry")
        delta = max(delta, float(np.max(np.abs(Hm[:, s] - Hm[s].conj().T))))
        big = max(big, col_max)
    if delta > _HERMITICITY_TOL * max(1.0, big):
        raise NumericalContractError("matrix is not Hermitian")
    import scipy.linalg  # here, so commands that never diagonalize skip it

    # the scan above has read every entry; eigh need not read them again
    evals, evecs = scipy.linalg.eigh(Hm, check_finite=False)
    for s in slices:
        v = evecs[:, s]
        lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
        # a real matrix has real vectors and real phases: no cast needed
        v /= np.where(np.abs(lead) > 0, lead / np.abs(lead), 1.0)

    scale = float(np.max(np.abs(evals))) if evals.size else 0.0
    resid = ortho = 0.0
    for s in slices:
        v = evecs[:, s]
        r = Hm @ v
        r -= v * evals[s]
        resid = max(resid, float(np.max(np.abs(r))))
        gram = v.conj().T @ evecs[:, s.start:]  # rows s, columns from s on
        k = np.arange(v.shape[1])
        gram[k, k] -= 1.0
        ortho = max(ortho, float(np.max(np.abs(gram))))
    if resid > _EIG_TOL * max(scale, 1.0):
        raise NumericalContractError(f"eigen residual {resid} too large")
    if ortho > _EIG_TOL:
        raise NumericalContractError(f"eigenvectors not orthonormal: {ortho}")
    return EigenSystem(values=evals, vectors=evecs)


def midspectrum_filter(evals: np.ndarray, L: int, window: float | None = None,
                       fraction: float | None = None) -> np.ndarray:
    """Indices of mid-spectrum eigenvalues.

    window:   keep |E / L| < window (strict).
    fraction: keep the central round(fraction * n) eigenvalues by sorted
              position, starting at (n - k) // 2; 0 <= fraction <= 1.
    Exactly one selector must be given.
    """
    evals = np.asarray(evals)
    if (window is None) == (fraction is None):
        raise ValueError("give exactly one of window= or fraction=")
    if fraction is not None and not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if window is not None:
        return np.nonzero(np.abs(evals / L) < window)[0]
    n = evals.size
    k = int(round(fraction * n))
    order = np.argsort(evals, kind="stable")
    start = (n - k) // 2
    return np.sort(order[start : start + k])


def adjacent_gap_ratio(evals: np.ndarray) -> float:
    """Mean adjacent-gap ratio <r> = <min(s_i, s_{i+1}) / max(s_i, s_{i+1})>.

    Pairs with a vanishing larger gap (exact degeneracies) are excluded;
    returns nan if nothing survives.
    """
    s = np.diff(np.sort(np.asarray(evals, dtype=float)))
    a = np.minimum(s[:-1], s[1:])
    b = np.maximum(s[:-1], s[1:])
    keep = b > 0
    if not np.any(keep):
        return float("nan")
    return float(np.mean(a[keep] / b[keep]))
