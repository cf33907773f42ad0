"""Deterministic, platform-independent sampling of sector-constrained
Haar-random pure states.

Stream derivation: SHA-256 of "master:experiment:task" truncated to a
128-bit Philox key.  Uniform variates come from the bit generator's raw
64-bit output (the layer numpy guarantees stream-stable across versions);
Gaussians use an explicit Box-Muller transform with a fixed consumption
of two raw draws per complex amplitude, so there is no data-dependent
rejection and parallel tasks are bit-reproducible.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .sectors import (SectorBasisMap, SectorError, apply_frame_rotation,
                      enumerate_sector)

__all__ = [
    "SeedPolicy",
    "GaussianStream",
    "constrained_haar_state",
]

_TWO_PI = 2.0 * math.pi


class GaussianStream:
    """Counter-based random stream with deterministic Gaussian output."""

    def __init__(self, key: int):
        self.key = key
        self._bitgen = np.random.Philox(key=key)

    def raw(self, n: int) -> np.ndarray:
        return self._bitgen.random_raw(n)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1] (left-open so log is always finite)."""
        return ((self.raw(n) >> 11) + 1) * 2.0 ** -53

    def complex_normals(self, n: int) -> np.ndarray:
        """n i.i.d. standard complex Gaussians (E|z|^2 = 1): sqrt(-ln u) e^{2 pi i v}."""
        u = self.uniforms(2 * n)
        r = np.sqrt(-np.log(u[:n]))
        return r * np.exp(1j * _TWO_PI * u[n:])


class SeedPolicy:
    """Derives independent child streams from one master seed.

    child key = SHA-256(master_seed ':' experiment_id ':' task_index)
    truncated to 128 bits; identical inputs give bit-identical streams on
    every platform.
    """

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed) & 0xFFFFFFFFFFFFFFFF

    def child_key(self, experiment_id: str, task_index: int) -> int:
        msg = f"{self.master_seed}:{experiment_id}:{task_index}".encode()
        return int.from_bytes(hashlib.sha256(msg).digest()[:16], "little")

    def stream(self, experiment_id: str, task_index: int) -> GaussianStream:
        return GaussianStream(self.child_key(experiment_id, task_index))


def _as_stream(seed) -> GaussianStream:
    if isinstance(seed, GaussianStream):
        return seed
    return SeedPolicy(int(seed)).stream("adhoc", 0)


def _sector_or_raise(L: int, q: int) -> SectorBasisMap:
    basis = enumerate_sector(L, q)
    if basis.dimension == 0:
        raise SectorError(f"empty sector: L={L}, q={q}")
    return basis


def constrained_haar_state(L: int, q: int, frame="z", seed=0) -> np.ndarray:
    """Haar-random state constrained to charge sector q in the given frame.

    frame: 'x' | 'y' | 'z' or a Direction.  Draws d_q complex Gaussians on
    the z-sector basis, normalizes, embeds, and rotates into the frame.
    """
    basis = _sector_or_raise(L, q)
    coeffs = _as_stream(seed).complex_normals(basis.dimension)
    coeffs /= np.linalg.norm(coeffs)
    psi = basis.embed(coeffs)
    if frame != "z":
        psi = apply_frame_rotation(psi, frame)
    return psi
