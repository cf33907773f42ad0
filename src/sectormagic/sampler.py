"""Deterministic sampling of sector-constrained Haar-random pure states.

Stream derivation: SHA-256 of "master:experiment:task" truncated to a
128-bit Philox key.  Uniform variates come from the bit generator's raw
64-bit output (the layer numpy guarantees stream-stable across versions);
Gaussians use an explicit Box-Muller transform with a fixed consumption
of two raw draws per complex amplitude, so there is no data-dependent
rejection and parallel tasks are bit-reproducible.  Keys and raw draws
are the same on any machine; the Gaussians' last bits follow numpy's
SIMD tier (np.log, np.exp), as the `harness.experiments` docstring says.

Many states at once.  `sector_haar_coefficients` draws one state per
stream key: one Philox is re-keyed per key, its raw draws fill one row of
a block, and the uniform map, the Box-Muller transform and the row
normalization each run once over the block.  Every element goes through
the same floating-point operations as in `constrained_haar_state`, so row
i is bitwise the coefficient vector drawn from GaussianStream(keys[i]).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .sectors import (SectorError, _check_sector, apply_frame_rotation,
                      enumerate_sector)

__all__ = [
    "SeedPolicy",
    "GaussianStream",
    "constrained_haar_state",
    "sector_haar_coefficients",
]

_TWO_PI = 2.0 * math.pi
_MASK64 = (1 << 64) - 1


def _philox_at(bitgen: np.random.Philox, key: int) -> np.random.Philox:
    """Put bitgen in the state np.random.Philox(key=key) starts in: counter
    0, an empty output buffer and the 128-bit key.  Setting the state takes
    a few microseconds; constructing a Philox first seeds a SeedSequence."""
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array([key & _MASK64, key >> 64],
                                  dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bitgen


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """Doubles uniform on (0, 1] from raw 64-bit draws (left-open so log is
    always finite); raw is overwritten."""
    raw >>= 11
    raw += 1
    return raw * 2.0 ** -53


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Standard complex Gaussians sqrt(-ln u) e^{2 pi i v}: u is the first
    half of the last axis, v the second half; the first half is
    overwritten.  The passes run in place, and e^{2 pi i v} *= r takes the
    same products and sums as r * e^{2 pi i v}.
    """
    n = u.shape[-1] // 2
    r = u[..., :n]
    np.log(r, out=r)
    np.negative(r, out=r)
    np.sqrt(r, out=r)
    z = np.multiply(1j * _TWO_PI, u[..., n:])
    np.exp(z, out=z)
    z *= r
    return z


def _normalize_rows(z: np.ndarray) -> np.ndarray:
    """Divide each row of z in place by its 2-norm, sqrt(re.re + im.im)
    from the two real dots np.linalg.norm computes for a complex vector,
    so a row gets the bits that dividing it by np.linalg.norm gives."""
    norms = np.empty((z.shape[0], 1))
    for norm, row in zip(norms, z):
        re, im = row.real, row.imag
        norm[0] = math.sqrt(re.dot(re) + im.dot(im))
    z /= norms
    return z


class GaussianStream:
    """Counter-based random stream with deterministic Gaussian output."""

    def __init__(self, key: int):
        self.key = key
        self._bitgen = _philox_at(np.random.Philox(0), key)

    def raw(self, n: int) -> np.ndarray:
        return self._bitgen.random_raw(n)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1] (left-open so log is always finite)."""
        return _uniforms(self.raw(n))

    def complex_normals(self, n: int) -> np.ndarray:
        """n i.i.d. standard complex Gaussians (E|z|^2 = 1): sqrt(-ln u) e^{2 pi i v}."""
        return _box_muller(self.uniforms(2 * n))


class SeedPolicy:
    """Derives independent child streams from one master seed.

    child key = SHA-256(master_seed ':' experiment_id ':' task_index)
    truncated to 128 bits, with the seed in its own decimal text, so no two
    seeds share streams.  Identical inputs give the same key and raw draws
    on any machine (the Gaussians: module docstring).
    """

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)

    def child_key(self, experiment_id: str, task_index: int) -> int:
        msg = f"{self.master_seed}:{experiment_id}:{task_index}".encode()
        return int.from_bytes(hashlib.sha256(msg).digest()[:16], "little")

    def child_keys(self, experiment_id: str, tasks) -> list:
        return [self.child_key(experiment_id, i) for i in tasks]

    def stream(self, experiment_id: str, task_index: int) -> GaussianStream:
        return GaussianStream(self.child_key(experiment_id, task_index))


def constrained_haar_state(L: int, q: int, frame="z", seed=0) -> np.ndarray:
    """Haar-random state constrained to charge sector q in the given frame.

    frame: 'x' | 'y' | 'z' or a Direction.  Draws d_q complex Gaussians on
    the z-sector basis, normalizes, embeds, and rotates into the frame.
    seed: a GaussianStream, drawn from where it stands, or an int.
    """
    _check_sector(L, q)
    basis = enumerate_sector(L, q)
    stream = (seed if isinstance(seed, GaussianStream)
              else SeedPolicy(int(seed)).stream("adhoc", 0))
    coeffs = stream.complex_normals(basis.dimension)
    psi = basis.embed(_normalize_rows(coeffs[None])[0])
    if frame != "z":
        psi = apply_frame_rotation(psi, frame)
    return psi


def sector_haar_coefficients(keys, d: int) -> np.ndarray:
    """(len(keys), d) coefficients of Haar-random states of a d-state
    sector on its basis, row i drawn from the stream keyed keys[i]: bitwise
    the coefficients constrained_haar_state draws from GaussianStream(key).
    """
    if d < 1:
        raise SectorError("empty sector")
    bitgen = np.random.Philox(0)
    raw = np.empty((len(keys), 2 * d), dtype=np.uint64)
    for row, key in zip(raw, keys):
        row[:] = _philox_at(bitgen, key).random_raw(2 * d)
    return _normalize_rows(_box_muller(_uniforms(raw)))
