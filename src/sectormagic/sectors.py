"""Computational-basis indexing, charge sectors, and measurement-frame
rotations.

Bit convention: bit j of a basis index x is the state of qubit j, with
qubit 0 the least significant bit; bit value 1 means |1>, i.e. sigma^z
eigenvalue -1.  The z-charge of a bitstring is therefore

    q(x) = L - 2 * popcount(x),

and the sector of charge q collects the C(L, (L-q)/2) bitstrings with
popcount (L-q)/2 (empty unless |q| <= L and L-q is even).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SectorError",
    "popcount",
    "sector_dimension",
    "SectorBasisMap",
    "enumerate_sector",
    "Direction",
    "frame_rotation_matrix",
    "apply_frame_rotation",
]


class SectorError(ValueError):
    """Requested charge sector is empty."""


def popcount(x):
    """Number of set bits; works on Python ints and integer ndarrays."""
    if isinstance(x, (int, np.integer)):
        return int(x).bit_count()
    return np.bitwise_count(np.asarray(x, dtype=np.uint64)).astype(np.int64)


def sector_dimension(L: int, q: int) -> int:
    """Dimension C(L, (L-q)/2) of the charge-q sector; 0 if empty.

    Total function: parity violations and |q| > L give 0.
    """
    if L < 1 or abs(q) > L or (L - q) % 2 != 0:
        return 0
    return math.comb(L, (L - q) // 2)


def _check_sector(L: int, q: int) -> int:
    """Dimension of the charge-q sector; SectorError if it is empty."""
    d = sector_dimension(L, q)
    if d == 0:
        raise SectorError(f"empty sector: L={L}, q={q}")
    return d


def _qubit_count(state: np.ndarray) -> int:
    """L of a 2^L-amplitude state; ValueError for any other length."""
    n = state.size
    L = n.bit_length() - 1
    if 2 ** L != n:
        raise ValueError("state length must be a power of two")
    return L


@dataclass(frozen=True)
class SectorBasisMap:
    """Ordered basis of a charge sector.

    `states` lists the member bitstrings in strictly increasing order:
    sector position i holds the full-space index states[i].
    """

    L: int
    q: int
    states: np.ndarray  # int64, strictly increasing

    @property
    def dimension(self) -> int:
        return len(self.states)

    def embed(self, coeffs: np.ndarray) -> np.ndarray:
        """Scatter sector coefficients into a full 2^L amplitude vector."""
        full = np.zeros(2 ** self.L, dtype=complex)
        full[self.states] = coeffs
        return full


@functools.cache
def enumerate_sector(L: int, q: int) -> SectorBasisMap:
    """All bitstrings of charge q, ascending. Empty sector -> empty map.

    Memoized per (L, q): every caller shares one map, whose `states` array
    is read-only.
    """
    if sector_dimension(L, q) == 0:
        states = np.empty(0, dtype=np.int64)
    else:
        xs = np.arange(2 ** L, dtype=np.int64)
        states = xs[popcount(xs) == (L - q) // 2]
    states.flags.writeable = False
    return SectorBasisMap(L, q, states)


@dataclass(frozen=True)
class Direction:
    """Unit vector n on the Bloch sphere defining a charge axis."""

    nx: float
    ny: float
    nz: float

    def __post_init__(self):
        if abs(self.norm - 1.0) > 1e-12:
            raise ValueError(f"direction must be unit length, got |n| = {self.norm}")

    @property
    def norm(self) -> float:
        return math.sqrt(self.nx ** 2 + self.ny ** 2 + self.nz ** 2)

    @classmethod
    def from_axis(cls, axis: str) -> "Direction":
        return {
            "x": cls(1.0, 0.0, 0.0),
            "y": cls(0.0, 1.0, 0.0),
            "z": cls(0.0, 0.0, 1.0),
        }[axis]

    @classmethod
    def from_angles(cls, theta: float, phi: float = 0.0) -> "Direction":
        st = math.sin(theta)
        return cls(st * math.cos(phi), st * math.sin(phi), math.cos(theta))

    @classmethod
    def of(cls, spec) -> "Direction":
        """A Direction from a Direction, an axis name or a vector (which is
        normalized)."""
        if isinstance(spec, Direction):
            return spec
        if isinstance(spec, str):
            return cls.from_axis(spec)
        return cls.normalized(spec)

    @classmethod
    def normalized(cls, n) -> "Direction":
        v = np.asarray(n, dtype=float)
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            raise ValueError("zero direction vector")
        return cls(*(v / nrm))

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.nx, self.ny, self.nz])

    @property
    def theta(self) -> float:
        return math.acos(max(-1.0, min(1.0, self.nz)))

    @property
    def phi(self) -> float:
        return math.atan2(self.ny, self.nx)

    def rotation(self) -> np.ndarray:
        """Single-qubit unitary U with U sigma^z U^dagger = n . sigma."""
        th, ph = self.theta, self.phi
        ry = np.array(
            [
                [math.cos(th / 2), -math.sin(th / 2)],
                [math.sin(th / 2), math.cos(th / 2)],
            ]
        )
        rz = np.diag([np.exp(-0.5j * ph), np.exp(0.5j * ph)])
        return rz @ ry


_SQ2 = 1.0 / math.sqrt(2.0)
_HADAMARD = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_UY = np.array([[_SQ2, 1j * _SQ2], [1j * _SQ2, _SQ2]], dtype=complex)  # (I+iX)/sqrt2


def frame_rotation_matrix(frame) -> np.ndarray:
    """Single-qubit rotation of a measurement frame.

    'z' is the identity, 'x' the Hadamard, 'y' the rotation (I+iX)/sqrt(2)
    (a -pi/2 rotation about x); a Direction gives the composite z-then-y
    Euler rotation.  In every case U sigma^z U^dagger = n . sigma.
    """
    if isinstance(frame, Direction):
        return frame.rotation()
    if frame == "z":
        return np.eye(2, dtype=complex)
    if frame == "x":
        return _HADAMARD.copy()
    if frame == "y":
        return _UY.copy()
    raise ValueError(f"unknown frame {frame!r}")


def apply_frame_rotation(state: np.ndarray, frame, inverse: bool = False) -> np.ndarray:
    """Apply the frame rotation U^{(x) L} to a state (U^dagger if inverse).

    Maps z-sector states to frame-sector states.  Implemented as L
    single-qubit tensor contractions, O(L 2^L); returns a new array.
    """
    U = frame_rotation_matrix(frame)
    if inverse:
        U = U.conj().T
    out = np.asarray(state, dtype=complex).copy()
    for j in range(_qubit_count(out)):
        v = out.reshape(-1, 2, 2 ** j)
        a = U[0, 0] * v[:, 0, :] + U[0, 1] * v[:, 1, :]
        b = U[1, 0] * v[:, 0, :] + U[1, 1] * v[:, 1, :]
        v[:, 0, :] = a
        v[:, 1, :] = b
    return out
