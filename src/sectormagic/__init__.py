"""sectormagic: exact and Monte Carlo statistics of stabilizer purity for
charge-sector random states, with chaotic-Hamiltonian benchmarks.

Subpackages and modules
-----------------------
sectors       charge-sector bookkeeping and measurement-frame rotations
kravchuk      exact integer trigonometric Fourier kernels
moments       exact rational ensemble moments, tilted charges, PE references
asymptotics   large-L saddle-point predictions
sampler       deterministic sector-constrained Haar state generation
magic         stabilizer purity, entropy, participation entropy kernels
hamiltonians  quartic-fermion, XXZ-NNN and mixed-field Ising models
harness       experiments, streaming statistics, persistence, CLI
"""

from .sectors import (
    Direction,
    SectorBasisMap,
    SectorError,
    apply_frame_rotation,
    enumerate_sector,
    sector_dimension,
)
from .kravchuk import binomial, h_sum, kravchuk_int, kravchuk_row
from .moments import (
    AnalyticMoments,
    analytic_moments,
    haar_mean_sp2,
    levy_tail_bound,
    levy_variance_bound,
    m2_mean_bound,
    mean_sp2,
    mean_sp2_tilted,
    pe_moment_mean,
    pe_shannon_mean,
    porter_thomas_cdf,
    second_moment_sp2,
    tilted_m2_bound,
    variance_sp2,
)
from .asymptotics import (
    AsymptoticPrediction,
    asymptotic_prediction,
    nearest_sector_charge,
    tilted_asymptotic_q0,
)
from .sampler import (
    GaussianStream,
    SeedPolicy,
    constrained_haar_state,
)
from .magic import (
    participation_entropy,
    pauli_spectrum,
    shannon_pe,
    stabilizer_entropy,
)
from .hamiltonians import (
    EigenSystem,
    Hamiltonian,
    build_csyk,
    build_mfim,
    build_xxz_nnn,
    diagonalize,
    embed_eigenvector,
    extract_sector_block,
    midspectrum_filter,
)

__version__ = "0.1.0"
