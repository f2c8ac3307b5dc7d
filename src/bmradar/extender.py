"""Virtual spatiotemporal snapshot construction.

For each Tx antenna m, a blocking matrix collects every *other* antenna's
delayed-Doppler code at the estimated target parameters; projecting a
fast-time vector onto the orthogonal complement of that column space
isolates antenna m's contribution.  Stacking the projected per-antenna
copies of every Rx channel turns an (n_rx x L) PRI into a virtual snapshot
of length n_bar * n_rx * L, ordered (tx antenna m, rx antenna i, fast
time t).

Projectors are never materialised: with Q an orthonormal basis of the
blocker columns, P v = v - Q (Q^H v).  This keeps the per-vector cost at
O(L * rank) and sidesteps the ill-conditioned normal-equations inverse
when two targets nearly coincide in delay and Doppler.

Nor is the snapshot matrix V (n_bar * n_rx * L rows, one column per
PRI).  Stage 2 asks V two things: its gram, for the subspace split, and
V^H P h, for the cost.  The gram comes from VirtualSnapshots, a view of
the cube and the blockers; it follows from P_m being a Hermitian
idempotent,

    V^H V = n_bar Y^H Y - sum_m Z_m^H Z_m,    Z_m = (I_rx kron Q_m^H) Y,

with Y the (n_rx * L) x n_s PRI matrix, and every Z_m comes from one
product of the cube's fast-time rows with the stacked bases [Q_0 ... ].
V^H P h needs no view at all: it is the sum over (m, i) of
Y_i^H P_m h_mi, h_mi the (m, i) block of h, for the same reason (see
prepare_xi2_context).  ``VirtualSnapshots.matrix`` still materialises
V, as the reference for both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import DataCube
from .manifold import transformation_matrix
from .scenario import SystemConfig
from .waveform import CodeMatrix

__all__ = [
    "BlockerSet",
    "VirtualSnapshots",
    "build_blockers",
    "apply_virtual_extension",
]

# Columns with singular value below this fraction of the largest are
# treated as rank-deficient and dropped (deterministically).
RANK_TOLERANCE = 1e-8


@dataclass(frozen=True)
class BlockerSet:
    """Per-Tx-antenna complement projectors.

    bases[m]: orthonormal basis (rank-truncated) of the column space of
    antenna m's L x (K * (n_bar - 1)) matrix of interfering signatures.
    """

    bases: tuple[np.ndarray, ...]

    @property
    def tx_count(self) -> int:
        return len(self.bases)

    def project(self, m: int, vectors: np.ndarray) -> np.ndarray:
        """Apply the complement projector of antenna m.

        vectors: (..., L) array of row vectors; returns the same shape.
        """
        q = self.bases[m]
        return vectors - (vectors @ np.conj(q)) @ q.T


@dataclass(frozen=True)
class VirtualSnapshots:
    """Matrix-free view of the virtual snapshots, one per PRI.

    samples:  the cube samples, (n_s, L, n_rx).
    blockers: the per-Tx-antenna complement projectors.
    """

    samples: np.ndarray
    blockers: BlockerSet

    @property
    def tx_count(self) -> int:
        return self.blockers.tx_count

    @property
    def shape(self) -> tuple[int, int]:
        """(ambient, count) of the snapshot matrix: (n_bar * n_rx * L, n_s)."""
        n_s, L, n_rx = self.samples.shape
        return (self.tx_count * n_rx * L, n_s)

    @property
    def matrix(self) -> np.ndarray:
        """The materialised (n_bar * n_rx * L, n_s) snapshot matrix.

        Rows are ordered (m, i, t), t fastest; column n holds, block by
        block over (m, i), the projected fast-time vector of Rx antenna i
        in PRI n.
        """
        n_s, L, n_rx = self.samples.shape
        n_bar = self.tx_count
        rows = self.samples.transpose(0, 2, 1).reshape(n_s * n_rx, L)
        out = np.empty((n_bar * n_rx * L, n_s), dtype=complex)
        for m in range(n_bar):
            proj = self.blockers.project(m, rows).reshape(n_s, n_rx, L)
            out[m * n_rx * L:(m + 1) * n_rx * L, :] = (
                proj.transpose(1, 2, 0).reshape(n_rx * L, n_s)
            )
        return out

    def gram(self) -> np.ndarray:
        """V^H V, (n_s, n_s), from the cube (module docstring)."""
        n_s, L, n_rx = self.samples.shape
        flat = self.samples.reshape(n_s, L * n_rx)
        gram = self.tx_count * (flat.conj() @ flat.T)
        stacked = np.concatenate(self.blockers.bases, axis=1)  # L x sum of ranks
        rows = self.samples.transpose(0, 2, 1).reshape(n_s * n_rx, L)
        z = (rows @ stacked.conj()).reshape(n_s, -1)  # (n, (i, column))
        gram -= z.conj() @ z.T
        return gram


def _orthonormal_basis(matrix: np.ndarray) -> np.ndarray:
    """Rank-revealing orthonormal basis of the column space via SVD."""
    if matrix.shape[1] == 0:
        return np.zeros((matrix.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    if s[0] == 0.0:
        raise ValueError("blocking matrix is all zero; estimates are degenerate")
    keep = s > RANK_TOLERANCE * s[0]
    return u[:, keep]


def build_blockers(
    codes: CodeMatrix,
    estimates: list[tuple[int, float]],
    system: SystemConfig,
) -> BlockerSet:
    """Blocking matrices from stage-1 (delay, Doppler) estimates.

    For antenna m the blocker stacks, for every estimated target, the
    columns of all other antennas of its transformation matrix: their
    delayed codes with that target's Doppler phase.
    """
    if not estimates:
        raise ValueError("estimates must be non-empty")
    # raises on an out-of-range delay before any SVD
    signatures = [transformation_matrix(codes, d, f, system) for d, f in estimates]
    bases = []
    for m in range(codes.tx_count):
        others = [mm for mm in range(codes.tx_count) if mm != m]
        bases.append(_orthonormal_basis(np.concatenate([t[:, others] for t in signatures],
                                                       axis=1)))
    return BlockerSet(tuple(bases))


def apply_virtual_extension(cube: DataCube, blockers: BlockerSet) -> VirtualSnapshots:
    """Virtual snapshots of every PRI through each antenna's complement
    projector, as a matrix-free view; ``.matrix`` materialises them."""
    return VirtualSnapshots(cube.samples, blockers)
