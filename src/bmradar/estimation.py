"""Subspace estimators: joint range/Doppler, then joint DOA/DOD.

Stage 1 scans a delay/Doppler grid with a determinant-ratio cost built
from the fast-time covariance of the cube.  The numerator gram
A = chips^T chips of the candidate code matrix is delay- and
Doppler-invariant, so the whole surface reduces (via the matrix
determinant lemma) to

    cost(d, f) = 1 / det(I_P - M(d, f)),    M = G A^-1 G^H,  G = U_s^H T(d, f)

and noise projectors are never materialised.  The Doppler phase of chip
q in the window at delay d is exp(j2 pi f (d + 1 + q) Tc); its part
common to the window cancels in M.  With whitened chips W = chips C^-T
(A = C C^T), M is a sum over the 2 nc - 1 chip lags l = q - r,

    M(d, f) = sum_l R_d(l) exp(j2 pi f l Tc),
    R_d(l)  = sum_{q - r = l} X_q X_r^H,   X_q = conj(U_s[d + q]) W[q]^T,

an outer product of basis row d + q (length P) and chip row q of W
(length n_bar).  The lag terms of a block of delays come from one batched
gram of the stacked X_q, and every Doppler column from one product of the
lag terms with the (lag x Doppler) phase matrix.

The signal basis U_s spans the top P eigenvectors of the L x L covariance,
and nothing else of its spectrum is needed, so subspace_split never takes
a full eigendecomposition.  It runs a restarted block Krylov solver
(Halko, Martinsson & Tropp, SIAM Review 53(2), 2011; Musco & Musco,
NeurIPS 2015): from a fixed-seed start block of b = 2P columns it builds
up to six blocks C^j Q with two-pass block Gram-Schmidt, orthonormalises
the stack with one QR (the blocks break down into rounding noise on a
rank-deficient C), and takes the Rayleigh-Ritz pairs of C on that space.
It restarts from the top-b Ritz vectors until every top-P residual
||C v - theta v|| is at most 1e-13 theta_1.  When the stacked blocks span
the whole space, as for a 5 x 5 spatial covariance, the Rayleigh-Ritz
step is an exact eigensolve.

Stage 1's Doppler axis has little leverage (the intra-PRI phase ramp over
one code support is tiny), so the per-target Doppler is refined from the
slow-time sequence obtained by despreading at the estimated delay:
demodulate the known symbols, take a zero-padded periodogram across PRIs,
and interpolate the peak.

Stage 2 scans (DOA, DOD) with a MUSIC-style ratio over the virtual
spatiotemporal snapshots X.  Their signal basis comes from the PRI x PRI
gram X^H X, which the matrix-free VirtualSnapshots view builds from the
cube (see the extender module): subspace_split takes its top signal_dim
Ritz vectors V, and the basis is the QR factor of X V, so only signal_dim
snapshot combinations are ever formed.  (X V / sqrt(theta) would be
orthonormal only for exact eigenvectors; the QR makes it so at rounding
level.)  Because every
entry of a steering vector has unit modulus, the numerator is
angle-independent and the denominator is the numerator minus the signal
power sum_p |sum_m half[p, m, a] conj(s_tx[m, b])|^2, where half holds
the precomputed per-antenna terms contracted with the Rx steering vector
of DOA a.  That power is the Hermitian form

    sum_mn H[a, m, n] conj(s_tx[m, b]) s_tx[n, b],   H[a] = sum_p half half^H,

an n_bar x n_bar matrix per DOA, so each context's whole (DOA, DOD) grid
is one real GEMM of H (real and imaginary parts interleaved) against the
Tx pair products, with no (signal_dim, DOA, DOD) coefficient array.

The Hermitian covariances (the fast-time one here, the spatial ones of
the baseline) come from hermitian_gram: one real syrk of the snapshots'
float view, exactly Hermitian by construction.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import DataCube
from .extender import BlockerSet, VirtualSnapshots
from .manifold import _code_rows, spatial_manifold, temporal_signature, transformation_matrix
from .scenario import Scenario, SystemConfig
from .waveform import CodeMatrix, SymbolSequence

__all__ = [
    "SubspaceBasis",
    "GridSpec",
    "default_grid",
    "hermitian_gram",
    "temporal_covariance",
    "subspace_split",
    "estimate_signal_dim",
    "xi1_cost",
    "xi1_surface",
    "greedy_peaks",
    "linear_assignment",
    "range_doppler_search",
    "despread_gate",
    "doppler_refine",
    "Xi2Context",
    "prepare_xi2_context",
    "xi2_surface",
    "doa_dod_search",
    "PeakError",
]


# delays per xi1_surface pass: the temporaries peak at about 6 MB at
# signal_dim 3 and about 90 MB at estimate_k's largest order, 12
_XI1_DELAY_BLOCK = 32

# zero-padding factor of the slow-time Doppler periodogram
_DOPPLER_PAD_FACTOR = 16

# half-width of doa_dod_search's local refine window about a coarse peak
_ANGLE_REFINE_HALFWIDTH_DEG = 0.75

# subspace_split's block Krylov solver: the seed of its start block, the
# blocks per restart, the relative residual that stops it and its cap
_KRYLOV_SEED = 0x4B52594C
_KRYLOV_DEPTH = 6
_KRYLOV_TOL = 1e-13
_KRYLOV_MAX_RESTARTS = 50


class PeakError(RuntimeError):
    """Raised when a search cannot find the requested number of peaks."""


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal signal-subspace basis plus the head of its spectrum.

    eigenvalues holds the top-b Ritz values of subspace_split (b =
    min(ambient, 2 * signal_dim)), not the whole spectrum, and the last
    three fields describe the solver's run: restarts taken, the largest
    top-signal_dim residual ||C v - theta v|| relative to theta_1, and
    whether that residual met the tolerance.  The stage-2 basis of
    prepare_xi2_context carries the solve on the PRI gram, its Ritz
    values divided by the PRI count: the head of the spectrum of
    (1/count) X X^H.
    """

    basis: np.ndarray        # ambient x signal_dim, orthonormal columns
    eigenvalues: np.ndarray  # descending, real, clipped at zero
    restarts: int = 0
    residual: float = 0.0
    converged: bool = True

    @property
    def signal_dim(self) -> int:
        """The subspace dimension: the basis's column count."""
        return self.basis.shape[1]


@dataclass(frozen=True)
class GridSpec:
    """Search grids; None axes are filled from the scenario defaults.

    Both stage-2 angles and the baseline's DOA scan share one coarse axis,
    angle_deg, derived from angle_step_deg.  A step that is not finite and
    > 0, or too fine to advance the 0-180 degree angle axis in floating
    point, or an empty axis, raises a ValueError whose message starts with
    the field's name.
    """

    range_bins: np.ndarray | None = None
    doppler_hz: np.ndarray | None = None
    angle_step_deg: float = 0.5
    angle_refine_step_deg: float = 0.01

    def __post_init__(self) -> None:
        for name in ("angle_step_deg", "angle_refine_step_deg"):
            step = getattr(self, name)
            if not (math.isfinite(step) and step > 0):
                raise ValueError(f"{name}: must be finite and > 0 (got {step})")
            # below the float spacing at 180 degrees the angle axis cannot
            # advance, and np.arange's node count overflows an index
            if not 180.0 + step > 180.0:
                raise ValueError(f"{name}: {step} is too fine for the 0-180 degree axis")
        for name in ("range_bins", "doppler_hz"):
            axis = getattr(self, name)
            if axis is not None and np.size(axis) == 0:
                raise ValueError(f"{name}: grid axis is empty")

    @property
    def angle_deg(self) -> np.ndarray:
        """The coarse 0..180 degree angle axis at angle_step_deg."""
        return np.arange(0.0, 180.0 + 1e-9, self.angle_step_deg)


def _local_angle_axis(center: float, half_deg: float, step_deg: float) -> np.ndarray:
    """Angle axis at step_deg within +-half_deg of center, clipped to
    [0, 180] degrees: the local grid a coarse angle peak is refined on."""
    return np.arange(max(0.0, center - half_deg), min(180.0, center + half_deg) + 1e-9,
                     step_deg)


def default_grid(scenario: Scenario, spec: GridSpec | None = None) -> GridSpec:
    """Fill the unset delay and Doppler axes for a scenario.

    Delays cover every bin a full code fits into; Doppler covers the
    unambiguous interval at one Doppler-bin spacing.
    """
    spec = spec or GridSpec()
    system = scenario.system
    range_bins = spec.range_bins
    if range_bins is None:
        range_bins = np.arange(0, system.fast_time_bins - system.code_length + 1)
    doppler = spec.doppler_hz
    if doppler is None:
        doppler = np.linspace(
            -system.prf_hz / 2.0, system.prf_hz / 2.0, system.pris_per_cpi + 1
        )
    return replace(spec, range_bins=np.asarray(range_bins, dtype=int),
                   doppler_hz=np.asarray(doppler, dtype=float))


def hermitian_gram(x: np.ndarray) -> np.ndarray:
    """x.T @ x.conj() of a complex (count, n) matrix, exactly Hermitian.

    The gram comes from one real product v.T @ v of the float view
    v = x.view(float), which numpy hands to BLAS syrk: half the flops
    of a complex gemm, with the upper triangle mirrored.  Entry (i, j)
    has real part g[2i, 2j] + g[2i+1, 2j+1] and imaginary part
    g[2i+1, 2j] - g[2i, 2j+1], so C == C^H holds bit for bit and the
    diagonal is real.
    """
    v = np.ascontiguousarray(x, dtype=complex).view(float)
    g = v.T @ v
    gram = np.empty((x.shape[1], x.shape[1]), dtype=complex)
    np.add(g[0::2, 0::2], g[1::2, 1::2], out=gram.real)
    np.subtract(g[1::2, 0::2], g[0::2, 1::2], out=gram.imag)
    return gram


def temporal_covariance(cube: DataCube) -> np.ndarray:
    """Fast-time covariance, averaged over PRIs and Rx antennas.

    Each antenna's fast-time vector within a PRI is one snapshot; the
    result is an L x L Hermitian PSD matrix whose signal subspace is
    spanned by the targets' delayed-Doppler code signatures.  The
    (PRI x Rx) x L snapshot rows go through hermitian_gram, one real
    syrk of the 2L interleaved real and imaginary columns.
    """
    n_s, L, n_rx = cube.samples.shape
    rows = cube.samples.transpose(0, 2, 1).reshape(n_s * n_rx, L)
    return hermitian_gram(rows) / (n_rx * n_s)


def subspace_split(cov: np.ndarray, signal_dim: int) -> SubspaceBasis:
    """Top signal_dim eigenvectors of a Hermitian PSD covariance matrix.

    The restarted block Krylov solver of the module docstring, with
    b = min(ambient, 2 * signal_dim) columns and up to _KRYLOV_DEPTH
    blocks per restart; it stops once every top-signal_dim Ritz pair has
    ||C v - theta v|| <= _KRYLOV_TOL * theta_1, or after
    _KRYLOV_MAX_RESTARTS restarts, and reports which.  The eigenvalues
    are the b Ritz values, descending and clipped at zero.  The start
    block comes from a fixed seed, so the result is a pure function of
    cov.  signal_dim may equal the ambient dimension: the first
    Rayleigh-Ritz step is then an exact eigensolve.
    """
    ambient = cov.shape[0]
    if not 0 < signal_dim <= ambient:
        raise ValueError(f"signal_dim must be in (0, {ambient}]")
    width = min(ambient, 2 * signal_dim)
    rng = np.random.default_rng(_KRYLOV_SEED)
    block = np.linalg.qr(rng.standard_normal((ambient, width))
                         + 1j * rng.standard_normal((ambient, width)))[0]
    c_block = cov @ block
    size = min(_KRYLOV_DEPTH * width, ambient)
    for restart in range(1, _KRYLOV_MAX_RESTARTS + 1):
        stack, w = block, c_block  # w: cov times the newest block
        while stack.shape[1] < size:
            for _ in range(2):  # block Gram-Schmidt: twice is enough
                w -= stack @ (w.conj().T @ stack).conj().T
            stack = np.hstack([stack, np.linalg.qr(w)[0]])
            if stack.shape[1] < size:
                w = cov @ stack[:, -width:]
        # a rank-deficient cov breaks the blocks down into rounding noise:
        # one QR of the stack keeps the Rayleigh-Ritz basis orthonormal
        space = np.linalg.qr(stack)[0]
        c_space = cov @ space
        theta, y = np.linalg.eigh(space.conj().T @ c_space)
        top = y[:, ::-1][:, :width]
        theta = theta[::-1][:width]
        ritz, c_ritz = space @ top, c_space @ top
        res = np.linalg.norm(c_ritz[:, :signal_dim] - ritz[:, :signal_dim] * theta[:signal_dim],
                             axis=0)
        residual = float(res.max() / theta[0]) if theta[0] > 0 else 0.0
        converged = bool(np.all(res <= _KRYLOV_TOL * theta[0]))
        if converged:
            break
        block, c_block = ritz, c_ritz
    return SubspaceBasis(ritz[:, :signal_dim], np.maximum(theta, 0.0), restart, residual,
                         converged)


def estimate_signal_dim(eigenvalues: np.ndarray) -> int:
    """Signal order from the largest ratio gap of the sorted spectrum."""
    vals = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    if len(vals) < 2:
        raise ValueError("need at least two eigenvalues")
    if vals[0] <= 0:
        raise ValueError("spectrum must contain a positive eigenvalue")
    ratios = vals[:-1] / np.maximum(vals[1:], vals[0] * 1e-15)
    return int(np.argmax(ratios)) + 1


def xi1_cost(
    d: int, f_hz: float, codes: CodeMatrix, basis: SubspaceBasis, system: SystemConfig
) -> float:
    """Determinant-ratio cost at a single (delay, Doppler) point.

    Ratio of det(T^H T) to det(T^H P_n T) with the noise projector applied
    implicitly.  A singular denominator returns +inf (exact subspace hit).
    """
    t_mat = transformation_matrix(codes, d, f_hz, system)
    gram = t_mat.conj().T @ t_mat
    g = basis.basis.conj().T @ t_mat
    den_mat = gram - g.conj().T @ g
    num = np.linalg.det(gram).real
    den = np.linalg.det(den_mat).real
    if den <= 0.0 or not math.isfinite(den):
        return math.inf
    return num / den


def xi1_surface(
    codes: CodeMatrix,
    basis: SubspaceBasis,
    system: SystemConfig,
    range_bins: np.ndarray,
    doppler_hz: np.ndarray,
) -> np.ndarray:
    """Cost surface over (delay, Doppler), shape (len(range_bins), len(doppler)).

    Evaluates 1 / det(I - M(d, f)) with M = G A^-1 G^H (module docstring)
    from the lag-domain terms of each delay: one batched gram of the
    whitened windows, one lag reduction, one product against the Doppler
    phases of the 2*nc - 1 lags, and an unpivoted elimination of the
    Hermitian I - M.  Delays are processed in fixed-size blocks so the
    temporaries stay bounded for any signal_dim.
    """
    L = system.fast_time_bins
    nc = codes.code_length
    range_bins = np.asarray(range_bins, dtype=int)
    if np.any(range_bins < 0) or np.any(range_bins > L - nc):
        raise ValueError("range grid contains range-ambiguous delays")
    doppler_hz = np.asarray(doppler_hz, dtype=float)
    p_dim = basis.basis.shape[1]
    upper_p, upper_q = np.triu_indices(p_dim)
    row_start = np.flatnonzero(upper_p == upper_q)
    # whitened chips: white @ white.T = chips A^-1 chips^T, A = chips^T chips
    chol = np.linalg.cholesky(codes.chips.T @ codes.chips)
    white = np.linalg.solve(chol, codes.chips.T).T  # (nc, n_bar)
    lags = np.arange(1 - nc, nc)
    q, r = np.indices((nc, nc))
    lag_sum = (q - r == lags[:, None, None]).reshape(len(lags), nc * nc).astype(float)
    phases = np.exp(2j * np.pi * system.chip_period_s * np.outer(lags, doppler_hz))
    windows = sliding_window_view(basis.basis.conj(), nc, axis=0)  # (n_d, P, nc)
    surface = np.empty((len(range_bins), len(doppler_hz)), dtype=float)
    for start in range(0, len(range_bins), _XI1_DELAY_BLOCK):
        block = range_bins[start:start + _XI1_DELAY_BLOCK]
        n_b = len(block)
        x = windows[block].transpose(0, 2, 1)[..., None] * white[:, None, :]
        x = x.reshape(n_b, nc * p_dim, codes.tx_count)  # rows (chip q, basis p)
        gram = (x @ x.conj().transpose(0, 2, 1)).reshape(n_b, nc, p_dim, nc, p_dim)
        # (q, r, upper-triangle pair, delay), then sum each diagonal q - r = lag
        pairs = np.ascontiguousarray(gram.transpose(1, 3, 2, 4, 0)[:, :, upper_p, upper_q])
        lagged = (lag_sum @ pairs.reshape(nc * nc, -1).view(float)).view(complex)
        # I - M on the packed upper triangle: row i's slots i..P-1 are
        # row_start[i] onward, and slot row_start[i] is its diagonal
        den = (lagged.T @ phases).reshape(len(upper_p), n_b, len(doppler_hz))
        np.negative(den, out=den)
        den[row_start] += 1.0
        # I - M is Hermitian PSD (M compresses a projector): eliminate on the
        # upper triangle without pivoting; det is the product of the pivots
        det = np.ones((n_b, len(doppler_hz)))
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(p_dim):
                row_k = den[row_start[k]:row_start[k] + p_dim - k]
                pivot = row_k[0].real
                det *= pivot
                for i in range(k + 1, p_dim):
                    den[row_start[i]:row_start[i] + p_dim - i] -= (
                        (row_k[i - k].conj() / pivot) * row_k[i - k:])
            surface[start:start + n_b] = np.where(
                det > 0.0, 1.0 / np.maximum(det, 1e-300), np.inf
            )
    return surface


def greedy_peaks(values: np.ndarray, positions: np.ndarray, radius: float, k: int) -> list[int]:
    """Greedy non-maximum suppression: indices of up to k peaks of values.

    Candidates are taken in stable descending order of value (ties break on
    the lowest index) and NaNs are skipped.  A candidate is suppressed when
    its position lies within radius (inclusive) of an accepted peak.
    """
    peaks: list[int] = []
    for idx in np.argsort(-values, kind="stable"):
        if math.isnan(values[idx]):
            continue
        if any(abs(positions[idx] - positions[p]) <= radius for p in peaks):
            continue
        peaks.append(int(idx))
        if len(peaks) == k:
            break
    return peaks


def linear_assignment(cost) -> tuple[list[int], list[int]]:
    """Minimum-total-cost one-to-one pairing of the rows and columns of cost.

    Returns (rows, cols), min(n_rows, n_cols) pairs sorted by row.  This
    is the shortest-augmenting-path algorithm of Crouse, "On implementing
    2D rectangular assignment algorithms", IEEE TAES 52(4), 2016, written
    as scipy.optimize.linear_sum_assignment runs it, in the same
    floating-point operation order and with the same tie-breaks, so both
    return the same pairs: a tall matrix is solved transposed, columns are
    scanned from the last one, and among equally short paths one ending in
    a free column wins.  Costs must be finite.
    """
    cost = np.asarray(cost, dtype=float)
    if not np.isfinite(cost).all():
        raise ValueError("assignment costs must be finite")
    transpose = cost.shape[0] > cost.shape[1]
    if transpose:
        cost = cost.T
    nr, nc = cost.shape
    c = cost.tolist()
    u, v = [0.0] * nr, [0.0] * nc
    col4row, row4col, path = [-1] * nr, [-1] * nc, [-1] * nc
    for cur in range(nr):
        # Dijkstra over reduced costs from row cur to the nearest free column
        spc = [math.inf] * nc
        remaining = list(range(nc - 1, -1, -1))
        rows_seen, cols_seen = [], []
        i, min_val, sink = cur, 0.0, -1
        while sink == -1:
            rows_seen.append(i)
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                # scipy's summation order: on ties, another order rounds
                # differently and can pick another column
                r = min_val + c[i][j] - u[i] - v[j]
                if r < spc[j]:
                    path[j], spc[j] = i, r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    index, lowest = it, spc[j]
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual update, then flip the path's assignments
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    pairs = sorted(zip(col4row, range(nr))) if transpose else list(enumerate(col4row))
    return [p[0] for p in pairs], [p[1] for p in pairs]


def range_doppler_search(
    codes: CodeMatrix,
    k: int,
    grid: GridSpec,
    system: SystemConfig,
    basis: SubspaceBasis,
) -> list[int]:
    """Stage-1 search: the k picked delays, in pick order.

    Scans the whole (delay, Doppler) grid.  A peak suppresses every
    Doppler within one code length in delay, which guarantees k distinct
    ranges; each delay row can therefore only contribute its maximum, so
    the peaks are picked among the row maxima (ties on the lowest delay
    index; a row holding NaN is skipped).  The Doppler of each target
    comes from doppler_refine on its despread gate.  basis is the
    fast-time signal subspace the surface is scored against.
    """
    surface = xi1_surface(codes, basis, system, grid.range_bins, grid.doppler_hz)
    rows = greedy_peaks(surface.max(axis=1), grid.range_bins.astype(float),
                        float(codes.code_length), k)
    found = [int(grid.range_bins[i]) for i in rows]
    if len(found) < k:
        raise PeakError(f"found only {len(found)} of {k} requested peaks: delays {found}")
    return found


def despread_gate(cube: DataCube, codes: CodeMatrix, delay: int) -> np.ndarray:
    """Range gate at delay despread with the composite code, (PRI x Rx).

    Correlates each PRI's fast-time samples over the code support
    delay..delay + nc - 1 with the conjugate composite code, leaving one
    spatial snapshot per PRI.
    """
    nc = codes.code_length
    rows = _code_rows(delay, nc, cube.fast_time_bins)
    cs = codes.composite.astype(complex)
    return np.einsum("q,nqi->ni", np.conj(cs), cube.samples[:, rows, :])


def doppler_refine(
    gate: np.ndarray,
    symbols: SymbolSequence,
    system: SystemConfig,
    refine: bool = True,
) -> float:
    """Slow-time Doppler estimate from one despread range gate.

    gate is despread_gate at the target's delay, (PRI x Rx).  Demodulate
    the known symbols and take the peak of the antenna-summed periodogram
    across PRIs.  With refine=True the periodogram is zero-padded 16-fold
    and the peak is polished with a three-point parabolic fit;
    refine=False returns the raw peak of the unpadded periodogram (error
    bounded by half a Doppler bin).  The result is wrapped into
    (-PRF/2, PRF/2].
    """
    n_s = gate.shape[0]
    prf = system.prf_hz
    z = gate * np.asarray(symbols.symbols, dtype=float)[:, None]

    nfft = n_s * _DOPPLER_PAD_FACTOR if refine else n_s
    spec = np.fft.fft(z, n=nfft, axis=0)
    power = np.sum(np.abs(spec) ** 2, axis=1)
    freqs = np.fft.fftfreq(nfft, d=system.pri_s)

    peak = int(np.argmax(power))
    f_hat = freqs[peak]
    if refine:
        p_prev = power[(peak - 1) % nfft]
        p_peak = power[peak]
        p_next = power[(peak + 1) % nfft]
        denom = p_prev - 2.0 * p_peak + p_next
        if denom < 0.0:
            delta = 0.5 * (p_prev - p_next) / denom
            f_hat = f_hat + delta * prf / nfft
    # wrap into (-PRF/2, PRF/2]
    f_hat = -((-f_hat + prf / 2.0) % prf - prf / 2.0)
    return float(f_hat)


@dataclass(frozen=True)
class Xi2Context:
    """Precomputed quantities for the DOA/DOD cost.

    For each stage-1 target context the projected temporal signature per Tx
    antenna and its contraction against the virtual signal basis are cached;
    evaluating a candidate direction pair then costs O(rx * tx * signal_dim)
    per context.
    """

    scenario: Scenario
    estimates: tuple[tuple[int, float], ...]
    basis: SubspaceBasis
    numerators: np.ndarray          # (K,) angle-independent ||P h||^2
    basis_phi: np.ndarray           # (K, P, n_bar, n_rx) contractions


def prepare_xi2_context(
    virtual: VirtualSnapshots,
    blockers: BlockerSet,
    estimates: list[tuple[int, float]],
    codes: CodeMatrix,
    scenario: Scenario,
    signal_dim: int | None = None,
) -> Xi2Context:
    """Signal basis of the virtual snapshots plus per-context caches.

    The basis is the QR factor of X V, V the top signal_dim Ritz vectors
    of the PRI gram X^H X from subspace_split (module docstring).
    """
    system = scenario.system
    k = len(estimates)
    dim = signal_dim or k
    ambient, count = virtual.shape
    if not 0 < dim < ambient:
        raise ValueError(f"signal_dim must be in (0, {ambient})")
    if dim > count:
        raise ValueError("signal_dim exceeds the number of snapshots")
    head = subspace_split(virtual.gram(), dim)
    if head.eigenvalues[dim - 1] <= 0:
        raise ValueError("snapshot matrix rank is below signal_dim")
    basis = replace(head, basis=np.linalg.qr(virtual.combine(head.basis))[0],
                    eigenvalues=head.eigenvalues / count)
    n_bar, n_rx, L = virtual.tx_count, virtual.rx_count, virtual.fast_time_bins

    phi = np.empty((k, n_bar, L), dtype=complex)
    for ki, (d, f) in enumerate(estimates):
        temporal = temporal_signature(codes, d, f, system)
        for m in range(n_bar):
            phi[ki, m] = blockers.project(m, temporal)
    # ||P h||^2 = n_rx * sum_m ||phi_m||^2 (steering entries are unit modulus)
    numerators = n_rx * np.sum(np.abs(phi) ** 2, axis=(1, 2))

    u4 = basis.basis.reshape(n_bar, n_rx, L, basis.signal_dim)
    basis_phi = np.einsum("milp,kml->kpmi", u4.conj(), phi, optimize=True)
    return Xi2Context(
        scenario=scenario,
        estimates=tuple((int(d), float(f)) for d, f in estimates),
        basis=basis,
        numerators=numerators,
        basis_phi=basis_phi,
    )


def _tx_pairs(s_tx: np.ndarray) -> np.ndarray:
    """Real (2 n_bar^2, len(theta_bar)) form of the Tx pair products.

    Row pair (2k, 2k+1) for k = (m, n) holds the real part and the
    negated imaginary part of conj(s_tx[m]) s_tx[n], so a float view of
    a complex n_bar x n_bar matrix H times it is sum_mn Re(H_mn T_mn).
    """
    by_dod = np.ascontiguousarray(s_tx.T)
    pairs = by_dod[:, :, None] * by_dod[:, None, :].conj()
    return pairs.reshape(len(pairs), -1).view(float).T


def _signal_power(basis_phi: np.ndarray, s_rx: np.ndarray, tx_pairs: np.ndarray) -> np.ndarray:
    """One context's sum_p |coeff_p|^2 over (theta, theta_bar) as a Hermitian form.

    half[a, p, m] = sum_i basis_phi[p, m, i] s_rx[i, a]; with the
    per-DOA H[a] = sum_p half[a, p]^T conj(half[a, p]) (n_bar x n_bar),
    the signal power at (a, b) is sum_mn H[a, m, n] conj(s_tx[m, b])
    s_tx[n, b], one real GEMM of H against the Tx pair matrix.
    """
    half = np.einsum("pmi,ia->apm", basis_phi, s_rx)
    herm = half.transpose(0, 2, 1) @ half.conj()
    return herm.reshape(len(herm), -1).view(float) @ tx_pairs


def xi2_surface(
    context: Xi2Context,
    theta_deg: np.ndarray,
    theta_bar_deg: np.ndarray,
    contexts: Sequence[int] | None = None,
) -> np.ndarray:
    """DOA/DOD cost over a grid.

    contexts=None sums the per-target terms into one (len(theta),
    len(theta_bar)) surface; a sequence of context indices returns those
    terms stacked, (len(contexts), len(theta), len(theta_bar)).
    """
    theta_deg = np.atleast_1d(np.asarray(theta_deg, dtype=float))
    theta_bar_deg = np.atleast_1d(np.asarray(theta_bar_deg, dtype=float))
    s_rx = spatial_manifold(context.scenario, "rx", theta_deg)
    s_tx = spatial_manifold(context.scenario, "tx", theta_bar_deg)
    tx_pairs = _tx_pairs(s_tx)
    indices = range(len(context.estimates)) if contexts is None else contexts
    out = np.empty((len(indices), len(theta_deg), len(theta_bar_deg)), dtype=float)
    for row, ki in enumerate(indices):
        sig_power = _signal_power(context.basis_phi[ki], s_rx, tx_pairs)
        num = context.numerators[ki]
        den = num - sig_power
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(den > 0.0, num / np.maximum(den, 1e-300), np.inf)
        out[row] = vals if num > 0 else 0.0
    return out.sum(axis=0) if contexts is None else out


def doa_dod_search(
    context: Xi2Context,
    grid: GridSpec,
) -> tuple[list[tuple[float, float, float]], np.ndarray]:
    """Stage-2 search: one (DOA, DOD, peak value) triple per target
    context, in context order, and the coarse per-context stack they were
    picked from.

    Each stage-1 target context carries its own delayed-Doppler signature,
    so its cost term peaks at that target's direction pair; the search
    takes the coarse-grid argmax of every context's term and refines it on
    a local fine grid.  (The summed surface is unreliable here: secondary
    maxima of a strong target can outgrow a weak target's main peak.)
    Peak-to-target association is therefore intrinsic.  The stack is the
    (K, len(angle_deg), len(angle_deg)) xi2_surface it scored on the
    coarse grid; its sum over axis 0 is the summed surface.
    """
    axis = grid.angle_deg
    stack = xi2_surface(context, axis, axis, contexts=range(len(context.estimates)))
    step = grid.angle_refine_step_deg
    half = _ANGLE_REFINE_HALFWIDTH_DEG

    results: list[tuple[float, float, float]] = []
    for ki in range(stack.shape[0]):
        surf = stack[ki]
        flat = int(np.argmax(surf))
        i, j = np.unravel_index(flat, surf.shape)
        th0, tb0 = axis[i], axis[j]
        local_th = _local_angle_axis(th0, half, step)
        local_tb = _local_angle_axis(tb0, half, step)
        local = xi2_surface(context, local_th, local_tb, contexts=[ki])[0]
        flat = int(np.argmax(local))
        ii, jj = np.unravel_index(flat, local.shape)
        results.append((float(local_th[ii]), float(local_tb[jj]), float(local[ii, jj])))
    return results, stack
