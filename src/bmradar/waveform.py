"""Transmit waveform building blocks: PN code matrices and data symbols.

Each Tx antenna spreads the common +-1 symbol stream with its own
binary code.  The code set must be near-orthogonal at zero lag: the
normalised gram (1/nc) * C.T @ C has unit diagonal and off-diagonal
magnitude at most 2/nc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CodeMatrix",
    "SymbolSequence",
    "generate_pn_codes",
    "extend_codes",
    "symbol_matrix",
    "generate_symbols",
    "GRAM_OFFDIAG_BOUND",
]

# Primitive polynomials as bit masks (bit k set = term x^k, bit 0 = 1),
# one per supported register degree.
_PRIMITIVE_POLY = {
    2: 0b111,            # x^2+x+1
    3: 0b1011,           # x^3+x+1
    4: 0b10011,          # x^4+x+1
    5: 0b100101,         # x^5+x^2+1
    6: 0b1000011,        # x^6+x+1
    7: 0b10001001,       # x^7+x^3+1
    8: 0b100011101,      # x^8+x^4+x^3+x^2+1
    9: 0b1000010001,     # x^9+x^4+1
    10: 0b10000001001,   # x^10+x^3+1
}

# Second primitive polynomial per degree, used to build product-code families.
_PRIMITIVE_POLY_ALT = {
    3: 0b1101,           # x^3+x^2+1
    4: 0b11001,          # x^4+x^3+1
    5: 0b111101,         # x^5+x^4+x^3+x^2+1
    6: 0b1100001,        # x^6+x^5+1
    7: 0b10001111,       # x^7+x^3+x^2+x+1
    8: 0b101100011,      # x^8+x^6+x^5+x+1
    9: 0b1001011001,     # x^9+x^6+x^4+x^3+1
    10: 0b10100001101,   # x^10+x^8+x^3+x^2+1
}

# Documented bound for "near identity": |off-diagonal| of the normalised
# gram never exceeds 2/nc for an accepted code set.
GRAM_OFFDIAG_BOUND = 2.0


@dataclass(frozen=True)
class CodeMatrix:
    """Code set for one Tx array: its chips and the PRI they sit in.

    chips:          nc x n_bar matrix of +-1 chips (one column per antenna)
    fast_time_bins: L, chips per PRI (L >= nc)

    The padded matrix and the composite code are derived from these two,
    so they cannot disagree with the chips.  The composite is the chips'
    row sum, nc long: the delay places it in the PRI.
    """

    chips: np.ndarray
    fast_time_bins: int

    @property
    def code_length(self) -> int:
        return self.chips.shape[0]

    @property
    def tx_count(self) -> int:
        return self.chips.shape[1]

    @property
    def extended(self) -> np.ndarray:
        """L x n_bar matrix, chips on top of zero rows out to the PRI."""
        out = np.zeros((self.fast_time_bins, self.tx_count))
        out[:self.code_length] = self.chips
        return out

    @property
    def composite(self) -> np.ndarray:
        """Length-nc composite code: the row sum of the chips."""
        return self.chips.sum(axis=1)


@dataclass(frozen=True)
class SymbolSequence:
    """+-1 data symbols, one per PRI."""

    symbols: np.ndarray

    def __post_init__(self) -> None:
        vals = np.unique(self.symbols)
        if not np.all(np.isin(vals, (-1, 1))):
            raise ValueError("symbols must be +-1")


def _lfsr_sequence(poly: int, degree: int) -> np.ndarray:
    """Maximal-length +-1 sequence of period 2**degree - 1.

    Runs the linear recurrence a[n] = XOR of a[n - degree + i] over the set
    bits i < degree of the polynomial, seeded with ones.
    """
    taps = [i for i in range(degree) if (poly >> i) & 1]
    n = (1 << degree) - 1
    bits = np.empty(n, dtype=np.int8)
    bits[:degree] = 1
    for idx in range(degree, n):
        v = 0
        for i in taps:
            v ^= bits[idx - degree + i]
        bits[idx] = v
    return (2 * bits.astype(np.int64) - 1).astype(float)


def _degree_for(nc: int) -> int:
    # integer arithmetic: a length beyond float range has no log2
    degree = int(nc).bit_length()
    if (1 << degree) - 1 != nc or degree not in _PRIMITIVE_POLY:
        raise ValueError(
            f"code length {nc} is not 2**r - 1 for a supported register degree"
        )
    return degree


def _check_gram(chips: np.ndarray) -> None:
    nc = chips.shape[0]
    gram = chips.T @ chips
    off = gram - np.diag(np.diag(gram))
    worst = float(np.max(np.abs(off))) if off.size else 0.0
    if worst > GRAM_OFFDIAG_BOUND:
        raise ValueError(
            f"code set rejected: max |off-diagonal| correlation {worst:.1f} "
            f"exceeds {GRAM_OFFDIAG_BOUND:.1f} (bound 2/nc normalised, nc={nc})"
        )


def generate_pn_codes(
    n_bar: int,
    nc: int,
    kind: str = "mseq",
    seed: int | None = None,
) -> CodeMatrix:
    """Generate n_bar spreading codes of length nc.

    kind="mseq": distinct cyclic shifts (offset 3*(m-1) chips) of one
    maximal-length sequence.  Zero-lag cross-correlation between distinct
    shifts is exactly -1.

    kind="gold": products of one base sequence with distinct shifts of a
    second sequence from a different primitive polynomial.  Zero-lag
    cross-correlations are again -1; the raw base pair itself (correlation
    magnitude up to 9 for degree 4) is never used directly.

    The seed rotates which shifts are picked; any choice satisfies the
    documented gram bound, which is re-checked before returning.
    """
    if n_bar < 1:
        raise ValueError("n_bar must be >= 1")
    degree = _degree_for(nc)
    rng = np.random.default_rng(seed)

    if kind == "mseq":
        base = _lfsr_sequence(_PRIMITIVE_POLY[degree], degree)
        offsets = (3 * np.arange(n_bar) + int(rng.integers(0, nc))) % nc
        if len(set(offsets.tolist())) != n_bar:
            raise ValueError(
                f"cannot derive {n_bar} distinct cyclic shifts with stride 3 "
                f"from a length-{nc} sequence"
            )
        chips = np.stack([np.roll(base, -int(off)) for off in offsets], axis=1)
    elif kind == "gold":
        if degree not in _PRIMITIVE_POLY_ALT:
            raise ValueError(f"no second polynomial available for degree {degree}")
        if n_bar > nc:
            raise ValueError(f"at most {nc} product codes available")
        seq_a = _lfsr_sequence(_PRIMITIVE_POLY[degree], degree)
        seq_b = _lfsr_sequence(_PRIMITIVE_POLY_ALT[degree], degree)
        start = int(rng.integers(0, nc))
        shifts = (start + np.arange(n_bar)) % nc
        chips = np.stack([seq_a * np.roll(seq_b, -int(s)) for s in shifts], axis=1)
    else:
        raise ValueError(f"unsupported code kind {kind!r} (use 'mseq' or 'gold')")

    _check_gram(chips)
    return CodeMatrix(chips, nc)


def extend_codes(codes: CodeMatrix, fast_time_bins: int) -> CodeMatrix:
    """The same chips in a PRI of fast_time_bins chips; rows past the code
    length are zero."""
    if fast_time_bins < codes.code_length:
        raise ValueError("fast_time_bins must be >= code length")
    return CodeMatrix(codes.chips, fast_time_bins)


def symbol_matrix(symbols: SymbolSequence, codes: CodeMatrix) -> np.ndarray:
    """Full-CPI transmit matrix, n_bar x (n_s * L): symbol per PRI times the
    extended code block."""
    a = np.asarray(symbols.symbols, dtype=float)
    return np.kron(a[None, :], codes.extended.T)


def generate_symbols(n_s: int, seed: int | None = None) -> SymbolSequence:
    """i.i.d. +-1 symbols, deterministic under seed."""
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    rng = np.random.default_rng(seed)
    return SymbolSequence(symbols=rng.integers(0, 2, size=n_s) * 2 - 1)
