import numpy as np
import pytest

import bmradar as b
from bmradar.waveform import GRAM_OFFDIAG_BOUND, _lfsr_sequence, _PRIMITIVE_POLY


def brute_force_periodic_correlation(x, y, shift):
    """Independent oracle: periodic correlation at a cyclic lag."""
    n = len(x)
    return sum(x[i] * y[(i + shift) % n] for i in range(n))


class TestMSequence:
    def test_base_sequence_properties(self):
        seq = _lfsr_sequence(_PRIMITIVE_POLY[4], 4)
        assert len(seq) == 15
        assert set(seq.tolist()) == {-1.0, 1.0}
        assert abs(seq.sum()) == pytest.approx(1.0)  # balanced up to one chip
        # periodic autocorrelation is -1 at every nonzero cyclic lag
        for lag in range(1, 15):
            assert brute_force_periodic_correlation(seq, seq, lag) == pytest.approx(-1.0)

    def test_distinct_shift_cross_correlation(self):
        codes = b.generate_pn_codes(5, 15, "mseq", seed=0)
        gram = codes.chips.T @ codes.chips
        off = gram - np.diag(np.diag(gram))
        # zero-lag correlations between distinct cyclic shifts equal -1
        assert np.all(np.abs(np.diag(gram) - 15.0) < 1e-12)
        mask = ~np.eye(5, dtype=bool)
        assert np.allclose(off[mask], -1.0)

    def test_single_code_gram(self):
        codes = b.generate_pn_codes(1, 15, "mseq", seed=0)
        assert codes.chips.T @ codes.chips / 15 == pytest.approx(np.array([[1.0]]))

    def test_too_many_shifts_rejected(self):
        # stride-3 shifts of a 15-chip sequence collide beyond 5 codes
        with pytest.raises(ValueError, match="distinct cyclic shifts"):
            b.generate_pn_codes(6, 15, "mseq", seed=0)

    def test_unsupported_length(self):
        with pytest.raises(ValueError, match="not 2\\*\\*r - 1"):
            b.generate_pn_codes(3, 12, "mseq", seed=0)


class TestGoldCodes:
    def test_gram_bound(self):
        codes = b.generate_pn_codes(5, 15, "gold", seed=0)
        gram = codes.chips.T @ codes.chips
        off = np.abs(gram - np.diag(np.diag(gram)))
        assert off.max() <= GRAM_OFFDIAG_BOUND
        assert np.all(np.diag(gram / 15) == pytest.approx(1.0))

    def test_distinct_seeds_distinct_codes(self):
        a = b.generate_pn_codes(5, 15, "gold", seed=1)
        c = b.generate_pn_codes(5, 15, "gold", seed=2)
        assert not np.array_equal(a.chips, c.chips)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="code kind"):
            b.generate_pn_codes(5, 15, "barker", seed=0)


class TestExtendCodes:
    def test_no_padding(self):
        codes = b.generate_pn_codes(5, 15, "mseq", seed=0)
        same = b.extend_codes(codes, 15)
        assert np.array_equal(same.extended, codes.chips)

    def test_paper_shape(self):
        codes = b.extend_codes(b.generate_pn_codes(5, 15, "mseq", seed=0), 524)
        assert codes.extended.shape == (524, 5)
        assert np.all(codes.extended[15:, :] == 0.0)
        assert np.array_equal(codes.extended[:15, :], codes.chips)

    def test_composite_is_row_sum(self):
        codes = b.extend_codes(b.generate_pn_codes(5, 15, "mseq", seed=0), 524)
        # nc long whatever the PRI: the delay places it
        assert codes.composite.shape == (15,)
        assert np.array_equal(codes.composite, codes.chips.sum(axis=1))

    def test_padding_preserves_gram(self):
        codes = b.extend_codes(b.generate_pn_codes(5, 15, "mseq", seed=3), 524)
        lhs = codes.extended.T @ codes.extended / 15
        assert lhs == pytest.approx(codes.chips.T @ codes.chips / 15)

    def test_too_short_rejected(self):
        codes = b.generate_pn_codes(5, 15, "mseq", seed=0)
        with pytest.raises(ValueError, match="fast_time_bins"):
            b.extend_codes(codes, 10)


class TestSymbolMatrix:
    def test_all_ones_single_pri(self):
        codes = b.extend_codes(b.generate_pn_codes(3, 7, "mseq", seed=0), 14)
        symbols = b.SymbolSequence(symbols=np.array([1]))
        m = b.symbol_matrix(symbols, codes)
        assert np.array_equal(m, codes.extended.T)

    def test_sign_flip_second_block(self):
        codes = b.extend_codes(b.generate_pn_codes(3, 7, "mseq", seed=0), 14)
        symbols = b.SymbolSequence(symbols=np.array([1, -1]))
        m = b.symbol_matrix(symbols, codes)
        assert np.array_equal(m[:, 14:], -m[:, :14])

    def test_gram_near_identity(self):
        codes = b.extend_codes(b.generate_pn_codes(5, 15, "mseq", seed=0), 524)
        symbols = b.generate_symbols(256, seed=1)
        m = b.symbol_matrix(symbols, codes)
        gram = m @ m.T / (15 * 256)
        off = np.abs(gram - np.diag(np.diag(gram)))
        assert np.all(np.diag(gram) == pytest.approx(1.0))
        assert off.max() <= 2.0 / 15

    def test_frobenius_energy(self):
        codes = b.extend_codes(b.generate_pn_codes(5, 15, "mseq", seed=0), 524)
        symbols = b.generate_symbols(64, seed=1)
        m = b.symbol_matrix(symbols, codes)
        assert np.sum(np.abs(m) ** 2) == pytest.approx(5 * 15 * 64)


class TestGenerateSymbols:
    def test_deterministic(self):
        a = b.generate_symbols(256, seed=7)
        c = b.generate_symbols(256, seed=7)
        assert np.array_equal(a.symbols, c.symbols)

    def test_length_and_values(self):
        s = b.generate_symbols(256, seed=0)
        assert len(s.symbols) == 256
        assert set(np.unique(s.symbols).tolist()) <= {-1, 1}

    def test_mean_law_of_large_numbers(self):
        s = b.generate_symbols(10_000, seed=123)
        assert -0.05 < s.symbols.mean() < 0.05

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            b.generate_symbols(0)
