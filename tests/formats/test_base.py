"""Tests for the shared sparse-format infrastructure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.formats import base
from repro.formats.base import (
    FormatFootprint,
    as_float_matrix,
    density_of,
    fp16_finite,
    quantize_fp16,
    quantize_fp16_reference,
    sparsity_of,
)
from repro.formats.nm import NMSparseMatrix


class TestAsFloatMatrix:
    def test_converts_to_float32_contiguous(self):
        out = as_float_matrix([[1, 2], [3, 4]])
        assert out.dtype == np.float32
        assert out.flags["C_CONTIGUOUS"]

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            as_float_matrix(np.zeros(4))
        with pytest.raises(ValueError):
            as_float_matrix(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_float_matrix(np.zeros((0, 4)))

    def test_rejects_complex(self):
        with pytest.raises(TypeError):
            as_float_matrix(np.zeros((2, 2), dtype=complex))

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            as_float_matrix(np.array([["a", "b"], ["c", "d"]]))


class TestQuantizeFp16:
    def test_idempotent(self):
        x = np.random.default_rng(0).normal(size=(8, 8)).astype(np.float32)
        once = quantize_fp16(x)
        assert np.array_equal(once, quantize_fp16(once))

    def test_returns_float32(self):
        assert quantize_fp16(np.ones((2, 2))).dtype == np.float32

    def test_rounds_to_half_precision(self):
        # 1 + 2^-12 is not representable in fp16 (10 mantissa bits).
        x = np.array([[1.0 + 2.0**-12]])
        assert quantize_fp16(x)[0, 0] == pytest.approx(1.0)


def _assert_matches_reference(x):
    """quantize_fp16(x) is bit-equal to the reference (NaN as NaN), keeps
    its strides, and reports the reference's per-slab finiteness."""
    staged, finite = quantize_fp16(x, return_finite=True)
    ref = quantize_fp16_reference(x)
    assert staged.dtype == np.float32
    assert staged.strides == ref.strides
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(staged), nan)
    assert np.array_equal(staged.view(np.uint32)[~nan], ref.view(np.uint32)[~nan])
    assert np.array_equal(finite, np.isfinite(ref).all(axis=(-2, -1)))
    assert np.array_equal(fp16_finite(x), finite)
    assert np.array_equal(quantize_fp16(x).view(np.uint32), staged.view(np.uint32))


def _bit_path_matrix(patterns: np.ndarray) -> np.ndarray:
    """Tile float32 bit patterns into a matrix large enough for the bit path."""
    n = base._BIT_STAGING_MIN_ELEMENTS
    return np.resize(np.asarray(patterns, dtype=np.uint32), n).view(np.float32).reshape(32, n // 32)


#: Magnitudes (as float32 bit patterns) where the one-pass rounding changes
#: regime or a tie decides the result.
_EDGE_VALUES = np.array(
    [
        0.0,
        -0.0,
        2.0**-14,
        np.nextafter(np.float32(2.0**-14), np.float32(0)),
        np.nextafter(np.float32(2.0**-14), np.float32(1)),
        2.0**-24,
        1.5 * 2.0**-25,
        1e-30,
        1.0 + 2.0**-11,  # tie between 1 and 1 + 2^-10: rounds to even (1)
        1.0 + 3 * 2.0**-11,  # tie: rounds to even (1 + 2^-9)
        1.0 + 2.0**-11 + 2.0**-23,  # just above a tie: rounds up
        2047.0 + 0.5,  # tie that carries into the exponent: 2048
        65504.0,
        np.float32(65519.99),
        65520.0,
        3.0e38,
        np.inf,
        np.nan,
    ],
    dtype=np.float32,
)


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
class TestQuantizeFp16MatchesReference:
    """``quantize_fp16`` (bit path) against ``quantize_fp16_reference``."""

    def test_edge_values_both_signs(self):
        edges = np.concatenate([_EDGE_VALUES, -_EDGE_VALUES])
        _assert_matches_reference(_bit_path_matrix(edges.view(np.uint32)))
        # And each edge on its own among normal values, so a single special
        # element exercises the fallback.
        normal = _bit_path_matrix(np.float32([0.5, -1.25, 3.0]).view(np.uint32))
        for value in edges:
            x = normal.copy()
            x[7, 3] = value
            _assert_matches_reference(x)

    def test_every_exponent_and_tie_mantissa(self):
        exponents = np.arange(256, dtype=np.uint32) << 23
        mantissas = np.array([0, 0xFFF, 0x1000, 0x1001, 0x3000, 0x7FE000, 0x7FF000, 0x7FFFFF], np.uint32)
        patterns = (exponents[:, None] | mantissas[None, :]).ravel()
        _assert_matches_reference(_bit_path_matrix(patterns))
        _assert_matches_reference(_bit_path_matrix(patterns | np.uint32(1 << 31)))

    @settings(max_examples=200, deadline=None)
    @given(
        patterns=hnp.arrays(
            np.uint32,
            st.integers(1, 96),
            elements=st.one_of(
                st.integers(0, 2**32 - 1),
                # fp16's normal range, where only the bit formula runs
                st.integers(0x38800000, 0x477FEFFF),
                st.integers(0xB8800000, 0xC77FEFFF),
            ),
        )
    )
    def test_raw_bit_patterns(self, patterns):
        _assert_matches_reference(_bit_path_matrix(patterns))

    @pytest.mark.parametrize(
        "view",
        [
            lambda x: x.T,
            lambda x: x[:, ::2],
            lambda x: x[::-1],
            lambda x: np.swapaxes(x.reshape(4, 48, 32), 1, 2),
            lambda x: x.reshape(4, 48, 32)[:, ::3],
        ],
        ids=["transposed", "column-strided", "reversed", "batched-transposed", "batched-strided"],
    )
    def test_strided_views_keep_their_layout(self, view):
        x = np.random.default_rng(4).normal(size=(128, 48)).astype(np.float32)
        x[5, 7] = np.inf
        x[9, 1] = 1e-6
        _assert_matches_reference(view(x))

    def test_per_slab_finiteness(self):
        x = np.random.default_rng(5).normal(size=(3, 64, 40)).astype(np.float32)
        x[1, 2, 3] = 70000.0
        _, finite = quantize_fp16(x, return_finite=True)
        assert finite.tolist() == [True, False, True]
        assert fp16_finite(x).tolist() == [True, False, True]
        assert bool(fp16_finite(x[0])) and not bool(fp16_finite(x[1]))

    def test_small_and_non_float32_inputs_take_the_reference(self):
        small = np.float32([[1.0 + 2.0**-11, 70000.0]])
        _assert_matches_reference(small)
        wide = np.random.default_rng(6).normal(size=(64, 64))  # float64: no double rounding
        assert np.array_equal(quantize_fp16(wide), quantize_fp16_reference(wide))


class TestSparsityDensity:
    def test_sparsity_of_half_zero_matrix(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        assert sparsity_of(m) == pytest.approx(0.5)
        assert density_of(m) == pytest.approx(0.5)

    def test_tolerance(self):
        m = np.array([[1e-9, 1.0]])
        assert sparsity_of(m, tol=1e-6) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sparsity_of(np.zeros((0,)))


class TestFormatFootprint:
    def test_total(self):
        f = FormatFootprint(values_bytes=10, metadata_bytes=2, index_bytes=3)
        assert f.total_bytes == 15

    def test_compression_ratio(self):
        f = FormatFootprint(values_bytes=10, metadata_bytes=0, index_bytes=0)
        assert f.compression_ratio(40) == pytest.approx(4.0)

    def test_zero_footprint_rejected(self):
        with pytest.raises(ValueError):
            FormatFootprint(0, 0, 0).compression_ratio(10)


class TestSparseFormatInterface:
    def test_shared_properties(self, nm_matrix, dense_24):
        assert nm_matrix.rows == dense_24.shape[0]
        assert nm_matrix.cols == dense_24.shape[1]
        assert nm_matrix.density == pytest.approx(0.5)
        assert nm_matrix.sparsity == pytest.approx(0.5)

    def test_compression_ratio_better_than_one(self, nm_matrix):
        assert nm_matrix.compression_ratio("fp16") > 1.0

    def test_allclose_to(self, nm_matrix, dense_24):
        assert nm_matrix.allclose_to(dense_24)
        assert not nm_matrix.allclose_to(dense_24 + 1.0)

    def test_dense_bytes(self, nm_matrix, dense_24):
        assert nm_matrix.dense_bytes("fp16") == dense_24.size * 2
