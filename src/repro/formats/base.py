"""Common infrastructure shared by every sparse storage format.

All formats in this subpackage implement the same small interface
(:class:`SparseFormat`): construction from a dense matrix (assumed to
already carry the zeros of whichever pruning pattern produced it),
reconstruction back to dense, the number of explicitly stored non-zero
values and the compressed footprint in bytes.  The SpMM kernels consume the
format-specific attributes directly; the shared interface exists so tests,
benchmarks and the energy/footprint studies can treat every format
uniformly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Tuple

import numpy as np


def as_float_matrix(dense: np.ndarray, name: str = "dense") -> np.ndarray:
    """Validate and canonicalise a dense input matrix.

    Accepts any 2-D array-like with a real floating or integer dtype and
    returns a C-contiguous ``float32`` copy (float32 is used as the
    in-simulator stand-in for the paper's fp16 storage; numerical tests
    account for the representation separately via
    :func:`repro.formats.base.quantize_fp16`).
    """
    arr = np.asarray(dense)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.issubdtype(arr.dtype, np.number):
        raise TypeError(f"{name} must be numeric, got dtype {arr.dtype}")
    if np.iscomplexobj(arr):
        raise TypeError(f"{name} must be real-valued")
    return np.ascontiguousarray(arr, dtype=np.float32)


#: Below this many elements :func:`quantize_fp16` stages through ``astype``:
#: the bit path issues ~8 array operations whose fixed per-call cost loses
#: to the two casts on small inputs (a decode step's one-column RHS).  Both
#: paths give identical bits, so this is a speed constant, not a setting.
_BIT_STAGING_MIN_ELEMENTS = 2048

_F32_MAGNITUDE = np.uint32(0x7FFFFFFF)
_F32_DROPPED_LSB = np.uint32(1 << 13)  # the lowest kept bit of a 10-bit mantissa
_F32_ROUND_HALF = np.uint32(0x0FFF)  # just under half of the 13 dropped bits
_F32_KEEP_FP16_BITS = np.uint32(0xFFFFE000)
#: float32 bit patterns of 2**-14 (smallest normal fp16) and of 65520, the
#: smallest magnitude that rounds to inf in fp16 (65504 + half an ulp, a tie
#: that rounds to the even, overflowing, neighbour).
_FP16_MIN_NORMAL_BITS = np.uint32(0x38800000)
_FP16_OVERFLOW_BITS = np.uint32(0x477FF000)


def _slab_axes(ndim: int):
    """The axes one 2-D slab spans: the last two of a batch, else all of them."""
    return (-2, -1) if ndim > 2 else None


def quantize_fp16_reference(matrix: np.ndarray) -> np.ndarray:
    """Round a matrix through IEEE half precision and back to float32.

    The two-cast round trip the kernels' reference implementations use;
    :func:`quantize_fp16` is its exact one-pass sibling.
    """
    return np.asarray(matrix, dtype=np.float16).astype(np.float32)


def fp16_finite(matrix: np.ndarray):
    """Per-slab finiteness of ``matrix`` after rounding to fp16.

    A float32 value stays finite in fp16 exactly when its magnitude is
    below 65520 (NaN and inf bit patterns lie above it), so this is one
    mask and one max-reduction over the bit patterns, with no fp16 copy.
    Returns a boolean array of shape ``matrix.shape[:-2]`` (0-d for a 2-D
    matrix): entry ``i`` is True when every element of slab ``i`` rounds to
    a finite fp16 value.
    """
    x = np.asarray(matrix)
    if x.dtype != np.float32:
        with np.errstate(over="ignore"):
            return np.isfinite(quantize_fp16_reference(x)).all(axis=_slab_axes(x.ndim))
    mag = np.bitwise_and(x.view(np.uint32), _F32_MAGNITUDE)
    return np.asarray(mag.max(axis=_slab_axes(x.ndim)) < _FP16_OVERFLOW_BITS)


def quantize_fp16(matrix: np.ndarray, return_finite: bool = False):
    """Round a matrix through IEEE half precision and back to float32.

    The paper's kernels operate on fp16 operands with fp32 accumulation.
    The simulator stores values as float32 for convenience; this helper
    reproduces the storage rounding so numerical comparisons against the
    dense reference use the same precision the real library would.

    The result is bit-for-bit :func:`quantize_fp16_reference` but costs
    one pass of integer operations instead of two casts: on the float32
    bit pattern ``u``, round-to-nearest-even to a 10-bit mantissa is
    ``(u + 0x0FFF + ((u >> 13) & 1)) & ~0x1FFF``, where a carry out of the
    mantissa correctly bumps the exponent.  That formula
    is exact wherever fp16 is normal, so only the elements it cannot
    handle go back through ``astype``: fp16 subnormals (``0 < |x| <
    2**-14``, whose quantum is coarser), overflow (``|x| >= 65520``) and
    non-finite values.  Non-float32 inputs and inputs under
    ``_BIT_STAGING_MIN_ELEMENTS`` elements take the reference path
    outright (casting float64 to float32 first would round twice).

    The result keeps the input's memory layout (``order="K"``, as
    ``astype`` does): the SpMM backends hand the staged RHS straight to
    BLAS, whose kernel choice — and so its summation order — depends on the
    operand's strides, so a re-laid-out copy would change the low bits of
    one backend but not another.

    With ``return_finite`` the call also returns :func:`fp16_finite` of the
    input, which the bit path gets from the max-reduction it needs anyway.
    """
    x = np.asarray(matrix)
    if x.dtype != np.float32 or x.size < _BIT_STAGING_MIN_ELEMENTS:
        staged = quantize_fp16_reference(x)
        if not return_finite:
            return staged
        return staged, np.asarray(np.isfinite(staged).all(axis=_slab_axes(x.ndim)))
    u = x.view(np.uint32)
    # |x| - 1 as bits: the subtraction wraps zeros to the top of the range,
    # so one min-reduction finds any fp16-subnormal element while exact
    # zeros (which the bit formula rounds correctly) need no fallback.
    mag = np.bitwise_and(u, _F32_MAGNITUDE)
    finite = np.asarray(mag.max(axis=_slab_axes(x.ndim)) < _FP16_OVERFLOW_BITS)
    mag -= np.uint32(1)
    special = None
    if not finite.all() or mag.min() < _FP16_MIN_NORMAL_BITS - 1:
        special = (mag < _FP16_MIN_NORMAL_BITS - 1) | (mag >= _FP16_OVERFLOW_BITS - 1)
    # The result reuses the magnitude buffer, so staging allocates nothing
    # beyond its output (the astype round trip also holds an fp16 copy).
    out = np.bitwise_and(u, _F32_DROPPED_LSB, out=mag)
    out >>= 13
    out += _F32_ROUND_HALF
    out += u
    out &= _F32_KEEP_FP16_BITS
    staged = out.view(np.float32)
    if special is not None:
        staged[special] = quantize_fp16_reference(x[special])
    return (staged, finite) if return_finite else staged


def sparsity_of(matrix: np.ndarray, tol: float = 0.0) -> float:
    """Fraction of entries whose magnitude is <= ``tol`` (0 = dense)."""
    arr = np.asarray(matrix)
    if arr.size == 0:
        raise ValueError("cannot compute sparsity of an empty matrix")
    return float(np.count_nonzero(np.abs(arr) <= tol)) / arr.size


def density_of(matrix: np.ndarray, tol: float = 0.0) -> float:
    """Fraction of entries whose magnitude is > ``tol``."""
    return 1.0 - sparsity_of(matrix, tol)


@dataclass(frozen=True)
class FormatFootprint:
    """Compressed storage footprint of a sparse matrix, per structure."""

    values_bytes: float
    metadata_bytes: float
    index_bytes: float

    @property
    def total_bytes(self) -> float:
        """Total compressed bytes (values + metadata + indices)."""
        return self.values_bytes + self.metadata_bytes + self.index_bytes

    def compression_ratio(self, dense_bytes: float) -> float:
        """Dense bytes divided by compressed bytes (higher is better)."""
        if self.total_bytes <= 0:
            raise ValueError("compressed footprint must be positive")
        return dense_bytes / self.total_bytes


class SparseFormat(abc.ABC):
    """Abstract interface implemented by every compressed format."""

    #: Short identifier used in benchmark tables ("nm", "vnm", "csr", ...).
    format_name: str = "abstract"

    @property
    @abc.abstractmethod
    def shape(self) -> Tuple[int, int]:
        """Logical (rows, cols) shape of the represented matrix."""

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of explicitly stored values."""

    @abc.abstractmethod
    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense float32 matrix (zeros included)."""

    @abc.abstractmethod
    def footprint(self, precision: str = "fp16") -> FormatFootprint:
        """Compressed storage footprint for the given value precision."""

    # ------------------------------------------------------------------
    # Conveniences shared by all formats
    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """Number of logical rows."""
        return self.shape[0]

    @property
    def cols(self) -> int:
        """Number of logical columns."""
        return self.shape[1]

    @property
    def density(self) -> float:
        """Stored non-zeros divided by logical size."""
        r, c = self.shape
        return self.nnz / float(r * c)

    @property
    def sparsity(self) -> float:
        """1 - density."""
        return 1.0 - self.density

    def dense_bytes(self, precision: str = "fp16") -> float:
        """Bytes of the dense representation at ``precision``."""
        from ..hardware.memory import dtype_bytes

        r, c = self.shape
        return r * c * dtype_bytes(precision)

    def compression_ratio(self, precision: str = "fp16") -> float:
        """Dense footprint divided by compressed footprint."""
        return self.footprint(precision).compression_ratio(self.dense_bytes(precision))

    def allclose_to(self, dense: np.ndarray, atol: float = 1e-6) -> bool:
        """True when decompression matches ``dense`` to ``atol``."""
        return bool(np.allclose(self.to_dense(), np.asarray(dense, dtype=np.float32), atol=atol))
