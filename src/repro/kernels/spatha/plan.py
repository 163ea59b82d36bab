"""Planned, batched execution of the V:N:M SpMM (the vectorized engine).

The seed implementation of :func:`repro.kernels.spatha.spmm.spmm` walked the
V-row blocks of the operand in a Python loop and re-derived the condensed
operand and gather indices on every call.  That is exactly the pattern the
real Spatha kernel avoids: the GPU library prepares the operand once
(values, column-loc, packed metadata) and then replays the same gather +
``mma.sp`` schedule for every activation batch.  :class:`SpmmPlan` is the
CPU analogue of that preparation step:

* all per-operand derivations — the fp16-rounded condensed operand, the
  absolute gather indices of the selected B rows, the packed 2-bit
  metadata — are computed once at plan construction and cached on the
  :class:`~repro.formats.vnm.VNMSparseMatrix` itself, so every layer of a
  transformer forward and every point of a sweep pays preparation once;
* execution is fully batched: no Python loop over row blocks.  Two
  strategies are provided and an ``auto`` mode picks between them with a
  small cost model calibrated on this host:

  - ``"gather"`` — the faithful condensed-operand schedule: the selected B
    rows of every row block are gathered (in bounded-memory chunks) and
    multiplied with the condensed operand via one stacked ``matmul``.  This
    is bit-identical to the retained loop reference.
  - ``"dense"`` — scatter the (fp16-rounded) operand to its dense form once
    at plan build, then execute each call as a single large GEMM.  On CPUs
    a single BLAS call vastly outperforms per-block gathers for small V,
    at the cost of ``M/4`` more arithmetic.

* the RHS may be 2-D ``(K, C)`` or batched 3-D ``(B, K, C)``; the batched
  form lets :mod:`repro.integration.linear` and the transformer layers run
  whole activation batches in one call.  Batched execution is *slab-exact*:
  every slab of a 3-D batch is computed by the same stacked GEMMs a 2-D
  call would issue, so ``execute(stack)[i]`` is bit-identical to
  ``execute(stack[i])``.  The dynamic-batching serving layer
  (:mod:`repro.serving`) relies on this to make batched request execution
  provably equivalent to sequential per-request execution.  That includes
  the non-finite demotion below: it is decided per slab.

Numerics are the sparse tensor cores' contract — fp16 operands, fp32
accumulation — emulated in float32:

* **Exact fp16 staging.**  Every call rounds its RHS to fp16 and back with
  :func:`~repro.formats.base.quantize_fp16`, a one-pass round-to-nearest-even
  on the float32 bit pattern that is bit-for-bit the ``astype`` round trip
  (:func:`~repro.formats.base.quantize_fp16_reference`, still used by the
  reference kernels) and reports per-slab finiteness from the same pass.
  A slab that is non-finite after rounding takes the gather schedule,
  because the dense schedule would multiply the densified operand's zeros
  by its inf (``0 * inf = NaN``) in rows no block selects.
* **Layout is part of the numerics.**  The staged RHS keeps the caller's
  memory layout (``order="K"``): the serving layers pass transposed
  ``(B, K, seq)`` views, and BLAS picks its kernel, and with it the
  summation order, from the operand's strides.  Every backend stages the
  same way, so this plan, the dense cuBLAS fallback and the reference
  kernels see identically laid-out operands and agree bit for bit; a
  C-contiguous staged copy would flip low bits of one backend only.
* Everything else is float32: the model side keeps the same rule (see
  :mod:`repro.models.functional`).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .config import KernelConfig
from ...formats.base import quantize_fp16
from ...formats.vnm import VNMSparseMatrix

#: Calibrated single-core throughputs used by the ``auto`` strategy chooser
#: (measured on the reference container: large square SGEMM sustains
#: ~1e11 FLOP/s, thin per-block GEMMs ~2.5e10, fancy row gathers ~2e9 B/s).
#: Only the *ratio* between them matters for the decision.
_DENSE_GEMM_FLOPS = 1.0e11
_BLOCK_GEMM_FLOPS = 2.5e10
_GATHER_BYTES_PER_SECOND = 2.0e9

#: Upper bound on the temporary gathered-RHS buffer of the gather strategy.
_GATHER_CHUNK_BYTES = 256 * 1024 * 1024

_STRATEGIES = ("auto", "dense", "gather")


class SpmmPlan:
    """A prepared, reusable execution schedule for one V:N:M operand.

    Parameters
    ----------
    matrix:
        The sparse LHS.  Its derived views are memoized on the matrix, so
        building several plans for one matrix re-uses the preparation.
    strategy:
        ``"auto"`` (default), ``"dense"`` or ``"gather"`` — see the module
        docstring.
    config:
        Optional kernel template configuration.  The numerics are
        independent of the tiling; the config is carried so call sites can
        pass one object around for the functional and performance paths.
    """

    def __init__(
        self,
        matrix: VNMSparseMatrix,
        strategy: str = "auto",
        config: Optional[KernelConfig] = None,
    ) -> None:
        if not isinstance(matrix, VNMSparseMatrix):
            raise TypeError("SpmmPlan expects a VNMSparseMatrix operand")
        if strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; use one of {_STRATEGIES}")
        self.matrix = matrix
        self.strategy = strategy
        self.config = config
        # One-time preparation (memoized on the matrix across plans).
        self.condensed16 = np.asarray(matrix.to_condensed(), dtype=np.float16).astype(np.float32)
        self.gather_indices = matrix.selected_column_indices()  # (R/V, K/M*4)
        self.metadata = matrix.packed_metadata()
        self._dense16: Optional[np.ndarray] = None
        # The auto strategy depends only on C, and serving re-executes one
        # plan hundreds of times per window at a handful of distinct C
        # values — memoize the cost-model verdict per column count.
        self._strategy_cache: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Cached plan lookup
    # ------------------------------------------------------------------
    @classmethod
    def for_matrix(
        cls,
        matrix: VNMSparseMatrix,
        strategy: str = "auto",
        config: Optional[KernelConfig] = None,
    ) -> "SpmmPlan":
        """The memoized plan of ``matrix`` (built on first use).

        Plans are cached per (strategy,) on the matrix itself, so repeated
        ``spmm`` calls — every layer forward, every sweep point — reuse one
        prepared schedule.  The cache lives for the life of the matrix and
        is naturally invalidated by constructing a new one.
        """
        if not isinstance(matrix, VNMSparseMatrix):
            raise TypeError("SpmmPlan expects a VNMSparseMatrix operand")
        key = ("spmm_plan", strategy)
        plan = matrix._memo.get(key)
        if plan is None:
            plan = cls(matrix, strategy=strategy, config=config)
            matrix._memo[key] = plan
        return plan

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def condensed_k(self) -> int:
        """Width of the condensed operand (``K/M * 4``)."""
        return self.condensed16.shape[1]

    @property
    def dense16(self) -> np.ndarray:
        """The fp16-rounded dense operand (built lazily, cached)."""
        if self._dense16 is None:
            self._dense16 = np.asarray(self.matrix.to_dense(), dtype=np.float16).astype(
                np.float32
            )
        return self._dense16

    def resolve_strategy(self, c: int) -> str:
        """The strategy ``execute`` will use for a C-column RHS."""
        if self.strategy != "auto":
            return self.strategy
        a = self.matrix
        r, k = a.shape
        kc = self.condensed_k
        gather_bytes = a.row_blocks * kc * c * 4.0
        gather_cost = gather_bytes / _GATHER_BYTES_PER_SECOND + (
            2.0 * r * kc * c / _BLOCK_GEMM_FLOPS
        )
        dense_cost = 2.0 * r * k * c / _DENSE_GEMM_FLOPS
        return "dense" if dense_cost <= gather_cost else "gather"

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, b: np.ndarray, bias: Optional[np.ndarray] = None) -> np.ndarray:
        """``A @ B (+ bias)`` with fp16-operand / fp32-accumulate numerics.

        ``b`` may be ``(K, C)`` (returns ``(R, C)``) or a batch
        ``(B, K, C)`` (returns ``(B, R, C)``).
        """
        a = self.matrix
        b = np.asarray(b)
        if b.ndim not in (2, 3) or b.shape[-2] != a.k:
            raise ValueError(
                f"B must have shape ({a.k}, C) or (batch, {a.k}, C), got {b.shape}"
            )
        c = b.shape[-1]
        strategy = self._strategy_cache.get(c)
        if strategy is None:
            strategy = self.resolve_strategy(c)
            self._strategy_cache[c] = strategy
        if strategy != "dense":
            out = self._execute_gather(quantize_fp16(b))
        else:
            # The dense schedule multiplies the zero entries of the
            # densified operand against *every* B row, so a non-finite
            # value in a row no block selects would leak NaN (0 * inf)
            # into the output.  The gather schedule only ever touches the
            # selected rows — exactly like the loop reference — so it is
            # the correct formulation for slabs that are non-finite after
            # fp16 rounding; the staging reports that per slab for free.
            b16, finite = quantize_fp16(b, return_finite=True)
            if b16.ndim == 2:
                out = np.matmul(self.dense16, b16) if finite else self._execute_gather(b16)
            elif finite.all():
                # matmul broadcasts (R, K) @ (B, K, C) into one GEMM per
                # slab, so each slab's result is bit-identical to its 2-D
                # call.
                out = np.matmul(self.dense16, b16)
            else:
                # The demotion is per slab: a slab's schedule may depend
                # only on its own values, or one non-finite request would
                # change its batchmates' bits.
                out = np.stack(
                    [
                        np.matmul(self.dense16, b16[i]) if fin else self._execute_gather(b16[i])
                        for i, fin in enumerate(finite)
                    ]
                )

        if bias is not None:
            r = a.shape[0]
            bias = np.asarray(bias, dtype=np.float32)
            if bias.shape not in {(r,), (r, 1)}:
                raise ValueError(f"bias must have shape ({r},), got {bias.shape}")
            out += bias.reshape(r, 1)
        return out

    def _execute_gather(self, b16: np.ndarray) -> np.ndarray:
        """Condensed-operand schedule: chunked gather + stacked matmul.

        ``b16`` may be ``(K, C)`` or ``(B, K, C)``.  The batched form
        broadcasts the condensed row-block operands against a per-slab
        gather, so every slab runs the exact GEMMs of its standalone 2-D
        call (slab-bit-exactness; chunking does not change any per-block
        GEMM, only how many are stacked per ``matmul`` dispatch).
        """
        a = self.matrix
        r = a.shape[0]
        c = b16.shape[-1]
        v = a.v
        kc = self.condensed_k
        cond = self.condensed16.reshape(a.row_blocks, v, kc)
        batched = b16.ndim == 3
        slabs = b16.shape[0] if batched else 1
        out = np.empty((slabs, r, c), dtype=np.float32)
        out_blocks = out.reshape(slabs, a.row_blocks, v, c)
        chunk = max(1, int(_GATHER_CHUNK_BYTES // max(1, slabs * kc * c * 4)))
        for lo in range(0, a.row_blocks, chunk):
            hi = min(lo + chunk, a.row_blocks)
            if batched:
                b_sel = b16[:, self.gather_indices[lo:hi]]  # (B, chunk, K/M*4, C)
            else:
                b_sel = b16[self.gather_indices[lo:hi]][None]  # (1, chunk, K/M*4, C)
            np.matmul(cond[lo:hi], b_sel, out=out_blocks[:, lo:hi])
        return out if batched else out[0]
