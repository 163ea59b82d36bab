"""Multi-backend SpMM dispatch registry.

The libraries in this subpackage each consume their own storage format —
Spatha's planned V:N:M engine, Sputnik's CSR, cuSPARSE's Blocked-ELL, and
the dense cuBLAS fallback — and until now every call site hard-coded one of
them.  This module adds the missing indirection: a registry mapping
``(available formats, V:N:M pattern, shape regime)`` to the backend the
performance models rank fastest, so integration layers and the serving
engine can say "multiply by this sparse operand" and let the dispatcher
pick the library.

Design rules, enforced by the consistency tests:

* **Transparency** — ``dispatch`` only *selects*; execution calls the exact
  public entry point of the chosen backend (``spatha.spmm``,
  ``sputnik.spmm``, ``cusparse.spmm``, ``cublas.gemm``), so the dispatched
  result is bit-for-bit the result of invoking that backend directly.
* **Cost ranking** — candidates are ranked by the same tuner/perf-model
  estimates the evaluation uses (:class:`~repro.kernels.spatha.tuner.SpathaTuner`
  for Spatha, each baseline's ``estimate_time`` otherwise); the chosen
  backend is the argmin of the modelled times over the supported backends.
* **Memoization** — decisions are cached per problem *signature*
  (format set, V:N:M pattern, R, K, and the power-of-two bucket of C), so
  serving traffic that revisits a shape regime pays the ranking once.
* **Slab-exact batching** — a 3-D ``(B, K, C)`` RHS produces, slab for
  slab, the bits of the corresponding 2-D calls (Spatha's plan guarantees
  this natively; the other backends run one 2-D call per slab).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import cublas, cusparse, sputnik
from .common import GemmProblem, KernelResult
from .cusparse import CusparseBlockedEllConfig
from .spatha import SpmmPlan, UnsupportedTilingError
from .spatha import spmm as spatha_spmm
from .spatha.tuner import SpathaTuner
from ..formats.base import fp16_finite, quantize_fp16
from ..formats.blocked_ell import BlockedEllMatrix
from ..formats.csr import CSRMatrix
from ..formats.vnm import VNMSparseMatrix
from ..hardware.spec import GPUSpec, rtx3090

#: Canonical format names, used both as operand keys and backend tags.
FORMAT_VNM = "vnm"
FORMAT_CSR = "csr"
FORMAT_BLOCKED_ELL = "blocked_ell"
FORMAT_DENSE = "dense"

#: Cost models require sparsity strictly below 1; an all-zero operand is
#: clamped to this ceiling (its execution is trivial either way).
_MAX_MODEL_SPARSITY = 1.0 - 1e-6


class BackendExecutionError(RuntimeError):
    """A backend's execution entry point failed (really or by injection).

    Raised by the fault injector (:mod:`repro.serving.faults`) to model a
    backend fault, and by :meth:`KernelDispatcher.execute` when *every*
    candidate backend of a dispatch decision failed — the unrecoverable
    case the serving engines isolate per request instead of letting one
    poisoned call take down a whole micro-batch.
    """

    def __init__(self, message: str, backend: str = "") -> None:
        super().__init__(message)
        #: Registry name of the backend that failed ("" for the exhausted
        #: multi-backend case).
        self.backend = backend


class SpmmOperand:
    """One logical sparse LHS carried in one or more storage formats.

    The dispatcher chooses among the backends whose format is present.  A
    dense fallback view is always derivable (memoized on first use), so the
    cuBLAS backend is a candidate for every operand unless explicitly
    disabled with ``allow_dense=False``.
    """

    def __init__(
        self,
        vnm: Optional[VNMSparseMatrix] = None,
        csr: Optional[CSRMatrix] = None,
        blocked_ell: Optional[BlockedEllMatrix] = None,
        dense: Optional[np.ndarray] = None,
        allow_dense: bool = True,
        name: str = "",
    ) -> None:
        if vnm is not None and not isinstance(vnm, VNMSparseMatrix):
            raise TypeError("vnm must be a VNMSparseMatrix")
        if csr is not None and not isinstance(csr, CSRMatrix):
            raise TypeError("csr must be a CSRMatrix")
        if blocked_ell is not None and not isinstance(blocked_ell, BlockedEllMatrix):
            raise TypeError("blocked_ell must be a BlockedEllMatrix")
        self.vnm = vnm
        self.csr = csr
        self.blocked_ell = blocked_ell
        self.allow_dense = allow_dense
        self.name = name
        self._dense = None if dense is None else np.asarray(dense, dtype=np.float32)
        self._dense16: Optional[np.ndarray] = None
        self._sparsity: Optional[float] = None
        self._content_signature: Optional[Tuple] = None
        #: Full dispatch signature per shape bucket (every component is
        #: operand-intrinsic and immutable, so dispatchers share the memo).
        self._sig_cache: Dict[int, Tuple] = {}
        shapes = {
            tuple(m.shape) for m in (vnm, csr, blocked_ell, self._dense) if m is not None
        }
        if not shapes:
            raise ValueError("operand needs at least one stored format")
        if len(shapes) > 1:
            raise ValueError(f"stored formats disagree on the logical shape: {sorted(shapes)}")
        self.shape: Tuple[int, int] = next(iter(shapes))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_vnm(cls, matrix: VNMSparseMatrix, allow_dense: bool = True, name: str = "") -> "SpmmOperand":
        """Wrap an existing V:N:M operand (the layer-integration case)."""
        return cls(vnm=matrix, allow_dense=allow_dense, name=name)

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        formats: Sequence[str] = (FORMAT_CSR,),
        v: Optional[int] = None,
        n: Optional[int] = None,
        m: Optional[int] = None,
        block_size: int = 16,
        allow_dense: bool = True,
        name: str = "",
    ) -> "SpmmOperand":
        """Materialise the requested formats from one (already pruned) matrix.

        The V:N:M format additionally needs the pattern parameters and the
        matrix must already obey the pattern (compress with
        :class:`~repro.integration.sparsifier.VNMSparsifier` otherwise).
        """
        arr = np.asarray(dense, dtype=np.float32)
        kwargs: Dict[str, object] = {}
        for fmt in formats:
            if fmt == FORMAT_VNM:
                if v is None or n is None or m is None:
                    raise ValueError("the vnm format requires v, n and m")
                kwargs["vnm"] = VNMSparseMatrix.from_dense(arr, v=v, n=n, m=m, strict=True)
            elif fmt == FORMAT_CSR:
                kwargs["csr"] = CSRMatrix.from_dense(arr)
            elif fmt == FORMAT_BLOCKED_ELL:
                kwargs["blocked_ell"] = BlockedEllMatrix.from_dense(arr, b=block_size)
            elif fmt == FORMAT_DENSE:
                pass  # the dense view is always derivable
            else:
                raise ValueError(f"unknown format {fmt!r}")
        return cls(dense=arr, allow_dense=allow_dense, name=name, **kwargs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def formats(self) -> Tuple[str, ...]:
        """Names of the formats this operand can be executed from (sorted)."""
        out = []
        if self.vnm is not None:
            out.append(FORMAT_VNM)
        if self.csr is not None:
            out.append(FORMAT_CSR)
        if self.blocked_ell is not None:
            out.append(FORMAT_BLOCKED_ELL)
        if self.allow_dense:
            out.append(FORMAT_DENSE)
        return tuple(sorted(out))

    @property
    def pattern(self) -> Optional[Tuple[int, int, int]]:
        """The ``(V, N, M)`` pattern when a V:N:M view exists."""
        if self.vnm is None:
            return None
        return (self.vnm.v, self.vnm.n, self.vnm.m)

    @property
    def r(self) -> int:
        return self.shape[0]

    @property
    def k(self) -> int:
        return self.shape[1]

    def dense(self) -> np.ndarray:
        """The dense view (memoized; decompressed from a stored format)."""
        if self._dense is None:
            if self.vnm is not None:
                self._dense = self.vnm.to_dense()
            elif self.csr is not None:
                self._dense = self.csr.to_dense()
            elif self.blocked_ell is not None:
                self._dense = self.blocked_ell.to_dense()
            else:  # pragma: no cover - constructor guarantees a format
                raise ValueError("operand has no stored format")
        return self._dense

    def dense16(self) -> np.ndarray:
        """The fp16-rounded dense view as float32 (memoized).

        This is the first half of :func:`~repro.kernels.common.reference_matmul_fp16`
        hoisted out of the per-call path, so repeated dense-fallback
        executions (a serving loop) do not re-round the operand every call.
        """
        if self._dense16 is None:
            self._dense16 = np.asarray(self.dense(), dtype=np.float16).astype(np.float32)
        return self._dense16

    def sparsity(self) -> float:
        """Logical sparsity used by the cost models (memoized)."""
        if self._sparsity is None:
            if self.vnm is not None:
                sparsity = self.vnm.logical_sparsity
            else:
                nnz = self.csr.nnz if self.csr is not None else int(np.count_nonzero(self.dense()))
                sparsity = 1.0 - nnz / float(self.r * self.k)
            self._sparsity = min(max(0.0, sparsity), _MAX_MODEL_SPARSITY)
        return self._sparsity

    def content_signature(self) -> Tuple:
        """The cost-model-relevant content of this operand (memoized).

        Everything the backend estimators read beyond (R, K, C) must appear
        here, otherwise two same-shape operands with different content
        would alias to one cached dispatch decision: the sparsity, the
        CSR load imbalance, and the Blocked-ELL block size / padding.
        """
        if self._content_signature is None:
            sig: Tuple = (round(self.sparsity(), 4),)
            if self.csr is not None:
                sig += (round(float(max(1.0, self.csr.load_imbalance())), 3),)
            if self.blocked_ell is not None:
                sig += (
                    self.blocked_ell.b,
                    round(float(self.blocked_ell.padding_fraction()), 3),
                )
            self._content_signature = sig
        return self._content_signature

    def problem(self, c: int) -> GemmProblem:
        """The ``R x K x C`` problem of multiplying this operand by a C-column RHS."""
        pat = self.pattern
        return GemmProblem(
            r=self.r,
            k=self.k,
            c=c,
            sparsity=self.sparsity(),
            v=pat[0] if pat else None,
            n=pat[1] if pat else None,
            m=pat[2] if pat else None,
            name=self.name,
        )


def _validate_rhs(operand: SpmmOperand, b: np.ndarray) -> np.ndarray:
    b = np.asarray(b)
    if b.ndim not in (2, 3) or b.shape[-2] != operand.k:
        raise ValueError(
            f"B must have shape ({operand.k}, C) or (batch, {operand.k}, C), got {b.shape}"
        )
    return b


def _per_slab(fn, b: np.ndarray) -> np.ndarray:
    """Run a 2-D kernel per slab of a 3-D RHS (trivially slab-bit-exact)."""
    if b.ndim == 2:
        return fn(b)
    return np.stack([fn(b[i]) for i in range(b.shape[0])])


class Backend:
    """One executable library in the registry.

    Subclasses bind a storage format, a perf-model estimator and the
    library's public execution entry point.  ``execute`` accepts a 2-D
    ``(K, C)`` or 3-D ``(B, K, C)`` RHS and never re-implements numerics:
    it forwards to the library function the tests invoke directly.
    """

    #: Registry name, e.g. ``"spatha-plan"``.
    name: str = ""
    #: Format consumed (one of the FORMAT_* constants).
    format: str = ""

    def supports(self, operand: SpmmOperand) -> bool:
        """True when the operand carries this backend's storage format."""
        return self.format in operand.formats

    def estimate(self, operand: SpmmOperand, c: int, gpu: GPUSpec) -> KernelResult:
        """Modelled execution time on the simulated GPU."""
        raise NotImplementedError

    def execute(self, operand: SpmmOperand, b: np.ndarray) -> np.ndarray:
        """The library's numerical result (no bias; the dispatcher adds it)."""
        raise NotImplementedError


class SpathaPlanBackend(Backend):
    """Spatha's planned V:N:M engine, ranked by the template auto-tuner."""

    name = "spatha-plan"
    format = FORMAT_VNM

    def __init__(self, tuner: Optional[SpathaTuner] = None) -> None:
        self._tuner = tuner

    def _tuner_for(self, gpu: GPUSpec) -> SpathaTuner:
        if self._tuner is None or self._tuner.gpu is not gpu:
            self._tuner = SpathaTuner(gpu=gpu)
        return self._tuner

    def estimate(self, operand: SpmmOperand, c: int, gpu: GPUSpec) -> KernelResult:
        tuner = self._tuner_for(gpu)
        problem = operand.problem(c)
        try:
            return tuner.best_result(problem)
        except UnsupportedTilingError:
            # The one expected failure: the template space only instantiates
            # warp tiles for hardware-sized V with V | R; the real library
            # pads such operands, so cost the padded launch instead.  Any
            # other error (including a plain ValueError) is a genuine model
            # bug and must propagate, not be silently re-costed as a proxy.
            v_model = 16
            r_model = -(-problem.r // v_model) * v_model
            proxy = GemmProblem(
                r=r_model,
                k=problem.k,
                c=problem.c,
                sparsity=problem.sparsity,
                n=problem.n,
                m=problem.m,
                v=v_model,
                name=problem.name,
            )
            return tuner.best_result(proxy)

    def execute(self, operand: SpmmOperand, b: np.ndarray) -> np.ndarray:
        # spatha.spmm handles 2-D and 3-D natively through the memoized
        # SpmmPlan, whose batched path is slab-bit-exact by construction.
        return spatha_spmm(operand.vnm, b)

    def plan(self, operand: SpmmOperand) -> SpmmPlan:
        """Warm (and return) the operand's memoized execution plan."""
        return SpmmPlan.for_matrix(operand.vnm)


class SputnikCsrBackend(Backend):
    """Sputnik's unstructured CSR SpMM (CUDA cores, no SPTC)."""

    name = "sputnik-csr"
    format = FORMAT_CSR

    def estimate(self, operand: SpmmOperand, c: int, gpu: GPUSpec) -> KernelResult:
        csr = operand.csr
        return sputnik.estimate_time(
            operand.problem(c), gpu=gpu, load_imbalance=max(1.0, csr.load_imbalance())
        )

    def execute(self, operand: SpmmOperand, b: np.ndarray) -> np.ndarray:
        return _per_slab(lambda slab: sputnik.spmm(operand.csr, slab), b)


class CusparseBlockedEllBackend(Backend):
    """cuSPARSE Blocked-ELL SpMM (dense tensor cores over stored blocks)."""

    name = "cusparse-blocked-ell"
    format = FORMAT_BLOCKED_ELL

    def estimate(self, operand: SpmmOperand, c: int, gpu: GPUSpec) -> KernelResult:
        ell = operand.blocked_ell
        return cusparse.estimate_time(
            operand.problem(c),
            gpu=gpu,
            config=CusparseBlockedEllConfig(block_size=ell.b),
            padding_fraction=ell.padding_fraction(),
        )

    def execute(self, operand: SpmmOperand, b: np.ndarray) -> np.ndarray:
        return _per_slab(lambda slab: cusparse.spmm(operand.blocked_ell, slab), b)


class CublasDenseBackend(Backend):
    """Dense cuBLAS HGEMM on the decompressed operand (the safe fallback)."""

    name = "cublas-dense"
    format = FORMAT_DENSE

    def estimate(self, operand: SpmmOperand, c: int, gpu: GPUSpec) -> KernelResult:
        return cublas.estimate_time(operand.problem(c), gpu=gpu)

    def execute(self, operand: SpmmOperand, b: np.ndarray) -> np.ndarray:
        # Identical arithmetic to cublas.gemm(operand.dense(), slab) — the
        # fp16 rounding of the operand is just hoisted into the memoized
        # dense16 view — so the result stays bit-for-bit the direct call's.
        a16 = operand.dense16()
        return _per_slab(lambda slab: a16 @ quantize_fp16(slab), b)


def default_backends() -> List[Backend]:
    """Fresh instances of the four standard backends."""
    return [
        SpathaPlanBackend(),
        SputnikCsrBackend(),
        CusparseBlockedEllBackend(),
        CublasDenseBackend(),
    ]


@dataclass
class DispatchDecision:
    """Outcome of ranking the candidate backends for one problem signature."""

    signature: Tuple
    backend: str
    #: Modelled time (us) of every supported candidate, in registry order.
    costs: Dict[str, float] = field(default_factory=dict)
    #: C at which the costs were evaluated (the bucket's first-seen C).
    decided_at_c: int = 0
    #: Failovers taken at execute time under this decision, keyed
    #: ``"failed->served"``.  Absent measurements the decision never changes
    #: — ``backend`` stays the cost argmin so re-admitted backends are
    #: routed to again — this is the audit trail of which calls had to walk
    #: down the ranking.
    failovers: Dict[str, int] = field(default_factory=dict)
    #: Measurement-blended effective cost (us) per candidate: the measured
    #: EWMA where this signature has observed runtimes, the modelled cost
    #: rescaled onto the measured scale otherwise.  Empty until the
    #: dispatcher has at least one observation for the signature; once
    #: populated it overrides ``costs`` in :attr:`ranking` (and may re-rank
    #: ``backend``) so decisions track reality, not just the model.
    measured: Dict[str, float] = field(default_factory=dict)

    @property
    def ranking(self) -> List[Tuple[str, float]]:
        """Candidates sorted fastest first (measurement-blended when fed)."""
        return sorted((self.measured or self.costs).items(), key=lambda kv: kv[1])

    def record_failover(self, failed: str, served: str) -> None:
        """Count one execute-time failover from ``failed`` to ``served``."""
        key = f"{failed}->{served}"
        self.failovers[key] = self.failovers.get(key, 0) + 1


class KernelDispatcher:
    """Registry mapping (formats, pattern, shape regime) to the best backend.

    Decisions are memoized per :meth:`signature`; use a fresh dispatcher (or
    :meth:`clear_cache`) to force re-ranking.  Execution is transparent: the
    chosen backend's public entry point is invoked on the operand's stored
    format, so dispatched results are bit-for-bit the direct-call results.
    """

    def __init__(
        self,
        gpu: Optional[GPUSpec] = None,
        backends: Optional[Sequence[Backend]] = None,
        name: str = "",
        failure_threshold: int = 3,
        probe_interval: int = 4,
        observe_runtimes: bool = False,
        measurement_alpha: float = 0.25,
    ) -> None:
        self.gpu = gpu or rtx3090()
        self.backends: List[Backend] = list(backends) if backends is not None else default_backends()
        #: Diagnostic label (serving engines set it to "<engine>.dispatcher");
        #: prefixed onto dispatch errors so a multi-engine process can tell
        #: whose dispatcher rejected an operand.
        self.name = name
        self._decisions: Dict[Tuple, DispatchDecision] = {}
        #: Decision-cache traffic counters: a hit is a ``dispatch`` call
        #: answered from the memo, a miss one that ranked the backends.
        #: Serving engines surface these on ``stats()`` to prove
        #: cross-request reuse; they accumulate across ``clear_cache``.
        self.cache_hits = 0
        self.cache_misses = 0
        #: Memoized :meth:`estimate` results, keyed by (signature, exact C,
        #: backend, operand name) — the cost models are pure functions of
        #: that key, and the serving engines call ``estimate`` per layer per
        #: step, which dominated the continuous step loop before memoization.
        self._estimates: Dict[Tuple, KernelResult] = {}
        self.estimate_hits = 0
        self.estimate_misses = 0
        if not 0.0 < measurement_alpha <= 1.0:
            raise ValueError("measurement_alpha must be in (0, 1]")
        #: When True, :meth:`execute` wall-clock-times every successful
        #: backend call and feeds it to :meth:`record_runtime` automatically.
        #: Off by default: a measured re-rank changes which backend later
        #: identical calls route to, which is exactly what you want in a
        #: long-lived server and exactly what you do not want while
        #: asserting batched-vs-sequential bit-equality mid-run (each call
        #: is still bit-for-bit its backend's direct invocation either way).
        self.observe_runtimes = observe_runtimes
        #: EWMA smoothing factor for measured runtimes (1.0 = latest only).
        self.measurement_alpha = measurement_alpha
        #: Measured-runtime EWMA (us) per (signature, backend), plus sample
        #: counts; cumulative counters surfaced in :meth:`health_stats`.
        self._observed: Dict[Tuple, float] = {}
        self._observed_counts: Dict[Tuple, int] = {}
        self.observations = 0
        self.measured_reranks = 0
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if probe_interval < 1:
            raise ValueError("probe_interval must be >= 1")
        #: Consecutive execute failures after which a backend is quarantined.
        self.failure_threshold = failure_threshold
        #: Executes a quarantined backend sits out before one probe attempt.
        self.probe_interval = probe_interval
        #: Consecutive-failure streak per backend (reset on any success).
        self._consecutive_failures: Dict[str, int] = {}
        #: Quarantined backends mapped to the number of executes remaining
        #: before a probe attempt; 0 means the next execute probes it.
        self._quarantine: Dict[str, int] = {}
        #: Cumulative health counters (surfaced by :meth:`health_stats`).
        self.backend_failures = 0
        self.failover_count = 0
        self.quarantine_events = 0
        self.readmission_events = 0

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register(self, backend: Backend, prepend: bool = False) -> None:
        """Add a backend (its ``name`` must be unique)."""
        if any(b.name == backend.name for b in self.backends):
            raise ValueError(f"backend {backend.name!r} is already registered")
        if prepend:
            self.backends.insert(0, backend)
        else:
            self.backends.append(backend)
        self._decisions.clear()
        self._estimates.clear()

    def backend(self, name: str) -> Backend:
        """Look a backend up by registry name."""
        for b in self.backends:
            if b.name == name:
                return b
        raise KeyError(f"no backend named {name!r}; registered: {[b.name for b in self.backends]}")

    # ------------------------------------------------------------------
    # Signatures and decisions
    # ------------------------------------------------------------------
    @staticmethod
    def shape_bucket(c: int) -> int:
        """The power-of-two shape-regime bucket of a C-column RHS."""
        if c <= 0:
            raise ValueError("C must be positive")
        return 1 << (int(c) - 1).bit_length()

    def signature(self, operand: SpmmOperand, c: int) -> Tuple:
        """The memoization key: formats, pattern, shape regime and content.

        Includes :meth:`SpmmOperand.content_signature` so same-shape
        operands with different sparsity/structure never alias to one
        cached decision (distinct layers of a model may legitimately
        dispatch to different backends).  Memoized per bucket on the
        operand — the serving engines rebuild it several times per layer
        per step, and every component is immutable.
        """
        bucket = self.shape_bucket(c)
        sig = operand._sig_cache.get(bucket)
        if sig is None:
            sig = (
                operand.formats,
                operand.pattern,
                operand.r,
                operand.k,
                bucket,
                operand.content_signature(),
            )
            operand._sig_cache[bucket] = sig
        return sig

    def dispatch(self, operand: SpmmOperand, c: int) -> DispatchDecision:
        """Rank the supported backends for this problem (memoized).

        The first call of a signature evaluates every candidate's cost model
        at the requested ``c`` and caches the full ranking; later calls in
        the same shape bucket reuse it.
        """
        sig = self.signature(operand, c)
        decision = self._decisions.get(sig)
        if decision is not None:
            self.cache_hits += 1
            return decision
        self.cache_misses += 1
        costs: Dict[str, float] = {}
        for backend in self.backends:
            if not backend.supports(operand):
                continue
            costs[backend.name] = backend.estimate(operand, c, self.gpu).time_us
        if not costs:
            raise ValueError(
                f"{self.name or 'dispatcher'}: no registered backend supports "
                f"formats {operand.formats}"
            )
        best = min(costs.items(), key=lambda kv: kv[1])[0]
        decision = DispatchDecision(signature=sig, backend=best, costs=costs, decided_at_c=c)
        self._decisions[sig] = decision
        self._apply_measurements(decision)
        return decision

    def estimate(self, operand: SpmmOperand, c: int, backend: Optional[str] = None) -> KernelResult:
        """Modelled kernel result at exactly ``c`` columns (memoized).

        Uses the dispatched backend unless one is named.  Unlike
        :meth:`dispatch`, which buckets ``c`` into shape regimes, this is
        memoized at the *exact* column count — the cost models are pure
        per (content signature, C, backend), and the serving engines ask
        for the same handful of (layer, bucket-C) estimates on every step.
        Callers must treat the returned :class:`KernelResult` as read-only
        (``as_execution`` already copies ``details`` into a fresh meta).
        """
        name = backend or self.dispatch(operand, c).backend
        key = (self.signature(operand, c), int(c), name, operand.name)
        result = self._estimates.get(key)
        if result is not None:
            self.estimate_hits += 1
            return result
        self.estimate_misses += 1
        result = self.backend(name).estimate(operand, c, self.gpu)
        self._estimates[key] = result
        return result

    # ------------------------------------------------------------------
    # Measured runtimes (the measurement-fed half of the ranking)
    # ------------------------------------------------------------------
    def record_runtime(self, operand: SpmmOperand, c: int, backend: str, measured_us: float) -> None:
        """Feed one measured wall-clock runtime for ``backend`` on this problem.

        Updates the per-(signature, backend) EWMA and immediately re-blends
        the signature's cached decision (see :meth:`_apply_measurements`),
        so the ranking tracks observed reality instead of the static cost
        model alone.  Callers with out-of-band timings (the bench harness, a
        serving sidecar) use this directly; set ``observe_runtimes=True`` to
        have :meth:`execute` feed itself.
        """
        if not measured_us > 0:
            raise ValueError(f"measured_us must be positive, got {measured_us}")
        name = self.backend(backend).name  # validates the backend exists
        self._observe(self.signature(operand, c), name, float(measured_us))

    def _observe(self, sig: Tuple, name: str, measured_us: float) -> None:
        key = (sig, name)
        prev = self._observed.get(key)
        alpha = self.measurement_alpha
        self._observed[key] = (
            measured_us if prev is None else alpha * measured_us + (1.0 - alpha) * prev
        )
        self._observed_counts[key] = self._observed_counts.get(key, 0) + 1
        self.observations += 1
        decision = self._decisions.get(sig)
        if decision is not None:
            self._apply_measurements(decision)

    def _blend(self, sig: Tuple, costs: Dict[str, float]) -> Dict[str, float]:
        """Effective cost per candidate: measured where observed, calibrated
        model elsewhere.

        Measured wall-clock (CPU) and modelled (simulated-GPU) times live on
        different scales, so candidates without observations cannot compete
        on raw modelled numbers.  The median observed/modelled ratio across
        the observed candidates calibrates the model onto the measured
        scale; unobserved candidates enter the ranking at
        ``modelled * scale``.  Empty when the signature has no observations.
        """
        observed = {n: self._observed[(sig, n)] for n in costs if (sig, n) in self._observed}
        if not observed:
            return {}
        ratios = sorted(observed[n] / costs[n] for n in observed if costs[n] > 0)
        scale = ratios[len(ratios) // 2] if ratios else 1.0
        return {n: observed.get(n, cost * scale) for n, cost in costs.items()}

    def _apply_measurements(self, decision: DispatchDecision) -> None:
        """Re-blend one decision's effective costs; re-rank if reality won."""
        measured = self._blend(decision.signature, decision.costs)
        if not measured:
            return
        decision.measured = measured
        best = min(measured.items(), key=lambda kv: kv[1])[0]
        if best != decision.backend:
            decision.backend = best
            self.measured_reranks += 1

    # ------------------------------------------------------------------
    # Backend health (circuit breaker)
    # ------------------------------------------------------------------
    def is_quarantined(self, name: str) -> bool:
        """True while ``name`` is sitting out the candidate walk."""
        return name in self._quarantine

    def quarantined(self) -> Tuple[str, ...]:
        """Currently quarantined backend names (sorted)."""
        return tuple(sorted(self._quarantine))

    def _record_failure(self, name: str) -> None:
        self.backend_failures += 1
        streak = self._consecutive_failures.get(name, 0) + 1
        self._consecutive_failures[name] = streak
        if name in self._quarantine:
            # A failed probe: back to the penalty box for a full interval.
            self._quarantine[name] = self.probe_interval
        elif streak >= self.failure_threshold:
            self._quarantine[name] = self.probe_interval
            self.quarantine_events += 1

    def _record_success(self, name: str) -> None:
        self._consecutive_failures.pop(name, None)
        if name in self._quarantine:
            # A successful probe re-admits the backend immediately.
            del self._quarantine[name]
            self.readmission_events += 1

    def health_stats(self) -> Dict[str, object]:
        """Circuit-breaker counters plus the measured-runtime summary
        (separate from :meth:`cache_stats`).

        ``observed_backends`` aggregates the per-signature EWMAs per
        backend: ``samples`` fed, and the mean EWMA in us — enough to see
        *which* backends real traffic exercised and how they actually
        timed; ``measured_reranks`` counts decisions whose best backend
        flipped because of measurements.
        """
        observed: Dict[str, Dict[str, float]] = {}
        for (sig, name), ewma in self._observed.items():
            agg = observed.setdefault(name, {"samples": 0, "_sum": 0.0, "_n": 0})
            agg["samples"] += self._observed_counts[(sig, name)]
            agg["_sum"] += ewma
            agg["_n"] += 1
        for agg in observed.values():
            agg["mean_ewma_us"] = round(agg.pop("_sum") / agg.pop("_n"), 3)
        return {
            "failures": self.backend_failures,
            "failovers": self.failover_count,
            "quarantines": self.quarantine_events,
            "readmissions": self.readmission_events,
            "quarantined": list(self.quarantined()),
            "observations": self.observations,
            "measured_reranks": self.measured_reranks,
            "observed_backends": {name: observed[name] for name in sorted(observed)},
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _attempt(self, operand: SpmmOperand, b: np.ndarray, name: str, decision: DispatchDecision) -> np.ndarray:
        """Run one candidate backend, honouring the non-finite demotion."""
        if name == CublasDenseBackend.name and len(decision.costs) > 1:
            # Same guard as SpmmPlan's dense->gather demotion: the dense
            # fallback multiplies the decompressed operand's zeros against
            # every B row, so a non-finite value in a row the sparse
            # structure never selects would leak NaN (0 * inf) into the
            # output.  The sparse-format backends only touch stored
            # entries, so route to the fastest of those instead.  The check
            # is per *slab*: a slab's backend may depend only on its own
            # values, otherwise one non-finite request in a serving
            # micro-batch would flip its batchmates' backend and break the
            # batched == sequential bit-exactness guarantee.
            fallback = next(
                fname for fname, _ in decision.ranking if fname != CublasDenseBackend.name
            )
            # The backends execute on fp16-rounded operands, so a
            # large-but-finite float32 value (>= 65520) still becomes inf
            # inside the kernel: the guard looks at the rounded values.
            finite = fp16_finite(b)
            if b.ndim == 2:
                if not finite:
                    return self.backend(fallback).execute(operand, b)
            elif not finite.all():
                dense_backend = self.backend(name)
                sparse_backend = self.backend(fallback)
                return np.stack(
                    [
                        (dense_backend if fin else sparse_backend).execute(operand, b[i])
                        for i, fin in enumerate(finite)
                    ]
                )
        return self.backend(name).execute(operand, b)

    def _candidate_order(self, decision: DispatchDecision) -> List[str]:
        """Candidates for one execute: healthy by rank, then quarantined.

        Quarantined backends tick one step closer to their probe on every
        execute that passes them over; one with an expired countdown is
        admitted at its ranked position (the probe attempt).  Quarantined
        candidates are kept at the tail as a last resort so an execute never
        fails without trying every registered candidate.
        """
        ranked = [decision.backend] + [
            name for name, _ in decision.ranking if name != decision.backend
        ]
        admitted: List[str] = []
        deferred: List[str] = []
        for name in ranked:
            remaining = self._quarantine.get(name)
            if remaining is None or remaining <= 0:
                admitted.append(name)
            else:
                self._quarantine[name] = remaining - 1
                deferred.append(name)
        return admitted + deferred

    def execute(
        self,
        operand: SpmmOperand,
        b: np.ndarray,
        bias: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``A @ B (+ bias)`` through the dispatched backend, with failover.

        ``b`` may be ``(K, C)`` or a batch ``(B, K, C)``; batched execution
        is slab-bit-exact.  Without a bias the result is bit-for-bit the
        chosen backend's direct output; the bias epilogue adds
        ``bias.reshape(R, 1)`` exactly like the Spatha plan does.  A
        non-finite RHS demotes the dense fallback to the fastest
        sparse-format backend (see :meth:`_attempt`).

        When a candidate raises :class:`BackendExecutionError` the walk
        continues down the cost ranking; the result served by a fallback is
        bit-for-bit what invoking that fallback directly would return,
        because the fallback runs the identical public entry point.  The
        failover is recorded on the decision, the circuit breaker counts the
        failure, and only when *every* candidate fails does the call raise.
        """
        b = _validate_rhs(operand, b)
        decision = self.dispatch(operand, b.shape[-1])
        out: Optional[np.ndarray] = None
        errors: List[str] = []
        first_failed: Optional[str] = None
        for name in self._candidate_order(decision):
            try:
                if self.observe_runtimes:
                    started = time.perf_counter()
                    out = self._attempt(operand, b, name, decision)
                    elapsed_us = max((time.perf_counter() - started) * 1e6, 1e-3)
                    self._observe(decision.signature, name, elapsed_us)
                else:
                    out = self._attempt(operand, b, name, decision)
            except BackendExecutionError as exc:
                failed = exc.backend or name
                self._record_failure(failed)
                errors.append(f"{failed}: {exc}")
                if first_failed is None:
                    first_failed = name
                continue
            self._record_success(name)
            if first_failed is not None:
                decision.record_failover(first_failed, name)
                self.failover_count += 1
            break
        if out is None:
            raise BackendExecutionError(
                f"{self.name or 'dispatcher'}: all candidate backends failed "
                f"for operand {operand.name or operand.shape}: " + "; ".join(errors)
            )
        if bias is not None:
            r = operand.r
            bias = np.asarray(bias, dtype=np.float32)
            if bias.shape not in {(r,), (r, 1)}:
                raise ValueError(f"bias must have shape ({r},), got {bias.shape}")
            out += bias.reshape(r, 1)
        return out

    def warm(self, operand: SpmmOperand, cs: Sequence[int] = ()) -> None:
        """Prepare the operand for serving.

        Builds the Spatha plan (when a V:N:M view exists) and, for every
        column count in ``cs``, pre-populates the dispatch decision of its
        shape bucket — so a warmed server pays neither operand preparation
        nor the cost-model ranking (including the tuner sweep) on its first
        real request.
        """
        if operand.vnm is not None:
            SpmmPlan.for_matrix(operand.vnm)
        for c in cs:
            self.dispatch(operand, c)

    def warm_many(self, operands: Sequence[SpmmOperand], cs: Sequence[int] = ()) -> int:
        """Warm a whole model's worth of operands in one call.

        The multi-operand form of :meth:`warm`: a model serving engine hands
        over every sparse projection of its encoder plus the token buckets
        it expects traffic on, and the dispatcher builds each operand's plan
        and pre-ranks each (operand, bucket) signature.  Returns the number
        of operands warmed.
        """
        count = 0
        for operand in operands:
            self.warm(operand, cs=cs)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def cache_size(self) -> int:
        """Number of memoized dispatch decisions."""
        return len(self._decisions)

    def cache_stats(self) -> Dict[str, int]:
        """Decision/estimate-cache counters: entries held plus cumulative traffic."""
        return {
            "size": self.cache_size(),
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "estimate_size": len(self._estimates),
            "estimate_hits": self.estimate_hits,
            "estimate_misses": self.estimate_misses,
        }

    def clear_cache(self) -> None:
        """Drop all memoized decisions and estimates (backends keep their
        tuner caches; measured-runtime EWMAs survive too — they describe
        reality, and re-ranking a re-decided signature should still see
        them).

        The hit/miss counters are cumulative traffic statistics and survive
        the clear (the next ``dispatch`` of a dropped signature counts as a
        miss again).
        """
        self._decisions.clear()
        self._estimates.clear()


_DEFAULT_DISPATCHER: Optional[KernelDispatcher] = None


def default_dispatcher() -> KernelDispatcher:
    """The shared process-wide dispatcher (lazily created).

    Layer integrations route through this instance by default so that every
    sparse layer of a model shares one decision cache and one tuner.
    """
    global _DEFAULT_DISPATCHER
    if _DEFAULT_DISPATCHER is None:
        _DEFAULT_DISPATCHER = KernelDispatcher()
    return _DEFAULT_DISPATCHER
