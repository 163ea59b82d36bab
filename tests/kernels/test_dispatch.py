"""Unit tests for the multi-backend dispatch registry."""

import numpy as np
import pytest

from repro.formats.blocked_ell import BlockedEllMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.vnm import VNMSparseMatrix
from repro.kernels import cublas, sputnik
from repro.kernels.dispatch import (
    Backend,
    CublasDenseBackend,
    KernelDispatcher,
    SpmmOperand,
    default_dispatcher,
)
from repro.kernels.spatha import SpmmPlan
from repro.pruning.masks import apply_mask
from repro.hardware.spec import rtx3090
from repro.pruning.vnm import vnm_mask


@pytest.fixture
def pruned(rng):
    dense = rng.normal(size=(32, 64))
    return apply_mask(dense, vnm_mask(dense, v=8, n=2, m=8)).astype(np.float32)


@pytest.fixture
def operand(pruned):
    return SpmmOperand.from_dense(
        pruned, formats=("vnm", "csr", "blocked_ell"), v=8, n=2, m=8, block_size=8
    )


class TestSpmmOperand:
    def test_formats_and_pattern(self, operand):
        assert operand.formats == ("blocked_ell", "csr", "dense", "vnm")
        assert operand.pattern == (8, 2, 8)
        assert operand.shape == (32, 64)

    def test_allow_dense_false_excludes_fallback(self, pruned):
        op = SpmmOperand.from_dense(pruned, formats=("csr",), allow_dense=False)
        assert op.formats == ("csr",)

    def test_dense_view_matches_stored_formats(self, operand, pruned):
        assert np.allclose(operand.dense(), pruned, atol=1e-6)

    def test_dense_view_memoized(self, operand):
        assert operand.dense() is operand.dense()

    def test_from_vnm(self, pruned):
        vnm = VNMSparseMatrix.from_dense(pruned, v=8, n=2, m=8, strict=True)
        op = SpmmOperand.from_vnm(vnm)
        assert op.formats == ("dense", "vnm")
        assert op.pattern == (8, 2, 8)

    def test_sparsity_from_pattern_and_counts(self, pruned):
        vnm_op = SpmmOperand.from_vnm(VNMSparseMatrix.from_dense(pruned, v=8, n=2, m=8))
        assert vnm_op.sparsity() == pytest.approx(0.75)
        csr_op = SpmmOperand.from_dense(pruned, formats=("csr",))
        assert csr_op.sparsity() == pytest.approx(
            1.0 - np.count_nonzero(pruned) / pruned.size
        )

    def test_rejects_empty_and_mismatched(self, pruned, rng):
        with pytest.raises(ValueError):
            SpmmOperand(allow_dense=False)
        with pytest.raises(ValueError):
            SpmmOperand(
                csr=CSRMatrix.from_dense(pruned),
                dense=rng.normal(size=(8, 8)).astype(np.float32),
            )

    def test_all_zero_operand_has_model_safe_sparsity(self):
        op = SpmmOperand.from_dense(np.zeros((8, 16), dtype=np.float32), formats=("csr",))
        assert op.sparsity() < 1.0
        assert op.problem(4).sparsity < 1.0

    def test_unknown_format_rejected(self, pruned):
        with pytest.raises(ValueError):
            SpmmOperand.from_dense(pruned, formats=("coo",))


class TestDispatchDecisions:
    def test_chosen_backend_is_cost_argmin(self, operand):
        dispatcher = KernelDispatcher()
        decision = dispatcher.dispatch(operand, 24)
        assert set(decision.costs) == {
            "spatha-plan",
            "sputnik-csr",
            "cusparse-blocked-ell",
            "cublas-dense",
        }
        assert decision.backend == min(decision.costs, key=decision.costs.get)
        assert decision.ranking[0][0] == decision.backend

    def test_costs_match_direct_estimators(self, operand):
        """The registry ranks with the same tuner/perf-model estimates a
        caller would compute by hand."""
        dispatcher = KernelDispatcher()
        decision = dispatcher.dispatch(operand, 24)
        assert decision.costs["sputnik-csr"] == pytest.approx(
            sputnik.estimate_time(
                operand.problem(24),
                gpu=dispatcher.gpu,
                load_imbalance=max(1.0, operand.csr.load_imbalance()),
            ).time_us
        )
        assert decision.costs["cublas-dense"] == pytest.approx(
            cublas.estimate_time(operand.problem(24), gpu=dispatcher.gpu).time_us
        )

    def test_decision_memoized_per_shape_bucket(self, operand):
        dispatcher = KernelDispatcher()
        d1 = dispatcher.dispatch(operand, 20)
        assert dispatcher.dispatch(operand, 24) is d1  # same bucket (32)
        d2 = dispatcher.dispatch(operand, 40)  # bucket 64
        assert d2 is not d1
        assert dispatcher.cache_size() == 2
        dispatcher.clear_cache()
        assert dispatcher.cache_size() == 0

    def test_shape_bucket_boundaries(self):
        assert KernelDispatcher.shape_bucket(1) == 1
        assert KernelDispatcher.shape_bucket(32) == 32
        assert KernelDispatcher.shape_bucket(33) == 64
        with pytest.raises(ValueError):
            KernelDispatcher.shape_bucket(0)

    def test_signature_separates_formats_and_pattern(self, pruned):
        dispatcher = KernelDispatcher()
        a = SpmmOperand.from_dense(pruned, formats=("csr",))
        b = SpmmOperand.from_dense(pruned, formats=("vnm",), v=8, n=2, m=8)
        assert dispatcher.signature(a, 16) != dispatcher.signature(b, 16)

    def test_same_shape_different_content_not_aliased(self, rng):
        """Two same-shape operands with different sparsity must get their
        own decisions on a SHARED dispatcher — each matching the argmin of
        its own cost model (regression: the signature once omitted operand
        content, so the second operand inherited the first's decision)."""
        shape = (256, 256)
        sparse_dense = (rng.normal(size=shape) * (rng.random(size=shape) < 0.01)).astype(
            np.float32
        )
        dense_dense = (rng.normal(size=shape) * (rng.random(size=shape) < 0.95)).astype(
            np.float32
        )
        nearly_empty = SpmmOperand.from_dense(sparse_dense, formats=("csr",))
        nearly_full = SpmmOperand.from_dense(dense_dense, formats=("csr",))
        shared = KernelDispatcher()
        d1 = shared.dispatch(nearly_empty, 64)
        d2 = shared.dispatch(nearly_full, 64)
        assert d1 is not d2
        for operand, decision in ((nearly_empty, d1), (nearly_full, d2)):
            fresh_costs = {
                name: shared.backend(name).estimate(operand, 64, shared.gpu).time_us
                for name in decision.costs
            }
            assert decision.backend == min(fresh_costs, key=fresh_costs.get)
            assert decision.costs == pytest.approx(fresh_costs)

    def test_large_vnm_problem_prefers_spatha(self, rng):
        dense = rng.normal(size=(1024, 2048))
        pruned = apply_mask(dense, vnm_mask(dense, v=64, n=2, m=16)).astype(np.float32)
        op = SpmmOperand.from_dense(pruned, formats=("vnm", "csr"), v=64, n=2, m=16)
        decision = KernelDispatcher().dispatch(op, 4096)
        assert decision.backend == "spatha-plan"

    def test_cache_hit_miss_counters(self, operand):
        dispatcher = KernelDispatcher()
        empty = {"size": 0, "hits": 0, "misses": 0}
        assert dispatcher.cache_stats() == {
            **empty,
            "estimate_size": 0,
            "estimate_hits": 0,
            "estimate_misses": 0,
        }
        dispatcher.dispatch(operand, 20)  # miss (bucket 32)
        dispatcher.dispatch(operand, 24)  # hit (same bucket)
        dispatcher.dispatch(operand, 40)  # miss (bucket 64)
        stats = dispatcher.cache_stats()
        assert (stats["size"], stats["hits"], stats["misses"]) == (2, 1, 2)
        # Counters are cumulative traffic: clear_cache drops entries only,
        # and re-ranking a dropped signature counts as a fresh miss.
        dispatcher.clear_cache()
        stats = dispatcher.cache_stats()
        assert stats["size"] == 0 and stats["hits"] == 1 and stats["misses"] == 2
        dispatcher.dispatch(operand, 20)
        stats = dispatcher.cache_stats()
        assert (stats["size"], stats["hits"], stats["misses"]) == (1, 1, 3)

    def test_estimate_is_memoized_per_exact_c(self, operand):
        dispatcher = KernelDispatcher()
        first = dispatcher.estimate(operand, 24)
        again = dispatcher.estimate(operand, 24)
        assert again is first  # shared, read-only by contract
        other_c = dispatcher.estimate(operand, 20)  # same bucket, different C
        assert other_c is not first
        stats = dispatcher.cache_stats()
        assert stats["estimate_hits"] == 1 and stats["estimate_misses"] == 2
        # The memo clears with the decision cache; counters survive.
        dispatcher.clear_cache()
        assert dispatcher.cache_stats()["estimate_size"] == 0
        dispatcher.estimate(operand, 24)
        assert dispatcher.cache_stats()["estimate_misses"] == 3

    def test_warm_many_covers_all_operands_and_buckets(self, pruned, rng):
        other_dense = (rng.normal(size=(16, 64)) * (rng.random(size=(16, 64)) < 0.3)).astype(
            np.float32
        )
        operands = [
            SpmmOperand.from_dense(pruned, formats=("csr",)),
            SpmmOperand.from_dense(other_dense, formats=("csr",)),
        ]
        dispatcher = KernelDispatcher()
        assert dispatcher.warm_many(operands, cs=(8, 64)) == 2
        assert dispatcher.cache_size() == 4  # 2 operands x 2 buckets, distinct sigs
        hits_before = dispatcher.cache_hits
        for op in operands:
            for c in (8, 64):
                dispatcher.dispatch(op, c)
        assert dispatcher.cache_hits == hits_before + 4  # all pre-ranked

    def test_no_supported_backend_raises(self, pruned):
        dispatcher = KernelDispatcher(backends=[CublasDenseBackend()])
        op = SpmmOperand.from_dense(pruned, formats=("csr",), allow_dense=False)
        with pytest.raises(ValueError):
            dispatcher.dispatch(op, 8)

    def test_register_rejects_duplicates(self):
        dispatcher = KernelDispatcher()
        with pytest.raises(ValueError):
            dispatcher.register(CublasDenseBackend())
        with pytest.raises(KeyError):
            dispatcher.backend("nonexistent")

    def test_custom_backend_can_win(self, operand):
        class FreeLunch(Backend):
            name = "free-lunch"
            format = "dense"

            def estimate(self, operand, c, gpu):
                result = CublasDenseBackend().estimate(operand, c, gpu)
                result.cost.overhead_cycles = 0.0
                result.cost.compute_cycles = 1e-9
                result.cost.gmem_cycles = 0.0
                result.cost.smem_cycles = 0.0
                return result

            def execute(self, operand, b):
                return CublasDenseBackend().execute(operand, b)

        dispatcher = KernelDispatcher()
        dispatcher.register(FreeLunch())
        assert dispatcher.dispatch(operand, 24).backend == "free-lunch"


class TestMeasuredDispatch:
    """The measurement-fed half of the ranking: record_runtime/EWMA/reranks."""

    def test_injected_measurements_rerank_the_decision(self, operand):
        dispatcher = KernelDispatcher()
        decision = dispatcher.dispatch(operand, 24)
        modelled_best = decision.backend
        loser = next(n for n in sorted(decision.costs) if n != modelled_best)
        assert decision.measured == {}

        # Reality disagrees with the model: the modelled winner is slow,
        # the modelled loser fast.  The cached decision must flip.
        dispatcher.record_runtime(operand, 24, modelled_best, 5000.0)
        dispatcher.record_runtime(operand, 24, loser, 1.0)

        assert decision.backend == loser
        assert decision.ranking[0][0] == loser
        assert dispatcher.measured_reranks >= 1
        # Later dispatches reuse the reranked cached decision.
        assert dispatcher.dispatch(operand, 24).backend == loser

    def test_blend_scales_unobserved_candidates_onto_measured_scale(self, operand):
        dispatcher = KernelDispatcher()
        decision = dispatcher.dispatch(operand, 24)
        name = decision.backend
        dispatcher.record_runtime(operand, 24, name, 100.0)
        # Every candidate gets an effective cost; the observed one is the
        # EWMA itself, the others are modelled * (observed/modelled) scale.
        assert set(decision.measured) == set(decision.costs)
        assert decision.measured[name] == pytest.approx(100.0)
        scale = 100.0 / decision.costs[name]
        for other, cost in decision.costs.items():
            if other != name:
                assert decision.measured[other] == pytest.approx(cost * scale)

    def test_ewma_smoothing_and_health_stats(self, operand):
        dispatcher = KernelDispatcher()  # default alpha 0.25
        decision = dispatcher.dispatch(operand, 24)
        name = decision.backend
        dispatcher.record_runtime(operand, 24, name, 100.0)
        dispatcher.record_runtime(operand, 24, name, 200.0)
        stats = dispatcher.health_stats()
        assert stats["observations"] == 2
        assert stats["observed_backends"][name]["samples"] == 2
        # EWMA: 0.25 * 200 + 0.75 * 100
        assert stats["observed_backends"][name]["mean_ewma_us"] == pytest.approx(125.0)

    def test_record_runtime_validates_inputs(self, operand):
        dispatcher = KernelDispatcher()
        with pytest.raises(ValueError):
            dispatcher.record_runtime(operand, 24, "spatha-plan", 0.0)
        with pytest.raises(ValueError):
            dispatcher.record_runtime(operand, 24, "spatha-plan", -1.0)
        with pytest.raises(KeyError):
            dispatcher.record_runtime(operand, 24, "no-such-backend", 1.0)
        with pytest.raises(ValueError):
            KernelDispatcher(measurement_alpha=0.0)
        with pytest.raises(ValueError):
            KernelDispatcher(measurement_alpha=1.5)

    def test_observe_runtimes_feeds_execute(self, operand, rng):
        dispatcher = KernelDispatcher(observe_runtimes=True)
        b = rng.normal(size=(64, 8)).astype(np.float32)
        dispatcher.execute(operand, b)
        stats = dispatcher.health_stats()
        assert stats["observations"] >= 1
        assert stats["observed_backends"]  # at least the executing backend

    def test_observation_off_by_default_keeps_model_ranking(self, operand, rng):
        dispatcher = KernelDispatcher()
        b = rng.normal(size=(64, 8)).astype(np.float32)
        dispatcher.execute(operand, b)
        assert dispatcher.health_stats()["observations"] == 0
        assert dispatcher.dispatch(operand, 8).measured == {}


class TestDispatchedExecution:
    def test_bias_epilogue_matches_plan(self, operand, rng):
        b = rng.normal(size=(64, 12)).astype(np.float32)
        bias = rng.normal(size=32).astype(np.float32)
        dispatcher = KernelDispatcher()
        with_bias = dispatcher.execute(operand, b, bias=bias)
        without = dispatcher.execute(operand, b)
        assert np.allclose(with_bias - without, bias[:, None], atol=1e-6)
        with pytest.raises(ValueError):
            dispatcher.execute(operand, b, bias=np.ones(31, dtype=np.float32))

    def test_rhs_shape_validated(self, operand):
        dispatcher = KernelDispatcher()
        with pytest.raises(ValueError):
            dispatcher.execute(operand, np.ones(64, dtype=np.float32))
        with pytest.raises(ValueError):
            dispatcher.execute(operand, np.ones((63, 4), dtype=np.float32))

    @pytest.mark.parametrize("formats", [("vnm",), ("csr",), ("blocked_ell",)])
    def test_batched_execution_is_slab_exact(self, pruned, rng, formats):
        kwargs = dict(v=8, n=2, m=8) if "vnm" in formats else {}
        op = SpmmOperand.from_dense(
            pruned, formats=formats, block_size=8, allow_dense=False, **kwargs
        )
        dispatcher = KernelDispatcher()
        batch = rng.normal(size=(3, 64, 10)).astype(np.float32)
        out = dispatcher.execute(op, batch)
        for i in range(3):
            assert np.array_equal(out[i], dispatcher.execute(op, batch[i]))

    def test_warm_builds_the_spatha_plan(self, pruned):
        vnm = VNMSparseMatrix.from_dense(pruned, v=8, n=2, m=8)
        op = SpmmOperand.from_vnm(vnm)
        assert ("spmm_plan", "auto") not in vnm._memo
        KernelDispatcher().warm(op)
        assert isinstance(vnm._memo[("spmm_plan", "auto")], SpmmPlan)

    def test_warm_prepopulates_dispatch_decisions(self, operand):
        dispatcher = KernelDispatcher()
        dispatcher.warm(operand, cs=(8, 64))
        assert dispatcher.cache_size() == 2  # buckets 8 and 64 pre-ranked

    def test_default_dispatcher_is_shared(self):
        assert default_dispatcher() is default_dispatcher()

    def test_nonfinite_rhs_demotes_dense_fallback(self):
        """A non-finite B row outside the sparse structure's selection must
        not leak NaN through the dense fallback (0 * inf) — the dispatcher
        applies the same demotion SpmmPlan's dense strategy does."""
        a_dense = np.zeros((8, 8), dtype=np.float32)
        a_dense[:, 0] = 1.0  # only column 0 selected
        vnm = VNMSparseMatrix.from_dense(a_dense, v=8, n=2, m=8, strict=True)
        op = SpmmOperand.from_vnm(vnm)  # dense fallback allowed
        b = np.ones((8, 4), dtype=np.float32)
        b[5] = 1e6  # overflows fp16 -> inf, in an unselected row
        dispatcher = KernelDispatcher()
        out = dispatcher.execute(op, b)
        assert np.isfinite(out).all()
        from repro.kernels.spatha import spmm as spatha_spmm

        assert np.array_equal(out, spatha_spmm(vnm, b))

    def test_nonfinite_demotion_is_per_slab(self):
        """Regression: a non-finite slab in a batched RHS must demote only
        ITSELF to the sparse backend — demoting the whole batch would make
        a request's backend (and bits) depend on its batchmates, breaking
        the serving guarantee that batched == sequential execution."""
        a_dense = np.zeros((8, 8), dtype=np.float32)
        a_dense[:, 0] = 1.0  # only column 0 selected by the sparse structure
        vnm = VNMSparseMatrix.from_dense(a_dense, v=8, n=2, m=8, strict=True)
        op = SpmmOperand.from_vnm(vnm)  # candidates: spatha-plan + cublas-dense
        dispatcher = KernelDispatcher()
        assert dispatcher.dispatch(op, 4).backend == "cublas-dense"  # tiny problem

        batch = np.ones((3, 8, 4), dtype=np.float32)
        batch[1, 5] = 1e6  # overflows fp16 in an unselected row of slab 1 only
        out = dispatcher.execute(op, batch)
        assert np.isfinite(out).all()
        # Every slab matches its own sequential single-slab execution.
        for i in range(3):
            assert np.array_equal(out[i], dispatcher.execute(op, batch[i])), i
        # And the finite slabs still took the dense fast path (identical to
        # a dense-only dispatcher's output on those slabs).
        dense_only = KernelDispatcher(backends=[CublasDenseBackend()])
        for i in (0, 2):
            assert np.array_equal(out[i], dense_only.execute(op, batch[i]))

    def test_nonfinite_demotion_is_per_slab_through_spatha_plan(self):
        """The same per-slab rule when the dispatcher routes to spatha-plan,
        whose plan demotes dense -> gather: a non-finite slab must leave its
        batchmates' bits at their sequential values."""
        rng = np.random.default_rng(7)
        dense = rng.normal(size=(384, 384)).astype(np.float32)
        vnm = VNMSparseMatrix.from_dense(dense, v=16, n=2, m=8, strict=False)
        op = SpmmOperand.from_vnm(vnm)
        dispatcher = KernelDispatcher()
        assert dispatcher.dispatch(op, 33).backend == "spatha-plan"
        batch = rng.normal(size=(3, 384, 33)).astype(np.float32)
        batch[2, 10, 4] = np.inf
        out = dispatcher.execute(op, batch)
        for i in range(3):
            assert np.array_equal(out[i], dispatcher.execute(op, batch[i]), equal_nan=True), i

    def test_dense_only_operand_keeps_dense_on_nonfinite(self):
        """With no sparse backend available the dense fallback still runs
        (NaN is then the honest dense-math answer, same as cublas.gemm)."""
        dense = np.zeros((4, 8), dtype=np.float32)
        dense[0, 0] = 1.0
        op = SpmmOperand(dense=dense)
        b = np.full((8, 2), np.inf, dtype=np.float32)
        out = KernelDispatcher().execute(op, b)
        from repro.kernels import cublas

        assert np.array_equal(out, cublas.gemm(dense, b), equal_nan=True)


class ScriptedFailureBackend(Backend):
    """A cheapest-ranked backend whose execute fails while ``failing`` is set.

    Numerics delegate to cuBLAS, so when it succeeds its output is the
    dense backend's exact bits; the near-zero cost model makes it the
    dispatch argmin, which is what lets the tests steer the chosen backend
    into failure without touching the real libraries.
    """

    name = "scripted"
    format = "dense"

    def __init__(self, failing: bool = True):
        self.failing = failing
        self.execute_calls = 0
        self._inner = CublasDenseBackend()

    def estimate(self, operand, c, gpu):
        result = self._inner.estimate(operand, c, gpu)
        result.cost.overhead_cycles = 0.0
        result.cost.compute_cycles = 1e-9
        result.cost.gmem_cycles = 0.0
        result.cost.smem_cycles = 0.0
        return result

    def execute(self, operand, b):
        self.execute_calls += 1
        if self.failing:
            from repro.kernels.dispatch import BackendExecutionError

            raise BackendExecutionError("scripted failure", backend=self.name)
        return self._inner.execute(operand, b)


@pytest.mark.faults
class TestFailoverAndQuarantine:
    def _dispatcher(self, failing=True, failure_threshold=2, probe_interval=3):
        dispatcher = KernelDispatcher(
            failure_threshold=failure_threshold, probe_interval=probe_interval
        )
        scripted = ScriptedFailureBackend(failing=failing)
        dispatcher.register(scripted)
        return dispatcher, scripted

    def test_failover_output_is_bit_exact_fallback(self, operand, rng):
        """When the chosen backend fails, the next-ranked one serves the
        call and the result is bit-for-bit that backend's direct output."""
        dispatcher, scripted = self._dispatcher()
        b = rng.normal(size=(64, 12)).astype(np.float32)
        decision = dispatcher.dispatch(operand, 12)
        assert decision.backend == "scripted"
        fallback = next(n for n, _ in decision.ranking if n != "scripted")
        out = dispatcher.execute(operand, b)
        direct = dispatcher.backend(fallback).execute(operand, b)
        assert np.array_equal(out, direct)
        assert decision.failovers == {f"scripted->{fallback}": 1}
        assert dispatcher.health_stats()["failovers"] == 1

    def test_quarantine_after_threshold_and_probe_readmission(self, operand, rng):
        """K consecutive failures quarantine the backend; after the probe
        interval it gets one probe attempt, and a healed backend serves
        again (bit-exact against its own direct execution)."""
        dispatcher, scripted = self._dispatcher(failure_threshold=2, probe_interval=3)
        b = rng.normal(size=(64, 12)).astype(np.float32)
        dispatcher.execute(operand, b)  # failure 1 (failover)
        assert not dispatcher.is_quarantined("scripted")
        dispatcher.execute(operand, b)  # failure 2 -> quarantined
        assert dispatcher.is_quarantined("scripted")
        assert dispatcher.quarantined() == ("scripted",)
        # While quarantined, the backend is not attempted at all while
        # its countdown runs (probe_interval executes pass it over).
        calls_before = scripted.execute_calls
        for _ in range(3):
            dispatcher.execute(operand, b)
        assert scripted.execute_calls == calls_before
        # Heal the backend; the countdown has expired, so the next
        # execute admits it as a probe.
        scripted.failing = False
        out = dispatcher.execute(operand, b)
        assert not dispatcher.is_quarantined("scripted")
        assert dispatcher.health_stats()["readmissions"] == 1
        assert np.array_equal(out, ScriptedFailureBackend(failing=False).execute(operand, b))

    def test_failed_probe_requarantines(self, operand, rng):
        dispatcher, scripted = self._dispatcher(failure_threshold=1, probe_interval=2)
        b = rng.normal(size=(64, 12)).astype(np.float32)
        dispatcher.execute(operand, b)  # quarantined immediately (K=1)
        assert dispatcher.is_quarantined("scripted")
        dispatcher.execute(operand, b)  # countdown 2 -> 1
        dispatcher.execute(operand, b)  # countdown 1 -> 0
        calls_before = scripted.execute_calls
        assert calls_before == 1  # only the original failure
        dispatcher.execute(operand, b)  # probe attempt -> fails -> requarantined
        assert scripted.execute_calls == calls_before + 1
        assert dispatcher.is_quarantined("scripted")
        assert dispatcher.health_stats()["quarantines"] == 1  # one event, not two

    def test_quarantine_leaves_no_stale_decisions(self, operand, rng):
        """The decision cache must stay quarantine-independent: memoized
        decisions keep the cost argmin while the backend sits out (failover
        happens at execute time), so after re-admission the SAME cached
        decision routes traffic to it again — no stale entries to flush."""
        dispatcher, scripted = self._dispatcher(failure_threshold=1, probe_interval=1)
        b = rng.normal(size=(64, 12)).astype(np.float32)
        decision = dispatcher.dispatch(operand, 12)
        cache_size = dispatcher.cache_size()
        dispatcher.execute(operand, b)  # fail -> quarantine
        assert dispatcher.is_quarantined("scripted")
        # The memo still names the cost argmin and no new entries appeared.
        assert dispatcher.dispatch(operand, 12) is decision
        assert decision.backend == "scripted"
        assert dispatcher.cache_size() == cache_size
        dispatcher.execute(operand, b)  # passed over once (countdown 1 -> 0)
        scripted.failing = False
        dispatcher.execute(operand, b)  # probe succeeds -> readmitted
        assert not dispatcher.is_quarantined("scripted")
        # Same cached decision, and execution routes to the backend again.
        assert dispatcher.dispatch(operand, 12) is decision
        calls_before = scripted.execute_calls
        out = dispatcher.execute(operand, b)
        assert scripted.execute_calls == calls_before + 1
        assert np.array_equal(out, ScriptedFailureBackend(failing=False).execute(operand, b))

    def test_all_candidates_failing_raises(self, operand, rng):
        from repro.kernels.dispatch import BackendExecutionError
        from repro.serving.faults import FaultInjector, FaultPlan, FaultSpec

        dispatcher = KernelDispatcher()
        names = [backend.name for backend in dispatcher.backends]
        plan = FaultPlan([FaultSpec(backend=n, kind="persistent", at_call=0) for n in names])
        FaultInjector(plan).arm(dispatcher)
        with pytest.raises(BackendExecutionError) as excinfo:
            dispatcher.execute(operand, rng.normal(size=(64, 8)).astype(np.float32))
        assert "all candidate backends failed" in str(excinfo.value)

    def test_breaker_parameters_validated(self):
        with pytest.raises(ValueError):
            KernelDispatcher(failure_threshold=0)
        with pytest.raises(ValueError):
            KernelDispatcher(probe_interval=0)


class TestNarrowedTunerException:
    def test_plain_valueerror_from_tuner_propagates(self, operand, monkeypatch):
        """The dispatcher's proxy re-costing must catch ONLY the typed
        UnsupportedTilingError; a genuine model bug surfacing as a plain
        ValueError has to propagate instead of being silently swallowed."""
        from repro.kernels.dispatch import SpathaPlanBackend
        from repro.kernels.spatha.tuner import SpathaTuner

        def boom(self, problem):
            raise ValueError("boom: genuine model bug")

        monkeypatch.setattr(SpathaTuner, "best_result", boom)
        backend = SpathaPlanBackend()
        with pytest.raises(ValueError, match="genuine model bug"):
            backend.estimate(operand, 16, rtx3090())

    def test_unlaunchable_tiling_still_proxied(self, rng):
        """The expected failure (V=8 has no template instantiation) is
        typed as UnsupportedTilingError and still handled by costing the
        padded proxy launch — dispatch keeps working for non-hardware V."""
        from repro.kernels.spatha import UnsupportedTilingError

        assert issubclass(UnsupportedTilingError, ValueError)
        dense = rng.normal(size=(32, 64))
        pruned = apply_mask(dense, vnm_mask(dense, v=8, n=2, m=8)).astype(np.float32)
        op = SpmmOperand.from_dense(pruned, formats=("vnm",), v=8, n=2, m=8)
        decision = KernelDispatcher().dispatch(op, 16)
        assert "spatha-plan" in decision.costs
        assert decision.costs["spatha-plan"] > 0
