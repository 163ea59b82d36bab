"""Set-up, timed passes, correctness gate and metrics of each workload.

Everything reaches the program through public APIs of ``repro.serving``,
``repro.models``, ``repro.kernels`` and ``repro.integration``.  A run is:

* untraced (``trace=False``): ``setup_repeats`` full set-ups, one timed
  pass on the last engine, the end-to-end metrics;
* traced (``trace=True``): one set-up and an untraced pass (the overhead
  baseline), then two traced passes on fresh engines.  The first serves
  the same load and gives the per-layer metrics and the spans file.  The
  second serves the same requests again (the open-loop schedule as fast as
  the engine goes) and is the determinism check: the exact counters must
  repeat.

Every pass's outputs go through the bit-exact correctness gate.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

import loads
from report import Report, required_samples
from spans import Patch, Tracer

from repro.integration import VNMSparsifier, sparsify_encoder
from repro.kernels.dispatch import KernelDispatcher
from repro.models import attention as attention_module
from repro.models import transformer as transformer_module
from repro.models import MultiHeadAttention, PagedKVCache, TransformerEncoder, tiny_config
from repro.models.transformer import EncoderLayer, FeedForward
from repro.pruning.second_order.obs_vnm import SecondOrderConfig
from repro.serving import (
    ContinuousBatcher,
    DecodeRequest,
    DecoderServingEngine,
    ModelServingEngine,
    Request,
    SchedulingConfig,
    ServingConfig,
    decode_reference,
)

clock = time.perf_counter

#: Bound on warm-up steps; a warm-up that does not drain is a failure.
MAX_WARMUP_STEPS = 10_000
#: Requests in flight while the determinism pass replays an open-loop schedule.
REPLAY_CONCURRENCY = 8
#: A closed-loop pass serves at least this many requests, whatever the host's
#: speed, so that every p95 it reports has ten samples above it.
MIN_CLOSED_LOOP_REQUESTS = required_samples(95)


# ----------------------------------------------------------------------
# Tracing: the program's public callables, wrapped from here
# ----------------------------------------------------------------------
def _spmm_note(dispatcher, operand, b, bias=None):
    """Dispatcher, operand and RHS columns (batch x sequence) of one execute call."""
    cols = b.shape[-1] * (b.shape[0] if b.ndim == 3 else 1)
    return dispatcher, operand, cols


def program_patches() -> List[Patch]:
    return [
        Patch(ModelServingEngine, "submit", "serving.submit"),
        Patch(ModelServingEngine, "step", "serving.step"),
        Patch(DecoderServingEngine, "submit", "serving.submit"),
        Patch(DecoderServingEngine, "step", "serving.step"),
        Patch(ContinuousBatcher, "next_batch", "serving.continuous.next_batch"),
        Patch(TransformerEncoder, "forward", "models.encoder.forward"),
        Patch(TransformerEncoder, "forward_step", "models.encoder.forward_step"),
        Patch(EncoderLayer, "forward", "models.layer.forward"),
        Patch(EncoderLayer, "forward_step", "models.layer.forward_step"),
        Patch(MultiHeadAttention, "forward", "models.attention.forward"),
        Patch(MultiHeadAttention, "forward_step", "models.attention.forward_step"),
        Patch(FeedForward, "forward", "models.ffn.forward"),
        Patch(KernelDispatcher, "execute", "kernels.spmm.execute", note=_spmm_note),
        Patch(PagedKVCache, "attach_prefix", "models.kv_cache.attach_prefix"),
        Patch(PagedKVCache, "register_prefix", "models.kv_cache.register_prefix"),
        Patch(PagedKVCache, "free", "models.kv_cache.free"),
        Patch(transformer_module, "gelu", "models.gelu"),
        Patch(transformer_module, "layer_norm", "models.layer_norm"),
        Patch(attention_module, "softmax", "models.softmax"),
        Patch(attention_module, "attention_scores", "models.attention_scores"),
    ]


# ----------------------------------------------------------------------
# Pass records
# ----------------------------------------------------------------------
@dataclass
class RequestRecord:
    due_s: float
    tokens: int
    left_s: Optional[float] = None  # start of the step in which it left the queue
    first_s: Optional[float] = None  # first output available
    done_s: Optional[float] = None  # completion
    #: Encoders: duration of the step that delivered it over the valid tokens it served.
    step_s_per_token: Optional[float] = None


@dataclass
class PassResult:
    records: Dict[str, RequestRecord]
    outputs: Dict[str, np.ndarray]
    step_sizes: List[int]
    busy_s: float  # inside engine submit and step calls
    elapsed_s: float  # schedule origin to last completion
    lags_s: List[float]
    stats_before: dict
    stats_after: dict
    batches: int = 0  # closed loop only
    tracer: Optional[Tracer] = None

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        return len(self.outputs)

    def delta(self, *path: str) -> float:
        before, after = self.stats_before, self.stats_after
        for key in path:
            before, after = before[key], after[key]
        return after - before


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    unsigned = np.dtype(f"u{a.itemsize}")
    return bool(np.array_equal(np.ascontiguousarray(a).view(unsigned),
                               np.ascontiguousarray(b).view(unsigned)))


def _record_encoder_step(records: Dict[str, RequestRecord], outputs: Dict[str, np.ndarray],
                         out: Dict[str, np.ndarray], start_s: float, end_s: float) -> None:
    """An encoder step delivers every output row of its requests at its end."""
    per_token = (end_s - start_s) / max(1, sum(records[rid].tokens for rid in out))
    for rid, value in out.items():
        rec = records[rid]
        rec.first_s = rec.done_s = end_s
        rec.step_s_per_token = per_token
        outputs[rid] = value


def _drain(engine, requests: Sequence) -> None:
    """Serve ``requests`` closed-loop, untimed (the warm-up pass)."""
    base = len(engine.outcomes)
    for request in requests:
        engine.submit(request)
    steps = 0
    while len(engine.outcomes) - base < len(requests):
        engine.step(0.0)
        steps += 1
        if steps > MAX_WARMUP_STEPS:
            raise RuntimeError("warm-up pass did not drain")


def _elapsed(records: Dict[str, RequestRecord]) -> float:
    return max((r.done_s for r in records.values() if r.done_s is not None), default=0.0)


def _replay(engine, requests: Sequence[Request], tracer: Tracer) -> PassResult:
    """Serve an open-loop schedule's requests closed-loop, as fast as the engine goes.

    Batch composition differs from the timed pass; outputs and the exact
    counters must not.
    """
    records = {r.request_id: RequestRecord(r.arrival_us * 1e-6, r.tokens) for r in requests}
    outputs: Dict[str, np.ndarray] = {}
    outcomes = engine.outcomes
    base = len(outcomes)
    stats_before = engine.stats()
    submitted = 0
    t0 = clock()
    while submitted < len(requests) or submitted > len(outcomes) - base:
        while submitted < len(requests) and submitted - (len(outcomes) - base) < REPLAY_CONCURRENCY:
            engine.submit(requests[submitted])
            submitted += 1
        outputs.update(engine.step(requests[submitted - 1].arrival_us))
    elapsed = clock() - t0
    for rid in outputs:
        records[rid].done_s = elapsed
    return PassResult(records, outputs, [], elapsed, elapsed, [], stats_before, engine.stats(),
                      tracer=tracer)


def _serve_open_loop(engine, requests: Sequence[Request], due_s: Sequence[float],
                     tracer: Optional[Tracer]) -> PassResult:
    """Submit each request when due on the wall clock; step while work is in flight."""
    records = {r.request_id: RequestRecord(d, r.tokens) for r, d in zip(requests, due_s)}
    outputs: Dict[str, np.ndarray] = {}
    step_sizes: List[int] = []
    lags: List[float] = []
    queued: List[str] = []
    is_queued = engine.batcher.is_queued
    outcomes = engine.outcomes
    base = len(outcomes)
    stats_before = engine.stats()
    n = len(requests)
    busy = 0.0
    submitted = 0
    gc.collect()
    t0 = clock()
    while True:
        while submitted < n and due_s[submitted] <= clock() - t0:
            start = clock()
            lags.append(start - t0 - due_s[submitted])
            engine.submit(requests[submitted])
            busy += clock() - start
            queued.append(requests[submitted].request_id)
            submitted += 1
        if submitted == len(outcomes) - base:
            if submitted == n:
                break
            wait = due_s[submitted] - (clock() - t0)
            if wait > 0:
                time.sleep(wait)
            continue
        span = len(tracer) if tracer is not None else -1
        start = clock()
        out = engine.step((start - t0) * 1e6)
        end = clock()
        busy += end - start
        served = [rid for rid in queued if not is_queued(rid)]
        queued = [rid for rid in queued if is_queued(rid)]
        for rid in served:
            records[rid].left_s = start - t0
        _record_encoder_step(records, outputs, out, start - t0, end - t0)
        step_sizes.append(len(served))
        if tracer is not None:
            tracer.annotate(span, served)
    return PassResult(records, outputs, step_sizes, busy, _elapsed(records), lags,
                      stats_before, engine.stats(), tracer=tracer)


def _serve_decode_clients(engine, make_request, clients: int, keep_going,
                          tracer: Optional[Tracer]) -> PassResult:
    """``clients`` closed-loop clients, each submitting its next decode request
    as soon as its previous one completes, while ``keep_going(submitted,
    elapsed_s)`` holds.  A request is due when its client's previous one
    completed (the pass start for the first ones).

    The order of events depends only on the request sequence, never on the
    clock: one pass and a repeat that submits as many requests compose
    every step identically.
    """
    records: Dict[str, RequestRecord] = {}
    outputs: Dict[str, np.ndarray] = {}
    step_sizes: List[int] = []
    lags: List[float] = []
    queued: List[str] = []
    in_service: List[str] = []  # admitted in an earlier step, not yet terminal
    is_queued = engine.batcher.is_queued
    outcomes = engine.outcomes
    base = len(outcomes)
    stats_before = engine.stats()
    busy = 0.0
    submitted = 0
    gc.collect()
    t0 = clock()

    def submit(due_s: float) -> None:
        nonlocal busy, submitted
        now_s = clock() - t0
        lags.append(now_s - due_s)
        request = make_request(submitted, now_s)
        records[request.request_id] = RequestRecord(due_s, request.prompt.shape[0])
        start = clock()
        engine.submit(request)
        busy += clock() - start
        queued.append(request.request_id)
        submitted += 1

    for _ in range(clients):
        submit(0.0)
    while submitted > len(outcomes) - base:
        span = len(tracer) if tracer is not None else -1
        start = clock()
        out = engine.step((start - t0) * 1e6)
        end = clock()
        busy += end - start
        left = [rid for rid in queued if not is_queued(rid)]
        queued = [rid for rid in queued if is_queued(rid)]
        for rid in left:
            records[rid].left_s = start - t0
        # Residents admitted in an earlier step each advanced one token; the
        # first of those is the request's first token.
        for rid in in_service:
            if records[rid].first_s is None:
                records[rid].first_s = end - t0
        served = in_service + left
        in_service = [rid for rid in served if rid not in outcomes]
        for rid, value in out.items():
            records[rid].done_s = end - t0
            outputs[rid] = value
        step_sizes.append(len(served))
        if tracer is not None:
            tracer.annotate(span, served)
        for _ in range(len(served) - len(in_service)):
            if keep_going(submitted, clock() - t0):
                submit(end - t0)
    return PassResult(records, outputs, step_sizes, busy, _elapsed(records), lags,
                      stats_before, engine.stats(), tracer=tracer)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Setup:
    encoder: TransformerEncoder
    engine: object
    split: Dict[str, float] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(self.split.values())


class Workload:
    """One set of inputs: how to build, warm, serve, check and measure it."""

    name = ""
    token_unit = "processed"

    def __init__(self, spec: dict, seed: int, seconds: float) -> None:
        self.spec = spec["workloads"][self.name]
        self.seed = seed
        self.seconds = seconds
        self.model = self.spec["model"]

    # -- set-up ---------------------------------------------------------
    def sparsifier(self) -> VNMSparsifier:
        v, n, m = (int(x) for x in self.model["pattern"].split(":"))
        if self.model["pruning"] == "second_order":
            return VNMSparsifier(
                n=n, m=m, v=v, method="second_order",
                second_order_config=SecondOrderConfig(num_grad_samples=self.model["grad_samples"]),
            )
        return VNMSparsifier(n=n, m=m, v=v)

    def set_up(self) -> Setup:
        started = clock()
        config = tiny_config(
            hidden_size=self.model["hidden"], num_layers=self.model["layers"],
            num_heads=self.model["heads"], intermediate_size=self.model["intermediate"],
            max_seq_len=128,
        )
        encoder = TransformerEncoder.init(config, seed=0)
        inited = clock()
        sparsify_encoder(encoder, self.sparsifier())
        sparsified = clock()
        engine = self.build_engine(encoder)
        built = clock()
        self.warm(engine)
        warmed = clock()
        split = {
            "models.init_s": inited - started,
            "integration.sparsify_s": sparsified - inited,
            "serving.build_s": built - sparsified,
            "serving.warmup_s": warmed - built,
        }
        return Setup(encoder, engine, split)

    def fresh_engine(self, encoder: TransformerEncoder):
        engine = self.build_engine(encoder)
        self.warm(engine)
        return engine

    def build_engine(self, encoder: TransformerEncoder):
        raise NotImplementedError

    def warm(self, engine) -> None:
        raise NotImplementedError

    # -- serving --------------------------------------------------------
    def serve(self, engine, tracer: Optional[Tracer] = None,
              seconds: Optional[float] = None) -> PassResult:
        """The timed pass over ``seconds`` (default: the run's).  An open-loop
        pass serves the requests due in that time; a closed-loop pass runs
        that long."""
        raise NotImplementedError

    def replay(self, engine, tracer: Tracer, like: PassResult) -> PassResult:
        """The determinism pass: the same requests as ``like``, served again."""
        raise NotImplementedError

    def tokens(self, result: PassResult) -> int:
        """The workload's token unit served in a pass."""
        return sum(result.records[rid].tokens for rid in result.outputs)

    def tpot_samples(self, result: PassResult) -> List[float]:
        """Per request: its serving step's duration per valid token the step served."""
        return [
            r.step_s_per_token for rid, r in result.records.items() if rid in result.outputs
        ]

    def modelled_us(self, result: PassResult) -> float:
        return result.delta("modelled_kernel_time_us")

    # -- correctness ----------------------------------------------------
    def checked_ids(self, results: Sequence[PassResult]) -> List[str]:
        """A seeded sample of the requests every pass served."""
        common = sorted(set.intersection(*(set(r.records) for r in results)))
        rng = np.random.default_rng([self.seed, 10])
        pick = rng.choice(len(common), size=min(len(common), self.check_sample), replace=False)
        return [common[i] for i in sorted(pick)]

    def reference(self, encoder: TransformerEncoder, request_id: str) -> np.ndarray:
        raise NotImplementedError

    def check(self, encoder: TransformerEncoder, results: Sequence[PassResult]) -> List[str]:
        """Request ids whose output is missing or not bit-exact in some pass."""
        bad = []
        for rid in self.checked_ids(results):
            want = self.reference(encoder, rid)
            if any(rid in r.records and not (rid in r.outputs and _same_bits(r.outputs[rid], want))
                   for r in results):
                bad.append(rid)
        return bad


class EncoderOnline(Workload):
    name = "encoder_online"
    check_sample = 160

    def __init__(self, spec: dict, seed: int, seconds: float) -> None:
        super().__init__(spec, seed, seconds)
        s = self.spec
        self.load = loads.encoder_online(
            seed, seconds, s["rate_rps"], self.model["hidden"], s["lengths"],
            s["high_priority_share"],
        )
        deadline_us = s["deadline_s"] * 1e6

        def request(a: loads.Arrival) -> Request:
            due_us = a.due_s * 1e6
            return Request(a.request_id, a.payload, arrival_us=due_us,
                           deadline_us=due_us + deadline_us, priority_class=a.priority_class)

        self.requests = [request(a) for a in self.load.arrivals]
        self.warm_requests = [request(a) for a in self.load.warmup]
        self.payload = {r.request_id: r.activations for r in self.requests}

    def build_engine(self, encoder):
        batcher = ContinuousBatcher.ladder(scheduling=SchedulingConfig(policy="priority"))
        return ModelServingEngine(
            encoder, batcher=batcher,
            config=ServingConfig(padding="ladder", name=self.name, warm_buckets=(8, 16, 32, 64)),
        )

    def warm(self, engine) -> None:
        _drain(engine, self.warm_requests)

    def serve(self, engine, tracer=None, seconds=None):
        seconds = self.seconds if seconds is None else seconds
        due = [a.due_s for a in self.load.arrivals if a.due_s < seconds]
        return _serve_open_loop(engine, self.requests[:len(due)], due, tracer)

    def replay(self, engine, tracer, like):
        return _replay(engine, self.requests[:like.attempted], tracer)

    def reference(self, encoder, request_id):
        return encoder.forward(self.payload[request_id][None])[0]


class DecoderClosed(Workload):
    name = "decoder_closed"
    token_unit = "generated"
    #: decode_reference is a full causal recompute per token: a small sample.
    check_sample = 4

    def __init__(self, spec: dict, seed: int, seconds: float) -> None:
        super().__init__(spec, seed, seconds)
        s = self.spec
        self.new_tokens = int(s["new_tokens"])
        self.prompts = loads.DecodePrompts(
            seed, self.model["hidden"], s["prompt_lengths"], s["system_prompt_lengths"],
            s["shared_prompts"], s["shared_of"], s["max_requests"],
        )

    def _request(self, index: int, now_s: float) -> DecodeRequest:
        return DecodeRequest(f"dec-{index:05d}", self.prompts.prompt(index),
                             new_tokens=self.new_tokens, arrival_us=now_s * 1e6)

    def build_engine(self, encoder):
        return DecoderServingEngine(
            encoder,
            config=ServingConfig(name=self.name, block_size=self.spec["kv_block_size"],
                                 capacity_blocks=self.spec["kv_capacity_blocks"]),
        )

    def warm(self, engine) -> None:
        _drain(engine, [DecodeRequest(f"warm-{i}", p, new_tokens=self.new_tokens)
                        for i, p in enumerate(self.prompts.warmup())])

    def serve(self, engine, tracer=None, seconds=None):
        seconds = self.seconds if seconds is None else seconds
        return _serve_decode_clients(
            engine, self._request, self.spec["clients"],
            lambda submitted, elapsed: elapsed < seconds or submitted < MIN_CLOSED_LOOP_REQUESTS,
            tracer,
        )

    def replay(self, engine, tracer, like):
        count = like.attempted
        return _serve_decode_clients(engine, self._request, self.spec["clients"],
                                     lambda submitted, elapsed: submitted < count, tracer)

    def tokens(self, result):
        return result.completed * self.new_tokens

    def tpot_samples(self, result):
        return [
            (r.done_s - r.first_s) / (self.new_tokens - 1)
            for rid, r in result.records.items() if rid in result.outputs
        ]

    def modelled_us(self, result):
        """The decoder engine keeps no modelled kernel trace: the traced
        execute calls priced by their dispatchers' cost models instead."""
        names = np.asarray(result.tracer.names, dtype=object)
        total = 0.0
        for i in np.flatnonzero(names == "kernels.spmm.execute"):
            dispatcher, operand, cols = result.tracer.notes[int(i)]
            total += dispatcher.estimate(operand, cols).time_us
        return total

    def reference(self, encoder, request_id):
        index = int(request_id.split("-")[1])
        return decode_reference(encoder, self.prompts.prompt(index), self.new_tokens)


class EncoderOffline(Workload):
    name = "encoder_offline"

    def __init__(self, spec: dict, seed: int, seconds: float) -> None:
        super().__init__(spec, seed, seconds)
        b = self.spec["batch"]
        self.batches = loads.offline_batches(
            seed, self.model["hidden"], b["requests"], b["tokens"], b["distinct_batches"]
        )
        self._references: Dict[tuple, np.ndarray] = {}

    def build_engine(self, encoder):
        return ModelServingEngine(
            encoder, batcher=ContinuousBatcher.exact_length(),
            config=ServingConfig(padding="exact", name=self.name,
                                 warm_buckets=(self.spec["batch"]["tokens"],)),
        )

    def _batch_requests(self, index: int, arrival_us: float) -> List[Request]:
        x = self.batches[index % len(self.batches)]
        return [Request(f"off-{index:05d}-{j}", x[j], arrival_us=arrival_us)
                for j in range(len(x))]

    def _input_of(self, request_id: str) -> tuple:
        """``(distinct batch, row)`` of the input a request id carries."""
        _, index, row = request_id.split("-")
        return int(index) % len(self.batches), int(row)

    def warm(self, engine) -> None:
        _drain(engine, [Request(f"warm-{r.request_id}", r.activations)
                        for r in self._batch_requests(0, 0.0)])

    def serve(self, engine, tracer=None, seconds=None, batch_count=None):
        """Closed loop, one client: submit a batch, step until it completes, repeat.

        Runs for ``seconds`` (default: the run's) and at least
        ``MIN_CLOSED_LOOP_REQUESTS`` requests, or exactly ``batch_count``
        batches.  A batch is due when the previous one completed.
        """
        seconds = self.seconds if seconds is None else seconds
        records: Dict[str, RequestRecord] = {}
        outputs: Dict[str, np.ndarray] = {}
        step_sizes: List[int] = []
        lags: List[float] = []
        outcomes = engine.outcomes
        stats_before = engine.stats()
        firsts: Dict[tuple, np.ndarray] = {}
        busy = 0.0
        batches = 0
        due_s = 0.0

        def keep_going() -> bool:
            if batch_count is not None:
                return batches < batch_count
            return clock() - t0 < seconds or len(records) < MIN_CLOSED_LOOP_REQUESTS

        gc.collect()
        t0 = clock()
        while keep_going():
            batch = self._batch_requests(batches, (clock() - t0) * 1e6)
            base = len(outcomes)
            for request in batch:
                records[request.request_id] = RequestRecord(due_s, request.tokens)
                start = clock()
                lags.append(start - t0 - due_s)
                engine.submit(request)
                busy += clock() - start
            while len(outcomes) - base < len(batch):
                span = len(tracer) if tracer is not None else -1
                start = clock()
                out = engine.step((start - t0) * 1e6)
                end = clock()
                busy += end - start
                for rid in out:
                    records[rid].left_s = start - t0
                _record_encoder_step(records, outputs, out, start - t0, end - t0)
                for rid in out:
                    # Hold one array per distinct input: a repeat that is bit-identical
                    # to the first output of its input shares that array.
                    first = firsts.setdefault(self._input_of(rid), outputs[rid])
                    if _same_bits(first, outputs[rid]):
                        outputs[rid] = first
                step_sizes.append(len(out))
                if tracer is not None:
                    tracer.annotate(span, list(out))
            batches += 1
            due_s = end - t0
        return PassResult(records, outputs, step_sizes, busy, _elapsed(records), lags,
                          stats_before, engine.stats(), batches=batches, tracer=tracer)

    def replay(self, engine, tracer, like):
        return self.serve(engine, tracer, batch_count=like.batches)

    def checked_ids(self, results):
        """Every request of every pass: references are one forward per input."""
        return sorted(set().union(*(r.records for r in results)))

    def reference(self, encoder, request_id):
        key = self._input_of(request_id)
        if key not in self._references:
            batch, row = key
            self._references[key] = encoder.forward(self.batches[batch][row][None])[0]
        return self._references[key]


WORKLOADS = {w.name: w for w in (EncoderOnline, DecoderClosed, EncoderOffline)}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _ms(values) -> List[float]:
    return [v * 1e3 for v in values]


def end_to_end(report: Report, workload: Workload, result: PassResult,
               setup_times: Sequence[float]) -> None:
    done = [r for rid, r in result.records.items() if rid in result.outputs]
    elapsed = result.elapsed_s
    report.add("setup_s", statistics.median(setup_times), samples=len(setup_times))
    report.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    report.add("ok_share", result.completed / result.attempted)
    latency = _ms(r.done_s - r.due_s for r in done)
    report.add_percentile("latency_p50_ms", latency, 50)
    report.add_percentile("latency_p95_ms", latency, 95)
    ttft = _ms(r.first_s - r.due_s for r in done)
    report.add_percentile("ttft_p50_ms", ttft, 50)
    report.add_percentile("ttft_p95_ms", ttft, 95)
    tpot = _ms(workload.tpot_samples(result))
    report.add_percentile("tpot_p50_ms", tpot, 50)
    report.add_percentile("tpot_p95_ms", tpot, 95)
    report.add("throughput_rps", result.completed / elapsed)
    report.add("tokens_per_s", workload.tokens(result) / elapsed)


def _spmm_totals(tracer: Tracer, indices: np.ndarray):
    """Columns, computed flop and computed fp16 bytes over execute spans."""
    footprint: Dict[int, float] = {}
    cols = flop = moved = 0.0
    for i in indices:
        _, operand, c = tracer.notes[int(i)]
        vnm = operand.vnm
        if vnm is None:
            raise ValueError(f"operand {operand.name!r} has no V:N:M view")
        key = id(vnm)
        if key not in footprint:
            footprint[key] = vnm.footprint("fp16").total_bytes
        r, k = operand.shape
        cols += c
        flop += 2.0 * vnm.nnz * c
        moved += footprint[key] + 2.0 * (k + r) * c
    return cols, flop, moved


def exact_counters(workload: Workload, result: PassResult) -> Dict[str, float]:
    """The counters that must repeat exactly between passes at one seed."""
    names = np.asarray(result.tracer.names, dtype=object)
    _, flop, _ = _spmm_totals(result.tracer, np.flatnonzero(names == "kernels.spmm.execute"))
    tokens = workload.tokens(result)
    skipped = hit_rate = 0.0
    if isinstance(workload, DecoderClosed):
        skipped = result.delta("prefills_skipped")
        hit_rate = result.delta("cache", "prefix_hits") / (result.delta("prefills") + skipped)
    return {
        "kernels.spmm.flop_per_token": flop / tokens,
        "serving.decoder.prefills_skipped": skipped,
        "models.kv_cache.prefix_hit_rate": hit_rate,
        "hardware.modelled_kernel_us_per_token": workload.modelled_us(result) / tokens,
    }


def per_layer(report: Report, workload: Workload, split: Dict[str, float],
              untraced: PassResult, traced: PassResult, repeat: PassResult) -> List[str]:
    """Add every per-layer metric; return the determinism violations."""
    tracer = traced.tracer
    names, durations, selfs, _ = tracer.arrays()
    tokens = workload.tokens(traced)
    served = traced.completed
    decode = isinstance(workload, DecoderClosed)

    def of(name: str) -> np.ndarray:
        return names == name

    def total(*span_names: str, use=durations) -> float:
        return float(sum(use[of(n)].sum() for n in span_names))

    steps = of("serving.step")
    report.add_percentile("serving.step_ms_p50", _ms(durations[steps]), 50)
    waits = [r.left_s - r.due_s for rid, r in traced.records.items() if rid in traced.outputs]
    report.add_percentile("serving.queue_wait_ms_p95", _ms(waits), 95)
    report.add("serving.batch_size_mean", float(np.mean(traced.step_sizes)))
    report.add("serving.self_us_per_req", selfs[steps].sum() * 1e6 / served)
    report.add("serving.submit_us_per_req", total("serving.submit") * 1e6 / served)
    next_batch = durations[of("serving.continuous.next_batch")]
    report.add("serving.continuous.next_batch_us", float(next_batch.mean()) * 1e6)
    if decode:
        report.add("serving.continuous.padding_fill", 0.0)
        report.add("serving.decoder.residents_mean",
                   traced.delta("decode_steps") / traced.delta("continuous", "steps"))
        report.add("serving.decoder.prefills", traced.delta("prefills"))
    else:
        bucket = traced.delta("padding", "bucket_tokens")
        report.add("serving.continuous.padding_fill",
                   traced.delta("padding", "valid_tokens") / bucket)
        report.add("serving.decoder.residents_mean", 0.0)
        report.add("serving.decoder.prefills", 0.0)

    forward = of("models.encoder.forward") | of("models.encoder.forward_step")
    report.add("models.forward_ms_per_req", float(durations[forward].sum()) * 1e3 / served)
    report.add("models.forward_step_us", float(durations[forward].mean()) * 1e6)
    per_token = 1e6 / tokens
    report.add("models.layer.self_us",
               total("models.layer.forward", "models.layer.forward_step", use=selfs) * per_token)
    report.add("models.attention.self_us",
               total("models.attention.forward", "models.attention.forward_step", use=selfs)
               * per_token)
    report.add("models.ffn.self_us", total("models.ffn.forward", use=selfs) * per_token)
    report.add("models.gelu.us", total("models.gelu") * per_token)
    report.add("models.layer_norm.us", total("models.layer_norm") * per_token)
    report.add("models.softmax.us", total("models.softmax") * per_token)
    report.add("models.attention_scores.us", total("models.attention_scores") * per_token)
    if decode:
        report.add("models.kv_cache.peak_blocks_in_use",
                   traced.stats_after["cache"]["peak_blocks_in_use"])
        report.add("models.kv_cache.cow_copies", traced.delta("cache", "cow_copies"))
    else:
        report.add("models.kv_cache.peak_blocks_in_use", 0.0)
        report.add("models.kv_cache.cow_copies", 0.0)

    execute = np.flatnonzero(of("kernels.spmm.execute"))
    cols, flop, moved = _spmm_totals(tracer, execute)
    report.add("kernels.spmm.calls_per_token", execute.size / tokens)
    report.add("kernels.spmm.us_per_call", float(durations[execute].mean()) * 1e6)
    report.add("kernels.spmm.cols_per_call", cols / execute.size)
    report.add("kernels.spmm.us_per_token", float(durations[execute].sum()) * per_token)
    report.add("kernels.spmm.bytes_per_token", moved / tokens)
    report.add("kernels.dispatch.failovers", traced.delta("dispatch_health", "failovers"))

    first, second = exact_counters(workload, traced), exact_counters(workload, repeat)
    for name, value in first.items():
        report.add(name, value)
    modelled = "hardware.modelled_kernel_us_per_token"
    spread = abs(first[modelled] - second[modelled]) / first[modelled] if first[modelled] else 0.0
    report.add("hardware.modelled_spread", spread)
    # Open-loop timing shifts encoder_online's batch composition, and with it
    # the modelled kernel time; everything else must repeat exactly.
    may_shift = {modelled} if isinstance(workload, EncoderOnline) else set()
    violations = [
        f"{name}: {first[name]!r} then {second[name]!r}"
        for name in first if name not in may_shift and first[name] != second[name]
    ]

    for name, value in split.items():
        report.add(name, value)
    report.add_percentile("driver.lag_ms_p95", _ms(traced.lags_s), 95)
    per_request = (traced.busy_s / served) / (untraced.busy_s / untraced.completed)
    report.add("trace.overhead_share", per_request - 1.0)
    report.add("trace.unattributed_share", selfs[steps].sum() / durations[steps].sum())
    return violations
