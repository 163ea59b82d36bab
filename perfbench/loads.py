"""Seeded workload inputs, generated with the benchmark's own NumPy code.

Nothing here imports the program under test, so a change to ``repro``
cannot change the load.  The same seed gives identical schedules and
payloads; a different seed changes them.

Open-loop arrivals are Poisson with stratified gaps: the ``rate x seconds``
inter-arrival gaps are that many evenly spaced quantiles of the exponential
distribution, in seeded order.  Lengths, priority classes and prompt
sharing are stratified too: every consecutive block of requests holds each
value once, in seeded order.  Seeds then differ in order and timing, not in
how much work a run holds or how its gaps are distributed, which keeps the
latency tail of a few hundred requests comparable from seed to seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Arrival:
    """One open-loop request: when it is due and what it carries."""

    request_id: str
    due_s: float
    payload: np.ndarray  # (tokens, hidden) float32
    priority_class: int = 0


@dataclass(frozen=True)
class OnlineLoad:
    """An open-loop schedule plus the inputs of its untimed warm-up pass."""

    arrivals: List[Arrival]
    warmup: List[Arrival]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *stream])


def request_count(rate_rps: float, seconds: float) -> int:
    return max(1, math.ceil(rate_rps * seconds))


def due_times(rng: np.random.Generator, count: int, seconds: float) -> np.ndarray:
    """``count`` arrivals in ``(0, seconds)`` with stratified exponential gaps."""
    gaps = rng.permutation(-np.log1p(-(np.arange(count) + 0.5) / count))
    due = np.cumsum(gaps)
    return due * (seconds / (due[-1] + gaps.mean()))


def blocked(rng: np.random.Generator, values: Sequence[int], count: int) -> np.ndarray:
    """``count`` draws in which every consecutive block of ``len(values)`` is a
    seeded permutation of ``values``."""
    values = np.asarray(values, dtype=np.int64)
    blocks = -(-count // len(values))
    return np.concatenate([rng.permutation(values) for _ in range(blocks)])[:count]


def _payload(rng: np.random.Generator, tokens: int, hidden: int) -> np.ndarray:
    return rng.standard_normal((int(tokens), hidden), dtype=np.float32)


def encoder_online(
    seed: int,
    seconds: float,
    rate_rps: float,
    hidden: int,
    lengths: Sequence[int],
    high_priority_share: float,
) -> OnlineLoad:
    """Ragged encoder requests with a high-priority class (class 1)."""
    rng = _rng(seed, 1)
    count = request_count(rate_rps, seconds)
    due = due_times(rng, count, seconds)
    lo, hi = lengths
    tokens = blocked(rng, range(lo, hi + 1), count)
    per_high = round(1 / high_priority_share)
    high = blocked(rng, [1] + [0] * (per_high - 1), count)
    arrivals = [
        Arrival(f"enc-{i:05d}", float(due[i]), _payload(rng, tokens[i], hidden), int(high[i]))
        for i in range(count)
    ]
    # Warm-up: every ladder rung from 8 to 64, padded and unpadded, both classes.
    warm_tokens = [4, 8, 12, 16, 24, 32, 48, 64] * 2
    warmup = [
        Arrival(f"warm-{i:03d}", 0.0, _payload(rng, t, hidden), i % 2)
        for i, t in enumerate(warm_tokens)
    ]
    return OnlineLoad(arrivals=arrivals, warmup=warmup)


class DecodePrompts:
    """The prompt sequence the decode clients draw from, request by request.

    A client's ``i``-th request overall carries ``prompt(i)``: one of the
    shared system prompts (``shared_prompts`` of every ``shared_of``
    consecutive requests) or a fresh prompt whose length comes from a
    stratified block of ``prompt_lengths``.  Fresh prompts are generated on
    demand from ``(seed, i)``, so a run holds only the prompts it serves.
    """

    def __init__(
        self,
        seed: int,
        hidden: int,
        prompt_lengths: Sequence[int],
        system_prompt_lengths: Sequence[int],
        shared_prompts: int,
        shared_of: int,
        capacity: int,
    ) -> None:
        rng = _rng(seed, 2)
        self.seed = seed
        self.hidden = hidden
        self.capacity = capacity
        self.system = [_payload(rng, t, hidden) for t in system_prompt_lengths]
        shared = blocked(rng, [1] * shared_prompts + [0] * (shared_of - shared_prompts), capacity)
        which = blocked(rng, range(len(self.system)), capacity)
        lo, hi = prompt_lengths
        lengths = blocked(rng, range(lo, hi + 1), capacity)
        #: system prompt index per request, -1 for a fresh prompt.
        self.system_index = np.where(shared == 1, which, -1)
        self.lengths = lengths

    def shared_prompt(self, i: int) -> Optional[int]:
        k = int(self.system_index[i])
        return None if k < 0 else k

    def prompt(self, i: int) -> np.ndarray:
        if i >= self.capacity:
            raise IndexError(f"request {i} is past the {self.capacity} prompts generated")
        k = self.shared_prompt(i)
        if k is not None:
            return self.system[k]
        return _payload(_rng(self.seed, 2, i), self.lengths[i], self.hidden)

    def warmup(self) -> List[np.ndarray]:
        """Each system prompt once (as a long-running server would have seen
        them) and a fresh prompt of each extreme length."""
        rng = _rng(self.seed, 4)
        lo, hi = int(self.lengths.min()), int(self.lengths.max())
        return list(self.system) + [_payload(rng, t, self.hidden) for t in (lo, hi)]


def offline_batches(
    seed: int, hidden: int, requests: int, tokens: int, distinct_batches: int
) -> List[np.ndarray]:
    """The fixed exact-length batches the closed-loop client re-serves."""
    rng = _rng(seed, 3)
    return [
        rng.standard_normal((requests, tokens, hidden), dtype=np.float32)
        for _ in range(distinct_batches)
    ]
