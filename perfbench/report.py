"""Percentiles with a sample-size floor, and the benchmark's printed output."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

#: A percentile is reported only with at least this many samples above it.
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def required_samples(q: float) -> int:
    """Smallest sample with ``MIN_TAIL_SAMPLES`` values above percentile ``q``."""
    if not 0.0 <= q < 100.0:
        raise ValueError(f"percentile must be in [0, 100), got {q}")
    return math.ceil(round(MIN_TAIL_SAMPLES * 100.0 / (100.0 - q), 9))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refused when fewer than ten samples lie above it."""
    n = len(values)
    need = required_samples(q)
    if n < need:
        raise TooFewSamples(
            f"p{q:g} needs at least {need} samples ({MIN_TAIL_SAMPLES} above it), got {n}; "
            f"run longer"
        )
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    clock: str
    samples: Optional[int] = None  # sample count behind a percentile


class Report:
    """Metrics of one run, printed for people and as the final JSON line."""

    def __init__(self, spec: Dict[str, dict]) -> None:
        self.spec = spec
        self.metrics: Dict[str, Metric] = {}

    def add(self, name: str, value: float, samples: Optional[int] = None) -> None:
        if name not in self.spec:
            raise KeyError(f"metric {name!r} is not declared in spec.json")
        meta = self.spec[name]
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value}")
        self.metrics[name] = Metric(name, value, meta["unit"], meta["clock"], samples)

    def add_percentile(self, name: str, values: Sequence[float], q: float) -> None:
        self.add(name, percentile(values, q), samples=len(values))

    def missing(self) -> Iterable[str]:
        return [name for name in self.spec if name not in self.metrics]

    def lines(self) -> Iterable[str]:
        for m in self.metrics.values():
            count = f"  n={m.samples}" if m.samples is not None else ""
            yield f"  {m.name:40s} {m.value:14.6g} {m.unit:10s} [{m.clock}]{count}"

    def result_json(self, correct: bool, attempted: int, failed: int) -> str:
        return json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    m.name: {"value": m.value, "unit": m.unit} for m in self.metrics.values()
                },
            }
        )
