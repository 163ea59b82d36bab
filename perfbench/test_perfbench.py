"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loads
from report import TooFewSamples, percentile, required_samples
from spans import Instrumentation, Tracer, self_times

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())


def _encoder_load(seed):
    s = SPEC["workloads"]["encoder_online"]
    return loads.encoder_online(seed, 2.0, s["rate_rps"], 16, s["lengths"],
                                s["high_priority_share"])


def _decoder_prompts(seed, capacity=200):
    s = SPEC["workloads"]["decoder_closed"]
    return loads.DecodePrompts(seed, 16, s["prompt_lengths"], s["system_prompt_lengths"],
                               s["shared_prompts"], s["shared_of"], capacity)


def _schedule(load):
    return [(a.request_id, a.due_s, a.payload.shape[0], a.priority_class, a.payload.tobytes())
            for a in load.arrivals]


def test_same_seed_same_schedule_other_seed_differs():
    assert _schedule(_encoder_load(7)) == _schedule(_encoder_load(7))
    assert _schedule(_encoder_load(7)) != _schedule(_encoder_load(8))
    due = [a.due_s for a in _encoder_load(7).arrivals]
    assert due == sorted(due) and 0.0 < due[0] and due[-1] < 2.0


def test_same_seed_same_prompts_other_seed_differs():
    def prompts(seed):
        p = _decoder_prompts(seed)
        return [p.prompt(i).tobytes() for i in range(40)]

    assert prompts(7) == prompts(7)
    assert prompts(7) != prompts(8)


def test_gaps_are_stratified_exponential_quantiles():
    due = loads.due_times(np.random.default_rng(0), 400, 10.0)
    gaps = np.diff(np.concatenate([[0.0], due]))
    assert np.all(gaps > 0) and due[-1] < 10.0
    want = -np.log1p(-(np.arange(400) + 0.5) / 400)
    assert np.allclose(np.sort(gaps) / gaps.mean(), want / want.mean())


def test_every_block_holds_each_value_once():
    draws = loads.blocked(np.random.default_rng(0), range(5), 23)
    assert len(draws) == 23
    for block in range(0, 20, 5):
        assert sorted(draws[block:block + 5]) == [0, 1, 2, 3, 4]
    arrivals = _encoder_load(1).arrivals
    assert sum(a.priority_class for a in arrivals[:40]) == 8


def test_decoder_shared_prompts_repeat_system_prompts():
    s = SPEC["workloads"]["decoder_closed"]
    p = _decoder_prompts(3)
    shared = [p.shared_prompt(i) for i in range(100)]
    assert sum(k is not None for k in shared) == 100 * s["shared_prompts"] // s["shared_of"]
    for i, k in enumerate(shared):
        if k is not None:
            assert p.prompt(i) is p.system[k]
    fresh = [i for i, k in enumerate(shared) if k is None]
    lo, hi = s["prompt_lengths"]
    assert all(lo <= p.prompt(i).shape[0] <= hi for i in fresh)
    assert p.prompt(fresh[0]).tobytes() == p.prompt(fresh[0]).tobytes()
    with pytest.raises(IndexError):
        p.prompt(200)


def test_offline_batches_are_seeded():
    a = loads.offline_batches(1, 8, 2, 4, 3)
    assert all(np.array_equal(x, y) for x, y in zip(a, loads.offline_batches(1, 8, 2, 4, 3)))
    assert not np.array_equal(a[0], loads.offline_batches(2, 8, 2, 4, 3)[0])


def test_self_time_on_nested_spans():
    # root [0, 10] -> a [1, 4] -> g [2, 3];  root -> b [5, 9]
    starts = np.array([0.0, 1.0, 2.0, 5.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0])
    parents = np.array([-1, 0, 1, 0])
    assert self_times(ends - starts, parents).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_parents_and_self_time():
    tracer = Tracer()

    def leaf():
        return 1

    traced_leaf = tracer.wrap("leaf", leaf)
    root = tracer.wrap("root", lambda: traced_leaf() + traced_leaf())
    assert root() == 2
    names, durations, selfs, parents = tracer.arrays()
    assert names.tolist() == ["root", "leaf", "leaf"]
    assert parents.tolist() == [-1, 0, 0]
    assert selfs[0] == pytest.approx(durations[0] - durations[1] - durations[2])
    assert np.all(selfs >= 0)


def test_tracer_closes_span_on_exception():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    tracer.wrap("after", lambda: None)()
    assert tracer.parents == [-1, -1]
    assert tracer.ends[0] >= tracer.starts[0]


def test_percentile_refuses_fewer_than_ten_samples_above():
    assert required_samples(95) == 200
    assert required_samples(50) == 20
    with pytest.raises(TooFewSamples):
        percentile(list(range(199)), 95)
    assert percentile(list(range(200)), 95) == pytest.approx(np.percentile(range(200), 95))
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == 9.5


def test_wrappers_are_fully_removed():
    import workloads

    patches = workloads.program_patches()
    missing = object()

    def snapshot():
        return [(vars(p.owner).get(p.attr, missing), getattr(p.owner, p.attr)) for p in patches]

    before = snapshot()
    tracer = Tracer()
    with Instrumentation(tracer, patches):
        during = snapshot()
        assert all(b[1] is not d[1] for b, d in zip(before, during))
    after = snapshot()
    assert all(b[0] is a[0] and b[1] is a[1] for b, a in zip(before, after))


def test_wrappers_trace_a_real_forward():
    import workloads
    from repro.models import TransformerEncoder, tiny_config

    encoder = TransformerEncoder.init(tiny_config(hidden_size=32, num_layers=1), seed=0)
    x = np.random.default_rng(0).standard_normal((1, 5, 32), dtype=np.float32)
    want = encoder.forward(x)
    tracer = Tracer()
    with Instrumentation(tracer, workloads.program_patches()):
        got = encoder.forward(x)
    assert got.tobytes() == want.tobytes()
    assert tracer.names[0] == "models.encoder.forward"
    assert {"models.layer.forward", "models.gelu", "models.softmax"} <= set(tracer.names)


def test_spec_and_benchmark_json_agree():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: (m["unit"], m["better"]) for m in bench[section]}
        assert declared == {name: (m["unit"], m["better"]) for name, m in SPEC[section].items()}
    assert [w["name"] for w in bench["workloads"]] == list(SPEC["workloads"])
    for meta in SPEC["per_layer"].values():
        assert meta["clock"] in ("wall", "modelled", "count", "computed")
        assert all(e2e in SPEC["end_to_end"] and w in SPEC["workloads"]
                   for e2e, w in meta["moves"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "encoder_online", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
