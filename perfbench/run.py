#!/usr/bin/env python3
"""Wall-clock serving benchmark of the V:N:M sparse transformer stack.

Run from the repository root::

    python3 perfbench/run.py --workload encoder_online --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``encoder_online``, ``decoder_closed`` and
``encoder_offline`` (see ``spec.json``).  ``--trace 0`` prints the
end-to-end metrics of an untraced run; ``--trace 1`` runs an untraced
baseline pass, a traced pass of the same load and a traced replay of it,
prints the end-to-end and per-layer
metrics, checks that the exact counters repeat, and writes the spans to
``.perfbench/spans-<workload>-seed<seed>.npz``.  Every metric is printed
with its unit, clock and the sample count behind each percentile; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics of the mode (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).  The exit code is non-zero when an output is not bit-exact
or a counter does not repeat.

The program runs on one thread: the BLAS pools are pinned to one thread
before NumPy loads.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = HERE / "spec.json"


def parse_args(spec: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    args = parse_args(spec, argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources are missing ({ROOT / 'src' / 'repro'}); "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from report import Report
    from spans import Instrumentation, Tracer

    workload = workloads.WORKLOADS[args.workload](spec, args.seed, args.seconds)
    e2e = Report(spec["end_to_end"])
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")

    if not args.trace:
        setup_times = []
        for _ in range(spec["setup_repeats"]):
            setup = None  # release the previous set-up before building the next
            setup = workload.set_up()
            setup_times.append(setup.total_s)
        untraced = workload.serve(setup.engine)
        passes = [untraced]
    else:
        setup = workload.set_up()
        setup_times = [setup.total_s]
        # Each pass covers half the run: the open loop serves the first half
        # of its schedule, a closed loop runs that long (and long enough for
        # its p95s).
        pass_seconds = args.seconds / 2
        untraced = workload.serve(setup.engine, seconds=pass_seconds)
        setup.engine = None
        patches = workloads.program_patches()
        engine = workload.fresh_engine(setup.encoder)
        with Instrumentation(Tracer(), patches) as traced_run:
            traced = workload.serve(engine, traced_run.tracer, seconds=pass_seconds)
        engine = workload.fresh_engine(setup.encoder)
        with Instrumentation(Tracer(), patches) as repeat_run:
            repeat = workload.replay(engine, repeat_run.tracer, like=traced)
        del engine
        passes = [untraced, traced, repeat]

    workloads.end_to_end(e2e, workload, untraced, setup_times)
    failures: list = []
    if args.trace:
        layers = Report(spec["per_layer"])
        failures += [f"not repeated: {v}" for v in
                     workloads.per_layer(layers, workload, setup.split, *passes)]
        spans_path = ROOT / ".perfbench" / f"spans-{workload.name}-seed{args.seed}.npz"
        passes[1].tracer.write(spans_path)

    mismatched = workload.check(setup.encoder, passes)
    failures += [f"output not bit-exact: request {rid}" for rid in mismatched]

    attempted = untraced.attempted
    failed = attempted - untraced.completed
    print(f"requests: sent {attempted} ok {untraced.completed} failed {failed} "
          f"(fail share {failed / attempted:.4f}); token unit: {workload.token_unit}")
    print("end-to-end metrics (untraced pass):")
    for line in e2e.lines():
        print(line)
    result = e2e
    if args.trace:
        print("per-layer metrics (traced pass):")
        for line in layers.lines():
            print(line)
        print(f"spans written to {spans_path.relative_to(ROOT)} "
              f"({len(passes[1].tracer)} spans)")
        result = layers
    missing = list(result.missing())
    if missing:
        failures.append(f"metrics not measured: {missing}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    correct = not failures
    print(result.result_json(correct, attempted, failed))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
