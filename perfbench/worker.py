"""One benchmark run inside a fresh, single-threaded interpreter.

run.py starts this file with the repository's src/ on PYTHONPATH.  It sets
up (import, cases, configs, then the grid and initial field of the first
solve) and prints "ready".  With --setup-only it then times the reference
kernel (see reference.py), prints "scale <factor>" and stops.  Otherwise it
measures and prints one JSON line with the results.

--trace 0 runs the workload's solves one at a time, in seed-shuffled passes,
and stops once another solve would end more than half its time after
--seconds (every solve runs at least once), so a run measures about
--seconds.  After each solve it times the reference kernel for REF_SHARE of
the solve's time, and scales the times it reports to the kernel's nominal
speed.  A solve's time is the mean of its samples, and the workload's wall
time is the sum of those means: the host's speed drifts over tens of
seconds, and the mean averages the drift over the whole run where a median
of a few samples follows it.

--trace 1 alternates an untraced pass and a traced pass, with the same
stopping rule for the pair (at least one pair).  The traced fields must be bitwise
identical to the untraced ones and the per-pass counts must repeat.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from collections import defaultdict
from itertools import chain
from statistics import fmean, median
from time import perf_counter

import numpy
import scipy

import advdiff
from layers import Tracer, layer_metrics, span_table
from reference import REF_SHARE, Reference
from workloads import WORKLOADS, geometric_mean, pass_orders, run_solve


class StepCounter:
    """Counts calls of advdiff.compute_dt, which every stepping driver makes
    once per step.  Costs one Python call per step."""

    def __init__(self):
        self.count = 0
        target = advdiff.compute_dt

        def counted(*args, **kwargs):
            self.count += 1
            return target(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("advdiff.") and getattr(module, "compute_dt", None) is target:
                module.compute_dt = counted


# kernel time after set-up, for the scale of a set-up-only run
SETUP_REF_S = 0.5


def measure_solves(solves, orders, seconds, steps, reference):
    """Outcomes per solve label, sampled until the time is up."""
    samples = defaultdict(list)
    start = perf_counter()
    for solve in chain.from_iterable(orders):
        done = samples[solve.label]
        if done and len(samples) == len(solves) and \
                perf_counter() - start + done[-1].seconds / 2 > seconds:
            break
        outcome = run_solve(solve, steps)
        outcome.values = None  # kept fields would count toward peak_rss_mb
        done.append(outcome)
        reference.sample(REF_SHARE * outcome.seconds)
    return samples


def measure_traced(orders, seconds, steps):
    """(untraced pass, traced pass, tracer) triples; a pass maps labels to outcomes."""
    pairs = []
    start = perf_counter()
    for order in orders:
        began = perf_counter()
        untraced = {s.label: run_solve(s, steps) for s in order}
        with Tracer() as tracer:
            traced = {s.label: run_solve(s, steps) for s in order}
        pairs.append((untraced, traced, tracer))
        now = perf_counter()
        if now - start + (now - began) / 2 > seconds:
            return pairs


def pass_seconds(outcomes):
    return sum(o.seconds for o in outcomes.values())


def same_bits(a, b):
    return (a.values is not None and b.values is not None
            and a.values.shape == b.values.shape
            and a.values.tobytes() == b.values.tobytes())


def end_to_end(samples, scale):
    every = [o for runs in samples.values() for o in runs]
    failed = sum(o.failure is not None for o in every)
    measured_wall = sum(fmean(o.seconds for o in runs) for runs in samples.values())
    wall = measured_wall * scale
    node_steps = sum(runs[0].nodes * runs[0].steps for runs in samples.values())
    drifts = [o.mass_drift for o in every if o.mass_drift is not None]
    metrics = {
        "wall_s": (wall, "s"),
        "node_steps_per_s": (node_steps / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "mass_drift": (max(drifts) if drifts else None, "ratio"),
    }
    report = {
        "measured_wall_s": measured_wall,
        "ref_scale": scale,
        "samples": {label: [o.seconds for o in runs] for label, runs in samples.items()},
        "fail_ratio": failed / len(every),
        "failures": sorted({f"{label}: {o.failure}" for label, runs in samples.items()
                            for o in runs if o.failure}),
        "err_linf": geometric_mean([runs[0].err_linf for runs in samples.values()]),
    }
    return failed == 0, len(every), failed, metrics, report


def per_layer(pairs):
    every = [o for u, t, _ in pairs for o in chain(u.values(), t.values())]
    failed = sum(o.failure is not None for o in every)
    tracers = [tracer for _, _, tracer in pairs]
    identical = all(same_bits(o, t[label]) for u, t, _ in pairs for label, o in u.items())
    counts_repeat = all(tr.counts() == tracers[0].counts() for tr in tracers)
    traced_wall = median(pass_seconds(t) for _, t, _ in pairs)
    untraced_wall = median(pass_seconds(u) for u, _, _ in pairs)
    steps = sum(o.steps for o in pairs[0][1].values())
    metrics = layer_metrics(tracers, steps, traced_wall, untraced_wall)
    report = {
        "untraced_pass_s": [pass_seconds(u) for u, _, _ in pairs],
        "traced_pass_s": [pass_seconds(t) for _, t, _ in pairs],
        "fail_ratio": failed / len(every),
        "failures": sorted({f"{label}: {o.failure}" for u, t, _ in pairs
                            for label, o in chain(u.items(), t.items()) if o.failure}),
        "traced_fields_identical": identical,
        "counts_repeat": counts_repeat,
        "spans": span_table(tracers),
        "absent": tracers[0].absent(),
        "missing": tracers[0].missing,
    }
    return failed == 0 and identical and counts_repeat, len(every), failed, metrics, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    solves = WORKLOADS[args.workload]()
    first_order = next(pass_orders(solves, args.seed))
    first = first_order[0]
    first.case.initial_field(first.case.build_grid(first.n))
    print("ready", flush=True)
    reference = Reference()
    if args.setup_only:
        reference.sample(SETUP_REF_S)
        print(f"scale {reference.scale()!r}")
        return 0

    orders = pass_orders(solves, args.seed)
    steps = StepCounter()
    if args.trace:
        result = per_layer(measure_traced(orders, args.seconds, steps))
    else:
        samples = measure_solves(solves, orders, args.seconds, steps, reference)
        result = end_to_end(samples, reference.scale())
    correct, attempted, failed, metrics, report = result
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics, "report": report,
                      "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
