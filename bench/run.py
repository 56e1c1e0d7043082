"""Benchmark for exact ladder decomposition.

Run from the root of a checkout:

    python3 bench/run.py --workload ladder-wide --seed 1 --seconds 30 --trace 0

Each workload is a closed loop on one thread: the next instance's job starts
when the previous one has finished and been checked. `--trace 0` measures the
end-to-end metrics with tracing off; `--trace 1` runs a fixed slice of the
pool both untraced and traced, and reports per-layer metrics from the spans.
End-to-end times are reported at nominal host speed (see hostspeed.py).
Human-readable lines come first; the last line of stdout is one JSON object.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

from hostspeed import NOMINAL_S, HostSpeed, at_nominal
from tracing import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")

SETUP_REPEATS = 5  # setup_s is the median of this many full set-ups
MIN_SAMPLES = 21  # latency_p50_s needs at least ten samples beyond the median
HELD_OUT_SEED = 2  # the default seed is 1; claims must also hold on this one

END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metrics: (metric, unit, span name, what) with what in
# "self" (self seconds), "calls" (span count), "count" (a counter kept by a
# hook), "total" (traced job seconds) or None (traced over untraced throughput)
PER_LAYER = (
    ("ladder.reduce_to_matching_form.s", "s", "ladder.reduce_to_matching_form", "self"),
    ("ladder.fold.s", "s", "ladder.decompose", "self"),
    ("ladder.verify_decomposition.s", "s", "ladder.verify_decomposition", "self"),
    ("ladder.ops", "count", None, "count"),
    ("ladder.ops.AO1-col", "count", None, "count"),
    ("ladder.ops.AO1-row", "count", None, "count"),
    ("ladder.ops.AO2", "count", None, "count"),
    ("ladder.ops.AO3", "count", None, "count"),
    ("ladder.ops.scale-col", "count", None, "count"),
    ("ladder.ops.scale-row", "count", None, "count"),
    ("ladder.single_nnz", "count", None, "count"),
    ("ladder.failures", "count", None, "count"),
    ("morphism.to_single_matrix.s", "s", "morphism.to_single_matrix", "self"),
    ("morphism.from_single_matrix.s", "s", "morphism.from_single_matrix", "self"),
    ("persistence.BasisChange.apply.calls", "count", "persistence.BasisChange.apply", "calls"),
    ("persistence.BasisChange.apply.s", "s", "persistence.BasisChange.apply", "self"),
    ("persistence.reduce_to_barcode_basis.s", "s", "persistence.reduce_to_barcode_basis", "self"),
    ("fields.mat_mul.calls", "count", "fields.mat_mul", "calls"),
    ("fields.mat_mul.s", "s", "fields.mat_mul", "self"),
    ("fields.mat_inverse.calls", "count", "fields.mat_inverse", "calls"),
    ("fields.mat_inverse.s", "s", "fields.mat_inverse", "self"),
    ("morphism.validate_ladder.calls", "count", "morphism.validate_ladder", "calls"),
    ("morphism.validate_ladder.s", "s", "morphism.validate_ladder", "self"),
    ("morphism.check_interleaving.s", "s", "morphism.check_interleaving", "self"),
    ("morphism.compose_ladder.calls", "count", "morphism.compose_ladder", "calls"),
    ("morphism.compose_ladder.s", "s", "morphism.compose_ladder", "self"),
    ("coarse.q_split.s", "s", "coarse.q_split", "self"),
    ("coarse.induce_coarse_morphism.s", "s", "coarse.induce_coarse_morphism", "self"),
    ("coarse.coarse_decompose.s", "s", "coarse.coarse_decompose", "self"),
    ("matching.bl_matching.s", "s", "matching.bl_matching", "self"),
    ("cli.parse_morphism_text.s", "s", "cli.parse_morphism_text", "self"),
    ("cli.parse.bytes", "bytes", None, "count"),
    ("cli.verify.s", "s", "cli.verify", "self"),
    ("cli.decompose.s", "s", "cli.decompose", "self"),
    ("cli.match.s", "s", "cli.match", "self"),
    ("trace.job.s", "s", None, "total"),
    ("trace.instances", "count", "bench.job", "calls"),
    ("trace.overhead_ratio", "ratio", None, None),
)


def load_library():
    """Put the checkout's own src/ first on the path; refuse to run without it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "laddermod", "__init__.py")):
        sys.exit("error: no laddermod sources under %s" % src)
    sys.path.insert(0, src)
    import laddermod

    if not os.path.abspath(laddermod.__file__).startswith(src + os.sep):
        sys.exit("error: imported laddermod from %s, not from %s" % (laddermod.__file__, src))


class Checker:
    """Checks every output: the first output of each pool instance by the
    workload's full check, later repeats against that checked summary."""

    def __init__(self, wl):
        self.wl = wl
        self.checked = {}
        self.messages = []

    def __call__(self, inst, out, error):
        if error is None:
            if inst.ident in self.checked:
                if self.wl.summary(out) != self.checked[inst.ident]:
                    error = "output differs from the checked output of the same instance"
            else:
                error = self.wl.check(inst, out)
                if error is None:
                    self.checked[inst.ident] = self.wl.summary(out)
        if error is not None:
            self.messages.append("instance %d: %s" % (inst.ident, error))
        return error is None


def run_job(wl, inst, tracer=None):
    """Time one job. Returns (seconds, output, error message or None)."""
    t0 = perf_counter()
    try:
        if tracer is None:
            out = wl.job(inst)
        else:
            tracer.instance = inst.ident
            try:
                out = tracer.span("bench.job", wl.job, inst)
            finally:
                tracer.instance = None
        error = None
    except Exception:  # a job that raises is a failed instance; keep measuring
        out, error = None, traceback.format_exc(limit=4)
    return perf_counter() - t0, out, error


def setup(wl, seed, workdir, speed):
    """Build the pool SETUP_REPEATS times, each build bracketed by host-speed
    probes. Returns the last pool and the build times, in wall seconds and
    in seconds at nominal host speed."""
    wall, nominal = [], []
    for _ in range(SETUP_REPEATS):
        pool = None  # free the previous build before timing the next one
        gc.collect()
        before = speed.probe()
        t0 = perf_counter()
        pool = wl.build(seed, wl.pool_size, workdir)
        dt = perf_counter() - t0
        wall.append(dt)
        nominal.append(at_nominal(dt, before, speed.probe()))
    # the pool lives for the whole run: keep it out of the collector's scans
    gc.collect()
    gc.freeze()
    return pool, wall, nominal


def measure(wl, pool, seconds, checker, speed):
    """Closed loop over the pool until `seconds` of job time and MIN_SAMPLES
    jobs, each job bracketed by host-speed probes. Returns per-job times in
    wall seconds and in seconds at nominal host speed, and the failure
    count."""
    lat, nominal = [], []
    failed = 0
    while sum(lat) < seconds or len(lat) < MIN_SAMPLES:
        inst = pool[len(lat) % len(pool)]
        before = speed.probe()
        dt, out, error = run_job(wl, inst)
        lat.append(dt)
        nominal.append(at_nominal(dt, before, speed.probe()))
        failed += not checker(inst, out, error)
    return lat, nominal, failed


def measure_trace(wl, pool, checker, targets):
    """The first trace_count pool instances, each run once untraced and once
    traced with the names in targets rebound, alternating which goes first
    so that drift in machine speed cancels out of the overhead ratio.
    Returns (per-layer metrics, attempted, failed, tracer)."""
    batch = pool[: wl.trace_count]
    tracer = Tracer()
    failed = 0
    untraced = traced = 0.0
    for k, inst in enumerate(batch):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install(targets)
                try:
                    dt, out, error = run_job(wl, inst, tracer)
                finally:
                    tracer.uninstall()
                traced += dt
            else:
                dt, out, error = run_job(wl, inst)
                untraced += dt
            failed += not checker(inst, out, error)
    selfs = tracer.self_times()
    metrics = {}
    for metric, unit, span, what in PER_LAYER:
        calls, self_s = selfs.get(span, (0, 0.0))
        if what == "self":
            value = self_s
        elif what == "calls":
            value = calls
        elif what == "total":
            value = traced
        elif what == "count":
            value = tracer.counts.get(metric, 0)
        else:
            value = untraced / traced
        metrics[metric] = {"value": value, "unit": unit}
    return metrics, 2 * len(batch), failed, tracer


def check_digest(wl, seed, digest):
    """None, or a message when this seed's inputs differ from the recorded ones."""
    with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh).get(wl.name, {}).get(str(seed))
    if recorded is not None and recorded != digest:
        return "inputs of seed %d changed: digest %s, recorded %s" % (seed, digest, recorded)
    return None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    load_library()
    import instances
    from workloads import WORKLOADS, trace_targets

    if args.workload not in WORKLOADS:
        sys.exit("error: unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d" % (wl.name, args.seed)
    workdir = os.path.join(OUT, "work-%s-%d" % (tag, os.getpid()))
    os.makedirs(workdir)
    speed = HostSpeed()
    try:
        pool, setup_wall, setup_nominal = setup(wl, args.seed, workdir, speed)
        digest = instances.digest(pool)
        with open(os.path.join(OUT, "inputs-%s.json" % tag), "w", encoding="utf-8") as fh:
            json.dump({"workload": wl.name, "seed": args.seed, "digest": digest,
                       "instances": [inst.record() for inst in pool]}, fh, indent=1)
        digest_problem = check_digest(wl, args.seed, digest)
        print("workload %s seed %d: %d instances, inputs sha256 %s (held-out seed %d)"
              % (wl.name, args.seed, len(pool), digest, HELD_OUT_SEED))
        checker = Checker(wl)
        if args.trace:
            metrics, attempted, failed, tracer = measure_trace(wl, pool, checker, trace_targets())
            tracer.dump(os.path.join(OUT, "spans-%s.json" % tag),
                        {"workload": wl.name, "seed": args.seed})
            for name, m in metrics.items():
                print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
        else:
            lat, nominal, failed = measure(wl, pool, args.seconds, checker, speed)
            attempted = len(lat)
            # reported times are at nominal host speed (see hostspeed.py);
            # wall-clock figures are printed beside them
            wall = {
                "throughput_per_s": (attempted - failed) / sum(lat),
                "latency_p50_s": statistics.median(lat),
                "setup_s": statistics.median(setup_wall),
            }
            values = {
                "throughput_per_s": (attempted - failed) / sum(nominal),
                "latency_p50_s": statistics.median(nominal),
                "setup_s": statistics.median(setup_nominal),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            notes = {
                "latency_p50_s": "(%d samples)" % attempted,
                "setup_s": "(median of %d set-ups)" % SETUP_REPEATS,
            }
            print("host speed: reference loop median %.4g s over %d loops, nominal %g s"
                  % (statistics.median(speed.samples), len(speed.samples), NOMINAL_S))
            for name, unit in END_TO_END:
                raw = "(wall %.6g %s) " % (wall[name], unit) if name in wall else ""
                print("%-18s %.6g %s %s%s" % (name, values[name], unit, raw, notes.get(name, "")))
            print("%-18s %.6g (%d of %d instances)" % ("fail_ratio", failed / attempted, failed, attempted))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = ([digest_problem] if digest_problem else []) + checker.messages
    for m in problems:
        print("FAIL %s" % m, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
