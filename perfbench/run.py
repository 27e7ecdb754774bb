#!/usr/bin/env python3
"""zipcone benchmark: one seeded, closed-loop request stream per workload.

Run from the repository root:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 25 --trace 0

Load model: one client in one process with no threads; a request starts only
when the previous one has finished.  Requests come in rounds of a fixed mix
(see workloads.py) and the run stops at the first round boundary after
`--seconds` seconds of request time.  Every output is checked outside the
timed region.  The gated times are wall times scaled to the host's reference
speed (speed.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 wraps the public
functions of every zipcone module (tracing.py) and runs whole rounds until
half of `--seconds` of traced request time, running each request a second
time untraced to measure the tracing overhead; it reports the per-layer
metrics and writes the spans to .bench_out/trace/<workload>-seed<seed>.tsv.gz.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = Path(__file__).with_name("digests.json")
SETUP_REPEATS = 15
# Each runs in a fresh interpreter and prints how long its imports took.
SETUP_CODE = (
    "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import zipcone, zipcone.cli; zipcone.hasse.load_expected_tables(); "
    "print(time.perf_counter() - t0)"
)
REF_IMPORT_CODE = (
    "import sys, time; t0 = time.perf_counter(); import {}; print(time.perf_counter() - t0)"
)
# a run whose program got very slow stops mid-round at this multiple of --seconds
HARD_STOP = 3.0


def bootstrap():
    """Import zipcone from this checkout's src/, never from an installed copy."""
    if not (SRC / "zipcone" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'zipcone'} not found; run from a zipcone checkout")
    sys.path.insert(0, str(SRC))


@dataclass
class Sample:
    index: int
    round: int
    latency: float  # wall time at the reference speed (speed.py)
    wall: float
    cpu: float
    digest: str
    problems: list


def execute(workload, req):
    """Run one request; returns (output text or None, exit code, error text)."""
    try:
        text, code = workload.execute(req)
    except Exception:  # a request that raises is a failure; the stream goes on
        return None, None, traceback.format_exc(limit=3)
    return text, code, None


def check(workload, req, text, code, error, recorded):
    from workloads import digest

    if error is not None:
        return [f"raised: {error.strip().splitlines()[-1]}"], ""
    out_digest = digest(text)
    try:
        problems = workload.check(req, text, code)
    except Exception as exc:  # malformed output is a failure, not a crash
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    if req.key in recorded and recorded[req.key] != out_digest:
        problems.append("output differs from the digest recorded for the default seed")
    return problems, out_digest


def whole_rounds(workload, seed, workdir, done):
    """Yield (round index, request), preparing each round's inputs before its
    first request, until done() holds at a round boundary."""
    k = 0
    while not done():
        reqs = workload.round(seed, k)
        workload.prepare(reqs, workdir)
        for req in reqs:
            yield k, req
        k += 1


def run_stream(workload, seed, seconds, workdir, recorded):
    """The closed loop: whole rounds until `seconds` of request time.  Each
    request starts from a collected heap whose survivors are frozen, so the
    collector's work in a request does not grow with the samples kept."""
    from speed import Clock

    clock = Clock()
    samples, busy = [], 0.0
    for k, req in whole_rounds(workload, seed, workdir, lambda: busy >= seconds):
        gc.collect()
        gc.freeze()
        (text, code, error), wall, cpu, scaled = clock.time(lambda: execute(workload, req))
        busy += wall
        problems, out_digest = check(workload, req, text, code, error, recorded)
        samples.append(Sample(len(samples), k, scaled, wall, cpu, out_digest, problems))
        if busy >= HARD_STOP * seconds:
            break
    return samples


def measure_setup():
    """Median over SETUP_REPEATS fresh interpreters of the time to import
    zipcone and zipcone.cli and load the transcribed tables, from the
    interpreter's first statement; returns (that time at the reference
    speed, and as measured).

    Each set-up is followed by a fresh interpreter that imports the fixed
    modules of speed.REF_IMPORT, and the set-up is scaled by REF_IMPORT_S
    over that import's time.  Bytecode is always cached, under
    .bench_out/pycache, whatever PYTHONDONTWRITEBYTECODE says, and one
    unmeasured warm-up of each writes it, so the figure is that of an
    installed package."""
    from speed import REF_IMPORT, REF_IMPORT_S

    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")

    def interpreter(*argv):
        out = subprocess.run([sys.executable, "-c", *argv], check=True, cwd=ROOT, env=env,
                             capture_output=True, text=True)
        return float(out.stdout)

    scaled, walls = [], []
    for i in range(SETUP_REPEATS + 1):
        wall = interpreter(SETUP_CODE, str(SRC))
        reference = interpreter(REF_IMPORT_CODE.format(REF_IMPORT))
        if i:
            scaled.append(wall * REF_IMPORT_S / reference)
            walls.append(wall)
    return statistics.median(scaled), statistics.median(walls)


def p90(values):
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload, seed, seconds, workdir, recorded):
    """The gated times are at the reference speed (speed.py); the summary
    also gives them as measured, with cpu_s_per_req and fail_ratio, which
    are not gated."""
    setup_s, setup_wall = measure_setup()
    gc.collect()
    samples = run_stream(workload, seed, seconds, workdir, recorded)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(samples)

    def times(lat):
        tail, beyond = p90(lat)
        return {"req_s.p50": statistics.median(lat), "req_s.p90": tail,
                "req_per_s": n / sum(lat)}, beyond

    scaled, beyond = times([s.latency for s in samples])
    wall, _ = times([s.wall for s in samples])
    scaled["setup_s"], wall["setup_s"] = setup_s, setup_wall
    units = {"req_s.p50": "s", "req_s.p90": "s", "req_per_s": "1/s", "setup_s": "s"}
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mib"] = (peak_rss_mib, "MiB")
    failed = sum(1 for s in samples if s.problems)
    print(f"{workload.name} seed {seed}: {n} requests in {samples[-1].round + 1} rounds, "
          f"{sum(s.wall for s in samples):.2f} s of request time; closed loop, 1 client; "
          f"host speed {sum(s.latency for s in samples) / sum(s.wall for s in samples):.3f} "
          f"of the reference")
    print(f"  {'metric':<15} {'at ref speed':>12} {'as measured':>12}")
    for name, (value, unit) in metrics.items():
        note = f"n={n}"
        if name == "req_s.p90":
            note += f", {beyond} samples above"
            if beyond < 10:
                note += " (too few: fewer than 100 requests)"
        elif name == "setup_s":
            note = f"median of {SETUP_REPEATS} fresh interpreters"
        measured = wall.get(name, value)
        print(f"  {name:<15} {value:>12.6g} {measured:>12.6g} {unit:<4} ({note})")
    cpu = sum(s.cpu for s in samples) / n
    print(f"  {'cpu_s_per_req':<15} {'':>12} {cpu:>12.6g} s    (n={n}; not gated)")
    print(f"  {'fail_ratio':<15} {'':>12} {failed / n:>12.6g}      ({failed}/{n}; not gated)")
    return samples, metrics


def per_layer(workload, seed, seconds, workdir, recorded):
    """Each request runs once traced and once untraced, alternating which
    goes first, so that the overhead ratio does not pick up drifts in the
    machine's speed; the untraced output must equal the traced one."""
    from tracing import Tracer
    from workloads import digest

    tracer = Tracer()
    samples, traced_busy, untraced_busy = [], 0.0, 0.0
    gc.collect()
    for k, req in whole_rounds(workload, seed, workdir, lambda: traced_busy >= seconds / 2):
        index = len(samples)
        runs = {}
        for traced in (True, False) if index % 2 == 0 else (False, True):
            if traced:
                tracer.install()
                tracer.request = index
            c0, t0 = time.process_time(), time.perf_counter()
            result = execute(workload, req)
            runs[traced] = (result, time.perf_counter() - t0, time.process_time() - c0)
            if traced:
                tracer.uninstall()
        (text, code, error), latency, cpu = runs[True]
        (plain, _, plain_error), plain_latency, _ = runs[False]
        traced_busy += latency
        untraced_busy += plain_latency
        problems, out_digest = check(workload, req, text, code, error, recorded)
        if plain_error is not None or digest(plain) != out_digest:
            problems.append("the untraced run gave another output")
        samples.append(Sample(index, k, latency, latency, cpu, out_digest, problems))
        if traced_busy >= HARD_STOP * seconds / 2:
            break
    n = len(samples)
    metrics = tracer.metrics(n)
    metrics["trace.overhead_ratio"] = (traced_busy / untraced_busy, "ratio")
    metrics["trace.requests"] = (n, "count")
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans_path = trace_dir / f"{workload.name}-seed{seed}.tsv.gz"
    tracer.write_spans(spans_path)
    print(f"{workload.name} seed {seed}: {n} traced requests in {samples[-1].round + 1} rounds, "
          f"{len(tracer.name)} spans written to {spans_path.relative_to(ROOT)}")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}} {value:.6g} {unit}")
    per_request = traced_busy / n
    shares = {}
    for name, (value, _) in metrics.items():
        if name.endswith(".self_s"):
            module = name.split(".")[0]
            shares[module] = shares.get(module, 0.0) + value / per_request
    print("self time by module, share of traced request time: "
          + ", ".join(f"{m} {s:.1%}" for m, s in sorted(shares.items(), key=lambda kv: -kv[1])))
    return samples, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("classify", "zipreport", "cones"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    import workloads

    workload = workloads.make(args.workload)
    recorded = {}
    if args.seed == workloads.DEFAULT_SEED and DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(args.workload, {})
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = per_layer if args.trace else end_to_end
        samples, metrics = run(workload, args.seed, args.seconds, workdir, recorded)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [s for s in samples if s.problems]
    for s in failed[:10]:
        print(f"request {s.index} (round {s.round}) failed: {'; '.join(s.problems)}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
