#!/usr/bin/env python3
"""Determinism check for the zipcone benchmark's outputs.

    python3 perfbench/determinism.py            # check
    python3 perfbench/determinism.py --record   # rewrite digests.json

The check runs the default-seed request list (the first round of every
workload at DEFAULT_SEED) in two subprocesses with different PYTHONHASHSEED
values and requires identical output digests, equal also to the digests in
digests.json.  `--record` writes digests.json from the first RECORD_ROUNDS
rounds of every workload at the default seed; run.py compares every output
of a default-seed run whose request is listed there, so any byte change in
`classification.v1`, `zipreport.v1` or `cone.v1` output counts as a failure.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from run import DIGESTS, ROOT, bootstrap, execute

HASH_SEEDS = ("0", "2718281")
# enough rounds to cover every request a default-seed run makes at twice the
# speed of the recording commit (every classify round holds the same requests)
RECORD_ROUNDS = {"classify": 1, "zipreport": 40, "cones": 60}


def emit(name: str, rounds: int) -> dict:
    import workloads

    workload = workloads.make(name)
    out = {}
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        for k in range(rounds):
            reqs = workload.round(workloads.DEFAULT_SEED, k)
            workload.prepare(reqs, Path(tmp))
            for req in reqs:
                text, code, error = execute(workload, req)
                if error is not None or workload.check(req, text, code):
                    raise SystemExit(f"{name}: request {req.key} failed its check: {error}")
                out[req.key] = workloads.digest(text)
    return out


def run_emit(name: str, rounds: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, __file__, "--emit", name, str(rounds)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--emit", nargs=2, metavar=("WORKLOAD", "ROUNDS"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    bootstrap()
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    if args.emit:
        print(json.dumps(emit(args.emit[0], int(args.emit[1])), sort_keys=True))
        return 0
    if args.record:
        digests = {name: run_emit(name, rounds, HASH_SEEDS[0])
                   for name, rounds in RECORD_ROUNDS.items()}
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {sum(map(len, digests.values()))} digests to {DIGESTS.relative_to(ROOT)}")
        return 0
    recorded = json.loads(DIGESTS.read_text())
    ok = True
    for name in RECORD_ROUNDS:
        first, second = (run_emit(name, 1, h) for h in HASH_SEEDS)
        same = first == second
        stale = sorted(k for k, d in first.items() if recorded[name].get(k) != d)
        ok = ok and same and not stale
        print(f"{name}: {len(first)} outputs, identical across PYTHONHASHSEED "
              f"{' and '.join(HASH_SEEDS)}: {same}; differing from digests.json: {len(stale)}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
