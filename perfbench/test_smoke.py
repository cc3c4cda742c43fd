#!/usr/bin/env python3
"""Self-test of the repository benchmark, at a tiny scale.

Runs every workload of BENCHMARK.json through perfbench/run.py with
--smoke, untraced and traced, and checks that:
  - every output check passes (correct, failed == 0);
  - the result carries exactly the metrics BENCHMARK.json names, with
    their units;
  - the traced run writes a Chrome trace-event span file;
  - the fingerprint digest and the exact counts repeat for a seed and
    change for another seed.

Usage, from the repository root:  python3 perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    assert out.returncode == 0, f"{cmd} exited {out.returncode}:\n{out.stderr}"
    lines = out.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    digest = next(l.split("digest=")[1] for l in lines
                  if l.startswith("fingerprint "))
    counts = [l for l in lines if l.startswith("count ")]
    return result, digest, counts


def expect_metrics(result, specs, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    assert got == want, f"{what}: metrics {sorted(got)} != {sorted(want)}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        first, digest, counts = run(w, 1, 0)
        assert first["correct"] and first["failed"] == 0, (w, first)
        assert first["attempted"] >= 1, (w, first)
        expect_metrics(first, bench["end_to_end"], w)

        again, digest2, counts2 = run(w, 1, 0)
        assert again["correct"], (w, again)
        assert digest2 == digest and counts2 == counts, \
            f"{w}: seed 1 fingerprint does not repeat"

        other, digest3, counts3 = run(w, 2, 0)
        assert other["correct"], (w, other)
        assert digest3 != digest, f"{w}: seed 2 gave seed 1's digest"
        assert counts3 != counts, f"{w}: seed 2 gave seed 1's counts"

        traced, digest4, counts4 = run(w, 1, 1)
        assert traced["correct"] and traced["failed"] == 0, (w, traced)
        expect_metrics(traced, bench["per_layer"], w + " traced")
        assert digest4 == digest and counts4 == counts, \
            f"{w}: the traced run simulated something else"
        span_file = os.path.join(ROOT, ".bench_out", f"trace-{w}-1.json")
        with open(span_file) as f:
            events = json.load(f)["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events), span_file
        print(f"ok  {w}  digest={digest}  spans={len(events)}")
    print("perfbench smoke: all workloads pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
