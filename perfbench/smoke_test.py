#!/usr/bin/env python3
"""Smoke test of the repository benchmark, on the configuration it measures.

    python3 perfbench/smoke_test.py

Every run is as short as --seconds allows (the benchmark always makes at
least three passes), so the whole test takes a few minutes.

Checks, for every workload in BENCHMARK.json:
  - every metric name matches [A-Za-z0-9_.-]+ and every listed metric is
    emitted, with its unit, by the untraced (end-to-end) and the traced
    (per-layer) run;
  - the modelled metrics and the result digest repeat exactly for a fixed
    seed, traced or not;
  - an injected result mismatch (--inject-mismatch) is counted as failed.
Exits non-zero on the first failed check.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
MODELLED = ("modelled_gain_pct", "paper_error_pp", "modelled_makespan_mcycles")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)
           ] + list(extra)
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("no result line from %s:\n%s\n%s" %
                 (" ".join(cmd), out.stdout[-2000:], out.stderr[-2000:]))
    digest = [l for l in lines if l.startswith("note: result digest")]
    return out.returncode, result, digest


def expect(ok, what):
    if not ok:
        sys.exit("FAIL " + what)
    print("ok   " + what)


def check_metrics(result, defs, what):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           what + ": result keys")
    metrics = result["metrics"]
    expect(set(metrics) == {d["name"] for d in defs},
           what + ": emits exactly the listed metrics")
    for d in defs:
        m = metrics[d["name"]]
        expect(m["unit"] == d["unit"] and isinstance(m["value"], (int, float)),
               "%s: %s has unit %s" % (what, d["name"], d["unit"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for group in ("workloads", "end_to_end", "per_layer"):
        for d in bench[group]:
            expect(NAME.match(d["name"]) is not None,
                   "name %r matches [A-Za-z0-9_.-]+" % d["name"])

    for w in (d["name"] for d in bench["workloads"]):
        code, first, digest = run(w, 0)
        expect(code == 0 and first["correct"] and first["failed"] == 0,
               w + ": untraced run correct")
        check_metrics(first, bench["end_to_end"], w + " untraced")

        code, again, digest_again = run(w, 0)
        for name in MODELLED:
            expect(again["metrics"][name]["value"] ==
                   first["metrics"][name]["value"],
                   "%s: %s repeats exactly" % (w, name))
        expect(digest and digest == digest_again, w + ": digest repeats")

        code, traced, digest_traced = run(w, 1)
        expect(code == 0 and traced["correct"], w + ": traced run correct")
        check_metrics(traced, bench["per_layer"], w + " traced")
        expect(digest_traced == digest, w + ": traced digest equals untraced")

        code, bad, _ = run(w, 0, "--inject-mismatch")
        expect(code != 0 and not bad["correct"] and bad["failed"] > 0,
               w + ": injected mismatch counted as failed")
    print("smoke test passed")


if __name__ == "__main__":
    main()
