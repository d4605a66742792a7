#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny N (under a minute after the build).

    python3 hssbench/selftest.py

For every workload in BENCHMARK.json it checks that the untraced run prints
exactly the end_to_end metrics and the traced run exactly the per_layer
metrics, by name and unit, with correct outputs and no failed request, and
that every metric row carries the run's provenance. It then checks that a
corrupted solution trips the residual check, and that a kriging
configuration whose construction fails (the guard's column sample capped
below what it needs, so every build throws BasisUnderResolvedError) is
counted in "failed" while the run still exits cleanly.
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROVENANCE = ("workload", "seed", "nproc", "workers", "backend", "build_type",
              "native_arch", "commit")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"] + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    rows = [json.loads(line) for line in lines[:-1]]
    return done.returncode, result, rows, done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}

    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            tag = "%s --trace %d" % (w, trace)
            code, result, rows, err = run(w, trace)
            check(code == 0 and result is not None, tag + ": exits 0 with a result")
            if result is None:
                print(err[-2000:])
                continue
            check(set(result) == RESULT_KEYS, tag + ": result has exactly the contract keys")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted[trace], tag + ": metric names and units match BENCHMARK.json")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  tag + ": correct, nothing failed")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()), tag + ": values are numbers")
            check(bool(rows) and all(all(k in r for k in PROVENANCE) for r in rows),
                  tag + ": every row carries provenance")

    code, result, _, _ = run("yukawa_coarse_w1", 0, "--corrupt-solution")
    check(code != 0 and result is not None and result["correct"] is False,
          "a corrupted solution trips the residual check")

    code, result, _, err = run("kriging_matern_cache", 0, "--samples", "32",
                               "--max-samples", "32")
    check(code == 0 and result is not None and result["failed"] > 0
          and result["metrics"]["ok_ops"]["value"] < 1.0,
          "a breaking kriging configuration counts failed requests and exits cleanly")
    if result is not None and result["failed"] == 0:
        print(err[-2000:])

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
