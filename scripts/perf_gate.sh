#!/usr/bin/env sh
# Performance regression gate for the dense kernel layer.
#
# Re-runs bench_micro_linalg and compares every rated case (kernel, n)
# against the committed baseline BENCH_linalg.json: dense kernels by
# GFLOP/s, Green's-function kernels by million entries per second (1000 /
# their ns per entry). A case fails when its fresh rate drops more than
# PERF_GATE_TOL (default 35% — micro-bench noise on a shared machine is
# real, a kernel regression is much larger) below the committed number. Independently of the relative check, some
# cases carry hard limits, so the tuned kernels can never silently fall
# back to their old rates even if someone commits a slower baseline file:
#   - gemm n=256 must sustain 6.83 GFLOP/s (2x the pre-blocking naive
#     gemm's 3.41);
#   - orth_complement n=256 (a 256 x 80 basis) must sustain 4.44 GFLOP/s
#     (2x the 2.22 of the level-2, reflector-by-reflector Householder code
#     it replaced), so the QR family cannot fall back to level-2 speed;
#   - trsm_bwd n=48 (L_RRᵀ of order 48 against a 64-column panel, the
#     backward panel solve at leaf 64, rank 16) must sustain 3.0 GFLOP/s
#     (2x the 1.50 of the scalar diagonal-block kernel it replaced, on the
#     same harness), so trsm cannot fall back to scalar dot chains;
#   - kernel_matern (a 256 x 512 gather of the kriging Matérn, nu = 1/2)
#     must sustain 1000/29.8 M entries/s, i.e. at most 29.8 ns per entry
#     (half the 59.7 of the per-entry Bessel route it replaced, on the same
#     harness), so the closed form cannot silently fall back to the general
#     formula.
#
#   scripts/perf_gate.sh [build-dir]      (default: build)
#
# Env knobs: PERF_GATE_TOL (fractional drop allowed, default 0.35),
#            PERF_GATE_MIN_TIME (seconds per case, default 0.2).
set -eu

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
BENCH="$BUILD/bench/bench_micro_linalg"
BASELINE="BENCH_linalg.json"

if [ ! -x "$BENCH" ]; then
  echo "perf_gate: $BENCH not built (cmake --build $BUILD --target bench_micro_linalg)" >&2
  exit 2
fi
if [ ! -f "$BASELINE" ]; then
  echo "perf_gate: no committed baseline $BASELINE" >&2
  exit 2
fi

FRESH="$(mktemp /tmp/hatrix_perf_gate.XXXXXX.json)"
trap 'rm -f "$FRESH"' EXIT INT TERM

"$BENCH" --min-time "${PERF_GATE_MIN_TIME:-0.2}" --json "$FRESH" > /dev/null

PERF_GATE_TOL="${PERF_GATE_TOL:-0.35}" python3 - "$FRESH" "$BASELINE" <<'PYEOF'
import json, os, sys

fresh_path, base_path = sys.argv[1], sys.argv[2]
tol = float(os.environ["PERF_GATE_TOL"])

def load(path):
    """Rate of every rated case: GFLOP/s for the dense kernels, million
    entries per second (1000 / ns_per_entry) for the Green's-function ones,
    so a higher number is faster for both."""
    with open(path) as f:
        rows = json.load(f)["rows"]
    rates = {}
    for r in rows:
        if r.get("gflops", 0) > 0:
            rates[(r["kernel"], r["n"])] = r["gflops"]
        elif r.get("ns_per_entry", 0) > 0:
            rates[(r["kernel"], r["n"])] = 1000.0 / r["ns_per_entry"]
    return rates

fresh, base = load(fresh_path), load(base_path)

# Hard floors, independent of the baseline file's contents (kernel_matern:
# 29.8 ns per entry).
FLOORS = {("gemm", 256): 6.83, ("orth_complement", 256): 4.44, ("trsm_bwd", 48): 3.0,
          ("kernel_matern", 256): 1000.0 / 29.8}

failures = []
print(f"{'kernel':<16} {'n':>5} {'baseline':>9} {'fresh':>9} {'ratio':>6}")
for key in sorted(base):
    if key not in fresh:
        failures.append(f"{key[0]} n={key[1]}: case missing from fresh run")
        continue
    ratio = fresh[key] / base[key]
    flag = ""
    if ratio < 1.0 - tol:
        failures.append(
            f"{key[0]} n={key[1]}: rate {fresh[key]:.2f} is "
            f"{100 * (1 - ratio):.0f}% below baseline {base[key]:.2f}")
        flag = "  <-- REGRESSION"
    print(f"{key[0]:<16} {key[1]:>5} {base[key]:>9.2f} {fresh[key]:>9.2f} {ratio:>6.2f}{flag}")

for key, floor in FLOORS.items():
    got = fresh.get(key, 0.0)
    if got < floor:
        failures.append(f"{key[0]} n={key[1]}: rate {got:.2f} under hard floor {floor:.2f}")

if failures:
    print("\nperf_gate FAILED:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
floors = ", ".join(f"{k} n={n} >= {v:.2f}" for (k, n), v in FLOORS.items())
print(f"\nperf_gate OK (tolerance {100 * tol:.0f}%, floors {floors})")
PYEOF
