#!/usr/bin/env bash
# Does the benchmark repeat? Runs every workload twice on one seed and once
# on a second seed (each run its own process, untraced and traced), then
#
#   * prints each end-to-end metric's two same-seed values, their relative
#     gap in the metric's worse direction, and the other seed's value;
#   * fails if a gap exceeds the metric's bound in BENCHMARK.json;
#   * fails if a count that must be exact (compiler, verifier and simulator
#     counts, cached plans, state copies) differs between any two runs, or
#     if any run reports a failed operation.
#
#   benchmark/check_repeat.sh [--seed N] [--seconds S] [--runs R]
#
# With --runs R a set runs every workload R times and compares medians, as
# the driver does with ten; the default single run is a smoke test, and on a
# noisy host one run's 95th percentile can sit a bound away from another's.
# About 5 minutes per set and run at the default 20 s.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
seconds=""
runs=1
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --runs) runs="$2"; shift 2 ;;
        *) echo "usage: $0 [--seed N] [--seconds S] [--runs R]" >&2; exit 2 ;;
    esac
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/ftbench/Cargo.toml 1>&2

exec python3 - "$CARGO_TARGET_DIR/release/ftbench" "$seed" "$seconds" "$runs" <<'EOF'
import json, statistics, subprocess, sys

binary, seed, seconds, runs = sys.argv[1], int(sys.argv[2]), sys.argv[3], int(sys.argv[4])
spec = json.load(open("BENCHMARK.json"))
seconds = seconds or str(spec["run_seconds"])
workloads = [w["name"] for w in spec["workloads"]]
EXACT = [
    "etdg.blocks", "passes.groups", "passes.fusion_applied", "passes.wavefront_steps",
    "passes.arena_bytes", "passes.arena_reused_ranges", "verify.points", "verify.maps",
    "sim.ft_ms", "sim.dram_bytes", "sim.l2_bytes", "sim.l1_bytes", "sim.kernels",
    "sim.speedup_vs_best", "serve.cached_plans", "serve.state_copies",
]

def run_once(workload, seed, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", trace],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])

def run(workload, seed, trace):
    """`runs` runs; operation counts summed, every metric's median."""
    results = [run_once(workload, seed, trace) for _ in range(runs)]
    total = {
        "correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
    }
    names = results[0]["metrics"]
    return total, {k: statistics.median(r["metrics"][k]["value"] for r in results) for k in names}

def run_set(label, seed):
    print(f"-- set {label}: seed {seed}", flush=True)
    return {w: (run(w, seed, "0"), run(w, seed, "1")) for w in workloads}

sets = [run_set("A", seed), run_set("B", seed), run_set("C", seed + 1)]
bad = []
for w in workloads:
    for label, s in zip("ABC", sets):
        for result, _ in s[w]:
            if not result["correct"] or result["failed"]:
                bad.append(f"{w}: set {label} failed {result['failed']} of {result['attempted']}")
    (a, b, c) = (s[w][0][1] for s in sets)
    for m in spec["end_to_end"]:
        name, x, y = m["name"], a[m["name"]], b[m["name"]]
        worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
        gap = max(worse, (x - y) / y if m["better"] == "lower" else (y - x) / y)
        verdict = "ok" if gap <= m["bound"] else "OVER BOUND"
        print(f"{w:13s} {name:17s} A {x:12.6g}  B {y:12.6g}  gap {100 * gap:6.2f}% "
              f"(bound {100 * m['bound']:.0f}%)  C {c[name]:12.6g}  {verdict}")
        if gap > m["bound"]:
            bad.append(f"{w}: {name} differs by {100 * gap:.1f}% between two runs of one seed")
    layers = [s[w][1][1] for s in sets]
    for name in EXACT:
        values = {layer[name] for layer in layers}
        if len(values) != 1:  # a median of equal counts is that count
            bad.append(f"{w}: {name} must repeat exactly, got {sorted(values)}")
print()
for line in bad:
    print("FAIL", line)
print("repeat check:", "FAILED" if bad else "passed")
sys.exit(1 if bad else 0)
EOF
