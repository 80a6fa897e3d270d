#!/usr/bin/env sh
# Benchmark runner.
#
#   ./scripts/bench.sh smoke   # tiny sweeps, JSON under target/bench/ (CI gate)
#   ./scripts/bench.sh full    # paper-scale sweeps, writes BENCH_fig2.json and
#                              # BENCH_sim.json at the repo root (committed)
#
# Smoke mode proves every bench binary runs end to end and emits valid
# JSON without touching the committed BENCH_* records; full mode is how
# those records are regenerated.
set -eu

cd "$(dirname "$0")/.."
mode="${1:-smoke}"

cargo build --release --offline -p bench >/dev/null

case "$mode" in
smoke)
    out=target/bench
    mkdir -p "$out"
    echo "== fig2a --smoke"
    ./target/release/fig2a --smoke --json "$out/fig2a.json" >/dev/null
    echo "== fig2b --smoke"
    ./target/release/fig2b --smoke --json "$out/fig2b.json" >/dev/null
    echo "== simbench --smoke"
    ./target/release/simbench --smoke --congestion --json "$out/sim.json" >/dev/null
    # Each record must at least parse as a JSON object with a wall time.
    for f in "$out"/fig2a.json "$out"/fig2b.json "$out"/sim.json; do
        grep -q '"wall_ms"' "$f" || { echo "missing wall_ms in $f"; exit 1; }
    done
    grep -q '"congestion_sweep"' "$out/sim.json" ||
        { echo "missing congestion_sweep in $out/sim.json"; exit 1; }
    echo "bench smoke: OK ($out/*.json)"
    ;;
full)
    out=target/bench
    mkdir -p "$out"
    echo "== fig2a (full)"
    ./target/release/fig2a --json "$out/fig2a.json"
    echo "== fig2b (full)"
    ./target/release/fig2b --json "$out/fig2b.json"
    echo "== simbench (full)"
    ./target/release/simbench --congestion --json BENCH_sim.json
    # Compose the committed fig2 record from the two sweep records.
    {
        printf '{\n"fig2a": '
        cat "$out/fig2a.json"
        printf ',\n"fig2b": '
        cat "$out/fig2b.json"
        printf '}\n'
    } >BENCH_fig2.json
    echo "bench full: wrote BENCH_fig2.json and BENCH_sim.json"
    ;;
*)
    echo "usage: $0 [smoke|full]" >&2
    exit 2
    ;;
esac
