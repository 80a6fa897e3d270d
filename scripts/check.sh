#!/usr/bin/env sh
# Tier-1 gate: everything a PR must keep green.
# Run from the repository root: ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo build --release"
cargo build --release --offline

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test -q"
cargo test -q --offline

echo "== cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --quiet

# cmp one binary's output against its committed golden. The goldens
# under tests/golden/ pin every deterministic byte these runs print, so
# any drift in traces, telemetry or causal provenance fails here.
# Usage: diff_golden NAME COMMAND... (golden: tests/golden/NAME.txt)
diff_golden() {
    name="$1"
    shift
    "$@" >"target/check/$name.txt" || { echo "$name exited nonzero"; exit 1; }
    [ -s "target/check/$name.txt" ] || { echo "$name produced no output"; exit 1; }
    cmp "target/check/$name.txt" "tests/golden/$name.txt" ||
        { echo "$name drifted from tests/golden/$name.txt"; exit 1; }
}
mkdir -p target/check

echo "== determinism: fig2a --threads 1 vs --threads 4"
# The trial fan-out contract, checked end to end: the sweep output must
# be byte-identical at any thread count.
./target/release/fig2a --trials 4 --threads 1 >target/check/det-1t.txt
./target/release/fig2a --trials 4 --threads 4 >target/check/det-4t.txt
diff target/check/det-1t.txt target/check/det-4t.txt ||
    { echo "fig2a diverged across thread counts"; exit 1; }

echo "== goldens: simbench fingerprints, trace why on the corpus"
# --congestion folds the bounded-capacity sweep's reception fingerprints
# into the golden: congestion must not cost determinism.
simbench_fingerprints() {
    ./target/release/simbench --smoke --congestion | grep fingerprint
}
diff_golden simbench_fingerprint simbench_fingerprints
# Causal provenance is part of the determinism contract too: the full
# `trace why` report (backward slices, critical paths, blast radii,
# causal-index fingerprint) on every corpus pin.
for pin in corpus/*.replay; do
    diff_golden "why-$(basename "$pin" .replay)" ./target/release/trace why "$pin"
done
echo "goldens: OK"

echo "== hierarchical smoke (500 routers, 10^4 aggregate members)"
# Scale gate: all three protocols over the wide-area backbone+domains
# topology with aggregate member populations, full oracle battery
# (delivery, structure, site-scaled state bound), output pinned.
diff_golden hier_smoke ./target/release/hier_smoke
! grep -q FAIL target/check/hier_smoke.txt ||
    { echo "hier_smoke oracle violations"; exit 1; }
grep -q PASS target/check/hier_smoke.txt ||
    { echo "hier_smoke produced no PASS lines"; exit 1; }
echo "hier smoke: OK"

echo "== overload smoke (flash-crowd + RP-overload under capped links)"
# Congestion gate: both overload workloads against all three protocols
# with a capped RP-side link, full oracle battery (bounded queues, no
# control-plane starvation, post-heal congestion recovery), and the
# printed drop/mark/peak counters pinned.
diff_golden overload_smoke ./target/release/overload_smoke
! grep -q FAIL target/check/overload_smoke.txt ||
    { echo "overload_smoke oracle violations"; exit 1; }
grep -q PASS target/check/overload_smoke.txt ||
    { echo "overload_smoke produced no PASS lines"; exit 1; }
echo "overload smoke: OK"

echo "== bench smoke"
./scripts/bench.sh smoke

echo "== fuzz smoke"
./scripts/fuzz.sh smoke

echo "== search smoke"
# Coverage-guided search gate: replay the committed regression corpus
# byte-identically, self-test the shrinker (determinism + 1-minimality)
# on a known violating fixture, and run a bounded guided search.
./scripts/search.sh smoke

echo "tier-1: OK"
