#!/usr/bin/env sh
# Run one scenario end-to-end and pretty-print its telemetry trace:
# packet transmissions (decoded via describe_packet) merged with the
# structured JSONL event stream, plus state snapshots and convergence
# metrics. Pass --jsonl for the raw machine-readable stream.
#
# Usage: ./scripts/trace.sh [TOPOLOGY] [PROTOCOL] [SEED] [--jsonl]
#        ./scripts/trace.sh why ARTIFACT
#   e.g. ./scripts/trace.sh diamond pim 7
#        ./scripts/trace.sh mesh cbt 3 --jsonl > trace.jsonl
#        ./scripts/trace.sh why corpus/orphaned-upstream.replay
#
# `why` replays a committed scenario-replay-v1 artifact with the causal
# index attached and prints the backward slice behind each violation,
# per-member critical paths, and fault blast radii.
set -eu

cd "$(dirname "$0")/.."

cargo run -q --release --offline -p scenario --bin trace -- "$@"
