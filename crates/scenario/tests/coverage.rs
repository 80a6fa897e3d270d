//! `CoverageSink` contract: the coverage map is a pure fold of the
//! telemetry event stream, and that stream is a pure function of the
//! case — so the map's stable hash must not move between runs of the
//! same case.

use scenario::{load_corpus, random_schedule, run_case_coverage, topology, Protocol};
use std::path::PathBuf;

/// Fixed grid of runs: every topology, every protocol, a fixed seed,
/// the explorer's own schedule generator. Expected hashes are not
/// hard-coded (they legitimately move when protocols evolve); what is
/// pinned is run-to-run stability and non-emptiness.
const TABLE: [(&str, Protocol, u64, bool); 4] = [
    ("diamond", Protocol::Pim, 11, false),
    ("line-stub", Protocol::Dvmrp, 5, false),
    ("mesh", Protocol::Cbt, 8, false),
    ("line-stub", Protocol::Pim, 2, true),
];

#[test]
fn coverage_hash_is_thread_count_invariant() {
    for (name, protocol, seed, teardown) in TABLE {
        let topo = topology(name).unwrap();
        let schedule = random_schedule(&topo, seed, teardown);
        let (o1, c1) = run_case_coverage(&topo, protocol, &schedule, seed);
        assert!(
            c1.distinct() > 0,
            "{name}/{}/{seed}: coverage map is empty",
            protocol.name()
        );
        // Re-running the identical case reproduces the identical stream
        // and map: the hash is stable, not merely collision-happy.
        let (o1b, c1b) = run_case_coverage(&topo, protocol, &schedule, seed);
        assert_eq!(o1.telemetry, o1b.telemetry);
        assert_eq!(c1.stable_hash(), c1b.stable_hash());
        assert_eq!(c1.distinct(), c1b.distinct());
        assert_eq!(c1.total(), c1b.total());
    }
}

#[test]
fn replayed_corpus_artifacts_yield_stable_coverage_hashes() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let corpus = load_corpus(&dir).expect("corpus directory must load");
    assert!(!corpus.is_empty(), "committed corpus must not be empty");
    for (path, artifact) in corpus {
        let topo = topology(&artifact.topology).unwrap();
        let run = || run_case_coverage(&topo, artifact.protocol, &artifact.schedule, artifact.seed);
        let (_, c1) = run();
        let (_, c1b) = run();
        assert_eq!(
            c1.stable_hash(),
            c1b.stable_hash(),
            "{}: coverage hash moved between runs",
            path.display()
        );
        assert!(c1.distinct() > 0, "{}: empty coverage map", path.display());
    }
}

/// The committed BENCH_telemetry record must show the disabled sink
/// still within its noise bound with the coverage mode present — the
/// "zero overhead when disabled" contract survives the new sink.
#[test]
fn bench_record_keeps_disabled_sink_within_noise() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_telemetry.json");
    let text = std::fs::read_to_string(&path).expect("BENCH_telemetry.json must be committed");
    assert!(
        text.contains("\"sink\": \"coverage\""),
        "BENCH_telemetry.json lacks the coverage mode (regenerate: \
         cargo run -p bench --release --bin telemetry)"
    );
    assert!(
        text.contains("\"disabled_within_noise\": true"),
        "disabled-sink overhead exceeded the noise bound"
    );
}
