//! The checkpoint format, pinned by a committed file: a flat NFS search
//! on a 60 × 4 synthetic frame, paused after its first stage-2 epoch with
//! accepted members in more than one subgroup. Decoding the file and
//! encoding it again gives the same bytes, and the decoded search steps
//! to the very result an uninterrupted run reaches (its timings aside,
//! which are wall-clock and not part of a search's result).
//!
//! Regenerate the fixture (after a change that means to move search
//! results or the format) with
//!
//! ```sh
//! cargo test -p eafe --test checkpoint_fixture -- --ignored write_fixture
//! ```

use eafe::{EafeConfig, Engine, SearchPhase, SearchState};
use serde::Value;
use tabular::{DataFrame, SynthSpec, Task};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/nfs_stage2_checkpoint.json"
);

fn frame() -> DataFrame {
    SynthSpec::new("checkpoint-fixture", 60, 4, Task::Classification)
        .with_seed(20)
        .generate()
        .unwrap()
}

/// `EafeConfig::fast()` with a hidden width of 4: the policies' weights
/// and Adam moments are most of a checkpoint, and this keeps the fixture
/// small.
fn engine() -> Engine {
    let mut cfg = EafeConfig::fast();
    cfg.policy.hidden_dim = 4;
    Engine::nfs(cfg)
}

/// The search the fixture holds: opened on [`frame`] and stepped up to
/// its second stage-2 epoch.
fn paused() -> SearchState {
    let engine = engine();
    let mut search = engine.start(&frame()).unwrap();
    while search.phase() != (SearchPhase::Stage2 { epoch: 1 }) {
        engine.step(&mut search).unwrap();
    }
    search
}

/// Per subgroup, how many generated members the checkpoint holds.
fn accepted_per_subgroup(checkpoint: &str) -> Vec<usize> {
    let value = serde_json::parse(checkpoint).unwrap();
    let at = |v: &Value, key: &str| serde::field(v.as_map().unwrap(), key).clone();
    let accepted = at(&at(&at(&value, "state"), "store"), "accepted");
    let subgroups = accepted.as_array().unwrap();
    subgroups
        .iter()
        .map(|s| s.as_array().unwrap().len())
        .collect()
}

#[test]
#[ignore = "rewrites the fixture; see the module docs"]
fn write_fixture() {
    let checkpoint = serde_json::to_string(&paused()).unwrap();
    std::fs::write(FIXTURE, checkpoint).unwrap();
}

#[test]
fn the_fixture_reencodes_to_its_bytes_and_resumes_bit_identically() {
    let bytes = std::fs::read_to_string(FIXTURE).unwrap();
    let accepted = accepted_per_subgroup(&bytes);
    assert_eq!(accepted.len(), 4);
    assert!(
        accepted.iter().filter(|&&n| n > 0).count() >= 2,
        "members accepted in at least two subgroups: {accepted:?}"
    );
    assert!(bytes.len() < 40 * 1024, "{} bytes", bytes.len());

    let mut resumed: SearchState = serde_json::from_str(&bytes).unwrap();
    assert_eq!(serde_json::to_string(&resumed).unwrap(), bytes);
    assert_eq!(resumed.phase(), SearchPhase::Stage2 { epoch: 1 });

    let engine = engine();
    while !resumed.is_done() {
        engine.step(&mut resumed).unwrap();
    }
    let (got, got_frame) = engine.finish(&resumed).unwrap();
    let mut uninterrupted = engine.start(&frame()).unwrap();
    while !uninterrupted.is_done() {
        engine.step(&mut uninterrupted).unwrap();
    }
    let (want, want_frame) = engine.finish(&uninterrupted).unwrap();
    assert_eq!(got.best_score.to_bits(), want.best_score.to_bits());
    assert_eq!(got.selected, want.selected);
    assert_eq!(
        runtime::fingerprint_frame(&got_frame),
        runtime::fingerprint_frame(&want_frame)
    );
}
