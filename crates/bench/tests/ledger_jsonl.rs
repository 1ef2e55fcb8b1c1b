//! Golden-file test for the privacy-ledger JSONL export.
//!
//! The ledger is the repo's audit trail of DP releases; downstream
//! consumers (`jq` pipelines, the audit harness, dashboards) key on its
//! field names and line structure. The golden file
//! (`tests/golden/ledger_jsonl_golden.jsonl`) pins the serialized byte
//! stream of a fixed two-release account, so any schema drift — renamed
//! field, reordered field, changed float formatting — shows up as a test
//! diff, not as a silently broken consumer. Regenerate with
//! `BLESS=1 cargo test -p sqm-bench --test ledger_jsonl`.

use sqm::accounting::skellam::Sensitivity;
use sqm::obs::json::{self, JsonValue};
use sqm::obs::{write_ledger_jsonl, PrivacyLedger};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/ledger_jsonl_golden.jsonl"
);

/// A fixed two-release account: the PCA covariance then a column-sum
/// release, with every parameter pinned so the export is byte-stable
/// (the ledger itself is deterministic — no sampling involved).
fn golden_ledger() -> PrivacyLedger {
    let mut ledger = PrivacyLedger::new(4, 1e-5);
    ledger.record(
        "covariance",
        16,
        18.0,
        1e6,
        Sensitivity::from_l2_for_dim(330.0, 16),
    );
    ledger.record(
        "column_sums",
        4,
        32.0,
        1e4,
        Sensitivity::from_l2_for_dim(40.0, 4),
    );
    ledger
}

fn rendered() -> String {
    let mut buf = Vec::new();
    write_ledger_jsonl(&golden_ledger().report(), &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

#[test]
fn ledger_export_matches_golden_file_byte_for_byte() {
    let text = rendered();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &text).unwrap();
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file exists");
    assert_eq!(
        text, golden,
        "ledger JSONL drifted from tests/golden/ledger_jsonl_golden.jsonl \
         (re-bless with BLESS=1 if the schema change is intentional)"
    );
}

#[test]
fn ledger_export_parses_back_with_stable_schema() {
    let text = rendered();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "meta line + one line per release");

    let meta = json::parse(lines[0]).expect("meta line is valid JSON");
    assert_eq!(
        meta.get("type").and_then(JsonValue::as_str),
        Some("ledger_meta")
    );
    assert_eq!(meta.get("n_clients").and_then(JsonValue::as_u64), Some(4));
    assert_eq!(meta.get("releases").and_then(JsonValue::as_u64), Some(2));
    let server_total = meta
        .get("server_epsilon_total")
        .and_then(JsonValue::as_f64)
        .expect("composed server epsilon");
    assert!(server_total.is_finite() && server_total > 0.0);

    // Every release line carries the full pinned schema.
    const RELEASE_FIELDS: [&str; 12] = [
        "type",
        "index",
        "kind",
        "dims",
        "gamma",
        "mu",
        "sensitivity_l1",
        "sensitivity_l2",
        "server_epsilon",
        "client_epsilon",
        "server_epsilon_total",
        "client_epsilon_total",
    ];
    for (i, line) in lines[1..].iter().enumerate() {
        let release = json::parse(line).expect("release line is valid JSON");
        for field in RELEASE_FIELDS {
            assert!(
                release.get(field).is_some(),
                "release line {i} is missing {field:?}: {line}"
            );
        }
        assert_eq!(
            release.get("type").and_then(JsonValue::as_str),
            Some("release")
        );
        assert_eq!(
            release.get("index").and_then(JsonValue::as_u64),
            Some(i as u64)
        );
        // Client view is strictly weaker than the server view (Eq. 4).
        let server = release
            .get("server_epsilon")
            .and_then(JsonValue::as_f64)
            .unwrap();
        let client = release
            .get("client_epsilon")
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert!(
            client > server,
            "line {i}: client {client} <= server {server}"
        );
    }

    // The last release's running total equals the meta line's total.
    let last = json::parse(lines[2]).unwrap();
    let last_total = last
        .get("server_epsilon_total")
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert_eq!(last_total, server_total);
}
