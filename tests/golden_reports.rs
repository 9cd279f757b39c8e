//! Byte-identity pins: one short cell per scenario kind, serialized and
//! compared against golden JSON under `tests/golden/`.
//!
//! A change that only makes the simulator faster (event calendar, flow
//! tables, allocation) must leave every byte of these reports untouched;
//! a change that alters behaviour has to re-bless the goldens on purpose
//! and say why. To re-bless, run
//!
//! ```text
//! EAC_BLESS_GOLDEN=1 cargo test --test golden_reports
//! ```
//!
//! and commit the rewritten files.

use endpoint_admission::eac::coexist::CoexistScenario;
use endpoint_admission::eac::design::Design;
use endpoint_admission::eac::multihop::MultihopScenario;
use endpoint_admission::eac::probe::{Placement, ProbeStyle, Signal};
use endpoint_admission::eac::scenario::Scenario;
use std::path::PathBuf;

/// A 30 s single-link cell with arrivals fast enough (τ = 0.1 s) that the
/// bottleneck reaches its paper operating point inside the horizon, so
/// probes are lost or marked and flows are rejected.
fn single_link(design: Design) -> String {
    let r = Scenario::basic()
        .design(design)
        .tau(0.1)
        .horizon_secs(30.0)
        .warmup_secs(5.0)
        .seed(17)
        .run()
        .expect("single-link cell");
    serde_json::to_string_pretty(&r).unwrap()
}

fn check(name: &str, got: String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"));
    if std::env::var_os("EAC_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .map_or(got.lines().count().min(want.lines().count()), |i| i);
        panic!(
            "{name}: report differs from {} at line {}:\n  got:  {:?}\n  want: {:?}",
            path.display(),
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line),
        );
    }
}

#[test]
fn in_band_drop_report_is_byte_identical() {
    let d = Design::endpoint(Signal::Drop, Placement::InBand, ProbeStyle::SlowStart, 0.01);
    check("in_band_drop", single_link(d));
}

#[test]
fn out_of_band_mark_report_is_byte_identical() {
    let d = Design::endpoint(
        Signal::Mark,
        Placement::OutOfBand,
        ProbeStyle::SlowStart,
        0.01,
    );
    check("out_of_band_mark", single_link(d));
}

#[test]
fn mbac_report_is_byte_identical() {
    check("mbac", single_link(Design::mbac(0.9)));
}

#[test]
fn multihop_tables56_report_is_byte_identical() {
    let s = MultihopScenario {
        tau_long_s: 0.3,
        tau_cross_s: 0.3,
        ..MultihopScenario::tables56()
    }
    .horizon_secs(30.0)
    .warmup_secs(5.0)
    .seed(17);
    let r = s.run().expect("multi-hop cell");
    check(
        "multihop_tables56",
        serde_json::to_string_pretty(&r).unwrap(),
    );
}

#[test]
fn fig11_coexist_report_is_byte_identical() {
    let s = CoexistScenario {
        tau_s: 0.1,
        eac_start_s: 5.0,
        ..CoexistScenario::fig11(0.3)
    }
    .horizon_secs(30.0)
    .steady_after_secs(10.0)
    .seed(17);
    check(
        "fig11_coexist",
        serde_json::to_string_pretty(&s.run()).unwrap(),
    );
}

/// A Tables 5/6 cell shortened like `multihop_tables56`, with the given
/// design.
fn multihop(design: Design) -> String {
    let s = MultihopScenario {
        tau_long_s: 0.3,
        tau_cross_s: 0.3,
        ..MultihopScenario::tables56()
    }
    .design(design)
    .horizon_secs(30.0)
    .warmup_secs(5.0)
    .seed(17);
    serde_json::to_string_pretty(&s.run().expect("multi-hop cell")).unwrap()
}

#[test]
fn multihop_mbac_report_is_byte_identical() {
    // One meter agent samples all three backbone links of the registry.
    check("multihop_mbac", multihop(Design::mbac(0.9)));
}

#[test]
fn multihop_out_of_band_mark_report_is_byte_identical() {
    // Each backbone link carries its own virtual-queue marker.
    let d = Design::endpoint(
        Signal::Mark,
        Placement::OutOfBand,
        ProbeStyle::SlowStart,
        0.01,
    );
    check("multihop_out_of_band_mark", multihop(d));
}

#[test]
fn supervised_faulty_single_link_report_is_byte_identical() {
    // Audit and event budget switch on lenient scheduling; control loss,
    // an outage and the verdict timeout exercise the fault plan and the
    // host's timeout path.
    let d = Design::endpoint(Signal::Drop, Placement::InBand, ProbeStyle::SlowStart, 0.01);
    let r = Scenario::basic()
        .design(d)
        .tau(0.1)
        .horizon_secs(30.0)
        .warmup_secs(5.0)
        .seed(17)
        .audited()
        .event_budget(50_000_000)
        .verdict_timeout(2.0)
        .control_loss(0.05)
        .flap(12.0, 14.0)
        .run()
        .expect("supervised single-link cell");
    check(
        "supervised_faulty_single_link",
        serde_json::to_string_pretty(&r).unwrap(),
    );
}
