//! Absolute pins on the engine's three outputs.
//!
//! Every other golden in this directory is relative — A ≡ B inside one
//! commit — so a refactor that shifts both sides passes them all. These
//! digests hold a commit to its *parent's* bytes: FNV-1a over the
//! per-shard reports' `Debug` text, the telemetry JSONL export and the
//! x-ray folded stacks, for an everything-on and an all-default
//! configuration at the three reference geometries. A digest may change
//! only with a behaviour change that CHANGES.md explains.
//!
//! Two fields stay out of the hashed `Debug` text: `AgentStats::train_ns`
//! is wall-clock (already excluded from `==`) and is zeroed, and
//! `HssStats::histogram` is cut because its text spells out its *type's*
//! private layout rather than the run — its content stays pinned through
//! the export digest, where it appears as `serve.latency_us`.

mod common;

use common::{config, mixed_trace, GEOMETRIES};
use sibyl_serve::{
    serve_trace, CoopConfig, CoopMode, MigrateConfig, MigratePolicyKind, ServeConfig, ServeReport,
    TelemetryConfig, XrayConfig,
};

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `{:?}` of the per-shard reports with `train_ns` zeroed and each
/// `histogram: T { .. }` field removed (a flat struct of integers and one
/// list — no nested brace).
fn shards_debug(report: &ServeReport) -> String {
    let mut shards = report.shards.clone();
    for shard in &mut shards {
        shard.agent.train_ns = 0;
    }
    let text = format!("{shards:?}");
    let mut out = String::with_capacity(text.len());
    let mut rest = text.as_str();
    while let Some(at) = rest.find(", histogram: ") {
        out.push_str(&rest[..at]);
        let close = rest[at..].find('}').expect("histogram field closes");
        rest = &rest[at + close + 1..];
    }
    out.push_str(rest);
    out
}

fn everything_on(shards: usize, max_batch: usize) -> ServeConfig {
    config(shards, max_batch)
        .with_nn_ns_per_mac(20.0)
        .with_curve_every(4)
        .with_coop(CoopConfig::new(CoopMode::Both).with_sync_period(4))
        .with_migrate(MigrateConfig::new(MigratePolicyKind::Rl).with_scan_period(4))
        .with_telemetry(TelemetryConfig::full())
        .with_xray(XrayConfig::Sampled(2))
}

/// (shards, telemetry JSONL, x-ray folded) digests, one row per
/// reference geometry.
const EVERYTHING_ON: [(u64, u64, u64); 3] = [
    (
        14_191_141_614_748_632_427,
        6_477_477_496_995_906_800,
        9_867_242_287_400_406_938,
    ),
    (
        9_752_263_722_958_787_032,
        2_104_735_272_332_630_953,
        4_176_970_281_283_770_711,
    ),
    (
        15_763_529_405_863_040_211,
        11_027_053_338_920_854_630,
        5_976_317_846_297_023_656,
    ),
];

/// Per-shard-report digests of the all-default configuration.
const ALL_DEFAULT: [u64; 3] = [
    7_870_890_812_586_861_320,
    587_017_667_512_897_067,
    16_164_999_292_445_641_030,
];

#[test]
fn engine_outputs_match_the_committed_digests() {
    let mut on = Vec::new();
    let mut default = Vec::new();
    for (shards, max_batch, n) in GEOMETRIES {
        let trace = mixed_trace(n);
        let report = serve_trace(&everything_on(shards, max_batch), &trace).unwrap();
        assert_eq!(report.xray.as_ref().unwrap().clamps(), 0);
        on.push((
            fnv1a(&shards_debug(&report)),
            fnv1a(&report.telemetry.as_ref().unwrap().export_jsonl()),
            fnv1a(&report.xray.as_ref().unwrap().xray_folded()),
        ));
        let report = serve_trace(&config(shards, max_batch), &trace).unwrap();
        assert!(report.telemetry.is_none() && report.xray.is_none());
        default.push(fnv1a(&shards_debug(&report)));
    }
    // Printed whole on a mismatch, so every drifted digest shows at once.
    assert_eq!(
        (on.as_slice(), default.as_slice()),
        (&EVERYTHING_ON[..], &ALL_DEFAULT[..]),
        "engine output drifted from the committed bytes"
    );
}

#[test]
fn histogram_field_is_the_only_text_cut() {
    let report = serve_trace(&config(2, 8), &mixed_trace(200)).unwrap();
    let (full, cut) = (format!("{:?}", report.shards), shards_debug(&report));
    assert_eq!(full.matches("histogram: ").count(), 2);
    assert!(!cut.contains("histogram"));
    assert!(cut.ends_with("}]") && cut.contains("placements: ["));
    assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
}
