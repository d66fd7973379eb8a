//! Online-adaptation demo: run two very different workloads back to back
//! (hot/random prxy_0-like, then cold/sequential stg_1-like, in its own
//! address range) and watch Sibyl's fast-device preference track the
//! change halfway through — the adaptivity gap the paper's §3 identifies
//! in static heuristics.
//!
//! ```text
//! cargo run --release --example online_adaptation
//! ```

use sibyl::core::{SibylAgent, SibylConfig};
use sibyl::hss::{replay, DeviceSpec, HssConfig, StorageManager};
use sibyl::trace::{msrc, IoRequest, Trace};

fn main() {
    let n: usize = match std::env::var("SIBYL_REQS") {
        Ok(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("SIBYL_REQS={v:?} is not a non-negative integer; unset it for the default");
            std::process::exit(2)
        }),
        Err(_) => 20_000,
    };
    // Phase 1: hot and random. Phase 2: cold and sequential.
    let hot = msrc::generate(msrc::Workload::Prxy0, n, 11);
    let cold = msrc::generate(msrc::Workload::Stg1, n, 12);
    // Shift the cold phase after the hot one in time and above it in
    // address space.
    let end_us = hot.iter().last().map_or(0, |r| r.timestamp_us) + 1;
    let base_lpn = hot.address_space_pages() + 1024;
    let shifted = cold.iter().map(|r| IoRequest {
        timestamp_us: r.timestamp_us + end_us,
        lpn: r.lpn + base_lpn,
        ..*r
    });
    let spliced = Trace::from_requests("phase-shift", hot.iter().copied().chain(shifted).collect());

    let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd())
        .resolved(spliced.footprint_pages());
    let mut mgr = StorageManager::new(&hss);
    let mut agent = SibylAgent::new(SibylConfig::default());

    println!("phase 1: hot/random writes | phase 2: cold/sequential streams");
    println!("{:>8} {:>10} {:>12}", "window", "fast pref", "avg lat (us)");
    let window = (spliced.len() / 10).max(1);
    let (mut seen, mut fast, mut lat) = (0usize, 0u64, 0.0f64);
    replay(&mut agent, &mut mgr, spliced.iter().copied(), |_, out| {
        seen += 1;
        if out.target.0 == 0 {
            fast += 1;
        }
        lat += out.latency_us;
        if seen % window == 0 {
            let w = seen / window;
            let marker = if w == 6 {
                "  <- phase change region"
            } else {
                ""
            };
            println!(
                "{:>8} {:>10.2} {:>12.1}{marker}",
                w,
                fast as f64 / window as f64,
                lat / window as f64
            );
            fast = 0;
            lat = 0.0;
        }
    });
    println!(
        "\nSibyl's fast-device preference shifts with the workload — no retuning, no redeploy."
    );
}
