//! §14 scale: streamed 10M-request serving runs with footprint-bounded
//! memory.
//!
//! Everything before this target materialized its workload as a
//! `Vec<IoRequest>` (24 bytes per request — 240 MB for a 10M-request
//! run) and tracked pages in a `HashMap` + per-device `BTreeMap`
//! directory. This target exercises the scale path end to end: the
//! workload is Table 5's mix2 as a seeded *infinite stream*
//! ([`Mix::stream`]) fed straight into [`sibyl_serve::serve_stream`]'s
//! bounded block queues, and each shard's compact page directory
//! (dense entry arena + open-addressing index + intrusive LRU lists)
//! reports its exact resident bytes.
//!
//! The sweep holds the stream's horizon — and therefore the workload's
//! page footprint — fixed while growing the request count 1×/10×/100×
//! (1e5 → 1e7 at default size). Two invariants are asserted, so this
//! bench doubles as the CI peak-directory-bytes gate (smoke-run with a
//! low `SIBYL_REQS`):
//!
//! - **Compactness**: resident directory bytes per tracked page stay
//!   under 96 (entry arena 40 B/page + index slot + Vec-doubling slack;
//!   the old map-of-maps layout sat well above 130 B/page before
//!   per-allocation overhead).
//! - **Sublinearity**: serving 100× the requests grows the directory by
//!   < 4× — metadata tracks the *footprint*, not the trace length.
//!
//! A second sweep repeats the three points under `CoopMode::Both`, where
//! a full shard queue yields to a starved peer, and asserts on the
//! process's peak RSS (`VmHWM`, a high-water mark — hence ascending
//! order, after the independent sweep):
//!
//! - **No stream buffering**: from the 1× to the 100× point peak RSS
//!   grows by less than a quarter of what holding the extra requests
//!   (24 B each) would cost.
//!
//! It runs on 2 shards. Cooperating shards serve in lock step (a sync
//! round needs every member), so whatever share of the stream routing
//! hands one shard beyond the least-fed one has to wait in memory: the
//! `routing imbalance` the sweep prints. For mix2 that is 1–12 % of the
//! stream at 2 shards and 15–50 % at 4 — a property of the hash
//! partition, not of the queues, and no bound on them can go below it.

use std::time::Instant;

use sibyl_bench::{seed, serving_config, trace_len, Figure};
use sibyl_serve::{serve_stream, CoopConfig, CoopMode, ServeConfig};
use sibyl_sim::report::Table;
use sibyl_trace::mix::Mix;

/// Bytes one buffered request costs (`size_of::<IoRequest>()`).
const REQUEST_BYTES: f64 = 24.0;

/// The process's peak resident set so far, in bytes: `VmHWM` from
/// `/proc/self/status`. `None` where there is no `/proc`.
fn peak_rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = kib.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib * 1024.0)
}

/// What one sweep leaves to assert on, per 1×/10×/100× point.
struct Sweep {
    requests: Vec<u64>,
    dir_bytes: Vec<u64>,
    peak_rss: Vec<Option<f64>>,
    /// Share of the last point's stream routed to a shard beyond what
    /// the least-fed shard got.
    imbalance: f64,
}

/// Streams 1×/10×/100× the horizon through `config`, in ascending order,
/// printing and recording one table row per point.
fn sweep(
    fig: &mut Figure,
    name: &str,
    config: &ServeConfig,
    horizon: usize,
) -> Result<Sweep, Box<dyn std::error::Error>> {
    let mut table = Table::new([
        "requests",
        "agg IOPS",
        "avg lat (us)",
        "dir peak (KiB)",
        "dir total (KiB)",
        "B/page",
        "peak RSS (MiB)",
        "wall (s)",
        "host_req_per_s",
    ]);
    let mut points = Sweep {
        requests: Vec::new(),
        dir_bytes: Vec::new(),
        peak_rss: Vec::new(),
        imbalance: 0.0,
    };
    for scale in [1usize, 10, 100] {
        let total = 2 * horizon * scale;
        let stream = Mix::Mix2.stream(horizon, seed()).take(total);
        let t = Instant::now();
        let report = serve_stream(config, stream)?;
        let wall = t.elapsed().as_secs_f64();
        let peak_rss = peak_rss_bytes();
        let agg = report.aggregate();
        let peak = report.peak_directory_bytes();
        let dir_bytes = report.total_directory_bytes();
        let dir_pages = report.total_directory_pages();
        let bytes_per_page = dir_bytes as f64 / dir_pages.max(1) as f64;
        table.add_row(vec![
            total.to_string(),
            format!("{:.0}", agg.iops),
            format!("{:.1}", agg.avg_latency_us),
            format!("{:.0}", peak as f64 / 1024.0),
            format!("{:.0}", dir_bytes as f64 / 1024.0),
            format!("{bytes_per_page:.1}"),
            peak_rss.map_or("-".to_string(), |b| format!("{:.1}", b / (1 << 20) as f64)),
            format!("{wall:.2}"),
            format!("{:.0}", total as f64 / wall),
        ]);
        assert_eq!(agg.total_requests, total as u64, "every request served");
        assert!(
            bytes_per_page <= 96.0,
            "directory not compact: {bytes_per_page:.1} bytes per tracked page"
        );
        points.requests.push(agg.total_requests);
        points.dir_bytes.push(dir_bytes);
        points.peak_rss.push(peak_rss);
        let shards = &report.shards;
        let least = shards.iter().map(|s| s.requests).min().unwrap_or(0);
        points.imbalance = (total as u64 - shards.len() as u64 * least) as f64 / total as f64;
    }
    fig.table(name, &table);
    Ok(points)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Per-component horizon: fixes the calibrated footprint every scale
    // point streams over. Default 50k/component → 100k-request base
    // sweep point (2 components), ×100 → 10M.
    let horizon = trace_len(50_000);
    let mut fig = Figure::new(
        "sec14_scale",
        "§14 scale",
        "Streamed serving at 1x/10x/100x the horizon: IOPS and resident directory bytes",
        horizon,
    );
    println!(
        "workload mix2 streamed (horizon {horizon}/component, footprint fixed), \
         4 shards x batch 16, accelerated replay\n"
    );

    let config = serving_config(4, 16);
    let independent = sweep(&mut fig, "scale", &config, horizon)?;

    let (first, last) = (independent.dir_bytes[0], independent.dir_bytes[2]);
    let growth = last as f64 / first.max(1) as f64;
    let extra_requests = independent.requests[2] - independent.requests[0];
    let req_growth = independent.requests[2] as f64 / independent.requests[0].max(1) as f64;
    print!("directory growth ");
    fig.note("directory_growth", format_args!("{growth:.2}"));
    print!("x across a ");
    fig.note("request_growth", format_args!("{req_growth:.0}"));
    println!("x request sweep (metadata tracks footprint, not trace length)");
    assert!(
        growth < 4.0,
        "directory bytes must be sublinear in trace length: {first} -> {last} bytes \
         over a {req_growth:.0}x request sweep"
    );

    println!("\nthe same sweep with 2 shards' agents cooperating (CoopMode::Both)\n");
    let coop = serving_config(2, 16).with_coop(CoopConfig::new(CoopMode::Both));
    let cooperative = sweep(&mut fig, "scale_coop", &coop, horizon)?;
    print!("routing imbalance ");
    fig.note(
        "coop_routing_imbalance",
        format_args!("{:.3}", cooperative.imbalance),
    );
    println!(" of the 100x stream (what lock-step shards must hold in memory)");
    if let (Some(first), Some(last)) = (cooperative.peak_rss[0], cooperative.peak_rss[2]) {
        let buffered = REQUEST_BYTES * extra_requests as f64;
        let share = (last - first) / buffered;
        print!("cooperative peak RSS grew by ");
        fig.note("coop_rss_growth_share", format_args!("{share:.3}"));
        println!(" of what buffering the extra {extra_requests} requests would hold");
        assert!(
            share < 0.25,
            "a cooperative run is buffering its stream: peak RSS {first:.0} -> {last:.0} bytes \
             against {buffered:.0} bytes of extra requests"
        );
    }
    Ok(fig.finish()?)
}
