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

use std::time::Instant;

use sibyl_bench::{seed, serving_config, trace_len, Figure};
use sibyl_sim::report::Table;
use sibyl_sim::ServeExperiment;
use sibyl_trace::mix::Mix;

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

    let mut table = Table::new([
        "requests",
        "agg IOPS",
        "avg lat (us)",
        "dir peak (KiB)",
        "dir total (KiB)",
        "B/page",
        "wall (s)",
        "host_req_per_s",
    ]);
    let mut dir_totals: Vec<u64> = Vec::new();
    let mut request_totals: Vec<u64> = Vec::new();
    for scale in [1usize, 10, 100] {
        let total = 2 * horizon * scale;
        let stream = Mix::Mix2.stream(horizon, seed()).take(total);
        let t = Instant::now();
        let outcome = ServeExperiment::run_stream(&config, stream)?;
        let wall = t.elapsed().as_secs_f64();
        let agg = outcome.aggregate;
        let peak = outcome.report.peak_directory_bytes();
        let dir_bytes = outcome.report.total_directory_bytes();
        let dir_pages = outcome.report.total_directory_pages();
        let bytes_per_page = dir_bytes as f64 / dir_pages.max(1) as f64;
        table.add_row(vec![
            total.to_string(),
            format!("{:.0}", agg.iops),
            format!("{:.1}", agg.avg_latency_us),
            format!("{:.0}", peak as f64 / 1024.0),
            format!("{:.0}", dir_bytes as f64 / 1024.0),
            format!("{bytes_per_page:.1}"),
            format!("{wall:.2}"),
            format!("{:.0}", total as f64 / wall),
        ]);
        assert_eq!(agg.total_requests, total as u64, "every request served");
        assert!(
            bytes_per_page <= 96.0,
            "directory not compact: {bytes_per_page:.1} bytes per tracked page"
        );
        dir_totals.push(dir_bytes);
        request_totals.push(agg.total_requests);
    }
    fig.table("scale", &table);

    let (first, last) = (dir_totals[0], *dir_totals.last().unwrap());
    let growth = last as f64 / first.max(1) as f64;
    let req_growth = *request_totals.last().unwrap() as f64 / request_totals[0].max(1) as f64;
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
    Ok(fig.finish()?)
}
