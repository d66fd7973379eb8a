//! Figure 8: effect of the experience-buffer size on Sibyl's average
//! request latency (normalized to Fast-Only) in the H&M configuration.
//! The paper observes saturation at 1000 entries.

use sibyl_bench::{hm_config, seed, trace_len, Cell, Figure};
use sibyl_core::SibylConfig;
use sibyl_sim::PolicyKind;
use sibyl_trace::msrc::{self, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = trace_len(25_000);
    let mut fig = Figure::new(
        "fig08_buffer_size",
        "Figure 8",
        "Sibyl normalized latency vs experience-buffer size (H&M)",
        n,
    );
    let traces = [Workload::Rsrch0, Workload::Prxy1].map(|wl| msrc::generate(wl, n, seed()));
    let points = [1usize, 10, 100, 1_000, 10_000].map(|buffer_capacity| {
        let config = SibylConfig {
            buffer_capacity,
            ..Default::default()
        };
        let sibyl = vec![PolicyKind::sibyl_with(config)];
        (buffer_capacity.to_string(), hm_config(), sibyl)
    });
    // One column per workload: each trace is a group of its own.
    let headers = ["buffer size", traces[0].name(), traces[1].name()];
    let groups = [&traces[..1], &traces[1..]];
    fig.sweep("buffer_size", &headers, &points, &groups, Cell::NormLatency)?;
    println!("(The paper selects 1000 entries, where performance saturates.)");
    Ok(fig.finish()?)
}
