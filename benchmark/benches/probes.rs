//! Host probes (`/proc` parsers) and the small numeric helpers the
//! harness shares: order statistics and the modeled-state fingerprint.
//!
//! Every probe returns `Option`: where `/proc` is missing a host metric is
//! reported as absent, never as 0 — a 0 would read as a perfect score.

use std::process::Command;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// supported architecture (the kernel ABI fixes it independently of the
/// kernel's own `HZ`); without libc there is no `sysconf` to ask.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The second field (`comm`) is the executable name in parentheses and may
/// itself hold spaces and parentheses, so the fixed-position fields are
/// counted from the *last* `)`: after it come `state` (index 0) … `utime`
/// (index 11) and `stime` (index 12).
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    utime.checked_add(stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_status_vmhwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_ascii_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// CPU seconds (user + system, all threads, exited ones included) this
/// process has consumed so far.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    Some(parse_stat_cpu_ticks(&stat)? as f64 / TICKS_PER_SECOND)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_vmhwm_kib(&status)? as f64 / 1024.0)
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// `rustc -V` of the toolchain on `PATH` (the one that built the harness
/// when it is run through `cargo run`).
pub fn rustc_version() -> Option<String> {
    let out = Command::new("rustc").arg("-V").output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The `p`-th percentile (0–100) of an ascending slice by the
/// nearest-rank rule; `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of the values (mean of the two middle ones for an even count);
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Geometric mean of positive values (NaN for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// FNV-1a (64-bit) over a sequence of words: the run's modeled state
/// folded into one number, so "did any decision change?" is one compare.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Floats enter by bit pattern: the modeled clock is deterministic to
    /// the last bit, and the fingerprint holds it to that.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The low 32 bits — exactly representable as a JSON number.
    pub fn low32(self) -> u32 {
        self.0 as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat_line(comm: &str) -> String {
        format!(
            "4242 ({comm}) S 1 4242 4242 0 -1 4194560 1500 0 3 0 \
             731 269 0 0 20 0 3 0 1000 12345678 2000 18446744073709551615 \
             1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
        )
    }

    #[test]
    fn stat_parser_survives_hostile_comm() {
        for comm in [
            "sibyl_benchmark",
            "a b c",
            "x) S 1 2 3 4 5 6 7 8 9 10 11 999 999 (y",
            "((((",
            "))))",
            ") R 0 0 0 0 0 0 0 0 0 0 0 1 1",
            "",
        ] {
            assert_eq!(
                parse_stat_cpu_ticks(&stat_line(comm)),
                Some(1000),
                "comm = {comm:?}"
            );
        }
    }

    #[test]
    fn stat_parser_rejects_truncated_or_garbled_input() {
        assert_eq!(parse_stat_cpu_ticks(""), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2 3"), None);
        let garbled = stat_line("x").replace(" 731 ", " seven ");
        assert_eq!(parse_stat_cpu_ticks(&garbled), None);
    }

    #[test]
    fn vmhwm_parser_reads_the_field_and_its_unit() {
        let status = "Name:\tVmHWM: 7 kB\nVmPeak:\t  900 kB\nVmHWM:\t    5124 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(parse_status_vmhwm_kib(status), Some(5124));
        assert_eq!(parse_status_vmhwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_status_vmhwm_kib("VmHWM:\n"), None);
        assert_eq!(parse_status_vmhwm_kib("VmRSS:\t 10 kB\n"), None);
    }

    #[test]
    fn live_probes_agree_with_the_parsers_when_proc_exists() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(cpu_seconds().is_some());
            assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        } else {
            assert_eq!(cpu_seconds(), None);
            assert_eq!(peak_rss_mib(), None);
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn fingerprint_matches_fnv1a_reference_and_separates_inputs() {
        // FNV-1a of eight zero bytes.
        let mut f = Fingerprint::new();
        f.word(0);
        let mut reference = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..8 {
            reference = reference.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(f.low32(), reference as u32);

        let mut a = Fingerprint::new();
        a.float(1.0);
        a.word(2);
        let mut b = Fingerprint::new();
        b.word(2);
        b.float(1.0);
        assert_ne!(a.low32(), b.low32(), "order matters");
        let mut c = Fingerprint::new();
        c.float(-0.0);
        let mut d = Fingerprint::new();
        d.float(0.0);
        assert_ne!(c.low32(), d.low32(), "floats enter by bit pattern");
    }
}
