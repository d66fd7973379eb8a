//! Hybrid-storage-system configuration.

use crate::device::DeviceSpec;

/// How device capacities are specified.
#[derive(Debug, Clone, PartialEq)]
pub enum CapacityMode {
    /// Per-device fraction of the workload's footprint (working-set size);
    /// `None` means unlimited. The paper restricts the fast device to 10 %
    /// of the working set (§3) and, for tri-HSS, H to 5 % and M to 10 %
    /// (§8.7).
    Fractions(Vec<Option<f64>>),
    /// Absolute per-device capacities in pages; `u64::MAX` means
    /// unlimited.
    Pages(Vec<u64>),
}

/// Configuration of a hybrid storage system: an ordered list of devices
/// (fastest first) plus capacity limits.
///
/// # Examples
///
/// ```
/// use sibyl_hss::{DeviceSpec, HssConfig};
/// // The paper's performance-oriented H&M configuration.
/// let hm = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
/// assert_eq!(hm.num_devices(), 2);
/// // The cost-oriented H&L configuration with 4 % fast capacity (Fig. 15).
/// let hl = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
///     .with_fast_capacity_fraction(0.04);
/// # let _ = hl;
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HssConfig {
    /// Devices ordered fastest → slowest.
    pub devices: Vec<DeviceSpec>,
    /// Capacity limits.
    pub capacity: CapacityMode,
}

impl HssConfig {
    /// Default fast-device capacity fraction (the paper's 10 % of the
    /// working-set size, §3).
    pub const DEFAULT_FAST_FRACTION: f64 = 0.10;

    /// A dual-device HSS with the paper's default capacity policy: fast
    /// limited to 10 % of the working set, slow unlimited.
    pub fn dual(fast: DeviceSpec, slow: DeviceSpec) -> Self {
        HssConfig {
            devices: vec![fast, slow],
            capacity: CapacityMode::Fractions(vec![Some(Self::DEFAULT_FAST_FRACTION), None]),
        }
    }

    /// A tri-device HSS with the paper's §8.7 capacities: H at 5 % and M
    /// at 10 % of the working set, L unlimited.
    pub fn tri(h: DeviceSpec, m: DeviceSpec, l: DeviceSpec) -> Self {
        HssConfig {
            devices: vec![h, m, l],
            capacity: CapacityMode::Fractions(vec![Some(0.05), Some(0.10), None]),
        }
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Sets the fastest device's capacity fraction, keeping other devices
    /// unchanged (Fig. 15 sweeps this from 0 % to 100 %).
    pub fn with_fast_capacity_fraction(mut self, fraction: f64) -> Self {
        match &mut self.capacity {
            CapacityMode::Fractions(f) => {
                if let Some(first) = f.first_mut() {
                    *first = Some(fraction);
                }
            }
            CapacityMode::Pages(_) => {
                let mut fr: Vec<Option<f64>> = vec![None; self.devices.len()];
                fr[0] = Some(fraction);
                self.capacity = CapacityMode::Fractions(fr);
            }
        }
        self
    }

    /// Sets absolute per-device capacities in pages.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from the device count.
    pub fn with_capacity_pages(mut self, pages: Vec<u64>) -> Self {
        assert_eq!(
            pages.len(),
            self.devices.len(),
            "with_capacity_pages: one capacity per device required"
        );
        self.capacity = CapacityMode::Pages(pages);
        self
    }

    /// Removes all capacity limits (used for the Fast-Only baseline, where
    /// all data fits in the fast device by definition).
    pub fn with_unlimited_capacities(mut self) -> Self {
        self.capacity = CapacityMode::Pages(vec![u64::MAX; self.devices.len()]);
        self
    }

    /// Resolves capacity fractions against a workload footprint, producing
    /// a config in absolute-pages mode (what [`crate::StorageManager::new`]
    /// requires).
    pub fn resolved(&self, footprint_pages: u64) -> HssConfig {
        let pages = match &self.capacity {
            CapacityMode::Pages(p) => p.clone(),
            CapacityMode::Fractions(fr) => fr
                .iter()
                .map(|f| match f {
                    None => u64::MAX,
                    Some(frac) => (footprint_pages as f64 * frac).round() as u64,
                })
                .collect(),
        };
        HssConfig {
            devices: self.devices.clone(),
            capacity: CapacityMode::Pages(pages),
        }
    }

    /// The resolved per-device capacities.
    ///
    /// # Panics
    ///
    /// Panics if the config is still in fraction mode — call
    /// [`HssConfig::resolved`] first.
    pub fn capacity_pages(&self) -> &[u64] {
        match &self.capacity {
            CapacityMode::Pages(p) => p,
            CapacityMode::Fractions(_) => {
                panic!("HssConfig::capacity_pages: capacities not resolved; call resolved(footprint) first")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_defaults_to_ten_percent_fast() {
        let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd());
        let resolved = cfg.resolved(1_000);
        assert_eq!(resolved.capacity_pages(), &[100, u64::MAX]);
    }

    #[test]
    fn tri_uses_five_and_ten_percent() {
        let cfg = HssConfig::tri(
            DeviceSpec::optane_ssd(),
            DeviceSpec::tlc_ssd(),
            DeviceSpec::hdd(),
        );
        let resolved = cfg.resolved(2_000);
        assert_eq!(resolved.capacity_pages(), &[100, 200, u64::MAX]);
    }

    #[test]
    fn fraction_override_applies_to_fast_only() {
        let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
            .with_fast_capacity_fraction(0.5);
        let resolved = cfg.resolved(100);
        assert_eq!(resolved.capacity_pages(), &[50, u64::MAX]);
    }

    #[test]
    fn unlimited_for_fast_only_baseline() {
        let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
            .with_unlimited_capacities();
        let resolved = cfg.resolved(100);
        assert_eq!(resolved.capacity_pages(), &[u64::MAX, u64::MAX]);
    }

    #[test]
    #[should_panic(expected = "not resolved")]
    fn unresolved_capacity_pages_panics() {
        let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd());
        let _ = cfg.capacity_pages();
    }

    #[test]
    #[should_panic(expected = "one capacity per device")]
    fn capacity_length_validated() {
        let _ = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
            .with_capacity_pages(vec![1]);
    }
}
