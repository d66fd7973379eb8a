//! An insert-only set of logical page numbers, and the hash it probes
//! with.

use std::ops::RangeInclusive;

/// The splitmix64 finalizer: a cheap, stateless, avalanching hash of a
/// 64-bit key. [`PageSet`], the storage model's page-directory index and
/// the serving engine's region router all hash with it.
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Pages per region: one bitmap word.
const REGION_BITS: u32 = 6;

/// One aligned 64-page region and which of its pages are in the set. A
/// slot with no page set is free, so no key value is reserved.
#[derive(Debug, Clone, Copy, Default)]
struct Region {
    key: u64,
    pages: u64,
}

/// A set of logical page numbers that only ever grows and is only ever
/// counted — what a footprint pass needs (how many distinct pages does
/// this stream touch?) without a hash probe per page. Requests cover
/// runs of consecutive pages, so the set keeps a 64-page bitmap per
/// aligned region in an open-addressing table ([`mix64`] of the region
/// number, linear probing, doubling at 7/8 load): a request costs one
/// probe per region it overlaps — one or two — and 16 bytes per *region*
/// touched. There is no iteration, so no
/// order for a result to depend on.
///
/// ```
/// let mut pages = sibyl_trace::PageSet::default();
/// pages.insert(60..=70);
/// pages.insert(64..=64);
/// assert_eq!(pages.len(), 11);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageSet {
    slots: Vec<Region>,
    regions: usize,
    len: u64,
}

impl PageSet {
    /// Adds every page of `pages` (nothing for an empty range).
    pub fn insert(&mut self, pages: RangeInclusive<u64>) {
        let (first, last) = (*pages.start(), *pages.end());
        if first > last {
            return;
        }
        for region in first >> REGION_BITS..=last >> REGION_BITS {
            let base = region << REGION_BITS;
            let (lo, hi) = (first.max(base) - base, last.min(base + 63) - base);
            self.insert_in(region, (u64::MAX >> (63 - (hi - lo))) << lo);
        }
    }

    /// Number of distinct pages inserted.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds the pages of `region` selected by the non-zero `mask`.
    fn insert_in(&mut self, region: u64, mask: u64) {
        if (self.regions + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let slot = Self::slot_of(&self.slots, region);
        let held = &mut self.slots[slot];
        self.regions += usize::from(held.pages == 0);
        self.len += u64::from((mask & !held.pages).count_ones());
        *held = Region {
            key: region,
            pages: held.pages | mask,
        };
    }

    /// The slot holding `region`, or the free one it would take; `slots`
    /// has a free slot and a power-of-two length.
    fn slot_of(slots: &[Region], region: u64) -> usize {
        let mask = slots.len() - 1;
        let mut slot = mix64(region) as usize & mask;
        while slots[slot].pages != 0 && slots[slot].key != region {
            slot = (slot + 1) & mask;
        }
        slot
    }

    fn grow(&mut self) {
        let mut fresh = vec![Region::default(); (self.slots.len() * 2).max(64)];
        for held in self.slots.iter().filter(|held| held.pages != 0) {
            let slot = Self::slot_of(&fresh, held.key);
            fresh[slot] = *held;
        }
        self.slots = fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn the_ends_of_the_address_space_are_pages_like_any_other() {
        let mut set = PageSet::default();
        assert!(set.is_empty());
        set.insert(u64::MAX - 2..=u64::MAX);
        set.insert(u64::MAX..=u64::MAX);
        set.insert(0..=0);
        #[allow(clippy::reversed_empty_ranges)]
        set.insert(5..=4);
        assert_eq!(set.len(), 4);
    }

    proptest! {
        #[test]
        fn counts_what_a_sorted_dedup_counts(
            runs in proptest::collection::vec((0u64..3_000, 0u64..150), 0..160),
            stride in 1u64..1 << 40,
        ) {
            // Runs that overlap, straddle region boundaries and (by the
            // stride) scatter over enough regions for several growths.
            let mut set = PageSet::default();
            let mut pages = Vec::new();
            for &(start, extra) in &runs {
                let first = start * stride;
                set.insert(first..=first + extra);
                pages.extend(first..=first + extra);
            }
            pages.sort_unstable();
            pages.dedup();
            prop_assert_eq!(set.len(), pages.len() as u64);
            for &(start, extra) in &runs {
                set.insert(start * stride..=start * stride + extra);
            }
            prop_assert_eq!(set.len(), pages.len() as u64);
        }
    }
}
