//! Memory variants of the High-Scaling benchmarks.
//!
//! §II-C: "up to four reference variants of the respective workload are
//! prepared, taking up 25 % (tiny, T), 50 % (small, S), 75 % (medium, M),
//! and 100 % (large, L) of the available GPU memory on the preparation
//! system (40 GB), respectively. The system proposal may choose the variant
//! that best exploits the available memory on the proposed accelerator
//! after scale-up."

use std::fmt;

/// The T/S/M/L memory variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemoryVariant {
    /// 25 % of device memory.
    Tiny,
    /// 50 % of device memory.
    Small,
    /// 75 % of device memory.
    Medium,
    /// 100 % of device memory.
    Large,
}

impl MemoryVariant {
    /// All variants, smallest first.
    pub const ALL: [MemoryVariant; 4] = [
        MemoryVariant::Tiny,
        MemoryVariant::Small,
        MemoryVariant::Medium,
        MemoryVariant::Large,
    ];

    /// Fraction of the available device memory this variant occupies.
    pub fn memory_fraction(self) -> f64 {
        match self {
            MemoryVariant::Tiny => 0.25,
            MemoryVariant::Small => 0.50,
            MemoryVariant::Medium => 0.75,
            MemoryVariant::Large => 1.00,
        }
    }

    /// Bytes of device memory this variant targets given the per-device
    /// capacity (40 GB on the preparation system JUWELS Booster).
    pub fn target_bytes(self, device_memory_bytes: u64) -> u64 {
        (device_memory_bytes as f64 * self.memory_fraction()).round() as u64
    }

    /// One-letter tag used in the paper (e.g. `642^{T,S,M,L}` in Table II).
    pub fn tag(self) -> char {
        match self {
            MemoryVariant::Tiny => 'T',
            MemoryVariant::Small => 'S',
            MemoryVariant::Medium => 'M',
            MemoryVariant::Large => 'L',
        }
    }

    /// Pick the largest offered variant whose *scaled-up* workload still
    /// fits into the memory of a proposed accelerator. This mirrors the
    /// proposal-side freedom of §II-C: the reference workload occupies
    /// `fraction × 40 GB` per device on the preparation system; after a
    /// `scale_up` enlargement of the partition, the per-device share is
    /// multiplied by `reference_devices / proposed_devices × scale_up`.
    pub fn best_fit(
        offered: &[MemoryVariant],
        reference_device_bytes: u64,
        proposed_device_bytes: u64,
    ) -> Option<MemoryVariant> {
        let mut best = None;
        for &v in offered {
            if v.target_bytes(reference_device_bytes) <= proposed_device_bytes {
                best = Some(match best {
                    Some(b) if b >= v => b,
                    _ => v,
                });
            }
        }
        best
    }
}

impl fmt::Display for MemoryVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MemoryVariant::Tiny => "tiny",
            MemoryVariant::Small => "small",
            MemoryVariant::Medium => "medium",
            MemoryVariant::Large => "large",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB40: u64 = 40 * (1 << 30);

    #[test]
    fn fractions_match_paper() {
        assert_eq!(MemoryVariant::Tiny.memory_fraction(), 0.25);
        assert_eq!(MemoryVariant::Small.memory_fraction(), 0.50);
        assert_eq!(MemoryVariant::Medium.memory_fraction(), 0.75);
        assert_eq!(MemoryVariant::Large.memory_fraction(), 1.00);
    }

    #[test]
    fn target_bytes_on_a100() {
        assert_eq!(MemoryVariant::Large.target_bytes(GIB40), GIB40);
        assert_eq!(MemoryVariant::Tiny.target_bytes(GIB40), GIB40 / 4);
    }

    #[test]
    fn variants_are_ordered_small_to_large() {
        assert!(MemoryVariant::Tiny < MemoryVariant::Small);
        assert!(MemoryVariant::Small < MemoryVariant::Medium);
        assert!(MemoryVariant::Medium < MemoryVariant::Large);
    }

    #[test]
    fn best_fit_picks_largest_that_fits() {
        // Proposed accelerator with 30 GB: 75 % of 40 GB = 30 GB fits, L does not.
        let offered = MemoryVariant::ALL;
        let got = MemoryVariant::best_fit(&offered, GIB40, 30 * (1 << 30));
        assert_eq!(got, Some(MemoryVariant::Medium));
    }

    #[test]
    fn best_fit_none_when_nothing_fits() {
        let offered = [MemoryVariant::Large];
        assert_eq!(MemoryVariant::best_fit(&offered, GIB40, 1 << 30), None);
    }

    #[test]
    fn best_fit_respects_offered_subset() {
        // JUQCS offers only S and L; a 96 GB accelerator takes L.
        let offered = [MemoryVariant::Small, MemoryVariant::Large];
        let got = MemoryVariant::best_fit(&offered, GIB40, 96 * (1 << 30));
        assert_eq!(got, Some(MemoryVariant::Large));
    }
}
