//! The cost model behind Table 1 of the paper: hardware-cost and
//! access-cost scalability of directory schemes.
//!
//! Table 1 rates six schemes on two axes:
//!
//! * **hardware cost** — does per-block directory storage stay bounded as
//!   the machine grows?
//! * **access cost** — can the home enumerate *all* nodes caching a block
//!   with a bounded number of directory accesses (so that invalidation
//!   fan-out can start immediately), or does it have to walk pointer
//!   chains / take software traps?
//!
//! The ratings here are *derived* from quantitative functions
//! ([`SchemeCost::storage_bits_per_block`] and
//! [`SchemeCost::accesses_to_enumerate`]) rather than hard-coded, so the
//! table-1 harness actually recomputes the paper's verdicts.

use core::fmt;

/// Pointer width needed to name one node of an `n`-node machine.
fn ptr_bits(n: u32) -> u32 {
    32 - (n.max(2) - 1).leading_zeros()
}

/// The schemes of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeCost {
    /// Censier & Feautrier full map: N bits per block.
    FullMap,
    /// SCI-style chained directory through the caches.
    Chained,
    /// LimitLESS: limited pointers + software-handled overflow.
    LimitLess,
    /// Simoni & Horowitz dynamic pointer allocation.
    DynamicPointer,
    /// SGI Origin: full map up to 32 nodes, coarse vector beyond.
    Origin,
    /// Cenju-4: pointers + bit pattern.
    Cenju4,
}

/// A scalability verdict, matching the paper's ○ / × marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Scales (the paper's ○).
    Scalable,
    /// Does not scale (the paper's ×).
    NotScalable,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Scalable => "o",
            Verdict::NotScalable => "x",
        })
    }
}

impl SchemeCost {
    /// Every scheme in the order Table 1 lists them.
    pub const ALL: [SchemeCost; 6] = [
        SchemeCost::FullMap,
        SchemeCost::Chained,
        SchemeCost::LimitLess,
        SchemeCost::DynamicPointer,
        SchemeCost::Origin,
        SchemeCost::Cenju4,
    ];

    /// The scheme's display name, as in Table 1.
    pub fn name(self) -> &'static str {
        match self {
            SchemeCost::FullMap => "Full Map",
            SchemeCost::Chained => "Chained",
            SchemeCost::LimitLess => "LimitLESS",
            SchemeCost::DynamicPointer => "Dynamic Pointer",
            SchemeCost::Origin => "Origin (FullMap+Coarse)",
            SchemeCost::Cenju4 => "Cenju-4 (Pointer+BitPattern)",
        }
    }

    /// Directory storage per memory block, in bits, for an `n`-node
    /// machine. For chained/dynamic-pointer schemes this counts the
    /// *home-side* entry (the per-cache chain storage scales with caches,
    /// not blocks).
    pub fn storage_bits_per_block(self, n: u32) -> u32 {
        match self {
            SchemeCost::FullMap => n,
            // State + the chain's head pointer, or the list's head.
            SchemeCost::Chained | SchemeCost::DynamicPointer => 2 + ptr_bits(n),
            SchemeCost::LimitLess => 2 + 4 * ptr_bits(n), // state + 4 pointers
            SchemeCost::Origin => 2 + 32,                 // state + 32-bit vector
            SchemeCost::Cenju4 => 64,                     // the packed entry
        }
    }

    /// The number of sequential directory/memory accesses the home needs
    /// before it knows *every* node to invalidate, when `sharers` nodes
    /// cache the block on an `n`-node machine.
    pub fn accesses_to_enumerate(self, n: u32, sharers: u32) -> u32 {
        match self {
            // O(n) bits read through a 64-bit directory memory.
            SchemeCost::FullMap => n.div_ceil(64),
            // Walk the chain (one round trip per cache) or the pointer
            // list (one access per element).
            SchemeCost::Chained | SchemeCost::DynamicPointer => sharers.max(1),
            // Four pointers in hardware; beyond that, software traps.
            SchemeCost::LimitLess => 1 + sharers.saturating_sub(4),
            // A vector, or the Cenju-4 pointers or bit pattern: one access.
            SchemeCost::Origin | SchemeCost::Cenju4 => 1,
        }
    }

    /// The hardware-cost verdict: scalable iff storage stays bounded
    /// while the machine grows 64× (16 → 1024).
    pub fn hardware_verdict(self) -> Verdict {
        let small = self.storage_bits_per_block(16);
        let large = self.storage_bits_per_block(1024);
        // Allow the pointer width to grow a few bits; reject linear growth.
        if large <= small + 24 {
            Verdict::Scalable
        } else {
            Verdict::NotScalable
        }
    }

    /// The access-cost verdict: scalable iff enumerating a fully shared
    /// block takes O(1) accesses.
    pub fn access_verdict(self) -> Verdict {
        if self.accesses_to_enumerate(1024, 1024) <= 2 {
            Verdict::Scalable
        } else {
            Verdict::NotScalable
        }
    }
}

/// One row of the regenerated Table 1.
#[derive(Clone, Copy, Debug)]
pub struct Table1Row {
    /// Which scheme.
    pub scheme: SchemeCost,
    /// Hardware-cost verdict.
    pub hardware: Verdict,
    /// Access-cost verdict.
    pub access: Verdict,
}

/// Regenerates Table 1.
pub fn table1() -> Vec<Table1Row> {
    SchemeCost::ALL
        .iter()
        .map(|&scheme| Table1Row {
            scheme,
            hardware: scheme.hardware_verdict(),
            access: scheme.access_verdict(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_table1() {
        use SchemeCost::*;
        use Verdict::*;
        let expect = [
            (FullMap, NotScalable, NotScalable),
            (Chained, Scalable, NotScalable),
            (LimitLess, Scalable, NotScalable),
            (DynamicPointer, Scalable, NotScalable),
            (Origin, Scalable, Scalable),
            (Cenju4, Scalable, Scalable),
        ];
        let rows = table1();
        assert_eq!(rows.len(), expect.len());
        for (row, (scheme, hw, ac)) in rows.iter().zip(expect) {
            assert_eq!(row.scheme, scheme);
            assert_eq!(row.hardware, hw, "{} hardware", scheme.name());
            assert_eq!(row.access, ac, "{} access", scheme.name());
        }
    }

    #[test]
    fn full_map_storage_grows_linearly() {
        assert_eq!(SchemeCost::FullMap.storage_bits_per_block(64), 64);
        assert_eq!(SchemeCost::FullMap.storage_bits_per_block(1024), 1024);
    }

    #[test]
    fn cenju4_storage_constant() {
        for n in [16u32, 128, 1024] {
            assert_eq!(SchemeCost::Cenju4.storage_bits_per_block(n), 64);
        }
    }

    #[test]
    fn chained_enumeration_walks_sharers() {
        assert_eq!(SchemeCost::Chained.accesses_to_enumerate(1024, 100), 100);
        assert_eq!(SchemeCost::Cenju4.accesses_to_enumerate(1024, 100), 1);
    }

    #[test]
    fn limitless_traps_beyond_four_pointers() {
        assert_eq!(SchemeCost::LimitLess.accesses_to_enumerate(1024, 4), 1);
        assert_eq!(SchemeCost::LimitLess.accesses_to_enumerate(1024, 10), 7);
        assert_eq!(SchemeCost::LimitLess.storage_bits_per_block(1024), 42);
        assert_eq!(SchemeCost::Origin.storage_bits_per_block(1024), 34);
    }

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::Scalable.to_string(), "o");
        assert_eq!(Verdict::NotScalable.to_string(), "x");
    }
}
