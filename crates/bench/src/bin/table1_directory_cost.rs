//! Regenerates **Table 1**: scalability of directory schemes in hardware
//! cost and access cost, derived from the quantitative cost model.
//!
//! Run with: `cargo run --release -p cenju4-bench --bin table1_directory_cost`

use cenju4::directory::cost::{table1, SchemeCost};
use cenju4_check::outln;

fn main() {
    cenju4_bench::FigArgs::from_env(None, false);
    outln!("Table 1: characteristics of directory schemes");
    outln!("(o = scalable, x = not scalable; derived from the cost model)\n");
    outln!("{:<30} {:>14} {:>12}", "", "hardware cost", "access cost");
    for row in table1() {
        outln!(
            "{:<30} {:>14} {:>12}",
            row.scheme.name(),
            row.hardware.to_string(),
            row.access.to_string()
        );
    }

    outln!("\nunderlying quantities:");
    outln!(
        "{:<30} {:>12} {:>12} {:>22}",
        "",
        "bits @16",
        "bits @1024",
        "accesses @1024 sharers"
    );
    for s in SchemeCost::ALL {
        outln!(
            "{:<30} {:>12} {:>12} {:>22}",
            s.name(),
            s.storage_bits_per_block(16),
            s.storage_bits_per_block(1024),
            s.accesses_to_enumerate(1024, 1024)
        );
    }
}
