//! The paper's published numbers, transcribed for side-by-side reports.

/// Table 2: load-miss latencies in ns, rows (private, shared local clean,
/// shared remote clean, shared local dirty, shared remote dirty) for
/// 2/4/6 network stages.
pub const TABLE2: [(u16, [u64; 5]); 3] = [
    (16, [470, 610, 1690, 1900, 3120]),
    (128, [470, 610, 2210, 2480, 4170]),
    (1024, [470, 610, 2730, 3060, 5220]),
];

/// Figure 10 headline estimates at 1024 sharers on the full machine, ns.
pub const FIG10_MULTICAST_1024: u64 = 6_300;
/// Without the multicast/gather hardware.
pub const FIG10_SINGLECAST_1024: u64 = 184_000;

/// Figure 11(b): parallel efficiency of the dsm(2)-with-mapping programs
/// at the paper's node counts (BT/SP at 64 nodes, CG/FT at 128).
pub const FIG11B_DSM2_EFFICIENCY: [(&str, u16, f64); 4] = [
    ("BT", 64, 0.97),
    ("CG", 128, 0.20), // saturated; Fig. 12 shows ~26x at 128 nodes
    ("FT", 128, 0.81),
    ("SP", 64, 0.71),
];

/// Figure 11(b): rough efficiency of the naive dsm(1) programs — "only
/// about 20% on BT, CG and SP, and 40% on FT".
pub const FIG11B_DSM1_EFFICIENCY: [(&str, f64); 4] =
    [("BT", 0.20), ("CG", 0.20), ("FT", 0.40), ("SP", 0.20)];

/// Table 3 (per app at its node count): L2 miss ratio and the
/// private/local/remote breakdown of misses for dsm(1)/dsm(2), with and
/// without data mappings, in percent: (app, variant, mapped, miss ratio,
/// private, local, remote).
pub const TABLE3: [(&str, &str, bool, f64, f64, f64, f64); 16] = [
    ("BT", "dsm(1)", false, 1.49, 2.4, 1.7, 95.9),
    ("BT", "dsm(1)", true, 1.47, 2.2, 63.7, 34.1),
    ("BT", "dsm(2)", false, 0.84, 76.3, 0.6, 23.0),
    ("BT", "dsm(2)", true, 0.85, 76.1, 12.7, 11.2),
    ("CG", "dsm(1)", false, 1.48, 27.8, 0.6, 71.6),
    ("CG", "dsm(1)", true, 1.48, 26.7, 0.7, 72.6),
    ("CG", "dsm(2)", false, 1.48, 28.2, 0.6, 71.1),
    ("CG", "dsm(2)", true, 1.44, 25.9, 0.7, 73.4),
    ("FT", "dsm(1)", false, 0.84, 30.2, 0.6, 69.2),
    ("FT", "dsm(1)", true, 0.81, 30.8, 50.9, 18.3),
    ("FT", "dsm(2)", false, 0.69, 57.2, 0.4, 42.4),
    ("FT", "dsm(2)", true, 0.77, 59.2, 23.0, 17.9),
    ("SP", "dsm(1)", false, 1.77, 4.5, 1.5, 93.9),
    ("SP", "dsm(1)", true, 1.84, 4.3, 36.0, 59.7),
    ("SP", "dsm(2)", false, 1.04, 24.7, 1.9, 73.3),
    ("SP", "dsm(2)", true, 1.02, 24.5, 36.9, 38.6),
];

/// Table 4: per-app characteristics at the small and large node counts:
/// (app, nodes, sync %, miss ratio %, remote-miss % of misses).
pub const TABLE4: [(&str, u16, f64, f64, f64); 8] = [
    ("BT", 16, 3.84, 0.86, 5.59),
    ("BT", 64, 7.72, 0.82, 11.9),
    ("CG", 16, 7.04, 2.73, 9.31),
    ("CG", 128, 25.1, 2.39, 80.9),
    ("FT", 16, 1.67, 0.77, 15.4),
    ("FT", 128, 8.92, 0.79, 19.3),
    ("SP", 16, 5.42, 1.24, 19.4),
    ("SP", 64, 12.8, 1.03, 46.4),
];

/// Figure 12: speedups of the dsm(2)+mapping programs (digitized):
/// (app, nodes, speedup).
pub const FIG12: [(&str, u16, f64); 8] = [
    ("BT", 16, 15.2),
    ("BT", 64, 62.0),
    ("CG", 16, 10.0),
    ("CG", 128, 26.0),
    ("FT", 16, 14.0),
    ("FT", 128, 104.0),
    ("SP", 16, 13.5),
    ("SP", 64, 45.0),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_breakdowns_sum_to_100() {
        for (app, variant, mapped, _, private, local, remote) in TABLE3 {
            let sum = private + local + remote;
            assert!(
                (sum - 100.0).abs() < 1.0,
                "{app} {variant} mapped={mapped} sums to {sum}"
            );
        }
    }

    #[test]
    fn table2_has_three_stage_columns() {
        assert_eq!(TABLE2.len(), 3);
        for (_, row) in TABLE2 {
            assert!(row.windows(2).all(|w| w[0] <= w[1]), "rows are increasing");
        }
    }
}
