//! The sequential baseline every speedup divides. `runner::sequential_time`
//! sums the `Variant::Seq` program's step costs without an engine; it must
//! equal the time a `Driver` takes to run that program on a 2-node machine,
//! and that shortcut holds only because the program never reaches another
//! node.

use cenju4_sim::prelude::*;
use cenju4_workloads::{runner, AppKind, KernelProgram, Variant};

/// Serve-mix's fresh-key sizes, the figures' small scales and their
/// default one.
const SCALES: [f64; 8] = [0.02, 0.035, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0];

#[test]
fn sequential_time_equals_the_driven_seq_run() {
    for app in AppKind::ALL {
        for scale in SCALES {
            let driven = runner::run_workload(app, Variant::Seq, true, 2, scale).unwrap();
            assert_eq!(
                runner::sequential_time(app, scale).unwrap(),
                driven.total_time().as_ns(),
                "{app} at scale {scale}"
            );
        }
    }
}

#[test]
fn seq_programs_run_only_think_and_private_steps() {
    let cfg = SystemConfig::builder(2).build().unwrap();
    for app in AppKind::ALL {
        for scale in SCALES {
            let mut prog = KernelProgram::build(app, Variant::Seq, true, &cfg, scale);
            let mut steps = 0u64;
            while let Some(step) = prog.next_step(NodeId::new(0)) {
                steps += 1;
                assert!(
                    matches!(
                        step,
                        Step::Think(_)
                            | Step::Access {
                                target: Target::PrivateHit | Target::PrivateMiss,
                                ..
                            }
                    ),
                    "{app} at scale {scale}: step {steps} is {step:?}"
                );
            }
            assert!(steps > 0, "{app} at scale {scale}: node 0 runs nothing");
            assert_eq!(prog.next_step(NodeId::new(1)), None, "{app}: node 1 runs");
        }
    }
}
