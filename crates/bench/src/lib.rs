//! Benchmark harness for the paper's evaluation: shared helpers used by
//! the `*_report` binaries that regenerate each figure and table.
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `fig7_report` bin | Figure 7: states explored vs. delay bound |
//! | `bug_bound_report` bin | §5: bugs found within delay bound 2 |
//! | `fig8_report` bin | Figure 8: USB machines exploration table |
//! | `efficiency_report` bin | §4.1: P driver vs. handwritten driver |
//! | `ablation_report` bin | §5: atomicity reduction ablation |
//! | `liveness_report` bin | §3.2 liveness checks (extension) |

#![warn(missing_docs)]

pub mod baseline;
pub mod figures;
