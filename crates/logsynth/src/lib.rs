//! Calibrated synthetic stand-ins for the paper's production logs.
//!
//! The paper's raw material is six production traces from the Parallel
//! Workloads Archive (NASA Ames iPSC/860, SDSC Paragon, CTC SP2, KTH SP2,
//! LANL CM-5, LLNL Cray T3D). Those traces are not redistributable in this
//! environment, so this crate builds the closest synthetic equivalent: for
//! every observation the paper analyzes, a generator calibrated so that
//!
//! * every **Table 1 / Table 2 characteristic** (medians and 90% intervals
//!   of runtime, parallelism, CPU work and inter-arrival time; loads;
//!   user/executable densities; completion rates; machine metadata ranks)
//!   matches the published value, and
//! * the four per-job series carry the **Table 3 Hurst signatures**, via
//!   fractional-Gaussian-noise-driven quantile transforms (an fGn path with
//!   the target `H` is mapped through the attribute's marginal quantile
//!   function, which preserves both the marginal calibration and the
//!   long-range dependence).
//!
//! Co-plot consumes exactly the derived characteristics, and the
//! self-similarity analysis consumes exactly the serial structure, so
//! analyses over these stand-ins reproduce the paper's geometry (up to the
//! rotation/reflection freedom inherent in MDS). See DESIGN.md §4 for the
//! substitution rationale and EXPERIMENTS.md for the measured-vs-paper
//! tables.
//!
//! Module map: [`calibrate`] solves marginal parameters from published
//! medians/intervals; [`stream`] generates one job class with LRD;
//! [`machines`] assembles the ten Table 1 observations; [`periods`]
//! assembles the Table 2 six-month sub-logs (including LANL's wild second
//! year).

pub mod calibrate;
pub mod machines;
pub mod periods;
pub mod stream;

pub use machines::{machine_observations, production_workloads, production_workloads_par, MachineId};
pub use periods::{lanl_over_time, sdsc_over_time};
pub use stream::{HurstTargets, StreamSpec};
