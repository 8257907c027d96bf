//! # wavm3-workloads — CPU- and memory-intensive workload generators
//!
//! The paper stresses its testbed with two purpose-built programs:
//!
//! * **matrixmult** — an OpenMP C matrix multiplication that pegs every
//!   vCPU of the VMs running it (the CPU-intensive load of the CPULOAD
//!   experiment family);
//! * **pagedirtier** — an ANSI C program continuously writing memory pages
//!   in random order (the memory-intensive load of the MEMLOAD family).
//!
//! This crate provides both **real executable kernels** (a rayon-parallel
//! blocked matmul and a genuine page-dirtying buffer walker, which the
//! `calibrate` example runs to calibrate utilisation shapes) and
//! **simulation processes** implementing the [`Workload`] trait consumed by
//! the migration simulator: a CPU-demand function and a page-dirtying rate
//! function of simulation time. Each process states its demand as a
//! constant, a ripple or a general curve ([`WorkloadProfile`]); a recorded
//! trace replays through [`TraceWorkload`].
//!
//! ## Example
//!
//! ```
//! use wavm3_simkit::SimTime;
//! use wavm3_workloads::{MatMulWorkload, PageDirtierWorkload, Workload};
//!
//! let cpu = MatMulWorkload::full(4);
//! assert!((cpu.cpu_demand(SimTime::from_secs(3)) - 4.0).abs() < 0.1);
//!
//! let mem = PageDirtierWorkload::with_ratio(0.95);
//! assert_eq!(mem.working_set_fraction(), 0.95);
//! assert!(mem.page_write_rate(SimTime::ZERO) > 100_000.0);
//! ```

pub mod kernels;
pub mod matmul;
pub mod network;
pub mod pagedirtier;
pub mod workload;

pub use matmul::MatMulWorkload;
pub use network::{MixedWorkload, NetworkWorkload};
pub use pagedirtier::PageDirtierWorkload;
pub use workload::{DemandProfile, IdleWorkload, TraceWorkload, Workload, WorkloadProfile};
