//! # wavm3-simkit — deterministic simulation kernel
//!
//! Foundation crate for the WAVM3 reproduction: simulation time, periodic
//! sampling grids, reproducible random-number streams, and sampled
//! time-series containers.
//!
//! Everything in this crate is deliberately *deterministic*: two runs with
//! the same seeds produce bit-identical results regardless of host platform
//! or thread count (parallelism in the workspace only ever happens across
//! independent simulations).
//!
//! ## Example
//!
//! ```
//! use wavm3_simkit::{PeriodicSchedule, SimTime, TimeSeries};
//!
//! // A 2 Hz power meter reading a constant 100 W for 10 s.
//! let meter = PeriodicSchedule::two_hz();
//! let mut watts = TimeSeries::new();
//! for n in 0..=20 {
//!     watts.push(meter.instant(n), 100.0);
//! }
//! assert_eq!(watts.end(), Some(SimTime::from_secs(10)));
//! assert!((watts.integrate() - 1_000.0).abs() < 1e-9); // joules
//! ```

pub mod interval;
pub mod periodic;
pub mod probe;
pub mod rng;
pub mod series;
pub mod time;

pub use interval::Interval;
pub use periodic::PeriodicSchedule;
pub use rng::{CounterRng, RngFactory, StreamRng};
pub use series::TimeSeries;
pub use time::{SimDuration, SimTime};
