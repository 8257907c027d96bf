//! The workspace error taxonomy.
//!
//! One spine type, [`Wavm3Error`], replaces the ad-hoc `String` and
//! `Box<dyn Error>` plumbing of the experiment targets. The variants
//! are the failure classes a long campaign actually hits: invalid
//! configuration (caught at construction by the `validate()` family),
//! I/O annotated with the offending path, checkpoint corruption or
//! fingerprint drift, panicking scenarios, and model-training
//! shortfalls. The crate has no proc-macro dependency, so the `Display`
//! / `Error` impls are written out by hand in the same one-line-per-
//! variant style `thiserror` would generate.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Every way a WAVM3 campaign can fail, as one matchable enum.
#[derive(Debug)]
pub enum Wavm3Error {
    /// A configuration field failed `validate()`: NaN, non-finite,
    /// negative bandwidth, inverted interval, ...
    InvalidConfig {
        /// Dotted path of the rejected field (e.g. `faults.link.min_factor`).
        field: String,
        /// Why it was rejected, with the offending value.
        reason: String,
    },
    /// An I/O operation failed; `path` is what was being touched.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying OS error.
        source: io::Error,
    },
    /// A checkpoint file exists but cannot be trusted (bad magic, bad
    /// checksum, unparsable header or payload). It has been quarantined.
    CheckpointCorrupt {
        /// The quarantined file.
        path: PathBuf,
        /// What failed to verify.
        reason: String,
    },
    /// A checkpoint verifies but was written under a different runner /
    /// seed fingerprint, so replaying it would break determinism.
    CheckpointMismatch {
        /// The quarantined file.
        path: PathBuf,
        /// Fingerprint the current campaign expects.
        expected: String,
        /// Fingerprint found in the header.
        found: String,
    },
    /// (De)serialisation of a campaign artefact failed.
    Serde {
        /// What was being encoded or decoded.
        context: String,
        /// The serde error text.
        reason: String,
    },
    /// A scenario panicked under the supervisor.
    ScenarioPanicked {
        /// The isolation label (scenario id or similar).
        context: String,
        /// The captured panic message.
        message: String,
    },
    /// Model training could not proceed (too few readings/runs).
    Training {
        /// Which training stage starved.
        context: String,
    },
    /// A runtime input (not a config field) was rejected.
    InvalidInput {
        /// Where the input was rejected.
        context: String,
        /// Why.
        reason: String,
    },
    /// A result-level acceptance check failed (e.g. a paper ordering that
    /// must hold under every seed).
    CheckFailed {
        /// What was being checked and how it failed.
        context: String,
    },
    /// A request or operation blew through its deadline (serving-path
    /// taxonomy: the work may have been abandoned mid-flight).
    DeadlineExceeded {
        /// What was being served or computed.
        context: String,
        /// The deadline that was breached, in milliseconds.
        deadline_ms: u64,
    },
    /// Work was shed because a bounded queue or admission limit was full
    /// — the load-shedding path, distinct from a runtime failure: the
    /// caller should back off and retry.
    Overloaded {
        /// Which queue or limiter shed the work.
        context: String,
    },
}

impl Wavm3Error {
    /// An [`Wavm3Error::InvalidConfig`] with formatted parts.
    pub fn invalid_config(field: impl Into<String>, reason: impl fmt::Display) -> Self {
        Wavm3Error::InvalidConfig {
            field: field.into(),
            reason: reason.to_string(),
        }
    }

    /// An [`Wavm3Error::Io`] annotated with `path`.
    pub fn io_at(path: impl AsRef<Path>, source: io::Error) -> Self {
        Wavm3Error::Io {
            path: path.as_ref().to_path_buf(),
            source,
        }
    }

    /// An [`Wavm3Error::Training`] for `context`.
    pub fn training(context: impl Into<String>) -> Self {
        Wavm3Error::Training {
            context: context.into(),
        }
    }

    /// An [`Wavm3Error::InvalidInput`] with formatted parts.
    pub fn invalid_input(context: impl Into<String>, reason: impl fmt::Display) -> Self {
        Wavm3Error::InvalidInput {
            context: context.into(),
            reason: reason.to_string(),
        }
    }

    /// An [`Wavm3Error::CheckFailed`] for `context`.
    pub fn check_failed(context: impl Into<String>) -> Self {
        Wavm3Error::CheckFailed {
            context: context.into(),
        }
    }

    /// An [`Wavm3Error::DeadlineExceeded`] for `context`.
    pub fn deadline_exceeded(context: impl Into<String>, deadline_ms: u64) -> Self {
        Wavm3Error::DeadlineExceeded {
            context: context.into(),
            deadline_ms,
        }
    }

    /// An [`Wavm3Error::Overloaded`] for `context`.
    pub fn overloaded(context: impl Into<String>) -> Self {
        Wavm3Error::Overloaded {
            context: context.into(),
        }
    }

    /// An [`Wavm3Error::Serde`] with formatted parts.
    pub fn serde(context: impl Into<String>, reason: impl fmt::Display) -> Self {
        Wavm3Error::Serde {
            context: context.into(),
            reason: reason.to_string(),
        }
    }

    /// `true` for the configuration-rejection variants — the ones a CLI
    /// maps to a usage-style exit code instead of a runtime failure.
    pub fn is_config_error(&self) -> bool {
        matches!(
            self,
            Wavm3Error::InvalidConfig { .. } | Wavm3Error::InvalidInput { .. }
        )
    }
}

impl fmt::Display for Wavm3Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Wavm3Error::InvalidConfig { field, reason } => {
                write!(f, "invalid config: {field}: {reason}")
            }
            Wavm3Error::Io { path, source } => write!(f, "{}: {source}", path.display()),
            Wavm3Error::CheckpointCorrupt { path, reason } => {
                write!(f, "corrupt checkpoint {}: {reason}", path.display())
            }
            Wavm3Error::CheckpointMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "checkpoint fingerprint mismatch {}: expected {expected}, found {found}",
                path.display()
            ),
            Wavm3Error::Serde { context, reason } => write!(f, "{context}: {reason}"),
            Wavm3Error::ScenarioPanicked { context, message } => {
                write!(f, "scenario panicked: {context}: {message}")
            }
            Wavm3Error::Training { context } => {
                write!(f, "training failed: {context}: too few readings")
            }
            Wavm3Error::InvalidInput { context, reason } => write!(f, "{context}: {reason}"),
            Wavm3Error::CheckFailed { context } => write!(f, "check failed: {context}"),
            Wavm3Error::DeadlineExceeded {
                context,
                deadline_ms,
            } => write!(f, "deadline exceeded: {context}: {deadline_ms} ms"),
            Wavm3Error::Overloaded { context } => {
                write!(f, "overloaded: {context}: request shed, retry later")
            }
        }
    }
}

impl std::error::Error for Wavm3Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Wavm3Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<serde_json::Error> for Wavm3Error {
    fn from(e: serde_json::Error) -> Self {
        Wavm3Error::serde("serde_json", e)
    }
}

/// Validate that `value` is finite, returning an
/// [`Wavm3Error::InvalidConfig`] naming `field` otherwise.
pub fn ensure_finite(field: &str, value: f64) -> Result<(), Wavm3Error> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(Wavm3Error::invalid_config(
            field,
            format!("must be finite, got {value}"),
        ))
    }
}

/// Validate that `value` is a finite probability in `[0, 1]`.
pub fn ensure_probability(field: &str, value: f64) -> Result<(), Wavm3Error> {
    ensure_finite(field, value)?;
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(Wavm3Error::invalid_config(
            field,
            format!("probability must lie in [0, 1], got {value}"),
        ))
    }
}

/// Validate that `value` is finite and non-negative.
pub fn ensure_non_negative(field: &str, value: f64) -> Result<(), Wavm3Error> {
    ensure_finite(field, value)?;
    if value >= 0.0 {
        Ok(())
    } else {
        Err(Wavm3Error::invalid_config(
            field,
            format!("must be non-negative, got {value}"),
        ))
    }
}

/// Validate an ordered pair `lo <= hi` (inverted-interval rejection),
/// naming both fields in the error.
pub fn ensure_ordered<T: PartialOrd + fmt::Debug>(
    lo_field: &str,
    lo: T,
    hi_field: &str,
    hi: T,
) -> Result<(), Wavm3Error> {
    if lo <= hi {
        Ok(())
    } else {
        Err(Wavm3Error::invalid_config(
            lo_field,
            format!("must not exceed {hi_field} ({lo:?} > {hi:?})"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Wavm3Error::invalid_config("faults.link.min_factor", "must be finite, got NaN");
        assert_eq!(
            e.to_string(),
            "invalid config: faults.link.min_factor: must be finite, got NaN"
        );
        assert!(e.is_config_error());

        let e = Wavm3Error::io_at("/tmp/x", io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(e.to_string().contains("/tmp/x"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(!e.is_config_error());
    }

    #[test]
    fn serving_variants_classify_as_retryable_not_config() {
        let e = Wavm3Error::deadline_exceeded("serve./plan", 250);
        assert_eq!(e.to_string(), "deadline exceeded: serve./plan: 250 ms");
        assert!(!e.is_config_error());

        let e = Wavm3Error::overloaded("serve.admission_queue");
        assert!(e.to_string().contains("retry later"), "{e}");
        assert!(!e.is_config_error());
    }

    #[test]
    fn numeric_guards() {
        assert!(ensure_finite("f", 1.0).is_ok());
        assert!(ensure_finite("f", f64::NAN).is_err());
        assert!(ensure_finite("f", f64::INFINITY).is_err());
        assert!(ensure_probability("p", 0.5).is_ok());
        assert!(ensure_probability("p", -0.1).is_err());
        assert!(ensure_probability("p", 1.1).is_err());
        assert!(ensure_non_negative("n", 0.0).is_ok());
        assert!(ensure_non_negative("n", -1e-9).is_err());
        assert!(ensure_ordered("lo", 1.0, "hi", 2.0).is_ok());
        let err = ensure_ordered("lo", 3.0, "hi", 2.0).unwrap_err();
        assert!(err.to_string().contains("lo"), "{err}");
        assert!(err.to_string().contains("hi"), "{err}");
    }
}
