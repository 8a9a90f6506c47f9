use std::fmt;

/// Errors from SVM training.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SvmError {
    /// The training inputs were inconsistent or empty.
    InvalidInput(String),
    /// A hyperparameter was out of its valid range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
        /// Human-readable constraint, e.g. `"must be in (0, 1]"`.
        constraint: &'static str,
    },
    /// Training needed both classes but only one was present.
    SingleClass,
    /// The SMO loop hit its iteration cap before reaching the KKT
    /// tolerance (the returned model may still be usable; tighten
    /// parameters or raise the cap).
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Final KKT violation gap.
        gap: f64,
    },
}

impl fmt::Display for SvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvmError::InvalidInput(msg) => write!(f, "invalid training input: {msg}"),
            SvmError::InvalidParameter { name, value, constraint } => {
                write!(f, "parameter {name} = {value} {constraint}")
            }
            SvmError::SingleClass => {
                write!(f, "classification training requires both classes to be present")
            }
            SvmError::NoConvergence { iterations, gap } => {
                write!(f, "SMO did not converge after {iterations} iterations (gap {gap:.3e})")
            }
        }
    }
}

impl std::error::Error for SvmError {}

/// Checks a hyperparameter that must be positive (NaN is rejected).
pub(crate) fn check_positive(name: &'static str, value: f64) -> Result<(), SvmError> {
    if value > 0.0 {
        Ok(())
    } else {
        Err(SvmError::InvalidParameter { name, value, constraint: "must be positive" })
    }
}
