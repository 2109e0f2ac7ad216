//! Structured errors for the fallible analysis entry points.
//!
//! [`try_analyze`](crate::try_analyze) reports *why* a kernel cannot be
//! costed instead of panicking, so batch drivers (the sweep engine, the
//! CLI, CI corpus runs) can skip or report bad inputs without dying.

use loop_ir::dsl::ParseError;
use loop_ir::validate::ValidateError;
use std::fmt;

/// Why an analysis request was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The kernel failed structural validation (bad subscripts, empty
    /// body, rank mismatches, …).
    Validation(ValidateError),
    /// DSL source did not parse.
    Parse(ParseError),
    /// The kernel's schedule (or requested team) cannot be modeled: zero
    /// chunk, non-constant parallel bounds, or a zero-thread team.
    UnsupportedSchedule { reason: String },
    /// The machine description is unusable (zero line size, no cores, no
    /// cache levels, non-positive frequency).
    MachineConfig { reason: String },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Validation(e) => write!(f, "kernel validation failed: {e}"),
            AnalysisError::Parse(e) => write!(f, "kernel source failed to parse: {e}"),
            AnalysisError::UnsupportedSchedule { reason } => {
                write!(f, "unsupported schedule: {reason}")
            }
            AnalysisError::MachineConfig { reason } => {
                write!(f, "invalid machine configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Validation(e) => Some(e),
            AnalysisError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidateError> for AnalysisError {
    /// Schedule-shaped validation failures become
    /// [`AnalysisError::UnsupportedSchedule`]; everything else is a
    /// structural [`AnalysisError::Validation`].
    fn from(e: ValidateError) -> Self {
        match e {
            ValidateError::ZeroChunk | ValidateError::NonConstParallelBounds => {
                AnalysisError::UnsupportedSchedule {
                    reason: e.to_string(),
                }
            }
            other => AnalysisError::Validation(other),
        }
    }
}

impl From<ParseError> for AnalysisError {
    fn from(e: ParseError) -> Self {
        AnalysisError::Parse(e)
    }
}

/// Reject machine descriptions the cost model cannot price.
pub(crate) fn check_machine(m: &machine::MachineConfig) -> Result<(), AnalysisError> {
    let reject = |reason: &str| {
        Err(AnalysisError::MachineConfig {
            reason: reason.to_string(),
        })
    };
    if m.caches.line_size == 0 {
        return reject("cache line size is 0");
    }
    if m.caches.levels.is_empty() {
        return reject("cache hierarchy has no levels");
    }
    if m.num_cores == 0 {
        return reject("machine has 0 cores");
    }
    if !m.freq_ghz.is_finite() || m.freq_ghz <= 0.0 {
        return reject("clock frequency must be positive");
    }
    Ok(())
}

/// Reject teams larger than the FS model can price
/// ([`cost_model::MAX_MODEL_THREADS`]).
pub(crate) fn check_team_size(threads: u32) -> Result<(), AnalysisError> {
    if threads > cost_model::MAX_MODEL_THREADS {
        return Err(AnalysisError::Validation(ValidateError::TeamTooLarge {
            requested: threads,
            max: cost_model::MAX_MODEL_THREADS,
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_validate_errors_map_to_unsupported_schedule() {
        let e: AnalysisError = ValidateError::ZeroChunk.into();
        assert!(matches!(e, AnalysisError::UnsupportedSchedule { .. }));
        let e: AnalysisError = ValidateError::NonConstParallelBounds.into();
        assert!(matches!(e, AnalysisError::UnsupportedSchedule { .. }));
    }

    #[test]
    fn structural_validate_errors_stay_validation() {
        let e: AnalysisError = ValidateError::NoLoops.into();
        assert!(matches!(e, AnalysisError::Validation(_)));
        assert!(e.to_string().contains("no loops"));
    }

    #[test]
    fn machine_checks_cover_each_field() {
        let mut m = machine::presets::tiny_test();
        assert!(check_machine(&m).is_ok());
        m.caches.line_size = 0;
        assert!(matches!(
            check_machine(&m),
            Err(AnalysisError::MachineConfig { .. })
        ));
        let mut m = machine::presets::tiny_test();
        m.num_cores = 0;
        assert!(check_machine(&m).is_err());
        let mut m = machine::presets::tiny_test();
        m.freq_ghz = 0.0;
        assert!(check_machine(&m).is_err());
        let mut m = machine::presets::tiny_test();
        m.caches.levels.clear();
        assert!(check_machine(&m).is_err());
    }

    #[test]
    fn display_and_source_are_wired() {
        let e: AnalysisError = ValidateError::EmptyBody.into();
        assert!(std::error::Error::source(&e).is_some());
        let e = AnalysisError::MachineConfig { reason: "x".into() };
        assert!(std::error::Error::source(&e).is_none());
        assert!(e.to_string().contains("machine"));
    }
}
