//! Structured logging: one process-wide verbosity level and four
//! macros, giving every binary the same `--quiet`/`--verbose` story.
//!
//! * [`info!`](crate::info) — result output (tables, summaries) on
//!   stdout; shown at [`Verbosity::Info`] and above.
//! * [`progress!`](crate::progress) — progress chatter on stderr;
//!   shown at [`Verbosity::Info`] and above.
//! * [`verbose!`](crate::verbose) — per-run detail on stdout; shown
//!   only at [`Verbosity::Verbose`].
//! * [`error!`](crate::error) — failures and usage errors on stderr;
//!   always shown, even under `--quiet`.
//!
//! The level is an `AtomicU8`: reading it never blocks, and because the
//! macros only gate *output*, the level cannot affect any computed
//! result — logging obeys the same inertness rule as the rest of the
//! telemetry layer.

use std::sync::atomic::{AtomicU8, Ordering};

/// How much the binaries print.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verbosity {
    /// Only errors (stderr).
    Quiet,
    /// Results and progress (the default).
    Info,
    /// Everything, including per-run detail.
    Verbose,
}

static LEVEL: AtomicU8 = AtomicU8::new(1);

/// Sets the process-wide verbosity.
fn set_level(level: Verbosity) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current process-wide verbosity.
fn level() -> Verbosity {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Verbosity::Quiet,
        2 => Verbosity::Verbose,
        _ => Verbosity::Info,
    }
}

/// Whether output at `at` should currently be shown.
pub fn enabled(at: Verbosity) -> bool {
    level() >= at
}

/// Applies the conventional `--quiet`/`--verbose` flags (quiet wins
/// when both are given) and returns the resulting level.
pub fn configure(quiet: bool, verbose: bool) -> Verbosity {
    let level = if quiet {
        Verbosity::Quiet
    } else if verbose {
        Verbosity::Verbose
    } else {
        Verbosity::Info
    };
    set_level(level);
    level
}

/// Prints a result line to stdout at [`Verbosity::Info`] and above.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Verbosity::Info) {
            println!($($arg)*);
        }
    };
}

/// Prints a progress line to stderr at [`Verbosity::Info`] and above.
#[macro_export]
macro_rules! progress {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Verbosity::Info) {
            eprintln!($($arg)*);
        }
    };
}

/// Prints a detail line to stdout at [`Verbosity::Verbose`] only.
#[macro_export]
macro_rules! verbose {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Verbosity::Verbose) {
            println!($($arg)*);
        }
    };
}

/// Prints an error line to stderr unconditionally.
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        eprintln!($($arg)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configure_resolves_flag_combinations() {
        assert_eq!(configure(false, false), Verbosity::Info);
        assert_eq!(level(), Verbosity::Info);
        assert_eq!(configure(false, true), Verbosity::Verbose);
        assert!(enabled(Verbosity::Verbose));
        assert_eq!(configure(true, true), Verbosity::Quiet);
        assert!(!enabled(Verbosity::Info));
        assert!(enabled(Verbosity::Quiet));
        // Restore the default for other tests in this process.
        set_level(Verbosity::Info);
    }
}
