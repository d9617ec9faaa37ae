//! SIGTERM handling without a libc crate dependency.
//!
//! The workspace is air-gapped, so no signal-handling crate is
//! available; instead this module declares the one `signal(2)` symbol
//! that `std` already links and installs a handler that does the only
//! async-signal-safe thing possible: set a process-global atomic flag.
//! The daemon's accept and drain loops poll the flag. This is the one
//! `unsafe` block in the workspace, confined to this module and gated
//! to unix targets.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the SIGTERM handler; polled by the daemon loops.
static SIGTERM: AtomicBool = AtomicBool::new(false);

/// `SIGTERM` on every unix this workspace targets (POSIX fixes it).
#[cfg(unix)]
const SIGTERM_NUM: i32 = 15;

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use super::{SIGTERM, SIGTERM_NUM};
    use std::sync::atomic::Ordering;

    extern "C" {
        /// `signal(2)` from the platform libc `std` already links.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// The handler: only an atomic store, which is async-signal-safe.
    extern "C" fn on_sigterm(_signum: i32) {
        SIGTERM.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        // SAFETY: `signal` is the POSIX function with this exact
        // signature; the handler passed is an `extern "C" fn(i32)`
        // that performs a single lock-free atomic store.
        unsafe {
            signal(SIGTERM_NUM, on_sigterm as extern "C" fn(i32) as usize);
        }
    }
}

/// Installs the SIGTERM handler (idempotent). On non-unix targets this
/// is a no-op and shutdown happens via EOF or a `shutdown` request.
pub fn install_sigterm_handler() {
    #[cfg(unix)]
    imp::install();
}

/// Whether SIGTERM has been received.
pub fn sigterm_received() -> bool {
    SIGTERM.load(Ordering::SeqCst)
}

/// Sets or clears the shutdown flag by hand — what a `shutdown`
/// request does, and what tests use in place of a real signal.
pub fn set_shutdown(v: bool) {
    SIGTERM.store(v, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_roundtrip() {
        install_sigterm_handler();
        assert!(
            !sigterm_received() || {
                // Another test may have set it; normalize.
                set_shutdown(false);
                !sigterm_received()
            }
        );
        set_shutdown(true);
        assert!(sigterm_received());
        set_shutdown(false);
    }
}
