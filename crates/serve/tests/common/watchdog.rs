//! A deadline for tests of blocking code: a queue or barrier deadlock
//! should fail the test, not hang CI.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

/// How long any one watched test body may take. Two orders of magnitude
/// above what they need; a deadlock takes forever.
pub const TIMEOUT: Duration = Duration::from_secs(60);

/// Runs `body` on its own thread and returns its result, panicking if it
/// has not finished within [`TIMEOUT`] (the stuck thread is abandoned)
/// and re-raising its panic if it panicked.
pub fn within_timeout<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = channel();
    let worker = std::thread::spawn(move || {
        let _ = done.send(body());
    });
    match result.recv_timeout(TIMEOUT) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => {
            panic!("watchdog: still blocked after {TIMEOUT:?} — deadlock?")
        }
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the worker hung up without sending or panicking"),
        },
    }
}
