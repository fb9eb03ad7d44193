//! In-memory spans for the traced run.
//!
//! A span covers one call into a layer — a submit, an operator
//! invocation, a live slate read — and carries the root event it belongs
//! to, so spans of one event line up. Spans go to a per-thread buffer
//! (one uncontended lock per span) and are collected and written out when
//! the run ends. With tracing off, recording is one relaxed load.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// One recorded call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Which layer boundary: [`SUBMIT`], [`READ`], or `OP_BASE + op`.
    pub kind: u16,
    /// Root event index.
    pub root: u64,
    /// Start on the shared clock (ns).
    pub start_ns: u64,
    /// End on the shared clock (ns).
    pub end_ns: u64,
}

/// A `submit`/`submit_many` call; the root is the (first) event's index.
pub const SUBMIT: u16 = 0;
/// A `read_slate` call; the root is the item the read followed.
pub const READ: u16 = 1;
/// Operator `op` of the workload records kind `OP_BASE + op`.
pub const OP_BASE: u16 = 2;

type Buffer = Arc<Mutex<Vec<Span>>>;

static ENABLED: AtomicBool = AtomicBool::new(false);
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Buffer = {
        let buf: Buffer = Arc::new(Mutex::new(Vec::new()));
        BUFFERS.lock().expect("span registry poisoned").push(Arc::clone(&buf));
        buf
    };
}

/// Turn span recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True while spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Record a span if tracing is on.
pub fn record(kind: u16, root: u64, start_ns: u64, end_ns: u64) {
    if enabled() {
        LOCAL.with(|buf| {
            buf.lock().expect("span buffer poisoned").push(Span { kind, root, start_ns, end_ns })
        });
    }
}

/// Drain every thread's spans, ordered by start time.
pub fn take_all() -> Vec<Span> {
    let mut out = Vec::new();
    for buf in BUFFERS.lock().expect("span registry poisoned").iter() {
        out.append(&mut buf.lock().expect("span buffer poisoned"));
    }
    out.sort_by_key(|s| (s.start_ns, s.kind));
    out
}

/// Write spans as CSV (`kind,root,start_ns,end_ns`, kinds named by
/// `kind_name`) to `path`.
pub fn write_csv(
    path: &std::path::Path,
    spans: &[Span],
    kind_name: impl Fn(u16) -> String,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "kind,root,start_ns,end_ns")?;
    for s in spans {
        writeln!(out, "{},{},{},{}", kind_name(s.kind), s.root, s.start_ns, s.end_ns)?;
    }
    out.flush()
}

/// Mean duration (µs) and count of the spans of one kind whose root
/// passes `keep`.
pub fn mean_us(spans: &[Span], kind: u16, keep: impl Fn(u64) -> bool) -> (f64, usize) {
    let (sum, n) = spans
        .iter()
        .filter(|s| s.kind == kind && keep(s.root))
        .fold((0u64, 0usize), |(sum, n), s| (sum + (s.end_ns - s.start_ns), n + 1));
    (crate::stats::ratio(sum as f64 / 1e3, n as f64), n)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test owns the global switch, so parallel tests cannot race it.
    #[test]
    fn spans_from_every_thread_are_collected_only_while_enabled() {
        record(SUBMIT, 1, 0, 10);
        set_enabled(true);
        record(SUBMIT, 2, 5, 15);
        std::thread::spawn(|| record(OP_BASE, 2, 7, 9)).join().unwrap();
        set_enabled(false);
        record(READ, 3, 20, 30);
        let spans = take_all();
        assert_eq!(
            spans,
            [
                Span { kind: SUBMIT, root: 2, start_ns: 5, end_ns: 15 },
                Span { kind: OP_BASE, root: 2, start_ns: 7, end_ns: 9 },
            ]
        );
        assert_eq!(mean_us(&spans, SUBMIT, |_| true), (0.01, 1));
        assert_eq!(mean_us(&spans, SUBMIT, |root| root != 2), (0.0, 0));
        assert!(take_all().is_empty(), "take_all drains");
    }
}
