//! The benchmark's span recorder: std-only, in memory, written out once
//! when the run ends.
//!
//! Every span is recorded by benchmark code around a call into one of the
//! workspace's layers (the crates are not instrumented). A span carries
//! its layer, its name, start and end times, its parent span (the span
//! open on the same thread when it began) and the operation it belongs
//! to: one id per command call, output check or daemon request.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// The operation this span belongs to, 0 outside any operation (the
    /// daemon's worker threads).
    pub op: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static OPS: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// An open span; records itself when dropped.
pub struct Guard {
    open: Option<Span>,
}

/// Opens a span in `layer` named `name` (a no-op while recording is off).
pub fn span(layer: &'static str, name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Guard {
        open: Some(Span {
            id,
            parent,
            op: CURRENT_OP.with(Cell::get),
            layer,
            name,
            start_ns: now_ns(),
            end_ns: 0,
        }),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut span) = self.open.take() {
            span.end_ns = now_ns();
            STACK.with(|s| s.borrow_mut().pop());
            if let Ok(mut spans) = SPANS.lock() {
                spans.push(span);
            }
        }
    }
}

/// Runs `f` as one operation labelled `label` (for example
/// `stream.frame.detect`): a fresh operation id, and a root span in the
/// `bench` layer named after the operation's stage.
pub fn op<R>(label: String, stage: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    OPS.lock().expect("op registry lock").push((id, label));
    let outer = CURRENT_OP.with(|c| c.replace(id));
    let result = {
        let _root = span("bench", stage);
        f()
    };
    CURRENT_OP.with(|c| c.set(outer));
    result
}

/// Takes every recorded span and the operation labels.
pub fn take() -> (Vec<Span>, Vec<(u64, String)>) {
    let spans = std::mem::take(&mut *SPANS.lock().expect("span lock"));
    let ops = std::mem::take(&mut *OPS.lock().expect("op registry lock"));
    (spans, ops)
}

/// Self time of every span: its duration minus the durations of its
/// children (children run on the span's own thread, one after another).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<f64> = spans.iter().map(Span::duration_s).collect();
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            own[p] -= s.duration_s();
        }
    }
    own
}
