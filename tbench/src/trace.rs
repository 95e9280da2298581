//! Host-time spans around every call the benchmark makes into a layer.
//!
//! Tracing is off unless [`enable`] is called; a disabled [`enter`] costs
//! one relaxed atomic load. Enabled spans are kept in memory (one global
//! list, locked once per span end — ops take milliseconds, so the lock is
//! never contended in practice) and exported at the end as Chrome
//! trace-event JSON. Each span records its parent on the same thread, so
//! a layer's *self* time is its duration minus the time its child spans
//! cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The benchmark's own layer: op wrappers, checks, digests, generation.
pub const BENCH: &str = "bench";

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Enclosing span on the same thread (0 = root).
    pub parent: u64,
    /// Layer (crate) the call enters: `cpu`, `npu`, …, or [`BENCH`].
    pub layer: &'static str,
    /// Call or artifact name.
    pub name: &'static str,
    /// Small per-thread id.
    pub tid: u32,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on or off for every thread.
pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether span recording is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped (also while unwinding, so a
/// panicking op still leaves a well-nested trace).
pub struct Guard {
    id: u64,
    parent: u64,
    layer: &'static str,
    name: &'static str,
    start: Instant,
}

/// Opens a span on `layer` named `name`; `None` when tracing is off.
#[must_use = "the span closes when the guard drops"]
pub fn enter(layer: &'static str, name: &'static str) -> Option<Guard> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Some(Guard {
        id,
        parent,
        layer,
        name,
        start: Instant::now(),
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = Instant::now();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let base = epoch();
        let span = Span {
            id: self.id,
            parent: self.parent,
            layer: self.layer,
            name: self.name,
            tid: TID.with(|t| *t),
            start_ns: self.start.duration_since(base).as_nanos() as u64,
            end_ns: end.duration_since(base).as_nanos() as u64,
        };
        // A poisoned list only means another thread panicked mid-push;
        // every push leaves the list valid, so keep recording.
        SPANS
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .push(span);
    }
}

/// Runs `f` inside a span (a no-op wrapper when tracing is off).
pub fn span<R>(layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
    let _guard = enter(layer, name);
    f()
}

/// Removes and returns every recorded span, ordered by start time.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().unwrap_or_else(|poison| poison.into_inner()));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    spans
        .iter()
        .map(|s| {
            s.dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// Sum of self time per layer, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_default() += own;
    }
    out
}

/// The spans as Chrome trace-event JSON (complete `X` events, µs).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.layer,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(id: u64, parent: u64, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "x",
            tid: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span_at(1, 0, BENCH, 0, 100),
            span_at(2, 1, "cpu", 10, 70),
            span_at(3, 2, "npu", 20, 30),
            span_at(4, 1, "comm", 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 10, 20]);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(
            by_layer.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
        assert_eq!(by_layer["cpu"], 50);
    }

    #[test]
    fn chrome_export_is_well_formed() {
        let json = chrome_json(&[span_at(1, 0, "cpu", 0, 1500)]);
        assert!(tensortee::json::is_well_formed(json.trim()));
        assert!(json.contains("\"dur\":1.500"));
    }
}
