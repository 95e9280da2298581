//! Memory-access trace records.
//!
//! Kernels (Adam update, tiled GEMM, NPU DMA) produce streams of
//! [`MemAccess`] records; memory hierarchies and TEE engines consume them.
//! Keeping the record format here lets the CPU and NPU crates exchange
//! traces without depending on each other.

use crate::clock::Time;
use std::fmt;

/// The direction/type of one memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data load.
    Read,
    /// Data store (write-back granularity).
    Write,
    /// Instruction fetch — TensorTEE keeps these on the non-delayed
    /// verification path (§4.3).
    InstFetch,
}

impl AccessKind {
    /// Whether this access modifies memory.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }

    /// Whether this is a code fetch.
    pub fn is_inst(self) -> bool {
        matches!(self, AccessKind::InstFetch)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::Read => "R",
            AccessKind::Write => "W",
            AccessKind::InstFetch => "I",
        };
        f.write_str(s)
    }
}

/// One memory request as issued by a core/DMA engine.
///
/// Addresses are *virtual* — the paper's TenAnalyzer observes the core's VA
/// stream precisely because physical contiguity is broken by paging
/// (Figure 9). Translation to physical addresses happens inside `tee-mem`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Virtual byte address (cacheline-aligned by producers).
    pub vaddr: u64,
    /// Request type.
    pub kind: AccessKind,
    /// Issuing hardware thread (CPU core or NPU DMA queue id).
    pub thread: u32,
}

impl MemAccess {
    /// Convenience constructor for a data read.
    pub fn read(vaddr: u64, thread: u32) -> Self {
        MemAccess {
            vaddr,
            kind: AccessKind::Read,
            thread,
        }
    }

    /// Convenience constructor for a data write.
    pub fn write(vaddr: u64, thread: u32) -> Self {
        MemAccess {
            vaddr,
            kind: AccessKind::Write,
            thread,
        }
    }

    /// Convenience constructor for an instruction fetch.
    pub fn inst(vaddr: u64, thread: u32) -> Self {
        MemAccess {
            vaddr,
            kind: AccessKind::InstFetch,
            thread,
        }
    }

    /// The address of the cacheline containing this access.
    pub fn line_addr(&self, line_bytes: u64) -> u64 {
        debug_assert!(line_bytes.is_power_of_two());
        self.vaddr & !(line_bytes - 1)
    }
}

/// A timestamped trace event, for recorded replays and debugging dumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the request was issued.
    pub at: Time,
    /// The request itself.
    pub access: MemAccess,
}

/// An in-memory recording of a request stream.
///
/// # Example
///
/// ```
/// use tee_sim::trace::{MemAccess, TraceLog};
/// use tee_sim::Time;
///
/// let mut log = TraceLog::new();
/// log.push(Time::ZERO, MemAccess::read(0x1000, 0));
/// log.push(Time::from_ns(2), MemAccess::write(0x1040, 0));
/// assert_eq!(log.len(), 2);
/// assert_eq!(log.reads(), 1);
/// assert_eq!(log.writes(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, at: Time, access: MemAccess) {
        self.events.push(TraceEvent { at, access });
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates events in record order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Count of read events.
    pub fn reads(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| e.access.kind == AccessKind::Read)
            .count() as u64
    }

    /// Count of write events.
    pub fn writes(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| e.access.kind == AccessKind::Write)
            .count() as u64
    }

    /// Clears the log.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl FromIterator<TraceEvent> for TraceLog {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        TraceLog {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceEvent> for TraceLog {
    fn extend<I: IntoIterator<Item = TraceEvent>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_addr_masks_offset() {
        let a = MemAccess::read(0x1234, 0);
        assert_eq!(a.line_addr(64), 0x1200);
        assert_eq!(MemAccess::read(0x1240, 0).line_addr(64), 0x1240);
    }

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::InstFetch.is_inst());
        assert_eq!(AccessKind::Read.to_string(), "R");
    }

    #[test]
    fn log_counts() {
        let mut log = TraceLog::new();
        for i in 0..10u64 {
            let a = if i % 2 == 0 {
                MemAccess::read(i * 64, 0)
            } else {
                MemAccess::write(i * 64, 0)
            };
            log.push(Time::from_ns(i), a);
        }
        assert_eq!(log.reads(), 5);
        assert_eq!(log.writes(), 5);
        assert_eq!(log.len(), 10);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn log_collects_from_iterator() {
        let log: TraceLog = (0..3)
            .map(|i| TraceEvent {
                at: Time::from_ns(i),
                access: MemAccess::read(i * 64, 0),
            })
            .collect();
        assert_eq!(log.len(), 3);
    }
}
