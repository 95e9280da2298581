//! Contention models for shared, bandwidth-limited resources.
//!
//! Two models are provided:
//!
//! * [`BandwidthResource`] — a serially-occupied resource (an AES engine, a
//!   DMA engine, a PCIe direction): each transfer occupies the resource for
//!   `bytes / bandwidth`, and requests queue behind one another.
//! * [`ThroughputPipe`] — a fluid-flow approximation used when several
//!   logical streams share a link and we only need aggregate completion
//!   times (used by the end-to-end scheduler for DRAM bandwidth shares).

use crate::clock::Time;

/// A serially-occupied resource with a fixed byte bandwidth and an optional
/// fixed per-request latency (e.g. AES pipeline fill, PCIe packet setup).
///
/// # Example
///
/// ```
/// use tee_sim::{BandwidthResource, Time};
///
/// // 8 GB/s AES engine.
/// let mut aes = BandwidthResource::new(8.0e9, Time::from_ns(40));
/// let grant = aes.acquire(Time::ZERO, 64);
/// assert_eq!(grant.start, Time::ZERO);
/// // 64 B at 8 GB/s = 8 ns occupancy + 40 ns latency on delivery.
/// assert_eq!(grant.done.as_ns_f64().round(), 48.0);
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthResource {
    bytes_per_sec: f64,
    fixed_latency: Time,
    busy_until: Time,
    total_bytes: u64,
    total_busy: Time,
}

/// The interval granted to one request on a [`BandwidthResource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When the resource began serving this request.
    pub start: Time,
    /// When the resource becomes free again (occupancy end).
    pub free: Time,
    /// When the request's data is fully delivered (occupancy + latency).
    pub done: Time,
}

impl BandwidthResource {
    /// Creates a resource with the given bandwidth (bytes/second) and fixed
    /// per-request latency.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive and finite.
    pub fn new(bytes_per_sec: f64, fixed_latency: Time) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "invalid bandwidth: {bytes_per_sec}"
        );
        BandwidthResource {
            bytes_per_sec,
            fixed_latency,
            busy_until: Time::ZERO,
            total_bytes: 0,
            total_busy: Time::ZERO,
        }
    }

    /// The configured bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Time at which the resource next becomes idle.
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Total bytes served so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total busy time accumulated (for utilization reports).
    pub fn total_busy(&self) -> Time {
        self.total_busy
    }

    /// Pure function: how long `bytes` occupy this resource.
    pub fn occupancy(&self, bytes: u64) -> Time {
        Time::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }

    /// Requests service for `bytes` starting no earlier than `at`.
    ///
    /// The request waits until the resource is free, occupies it for
    /// `bytes / bandwidth`, and completes `fixed_latency` later.
    pub fn acquire(&mut self, at: Time, bytes: u64) -> Grant {
        let start = at.max(self.busy_until);
        let occ = self.occupancy(bytes);
        let free = start + occ;
        self.busy_until = free;
        self.total_bytes += bytes;
        self.total_busy += occ;
        Grant {
            start,
            free,
            done: free + self.fixed_latency,
        }
    }

    /// Resets the busy horizon and accumulated statistics.
    pub fn reset(&mut self) {
        self.busy_until = Time::ZERO;
        self.total_bytes = 0;
        self.total_busy = Time::ZERO;
    }

    /// Utilization over `[Time::ZERO, horizon]` as a fraction in `[0, 1]`.
    pub fn utilization(&self, horizon: Time) -> f64 {
        if horizon == Time::ZERO {
            return 0.0;
        }
        (self.total_busy.as_ps() as f64 / horizon.as_ps() as f64).min(1.0)
    }
}

/// Fluid-flow model of a shared link: `n` concurrent streams each receive
/// `bandwidth / n`. Suitable for coarse aggregate scheduling where
/// per-request queueing detail is unnecessary.
///
/// # Example
///
/// ```
/// use tee_sim::ThroughputPipe;
///
/// let pipe = ThroughputPipe::new(128.0e9); // GDDR5: 128 GB/s
/// // Two equal streams finish in twice the solo time.
/// let solo = pipe.transfer_time(1 << 30, 1);
/// let shared = pipe.transfer_time(1 << 30, 2);
/// assert!((shared.as_secs_f64() / solo.as_secs_f64() - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ThroughputPipe {
    bytes_per_sec: f64,
}

impl ThroughputPipe {
    /// Creates a pipe with the given aggregate bandwidth (bytes/second).
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive and finite.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "invalid bandwidth: {bytes_per_sec}"
        );
        ThroughputPipe { bytes_per_sec }
    }

    /// Aggregate bandwidth in bytes/second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Time to move `bytes` when the link is split `sharers` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sharers` is zero.
    pub fn transfer_time(&self, bytes: u64, sharers: u32) -> Time {
        assert!(sharers > 0, "a transfer needs at least one stream");
        Time::from_secs_f64(bytes as f64 * sharers as f64 / self.bytes_per_sec)
    }

    /// Effective bandwidth seen by one of `sharers` streams.
    pub fn share(&self, sharers: u32) -> f64 {
        assert!(sharers > 0, "a share needs at least one stream");
        self.bytes_per_sec / sharers as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_queue_fifo() {
        let mut r = BandwidthResource::new(1.0e9, Time::ZERO); // 1 GB/s => 1 ns/byte
        let a = r.acquire(Time::ZERO, 100);
        let b = r.acquire(Time::ZERO, 100);
        assert_eq!(a.start, Time::ZERO);
        assert_eq!(a.free, Time::from_ns(100));
        assert_eq!(b.start, Time::from_ns(100));
        assert_eq!(b.free, Time::from_ns(200));
    }

    #[test]
    fn idle_gap_is_respected() {
        let mut r = BandwidthResource::new(1.0e9, Time::ZERO);
        r.acquire(Time::ZERO, 10);
        let late = r.acquire(Time::from_us(1), 10);
        assert_eq!(late.start, Time::from_us(1));
    }

    #[test]
    fn fixed_latency_added_to_done_not_free() {
        let mut r = BandwidthResource::new(1.0e9, Time::from_ns(40));
        let g = r.acquire(Time::ZERO, 10);
        assert_eq!(g.free, Time::from_ns(10));
        assert_eq!(g.done, Time::from_ns(50));
    }

    #[test]
    fn utilization_accumulates() {
        let mut r = BandwidthResource::new(1.0e9, Time::ZERO);
        r.acquire(Time::ZERO, 500);
        assert!((r.utilization(Time::from_us(1)) - 0.5).abs() < 1e-9);
        assert_eq!(r.total_bytes(), 500);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = BandwidthResource::new(1.0e9, Time::ZERO);
        r.acquire(Time::ZERO, 500);
        r.reset();
        assert_eq!(r.busy_until(), Time::ZERO);
        assert_eq!(r.total_bytes(), 0);
    }

    #[test]
    fn pipe_share_scales() {
        let p = ThroughputPipe::new(100.0);
        assert_eq!(p.share(1), 100.0);
        assert_eq!(p.share(4), 25.0);
    }

    #[test]
    #[should_panic]
    fn pipe_zero_sharers_panics() {
        ThroughputPipe::new(1.0).transfer_time(1, 0);
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_panics() {
        let _ = BandwidthResource::new(0.0, Time::ZERO);
    }
}
