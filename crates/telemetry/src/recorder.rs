//! Recorders: where trace events go.
//!
//! The simulator engine holds a [`TraceSink`], a two-state enum whose
//! disabled arm costs one predictable branch per hook and whose enabled
//! arm records through a [`ChunkedRecorder`]: a small cache-hot chunk
//! flushed in batches into a [`FlightRecorder`] ring.

use crate::event::TraceEvent;

/// A fixed-capacity ring buffer of trace events: the flight recorder.
///
/// Once full, the newest event overwrites the oldest — a crash or a
/// surprising result always leaves the *last* `capacity` events, which is
/// what post-mortem debugging wants. Recording never allocates after the
/// ring is full.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: Vec<TraceEvent>,
    cap: usize,
    next: usize,
    total: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (min 1).
    ///
    /// The full ring is reserved up front: on demand-paged systems the
    /// reservation is address space until written, and pre-sizing keeps
    /// doubling-growth memcpys out of recorded (timed) runs.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        FlightRecorder { buf: Vec::with_capacity(cap), cap, next: 0, total: 0 }
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// The held events in chronological (recording) order.
    pub fn events(&self) -> Vec<TraceEvent> {
        if self.buf.len() < self.cap {
            self.buf.clone()
        } else {
            // `next` points at the oldest surviving event.
            let mut out = Vec::with_capacity(self.buf.len());
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }

    /// Takes the held events in chronological (recording) order, leaving
    /// the recorder empty. Unlike [`FlightRecorder::events`] this moves
    /// the buffer out instead of cloning it — the capture path uses it so
    /// ending a traced run costs at most one in-place rotation, not a
    /// ring-sized copy.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        let mut out = std::mem::take(&mut self.buf);
        if out.len() == self.cap {
            // `next` points at the oldest surviving event once wrapped.
            out.rotate_left(self.next);
        }
        self.next = 0;
        self.total = 0;
        out
    }

    /// Records one event, overwriting the oldest once the ring is full.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        self.total += 1;
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
        }
        self.next += 1;
        if self.next == self.cap {
            self.next = 0;
        }
    }

    /// Records a batch of events with bulk slice copies. The resulting
    /// recorder state (`buf`, `next`, `total`) is *identical* to calling
    /// [`FlightRecorder::record`] once per event — the batch-equivalence unit
    /// test pins this — so chunked recording cannot change artifacts.
    pub fn record_batch(&mut self, events: &[TraceEvent]) {
        self.total += events.len() as u64;
        let mut src = events;
        if self.buf.len() < self.cap {
            // Fill phase: `next == buf.len()` here (the ring has never
            // wrapped while the buffer is below capacity).
            let take = src.len().min(self.cap - self.buf.len());
            self.buf.extend_from_slice(&src[..take]);
            self.next = (self.next + take) % self.cap;
            src = &src[take..];
            if src.is_empty() {
                return;
            }
        }
        // Wrap phase: the buffer is at capacity. A batch longer than the
        // ring leaves only its last `cap` events, with `next` advanced by
        // the full batch length modulo `cap` — exactly what per-event
        // recording would do.
        let skip = src.len().saturating_sub(self.cap);
        let start = (self.next + skip) % self.cap;
        let src = &src[skip..];
        let first = (self.cap - start).min(src.len());
        self.buf[start..start + first].copy_from_slice(&src[..first]);
        self.buf[..src.len() - first].copy_from_slice(&src[first..]);
        self.next = (start + src.len()) % self.cap;
    }
}

/// Events per chunk of a [`ChunkedRecorder`]: 2048 × 32-byte events =
/// 64 KiB, the top of the 4–64 KiB window that stays resident in L1/L2
/// while amortizing the flush into the (potentially tens-of-MiB) ring.
pub const CHUNK_EVENTS: usize = 2048;

/// A double-buffered flight recorder: the record() fast path is a bump
/// write into a small cache-hot chunk; full chunks are flushed into the
/// backing [`FlightRecorder`] ring with bulk copies
/// ([`FlightRecorder::record_batch`]).
///
/// Per event this removes the ring's total-counter update, wrap branch
/// and cold-cache ring write; artifacts are unchanged because the flush
/// is state-equivalent to per-event recording.
#[derive(Debug, Clone)]
pub struct ChunkedRecorder {
    ring: FlightRecorder,
    chunk: Vec<TraceEvent>,
}

impl ChunkedRecorder {
    /// A recorder whose backing ring holds at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        let chunk = Vec::with_capacity(CHUNK_EVENTS.min(capacity.max(1)));
        ChunkedRecorder { ring: FlightRecorder::new(capacity), chunk }
    }

    /// The backing ring's capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn total_recorded(&self) -> u64 {
        self.ring.total_recorded() + self.chunk.len() as u64
    }

    /// Records one event: a bump write into the active chunk, which is
    /// flushed into the ring when full.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        // The chunk was created with its full capacity, so the push below
        // never reallocates: `record` is a bounds check and a bump write.
        if self.chunk.len() == self.chunk.capacity() {
            self.flush();
        }
        self.chunk.push(ev);
    }

    /// Flushes the active chunk into the backing ring.
    pub fn flush(&mut self) {
        self.ring.record_batch(&self.chunk);
        self.chunk.clear();
    }

    /// The held events in chronological order (flushes first).
    pub fn events(&mut self) -> Vec<TraceEvent> {
        self.flush();
        self.ring.events()
    }

    /// Takes the held events in chronological order (flushes first),
    /// leaving the recorder empty without copying the ring.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        self.flush();
        self.ring.take_events()
    }
}

/// The engine-facing sink: off, or recording through a [`ChunkedRecorder`].
///
/// Every hook goes through
/// [`TraceSink::emit_with`], which takes a closure so the disabled case
/// skips event construction entirely — the cost is one load and one
/// predictable branch.
#[derive(Debug, Default)]
pub enum TraceSink {
    /// Recording disabled (the default).
    #[default]
    Off,
    /// Recording through a chunk-flushed ring.
    Chunked(ChunkedRecorder),
}

impl TraceSink {
    /// A sink recording through a fresh chunk-flushed ring of `capacity`
    /// events — what the engine enables for live tracing.
    pub fn chunked(capacity: usize) -> Self {
        TraceSink::Chunked(ChunkedRecorder::new(capacity))
    }

    /// `true` while events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        !matches!(self, TraceSink::Off)
    }

    /// Records the event built by `f`, or does nothing when off.
    #[inline]
    pub fn emit_with(&mut self, f: impl FnOnce() -> TraceEvent) {
        match self {
            TraceSink::Off => {}
            TraceSink::Chunked(r) => r.record(f()),
        }
    }

    /// Takes the recorded events in chronological order, resetting the sink
    /// to a fresh ring of the same capacity. Returns an empty vec when off.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        match self {
            TraceSink::Off => Vec::new(),
            TraceSink::Chunked(r) => {
                let events = r.take_events();
                *r = ChunkedRecorder::new(r.capacity());
                events
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::component;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::packet_deliver(i, component::link(0), i, 0, 100)
    }

    fn drive(r: &mut FlightRecorder, n: u64) {
        for i in 0..n {
            r.record(ev(i));
        }
    }

    #[test]
    fn ring_keeps_the_newest_events_in_order() {
        let mut r = FlightRecorder::new(4);
        drive(&mut r, 10);
        assert_eq!(r.len(), 4);
        assert_eq!(r.total_recorded(), 10);
        let times: Vec<u64> = r.events().iter().map(|e| e.t).collect();
        assert_eq!(times, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let mut r = FlightRecorder::new(100);
        drive(&mut r, 5);
        let times: Vec<u64> = r.events().iter().map(|e| e.t).collect();
        assert_eq!(times, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = FlightRecorder::new(0);
        r.record(ev(1));
        r.record(ev(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.events()[0].t, 2);
    }

    #[test]
    fn record_batch_state_matches_per_event_recording() {
        // Sweep capacities and adversarial batch shapes (empty, tiny,
        // exactly-capacity, longer-than-capacity) and require the full
        // recorder state to match per-event recording.
        let batches: Vec<usize> = vec![0, 1, 3, 4, 5, 7, 8, 16, 31];
        for cap in [1usize, 3, 4, 8, 16] {
            let mut batched = FlightRecorder::new(cap);
            let mut reference = FlightRecorder::new(cap);
            let mut i = 0u64;
            for &n in &batches {
                let chunk: Vec<TraceEvent> = (0..n as u64).map(|j| ev(i + j)).collect();
                i += n as u64;
                batched.record_batch(&chunk);
                for &e in &chunk {
                    reference.record(e);
                }
                assert_eq!(batched.events(), reference.events(), "cap {cap} after {i} events");
                assert_eq!(batched.total_recorded(), reference.total_recorded());
                assert_eq!(batched.len(), reference.len());
                assert_eq!(batched.next, reference.next, "internal cursor must match too");
            }
        }
    }

    #[test]
    fn chunked_recorder_matches_plain_ring() {
        for total in [0u64, 5, CHUNK_EVENTS as u64, CHUNK_EVENTS as u64 * 3 + 17] {
            let mut chunked = ChunkedRecorder::new(64);
            let mut plain = FlightRecorder::new(64);
            for i in 0..total {
                chunked.record(ev(i));
                plain.record(ev(i));
            }
            assert_eq!(chunked.total_recorded(), total);
            assert_eq!(chunked.events(), plain.events(), "after {total} events");
        }
    }

    #[test]
    fn take_events_matches_events_before_and_after_wrap() {
        for n in [3u64, 4, 10] {
            let mut a = FlightRecorder::new(4);
            let mut b = FlightRecorder::new(4);
            drive(&mut a, n);
            drive(&mut b, n);
            assert_eq!(a.take_events(), b.events(), "n={n}");
            assert!(a.is_empty(), "take leaves the ring empty");
        }
    }

    #[test]
    fn chunked_sink_take_matches_plain_ring() {
        let mut sink = TraceSink::chunked(16);
        let mut plain = FlightRecorder::new(16);
        assert!(sink.is_enabled());
        for i in 0..100 {
            sink.emit_with(|| ev(i));
            plain.record(ev(i));
        }
        assert_eq!(sink.take_events(), plain.events());
        assert!(sink.take_events().is_empty(), "take resets the chunked sink");
        assert!(sink.is_enabled(), "sink stays enabled after take");
        sink.emit_with(|| ev(1));
        sink.emit_with(|| ev(2));
        assert_eq!(sink.take_events().len(), 2, "the reset sink records again");
    }

    #[test]
    fn sink_off_records_nothing_and_takes_empty() {
        let mut s = TraceSink::Off;
        let mut built = 0;
        s.emit_with(|| {
            built += 1;
            ev(1)
        });
        assert_eq!(built, 0, "disabled sink must not build events");
        assert!(s.take_events().is_empty());
        assert!(!s.is_enabled());
    }
}
