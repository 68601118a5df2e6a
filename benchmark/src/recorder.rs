//! What one client (a worker thread, or an executor worker for
//! `kv-service`) records while a trial runs.

use std::time::Instant;

use crate::hist::Histogram;
use crate::spans::Span;

/// Trial phases, published by the main thread through one `AtomicU8` that
/// every client loads once per request.
pub const WARM: u8 = 0;
/// The measured window, tracing off.
pub const RUN: u8 = 1;
/// The measured window, tracing on.
pub const TRACE: u8 = 2;
pub const STOP: u8 = 3;

/// While tracing is on, a client records spans for one request per this
/// many map operations.
pub const TRACE_EVERY_OPS: u64 = 256;
/// A client samples the unreclaimed count once per this many requests.
pub const SAMPLE_EVERY: u64 = 128;
/// Spans a client can hold; recording stops when the buffer is full.
const SPAN_CAPACITY: usize = 1 << 18;

pub fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn in_window(phase: u8) -> bool {
    phase == RUN || phase == TRACE
}

pub struct Recorder {
    worker: u32,
    /// Requests per traced request.
    trace_every: u64,
    /// Request latency inside the window.
    pub latency: Histogram,
    pub unreclaimed: Histogram,
    requests: u64,
    /// Map operations completed in the window, under [`RUN`] and [`TRACE`].
    pub window_ops: [u64; 2],
    last_ns: u64,
    last_in_window: bool,
    pub spans: Vec<Span>,
    traced_requests: u32,
}

impl Recorder {
    /// `ops_per_request` sets the span sampling period; `trace` says
    /// whether to reserve the span buffer at all.
    pub fn new(worker: u32, ops_per_request: u64, trace: bool) -> Self {
        Recorder {
            worker,
            trace_every: (TRACE_EVERY_OPS / ops_per_request).max(1),
            latency: Histogram::new(),
            unreclaimed: Histogram::new(),
            requests: 0,
            window_ops: [0; 2],
            last_ns: 0,
            last_in_window: false,
            spans: Vec::with_capacity(if trace { SPAN_CAPACITY } else { 0 }),
            traced_requests: 0,
        }
    }

    /// Marks `now_ns` as the completion the first request is timed from.
    pub fn start(&mut self, now_ns: u64) {
        self.last_ns = now_ns;
        self.last_in_window = true;
    }

    /// The previous completion on this client, if it fell inside the window.
    pub fn last_completion(&self) -> Option<u64> {
        self.last_in_window.then_some(self.last_ns)
    }

    /// If the request about to start should record spans, the time its
    /// `request` span starts: the previous completion on this client.
    pub fn trace_start(&self, phase: u8) -> Option<u64> {
        let room = self.spans.len() + 8 <= self.spans.capacity();
        (phase == TRACE
            && self.last_in_window
            && room
            && self.requests.is_multiple_of(self.trace_every))
        .then_some(self.last_ns)
    }

    /// Records a `request` span and its children `(name, start, end)`.
    pub fn push_request(
        &mut self,
        start_ns: u64,
        end_ns: u64,
        children: &[(&'static str, u64, u64)],
    ) {
        self.traced_requests += 1;
        let request = self.traced_requests;
        let parent = self.spans.len() as u32 + 1;
        let worker = self.worker;
        self.spans.push(Span {
            name: "request",
            start_ns,
            end_ns,
            id: parent,
            parent: 0,
            request,
            worker,
        });
        for &(name, start_ns, end_ns) in children {
            let id = self.spans.len() as u32 + 1;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                id,
                parent,
                request,
                worker,
            });
        }
    }

    /// Records the completion of a request of `ops` operations that started
    /// under `phase`. Its latency runs from `since`, the completion before
    /// it that its issuer saw, and is not recorded when that fell outside
    /// the window. `unreclaimed` is only called on sampled requests.
    #[inline]
    pub fn complete(
        &mut self,
        now_ns: u64,
        phase: u8,
        ops: u64,
        since: Option<u64>,
        unreclaimed: impl FnOnce() -> u64,
    ) {
        self.requests += 1;
        if in_window(phase) {
            self.window_ops[usize::from(phase - RUN)] += ops;
            if let Some(since) = since {
                self.latency.record(now_ns - since);
            }
            if self.requests.is_multiple_of(SAMPLE_EVERY) {
                self.unreclaimed.record(unreclaimed());
            }
        }
        self.last_in_window = in_window(phase);
        self.last_ns = now_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_requests_are_timed_from_the_previous_completion() {
        let mut rec = Recorder::new(0, 1, false);
        for (now, phase) in [(100, WARM), (250, RUN), (400, RUN), (460, TRACE)] {
            // The completion before the first window request was warm-up:
            // that request is counted, not timed.
            let since = rec.last_completion();
            rec.complete(now, phase, 1, since, || unreachable!());
        }
        assert_eq!(rec.window_ops, [2, 1]);
        assert_eq!(rec.latency.count(), 2);
        // 400 - 250 and 460 - 400.
        assert_eq!(
            (rec.latency.quantile(0.0), rec.latency.quantile(1.0)),
            (60.0, 152.0)
        );
    }

    #[test]
    fn spans_are_numbered_by_position() {
        let mut rec = Recorder::new(3, 16, true);
        assert_eq!(rec.trace_start(TRACE), None, "nothing to time from yet");
        rec.start(10);
        assert_eq!(rec.trace_start(RUN), None);
        assert_eq!(rec.trace_start(TRACE), Some(10));
        rec.push_request(10, 50, &[("a", 10, 20), ("b", 20, 50)]);
        rec.push_request(50, 90, &[("a", 55, 60)]);
        let ids: Vec<(u32, u32, u32)> = rec
            .spans
            .iter()
            .map(|s| (s.id, s.parent, s.request))
            .collect();
        assert_eq!(
            ids,
            vec![(1, 0, 1), (2, 1, 1), (3, 1, 1), (4, 0, 2), (5, 4, 2)]
        );
        assert!(rec.spans.iter().all(|s| s.worker == 3));
        // 16 operations a request: every 16th request is traced.
        rec.complete(90, TRACE, 16, None, || 0);
        assert_eq!(rec.trace_start(TRACE), None);
    }
}
