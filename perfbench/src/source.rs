//! A transparent timing wrapper around a [`RequestSource`].
//!
//! `QueryService::serve` dispatches serially: it calls into its source
//! for arrivals and pushes verdicts and completions back, and between
//! those calls it admits, schedules and executes. So the host time
//! spent *inside* the wrapped source is the front door's (NetSim, the
//! listener, the wire codec, the client pump), and the time *between*
//! callbacks is the service's. The wrapper forwards every call
//! unchanged and only reads the clock around it.

use crate::host::HostClock;
use aida_serve::{Completion, QueryRequest, RequestSource, ServiceReport, Shed, TenantId};

/// Forwards every [`RequestSource`] call to `inner`, timing it.
pub struct TimedSource<S: RequestSource> {
    inner: S,
    clock: HostClock,
    /// Host seconds spent inside `inner`.
    source_s: f64,
    /// Host instant of the last completion (or of construction).
    mark_s: f64,
    /// `source_s` at the last completion.
    mark_source_s: f64,
    /// Per completion: host seconds since the previous completion.
    gaps_s: Vec<f64>,
    /// Per completion: the part of its gap spent outside `inner`.
    dispatch_s: Vec<f64>,
    /// Host instant of the first call.
    first_s: Option<f64>,
}

impl<S: RequestSource> TimedSource<S> {
    /// Wraps `inner`; timing starts now.
    pub fn new(inner: S, clock: HostClock) -> Self {
        let now = clock.now();
        TimedSource {
            inner,
            clock,
            source_s: 0.0,
            mark_s: now,
            mark_source_s: 0.0,
            gaps_s: Vec::new(),
            dispatch_s: Vec::new(),
            first_s: None,
        }
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut S) -> T) -> T {
        let t0 = self.clock.now();
        self.first_s.get_or_insert(t0);
        let out = f(&mut self.inner);
        self.source_s += self.clock.now() - t0;
        out
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Host seconds spent inside the wrapped source.
    pub fn source_s(&self) -> f64 {
        self.source_s
    }

    /// Host instant of the first forwarded call.
    pub fn first_call_s(&self) -> Option<f64> {
        self.first_s
    }

    /// Per completion, host seconds since the previous completion: the
    /// host cost of each completed query, front door included.
    pub fn completion_gaps_s(&self) -> &[f64] {
        &self.gaps_s
    }

    /// Per completion, the service's share of its gap (time outside the
    /// wrapped source).
    pub fn dispatch_s(&self) -> &[f64] {
        &self.dispatch_s
    }
}

impl<S: RequestSource> RequestSource for TimedSource<S> {
    fn next_arrival(&mut self) -> Option<f64> {
        self.timed(|s| s.next_arrival())
    }

    fn pop(&mut self, horizon_s: f64) -> Option<QueryRequest> {
        self.timed(|s| s.pop(horizon_s))
    }

    fn on_admitted(&mut self, seq: u64, tenant: &TenantId, at_s: f64) {
        self.timed(|s| s.on_admitted(seq, tenant, at_s));
    }

    fn on_shed(&mut self, shed: &Shed) {
        self.timed(|s| s.on_shed(shed));
    }

    fn on_completion(&mut self, completion: &Completion) {
        let now = self.clock.now();
        let gap = now - self.mark_s;
        let in_source = self.source_s - self.mark_source_s;
        self.gaps_s.push(gap);
        self.dispatch_s.push(gap - in_source);
        // The next gap starts now, so this callback's own time is
        // front-door time inside the next gap.
        self.mark_s = now;
        self.mark_source_s = self.source_s;
        self.timed(|s| s.on_completion(completion));
    }

    fn finish(&mut self, report: &mut ServiceReport) {
        self.timed(|s| s.finish(report));
    }
}
