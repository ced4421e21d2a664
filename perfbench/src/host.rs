//! The benchmark's own host-time spans.
//!
//! The runtime's recorder keeps only virtual time, so host time is
//! measured here, around the public calls the benchmark makes. Spans
//! nest: a run holds passes, a pass holds its set-up and its queries,
//! and a query holds the one public call it makes. A span may also be
//! an *aggregate*: many short intervals inside its parent (for example
//! every call into the live front door during one `serve`), kept as one
//! node with their summed duration.
//!
//! A layer's self time is its inclusive time minus its children's.
//! [`HostTrace::reconcile`] checks that the self times add up to the
//! wall time measured independently of the spans.

use aida_llm::WallStopwatch;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Host seconds since the benchmark started. Clones read the same
/// clock.
#[derive(Debug, Clone, Default)]
pub struct HostClock {
    watch: Arc<WallStopwatch>,
}

impl HostClock {
    /// Starts the clock now.
    pub fn start() -> HostClock {
        HostClock {
            watch: Arc::new(WallStopwatch::start()),
        }
    }

    /// Host seconds since [`HostClock::start`].
    pub fn now(&self) -> f64 {
        self.watch.elapsed_s()
    }
}

/// One recorded span: a host-time interval, or an aggregate of several.
#[derive(Debug, Clone)]
pub struct HostSpan {
    /// Layer-qualified name, e.g. `core.query` or `serve.source`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Host seconds at open.
    pub start_s: f64,
    /// Inclusive host seconds (summed intervals for an aggregate).
    pub dur_s: f64,
    /// Whether the span is still open.
    open: bool,
}

/// The span table of one benchmark process.
#[derive(Debug)]
pub struct HostTrace {
    clock: HostClock,
    spans: Vec<HostSpan>,
    stack: Vec<usize>,
}

/// A layer's totals across every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans of this name.
    pub count: usize,
    /// Summed inclusive seconds.
    pub inclusive_s: f64,
    /// Summed self seconds.
    pub self_s: f64,
}

/// The outcome of checking span self times against wall time.
#[derive(Debug, Clone, Copy)]
pub struct Reconciliation {
    /// Wall seconds from process start to the check.
    pub wall_s: f64,
    /// Sum of every span's self time.
    pub self_sum_s: f64,
    /// Self time of the harness spans plus the time before the root
    /// opened: work no layer claims.
    pub unattributed_s: f64,
    /// The largest amount by which children overran their parent.
    pub worst_overrun_s: f64,
}

impl Reconciliation {
    /// `|wall - sum of self times|` as a percentage of wall.
    pub fn error_pct(&self) -> f64 {
        100.0 * (self.wall_s - self.self_sum_s).abs() / self.wall_s.max(f64::MIN_POSITIVE)
    }

    /// Unattributed time as a percentage of wall.
    pub fn gap_pct(&self) -> f64 {
        100.0 * self.unattributed_s / self.wall_s.max(f64::MIN_POSITIVE)
    }

    /// Whether the spans account for the run: they add up to wall time
    /// within [`RECONCILE_TOLERANCE_PCT`], no children overrun their
    /// parent by more than that share, and the harness gaps stay within
    /// [`GAP_TOLERANCE_PCT`].
    pub fn holds(&self) -> bool {
        let overrun_pct = 100.0 * self.worst_overrun_s / self.wall_s.max(f64::MIN_POSITIVE);
        self.error_pct() <= RECONCILE_TOLERANCE_PCT
            && overrun_pct <= RECONCILE_TOLERANCE_PCT
            && self.gap_pct() <= GAP_TOLERANCE_PCT
    }
}

/// The root span: the whole measured process.
pub const ROOT: &str = "bench.run";
/// Harness spans: their self time is bookkeeping between the calls the
/// benchmark measures (the "harness gaps").
pub const HARNESS: &[&str] = &[ROOT, "bench.pass", "bench.queries"];

/// Spans must add up to wall time within this many percent.
pub const RECONCILE_TOLERANCE_PCT: f64 = 1.0;
/// Time no layer claims may be at most this many percent of wall.
pub const GAP_TOLERANCE_PCT: f64 = 5.0;

impl HostTrace {
    /// A trace whose root span `run` opens now; `clock` started with
    /// the process.
    pub fn new(clock: HostClock) -> HostTrace {
        let mut trace = HostTrace {
            clock,
            spans: Vec::new(),
            stack: Vec::new(),
        };
        trace.open(ROOT);
        trace
    }

    /// Host seconds since the process started.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// The clock the spans read.
    pub fn clock(&self) -> &HostClock {
        &self.clock
    }

    /// Opens a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(HostSpan {
            name,
            parent: self.stack.last().copied(),
            start_s: self.clock.now(),
            dur_s: 0.0,
            open: true,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span; returns
    /// its duration.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.dur_s = self.clock.now() - span.start_s;
        span.open = false;
        span.dur_s
    }

    /// Runs `f` inside a span named `name`, returning its result and the
    /// span's duration.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let id = self.open(name);
        let out = f(self);
        let dur = self.close(id);
        (out, dur)
    }

    /// Adds a closed aggregate child of the innermost open span: `dur_s`
    /// host seconds spent in short intervals starting at `start_s`.
    pub fn aggregate(&mut self, name: &'static str, start_s: f64, dur_s: f64) {
        self.spans.push(HostSpan {
            name,
            parent: self.stack.last().copied(),
            start_s,
            dur_s,
            open: false,
        });
    }

    /// Every span, in open order.
    pub fn spans(&self) -> &[HostSpan] {
        &self.spans
    }

    /// Self seconds of each span: its duration minus its children's.
    /// An open span counts up to now.
    fn self_times(&self) -> (Vec<f64>, f64) {
        let now = self.clock.now();
        let dur = |s: &HostSpan| if s.open { now - s.start_s } else { s.dur_s };
        let mut child_sum = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p] += dur(s);
            }
        }
        let mut worst_overrun = 0.0f64;
        let selfs = self
            .spans
            .iter()
            .zip(&child_sum)
            .map(|(s, c)| {
                let own = dur(s) - c;
                worst_overrun = worst_overrun.max(-own);
                own
            })
            .collect();
        (selfs, worst_overrun)
    }

    /// Per-layer totals, keyed by span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let (selfs, _) = self.self_times();
        let now = self.clock.now();
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.inclusive_s += if s.open { now - s.start_s } else { s.dur_s };
            t.self_s += own;
        }
        out
    }

    /// Checks the span self times against the wall time since process
    /// start.
    pub fn reconcile(&self) -> Reconciliation {
        let (selfs, worst_overrun_s) = self.self_times();
        let wall_s = self.clock.now();
        let self_sum_s: f64 = selfs.iter().sum();
        let harness_s: f64 = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| HARNESS.contains(&s.name))
            .map(|(_, own)| own)
            .sum();
        // Time before the root opened is wall time no span covers.
        let before_root = self.spans.first().map_or(wall_s, |s| s.start_s);
        Reconciliation {
            wall_s,
            self_sum_s,
            unattributed_s: harness_s + before_root,
            worst_overrun_s,
        }
    }

    /// Renders the layer table: count, inclusive and self milliseconds,
    /// and self time as a share of wall.
    pub fn render_layers(&self) -> String {
        let wall = self.clock.now().max(f64::MIN_POSITIVE);
        let mut out = format!(
            "{:<24} {:>8} {:>12} {:>12} {:>7}\n",
            "layer", "spans", "incl_ms", "self_ms", "self%"
        );
        for (name, t) in self.layers() {
            out.push_str(&format!(
                "{:<24} {:>8} {:>12.3} {:>12.3} {:>6.2}%\n",
                name,
                t.count,
                t.inclusive_s * 1e3,
                t.self_s * 1e3,
                100.0 * t.self_s / wall
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut trace = HostTrace::new(HostClock::start());
        let ((), outer) = trace.time("bench.pass", |t| {
            let start = t.now();
            t.time("core.query", |_| {
                std::thread::sleep(std::time::Duration::from_millis(30))
            });
            t.aggregate("serve.source", start, 0.0);
        });
        assert!(outer >= 0.0);
        let layers = trace.layers();
        assert_eq!(layers["core.query"].count, 1);
        let rec = trace.reconcile();
        assert!(rec.holds(), "{rec:?}");
        assert!(rec.worst_overrun_s <= 0.0);
    }

    #[test]
    fn an_overrunning_aggregate_is_caught() {
        let mut trace = HostTrace::new(HostClock::start());
        let id = trace.open("bench.pass");
        let start = trace.now();
        trace.aggregate("serve.source", start, 5.0);
        trace.close(id);
        assert!(trace.reconcile().worst_overrun_s > 4.0);
    }
}
