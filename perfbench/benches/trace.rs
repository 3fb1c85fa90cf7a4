//! Tracing from outside the simulator: spans recorded around calls into
//! its public API, and a [`StageObserver`] that attributes active-TTI
//! time to the six pipeline stages.
//!
//! Spans stay in memory until the run ends and are then written out as
//! JSON lines. A span's self time is its duration minus the part of it
//! that its children cover.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use outran_ran::stages::{StageId, StageObserver, TtiSummary};
use outran_ran::Cell;
use outran_simcore::{Dur, Time};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Boundary name, e.g. `sweep.job` or `ckpt.write`.
    pub name: &'static str,
    /// Start offset (ns).
    pub start: u64,
    /// End offset (ns); 0 while the span is open.
    pub end: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Job the span belongs to (sweep point index; 0 elsewhere).
    pub job: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 * 1e-9
    }
}

/// In-memory span recorder, shareable across worker threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, job: u32) -> SpanId {
        let start = self.now_ns();
        let mut spans = self.spans.lock().expect("span lock poisoned");
        spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            job,
        });
        spans.len() - 1
    }

    /// Close an open span.
    pub fn close(&self, id: SpanId) {
        let end = self.now_ns();
        self.spans.lock().expect("span lock poisoned")[id].end = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, job);
        let r = f();
        self.close(id);
        r
    }

    /// Snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }

    /// Summed duration (s) of every span named `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Durations (s) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Write every span, with its self time, as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"job\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.start, s.end, s.job
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the union of the
/// intervals its direct children cover (children of one span may run in
/// parallel and overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end.saturating_sub(s.start)).saturating_sub(covered)
        })
        .collect()
}

/// Per-stage and per-call host time of single-cell runs, summed over
/// every traced cell of a workload.
#[derive(Debug, Clone, Default)]
pub struct CellTotals {
    /// Exclusive time per stage (ns), indexed like [`StageId::ALL`].
    pub stage_ns: [u64; 6],
    /// Time inside active `Cell::step` calls (ns).
    pub active_step_ns: u64,
    /// Time inside every `Cell::step` call (ns).
    pub step_ns: u64,
    /// Time inside `Cell::next_activity_time` (ns).
    pub next_activity_ns: u64,
    /// Time inside `Cell::fast_forward` (ns).
    pub fast_forward_ns: u64,
    /// `fast_forward` jumps, each ending in a wake-up step.
    pub wakeups: u64,
    /// Active TTIs (one `on_tti` each).
    pub active_ttis: u64,
    /// Idle TTIs, stepped or skipped.
    pub idle_ttis: u64,
    /// Idle TTIs crossed by `fast_forward`.
    pub skipped_ttis: u64,
    /// Resource blocks granted over active TTIs.
    pub used_rbs: u64,
    /// Resource blocks offered over active TTIs.
    pub total_rbs: u64,
    /// Flows registered with the cells.
    pub flows_registered: u64,
    /// SDUs dropped at full RLC buffers.
    pub buffer_drops: u64,
    /// Segments lost after HARQ.
    pub residual_losses: u64,
}

impl CellTotals {
    /// Fold another cell's totals into these.
    pub fn add(&mut self, o: &CellTotals) {
        for (a, b) in self.stage_ns.iter_mut().zip(o.stage_ns) {
            *a += b;
        }
        self.active_step_ns += o.active_step_ns;
        self.step_ns += o.step_ns;
        self.next_activity_ns += o.next_activity_ns;
        self.fast_forward_ns += o.fast_forward_ns;
        self.wakeups += o.wakeups;
        self.active_ttis += o.active_ttis;
        self.idle_ttis += o.idle_ttis;
        self.skipped_ttis += o.skipped_ttis;
        self.used_rbs += o.used_rbs;
        self.total_rbs += o.total_rbs;
        self.flows_registered += o.flows_registered;
        self.buffer_drops += o.buffer_drops;
        self.residual_losses += o.residual_losses;
    }

    /// Read the cell's own counters once its run is over.
    pub fn finish(&mut self, cell: &Cell, probe: &StageProbe) {
        let seen = probe.totals();
        self.stage_ns = seen.stage_ns;
        self.active_ttis = seen.active_ttis;
        self.used_rbs = seen.used_rbs;
        self.total_rbs = seen.total_rbs;
        self.idle_ttis = cell.idle_ttis;
        self.skipped_ttis = cell.skipped_ttis;
        self.flows_registered = cell.n_flows() as u64;
        self.buffer_drops = cell.buffer_drops();
        self.residual_losses = cell.residual_losses();
    }
}

fn slot(id: StageId) -> usize {
    StageId::ALL
        .iter()
        .position(|&s| s == id)
        .expect("every stage is in StageId::ALL")
}

#[derive(Debug, Default)]
struct ProbeState {
    seen: CellTotals,
    stack: Vec<StageId>,
    last: Option<Instant>,
}

/// A [`StageObserver`] that attributes wall time exclusively to the
/// innermost executing stage and counts active TTIs and granted RBs.
/// Clones share one accumulator, so the benchmark keeps a handle after
/// the cell takes ownership of its copy.
#[derive(Debug, Clone, Default)]
pub struct StageProbe {
    state: Arc<Mutex<ProbeState>>,
}

impl StageProbe {
    /// Totals accumulated so far.
    pub fn totals(&self) -> CellTotals {
        self.state.lock().expect("probe lock poisoned").seen.clone()
    }

    fn lap(st: &mut ProbeState) -> Option<u64> {
        let t = Instant::now();
        let elapsed = st.last.map(|l| t.duration_since(l).as_nanos() as u64);
        st.last = Some(t);
        elapsed
    }
}

impl StageObserver for StageProbe {
    fn stage_enter(&mut self, id: StageId) {
        let mut st = self.state.lock().expect("probe lock poisoned");
        let elapsed = Self::lap(&mut st);
        if let (Some(ns), Some(&top)) = (elapsed, st.stack.last()) {
            st.seen.stage_ns[slot(top)] += ns;
        }
        st.stack.push(id);
    }

    fn stage_exit(&mut self, id: StageId) {
        let mut st = self.state.lock().expect("probe lock poisoned");
        let elapsed = Self::lap(&mut st);
        let top = st.stack.pop();
        debug_assert_eq!(top, Some(id), "unbalanced stage brackets");
        if let (Some(ns), Some(top)) = (elapsed, top) {
            st.seen.stage_ns[slot(top)] += ns;
        }
        if st.stack.is_empty() {
            st.last = None;
        }
    }

    fn on_tti(&mut self, _now: Time, summary: &TtiSummary) {
        let mut st = self.state.lock().expect("probe lock poisoned");
        st.seen.active_ttis += 1;
        st.seen.used_rbs += u64::from(summary.used_rbs);
        st.seen.total_rbs += u64::from(summary.total_rbs);
    }
}

/// Advance `cell` to `t` with the same public calls, in the same order,
/// as `Cell::run_until`, timing each call into `tot`.
pub fn drive(cell: &mut Cell, t: Time, tot: &mut CellTotals) {
    let tti = cell.tti().as_nanos();
    while cell.now() < t {
        let t0 = Instant::now();
        let na = cell.next_activity_time();
        let t1 = Instant::now();
        tot.next_activity_ns += (t1 - t0).as_nanos() as u64;
        let limit = na.min(t);
        let skip = limit.since(cell.now()).as_nanos().saturating_sub(1) / tti;
        let mut t2 = t1;
        if skip > 0 {
            cell.fast_forward(cell.now() + Dur(tti * skip));
            t2 = Instant::now();
            tot.fast_forward_ns += (t2 - t1).as_nanos() as u64;
            tot.wakeups += 1;
        }
        let idle_before = cell.idle_ttis;
        cell.step();
        let ns = t2.elapsed().as_nanos() as u64;
        tot.step_ns += ns;
        if cell.idle_ttis == idle_before {
            tot.active_step_ns += ns;
        }
    }
}
