//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The buffer is preallocated and only written to a file once, when
//! the run ends. A disabled tracer records nothing, so the same driver
//! code serves the untraced comparison inside a traced run.

use crate::json::Json;
use javelin::core::{ApplyScratch, Preconditioner};
use javelin::sparse::{Panel, PanelMut, Scalar};
use std::sync::Mutex;
use std::time::Instant;

/// Span index meaning "no parent".
pub const ROOT: u32 = u32::MAX;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Ordinal of the solve / step / batch this span belongs to.
    pub request: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Buf {
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
    dropped: u64,
}

/// In-memory span recorder (see module docs). `Sync` because the
/// `Preconditioner` trait requires it of the timing wrapper; every
/// benchmark span is opened and closed on the driving thread.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    buf: Mutex<Buf>,
}

impl Tracer {
    /// A recorder with room for `capacity` spans; further spans are
    /// counted as dropped instead of growing the buffer mid-run.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            buf: Mutex::new(Buf {
                spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
                open: Vec::with_capacity(16),
                request: 0,
                dropped: 0,
            }),
        }
    }

    fn buf(&self) -> std::sync::MutexGuard<'_, Buf> {
        self.buf
            .lock()
            .expect("tracer mutex is never held across a panic")
    }

    /// Sets the request ordinal stamped on spans opened from now on.
    pub fn set_request(&self, request: u32) {
        if self.enabled {
            self.buf().request = request;
        }
    }

    /// Opens a span under the innermost open span. Returns its index
    /// (or [`ROOT`] when disabled or full) for [`Tracer::end`].
    pub fn begin(&self, name: &'static str) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let mut b = self.buf();
        if b.spans.len() == b.spans.capacity() {
            b.dropped += 1;
            return ROOT;
        }
        let id = b.spans.len() as u32;
        let parent = b.open.last().copied().unwrap_or(ROOT);
        let request = b.request;
        b.open.push(id);
        // Clock read last, so bookkeeping stays outside the interval.
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        b.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        id
    }

    /// Closes span `id` (a no-op for [`ROOT`]).
    pub fn end(&self, id: u32) {
        if id == ROOT {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut b = self.buf();
        b.spans[id as usize].end_ns = end_ns;
        let top = b.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost-first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// The recorded spans and how many were dropped for lack of room.
    pub fn snapshot(&self) -> (Vec<Span>, u64) {
        let b = self.buf();
        (b.spans.clone(), b.dropped)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-request totals of the spans called `name`: `(request, total
/// duration in seconds, count)`, ordered by request.
pub fn per_request(spans: &[Span], name: &str) -> Vec<(u32, f64, usize)> {
    let mut out: Vec<(u32, f64, usize)> = Vec::new();
    for s in spans.iter().filter(|s| s.name == name) {
        match out.iter_mut().find(|(r, _, _)| *r == s.request) {
            Some(slot) => {
                slot.1 += s.dur_ns() as f64 * 1e-9;
                slot.2 += 1;
            }
            None => out.push((s.request, s.dur_ns() as f64 * 1e-9, 1)),
        }
    }
    out.sort_by_key(|e| e.0);
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
/// complete (`"X"`) event per span, times in microseconds.
pub fn chrome_trace(spans: &[Span], workload: &str) -> Json {
    let self_ns = self_times_ns(spans);
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let parent = if s.parent == ROOT {
                Json::Null
            } else {
                Json::Num(f64::from(s.parent))
            };
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(workload)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        ("parent", parent),
                        ("request", Json::Num(f64::from(s.request))),
                        ("self_us", Json::Num(self_ns[i] as f64 / 1e3)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

/// Span names of the preconditioner wrapper.
pub const PRECOND_APPLY: &str = "core.precond_apply";
pub const PRECOND_APPLY_PANEL: &str = "core.precond_apply_panel";

/// A [`Preconditioner`] that forwards to `inner` and records one span
/// per application — the only view an outside caller has of the time a
/// Krylov solve spends in the factors.
pub struct TimedPrecond<'a, P> {
    pub inner: &'a P,
    pub tracer: &'a Tracer,
}

impl<T: Scalar, P: Preconditioner<T>> Preconditioner<T> for TimedPrecond<'_, P> {
    fn apply(&self, r: &[T], z: &mut [T]) {
        self.tracer.span(PRECOND_APPLY, || self.inner.apply(r, z));
    }

    fn apply_with(&self, scratch: &mut ApplyScratch<T>, r: &[T], z: &mut [T]) {
        self.tracer
            .span(PRECOND_APPLY, || self.inner.apply_with(scratch, r, z));
    }

    fn apply_column_with(&self, scratch: &mut ApplyScratch<T>, col: usize, r: &[T], z: &mut [T]) {
        self.tracer.span(PRECOND_APPLY, || {
            self.inner.apply_column_with(scratch, col, r, z)
        });
    }

    fn apply_panel_with(&self, scratch: &mut ApplyScratch<T>, r: Panel<'_, T>, z: PanelMut<'_, T>) {
        self.tracer.span(PRECOND_APPLY_PANEL, || {
            self.inner.apply_panel_with(scratch, r, z)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, ROOT),
            span("a", 10, 30, 0),
            span("b", 20, 50, 0),  // overlaps a: union 10..50
            span("c", 90, 120, 0), // clipped to the parent: 90..100
            span("leaf", 12, 18, 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn recorder_nests_and_stamps_requests() {
        let t = Tracer::new(true, 8);
        t.set_request(3);
        let outer = t.begin("outer");
        t.span("inner", || ());
        t.end(outer);
        let (spans, dropped) = t.snapshot();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (ROOT, 0));
        assert!(spans.iter().all(|s| s.request == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(per_request(&spans, "inner")[0].2, 1);
    }

    #[test]
    fn full_or_disabled_recorder_drops_instead_of_growing() {
        let t = Tracer::new(true, 1);
        t.span("kept", || ());
        t.span("dropped", || ());
        let (spans, dropped) = t.snapshot();
        assert_eq!((spans.len(), dropped), (1, 1));
        let off = Tracer::new(false, 8);
        off.span("ignored", || ());
        assert!(off.snapshot().0.is_empty());
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let spans = [span("root", 0, 2_000, ROOT), span("kid", 500, 1_500, 0)];
        let doc = chrome_trace(&spans, "w");
        let back = Json::parse(&doc.pretty()).unwrap();
        let Some(Json::Arr(events)) = back.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            events[0]
                .get("args")
                .unwrap()
                .get("self_us")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }
}
