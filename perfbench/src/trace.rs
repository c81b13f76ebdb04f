//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with the span that was open on the same
//! thread when it started as its parent. Spans are kept in memory and
//! summarised when the run ends; a span's self time is its duration minus
//! the durations of its children (children on one thread never overlap).

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer entry point the span wraps.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time; equal to `start` while the span is open.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: HashMap<ThreadId, Vec<usize>>,
}

/// Records spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.close(self.id);
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer lock poisoned by a panicking span")
    }

    /// Open a span on the calling thread.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let start = self.now();
        let mut st = self.lock();
        let thread = std::thread::current().id();
        let parent = st.open.get(&thread).and_then(|s| s.last().copied());
        let id = st.spans.len();
        st.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        st.open.entry(thread).or_default().push(id);
        SpanGuard { tracer: self, id }
    }

    fn close(&self, id: usize) {
        let end = self.now();
        let mut st = self.lock();
        st.spans[id].end = end;
        let thread = std::thread::current().id();
        if let Some(stack) = st.open.get_mut(&thread) {
            if let Some(pos) = stack.iter().rposition(|&s| s == id) {
                stack.truncate(pos);
            }
        }
    }

    /// Take every span recorded so far, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        let mut st = self.lock();
        st.open.clear();
        std::mem::take(&mut st.spans)
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| (s.end - s.start) as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= (s.end - s.start) as i64;
        }
    }
    out
}

/// Check the tree: every child lies within its parent and every self time
/// is non-negative.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let ps = &spans[p];
            if p >= i || s.start < ps.start || s.end > ps.end {
                return Err(format!(
                    "span {i} ({}) [{}, {}] is not within its parent {p} ({}) [{}, {}]",
                    s.name, s.start, s.end, ps.name, ps.start, ps.end
                ));
            }
        }
    }
    if let Some((i, t)) = self_times(spans).iter().enumerate().find(|(_, &t)| t < 0) {
        return Err(format!("span {i} ({}) has self time {t} ns", spans[i].name));
    }
    Ok(())
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Number of spans.
    pub count: usize,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: i64,
}

/// Totals per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end - s.start;
        t.self_ns += own;
    }
    out
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_have_non_negative_self_time_within_their_parent() {
        let tr = Tracer::default();
        {
            let _step = tr.span("step");
            busy(200);
            {
                let _f = tr.span("forward");
                busy(300);
                let _d = tr.span("dkm");
                busy(300);
            }
            let _b = tr.span("backward");
            busy(200);
        }
        let spans = tr.take();
        assert_eq!(spans.len(), 4);
        validate(&spans).unwrap();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let selfs = self_times(&spans);
        assert!(selfs.iter().all(|&s| s >= 0), "{selfs:?}");
        // Self times add back up to the root's duration.
        let root = (spans[0].end - spans[0].start) as i64;
        assert_eq!(selfs.iter().sum::<i64>(), root);
        let t = totals(&spans);
        assert_eq!(t["forward"].count, 1);
        assert!(t["forward"].self_ns < t["forward"].total_ns as i64);
    }

    #[test]
    fn spans_on_other_threads_do_not_nest_under_this_one() {
        let tr = Tracer::default();
        let outer = tr.span("outer");
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = tr.span("worker");
                busy(50);
            });
        });
        drop(outer);
        let spans = tr.take();
        validate(&spans).unwrap();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, None);
    }

    #[test]
    fn validate_rejects_children_outside_their_parent() {
        let spans = vec![
            Span {
                name: "p",
                start: 10,
                end: 20,
                parent: None,
            },
            Span {
                name: "c",
                start: 15,
                end: 25,
                parent: Some(0),
            },
        ];
        assert!(validate(&spans).is_err());
        let overfull = vec![
            Span {
                name: "p",
                start: 0,
                end: 10,
                parent: None,
            },
            Span {
                name: "a",
                start: 0,
                end: 8,
                parent: Some(0),
            },
            Span {
                name: "b",
                start: 2,
                end: 10,
                parent: Some(0),
            },
        ];
        let err = validate(&overfull).unwrap_err();
        assert!(err.contains("self time"), "{err}");
    }
}
