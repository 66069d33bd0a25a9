//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer (name, layer, start, end, parent span, and the point or request id
//! the call served). They are kept in memory and written out once, when the
//! run ends; per-layer numbers and self times are derived from them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = u64;

/// One call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the run.
    pub id: SpanId,
    /// The span that made this call (`None` for a root).
    pub parent: Option<SpanId>,
    /// Layer the call went into (`bench.repro`, `apps`, `cool_rt`, ...).
    pub layer: &'static str,
    /// The function called, e.g. `run_app_scaled`.
    pub name: &'static str,
    /// The matrix point or request the call served.
    pub item: Option<u64>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// In-memory span store shared by every thread of a traced run.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Reserve a span id before the call starts, so children can name it.
    pub fn reserve(&self) -> SpanId {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds from the tracer's epoch to `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished call.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: SpanId,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        item: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            layer,
            name,
            item,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .push(span);
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Self time summed per layer, in seconds.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer).or_default() += selfs[&s.id] as f64 * 1e-9;
    }
    out
}

/// The spans as JSON lines, each with its self time.
pub fn to_json_lines(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for s in spans {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"item\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}\n",
            s.id,
            opt(s.parent),
            s.layer,
            s.name,
            opt(s.item),
            s.start_ns,
            s.end_ns,
            selfs[&s.id],
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            layer: "l",
            name: "n",
            item: None,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),  // overlaps 2: union 10..50
            span(4, Some(1), 90, 120), // clipped to 90..100
            span(5, Some(2), 10, 20),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 40 - 10);
        assert_eq!(s[&2], 30 - 10);
        assert_eq!(s[&3], 20);
    }

    #[test]
    fn recorded_spans_keep_parents_and_serialize_with_self_time() {
        let t = Tracer::default();
        let outer = t.reserve();
        let t0 = Instant::now();
        let inner = t.reserve();
        let t1 = Instant::now();
        t.record(inner, Some(outer), "inner", "g", None, t1, t1);
        t.record(outer, None, "outer", "f", Some(7), t0, Instant::now());
        let spans = t.spans();
        assert_eq!(
            spans.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![outer, inner]
        );
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[0].item, Some(7));
        let lines = to_json_lines(&spans);
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"layer\": \"outer\", \"name\": \"f\", \"item\": 7"));
    }
}
