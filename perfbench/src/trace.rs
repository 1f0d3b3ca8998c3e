//! In-memory span recorder for the traced leg. A span records the name of a
//! layer call, its start and end, the span it was called from and the
//! request it served. Spans stay in memory until the run ends and are then
//! written out. A layer's self time is its span minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sprint_jobd::json::Json;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run, in order of opening.
    pub id: usize,
    /// The span this call was made from.
    pub parent: Option<usize>,
    /// The layer call, `module.call`.
    pub name: &'static str,
    /// The request the call served; spans of one request share it.
    pub request: u64,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
}

/// Records spans when enabled; when disabled a span costs one branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_span: AtomicUsize,
    next_request: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_span: AtomicUsize::new(0),
            next_request: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh request id.
    pub fn request(&self) -> u64 {
        self.next_request.fetch_add(1, Ordering::Relaxed)
    }

    /// Run `f` as the span `name`. `f` receives the span's id, to pass as
    /// the parent of the calls it makes; with tracing off it receives
    /// `None` and nothing is recorded.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_secs_f64();
        let out = f(Some(id));
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(Span {
                id,
                parent,
                name,
                request,
                start,
                end,
            });
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut reach) = (0.0, lo);
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of every span, in the same order: its duration minus the part
/// of its interval that its direct children cover. Overlapping children
/// (calls made from several threads) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.end - s.start) - covered(s.start, s.end, kids)
        })
        .collect()
}

/// For each request `keep` accepts, the summed self time of its spans named
/// `name`, in request order.
pub fn per_request(
    spans: &[Span],
    self_times: &[f64],
    name: &str,
    keep: &dyn Fn(u64) -> bool,
) -> Vec<f64> {
    let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(self_times) {
        if s.name == name && keep(s.request) {
            *sums.entry(s.request).or_default() += t;
        }
    }
    sums.into_values().collect()
}

/// The spans as a JSON array, for the trace file.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::str(s.name)),
                    ("request", Json::Num(s.request as f64)),
                    ("start", Json::Num(s.start)),
                    ("end", Json::Num(s.end)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: "layer",
            request: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // The children overlap on [3, 4]; the last one runs past its parent.
        let spans = vec![
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 1.0, 4.0),
            span(2, Some(0), 3.0, 6.0),
            span(3, Some(0), 8.0, 12.0),
        ];
        let st = self_times(&spans);
        // 10 − |[1, 6] ∪ [8, 10]| = 10 − 7.
        assert!((st[0] - 3.0).abs() < 1e-12, "{st:?}");
        assert_eq!(&st[1..], &[3.0, 3.0, 4.0]);
    }

    #[test]
    fn grandchildren_reduce_only_their_own_parent() {
        let spans = vec![
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 2.0, 8.0),
            span(2, Some(1), 3.0, 5.0),
        ];
        assert_eq!(self_times(&spans), vec![4.0, 4.0, 2.0]);
    }

    #[test]
    fn per_request_sums_a_call_within_each_request() {
        let mut spans = vec![
            span(0, None, 0.0, 1.0),
            span(1, None, 1.0, 3.0),
            span(2, None, 3.0, 7.0),
        ];
        spans[2].request = 2;
        let st = self_times(&spans);
        assert_eq!(per_request(&spans, &st, "layer", &|_| true), vec![3.0, 4.0]);
        assert_eq!(per_request(&spans, &st, "layer", &|r| r == 2), vec![4.0]);
        assert!(per_request(&spans, &st, "other", &|_| true).is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_one_nests() {
        let off = Tracer::new(false);
        let got = off.span("outer", None, 1, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(got, 7);
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        let request = on.request();
        on.span("outer", None, request, |outer| {
            on.span("inner", outer, request, |_| ())
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[1].name), ("outer", "inner"));
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_ne!(on.request(), request);
    }
}
