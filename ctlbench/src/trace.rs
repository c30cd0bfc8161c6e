//! In-memory spans around the benchmark's own calls into the layers,
//! written out once the run ends.
//!
//! A span has a name, start and end on the run's clock, the span that
//! caused it, and the decision it belongs to (0 outside the event
//! loop). A layer's self time is its spans' time minus the part of it
//! their child spans cover.

use std::collections::BTreeMap;
use vda_core::jsonio::{self, Json};
use vda_core::metrics::Clock;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ms: f64,
    end_ms: f64,
    parent: Option<usize>,
    decision: u64,
}

/// Span recorder. When disabled it still times (the end-to-end metrics
/// need the same boundaries) but keeps nothing.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A span opened by [`Tracer::begin`].
#[derive(Debug)]
#[must_use = "close the span with Tracer::end"]
pub struct Open {
    index: usize,
    start_ms: f64,
}

/// Per-layer totals over the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Tracer {
    pub fn new(clock: Clock, enabled: bool) -> Self {
        Tracer {
            clock,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span; close it with [`Self::end`]. Spans opened while it
    /// is open become its children.
    pub fn begin(&mut self, name: &'static str, decision: u64) -> Open {
        let start_ms = self.clock.now_ms();
        let index = self.spans.len();
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ms,
                end_ms: start_ms,
                parent: self.open.last().copied(),
                decision,
            });
            self.open.push(index);
        }
        Open { index, start_ms }
    }

    /// Close a span and return its wall time in milliseconds.
    pub fn end(&mut self, span: Open) -> f64 {
        let end_ms = self.clock.now_ms();
        if self.enabled {
            self.open.pop();
            self.spans[span.index].end_ms = end_ms;
        }
        end_ms - span.start_ms
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Count, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.end_ms - s.start_ms;
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ms) {
            let t = layers.entry(s.name).or_default();
            let ms = s.end_ms - s.start_ms;
            t.count += 1;
            t.total_ms += ms;
            t.self_ms += ms - child;
        }
        layers
    }

    /// Durations (ms) of every span with this name, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ms - s.start_ms)
            .collect()
    }

    /// The trace document: every span, then per-layer totals.
    pub fn to_json(&self) -> String {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ms".into(), Json::Num(s.start_ms)),
                    ("end_ms".into(), Json::Num(s.end_ms)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("decision".into(), Json::Num(s.decision as f64)),
                ])
            })
            .collect();
        let layers = self
            .layers()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("count".into(), Json::Num(t.count as f64)),
                        ("total_ms".into(), Json::Num(t.total_ms)),
                        ("self_ms".into(), Json::Num(t.self_ms)),
                    ]),
                )
            })
            .collect();
        jsonio::write(&Json::Obj(vec![
            ("spans".into(), Json::Arr(spans)),
            ("layers".into(), Json::Obj(layers)),
        ]))
    }
}

/// The recorder's own cost per span, in ms: record `n` empty spans into
/// a scratch tracer and divide. Multiplied by the spans a traced event
/// phase recorded, it is the time tracing added to that phase.
pub fn cost_per_span_ms(clock: &Clock, n: usize) -> f64 {
    let mut scratch = Tracer::new(clock.clone(), true);
    let start = clock.now_ms();
    for i in 0..n {
        let span = scratch.begin("scratch", i as u64);
        scratch.end(span);
    }
    (clock.now_ms() - start) / n as f64
}
