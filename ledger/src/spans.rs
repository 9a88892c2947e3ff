//! Spans recorded by `ledger`'s own code around each call into a layer.
//!
//! Nothing inside the program is instrumented: a span is two clock reads
//! and a `Vec` push on the thread that makes the call. Spans live in
//! memory and are written once, as a Chrome `trace_event` document, when
//! the traced run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use ssp_runtime::JsonValue;

/// One timed call (or group of calls) into a layer.
pub struct Span {
    /// The span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// The root of this span's tree — shared by every span of one
    /// repetition or one micro-benchmark.
    pub root: usize,
    /// The crate the call goes into (`ledger` for the harness's own roots).
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at this boundary (messages, bytes, frames, ...).
    pub counts: Vec<(&'static str, f64)>,
}

/// The span recorder of a traced run. Span ids are indices into `spans`.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a new span, child of the innermost open one. Returns
    /// `f`'s result and the span's duration in seconds, so the number a
    /// metric is computed from is the span itself.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let root = parent.map_or(id, |p| self.spans[p].root);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            root,
            layer,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].counts.push((key, value));
        }
    }

    /// A span's self time: its duration minus its direct children's.
    /// Children never overlap (one recording thread), so the subtraction
    /// is exact.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 =
            self.spans.iter().filter(|c| c.parent == Some(id)).map(|c| c.end_ns - c.start_ns).sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Self time per layer in seconds, summed over all spans.
    pub fn self_seconds_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut by_layer = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            *by_layer.entry(s.layer).or_insert(0.0) += self.self_ns(id) as f64 * 1e-9;
        }
        by_layer
    }

    /// The Chrome `trace_event` document: one complete (`ph: "X"`) event
    /// per span, `cat` = layer, `args` = id, parent, root, self time and
    /// the counts. Loads in `chrome://tracing` and Perfetto.
    pub fn to_chrome_json(&self) -> JsonValue {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = BTreeMap::new();
                args.insert("id".to_string(), JsonValue::Num(id as f64));
                args.insert(
                    "parent".to_string(),
                    s.parent.map_or(JsonValue::Null, |p| JsonValue::Num(p as f64)),
                );
                args.insert("root".to_string(), JsonValue::Num(s.root as f64));
                args.insert("self_us".to_string(), JsonValue::Num(self.self_ns(id) as f64 / 1e3));
                for (k, v) in &s.counts {
                    args.insert(k.to_string(), JsonValue::Num(*v));
                }
                let mut e = BTreeMap::new();
                e.insert("name".to_string(), JsonValue::Str(s.name.clone()));
                e.insert("cat".to_string(), JsonValue::Str(s.layer.to_string()));
                e.insert("ph".to_string(), JsonValue::Str("X".to_string()));
                e.insert("ts".to_string(), JsonValue::Num(s.start_ns as f64 / 1e3));
                e.insert("dur".to_string(), JsonValue::Num((s.end_ns - s.start_ns) as f64 / 1e3));
                e.insert("pid".to_string(), JsonValue::Num(1.0));
                e.insert("tid".to_string(), JsonValue::Num(1.0));
                e.insert("args".to_string(), JsonValue::Obj(args));
                JsonValue::Obj(e)
            })
            .collect();
        let mut doc = BTreeMap::new();
        doc.insert("traceEvents".to_string(), JsonValue::Arr(events));
        doc.insert("displayTimeUnit".to_string(), JsonValue::Str("ms".to_string()));
        JsonValue::Obj(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_gives_parents_roots_and_self_time() {
        let mut t = Tracer::new();
        t.span("ledger", "rep", |t| {
            t.span("mesh", "build", |t| t.count("ranks", 4.0));
            t.span("ssp-runtime", "run", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        t.span("ledger", "micro", |_| ());
        let parents: Vec<_> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), None]);
        let roots: Vec<_> = t.spans.iter().map(|s| s.root).collect();
        assert_eq!(roots, [0, 0, 0, 3]);
        assert_eq!(t.spans[1].counts, [("ranks", 4.0)]);
        let whole = t.spans[0].end_ns - t.spans[0].start_ns;
        assert!(t.self_ns(0) < whole && whole >= 2_000_000);
        assert_eq!(t.to_chrome_json().get("traceEvents").unwrap().as_arr().unwrap().len(), 4);
    }
}
