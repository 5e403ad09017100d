//! Per-probe causal tracing: spans with parent/child causality.
//!
//! Aggregate counters and histograms (the [`crate::metrics`] layer) say
//! *how much* delay each mechanism adds on average; they cannot say where
//! *this* probe's 102 ms went. A [`Tracer`] answers that: every probe
//! gets a root span, every delay source along the path (runtime
//! crossing, kernel, SDIO wake, PSM doze, AP buffering, the emulated
//! network) records a child span with exact start/end timestamps, and
//! the finished trace renders as a waterfall whose leaves partition the
//! user-level RTT `du`.
//!
//! Timestamps are plain `u64` nanoseconds so the same type serves the
//! simulator (`SimTime::as_nanos()`) and live wall-clock runs (elapsed
//! ns since session start).
//!
//! Like [`crate::Registry`], a `Tracer` is a cheap clonable handle over
//! shared state and the default handle is *disabled*: every operation on
//! a disabled tracer is a strict no-op that performs no allocation, so
//! instrumentation can stay unconditionally in the hot path.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::json::{Json, ToJson};

/// Identifier of one span. `SpanId::NONE` (0) is never allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span id (used by synthetic gap leaves).
    pub const NONE: SpanId = SpanId(0);
}

/// Identifier of one trace (one probe's causal history).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A signed integer attribute.
    Int(i64),
    /// A floating-point attribute.
    Float(f64),
    /// A string attribute.
    Str(String),
    /// A boolean attribute.
    Bool(bool),
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> AttrValue {
        AttrValue::Int(v)
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::Int(v as i64)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> AttrValue {
        AttrValue::Int(v as i64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> AttrValue {
        AttrValue::Float(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}

impl ToJson for AttrValue {
    fn to_json(&self) -> Json {
        match self {
            AttrValue::Int(v) => Json::Num(*v as f64),
            AttrValue::Float(v) => Json::Num(*v),
            AttrValue::Str(v) => Json::Str(v.clone()),
            AttrValue::Bool(v) => Json::Bool(*v),
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// The trace it belongs to.
    pub trace: TraceId,
    /// Causal parent (None for the trace root).
    pub parent: Option<SpanId>,
    /// Span name (e.g. `sdio_wake`).
    pub name: &'static str,
    /// Category (layer): `app`, `kernel`, `driver`, `mac`, `net`, ...
    pub cat: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (None while still open).
    pub end_ns: Option<u64>,
    /// Typed attributes.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Duration in ns, if the span has ended.
    pub fn duration_ns(&self) -> Option<u64> {
        self.end_ns.map(|e| e.saturating_sub(self.start_ns))
    }

    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

impl ToJson for SpanRecord {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("id", self.id.0);
        obj.set("trace", self.trace.0);
        obj.set("parent", self.parent.map(|p| p.0));
        obj.set("name", self.name);
        obj.set("cat", self.cat);
        obj.set("start_ns", self.start_ns);
        obj.set("end_ns", self.end_ns);
        if !self.attrs.is_empty() {
            let mut args = Json::object();
            for (k, v) in &self.attrs {
                args.set(k, v.to_json());
            }
            obj.set("attrs", args);
        }
        obj
    }
}

/// The trace context that travels with one probe: its trace id and root
/// span. Small and `Copy` so it can be mapped per packet id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The probe's trace.
    pub trace: TraceId,
    /// The probe's root span (ended when the reply reaches the app).
    pub root: SpanId,
}

#[derive(Debug, Default)]
struct TracerInner {
    next_span: u64,
    next_trace: u64,
    spans: Vec<SpanRecord>,
    /// span id → index into `spans`, for `end_span`/`attr`.
    index: HashMap<u64, usize>,
    /// packet id → trace context, the causal propagation channel.
    by_packet: HashMap<u64, TraceCtx>,
}

/// A handle to a span store. Clones share the same store; the default
/// handle is disabled and every operation on it is a strict no-op.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<TracerInner>>>);

impl Tracer {
    /// An enabled tracer with an empty span store, recording everything.
    pub fn new() -> Tracer {
        Tracer(Some(Arc::new(Mutex::new(TracerInner {
            next_span: 1,
            next_trace: 1,
            ..TracerInner::default()
        }))))
    }

    /// A disabled tracer: all operations are free no-ops.
    pub fn disabled() -> Tracer {
        Tracer(None)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Allocate a new trace id (`TraceId(0)` when disabled).
    pub fn begin_trace(&self) -> TraceId {
        let Some(inner) = &self.0 else {
            return TraceId(0);
        };
        let mut g = inner.lock().unwrap();
        let id = g.next_trace;
        g.next_trace += 1;
        TraceId(id)
    }

    /// Open a span at `start_ns` (`SpanId::NONE` when disabled).
    pub fn start_span(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &'static str,
        cat: &'static str,
        start_ns: u64,
    ) -> SpanId {
        let Some(inner) = &self.0 else {
            return SpanId::NONE;
        };
        let mut g = inner.lock().unwrap();
        let id = SpanId(g.next_span);
        g.next_span += 1;
        let idx = g.spans.len();
        g.spans.push(SpanRecord {
            id,
            trace,
            parent,
            name,
            cat,
            start_ns,
            end_ns: None,
            attrs: Vec::new(),
        });
        g.index.insert(id.0, idx);
        id
    }

    /// Close span `id` at `end_ns`. Unknown or already-closed spans are
    /// left alone.
    pub fn end_span(&self, id: SpanId, end_ns: u64) {
        let Some(inner) = &self.0 else { return };
        let mut g = inner.lock().unwrap();
        let Some(&idx) = g.index.get(&id.0) else {
            return;
        };
        g.spans[idx].end_ns.get_or_insert(end_ns);
    }

    /// Record a complete span in one call.
    pub fn span(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &'static str,
        cat: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = self.start_span(trace, parent, name, cat, start_ns);
        self.end_span(id, end_ns);
        id
    }

    /// Attach an attribute to span `id`. The value conversion happens
    /// after the disabled check, so a disabled tracer allocates nothing.
    pub fn attr(&self, id: SpanId, key: &'static str, value: impl Into<AttrValue>) {
        let Some(inner) = &self.0 else { return };
        let mut g = inner.lock().unwrap();
        let Some(&idx) = g.index.get(&id.0) else {
            return;
        };
        g.spans[idx].attrs.push((key, value.into()));
    }

    /// Associate packet `pkt_id` with a trace context, so downstream
    /// nodes holding only the packet can attribute spans.
    pub fn bind_packet(&self, pkt_id: u64, ctx: TraceCtx) {
        let Some(inner) = &self.0 else { return };
        inner.lock().unwrap().by_packet.insert(pkt_id, ctx);
    }

    /// The trace context bound to `pkt_id`, if any.
    pub fn packet_ctx(&self, pkt_id: u64) -> Option<TraceCtx> {
        let inner = self.0.as_ref()?;
        inner.lock().unwrap().by_packet.get(&pkt_id).copied()
    }

    /// Propagate a binding across an id change (request → reply).
    pub fn rebind_packet(&self, from: u64, to: u64) {
        let Some(inner) = &self.0 else { return };
        let mut g = inner.lock().unwrap();
        if let Some(ctx) = g.by_packet.get(&from).copied() {
            g.by_packet.insert(to, ctx);
        }
    }

    /// Snapshot of every recorded span, in recording order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.0 {
            Some(inner) => inner.lock().unwrap().spans.clone(),
            None => Vec::new(),
        }
    }

    /// Trace ids seen so far, in first-span order.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        let mut seen = Vec::new();
        for s in self.spans() {
            if !seen.contains(&s.trace) {
                seen.push(s.trace);
            }
        }
        seen
    }
}

/// A span and its children — one node of a waterfall tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span at this node.
    pub span: SpanRecord,
    /// Child spans ordered by start time.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// This node's duration in ns (0 if the span never ended).
    pub fn duration_ns(&self) -> u64 {
        self.span.duration_ns().unwrap_or(0)
    }

    /// Sum of leaf durations under this node (the node itself if it has
    /// no children).
    pub fn leaf_sum_ns(&self) -> u64 {
        if self.children.is_empty() {
            self.duration_ns()
        } else {
            self.children.iter().map(SpanNode::leaf_sum_ns).sum()
        }
    }

    /// Total duration of leaves named `name` under this node, ns.
    pub fn named_leaf_ns(&self, name: &str) -> u64 {
        if self.children.is_empty() {
            if self.span.name == name {
                self.duration_ns()
            } else {
                0
            }
        } else {
            self.children.iter().map(|c| c.named_leaf_ns(name)).sum()
        }
    }

    /// Insert synthetic `(unattributed)` leaves so that, at every level,
    /// the children exactly partition the parent's interval. After this,
    /// `leaf_sum_ns() == duration_ns()` holds whenever sibling spans do
    /// not overlap (overlaps make the sum exceed the duration, which the
    /// reconciliation test treats as a bug).
    pub fn fill_gaps(&mut self) {
        for c in &mut self.children {
            c.fill_gaps();
        }
        if self.children.is_empty() {
            return;
        }
        let Some(end) = self.span.end_ns else { return };
        let mut out: Vec<SpanNode> = Vec::with_capacity(self.children.len());
        let mut cursor = self.span.start_ns;
        for child in self.children.drain(..) {
            if child.span.start_ns > cursor {
                out.push(gap_leaf(self.span.trace, cursor, child.span.start_ns));
            }
            cursor = cursor.max(child.span.end_ns.unwrap_or(child.span.start_ns));
            out.push(child);
        }
        if cursor < end {
            out.push(gap_leaf(self.span.trace, cursor, end));
        }
        self.children = out;
    }
}

fn gap_leaf(trace: TraceId, start_ns: u64, end_ns: u64) -> SpanNode {
    SpanNode {
        span: SpanRecord {
            id: SpanId::NONE,
            trace,
            parent: None,
            name: "(unattributed)",
            cat: "gap",
            start_ns,
            end_ns: Some(end_ns),
            attrs: Vec::new(),
        },
        children: Vec::new(),
    }
}

/// Assemble the span tree for `trace` from a flat span list. Returns
/// `None` if the trace has no root (a span with no parent).
pub fn build_trace_tree(spans: &[SpanRecord], trace: TraceId) -> Option<SpanNode> {
    let in_trace: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace == trace).collect();
    let root = in_trace.iter().find(|s| s.parent.is_none())?;
    Some(build_node(root, &in_trace))
}

fn build_node(span: &SpanRecord, all: &[&SpanRecord]) -> SpanNode {
    let mut children: Vec<SpanNode> = all
        .iter()
        .filter(|s| s.parent == Some(span.id) && s.id != span.id)
        .map(|s| build_node(s, all))
        .collect();
    children.sort_by_key(|c| (c.span.start_ns, c.span.id));
    SpanNode {
        span: (*span).clone(),
        children,
    }
}

/// Render a span tree as an ASCII waterfall. `width` is the bar width
/// in characters; rows are the tree's nodes depth-first, each with its
/// offset from the root, duration, and a proportional `=` bar.
pub fn render_waterfall(root: &SpanNode, width: usize) -> String {
    let width = width.max(10);
    let t0 = root.span.start_ns;
    let total = root.duration_ns().max(1);
    let mut name_col = 0usize;
    walk(root, 0, &mut |node, depth| {
        name_col = name_col.max(depth * 2 + node.span.name.len());
    });
    let name_col = name_col.max("span".len()) + 2;
    let mut out = String::new();
    out.push_str(&format!(
        "{:<name_col$} {:>10} {:>10}  waterfall ({:.3} ms total)\n",
        "span",
        "off ms",
        "dur ms",
        total as f64 / 1e6,
    ));
    walk(root, 0, &mut |node, depth| {
        let start = node.span.start_ns.saturating_sub(t0);
        let dur = node.duration_ns();
        let from = (start as u128 * width as u128 / total as u128) as usize;
        let mut len = (dur as u128 * width as u128 / total as u128) as usize;
        if dur > 0 && len == 0 {
            len = 1;
        }
        let from = from.min(width);
        let len = len.min(width - from);
        let fill = if node.span.cat == "gap" { '-' } else { '=' };
        let mut bar = String::with_capacity(width);
        for _ in 0..from {
            bar.push(' ');
        }
        for _ in 0..len {
            bar.push(fill);
        }
        let label = format!("{}{}", "  ".repeat(depth), node.span.name);
        out.push_str(&format!(
            "{:<name_col$} {:>10.3} {:>10.3}  |{bar:<width$}|\n",
            label,
            start as f64 / 1e6,
            dur as f64 / 1e6,
        ));
    });
    out
}

fn walk<'a>(node: &'a SpanNode, depth: usize, f: &mut impl FnMut(&'a SpanNode, usize)) {
    f(node, depth);
    for c in &node.children {
        walk(c, depth + 1, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_a_no_op() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.begin_trace(), TraceId(0));
        let id = t.start_span(TraceId(0), None, "probe", "app", 0);
        assert_eq!(id, SpanId::NONE);
        t.end_span(id, 10);
        t.attr(id, "k", 1u32);
        t.bind_packet(
            7,
            TraceCtx {
                trace: TraceId(0),
                root: id,
            },
        );
        assert_eq!(t.packet_ctx(7), None);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn span_lifecycle_and_attrs() {
        let t = Tracer::new();
        let tr = t.begin_trace();
        let root = t.start_span(tr, None, "probe", "app", 100);
        let child = t.span(tr, Some(root), "kernel_tx", "kernel", 100, 150);
        t.attr(root, "probe", 3u32);
        t.attr(child, "note", "fast");
        t.end_span(root, 400);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].duration_ns(), Some(300));
        assert_eq!(spans[1].duration_ns(), Some(50));
        assert_eq!(spans[0].attr("probe"), Some(&AttrValue::Int(3)));
        assert_eq!(spans[1].attr("note"), Some(&AttrValue::Str("fast".into())));
        // end_span is first-write-wins.
        t.end_span(root, 999);
        assert_eq!(t.spans()[0].end_ns, Some(400));
    }

    #[test]
    fn packet_binding_propagates_and_rebinds() {
        let t = Tracer::new();
        let tr = t.begin_trace();
        let root = t.start_span(tr, None, "probe", "app", 0);
        let ctx = TraceCtx { trace: tr, root };
        t.bind_packet(11, ctx);
        assert_eq!(t.packet_ctx(11), Some(ctx));
        t.rebind_packet(11, 12);
        assert_eq!(t.packet_ctx(12), Some(ctx));
        t.rebind_packet(99, 100); // unknown source: no-op
        assert_eq!(t.packet_ctx(100), None);
    }

    #[test]
    fn clones_share_the_store() {
        let t = Tracer::new();
        let t2 = t.clone();
        let tr = t.begin_trace();
        t2.span(tr, None, "probe", "app", 0, 10);
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn tree_fills_gaps_and_leaves_partition_root() {
        let t = Tracer::new();
        let tr = t.begin_trace();
        let root = t.start_span(tr, None, "probe", "app", 1000);
        t.span(tr, Some(root), "a", "x", 1000, 1200);
        t.span(tr, Some(root), "b", "x", 1500, 1800);
        t.end_span(root, 2000);
        let mut tree = build_trace_tree(&t.spans(), tr).unwrap();
        tree.fill_gaps();
        // a, gap(1200..1500), b, gap(1800..2000)
        assert_eq!(tree.children.len(), 4);
        assert_eq!(tree.children[1].span.cat, "gap");
        assert_eq!(tree.children[1].duration_ns(), 300);
        assert_eq!(tree.children[3].duration_ns(), 200);
        assert_eq!(tree.leaf_sum_ns(), tree.duration_ns());
        assert_eq!(tree.named_leaf_ns("a"), 200);
        assert_eq!(tree.named_leaf_ns("(unattributed)"), 500);
    }

    #[test]
    fn tree_orders_children_by_start() {
        let t = Tracer::new();
        let tr = t.begin_trace();
        let root = t.start_span(tr, None, "probe", "app", 0);
        t.span(tr, Some(root), "late", "x", 50, 60);
        t.span(tr, Some(root), "early", "x", 10, 20);
        t.end_span(root, 100);
        let tree = build_trace_tree(&t.spans(), tr).unwrap();
        assert_eq!(tree.children[0].span.name, "early");
        assert_eq!(tree.children[1].span.name, "late");
    }

    #[test]
    fn missing_root_yields_none() {
        let t = Tracer::new();
        let tr = t.begin_trace();
        // Only a child span, parented to a span that was never recorded.
        t.span(tr, Some(SpanId(42)), "orphan", "x", 0, 1);
        assert!(build_trace_tree(&t.spans(), tr).is_none());
        assert!(build_trace_tree(&t.spans(), TraceId(999)).is_none());
    }

    #[test]
    fn waterfall_renders_rows_and_bars() {
        let t = Tracer::new();
        let tr = t.begin_trace();
        let root = t.start_span(tr, None, "probe", "app", 0);
        t.span(tr, Some(root), "kernel_tx", "kernel", 0, 500_000);
        t.span(tr, Some(root), "sdio_wake", "driver", 500_000, 8_000_000);
        t.end_span(root, 10_000_000);
        let mut tree = build_trace_tree(&t.spans(), tr).unwrap();
        tree.fill_gaps();
        let text = render_waterfall(&tree, 40);
        assert!(text.contains("probe"));
        assert!(text.contains("sdio_wake"));
        assert!(text.contains("(unattributed)"));
        assert!(text.contains('='));
        assert!(text.contains('-'), "gap bars use '-'");
        // Header reports the total.
        assert!(text.contains("10.000 ms total"), "{text}");
    }

    #[test]
    fn trace_ids_in_first_span_order() {
        let t = Tracer::new();
        let a = t.begin_trace();
        let b = t.begin_trace();
        t.span(b, None, "p", "app", 0, 1);
        t.span(a, None, "p", "app", 0, 1);
        assert_eq!(t.trace_ids(), vec![b, a]);
    }
}
