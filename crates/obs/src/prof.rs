//! `obs::prof` — self-profiling for the engine's own hot paths.
//!
//! Everything else in `obs` observes the *simulated* world (virtual
//! microseconds per probe, counters per retry). This module observes
//! the *host*: wall-clock nanoseconds and heap allocations spent per
//! engine phase, attributed to a tree of scoped phases so a campaign
//! run can answer "where did the 12 seconds go?" before any
//! optimisation PR claims a win.
//!
//! Design mirrors [`crate::trace::Tracer`]'s option-inside-handle
//! pattern: a [`Profiler`] is a cheap clonable handle around
//! `Option<Arc<…>>`. A disabled profiler ([`Profiler::disabled`], the
//! `Default`) turns every operation into a single branch on `None` —
//! no clock read, no lock, no thread-local access, and **zero heap
//! allocation** (asserted by the `prof_alloc` test binary with the
//! counting global allocator below) — so instrumented hot paths cost
//! nothing when nobody is profiling and the byte-identical campaign
//! determinism contract is untouched.
//!
//! Enabled, each [`Profiler::phase`] guard:
//!
//! * pushes a frame on a thread-local phase stack (nesting builds a
//!   call tree; recursion builds self-named child nodes),
//! * snapshots the thread's allocation counters on entry and exit so
//!   allocation churn is attributed per phase exactly like time,
//! * accumulates integer nanoseconds into an interned node keyed by
//!   `(parent, name)` — steady-state guards allocate nothing,
//! * records a bounded per-thread timeline of closed spans for Chrome
//!   `trace_event` export via [`crate::export::chrome_trace`].
//!
//! Work too fine-grained for a guard per call — the simulator's event
//! dispatch — is counted by its owner and handed over in one
//! [`Profiler::record`] call: an aggregate node with its calls, time
//! and allocations, nested under the caller's open phase like a guard
//! would be.
//!
//! Exporters: [`ProfSnapshot::folded`] (flamegraph-compatible folded
//! stacks), [`ProfSnapshot::chrome_spans`] (feed to
//! [`crate::export::chrome_trace`]), and [`ProfSnapshot::merged`]
//! (cross-thread tree for attribution tables).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::trace::{SpanId, SpanRecord, TraceId};

// ---------------------------------------------------------------------------
// Counting global allocator
// ---------------------------------------------------------------------------

/// A counting wrapper around the system allocator. Binaries that want
/// per-phase allocation attribution (the `repro` binary, the
/// `prof_alloc` test binary) install it:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: obs::prof::CountingAlloc = obs::prof::CountingAlloc;
/// ```
///
/// Every `alloc`/`realloc` bumps const-initialised thread-local
/// counters (no destructor, so counting stays safe even during TLS
/// teardown). Without the installation the counters simply stay zero
/// and phase attribution reports no allocations — the profiler itself
/// keeps working.
pub struct CountingAlloc;

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TL_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count_alloc(bytes: usize) {
    // `try_with` + const-init Cells: safe from inside the allocator,
    // including during thread teardown.
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = TL_ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: defers all allocation to `System`; only adds counter bumps.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// This thread's cumulative `(allocations, bytes)` since start, as
/// counted by [`CountingAlloc`]. Both stay `0` unless a
/// [`CountingAlloc`] is installed as the global allocator.
pub fn thread_alloc_counts() -> (u64, u64) {
    let allocs = TL_ALLOCS.try_with(Cell::get).unwrap_or(0);
    let bytes = TL_ALLOC_BYTES.try_with(Cell::get).unwrap_or(0);
    (allocs, bytes)
}

// ---------------------------------------------------------------------------
// Core state
// ---------------------------------------------------------------------------

/// Sentinel parent id for root phases in the interning map.
const ROOT: u32 = u32::MAX;

/// Per-thread spans kept for Chrome-trace export. Beyond this, spans
/// still accumulate into the node tree but drop out of the timeline
/// (`timeline_dropped` counts them).
const TIMELINE_CAP: usize = 16 * 1024;

#[derive(Clone)]
struct NodeStat {
    name: &'static str,
    parent: Option<u32>,
    calls: u64,
    total_ns: u64,
    child_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
    child_allocs: u64,
    child_alloc_bytes: u64,
}

impl NodeStat {
    fn new(name: &'static str, parent: Option<u32>) -> NodeStat {
        NodeStat {
            name,
            parent,
            calls: 0,
            total_ns: 0,
            child_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
            child_allocs: 0,
            child_alloc_bytes: 0,
        }
    }

    fn add(&mut self, cost: PhaseCost) {
        self.calls += cost.calls;
        self.total_ns += cost.ns;
        self.allocs += cost.allocs;
        self.alloc_bytes += cost.bytes;
    }
}

/// The cost of an aggregate phase handed to [`Profiler::record`]:
/// what a guard would have measured over `calls` entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCost {
    /// Entries the aggregate stands for.
    pub calls: u64,
    /// Wall nanoseconds, summed over the entries.
    pub ns: u64,
    /// Heap allocations made inside the entries.
    pub allocs: u64,
    /// Heap bytes allocated inside the entries.
    pub bytes: u64,
}

struct Frame {
    node: u32,
    start_ns: u64,
    child_ns: u64,
    start_allocs: u64,
    start_bytes: u64,
    child_allocs: u64,
    child_bytes: u64,
    span_id: u64,
    parent_span: Option<u64>,
}

struct TimelineEv {
    node: u32,
    span_id: u64,
    parent_span: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

struct ThreadState {
    nodes: Vec<NodeStat>,
    interned: HashMap<(u32, &'static str), u32>,
    stack: Vec<Frame>,
    timeline: Vec<TimelineEv>,
    timeline_dropped: u64,
    /// Nanoseconds cut from recorded aggregates to fit their open phase.
    capped_ns: u64,
    next_span: u64,
    first_ns: Option<u64>,
    last_ns: u64,
}

impl ThreadState {
    fn new() -> ThreadState {
        ThreadState {
            nodes: Vec::with_capacity(32),
            interned: HashMap::with_capacity(32),
            stack: Vec::with_capacity(16),
            // Pre-sized so steady-state guards never grow it: a guard
            // after warm-up performs zero heap allocations.
            timeline: Vec::with_capacity(TIMELINE_CAP),
            timeline_dropped: 0,
            capped_ns: 0,
            next_span: 0,
            first_ns: None,
            last_ns: 0,
        }
    }

    fn intern(&mut self, parent: u32, name: &'static str) -> u32 {
        if let Some(&id) = self.interned.get(&(parent, name)) {
            return id;
        }
        let id = self.nodes.len() as u32;
        let p = if parent == ROOT { None } else { Some(parent) };
        self.nodes.push(NodeStat::new(name, p));
        self.interned.insert((parent, name), id);
        id
    }

    /// Close the innermost open frame at time `end` with allocation
    /// counters `(allocs, bytes)`.
    fn close_top(&mut self, end: u64, allocs: u64, bytes: u64) {
        let f = match self.stack.pop() {
            Some(f) => f,
            None => return,
        };
        let total = end.saturating_sub(f.start_ns);
        let d_allocs = allocs.saturating_sub(f.start_allocs);
        let d_bytes = bytes.saturating_sub(f.start_bytes);
        {
            let n = &mut self.nodes[f.node as usize];
            n.calls += 1;
            n.total_ns += total;
            n.child_ns += f.child_ns;
            n.allocs += d_allocs;
            n.alloc_bytes += d_bytes;
            n.child_allocs += f.child_allocs;
            n.child_alloc_bytes += f.child_bytes;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += total;
            parent.child_allocs += d_allocs;
            parent.child_bytes += d_bytes;
        }
        if end > self.last_ns {
            self.last_ns = end;
        }
        if self.timeline.len() < TIMELINE_CAP {
            self.timeline.push(TimelineEv {
                node: f.node,
                span_id: f.span_id,
                parent_span: f.parent_span,
                start_ns: f.start_ns,
                end_ns: end,
            });
        } else {
            self.timeline_dropped += 1;
        }
    }
}

struct ThreadSlot {
    label: Mutex<String>,
    state: Mutex<ThreadState>,
}

struct Shared {
    /// Distinguishes profilers in the per-thread slot cache.
    id: u64,
    epoch: Instant,
    threads: Mutex<Vec<Arc<ThreadSlot>>>,
}

static NEXT_PROFILER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(profiler id, slot)` cache; linear scan — a thread profiles
    /// for at most one or two profilers at a time.
    static SLOTS: RefCell<Vec<(u64, Arc<ThreadSlot>)>> = const { RefCell::new(Vec::new()) };
}

impl Shared {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// This thread's slot for this profiler, registering one on first
    /// use. Returns `None` only during thread teardown.
    fn thread_slot(self: &Arc<Shared>) -> Option<Arc<ThreadSlot>> {
        SLOTS
            .try_with(|cache| {
                let mut cache = cache.borrow_mut();
                // Drop cache entries whose profiler died (only the cache
                // still holds the slot) so long-lived threads don't leak.
                cache.retain(|(_, slot)| Arc::strong_count(slot) > 1);
                if let Some((_, slot)) = cache.iter().find(|(id, _)| *id == self.id) {
                    return slot.clone();
                }
                let mut threads = self.threads.lock().unwrap();
                let slot = Arc::new(ThreadSlot {
                    label: Mutex::new(format!("thread-{}", threads.len())),
                    state: Mutex::new(ThreadState::new()),
                });
                threads.push(slot.clone());
                drop(threads);
                cache.push((self.id, slot.clone()));
                slot
            })
            .ok()
    }
}

// ---------------------------------------------------------------------------
// Public handle
// ---------------------------------------------------------------------------

/// A handle to one profiling session. Cheap to clone (all clones feed
/// the same accumulators); `Default` is [`Profiler::disabled`].
#[derive(Clone, Default)]
pub struct Profiler(Option<Arc<Shared>>);

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Profiler {
    /// An enabled profiler with a fresh epoch.
    pub fn new() -> Profiler {
        Profiler(Some(Arc::new(Shared {
            id: NEXT_PROFILER_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            threads: Mutex::new(Vec::new()),
        })))
    }

    /// A disabled profiler: every operation is a no-op costing one
    /// branch, with zero heap allocation.
    pub fn disabled() -> Profiler {
        Profiler(None)
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Open a scoped phase. The returned guard closes the phase when
    /// dropped; nested calls build a per-thread phase tree. `name`
    /// must be a string literal — nodes are interned by
    /// `(parent, name)` pointer-free comparison of the static str.
    #[inline]
    #[must_use = "the phase closes when the guard drops"]
    pub fn phase(&self, name: &'static str) -> ProfPhase {
        let Some(shared) = &self.0 else {
            return ProfPhase(None);
        };
        let Some(slot) = shared.thread_slot() else {
            return ProfPhase(None);
        };
        let now = shared.now_ns();
        let depth;
        {
            let mut st = slot.state.lock().unwrap();
            let parent_key = st.stack.last().map(|f| f.node).unwrap_or(ROOT);
            let parent_span = st.stack.last().map(|f| f.span_id);
            let node = st.intern(parent_key, name);
            let span_id = st.next_span;
            st.next_span += 1;
            if st.first_ns.is_none() {
                st.first_ns = Some(now);
            }
            // Counters read last so interning / map growth on a cold
            // path is charged to the *enclosing* phase, not this one.
            let (allocs, bytes) = thread_alloc_counts();
            st.stack.push(Frame {
                node,
                start_ns: now,
                child_ns: 0,
                start_allocs: allocs,
                start_bytes: bytes,
                child_allocs: 0,
                child_bytes: 0,
                span_id,
                parent_span,
            });
            depth = st.stack.len();
        }
        ProfPhase(Some(Active {
            shared: shared.clone(),
            slot,
            depth,
        }))
    }

    /// Record an aggregate phase without a guard: `name` becomes a
    /// closed child of this thread's innermost open phase (a root when
    /// none is open) carrying `cost`, with each of `children` as its
    /// own leaf child. The open phase counts `cost` as child cost, so
    /// its self time and allocations exclude it, and `name`'s self is
    /// `cost` minus the children's. Repeated records under the same
    /// path accumulate like repeated guards. Aggregates have no start
    /// or end, so they add nothing to the timeline. No-op when
    /// disabled.
    ///
    /// A sampled estimate one preempted sample inflated could outweigh
    /// its parent, so `cost` is capped at the open phase's elapsed time
    /// minus what its children already claimed, the children's times
    /// scale with it, and the cut adds up in [`ThreadProf::capped_ns`].
    pub fn record<I>(&self, name: &'static str, mut cost: PhaseCost, children: I)
    where
        I: IntoIterator<Item = (&'static str, PhaseCost)>,
    {
        let Some(shared) = &self.0 else {
            return;
        };
        let Some(slot) = shared.thread_slot() else {
            return;
        };
        let mut st = slot.state.lock().unwrap();
        // `kept / estimated`, the factor every child's time is scaled by.
        let mut scale = None;
        if let Some(open) = st.stack.last() {
            let left = shared
                .now_ns()
                .saturating_sub(open.start_ns)
                .saturating_sub(open.child_ns);
            if cost.ns > left {
                st.capped_ns += cost.ns - left;
                scale = Some((u128::from(left), u128::from(cost.ns)));
                cost.ns = left;
            }
        }
        let parent = st.stack.last().map(|f| f.node).unwrap_or(ROOT);
        let node = st.intern(parent, name);
        st.nodes[node as usize].add(cost);
        for (child_name, mut child) in children {
            if let Some((kept, estimated)) = scale {
                child.ns = (u128::from(child.ns) * kept / estimated) as u64;
            }
            let id = st.intern(node, child_name);
            st.nodes[id as usize].add(child);
            let n = &mut st.nodes[node as usize];
            n.child_ns += child.ns;
            n.child_allocs += child.allocs;
            n.child_alloc_bytes += child.bytes;
        }
        if let Some(open) = st.stack.last_mut() {
            open.child_ns += cost.ns;
            open.child_allocs += cost.allocs;
            open.child_bytes += cost.bytes;
        }
    }

    /// Label this thread in snapshots/exports (e.g. `worker-3`). No-op
    /// when disabled.
    pub fn set_thread_label(&self, label: &str) {
        if let Some(shared) = &self.0 {
            if let Some(slot) = shared.thread_slot() {
                *slot.label.lock().unwrap() = label.to_string();
            }
        }
    }

    /// Nanoseconds since this profiler's epoch (0 when disabled).
    /// Useful for correlating external measurements with exports.
    pub fn elapsed_ns(&self) -> u64 {
        self.0.as_ref().map(|s| s.now_ns()).unwrap_or(0)
    }

    /// A consistent view of every thread's phase tree. Open phases are
    /// included as if they closed at the snapshot instant (their
    /// in-flight time and allocations count), so a live snapshot
    /// mid-campaign still attributes the full elapsed window.
    pub fn snapshot(&self) -> ProfSnapshot {
        let Some(shared) = &self.0 else {
            return ProfSnapshot::default();
        };
        let now = shared.now_ns();
        let slots: Vec<Arc<ThreadSlot>> = shared.threads.lock().unwrap().clone();
        let mut threads = Vec::with_capacity(slots.len());
        for slot in slots {
            let label = slot.label.lock().unwrap().clone();
            let st = slot.state.lock().unwrap();
            // Effective per-node accumulators = closed totals plus the
            // open stack frames as if they ended now.
            let mut eff: Vec<NodeStat> = st.nodes.clone();
            // This thread's *current* allocation counters only make
            // sense from the owning thread; for open frames observed
            // cross-thread we attribute time but leave in-flight
            // allocation deltas out (they land when the frame closes).
            for (i, f) in st.stack.iter().enumerate() {
                let run = now.saturating_sub(f.start_ns);
                let n = &mut eff[f.node as usize];
                n.calls += 1;
                n.total_ns += run;
                let mut child = f.child_ns;
                if let Some(inner) = st.stack.get(i + 1) {
                    // The next frame up the stack is this frame's only
                    // open child; its in-flight time is our child time.
                    child += now.saturating_sub(inner.start_ns);
                }
                n.child_ns += child;
                n.child_allocs += f.child_allocs;
                n.child_alloc_bytes += f.child_bytes;
            }
            let nodes: Vec<ProfNode> = eff
                .iter()
                .map(|n| ProfNode {
                    name: n.name,
                    parent: n.parent.map(|p| p as usize),
                    calls: n.calls,
                    total_ns: n.total_ns,
                    self_ns: n.total_ns.saturating_sub(n.child_ns),
                    allocs: n.allocs,
                    self_allocs: n.allocs.saturating_sub(n.child_allocs),
                    alloc_bytes: n.alloc_bytes,
                    self_alloc_bytes: n.alloc_bytes.saturating_sub(n.child_alloc_bytes),
                })
                .collect();
            let active_ns = match st.first_ns {
                Some(first) => {
                    let end = if st.stack.is_empty() { st.last_ns } else { now };
                    end.saturating_sub(first)
                }
                None => 0,
            };
            let timeline = st
                .timeline
                .iter()
                .map(|ev| ProfSpan {
                    node: ev.node as usize,
                    span_id: ev.span_id,
                    parent_span: ev.parent_span,
                    start_ns: ev.start_ns,
                    end_ns: ev.end_ns,
                })
                .collect();
            threads.push(ThreadProf {
                label,
                active_ns,
                nodes,
                timeline,
                timeline_dropped: st.timeline_dropped,
                capped_ns: st.capped_ns,
            });
        }
        ProfSnapshot { threads }
    }
}

/// Scope guard for one open phase; closes it (recording elapsed time
/// and allocation deltas) on drop. Robust to out-of-order drops: a
/// guard dropped while inner guards are still open closes the
/// abandoned inner frames first; a guard whose frame was already
/// closed by an outer guard does nothing.
#[must_use = "the phase closes when the guard drops"]
pub struct ProfPhase(Option<Active>);

struct Active {
    shared: Arc<Shared>,
    slot: Arc<ThreadSlot>,
    depth: usize,
}

impl Drop for ProfPhase {
    fn drop(&mut self) {
        let Some(act) = self.0.take() else {
            return;
        };
        let end = act.shared.now_ns();
        let (allocs, bytes) = thread_alloc_counts();
        let mut st = act.slot.state.lock().unwrap();
        while st.stack.len() >= act.depth {
            st.close_top(end, allocs, bytes);
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots & exporters
// ---------------------------------------------------------------------------

/// One node of a thread's phase tree, with self/total splits for both
/// time and allocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfNode {
    /// Phase name (the literal passed to [`Profiler::phase`]).
    pub name: &'static str,
    /// Index of the parent node within the same thread, if any.
    pub parent: Option<usize>,
    /// Times this exact phase path was entered.
    pub calls: u64,
    /// Wall nanoseconds inside this phase, children included.
    pub total_ns: u64,
    /// Wall nanoseconds inside this phase, children excluded.
    pub self_ns: u64,
    /// Heap allocations inside this phase, children included.
    pub allocs: u64,
    /// Heap allocations inside this phase, children excluded.
    pub self_allocs: u64,
    /// Heap bytes allocated inside this phase, children included.
    pub alloc_bytes: u64,
    /// Heap bytes allocated inside this phase, children excluded.
    pub self_alloc_bytes: u64,
}

/// One closed span from a thread's bounded timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfSpan {
    /// Index into the owning [`ThreadProf::nodes`].
    pub node: usize,
    /// Per-thread monotonically increasing span id.
    pub span_id: u64,
    /// Enclosing span's id, if the phase was nested.
    pub parent_span: Option<u64>,
    /// Start, nanoseconds since the profiler epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the profiler epoch.
    pub end_ns: u64,
}

/// One profiled thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadProf {
    /// Thread label ([`Profiler::set_thread_label`] or `thread-N`).
    pub label: String,
    /// First phase entry to last phase exit (or the snapshot instant
    /// while phases are still open) on this thread.
    pub active_ns: u64,
    /// The thread's phase tree.
    pub nodes: Vec<ProfNode>,
    /// Bounded timeline of closed spans, oldest first.
    pub timeline: Vec<ProfSpan>,
    /// Spans that did not fit the timeline (tree totals still include
    /// them).
    pub timeline_dropped: u64,
    /// Nanoseconds [`Profiler::record`] cut from aggregates so that
    /// each fits the time its open phase had left.
    pub capped_ns: u64,
}

/// A point-in-time view of every profiled thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfSnapshot {
    /// Per-thread phase trees, in thread-registration order.
    pub threads: Vec<ThreadProf>,
}

/// One node of the cross-thread merged phase tree, pre-order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedNode {
    /// Phase name.
    pub name: &'static str,
    /// Nesting depth (0 = root phase).
    pub depth: usize,
    /// Calls summed across threads.
    pub calls: u64,
    /// Total nanoseconds summed across threads.
    pub total_ns: u64,
    /// Self nanoseconds summed across threads.
    pub self_ns: u64,
    /// Allocations summed across threads.
    pub allocs: u64,
    /// Self allocations summed across threads.
    pub self_allocs: u64,
    /// Allocated bytes summed across threads.
    pub alloc_bytes: u64,
    /// Self allocated bytes summed across threads.
    pub self_alloc_bytes: u64,
}

impl ThreadProf {
    /// `a;b;c` path of node `idx`.
    fn path_of(&self, idx: usize) -> String {
        let mut segs = Vec::new();
        let mut cur = Some(idx);
        while let Some(i) = cur {
            segs.push(self.nodes[i].name);
            cur = self.nodes[i].parent;
        }
        segs.reverse();
        segs.join(";")
    }
}

impl ProfSnapshot {
    /// Total nanoseconds attributed to root phases across all threads
    /// — the numerator of an attribution ratio whose denominator is
    /// `threads × campaign wall time`.
    pub fn root_total_ns(&self) -> u64 {
        self.threads
            .iter()
            .flat_map(|t| t.nodes.iter())
            .filter(|n| n.parent.is_none())
            .map(|n| n.total_ns)
            .sum()
    }

    /// Nanoseconds cut from recorded aggregates across all threads
    /// ([`ThreadProf::capped_ns`]).
    pub fn capped_ns(&self) -> u64 {
        self.threads.iter().map(|t| t.capped_ns).sum()
    }

    /// Self-nanoseconds per phase *name*, summed over every node with
    /// that name on every thread — the flat profile that feeds live
    /// telemetry (`phase split`) and quick dominance checks. Sorted by
    /// descending self time, then name.
    pub fn flat_self_ns(&self) -> Vec<(&'static str, u64)> {
        let mut acc: BTreeMap<&'static str, u64> = BTreeMap::new();
        for t in &self.threads {
            for n in &t.nodes {
                *acc.entry(n.name).or_insert(0) += n.self_ns;
            }
        }
        let mut v: Vec<(&'static str, u64)> = acc.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// Folded-stacks text (the format `flamegraph.pl` and speedscope
    /// ingest): one `path;seg value` line per phase path, merged
    /// across threads, value = self-nanoseconds, paths sorted
    /// lexicographically so output is deterministic for a given tree.
    pub fn folded(&self) -> String {
        let mut acc: BTreeMap<String, u64> = BTreeMap::new();
        for t in &self.threads {
            for (idx, n) in t.nodes.iter().enumerate() {
                if n.self_ns == 0 {
                    continue;
                }
                *acc.entry(t.path_of(idx)).or_insert(0) += n.self_ns;
            }
        }
        let mut out = String::new();
        for (path, ns) in acc {
            out.push_str(&path);
            out.push(' ');
            out.push_str(&ns.to_string());
            out.push('\n');
        }
        out
    }

    /// The timelines as [`SpanRecord`]s for
    /// [`crate::export::chrome_trace`]: one trace id (= one Chrome
    /// `tid` lane) per thread, span ids made globally unique by a
    /// per-thread offset.
    pub fn chrome_spans(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for (t_idx, t) in self.threads.iter().enumerate() {
            let offset = (t_idx as u64) << 40;
            for ev in &t.timeline {
                out.push(SpanRecord {
                    id: SpanId(offset | ev.span_id),
                    trace: TraceId(t_idx as u64),
                    parent: ev.parent_span.map(|p| SpanId(offset | p)),
                    name: t.nodes[ev.node].name,
                    cat: "prof",
                    start_ns: ev.start_ns,
                    end_ns: Some(ev.end_ns),
                    attrs: Vec::new(),
                });
            }
        }
        out
    }

    /// Merge the per-thread trees into one tree keyed by phase *path*
    /// (two threads' `worker;run_device;des` nodes fold together),
    /// returned pre-order with each level sorted by descending total
    /// time (name as tiebreak, so the order is deterministic).
    pub fn merged(&self) -> Vec<MergedNode> {
        #[derive(Default)]
        struct Agg {
            calls: u64,
            total_ns: u64,
            self_ns: u64,
            allocs: u64,
            self_allocs: u64,
            alloc_bytes: u64,
            self_alloc_bytes: u64,
            children: BTreeMap<&'static str, Agg>,
        }
        let mut root = Agg::default();
        for t in &self.threads {
            for (idx, n) in t.nodes.iter().enumerate() {
                // Walk the path from the root down, creating aggregates.
                let mut segs = Vec::new();
                let mut cur = Some(idx);
                while let Some(i) = cur {
                    segs.push(t.nodes[i].name);
                    cur = t.nodes[i].parent;
                }
                segs.reverse();
                let mut agg = &mut root;
                for seg in segs {
                    agg = agg.children.entry(seg).or_default();
                }
                agg.calls += n.calls;
                agg.total_ns += n.total_ns;
                agg.self_ns += n.self_ns;
                agg.allocs += n.allocs;
                agg.self_allocs += n.self_allocs;
                agg.alloc_bytes += n.alloc_bytes;
                agg.self_alloc_bytes += n.self_alloc_bytes;
            }
        }
        fn emit(agg: &Agg, depth: usize, out: &mut Vec<MergedNode>) {
            let mut kids: Vec<(&&'static str, &Agg)> = agg.children.iter().collect();
            kids.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
            for (name, child) in kids {
                out.push(MergedNode {
                    name,
                    depth,
                    calls: child.calls,
                    total_ns: child.total_ns,
                    self_ns: child.self_ns,
                    allocs: child.allocs,
                    self_allocs: child.self_allocs,
                    alloc_bytes: child.alloc_bytes,
                    self_alloc_bytes: child.self_alloc_bytes,
                });
                emit(child, depth + 1, out);
            }
        }
        let mut out = Vec::new();
        emit(&root, 0, &mut out);
        out
    }
}

impl crate::ToJson for ProfSnapshot {
    fn to_json(&self) -> crate::Json {
        let mut threads = crate::Json::array();
        for t in &self.threads {
            let mut nodes = crate::Json::array();
            for n in &t.nodes {
                let mut obj = crate::Json::object();
                obj.set("name", n.name);
                match n.parent {
                    Some(p) => obj.set("parent", p as u64),
                    None => obj.set("parent", crate::Json::Null),
                }
                obj.set("calls", n.calls);
                obj.set("total_ns", n.total_ns);
                obj.set("self_ns", n.self_ns);
                obj.set("allocs", n.allocs);
                obj.set("self_allocs", n.self_allocs);
                obj.set("alloc_bytes", n.alloc_bytes);
                obj.set("self_alloc_bytes", n.self_alloc_bytes);
                nodes.push(obj);
            }
            let mut obj = crate::Json::object();
            obj.set("label", &t.label);
            obj.set("active_ns", t.active_ns);
            obj.set("nodes", nodes);
            obj.set("timeline_spans", t.timeline.len() as u64);
            obj.set("timeline_dropped", t.timeline_dropped);
            threads.push(obj);
        }
        let mut doc = crate::Json::object();
        doc.set("format", "acutemon-prof-snapshot");
        doc.set("threads", threads);
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    fn node<'a>(t: &'a ThreadProf, path: &[&str]) -> &'a ProfNode {
        let mut parent: Option<usize> = None;
        let mut found = None;
        for seg in path {
            let idx = t
                .nodes
                .iter()
                .position(|n| n.name == *seg && n.parent == parent)
                .unwrap_or_else(|| panic!("missing node {seg} under {parent:?}"));
            parent = Some(idx);
            found = Some(idx);
        }
        &t.nodes[found.unwrap()]
    }

    #[test]
    fn nested_phases_split_self_and_child_time() {
        let p = Profiler::new();
        {
            let _a = p.phase("a");
            spin(Duration::from_millis(2));
            {
                let _b = p.phase("b");
                spin(Duration::from_millis(2));
            }
            spin(Duration::from_millis(1));
        }
        let snap = p.snapshot();
        assert_eq!(snap.threads.len(), 1);
        let t = &snap.threads[0];
        let a = node(t, &["a"]);
        let b = node(t, &["a", "b"]);
        assert_eq!(a.calls, 1);
        assert_eq!(b.calls, 1);
        assert!(a.total_ns >= b.total_ns);
        assert_eq!(a.self_ns, a.total_ns - b.total_ns);
        assert!(b.total_ns >= 1_000_000, "b ran ≥2ms, got {}ns", b.total_ns);
        assert_eq!(snap.root_total_ns(), a.total_ns);
    }

    #[test]
    fn reentrant_phases_build_self_named_children() {
        fn recurse(p: &Profiler, depth: u32) {
            let _g = p.phase("r");
            if depth > 0 {
                recurse(p, depth - 1);
            }
        }
        let p = Profiler::new();
        recurse(&p, 2);
        let t = &p.snapshot().threads[0];
        assert_eq!(node(t, &["r"]).calls, 1);
        assert_eq!(node(t, &["r", "r"]).calls, 1);
        assert_eq!(node(t, &["r", "r", "r"]).calls, 1);
        // Same name, same parent folds into one node:
        recurse(&p, 0);
        let t = &p.snapshot().threads[0];
        assert_eq!(node(t, &["r"]).calls, 2);
    }

    #[test]
    fn phases_accumulate_across_threads() {
        let p = Profiler::new();
        let mut handles = Vec::new();
        for w in 0..3 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                p.set_thread_label(&format!("worker-{w}"));
                for _ in 0..10 {
                    let _g = p.phase("work");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = p.snapshot();
        assert_eq!(snap.threads.len(), 3);
        let mut labels: Vec<&str> = snap.threads.iter().map(|t| t.label.as_str()).collect();
        labels.sort();
        assert_eq!(labels, ["worker-0", "worker-1", "worker-2"]);
        let total_calls: u64 = snap
            .threads
            .iter()
            .map(|t| t.nodes.iter().map(|n| n.calls).sum::<u64>())
            .sum();
        assert_eq!(total_calls, 30);
        let flat = snap.flat_self_ns();
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].0, "work");
        let merged = snap.merged();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].calls, 30);
        assert_eq!(merged[0].depth, 0);
    }

    #[test]
    fn out_of_order_guard_drop_is_lenient() {
        let p = Profiler::new();
        let a = p.phase("a");
        let b = p.phase("b");
        drop(a); // closes b first, then a
        drop(b); // frame already gone — no-op
        let t = &p.snapshot().threads[0];
        assert_eq!(node(t, &["a"]).calls, 1);
        assert_eq!(node(t, &["a", "b"]).calls, 1);
        // The tree is intact for further use:
        {
            let _c = p.phase("c");
        }
        let t = &p.snapshot().threads[0];
        assert_eq!(node(t, &["c"]).calls, 1);
        assert!(node(t, &["c"]).parent.is_none());
    }

    #[test]
    fn snapshot_includes_open_frames() {
        let p = Profiler::new();
        let _a = p.phase("a");
        spin(Duration::from_millis(2));
        let _b = p.phase("b");
        spin(Duration::from_millis(1));
        let snap = p.snapshot();
        let t = &snap.threads[0];
        let a = node(t, &["a"]);
        let b = node(t, &["a", "b"]);
        assert_eq!(a.calls, 1);
        assert!(a.total_ns >= 3_000_000 - 1_000_000); // ≈3ms elapsed
        assert!(b.total_ns >= 500_000);
        assert_eq!(a.self_ns, a.total_ns - b.total_ns);
        assert!(t.active_ns >= a.total_ns);
    }

    // Golden test: folded output for a hand-built snapshot is exact.
    #[test]
    fn folded_stacks_golden() {
        fn n(name: &'static str, parent: Option<usize>, self_ns: u64, total_ns: u64) -> ProfNode {
            ProfNode {
                name,
                parent,
                calls: 1,
                total_ns,
                self_ns,
                allocs: 0,
                self_allocs: 0,
                alloc_bytes: 0,
                self_alloc_bytes: 0,
            }
        }
        let snap = ProfSnapshot {
            threads: vec![
                ThreadProf {
                    label: "worker-0".to_string(),
                    active_ns: 1000,
                    nodes: vec![
                        n("worker", None, 100, 1000),
                        n("run_device", Some(0), 0, 900),
                        n("des", Some(1), 700, 700),
                        n("setup", Some(1), 200, 200),
                    ],
                    timeline: Vec::new(),
                    timeline_dropped: 0,
                    capped_ns: 0,
                },
                ThreadProf {
                    label: "worker-1".to_string(),
                    active_ns: 500,
                    nodes: vec![
                        n("worker", None, 50, 500),
                        n("run_device", Some(0), 0, 450),
                        n("des", Some(1), 450, 450),
                    ],
                    timeline: Vec::new(),
                    timeline_dropped: 0,
                    capped_ns: 0,
                },
            ],
        };
        assert_eq!(
            snap.folded(),
            "worker 150\n\
             worker;run_device;des 1150\n\
             worker;run_device;setup 200\n"
        );
        let merged = snap.merged();
        assert_eq!(merged[0].name, "worker");
        assert_eq!(merged[0].total_ns, 1500);
        assert_eq!(merged[1].name, "run_device");
        assert_eq!(merged[1].depth, 1);
        assert_eq!(merged[2].name, "des"); // larger total than setup
        assert_eq!(merged[2].total_ns, 1150);
        assert_eq!(snap.root_total_ns(), 1500);
    }

    #[test]
    fn chrome_spans_reference_thread_lanes() {
        let p = Profiler::new();
        {
            let _a = p.phase("a");
            let _b = p.phase("b");
        }
        let snap = p.snapshot();
        let spans = snap.chrome_spans();
        assert_eq!(spans.len(), 2);
        // Both spans on the same lane; b's parent is a.
        assert_eq!(spans[0].trace.0, 0);
        assert_eq!(spans[1].trace.0, 0);
        let b = spans.iter().find(|s| s.name == "b").unwrap();
        let a = spans.iter().find(|s| s.name == "a").unwrap();
        assert_eq!(b.parent, Some(a.id));
        assert!(a.end_ns.unwrap() >= b.end_ns.unwrap());
        let json = crate::export::chrome_trace(&spans).to_string();
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"prof\""));
    }

    #[test]
    fn recorded_aggregate_nests_under_open_phase() {
        let cost = |calls, ns, allocs| PhaseCost {
            calls,
            ns,
            allocs,
            bytes: 8 * allocs,
        };
        let p = Profiler::new();
        {
            let _outer = p.phase("des");
            spin(Duration::from_millis(2));
            for _ in 0..2 {
                p.record(
                    "dispatch",
                    cost(10, 1_000, 3),
                    [("x", cost(6, 700, 3)), ("y", cost(4, 300, 0))],
                );
            }
        }
        let t = &p.snapshot().threads[0];
        let des = node(t, &["des"]);
        let dispatch = node(t, &["des", "dispatch"]);
        let x = node(t, &["des", "dispatch", "x"]);
        assert_eq!(des.calls, 1);
        assert_eq!(des.self_ns, des.total_ns - 2_000);
        assert_eq!((dispatch.calls, dispatch.total_ns), (20, 2_000));
        assert_eq!((dispatch.self_ns, dispatch.self_allocs), (0, 0));
        assert_eq!((dispatch.allocs, dispatch.alloc_bytes), (6, 48));
        assert_eq!((x.calls, x.total_ns, x.self_allocs), (12, 1_400, 6));
        assert_eq!(node(t, &["des", "dispatch", "y"]).calls, 8);
        // Recorded with nothing open, the aggregate is a root.
        p.record("loose", cost(1, 5, 0), []);
        assert_eq!(node(&p.snapshot().threads[0], &["loose"]).total_ns, 5);
        // A disabled profiler ignores records.
        let off = Profiler::disabled();
        off.record("loose", cost(1, 5, 0), []);
        assert_eq!(off.snapshot(), ProfSnapshot::default());
    }

    /// A layer estimate one preempted sample inflated cannot outweigh
    /// its parent: a 10 ms aggregate recorded under a phase open for
    /// 2 ms keeps only the time the phase has left, its children shrink
    /// by the same factor, and the cut is reported.
    #[test]
    fn recorded_aggregate_is_capped_at_its_open_phase() {
        let ms = |n: u64| n * 1_000_000;
        let cost = |ns| PhaseCost {
            calls: 64,
            ns,
            ..PhaseCost::default()
        };
        let p = Profiler::new();
        {
            let _des = p.phase("des");
            spin(Duration::from_millis(2));
            let layers = [("phy.sta", cost(ms(6))), ("phone", cost(ms(4)))];
            p.record("dispatch", cost(ms(10)), layers);
        }
        let snap = p.snapshot();
        let total = |path: &[&str]| node(&snap.threads[0], path).total_ns;
        let dispatch = total(&["des", "dispatch"]);
        assert!(
            ms(2) <= dispatch && dispatch <= total(&["des"]),
            "{dispatch}"
        );
        assert_eq!(snap.capped_ns() + dispatch, ms(10));
        // The layers keep their 6:4 split inside what is left (each
        // rounded down).
        let sta = total(&["des", "dispatch", "phy.sta"]);
        let layers = sta + total(&["des", "dispatch", "phone"]);
        assert!(layers <= dispatch && dispatch - layers <= 1, "{layers}");
        assert!(sta.abs_diff(dispatch * 6 / 10) <= 1, "{sta} of {dispatch}");
        // A root aggregate has no phase to fit, and nothing is cut.
        let root = Profiler::new();
        root.record("loose", cost(ms(10)), []);
        assert_eq!(root.snapshot().capped_ns(), 0);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        p.set_thread_label("ignored");
        {
            let _g = p.phase("a");
            let _h = p.phase("b");
        }
        assert_eq!(p.snapshot(), ProfSnapshot::default());
        assert_eq!(p.snapshot().folded(), "");
        assert_eq!(p.elapsed_ns(), 0);
    }

    #[test]
    fn two_profilers_on_one_thread_stay_separate() {
        let p1 = Profiler::new();
        let p2 = Profiler::new();
        {
            let _a = p1.phase("only-p1");
            let _b = p2.phase("only-p2");
        }
        let s1 = p1.snapshot();
        let s2 = p2.snapshot();
        assert_eq!(s1.threads[0].nodes[0].name, "only-p1");
        assert_eq!(s2.threads[0].nodes[0].name, "only-p2");
        assert_eq!(s1.threads[0].nodes.len(), 1);
        assert_eq!(s2.threads[0].nodes.len(), 1);
    }

    #[test]
    fn snapshot_to_json_is_well_formed() {
        use crate::ToJson;
        let p = Profiler::new();
        {
            let _g = p.phase("a");
        }
        let doc = p.snapshot().to_json();
        assert_eq!(
            doc.get("format").and_then(crate::Json::as_str),
            Some("acutemon-prof-snapshot")
        );
        let reparsed = crate::Json::parse(&doc.to_string()).unwrap();
        assert!(reparsed.get("threads").is_some());
    }
}
