//! The benchmark's own instrument: in-memory spans around its calls
//! into each layer, a counting global allocator armed only in traced
//! runs, and the summary statistics every workload reports.
//!
//! Nothing here reaches into the program: a span brackets one call the
//! benchmark makes (`PreparedTrace` build, `Experiment::run`, a socket
//! write, …). A span's *self time* is its duration minus the time its
//! child spans cover; summing self time by layer attributes a pass's
//! wall time, and whatever no span covers is reported as unattributed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The system allocator with an allocation counter in front, counting
/// only while [`arm_allocs`] has armed it.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates verbatim to `System` with the caller's
// arguments; the only added effect is a relaxed atomic increment, which
// publishes no memory and cannot fail.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // which is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts (or stops) counting allocations. Armed only in traced runs,
/// so untraced runs pay one relaxed load per allocation and nothing
/// else.
pub fn arm_allocs(armed: bool) {
    ARMED.store(armed, Ordering::Relaxed);
}

/// Allocations counted so far, process-wide.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One recorded span: a call into `layer`, nested under `parent`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `"filter"` or `"fig7"`.
    pub layer: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Allocations made while the span was open (children included).
    pub allocs: u64,
    /// Nanoseconds covered by direct child spans.
    child_ns: u64,
    /// Allocations made by direct child spans.
    child_allocs: u64,
}

impl Span {
    /// Duration of the span.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration minus the time covered by child spans.
    pub fn self_ns(&self) -> u64 {
        self.ns() - self.child_ns
    }

    /// Allocations minus those made inside child spans.
    pub fn self_allocs(&self) -> u64 {
        self.allocs - self.child_allocs
    }
}

/// A handle to an open span, returned by [`Tracer::begin`].
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<(usize, u64)>);

/// In-memory span recorder. A disabled tracer records nothing and its
/// `begin`/`end` are a branch each, so the untraced run measures the
/// plain calls.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    inject: Option<(&'static str, Duration)>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            inject: None,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Busy-waits `delay` inside every span of `layer` (the instrument's
    /// self-test: the injected time must show up in that layer alone).
    pub fn inject(&mut self, layer: &'static str, delay: Duration) {
        self.inject = Some((layer, delay));
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer` under the innermost open span.
    pub fn begin(&mut self, layer: &'static str) -> Open {
        self.begin_at(layer, Instant::now())
    }

    /// Opens a span of `layer` that started at `since`, for a call
    /// whose layer is known only once it is under way. `since` must not
    /// precede the end of the previous span at the same depth.
    pub fn begin_at(&mut self, layer: &'static str, since: Instant) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            parent: self.stack.last().copied(),
            start_ns: since.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: 0,
            allocs: 0,
            child_ns: 0,
            child_allocs: 0,
        });
        self.stack.push(idx);
        if let Some((target, delay)) = self.inject {
            if target == layer {
                let until = Instant::now() + delay;
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
        }
        Open(Some((idx, allocs())))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some((idx, allocs_at_begin)) = open.0 else {
            return;
        };
        let end = self.now_ns();
        let popped = self.stack.pop();
        assert_eq!(popped, Some(idx), "spans must close innermost first");
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.allocs = allocs() - allocs_at_begin;
        let (ns, made) = (span.ns(), span.allocs);
        if let Some(parent) = span.parent {
            self.spans[parent].child_ns += ns;
            self.spans[parent].child_allocs += made;
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(layer);
        let out = f();
        self.end(open);
        out
    }

    /// Every recorded span, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer totals over every span recorded so far.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for span in &self.spans {
            let t = out.entry(span.layer).or_default();
            t.calls += 1;
            t.self_ns += span.self_ns();
            t.self_allocs += span.self_allocs();
        }
        out
    }
}

/// One layer's totals across its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans recorded.
    pub calls: u64,
    /// Summed self time, in nanoseconds.
    pub self_ns: u64,
    /// Summed self allocations.
    pub self_allocs: u64,
}

impl LayerTotal {
    /// Self time in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

/// The median of `values` (mean of the middle two for even counts);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `values` (`q` in `(0, 1]`); `NaN`
/// when empty. Computed from the exact samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Samples needed so that the 95th percentile has at least ten samples
/// beyond it.
pub const P95_MIN_SAMPLES: usize = 200;

/// FNV-1a over `bytes`, chained from `hash` — the digest that compares
/// traced and untraced outputs.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        t.span("inner", || std::thread::sleep(Duration::from_millis(5)));
        t.end(outer);
        let layers = t.layers();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert!(inner.self_ns >= 5_000_000);
        assert!(outer.self_ns < inner.self_ns, "{outer:?} vs {inner:?}");
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span("layer", || 7);
        assert_eq!(x, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.95), 190.0);
        assert_eq!(quantile(&v, 0.5), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
