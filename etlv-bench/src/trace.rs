//! The benchmark's own span recorder and counting allocator.
//!
//! Spans are recorded from the benchmark's side of each layer boundary —
//! around the calls into a layer's public functions — kept in memory, and
//! written as one JSON object per line when the run ends. Tracing inside
//! the program is a later change; until then the node is a black box to
//! the trace except for what its `LoadReport` tells the client.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span. `parent` 0 marks a root; spans of one job share
/// `job`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub job: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(enabled),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// A fresh job id for grouping spans.
    pub fn next_job(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span that ran from `start` for `duration`; returns its id
    /// (0 when tracing is off).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        job: u64,
        start: Instant,
        duration: Duration,
    ) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .lock()
            .expect("no recorder panics while holding the span list")
            .push(Span {
                id,
                parent,
                job,
                name,
                start_ns,
                end_ns: start_ns + duration.as_nanos() as u64,
            });
        id
    }

    /// Run `f` inside a span and return its result with the time it took.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u64,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let value = f();
        let elapsed = start.elapsed();
        self.record(name, parent, job, start, elapsed);
        (value, elapsed)
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().map(|s| s.len()).unwrap_or(0)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self
            .spans
            .lock()
            .expect("no recorder panics while holding the span list");
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"job\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.job, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static INSTALLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Allocations a thread counts privately before adding them to the
/// shared totals. Two shared atomic adds per allocation cost the traced
/// run almost a tenth of its throughput; one pair per batch costs
/// nothing measurable, and what a thread has not yet flushed when the
/// totals are read is at most a batch — against millions.
const FLUSH_EVERY: u64 = 1024;

thread_local! {
    // Plain `Cell`s with constant initialisers: no lazy allocation and no
    // destructor, so the allocator may touch them at any point of a
    // thread's life.
    static LOCAL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LOCAL_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    LOCAL_BYTES.with(|b| b.set(b.get() + bytes as u64));
    LOCAL_ALLOCS.with(|n| {
        n.set(n.get() + 1);
        if n.get() >= FLUSH_EVERY {
            ALLOCS.fetch_add(n.replace(0), Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(LOCAL_BYTES.with(|b| b.replace(0)), Ordering::Relaxed);
        }
    });
}

/// The system allocator plus allocation counters, installed as the
/// global allocator by the `etlv-bench-traced` binary only.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only
// thread-local `Cell`s and relaxed atomics that publish no other data,
// and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

/// Called by the binary that installs [`CountingAlloc`].
pub fn mark_allocator_installed() {
    INSTALLED.store(true, Ordering::Relaxed);
}

pub fn allocator_installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
