//! The live span/event journal: a bounded in-memory ring of fixed-shape
//! [`SpanEvent`]s with an optional JSONL sink.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use super::{SpanEvent, SpanIds};

struct JournalInner {
    epoch: Instant,
    capacity: usize,
    seq: AtomicU64,
    next_span: AtomicU64,
    dropped: AtomicU64,
    ring: Mutex<VecDeque<SpanEvent>>,
    sink: Option<Mutex<BufWriter<File>>>,
}

/// Bounded event journal shared by every instrumented subsystem. Emitting
/// copies one fixed-size struct under a short mutex; the optional sink
/// (JSONL, one event per line) is the only path that allocates.
#[derive(Clone)]
pub struct Journal {
    inner: Arc<JournalInner>,
}

impl Journal {
    /// New journal retaining the most recent `capacity` events. When
    /// `jsonl` is set, every event is also appended to that file; a file
    /// that cannot be created downgrades to in-memory only (the journal
    /// must never take down the data path).
    pub fn new(capacity: usize, jsonl: Option<&Path>) -> Journal {
        let sink = jsonl.and_then(|path| match File::create(path) {
            Ok(f) => Some(Mutex::new(BufWriter::new(f))),
            Err(e) => {
                eprintln!("journal: cannot create {}: {e}", path.display());
                None
            }
        });
        Journal {
            inner: Arc::new(JournalInner {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                seq: AtomicU64::new(0),
                next_span: AtomicU64::new(1),
                dropped: AtomicU64::new(0),
                ring: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 4096))),
                sink,
            }),
        }
    }

    /// Emit one untraced event (zero span ids). `chunk` and `value` are
    /// kind-specific payloads (see [`SpanEvent`]).
    pub fn emit(
        &self,
        kind: &'static str,
        job: u64,
        session: u64,
        chunk: u64,
        value: u64,
        dur: Duration,
    ) {
        self.emit_span(kind, SpanIds::default(), job, session, chunk, value, dur);
    }

    /// Emit one event carrying a causal identity.
    #[allow(clippy::too_many_arguments)]
    pub fn emit_span(
        &self,
        kind: &'static str,
        ids: SpanIds,
        job: u64,
        session: u64,
        chunk: u64,
        value: u64,
        dur: Duration,
    ) {
        // `seq` and `at_micros` are taken under the ring lock, so the
        // ring holds events in `seq` order and `tail` is oldest first.
        let event = {
            let mut ring = self.inner.ring.lock();
            let event = SpanEvent {
                seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
                at_micros: self.inner.epoch.elapsed().as_micros() as u64,
                kind,
                ids,
                job,
                session,
                chunk,
                value,
                dur_micros: dur.as_micros() as u64,
            };
            if ring.len() == self.inner.capacity {
                ring.pop_front();
                self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back(event);
            event
        };
        if let Some(sink) = &self.inner.sink {
            let mut w = sink.lock();
            let _ = writeln!(w, "{}", event.to_json());
        }
    }

    /// Mint a node-unique span id (nonzero, monotonic).
    pub fn next_span_id(&self) -> u64 {
        self.inner.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Events evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// All retained events for one job, oldest first.
    pub fn events_for_job(&self, job: u64) -> Vec<SpanEvent> {
        let ring = self.inner.ring.lock();
        ring.iter().filter(|e| e.job == job).copied().collect()
    }

    /// The most recent `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<SpanEvent> {
        let ring = self.inner.ring.lock();
        ring.iter()
            .skip(ring.len().saturating_sub(n))
            .copied()
            .collect()
    }

    /// Events emitted over the journal's lifetime (including evicted ones).
    pub fn emitted(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    /// Events currently retained in the ring.
    pub fn retained(&self) -> usize {
        self.inner.ring.lock().len()
    }

    /// Flush the JSONL sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.inner.sink {
            let _ = sink.lock().flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_ordering() {
        let j = Journal::new(3, None);
        for i in 0..5u64 {
            j.emit("t", i, 0, 0, 0, Duration::ZERO);
        }
        assert_eq!(j.emitted(), 5);
        assert_eq!(j.retained(), 3);
        let tail = j.tail(10);
        assert_eq!(tail.len(), 3);
        assert_eq!(
            tail.iter().map(|e| e.job).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest evicted, order preserved"
        );
        assert!(tail.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(j.tail(2).len(), 2);
        assert_eq!(j.tail(2)[1].job, 4);
    }

    #[test]
    fn concurrent_emitters_keep_the_ring_in_seq_order() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 5_000;
        let j = Journal::new((THREADS * PER_THREAD) as usize, None);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (j, start) = (&j, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        j.emit("t", t, 0, i, 0, Duration::ZERO);
                    }
                });
            }
        });
        let tail = j.tail(usize::MAX);
        assert_eq!(tail.len() as u64, THREADS * PER_THREAD);
        for w in tail.windows(2) {
            assert!(w[0].seq < w[1].seq, "seq out of order: {:?}", w);
            assert!(
                w[0].at_micros <= w[1].at_micros,
                "time out of order: {:?}",
                w
            );
        }
    }

    #[test]
    fn overflow_counts_dropped_events() {
        let j = Journal::new(3, None);
        assert_eq!(j.dropped(), 0);
        for i in 0..5u64 {
            j.emit("t", i, 0, 0, 0, Duration::ZERO);
        }
        assert_eq!(j.dropped(), 2);
    }

    #[test]
    fn events_for_job_filters_and_keeps_ids() {
        let j = Journal::new(16, None);
        let root = SpanIds {
            trace: 9,
            span: j.next_span_id(),
            parent: 0,
        };
        j.emit_span("job.begin", root, 7, 1, 0, 0, Duration::ZERO);
        j.emit("noise", 8, 0, 0, 0, Duration::ZERO);
        j.emit_span(
            "chunk.convert",
            root.child(j.next_span_id()),
            7,
            0,
            3,
            100,
            Duration::from_micros(40),
        );
        let events = j.events_for_job(7);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "job.begin");
        assert_eq!(events[1].ids.trace, 9);
        assert_eq!(events[1].ids.parent, root.span);
        assert_ne!(events[1].ids.span, root.span);
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let dir = std::env::temp_dir().join("etlv-obs-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("sink-{}.jsonl", std::process::id()));
        let j = Journal::new(8, Some(&path));
        j.emit("upload.part", 1, 0, 2, 1024, Duration::from_micros(55));
        j.emit("copy", 1, 0, 0, 0, Duration::from_micros(900));
        j.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains("\"kind\": \"upload.part\""),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"dur_micros\": 900"), "{}", lines[1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unwritable_sink_degrades_to_memory_only() {
        let j = Journal::new(4, Some(Path::new("/no/such/dir/x.jsonl")));
        j.emit("t", 0, 0, 0, 0, Duration::ZERO);
        assert_eq!(j.retained(), 1);
    }
}
