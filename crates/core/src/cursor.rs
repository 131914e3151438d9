//! TDFCursor: retrieval of export result chunks by index (paper §3/§4).
//!
//! The cursor executes the cross-compiled SELECT on the CDW once and
//! holds the row version the CDW answers with. For a whole-table read
//! (`SELECT *` or every column in order, nothing else) that is the
//! table's own version, shared copy-on-write: opening copies no row, and
//! a later write to the table copies the version instead, so the cursor
//! keeps serving the table as it was at open. Any other SELECT answers
//! with rows of its own. Chunk `i` is the slice of rows `[i·n, (i+1)·n)`,
//! served **by index** to parallel client export sessions in any order,
//! as often as they ask: the cursor is immutable after `open`, so
//! concurrent sessions need no lock and a repeated request is answered
//! again, as the legacy server answers it.
//!
//! A `ChunkWindow` holds what an export job encoded ahead of its
//! requests: at most one chunk per export session (four at most) beyond
//! the last chunk served, each taken by the request for its index.

use std::collections::BTreeMap;

use etlv_cdw::{Cdw, CdwError, RowVersion};
use etlv_protocol::data::{LegacyType, Value};
use parking_lot::{Condvar, Mutex};

/// A chunk served to an export session.
#[derive(Debug, Clone, PartialEq)]
pub struct CursorChunk<'a> {
    /// Chunk index.
    pub index: u64,
    /// The chunk's rows, borrowed from the cursor's row version.
    pub rows: &'a [Vec<Value>],
    /// Whether this is at/after the end of the result.
    pub last: bool,
}

/// The TDF cursor: an immutable view over one query result.
pub struct TdfCursor {
    columns: Vec<(String, LegacyType)>,
    rows: RowVersion,
    chunk_rows: usize,
}

impl TdfCursor {
    /// Execute `select_cdw` (CDW dialect text) and open a cursor over the
    /// row version it answers with — the table's own, shared, for a
    /// whole-table read — with `chunk_rows` rows per chunk. The cursor
    /// serves that version even if the table is written or dropped while
    /// it is open. `_prefetch` is ignored:
    /// the whole result is in memory once the CDW returns it, so there is
    /// no row to read ahead, and what the export does work ahead on —
    /// encoding chunks before they are asked for — is sized by the
    /// export's session count, not by a knob (see `ChunkWindow`). It
    /// stays in the signature because `etlv-bench` passes
    /// `VirtualizerConfig::export_prefetch_chunks`.
    pub fn open(
        cdw: &Cdw,
        select_cdw: &str,
        chunk_rows: u32,
        _prefetch: usize,
    ) -> Result<TdfCursor, CdwError> {
        let result = cdw.execute(select_cdw)?;
        Ok(TdfCursor {
            columns: result
                .columns
                .iter()
                .map(|(n, ty)| (n.clone(), ty.to_legacy()))
                .collect(),
            rows: result.rows,
            chunk_rows: chunk_rows.max(1) as usize,
        })
    }

    /// Result columns (legacy wire types).
    pub fn columns(&self) -> &[(String, LegacyType)] {
        &self.columns
    }

    /// Total rows in the result.
    pub fn rows_total(&self) -> u64 {
        self.rows.len() as u64
    }

    /// Total number of chunks.
    pub fn total_chunks(&self) -> u64 {
        self.rows.len().div_ceil(self.chunk_rows) as u64
    }

    /// Chunk `index`. Indexes at/after the end return an empty terminal
    /// chunk.
    pub fn chunk(&self, index: u64) -> CursorChunk<'_> {
        let total = self.total_chunks();
        let rows = if index < total {
            let start = index as usize * self.chunk_rows;
            &self.rows[start..(start + self.chunk_rows).min(self.rows.len())]
        } else {
            &[]
        };
        CursorChunk {
            index,
            rows,
            last: index.saturating_add(1) >= total,
        }
    }
}

/// Chunks of one export encoded ahead of their requests. A chunk is
/// claimed for encoding while the window has room — fewer than `depth`
/// indexes claimed past the last one served — and taken by the request
/// for its index, which waits out an encode in progress. A request whose
/// chunk was not encoded ahead (or was already served once) encodes it
/// itself. Closing the window drops what it holds and refuses further
/// claims and fills.
pub(crate) struct ChunkWindow<T> {
    state: Mutex<WindowState<T>>,
    filled: Condvar,
    depth: u64,
    total: u64,
}

struct WindowState<T> {
    slots: BTreeMap<u64, Slot<T>>,
    /// One past the highest index served.
    served_end: u64,
    /// The next index to claim: past every index served or claimed.
    frontier: u64,
    closed: bool,
}

enum Slot<T> {
    Encoding,
    Ready(T),
}

impl<T> ChunkWindow<T> {
    /// A window over `total` chunks, `depth` of them ahead of the last one
    /// served.
    pub(crate) fn new(depth: u64, total: u64) -> ChunkWindow<T> {
        ChunkWindow {
            state: Mutex::new(WindowState {
                slots: BTreeMap::new(),
                served_end: 0,
                frontier: 0,
                closed: false,
            }),
            filled: Condvar::new(),
            depth,
            total,
        }
    }

    /// Serve chunk `index`: the chunk encoded ahead, once its encode is
    /// done, or `None` when it was not encoded ahead — the request
    /// encodes it itself. Either way the index is served: no claim is
    /// made for it or for any index before it from now on.
    pub(crate) fn take(&self, index: u64) -> Option<T> {
        let mut state = self.state.lock();
        state.served_end = state.served_end.max(index.saturating_add(1));
        state.frontier = state.frontier.max(state.served_end);
        loop {
            match state.slots.remove(&index) {
                Some(Slot::Ready(chunk)) => return Some(chunk),
                Some(Slot::Encoding) => {
                    state.slots.insert(index, Slot::Encoding);
                    self.filled.wait(&mut state);
                }
                None => return None,
            }
        }
    }

    /// Claim the next chunk to encode ahead, if the window has room.
    pub(crate) fn claim(&self) -> Option<Claim<'_, T>> {
        let mut state = self.state.lock();
        let index = state.frontier;
        let room = index < self.total && index < state.served_end.saturating_add(self.depth);
        if state.closed || !room {
            return None;
        }
        state.frontier += 1;
        state.slots.insert(index, Slot::Encoding);
        Some(Claim {
            window: self,
            index,
            open: true,
        })
    }

    /// Drop every chunk held and refuse further claims and fills.
    pub(crate) fn close(&self) {
        let slots = {
            let mut state = self.state.lock();
            state.closed = true;
            std::mem::take(&mut state.slots)
        };
        self.filled.notify_all();
        drop(slots);
    }

    /// Land a claimed chunk: `Some` for its request to take, `None` when
    /// it could not be encoded ahead. A closed window drops it.
    fn land(&self, index: u64, chunk: Option<T>) {
        let refused = {
            let mut state = self.state.lock();
            match chunk {
                Some(chunk) if !state.closed => {
                    state.slots.insert(index, Slot::Ready(chunk));
                    None
                }
                chunk => {
                    state.slots.remove(&index);
                    chunk
                }
            }
        };
        self.filled.notify_all();
        drop(refused);
    }
}

/// A chunk index claimed for encoding ahead. [`fill`](Claim::fill)
/// lands it; a claim dropped unfilled (the job is gone, the encode
/// panicked) lands nothing, so no request waits on it.
pub(crate) struct Claim<'a, T> {
    window: &'a ChunkWindow<T>,
    index: u64,
    open: bool,
}

impl<T> Claim<'_, T> {
    /// The claimed chunk's index.
    pub(crate) fn index(&self) -> u64 {
        self.index
    }

    /// Land the encoded chunk, or `None` when it could not be encoded.
    pub(crate) fn fill(mut self, chunk: Option<T>) {
        self.open = false;
        self.window.land(self.index, chunk);
    }
}

impl<T> Drop for Claim<'_, T> {
    fn drop(&mut self) {
        if self.open {
            self.window.land(self.index, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    fn cdw_with_rows(n: usize) -> Cdw {
        let cdw = Cdw::new();
        cdw.execute("CREATE TABLE T (A INTEGER, B VARCHAR(10))")
            .unwrap();
        for i in 0..n {
            cdw.execute(&format!("INSERT INTO T VALUES ({i}, 'v{i}')"))
                .unwrap();
        }
        cdw
    }

    #[test]
    fn serves_chunks_in_any_order() {
        let cdw = cdw_with_rows(10);
        let cursor = TdfCursor::open(&cdw, "SELECT A, B FROM T ORDER BY A", 3, 2).unwrap();
        assert_eq!(cursor.total_chunks(), 4);
        assert_eq!(cursor.rows_total(), 10);
        // Request out of order.
        let c2 = cursor.chunk(2);
        let c0 = cursor.chunk(0);
        let c3 = cursor.chunk(3);
        let c1 = cursor.chunk(1);
        assert!(!c0.last && !c1.last && !c2.last);
        assert!(c3.last);
        assert_eq!(c3.rows.len(), 1);
        let all: Vec<i64> = [c0, c1, c2, c3]
            .iter()
            .flat_map(|c| c.rows)
            .map(|row| match &row[0] {
                Value::Int(v) => *v,
                _ => panic!(),
            })
            .collect();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        // The index arrives from the wire unchecked: even the largest one
        // is an empty terminal chunk.
        let end = cursor.chunk(u64::MAX);
        assert!(end.last && end.rows.is_empty());
    }

    #[test]
    fn reverse_order_consumption() {
        let cdw = cdw_with_rows(20);
        let cursor = TdfCursor::open(&cdw, "SELECT A FROM T ORDER BY A", 2, 1).unwrap();
        // Fetch every chunk strictly backwards.
        let total = cursor.total_chunks();
        let mut rows = 0usize;
        for index in (0..total).rev() {
            rows += cursor.chunk(index).rows.len();
        }
        assert_eq!(rows, 20);
    }

    /// A chunk already served is served again, with the same rows. The
    /// second request runs on another thread and is awaited with a
    /// timeout, so a cursor that cannot answer it fails the test instead
    /// of hanging it.
    #[test]
    fn repeated_request_returns_the_same_rows() {
        let cdw = cdw_with_rows(10);
        let cursor =
            Arc::new(TdfCursor::open(&cdw, "SELECT A, B FROM T ORDER BY A", 3, 2).unwrap());
        let (tx, rx) = mpsc::channel();
        let reader = Arc::clone(&cursor);
        std::thread::spawn(move || {
            let first = reader.chunk(0).rows.to_vec();
            let again = reader.chunk(0).rows.to_vec();
            let _ = tx.send((first, again));
        });
        let (first, again) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("a served chunk must be servable again");
        assert_eq!(first.len(), 3);
        assert_eq!(first, again);
    }

    #[test]
    fn beyond_end_is_empty_terminal() {
        let cdw = cdw_with_rows(2);
        let cursor = TdfCursor::open(&cdw, "SELECT A FROM T", 10, 2).unwrap();
        assert_eq!(cursor.total_chunks(), 1);
        let c5 = cursor.chunk(5);
        assert!(c5.last);
        assert!(c5.rows.is_empty());
    }

    #[test]
    fn empty_result() {
        let cdw = cdw_with_rows(0);
        let cursor = TdfCursor::open(&cdw, "SELECT A FROM T", 10, 2).unwrap();
        assert_eq!(cursor.total_chunks(), 0);
        assert_eq!(cursor.rows_total(), 0);
        let c0 = cursor.chunk(0);
        assert!(c0.last);
    }

    #[test]
    fn parallel_consumers() {
        let cdw = cdw_with_rows(100);
        let cursor = Arc::new(TdfCursor::open(&cdw, "SELECT A FROM T ORDER BY A", 7, 3).unwrap());
        let next = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cursor = Arc::clone(&cursor);
            let next = Arc::clone(&next);
            handles.push(std::thread::spawn(move || {
                let mut rows = 0u64;
                loop {
                    let idx = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    let chunk = cursor.chunk(idx);
                    rows += chunk.rows.len() as u64;
                    if chunk.last {
                        return rows;
                    }
                }
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn query_errors_surface() {
        let cdw = Cdw::new();
        assert!(TdfCursor::open(&cdw, "SELECT A FROM MISSING", 10, 2).is_err());
    }

    /// The window claims in index order, no further than `depth` past the
    /// last chunk served and never past the end; a request takes what was
    /// landed for it once, and encodes for itself otherwise.
    #[test]
    fn window_claims_ahead_of_the_last_served_chunk() {
        let window = ChunkWindow::<u64>::new(2, 5);
        let (a, b) = (window.claim().unwrap(), window.claim().unwrap());
        assert_eq!((a.index(), b.index()), (0, 1));
        assert!(window.claim().is_none(), "two ahead of nothing served");
        a.fill(Some(100));
        b.fill(None);
        assert_eq!(window.take(0), Some(100));
        assert_eq!(window.take(1), None, "not encoded: the request encodes it");
        assert_eq!(window.take(0), None, "a repeated request re-encodes");
        // Served up to 1: room for 2 and 3.
        let claims: Vec<_> = std::iter::from_fn(|| window.claim()).collect();
        assert_eq!(claims.iter().map(Claim::index).collect::<Vec<_>>(), [2, 3]);
        drop(claims);
        // A request past the frontier moves it: 4 is served, nothing
        // is left to claim before the end.
        assert_eq!(window.take(4), None);
        assert!(window.claim().is_none());
    }

    /// A request for a chunk being encoded ahead waits for it; a claim
    /// dropped unfilled (a panicking encoder) releases its waiter empty.
    #[test]
    fn a_request_waits_for_its_chunk_in_progress() {
        let window = ChunkWindow::<u64>::new(1, 10);
        std::thread::scope(|s| {
            let claim = window.claim().unwrap();
            let taker = s.spawn(|| window.take(0));
            claim.fill(Some(7));
            assert_eq!(taker.join().unwrap(), Some(7));

            window.take(1);
            let claim = window.claim().unwrap();
            assert_eq!(claim.index(), 2);
            let taker = s.spawn(|| window.take(2));
            drop(claim);
            assert_eq!(taker.join().unwrap(), None);
        });
    }

    /// Closing drops what the window holds, lands nothing more, and
    /// claims nothing more.
    #[test]
    fn a_closed_window_holds_nothing() {
        let held = Arc::new(());
        let window = ChunkWindow::<Arc<()>>::new(3, 10);
        window.claim().unwrap().fill(Some(Arc::clone(&held)));
        let late = window.claim().unwrap();
        assert_eq!(Arc::strong_count(&held), 2);
        window.close();
        assert_eq!(Arc::strong_count(&held), 1, "a ready chunk outlived close");
        late.fill(Some(Arc::clone(&held)));
        assert_eq!(Arc::strong_count(&held), 1, "a closed window took a chunk");
        assert!(window.claim().is_none());
        assert_eq!(window.take(1), None);
    }
}
