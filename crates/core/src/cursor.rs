//! TDFCursor: retrieval of export result chunks by index (paper §3/§4).
//!
//! The cursor executes the cross-compiled SELECT on the CDW once and
//! keeps the typed result it returns. Chunk `i` is the slice of rows
//! `[i·n, (i+1)·n)`, served **by index** to parallel client export
//! sessions in any order, as often as they ask: the cursor is immutable
//! after `open`, so concurrent sessions need no lock and a repeated
//! request is answered again, as the legacy server answers it.

use etlv_cdw::{Cdw, CdwError};
use etlv_protocol::data::{LegacyType, Value};

/// A chunk served to an export session.
#[derive(Debug, Clone, PartialEq)]
pub struct CursorChunk<'a> {
    /// Chunk index.
    pub index: u64,
    /// The chunk's rows, borrowed from the cursor's result.
    pub rows: &'a [Vec<Value>],
    /// Whether this is at/after the end of the result.
    pub last: bool,
}

/// The TDF cursor: an immutable view over one query result.
pub struct TdfCursor {
    columns: Vec<(String, LegacyType)>,
    rows: Vec<Vec<Value>>,
    chunk_rows: usize,
}

impl TdfCursor {
    /// Execute `select_cdw` (CDW dialect text) and open a cursor over the
    /// result with `chunk_rows` rows per chunk. `_prefetch` is ignored:
    /// the whole result is in memory once the CDW returns it, so there is
    /// nothing to read ahead. It stays in the signature because
    /// `etlv-bench` passes `VirtualizerConfig::export_prefetch_chunks`.
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
            last: index + 1 >= total,
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
}
