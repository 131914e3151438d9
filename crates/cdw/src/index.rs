//! The ordered index each table keeps on its declared key.
//!
//! The index is the table's rowids, one `u32` per row, sorted by their
//! rows' key (the key columns compared in turn by [`cmp_values`]), ties by
//! rowid. It holds no key of its own: a comparison reads the key out of
//! the row, so each call is handed the rows the index orders. Beside each
//! rowid sits its key's 8-byte [`key_prefix`], which orders two keys
//! whenever it differs, so most comparisons of a search stay in the
//! index's own arrays. Because keys compare column by column, the rows
//! whose first k key columns equal a prefix are one contiguous run, and a
//! range on column k+1 is a contiguous run inside it: every seek is a
//! binary search.
//!
//! The index is structural only: it stores duplicate keys faithfully,
//! because with native uniqueness enforcement off (the CDW default the
//! paper is built around) duplicate keys legitimately land in the table.
//! Enforcement lives in the executor.

use std::cmp::Ordering;

use etlv_protocol::data::Value;

use crate::key::cmp_values;

/// The rows an index orders, by rowid.
type Rows = [Vec<Value>];

/// An inclusive/exclusive bound on the range column of a seek.
#[derive(Debug, Clone)]
pub struct SeekBound {
    /// Bound value.
    pub value: Value,
    /// Whether rows equal to `value` are included.
    pub inclusive: bool,
}

/// An ordered index over a table's columns: its rowids in key order.
#[derive(Debug, Clone)]
pub struct OrderedIndex {
    /// Indexed column positions, in key order.
    pub columns: Vec<usize>,
    order: Vec<u32>,
    /// `prefixes[i]` is the [`key_prefix`] of `order[i]`'s row.
    prefixes: Vec<u64>,
}

/// An order-preserving summary of a key's first value: two values whose
/// prefixes differ order as their prefixes do under [`cmp_values`];
/// equal prefixes decide nothing. Text keeps its first 8 bytes,
/// zero-padded, big-endian. Every other value takes the end of the range
/// its type group sorts at: NULLs and numbers sort before text and take
/// 0; bytes, dates and timestamps sort after it and take `u64::MAX`.
pub fn key_prefix(v: &Value) -> u64 {
    match v {
        Value::Str(s) => {
            let (mut head, n) = ([0; 8], s.len().min(8));
            head[..n].copy_from_slice(&s.as_bytes()[..n]);
            u64::from_be_bytes(head)
        }
        Value::Bytes(_) | Value::Date(_) | Value::Timestamp(_) => u64::MAX,
        Value::Null | Value::Int(_) | Value::Float(_) | Value::Decimal(_) => 0,
    }
}

impl OrderedIndex {
    /// New empty index over `columns`.
    pub fn new(columns: Vec<usize>) -> OrderedIndex {
        OrderedIndex {
            columns,
            order: Vec::new(),
            prefixes: Vec::new(),
        }
    }

    /// The key of `row` under this index.
    pub fn key_of(&self, row: &[Value]) -> Vec<Value> {
        self.columns.iter().map(|&c| row[c].clone()).collect()
    }

    /// The [`key_prefix`] of `row`'s key.
    pub fn prefix_of(&self, row: &[Value]) -> u64 {
        self.columns.first().map_or(0, |&c| key_prefix(&row[c]))
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the index holds no rows.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The rowids in key order — consistency checks only.
    pub fn rowids(&self) -> &[u32] {
        &self.order
    }

    /// The key prefix beside each rowid — consistency checks only.
    pub fn prefixes(&self) -> &[u64] {
        &self.prefixes
    }

    /// Order two rows by key.
    fn cmp_keys(&self, rows: &Rows, a: u32, b: u32) -> Ordering {
        let (a, b) = (&rows[a as usize], &rows[b as usize]);
        (self.columns.iter())
            .map(|&c| cmp_values(&a[c], &b[c]))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// Order `row`'s first `prefix.len()` key columns against `prefix`.
    fn cmp_prefix(&self, row: &[Value], prefix: &[Value]) -> Ordering {
        (self.columns.iter().zip(prefix))
            .map(|(&c, v)| cmp_values(&row[c], v))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// The positions, among the first `end`, whose key prefix is `p`: the
    /// only ones a key with prefix `p` must be compared with in full.
    fn prefix_block(&self, end: usize, p: u64) -> (usize, usize) {
        let from = self.prefixes[..end].partition_point(|&q| q < p);
        (from, from + run_len(&self.prefixes[from..end], |q| q == p))
    }

    /// Index the rows `rows[start..]` under their rowids: sort them by
    /// key (a stable sort, so ties keep rowid order, and linear on input
    /// already in key order), then merge them in place behind the rows
    /// of equal keys, each with one binary search. Returns maintenance
    /// ops (one per row).
    pub fn insert_range(&mut self, rows: &Rows, start: usize) -> usize {
        let rowid = |i: usize| u32::try_from(i).expect("a table holds fewer than 2^32 rows");
        let mut new: Vec<(u64, u32)> = (start..rows.len())
            .map(|i| (self.prefix_of(&rows[i]), rowid(i)))
            .collect();
        new.sort_by(|a, b| (a.0.cmp(&b.0)).then_with(|| self.cmp_keys(rows, a.1, b.1)));
        if self.order.is_empty() {
            (self.prefixes, self.order) = new.into_iter().unzip();
            return self.order.len();
        }
        // Place the new rowids from the largest key down: each lands after
        // every old row of a key no larger, and shifts the old rows past it
        // once.
        let mut end = self.order.len();
        self.order.resize(end + new.len(), 0);
        self.prefixes.resize(end + new.len(), 0);
        for (j, &(p, r)) in new.iter().enumerate().rev() {
            let (from, to) = self.prefix_block(end, p);
            let at =
                from + self.order[from..to].partition_point(|&o| self.cmp_keys(rows, o, r).is_le());
            self.order.copy_within(at..end, at + j + 1);
            self.prefixes.copy_within(at..end, at + j + 1);
            (self.order[at + j], self.prefixes[at + j]) = (r, p);
            end = at;
        }
        new.len()
    }

    /// Drop everything and re-key every row. Returns maintenance ops (one
    /// per row).
    pub fn rebuild(&mut self, rows: &Rows) -> usize {
        (self.order, self.prefixes) = (Vec::new(), Vec::new());
        self.insert_range(rows, 0)
    }

    /// Whether any row carries exactly `key` (full-width key).
    pub fn contains_key(&self, rows: &Rows, key: &[Value]) -> bool {
        !self.seek_eq(rows, key).is_empty()
    }

    /// Row ids whose first `prefix.len()` key columns equal `prefix`,
    /// in key order (callers sort by rowid when scan order matters).
    pub fn seek_eq(&self, rows: &Rows, prefix: &[Value]) -> Vec<usize> {
        self.seek(rows, prefix, None, None)
    }

    /// Prefix-equality seek plus an optional range on the next key column:
    /// rows where `key[..p] == prefix` and `lo <= key[p] <= hi` (with
    /// bound inclusivity per [`SeekBound`]). NULLs in the range column
    /// never match (SQL comparison semantics).
    pub fn seek(
        &self,
        rows: &Rows,
        prefix: &[Value],
        lo: Option<&SeekBound>,
        hi: Option<&SeekBound>,
    ) -> Vec<usize> {
        let row = |r: u32| &rows[r as usize][..];
        let (from, to) = match prefix.first() {
            Some(v) => self.prefix_block(self.len(), key_prefix(v)),
            None => (0, self.len()),
        };
        let block = &self.order[from..to];
        let mut run = &block[block.partition_point(|&r| self.cmp_prefix(row(r), prefix).is_lt())..];
        run = &run[..run_len(run, |r| self.cmp_prefix(row(r), prefix).is_eq())];
        if let Some(&c) = self
            .columns
            .get(prefix.len())
            .filter(|_| lo.is_some() || hi.is_some())
        {
            // NULL sorts first in column `c`, before any bound.
            let below = |r: u32| {
                let v = &row(r)[c];
                v.is_null()
                    || lo.is_some_and(|b| match cmp_values(v, &b.value) {
                        Ordering::Equal => !b.inclusive,
                        o => o.is_lt(),
                    })
            };
            run = &run[run.partition_point(|&r| below(r))..];
            let within = |r: u32| {
                hi.is_none_or(|b| match cmp_values(&row(r)[c], &b.value) {
                    Ordering::Equal => b.inclusive,
                    o => o.is_lt(),
                })
            };
            run = &run[..run_len(run, within)];
        }
        run.iter().map(|&r| r as usize).collect()
    }
}

/// The length of the head of `run` that `pred` holds on, for a predicate
/// that holds on a head and fails after it: probes 1, 2, 4, … ahead
/// before it bisects, so a head of k entries costs O(log k) probes.
fn run_len<T: Copy>(run: &[T], pred: impl Fn(T) -> bool) -> usize {
    let (mut held, mut step) = (0, 1);
    while held + step <= run.len() && pred(run[held + step - 1]) {
        held += step;
        step *= 2;
    }
    let end = (held + step).min(run.len());
    held + run[held..end].partition_point(|&r| pred(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<Value>> {
        // (A, B): A groups, B ranges within a group.
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(1), Value::Int(20)],
            vec![Value::Int(2), Value::Int(5)],
            vec![Value::Int(2), Value::Null],
            vec![Value::Int(3), Value::Int(7)],
            vec![Value::Int(1), Value::Int(20)], // duplicate key
        ]
    }

    fn built() -> OrderedIndex {
        let mut ix = OrderedIndex::new(vec![0, 1]);
        ix.rebuild(&rows());
        ix
    }

    fn bound(v: i64, inclusive: bool) -> SeekBound {
        SeekBound {
            value: Value::Int(v),
            inclusive,
        }
    }

    #[test]
    fn eq_prefix_seek_returns_all_extensions_in_key_order() {
        let (ix, rs) = (built(), rows());
        assert_eq!(ix.seek_eq(&rs, &[Value::Int(1)]), vec![0, 1, 5]);
        assert!(ix.seek_eq(&rs, &[Value::Int(9)]).is_empty());
        assert_eq!(ix.rowids(), [0, 1, 5, 3, 2, 4]);
    }

    #[test]
    fn full_key_seek_and_duplicates() {
        let (ix, rs) = (built(), rows());
        let hit = ix.seek_eq(&rs, &[Value::Int(1), Value::Int(20)]);
        assert_eq!(hit, vec![1, 5], "duplicate keys both stored, by rowid");
        assert!(ix.contains_key(&rs, &[Value::Int(2), Value::Null]));
        assert_eq!(ix.len(), 6);
    }

    #[test]
    fn range_seek_respects_bounds_and_skips_nulls() {
        let (ix, rs) = (built(), rows());
        let two = [Value::Int(2)];
        let (five, five_x) = (bound(5, true), bound(5, false));
        assert_eq!(ix.seek(&rs, &two, Some(&five), Some(&five)), vec![2]);
        // Exclusive bound drops the equal row; the NULL row never matches.
        assert!(ix.seek(&rs, &two, Some(&five_x), None).is_empty());
        // Unbounded-low range still skips the NULL.
        assert_eq!(ix.seek(&rs, &two, None, Some(&bound(9, true))), vec![2]);
    }

    #[test]
    fn range_on_first_column_with_empty_prefix() {
        let (mut ix, rs) = (OrderedIndex::new(vec![1]), rows());
        ix.rebuild(&rs);
        let hit = ix.seek(&rs, &[], Some(&bound(7, true)), Some(&bound(20, false)));
        assert_eq!(hit, vec![4, 0], "7 and 10 in [7,20); 20s and NULL out");
    }

    #[test]
    fn appends_of_any_size_order_rowids_as_one_build() {
        let rs = rows();
        let mut by_row = OrderedIndex::new(vec![0]);
        let mut batched = OrderedIndex::new(vec![0]);
        for end in 1..=rs.len() {
            assert_eq!(by_row.insert_range(&rs[..end], end - 1), 1);
        }
        batched.insert_range(&rs[..2], 0);
        batched.insert_range(&rs, 2);
        let mut built = OrderedIndex::new(vec![0]);
        built.rebuild(&rs);
        assert_eq!(by_row.rowids(), built.rowids());
        assert_eq!(batched.rowids(), built.rowids());
    }
}
