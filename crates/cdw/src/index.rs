//! The ordered index each table keeps on its declared key.
//!
//! A B+tree-style multi-map from a tuple of column values to the row ids
//! holding that tuple, ordered by [`cmp_rows`]. Because `cmp_rows`
//! compares element-wise and then by length, a key *prefix* sorts
//! immediately before every key extending it — which is what makes
//! multi-column prefix seeks (`eq` on the first k columns, optionally a
//! range on column k+1) a single ordered-range walk.
//!
//! The index is structural only: it stores duplicate keys faithfully,
//! because with native uniqueness enforcement off (the CDW default the
//! paper is built around) duplicate keys legitimately land in the table. Enforcement lives in the executor.

use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;

use etlv_protocol::data::Value;

use crate::key::cmp_rows;

/// A tuple of values ordered by [`cmp_rows`] (NULL first, numerics
/// cross-type, then by tuple length — so prefixes sort before their
/// extensions). A one-column key holds its value inline, so an entry of a
/// one-column index allocates nothing of its own.
#[derive(Debug, Clone)]
pub enum IndexKey {
    /// A one-value tuple.
    One(Value),
    /// Any other tuple (a wider key, or a shorter seek prefix).
    Many(Box<[Value]>),
}

impl IndexKey {
    fn from_vec(values: Vec<Value>) -> IndexKey {
        match <[Value; 1]>::try_from(values) {
            Ok([v]) => IndexKey::One(v),
            Err(values) => IndexKey::Many(values.into_boxed_slice()),
        }
    }

    /// The tuple's values.
    pub fn values(&self) -> &[Value] {
        match self {
            IndexKey::One(v) => std::slice::from_ref(v),
            IndexKey::Many(vs) => vs,
        }
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &IndexKey) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &IndexKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &IndexKey) -> Ordering {
        cmp_rows(self.values(), other.values())
    }
}

/// The rows holding one key: a key held by one row (every key of a
/// unique index) keeps its rowid inline; only a repeated key has a list.
#[derive(Debug, Clone)]
enum RowIds {
    One(usize),
    Many(Vec<usize>),
}

impl RowIds {
    fn push(&mut self, rowid: usize) {
        match self {
            RowIds::One(first) => *self = RowIds::Many(vec![*first, rowid]),
            RowIds::Many(rowids) => rowids.push(rowid),
        }
    }

    fn as_slice(&self) -> &[usize] {
        match self {
            RowIds::One(rowid) => std::slice::from_ref(rowid),
            RowIds::Many(rowids) => rowids,
        }
    }
}

/// An inclusive/exclusive bound on the range column of a seek.
#[derive(Debug, Clone)]
pub struct SeekBound {
    /// Bound value.
    pub value: Value,
    /// Whether rows equal to `value` are included.
    pub inclusive: bool,
}

/// An ordered (B+tree-style) index over a table's columns.
#[derive(Debug, Clone)]
pub struct OrderedIndex {
    /// Indexed column positions, in key order.
    pub columns: Vec<usize>,
    map: BTreeMap<IndexKey, RowIds>,
    entries: usize,
}

impl OrderedIndex {
    /// New empty index over `columns`.
    pub fn new(columns: Vec<usize>) -> OrderedIndex {
        OrderedIndex {
            columns,
            map: BTreeMap::new(),
            entries: 0,
        }
    }

    /// The key of `row` under this index.
    pub fn key_of(&self, row: &[Value]) -> Vec<Value> {
        self.columns.iter().map(|&c| row[c].clone()).collect()
    }

    /// The key of `row` as the index stores it.
    fn index_key(&self, row: &[Value]) -> IndexKey {
        match self.columns[..] {
            [c] => IndexKey::One(row[c].clone()),
            _ => IndexKey::Many(self.columns.iter().map(|&c| row[c].clone()).collect()),
        }
    }

    /// Number of (key, rowid) entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Insert `rowid` under the key of `row`. Returns the number of index
    /// maintenance operations performed (always 1).
    pub fn insert_row(&mut self, row: &[Value], rowid: usize) -> usize {
        match self.map.entry(self.index_key(row)) {
            Entry::Vacant(e) => {
                e.insert(RowIds::One(rowid));
            }
            Entry::Occupied(mut e) => e.get_mut().push(rowid),
        }
        self.entries += 1;
        1
    }

    /// Index the rows `rows[start..]` under their rowids. A non-empty
    /// index inserts them one by one; an empty one is built in one sorted
    /// pass, with the same entries row-by-row insertion would leave: the
    /// stable sort keeps equal keys in rowid order, so each key is stored
    /// as its first-inserted row spells it, with ascending rowids. Returns
    /// maintenance ops (one per row).
    pub fn insert_range(&mut self, rows: &[Vec<Value>], start: usize) -> usize {
        let new = &rows[start..];
        if !self.is_empty() {
            for (i, row) in new.iter().enumerate() {
                self.insert_row(row, start + i);
            }
            return new.len();
        }
        let mut keyed: Vec<(IndexKey, usize)> = new
            .iter()
            .enumerate()
            .map(|(i, row)| (self.index_key(row), start + i))
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        let mut groups: Vec<(IndexKey, RowIds)> = Vec::with_capacity(keyed.len());
        for (key, rowid) in keyed {
            match groups.last_mut() {
                Some((last, rowids)) if *last == key => rowids.push(rowid),
                _ => groups.push((key, RowIds::One(rowid))),
            }
        }
        self.map = groups.into_iter().collect();
        self.entries = new.len();
        new.len()
    }

    /// Drop everything and re-key every row. Returns maintenance ops (one
    /// per row).
    pub fn rebuild(&mut self, rows: &[Vec<Value>]) -> usize {
        self.map.clear();
        self.entries = 0;
        self.insert_range(rows, 0)
    }

    /// Whether any row carries exactly `key` (full-width key).
    pub fn contains_key(&self, key: &[Value]) -> bool {
        self.map.contains_key(&IndexKey::from_vec(key.to_vec()))
    }

    /// Row ids whose first `prefix.len()` key columns equal `prefix`,
    /// in key order (callers sort by rowid when scan order matters).
    pub fn seek_eq(&self, prefix: &[Value]) -> Vec<usize> {
        self.seek(prefix, None, None)
    }

    /// Prefix-equality seek plus an optional range on the next key column:
    /// rows where `key[..p] == prefix` and `lo <= key[p] <= hi` (with
    /// bound inclusivity per [`SeekBound`]). NULLs in the range column
    /// never match (SQL comparison semantics).
    pub fn seek(
        &self,
        prefix: &[Value],
        lo: Option<&SeekBound>,
        hi: Option<&SeekBound>,
    ) -> Vec<usize> {
        let p = prefix.len();
        let ranged = p < self.columns.len() && (lo.is_some() || hi.is_some());
        // Start at the tightest expressible lower bound: the prefix alone,
        // or the prefix extended with the lower range value. A prefix sorts
        // before all its extensions, so Included() never skips a match.
        let start: Vec<Value> = match (ranged, lo) {
            (true, Some(b)) => {
                let mut k = prefix.to_vec();
                k.push(b.value.clone());
                k
            }
            _ => prefix.to_vec(),
        };
        let mut out = Vec::new();
        for (key, rowids) in self
            .map
            .range((Bound::Included(IndexKey::from_vec(start)), Bound::Unbounded))
        {
            // Stop as soon as the equality prefix diverges (keys are sorted).
            let key = key.values();
            if key.len() < p || cmp_rows(&key[..p], prefix) != Ordering::Equal {
                break;
            }
            if ranged {
                let Some(v) = key.get(p) else { continue };
                if v.is_null() {
                    // NULL sorts first within the prefix group; skip, a
                    // later key may still be in range.
                    continue;
                }
                if let Some(b) = lo {
                    match crate::key::cmp_values(v, &b.value) {
                        Ordering::Less => continue,
                        Ordering::Equal if !b.inclusive => continue,
                        _ => {}
                    }
                }
                if let Some(b) = hi {
                    match crate::key::cmp_values(v, &b.value) {
                        Ordering::Greater => break,
                        Ordering::Equal if !b.inclusive => break,
                        _ => {}
                    }
                }
            }
            out.extend_from_slice(rowids.as_slice());
        }
        out
    }

    /// Every (key, rowids) entry in key order — consistency checks only.
    pub fn entries(&self) -> impl Iterator<Item = (&[Value], &[usize])> {
        self.map.iter().map(|(k, v)| (k.values(), v.as_slice()))
    }
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

    #[test]
    fn eq_prefix_seek_returns_all_extensions() {
        let ix = built();
        let mut hit = ix.seek_eq(&[Value::Int(1)]);
        hit.sort_unstable();
        assert_eq!(hit, vec![0, 1, 5]);
        assert!(ix.seek_eq(&[Value::Int(9)]).is_empty());
    }

    #[test]
    fn full_key_seek_and_duplicates() {
        let ix = built();
        let mut hit = ix.seek_eq(&[Value::Int(1), Value::Int(20)]);
        hit.sort_unstable();
        assert_eq!(hit, vec![1, 5], "duplicate keys both stored");
        assert!(ix.contains_key(&[Value::Int(2), Value::Null]));
        assert_eq!(ix.len(), 6);
    }

    #[test]
    fn range_seek_respects_bounds_and_skips_nulls() {
        let ix = built();
        let lo = SeekBound {
            value: Value::Int(5),
            inclusive: true,
        };
        let hi = SeekBound {
            value: Value::Int(5),
            inclusive: true,
        };
        assert_eq!(ix.seek(&[Value::Int(2)], Some(&lo), Some(&hi)), vec![2]);
        // Exclusive bound drops the equal row; the NULL row never matches.
        let lo_x = SeekBound {
            value: Value::Int(5),
            inclusive: false,
        };
        assert!(ix.seek(&[Value::Int(2)], Some(&lo_x), None).is_empty());
        // Unbounded-low range still skips the NULL.
        let hi9 = SeekBound {
            value: Value::Int(9),
            inclusive: true,
        };
        assert_eq!(ix.seek(&[Value::Int(2)], None, Some(&hi9)), vec![2]);
    }

    #[test]
    fn range_on_first_column_with_empty_prefix() {
        let mut ix = OrderedIndex::new(vec![1]);
        ix.rebuild(&rows());
        let lo = SeekBound {
            value: Value::Int(7),
            inclusive: true,
        };
        let hi = SeekBound {
            value: Value::Int(20),
            inclusive: false,
        };
        let mut hit = ix.seek(&[], Some(&lo), Some(&hi));
        hit.sort_unstable();
        assert_eq!(hit, vec![0, 4], "10 and 7 in [7,20); 20s and NULL out");
    }

    #[test]
    fn incremental_insert_matches_rebuild() {
        let mut a = OrderedIndex::new(vec![0]);
        let mut b = OrderedIndex::new(vec![0]);
        let rs = rows();
        for (i, r) in rs.iter().enumerate() {
            a.insert_row(r, i);
        }
        b.rebuild(&rs);
        let av: Vec<_> = a.entries().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        let bv: Vec<_> = b.entries().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        assert_eq!(av, bv);
    }
}
