//! The access-path planner.
//!
//! Turns equality/range predicates over a single table — and equi-join ON
//! clauses — into seeks of the table's one ordered index, the one on its
//! declared key. It plans by rule, with no statistics: seek when the
//! WHERE pins a prefix of the key or bounds the key column after that
//! prefix, otherwise scan; probe the key in a join when the ON columns
//! are exactly a key prefix, otherwise nested-loop. Decisions are shared
//! verbatim by execution and the EXPLAIN surface, so a plan a test
//! asserts on is the plan that runs.
//!
//! Correctness discipline: a seek is only chosen when it provably returns
//! the same rows the scalar evaluator would select. Probe values are
//! normalized to the target column's family (numeric strings parsed,
//! ISO-date strings parsed) with the same helpers the evaluator uses;
//! anything that cannot be normalized falls back to a scan, which
//! reproduces evaluation errors exactly. The accepted divergence — shared
//! with the pre-existing range fast path — is that residual predicate
//! evaluation errors on rows an index pruned do not surface.

use etlv_protocol::data::Value;
use etlv_sql::ast::{BinaryOp, Expr, Literal, ObjectName};
use etlv_sql::SqlType;

use crate::catalog::Table;
use crate::eval::{literal_value, numeric_value_of_str, parse_iso_date};
use crate::index::SeekBound;
use crate::key::cmp_values;

/// Planner decision counters for one statement (or accumulated totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Table accesses executed through an ordered-index seek.
    pub index_seeks: u64,
    /// Table accesses executed as full scans.
    pub full_scans: u64,
    /// Index maintenance operations (entries inserted or re-keyed).
    pub index_maintains: u64,
}

impl PlanStats {
    /// Accumulate `other` into `self`.
    pub fn merge(&mut self, other: &PlanStats) {
        self.index_seeks += other.index_seeks;
        self.full_scans += other.full_scans;
        self.index_maintains += other.index_maintains;
    }

    /// Whether nothing was counted.
    pub fn is_empty(&self) -> bool {
        *self == PlanStats::default()
    }
}

/// Value family of a column, for probe normalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Integer/decimal/float.
    Numeric,
    /// Fixed or variable-width character.
    Text,
    /// DATE.
    Date,
    /// Anything a seek cannot reproduce comparisons for.
    Other,
}

/// Family of a declared column type.
pub fn family_of(ty: SqlType) -> Family {
    if ty == SqlType::Date {
        Family::Date
    } else if ty.is_numeric() {
        Family::Numeric
    } else if ty.is_character() {
        Family::Text
    } else {
        Family::Other
    }
}

/// Normalize a probe value against the target column's family so an
/// ordered-index seek compares exactly like [`crate::eval::compare_eq`].
/// `None` means the comparison cannot be reproduced by a seek (wrong
/// family, unparsable string) — the caller must fall back. NULL passes
/// through; callers treat it as "matches nothing".
pub fn normalize_probe(v: &Value, family: Family) -> Option<Value> {
    match (family, v) {
        (_, Value::Null) => Some(Value::Null),
        (Family::Numeric, Value::Int(_) | Value::Float(_) | Value::Decimal(_)) => Some(v.clone()),
        (Family::Numeric, Value::Str(s)) => numeric_value_of_str(s),
        (Family::Text, Value::Str(_)) => Some(v.clone()),
        (Family::Date, Value::Date(_)) => Some(v.clone()),
        (Family::Date, Value::Str(s)) => parse_iso_date(s).ok().map(Value::Date),
        _ => None,
    }
}

// ------------------------------------------------------------------ atoms

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtomOp {
    Eq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

/// One sargable comparison: `column OP literal`, with the literal already
/// normalized to the column's family.
#[derive(Debug, Clone)]
struct Atom {
    col: usize,
    op: AtomOp,
    value: Value,
    /// Which WHERE conjunct this atom came from.
    conjunct: usize,
    /// Whether the probe normalized (unusable atoms keep their conjunct
    /// out of the "consumed" set but don't block other atoms).
    usable: bool,
}

/// Flatten an AND tree into its conjuncts.
fn flatten_and<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            flatten_and(left, out);
            flatten_and(right, out);
        }
        other => out.push(other),
    }
}

fn atom_op(op: BinaryOp) -> Option<AtomOp> {
    Some(match op {
        BinaryOp::Eq => AtomOp::Eq,
        BinaryOp::Lt => AtomOp::Lt,
        BinaryOp::LtEq => AtomOp::LtEq,
        BinaryOp::Gt => AtomOp::Gt,
        BinaryOp::GtEq => AtomOp::GtEq,
        _ => return None,
    })
}

fn flip(op: AtomOp) -> AtomOp {
    match op {
        AtomOp::Eq => AtomOp::Eq,
        AtomOp::Lt => AtomOp::Gt,
        AtomOp::LtEq => AtomOp::GtEq,
        AtomOp::Gt => AtomOp::Lt,
        AtomOp::GtEq => AtomOp::LtEq,
    }
}

/// Extract the sargable atoms of one conjunct: `col OP literal` (either
/// orientation) or `col BETWEEN lit AND lit`. `None` = not sargable.
fn conjunct_atoms(
    e: &Expr,
    resolve: &mut dyn FnMut(&ObjectName) -> Option<usize>,
) -> Option<Vec<(usize, AtomOp, Literal)>> {
    match e {
        Expr::Binary { left, op, right } => {
            let op = atom_op(*op)?;
            let (name, lit, op) = match (&**left, &**right) {
                (Expr::Column(n), Expr::Literal(l)) => (n, l, op),
                (Expr::Literal(l), Expr::Column(n)) => (n, l, flip(op)),
                _ => return None,
            };
            let col = resolve(name)?;
            Some(vec![(col, op, lit.clone())])
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            let (Expr::Column(n), Expr::Literal(lo), Expr::Literal(hi)) =
                (&**expr, &**low, &**high)
            else {
                return None;
            };
            let col = resolve(n)?;
            Some(vec![
                (col, AtomOp::GtEq, lo.clone()),
                (col, AtomOp::LtEq, hi.clone()),
            ])
        }
        _ => None,
    }
}

// ------------------------------------------------------------- access path

/// A chosen seek of the table's key index.
#[derive(Debug, Clone)]
pub struct SeekPlan {
    /// Normalized equality-prefix probe values.
    pub prefix: Vec<Value>,
    /// Lower bound on the column after the prefix.
    pub lo: Option<SeekBound>,
    /// Upper bound on the column after the prefix.
    pub hi: Option<SeekBound>,
    /// Whether the seek consumes the entire WHERE clause (no residual
    /// re-evaluation needed).
    pub consumed: bool,
}

impl SeekPlan {
    /// The rowids this seek selects from `table`, in rowid order so
    /// results are identical to a scan's.
    pub fn seek(&self, table: &Table) -> Vec<usize> {
        let pk = table.pk.as_ref().expect("a seek is only planned on a key");
        let mut rowids = pk.seek(&self.prefix, self.lo.as_ref(), self.hi.as_ref());
        if rowids.len() == table.rows.len() {
            // A seek that covered the table selected every rowid: no sort.
            rowids.iter_mut().enumerate().for_each(|(i, r)| *r = i);
        } else {
            rowids.sort_unstable();
        }
        rowids
    }
}

/// How a single-table access executes.
#[derive(Debug, Clone)]
pub enum Access {
    /// Walk every row.
    Scan,
    /// A required predicate compares against NULL: no row can match.
    Empty,
    /// Ordered-index seek.
    Seek(SeekPlan),
}

impl Access {
    /// One EXPLAIN line for this access. Marker tokens (`full_scan`,
    /// `index_seek`, `const_empty`) are what plan-shape tests pin.
    pub fn describe(&self, table: &Table) -> String {
        match self {
            Access::Scan => format!("full_scan table={} rows={}", table.name, table.rows.len()),
            Access::Empty => format!("const_empty table={} (NULL probe)", table.name),
            Access::Seek(p) => {
                let pk = table.pk.as_ref().expect("a seek is only planned on a key");
                let cols: Vec<&str> = pk
                    .columns
                    .iter()
                    .map(|&c| table.columns[c].name.as_str())
                    .collect();
                format!(
                    "index_seek table={} index=PK cols=({}) eq_prefix={} range={} residual={}",
                    table.name,
                    cols.join(","),
                    p.prefix.len(),
                    p.lo.is_some() || p.hi.is_some(),
                    !p.consumed,
                )
            }
        }
    }
}

/// Choose the access path for a single-table SELECT/UPDATE/DELETE filter.
/// `resolve` maps a column reference to the table's column position (and
/// must reject ambiguous or foreign references with `None`).
pub fn choose_access(
    table: &Table,
    selection: Option<&Expr>,
    resolve: &mut dyn FnMut(&ObjectName) -> Option<usize>,
) -> Access {
    let Some(filter) = selection else {
        return Access::Scan;
    };
    let mut conjuncts = Vec::new();
    flatten_and(filter, &mut conjuncts);

    // Gather atoms, normalizing probes to the column family up front.
    let mut atoms: Vec<Atom> = Vec::new();
    // Conjuncts that contain a non-sargable expression (or an atom we had
    // to drop) can never be consumed by a seek.
    let mut sargable = vec![true; conjuncts.len()];
    for (ci, c) in conjuncts.iter().enumerate() {
        match conjunct_atoms(c, resolve) {
            None => sargable[ci] = false,
            Some(list) => {
                for (col, op, lit) in list {
                    let raw = literal_value(&lit);
                    if raw.is_null() {
                        // `col OP NULL` is NULL → false: the conjunction
                        // can never hold.
                        return Access::Empty;
                    }
                    let family = family_of(table.columns[col].ty);
                    match normalize_probe(&raw, family) {
                        Some(v) => atoms.push(Atom {
                            col,
                            op,
                            value: v,
                            conjunct: ci,
                            usable: true,
                        }),
                        None => {
                            sargable[ci] = false;
                            atoms.push(Atom {
                                col,
                                op,
                                value: raw,
                                conjunct: ci,
                                usable: false,
                            });
                        }
                    }
                }
            }
        }
    }
    if atoms.iter().all(|a| !a.usable) {
        return Access::Scan;
    }

    let Some(pk) = &table.pk else {
        return Access::Scan;
    };

    // Greedy equality prefix.
    let mut prefix: Vec<Value> = Vec::new();
    let mut used: Vec<usize> = Vec::new(); // atom positions consumed
    for &col in &pk.columns {
        let Some(apos) = atoms
            .iter()
            .position(|a| a.usable && a.col == col && a.op == AtomOp::Eq)
        else {
            break;
        };
        prefix.push(atoms[apos].value.clone());
        used.push(apos);
    }
    // Range bounds on the next key column.
    let (mut lo, mut hi): (Option<SeekBound>, Option<SeekBound>) = (None, None);
    if let Some(&range_col) = pk.columns.get(prefix.len()) {
        for (apos, a) in atoms.iter().enumerate() {
            if !a.usable || a.col != range_col {
                continue;
            }
            let bound = |inclusive| SeekBound {
                value: a.value.clone(),
                inclusive,
            };
            match a.op {
                AtomOp::Gt | AtomOp::GtEq => {
                    let b = bound(a.op == AtomOp::GtEq);
                    let tighter = match &lo {
                        None => true,
                        Some(cur) => match cmp_values(&b.value, &cur.value) {
                            std::cmp::Ordering::Greater => true,
                            std::cmp::Ordering::Equal => !b.inclusive && cur.inclusive,
                            std::cmp::Ordering::Less => false,
                        },
                    };
                    if tighter {
                        lo = Some(b);
                    }
                    used.push(apos);
                }
                AtomOp::Lt | AtomOp::LtEq => {
                    let b = bound(a.op == AtomOp::LtEq);
                    let tighter = match &hi {
                        None => true,
                        Some(cur) => match cmp_values(&b.value, &cur.value) {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Equal => !b.inclusive && cur.inclusive,
                            std::cmp::Ordering::Greater => false,
                        },
                    };
                    if tighter {
                        hi = Some(b);
                    }
                    used.push(apos);
                }
                AtomOp::Eq => {}
            }
        }
    }
    // The rule: neither a pinned prefix nor a bound on the next key
    // column means there is nothing to seek on.
    if prefix.is_empty() && lo.is_none() && hi.is_none() {
        return Access::Scan;
    }

    // Consumed: every conjunct's atoms were folded into this seek.
    let consumed = (0..conjuncts.len()).all(|ci| {
        sargable[ci]
            && atoms
                .iter()
                .enumerate()
                .filter(|(_, a)| a.conjunct == ci)
                .all(|(apos, a)| {
                    if used.contains(&apos) {
                        // Eq atoms must agree with the prefix value
                        // actually probed (duplicate `A=1 AND A=2`
                        // keeps the second as residual).
                        if a.op == AtomOp::Eq {
                            let k = pk.columns.iter().position(|&c| c == a.col);
                            return k.is_some_and(|k| {
                                k < prefix.len()
                                    && cmp_values(&a.value, &prefix[k]) == std::cmp::Ordering::Equal
                            });
                        }
                        true
                    } else {
                        false
                    }
                })
    });

    Access::Seek(SeekPlan {
        prefix,
        lo,
        hi,
        consumed,
    })
}

// -------------------------------------------------------------- equi-joins

/// A planned index-lookup join: probe the right table's key index with
/// key expressions evaluated per left row.
#[derive(Debug, Clone)]
pub struct JoinPlan {
    /// `(left-side key expression, right column)` pairs, ordered to match
    /// the key prefix.
    pub keys: Vec<(Expr, usize)>,
}

/// Whether every column reference in `e` resolves strictly into the left
/// relation (combined-binding position `< left_len`).
fn refs_only_left(
    e: &Expr,
    left_len: usize,
    resolve: &mut dyn FnMut(&ObjectName) -> Option<usize>,
) -> bool {
    let mut ok = true;
    e.walk(&mut |n| {
        if let Expr::Column(name) = n {
            match resolve(name) {
                Some(i) if i < left_len => {}
                _ => ok = false,
            }
        }
    });
    ok
}

/// Plan an equi-join against `right`'s key index. Strict by design: every
/// ON conjunct must be `left-expr = right-column` (either orientation) and
/// the probed columns must exactly form a prefix of the key — anything
/// else nested-loops, so evaluation-order semantics never change.
/// `resolve` works over the combined (left + right) bindings; right-table
/// columns map to `left_len + column_position`.
pub fn plan_equi_join(
    right: &Table,
    on: &Expr,
    left_len: usize,
    resolve: &mut dyn FnMut(&ObjectName) -> Option<usize>,
) -> Option<JoinPlan> {
    let mut conjuncts = Vec::new();
    flatten_and(on, &mut conjuncts);
    // (right column, left key expr) per conjunct.
    let mut pairs: Vec<(usize, Expr)> = Vec::new();
    for c in conjuncts {
        let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right: rhs,
        } = c
        else {
            return None;
        };
        let mut try_orient = |col_side: &Expr, expr_side: &Expr| -> Option<(usize, Expr)> {
            let Expr::Column(name) = col_side else {
                return None;
            };
            let i = resolve(name)?;
            if i < left_len {
                return None;
            }
            if !refs_only_left(expr_side, left_len, resolve) {
                return None;
            }
            Some((i - left_len, expr_side.clone()))
        };
        let pair = try_orient(rhs, left).or_else(|| try_orient(left, rhs))?;
        // Duplicate probes on one right column: bail, keep exact nested
        // semantics.
        if pairs.iter().any(|(rc, _)| *rc == pair.0) {
            return None;
        }
        pairs.push(pair);
    }
    if pairs.is_empty() {
        return None;
    }
    // The probed column set must be exactly a prefix of the key.
    let pk = right.pk.as_ref()?;
    let prefix = pk.columns.get(..pairs.len())?;
    let covers = prefix.iter().all(|c| pairs.iter().any(|(rc, _)| rc == c))
        && pairs.iter().all(|(rc, _)| prefix.contains(rc));
    if !covers {
        return None;
    }
    let keys = prefix
        .iter()
        .map(|c| {
            let (_, e) = pairs.iter().find(|(rc, _)| rc == c).expect("covered");
            (e.clone(), *c)
        })
        .collect();
    Some(JoinPlan { keys })
}
