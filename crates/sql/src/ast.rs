//! The SQL abstract syntax tree shared by both dialects.

use etlv_protocol::data::{Date, Decimal};

use crate::types::SqlType;

/// A possibly-qualified object name, e.g. `PROD.CUSTOMER`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectName(pub Vec<String>);

impl ObjectName {
    /// Single-part name.
    pub fn simple(name: impl Into<String>) -> ObjectName {
        ObjectName(vec![name.into()])
    }

    /// Two-part name.
    pub fn qualified(schema: impl Into<String>, name: impl Into<String>) -> ObjectName {
        ObjectName(vec![schema.into(), name.into()])
    }

    /// The unqualified trailing part.
    pub fn base(&self) -> &str {
        self.0.last().map(String::as_str).unwrap_or("")
    }

    /// Canonical dotted form.
    pub fn dotted(&self) -> String {
        self.0.join(".")
    }
}

impl std::fmt::Display for ObjectName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.dotted())
    }
}

/// A literal value.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// SQL NULL.
    Null,
    /// Integer literal.
    Integer(i64),
    /// Exact decimal literal (e.g. `1.25`).
    Decimal(Decimal),
    /// Approximate float literal (e.g. `1e-3`).
    Float(f64),
    /// String literal.
    Str(String),
    /// `DATE '2012-01-01'` literal.
    Date(Date),
}

impl Literal {
    /// Embed a runtime [`Value`](etlv_protocol::data::Value) as a literal
    /// (used when binding `:FIELD` placeholders to tuple values). Bytes and
    /// timestamps embed as their canonical text.
    pub fn from_value(v: &etlv_protocol::data::Value) -> Literal {
        use etlv_protocol::data::Value;
        match v {
            Value::Null => Literal::Null,
            Value::Int(x) => Literal::Integer(*x),
            Value::Float(f) => Literal::Float(*f),
            Value::Decimal(d) => Literal::Decimal(*d),
            Value::Str(s) => Literal::Str(s.clone()),
            Value::Date(d) => Literal::Date(*d),
            Value::Bytes(_) | Value::Timestamp(_) => Literal::Str(v.display_text()),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` (modulo; legacy spells it `MOD`)
    Mod,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `||` string concatenation
    Concat,
}

impl BinaryOp {
    /// Operator precedence (higher binds tighter).
    pub fn precedence(self) -> u8 {
        match self {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => 4,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Concat => 5,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => 6,
        }
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Literal),
    /// Column reference, possibly qualified (`t.C`).
    Column(ObjectName),
    /// `:NAME` placeholder (legacy dialect only), bound to a layout field.
    Placeholder(String),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// Whether `NOT` was present.
        negated: bool,
    },
    /// `expr [NOT] IN (list)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// Whether `NOT` was present.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// Whether `NOT` was present.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (`%` and `_` wildcards).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern expression.
        pattern: Box<Expr>,
        /// Whether `NOT` was present.
        negated: bool,
    },
    /// `CASE [operand] WHEN ... THEN ... [ELSE ...] END`.
    Case {
        /// Optional comparand (simple CASE).
        operand: Option<Box<Expr>>,
        /// `(WHEN, THEN)` pairs.
        branches: Vec<(Expr, Expr)>,
        /// Optional ELSE expression.
        else_expr: Option<Box<Expr>>,
    },
    /// Function call, e.g. `TRIM(x)`, `COALESCE(a, b)`, `COUNT(*)`.
    Function {
        /// Upper-cased function name.
        name: String,
        /// Arguments (`COUNT(*)` is represented with [`Expr::Wildcard`]).
        args: Vec<Expr>,
        /// Whether `DISTINCT` was present (aggregates).
        distinct: bool,
    },
    /// `CAST(expr AS type [FORMAT 'fmt'])` — the FORMAT clause is legacy
    /// dialect only and is the canonical cross-compilation example.
    Cast {
        /// Source expression.
        expr: Box<Expr>,
        /// Target type.
        ty: SqlType,
        /// Legacy FORMAT pattern, if present.
        format: Option<String>,
    },
    /// `*` inside an argument list (only valid in `COUNT(*)`).
    Wildcard,
}

impl Expr {
    /// Convenience: build `left op right`.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// Convenience: a column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(ObjectName::simple(name))
    }

    /// Convenience: an integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Integer(v))
    }

    /// Convenience: a string literal.
    pub fn str(v: impl Into<String>) -> Expr {
        Expr::Literal(Literal::Str(v.into()))
    }

    /// Walk the tree, invoking `f` on every node (pre-order). The nodes
    /// are borrowed from the tree itself, so `f` may keep them.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Column(_) | Expr::Placeholder(_) | Expr::Wildcard => {}
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                if let Some(op) = operand {
                    op.walk(f);
                }
                for (w, t) in branches {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Cast { expr, .. } => expr.walk(f),
        }
    }

    /// Collect the names of all `:PLACEHOLDER`s in the expression.
    pub fn placeholders(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Placeholder(name) = e {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
        });
        out
    }
}

/// One item of a SELECT projection.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// Expression with optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// `AS alias`, if present.
        alias: Option<String>,
    },
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `[INNER] JOIN`
    Inner,
    /// `LEFT [OUTER] JOIN`
    Left,
}

/// A table reference in FROM.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table with optional alias.
    Named {
        /// Table name.
        name: ObjectName,
        /// Alias, if present.
        alias: Option<String>,
    },
    /// Join of two table references.
    Join {
        /// Left input.
        left: Box<TableRef>,
        /// Right input.
        right: Box<TableRef>,
        /// Join kind.
        kind: JoinKind,
        /// ON condition.
        on: Box<Expr>,
    },
    /// Parenthesized subquery with alias.
    Subquery {
        /// The inner query.
        query: Box<SelectStmt>,
        /// Mandatory alias.
        alias: String,
    },
}

/// One ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort expression.
    pub expr: Expr,
    /// Descending order?
    pub desc: bool,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `DISTINCT`?
    pub distinct: bool,
    /// Projection list.
    pub projection: Vec<SelectItem>,
    /// FROM clause (None for `SELECT 1`-style).
    pub from: Option<TableRef>,
    /// WHERE predicate.
    pub selection: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderItem>,
    /// LIMIT / TOP row count.
    pub limit: Option<u64>,
}

impl SelectStmt {
    /// An empty SELECT scaffold.
    pub fn new(projection: Vec<SelectItem>) -> SelectStmt {
        SelectStmt {
            distinct: false,
            projection,
            from: None,
            selection: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        }
    }
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: SqlType,
    /// `NOT NULL`?
    pub not_null: bool,
}

/// A table-level constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum TableConstraint {
    /// `UNIQUE (cols)` or `PRIMARY KEY (cols)` / `UNIQUE PRIMARY INDEX`.
    Unique {
        /// Constrained columns.
        columns: Vec<String>,
        /// Whether declared as primary.
        primary: bool,
    },
}

/// CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Table name.
    pub name: ObjectName,
    /// Column definitions.
    pub columns: Vec<ColumnDef>,
    /// Table constraints.
    pub constraints: Vec<TableConstraint>,
    /// `IF NOT EXISTS`?
    pub if_not_exists: bool,
}

/// INSERT source.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `VALUES (...), (...)`.
    Values(Vec<Vec<Expr>>),
    /// `INSERT ... SELECT`.
    Select(Box<SelectStmt>),
}

/// INSERT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: ObjectName,
    /// Explicit column list, if present.
    pub columns: Option<Vec<String>>,
    /// Row source.
    pub source: InsertSource,
}

/// UPDATE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Target table.
    pub table: ObjectName,
    /// `SET col = expr` assignments.
    pub assignments: Vec<(String, Expr)>,
    /// WHERE predicate.
    pub selection: Option<Expr>,
}

/// DELETE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// Target table.
    pub table: ObjectName,
    /// WHERE predicate (None deletes all rows).
    pub selection: Option<Expr>,
}

/// `COPY INTO table FROM 'url'` (CDW dialect): bulk-load staged files from
/// the cloud object store.
#[derive(Debug, Clone, PartialEq)]
pub struct CopyStmt {
    /// Target (staging) table.
    pub table: ObjectName,
    /// Object-store URL or prefix, e.g. `store://bucket/job42/`.
    pub from_url: String,
    /// Field delimiter for the staged text files.
    pub delimiter: u8,
    /// Whether the staged files are compressed.
    pub compressed: bool,
}

/// A SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// CREATE TABLE.
    CreateTable(CreateTable),
    /// DROP TABLE.
    DropTable {
        /// Table to drop.
        name: ObjectName,
        /// `IF EXISTS`?
        if_exists: bool,
    },
    /// INSERT.
    Insert(Insert),
    /// UPDATE.
    Update(Update),
    /// DELETE.
    Delete(Delete),
    /// SELECT.
    Select(SelectStmt),
    /// COPY INTO (CDW only).
    Copy(CopyStmt),
}

impl Stmt {
    /// Collect all `:PLACEHOLDER` names appearing anywhere in the statement.
    pub fn placeholders(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut add = |names: Vec<String>| {
            for n in names {
                if !out.contains(&n) {
                    out.push(n);
                }
            }
        };
        match self {
            Stmt::Insert(ins) => match &ins.source {
                InsertSource::Values(rows) => {
                    for row in rows {
                        for e in row {
                            add(e.placeholders());
                        }
                    }
                }
                InsertSource::Select(sel) => add(select_placeholders(sel)),
            },
            Stmt::Update(upd) => {
                for (_, e) in &upd.assignments {
                    add(e.placeholders());
                }
                if let Some(w) = &upd.selection {
                    add(w.placeholders());
                }
            }
            Stmt::Delete(del) => {
                if let Some(w) = &del.selection {
                    add(w.placeholders());
                }
            }
            Stmt::Select(sel) => add(select_placeholders(sel)),
            Stmt::CreateTable(_) | Stmt::DropTable { .. } | Stmt::Copy(_) => {}
        }
        out
    }
}

fn select_placeholders(sel: &SelectStmt) -> Vec<String> {
    let mut out = Vec::new();
    let mut add = |names: Vec<String>| {
        for n in names {
            if !out.contains(&n) {
                out.push(n);
            }
        }
    };
    for item in &sel.projection {
        if let SelectItem::Expr { expr, .. } = item {
            add(expr.placeholders());
        }
    }
    if let Some(w) = &sel.selection {
        add(w.placeholders());
    }
    for e in &sel.group_by {
        add(e.placeholders());
    }
    if let Some(h) = &sel.having {
        add(h.placeholders());
    }
    for o in &sel.order_by {
        add(o.expr.placeholders());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_name_helpers() {
        let n = ObjectName::qualified("PROD", "CUSTOMER");
        assert_eq!(n.dotted(), "PROD.CUSTOMER");
        assert_eq!(n.base(), "CUSTOMER");
        assert_eq!(ObjectName::simple("T").dotted(), "T");
    }

    #[test]
    fn placeholder_collection_dedupes_in_order() {
        let e = Expr::binary(
            Expr::Placeholder("B".into()),
            BinaryOp::Add,
            Expr::binary(
                Expr::Placeholder("A".into()),
                BinaryOp::Add,
                Expr::Placeholder("B".into()),
            ),
        );
        assert_eq!(e.placeholders(), vec!["B".to_string(), "A".to_string()]);
    }

    #[test]
    fn stmt_placeholders_cover_insert_values() {
        let stmt = Stmt::Insert(Insert {
            table: ObjectName::simple("T"),
            columns: None,
            source: InsertSource::Values(vec![vec![
                Expr::Placeholder("X".into()),
                Expr::Function {
                    name: "TRIM".into(),
                    args: vec![Expr::Placeholder("Y".into())],
                    distinct: false,
                },
            ]]),
        });
        assert_eq!(stmt.placeholders(), vec!["X".to_string(), "Y".to_string()]);
    }

    #[test]
    fn precedence_ordering() {
        assert!(BinaryOp::Mul.precedence() > BinaryOp::Add.precedence());
        assert!(BinaryOp::Add.precedence() > BinaryOp::Eq.precedence());
        assert!(BinaryOp::Eq.precedence() > BinaryOp::And.precedence());
        assert!(BinaryOp::And.precedence() > BinaryOp::Or.precedence());
    }
}
