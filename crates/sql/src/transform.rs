//! AST transformations: generic expression rewriting and placeholder
//! binding/substitution.
//!
//! Two consumers:
//!
//! - The reference legacy server and the virtualizer's singleton baseline
//!   substitute `:FIELD` placeholders with literal values, one tuple at a
//!   time ([`bind_placeholders`]).
//! - The virtualizer's cross-compiler substitutes `:FIELD` with staging
//!   column references, turning a per-tuple INSERT into a set-oriented
//!   `INSERT ... SELECT` ([`map_placeholders`]).

use crate::ast::*;

/// Rewrite every expression in `stmt` bottom-up with `f`.
pub fn map_exprs(stmt: &Stmt, f: &mut impl FnMut(Expr) -> Expr) -> Stmt {
    match stmt {
        Stmt::Insert(ins) => Stmt::Insert(Insert {
            table: ins.table.clone(),
            columns: ins.columns.clone(),
            source: match &ins.source {
                InsertSource::Values(rows) => InsertSource::Values(
                    rows.iter()
                        .map(|row| row.iter().map(|e| map_expr(e, f)).collect())
                        .collect(),
                ),
                InsertSource::Select(sel) => InsertSource::Select(Box::new(map_select(sel, f))),
            },
        }),
        Stmt::Update(u) => Stmt::Update(Update {
            table: u.table.clone(),
            assignments: u
                .assignments
                .iter()
                .map(|(c, e)| (c.clone(), map_expr(e, f)))
                .collect(),
            selection: u.selection.as_ref().map(|e| map_expr(e, f)),
        }),
        Stmt::Delete(d) => Stmt::Delete(Delete {
            table: d.table.clone(),
            selection: d.selection.as_ref().map(|e| map_expr(e, f)),
        }),
        Stmt::Select(sel) => Stmt::Select(map_select(sel, f)),
        other => other.clone(),
    }
}

fn map_select(sel: &SelectStmt, f: &mut impl FnMut(Expr) -> Expr) -> SelectStmt {
    SelectStmt {
        distinct: sel.distinct,
        projection: sel
            .projection
            .iter()
            .map(|item| match item {
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => item.clone(),
                SelectItem::Expr { expr, alias } => SelectItem::Expr {
                    expr: map_expr(expr, f),
                    alias: alias.clone(),
                },
            })
            .collect(),
        from: sel.from.as_ref().map(|t| map_table_ref(t, f)),
        selection: sel.selection.as_ref().map(|e| map_expr(e, f)),
        group_by: sel.group_by.iter().map(|e| map_expr(e, f)).collect(),
        having: sel.having.as_ref().map(|e| map_expr(e, f)),
        order_by: sel
            .order_by
            .iter()
            .map(|o| OrderItem {
                expr: map_expr(&o.expr, f),
                desc: o.desc,
            })
            .collect(),
        limit: sel.limit,
    }
}

fn map_table_ref(t: &TableRef, f: &mut impl FnMut(Expr) -> Expr) -> TableRef {
    match t {
        TableRef::Named { name, alias } => TableRef::Named {
            name: name.clone(),
            alias: alias.clone(),
        },
        TableRef::Join {
            left,
            right,
            kind,
            on,
        } => TableRef::Join {
            left: Box::new(map_table_ref(left, f)),
            right: Box::new(map_table_ref(right, f)),
            kind: *kind,
            on: Box::new(map_expr(on, f)),
        },
        TableRef::Subquery { query, alias } => TableRef::Subquery {
            query: Box::new(map_select(query, f)),
            alias: alias.clone(),
        },
    }
}

/// Rewrite an expression bottom-up: children first, then `f` on the node.
pub fn map_expr(e: &Expr, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
    let rebuilt = match e {
        Expr::Literal(_) | Expr::Column(_) | Expr::Placeholder(_) | Expr::Wildcard => e.clone(),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(map_expr(expr, f)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(map_expr(left, f)),
            op: *op,
            right: Box::new(map_expr(right, f)),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(map_expr(expr, f)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(map_expr(expr, f)),
            list: list.iter().map(|i| map_expr(i, f)).collect(),
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(map_expr(expr, f)),
            low: Box::new(map_expr(low, f)),
            high: Box::new(map_expr(high, f)),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(map_expr(expr, f)),
            pattern: Box::new(map_expr(pattern, f)),
            negated: *negated,
        },
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => Expr::Case {
            operand: operand.as_ref().map(|o| Box::new(map_expr(o, f))),
            branches: branches
                .iter()
                .map(|(w, t)| (map_expr(w, f), map_expr(t, f)))
                .collect(),
            else_expr: else_expr.as_ref().map(|e2| Box::new(map_expr(e2, f))),
        },
        Expr::Function {
            name,
            args,
            distinct,
        } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(|a| map_expr(a, f)).collect(),
            distinct: *distinct,
        },
        Expr::Cast { expr, ty, format } => Expr::Cast {
            expr: Box::new(map_expr(expr, f)),
            ty: *ty,
            format: format.clone(),
        },
    };
    f(rebuilt)
}

/// Replace every `:NAME` placeholder using `lookup`; placeholders `lookup`
/// returns `None` for are left intact.
pub fn map_placeholders(stmt: &Stmt, mut lookup: impl FnMut(&str) -> Option<Expr>) -> Stmt {
    map_exprs(stmt, &mut |e| match &e {
        Expr::Placeholder(name) => lookup(name).unwrap_or(e),
        _ => e,
    })
}

/// Substitute placeholders with literal values (per-tuple binding).
pub fn bind_placeholders(stmt: &Stmt, mut value_of: impl FnMut(&str) -> Option<Literal>) -> Stmt {
    map_placeholders(stmt, |name| value_of(name).map(Expr::Literal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::render::render_stmt;
    use crate::Dialect;

    fn legacy(sql: &str) -> Stmt {
        parse_statement(sql, Dialect::Legacy).unwrap()
    }

    #[test]
    fn binds_values_insert() {
        let stmt = legacy("INSERT INTO T VALUES (TRIM(:A), :B + 1)");
        let bound = bind_placeholders(&stmt, |name| match name {
            "A" => Some(Literal::Str(" x ".into())),
            "B" => Some(Literal::Integer(41)),
            _ => None,
        });
        let sql = render_stmt(&bound, Dialect::Legacy);
        assert_eq!(sql, "INSERT INTO T VALUES (TRIM(' x '), 41 + 1)");
        assert!(bound.placeholders().is_empty());
    }

    #[test]
    fn unbound_placeholders_survive() {
        let stmt = legacy("INSERT INTO T VALUES (:A, :B)");
        let bound = bind_placeholders(&stmt, |name| (name == "A").then_some(Literal::Integer(1)));
        assert_eq!(bound.placeholders(), vec!["B".to_string()]);
    }

    #[test]
    fn maps_to_column_refs() {
        // The cross-compiler's move: :F -> S.F staging column.
        let stmt = legacy(
            "INSERT INTO T VALUES (TRIM(:CUST_ID), CAST(:JOIN_DATE AS DATE FORMAT 'YYYY-MM-DD'))",
        );
        let mapped = map_placeholders(&stmt, |name| {
            Some(Expr::Column(ObjectName(vec!["S".into(), name.to_string()])))
        });
        let sql = render_stmt(&mapped, Dialect::Cdw);
        assert!(sql.contains("TRIM(S.CUST_ID)"), "{sql}");
        assert!(sql.contains("TO_DATE(S.JOIN_DATE, 'YYYY-MM-DD')"), "{sql}");
    }

    #[test]
    fn rewrites_nested_positions() {
        let stmt = legacy(
            "UPDATE T SET A = CASE WHEN :X > 0 THEN :X ELSE 0 END WHERE B BETWEEN :LO AND :HI",
        );
        let bound = bind_placeholders(&stmt, |name| match name {
            "X" => Some(Literal::Integer(5)),
            "LO" => Some(Literal::Integer(1)),
            "HI" => Some(Literal::Integer(9)),
            _ => None,
        });
        assert!(bound.placeholders().is_empty());
    }

    #[test]
    fn select_positions_rewritten() {
        let stmt =
            legacy("SELECT :A FROM T WHERE C = :B GROUP BY D HAVING COUNT(*) > :A ORDER BY :B");
        let bound = bind_placeholders(&stmt, |_| Some(Literal::Integer(1)));
        assert!(bound.placeholders().is_empty());
    }
}
