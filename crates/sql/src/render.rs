//! Render an AST back to SQL text in a chosen dialect.
//!
//! Rendering is where most cross-dialect differences surface:
//!
//! - A legacy `CAST(x AS DATE FORMAT 'YYYY-MM-DD')` renders in the CDW
//!   dialect as `TO_DATE(x, 'YYYY-MM-DD')`; a FORMAT cast *to* a character
//!   type renders as `TO_CHAR(x, 'fmt')`.
//! - Unicode character types render as `... CHARACTER SET UNICODE`
//!   (legacy) vs `NVARCHAR(n)` (CDW).
//!
//! `parse(render(ast)) == ast` holds for same-dialect roundtrips (modulo
//! the FORMAT-cast rewrite when rendering a legacy tree in the CDW
//! dialect), which the property tests verify.

use crate::ast::*;
use crate::dialect::Dialect;
use crate::types::SqlType;

/// Render a statement as SQL text in `dialect`.
pub fn render_stmt(stmt: &Stmt, dialect: Dialect) -> String {
    let mut out = String::with_capacity(128);
    write_stmt(&mut out, stmt, dialect);
    out
}

fn ident(out: &mut String, name: &str) {
    let plain = !name.is_empty()
        && !name.as_bytes()[0].is_ascii_digit()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'$');
    if plain {
        out.push_str(name);
    } else {
        out.push('"');
        out.push_str(&name.replace('"', "\"\""));
        out.push('"');
    }
}

fn object_name(out: &mut String, name: &ObjectName) {
    for (i, part) in name.0.iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        ident(out, part);
    }
}

fn string_lit(out: &mut String, s: &str) {
    out.push('\'');
    out.push_str(&s.replace('\'', "''"));
    out.push('\'');
}

fn write_stmt(out: &mut String, stmt: &Stmt, d: Dialect) {
    match stmt {
        Stmt::CreateTable(ct) => {
            out.push_str("CREATE TABLE ");
            if ct.if_not_exists {
                out.push_str("IF NOT EXISTS ");
            }
            object_name(out, &ct.name);
            out.push_str(" (");
            let mut first = true;
            for col in &ct.columns {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                ident(out, &col.name);
                out.push(' ');
                out.push_str(&col.ty.render(d));
                if col.not_null {
                    out.push_str(" NOT NULL");
                }
            }
            for c in &ct.constraints {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let TableConstraint::Unique { columns, primary } = c;
                out.push_str(if *primary {
                    "PRIMARY KEY ("
                } else {
                    "UNIQUE ("
                });
                for (i, col) in columns.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    ident(out, col);
                }
                out.push(')');
            }
            out.push(')');
        }
        Stmt::DropTable { name, if_exists } => {
            out.push_str("DROP TABLE ");
            if *if_exists {
                out.push_str("IF EXISTS ");
            }
            object_name(out, name);
        }
        Stmt::Insert(ins) => {
            out.push_str("INSERT INTO ");
            object_name(out, &ins.table);
            if let Some(cols) = &ins.columns {
                out.push_str(" (");
                for (i, c) in cols.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    ident(out, c);
                }
                out.push(')');
            }
            match &ins.source {
                InsertSource::Values(rows) => {
                    out.push_str(" VALUES ");
                    for (i, row) in rows.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        out.push('(');
                        for (j, e) in row.iter().enumerate() {
                            if j > 0 {
                                out.push_str(", ");
                            }
                            write_expr(out, e, d);
                        }
                        out.push(')');
                    }
                }
                InsertSource::Select(sel) => {
                    out.push(' ');
                    write_select(out, sel, d);
                }
            }
        }
        Stmt::Update(u) => {
            out.push_str("UPDATE ");
            object_name(out, &u.table);
            out.push_str(" SET ");
            for (i, (col, e)) in u.assignments.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                ident(out, col);
                out.push_str(" = ");
                write_expr(out, e, d);
            }
            if let Some(w) = &u.selection {
                out.push_str(" WHERE ");
                write_expr(out, w, d);
            }
        }
        Stmt::Delete(del) => {
            out.push_str("DELETE FROM ");
            object_name(out, &del.table);
            if let Some(w) = &del.selection {
                out.push_str(" WHERE ");
                write_expr(out, w, d);
            }
        }
        Stmt::Select(sel) => write_select(out, sel, d),
        Stmt::Copy(c) => {
            out.push_str("COPY INTO ");
            object_name(out, &c.table);
            out.push_str(" FROM ");
            string_lit(out, &c.from_url);
            out.push_str(" DELIMITER ");
            string_lit(out, &(c.delimiter as char).to_string());
            if c.compressed {
                out.push_str(" COMPRESSED");
            }
        }
    }
}

fn write_select(out: &mut String, sel: &SelectStmt, d: Dialect) {
    out.push_str("SELECT ");
    if sel.distinct {
        out.push_str("DISTINCT ");
    }
    for (i, item) in sel.projection.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => out.push('*'),
            SelectItem::Expr { expr, alias } => {
                write_expr(out, expr, d);
                if let Some(a) = alias {
                    out.push_str(" AS ");
                    ident(out, a);
                }
            }
        }
    }
    if let Some(from) = &sel.from {
        out.push_str(" FROM ");
        write_table_ref(out, from, d);
    }
    if let Some(w) = &sel.selection {
        out.push_str(" WHERE ");
        write_expr(out, w, d);
    }
    if !sel.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        for (i, e) in sel.group_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, e, d);
        }
    }
    if let Some(h) = &sel.having {
        out.push_str(" HAVING ");
        write_expr(out, h, d);
    }
    if !sel.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        for (i, o) in sel.order_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, &o.expr, d);
            if o.desc {
                out.push_str(" DESC");
            }
        }
    }
    if let Some(n) = sel.limit {
        out.push_str(" LIMIT ");
        out.push_str(&n.to_string());
    }
}

fn write_table_ref(out: &mut String, t: &TableRef, d: Dialect) {
    match t {
        TableRef::Named { name, alias } => {
            object_name(out, name);
            if let Some(a) = alias {
                out.push(' ');
                ident(out, a);
            }
        }
        TableRef::Join {
            left,
            right,
            kind,
            on,
        } => {
            write_table_ref(out, left, d);
            out.push_str(match kind {
                JoinKind::Inner => " JOIN ",
                JoinKind::Left => " LEFT JOIN ",
            });
            write_table_ref(out, right, d);
            out.push_str(" ON ");
            write_expr(out, on, d);
        }
        TableRef::Subquery { query, alias } => {
            out.push('(');
            write_select(out, query, d);
            out.push_str(") ");
            ident(out, alias);
        }
    }
}

fn write_expr(out: &mut String, e: &Expr, d: Dialect) {
    match e {
        Expr::Literal(lit) => write_literal(out, lit),
        Expr::Column(name) => object_name(out, name),
        Expr::Placeholder(name) => {
            out.push(':');
            out.push_str(name);
        }
        Expr::Wildcard => out.push('*'),
        Expr::Unary { op, expr } => {
            match op {
                UnaryOp::Neg => out.push('-'),
                UnaryOp::Not => out.push_str("NOT "),
            }
            write_paren(out, expr, d);
        }
        Expr::Binary { left, op, right } => {
            write_paren(out, left, d);
            out.push(' ');
            out.push_str(match op {
                BinaryOp::Add => "+",
                BinaryOp::Sub => "-",
                BinaryOp::Mul => "*",
                BinaryOp::Div => "/",
                BinaryOp::Mod => "MOD",
                BinaryOp::Eq => "=",
                BinaryOp::NotEq => "<>",
                BinaryOp::Lt => "<",
                BinaryOp::LtEq => "<=",
                BinaryOp::Gt => ">",
                BinaryOp::GtEq => ">=",
                BinaryOp::And => "AND",
                BinaryOp::Or => "OR",
                BinaryOp::Concat => "||",
            });
            out.push(' ');
            write_paren(out, right, d);
        }
        Expr::IsNull { expr, negated } => {
            write_paren(out, expr, d);
            out.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            write_paren(out, expr, d);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            for (i, item) in list.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, item, d);
            }
            out.push(')');
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            write_paren(out, expr, d);
            out.push_str(if *negated {
                " NOT BETWEEN "
            } else {
                " BETWEEN "
            });
            write_paren(out, low, d);
            out.push_str(" AND ");
            write_paren(out, high, d);
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            write_paren(out, expr, d);
            out.push_str(if *negated { " NOT LIKE " } else { " LIKE " });
            write_paren(out, pattern, d);
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            out.push_str("CASE");
            if let Some(op) = operand {
                out.push(' ');
                write_expr(out, op, d);
            }
            for (w, t) in branches {
                out.push_str(" WHEN ");
                write_expr(out, w, d);
                out.push_str(" THEN ");
                write_expr(out, t, d);
            }
            if let Some(el) = else_expr {
                out.push_str(" ELSE ");
                write_expr(out, el, d);
            }
            out.push_str(" END");
        }
        Expr::Function {
            name,
            args,
            distinct,
        } => {
            out.push_str(name);
            out.push('(');
            if *distinct {
                out.push_str("DISTINCT ");
            }
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a, d);
            }
            out.push(')');
        }
        Expr::Cast { expr, ty, format } => write_cast(out, expr, *ty, format.as_deref(), d),
    }
}

fn write_cast(out: &mut String, expr: &Expr, ty: SqlType, format: Option<&str>, d: Dialect) {
    match (format, d) {
        (Some(fmt), Dialect::Cdw) => {
            // The canonical cross-compilation: FORMAT casts become
            // TO_DATE / TO_CHAR function calls on the CDW.
            if ty == SqlType::Date {
                out.push_str("TO_DATE(");
                write_expr(out, expr, d);
                out.push_str(", ");
                string_lit(out, fmt);
                out.push(')');
            } else if ty.is_character() {
                out.push_str("TO_CHAR(");
                write_expr(out, expr, d);
                out.push_str(", ");
                string_lit(out, fmt);
                out.push(')');
            } else {
                // FORMAT on non-date/char types has no CDW equivalent;
                // drop the format and cast plainly.
                out.push_str("CAST(");
                write_expr(out, expr, d);
                out.push_str(" AS ");
                out.push_str(&ty.render(d));
                out.push(')');
            }
        }
        (Some(fmt), Dialect::Legacy) => {
            out.push_str("CAST(");
            write_expr(out, expr, d);
            out.push_str(" AS ");
            out.push_str(&ty.render(d));
            out.push_str(" FORMAT ");
            string_lit(out, fmt);
            out.push(')');
        }
        (None, _) => {
            out.push_str("CAST(");
            write_expr(out, expr, d);
            out.push_str(" AS ");
            out.push_str(&ty.render(d));
            out.push(')');
        }
    }
}

/// Write a sub-expression, parenthesizing anything compound so the output
/// re-parses with identical structure regardless of precedence subtleties.
fn write_paren(out: &mut String, e: &Expr, d: Dialect) {
    let atomic = matches!(
        e,
        Expr::Literal(_)
            | Expr::Column(_)
            | Expr::Placeholder(_)
            | Expr::Function { .. }
            | Expr::Cast { .. }
            | Expr::Wildcard
            | Expr::Case { .. }
    );
    if atomic {
        write_expr(out, e, d);
    } else {
        out.push('(');
        write_expr(out, e, d);
        out.push(')');
    }
}

fn write_literal(out: &mut String, lit: &Literal) {
    match lit {
        Literal::Null => out.push_str("NULL"),
        Literal::Integer(v) => out.push_str(&v.to_string()),
        Literal::Decimal(dec) => out.push_str(&dec.to_string()),
        Literal::Float(f) => {
            // Ensure the literal re-lexes as a float.
            let s = format!("{f:e}");
            out.push_str(&s);
        }
        Literal::Str(s) => string_lit(out, s),
        Literal::Date(d) => {
            out.push_str("DATE ");
            string_lit(out, &d.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn roundtrip(sql: &str, d: Dialect) {
        let stmt = parse_statement(sql, d).unwrap();
        let rendered = render_stmt(&stmt, d);
        let reparsed = parse_statement(&rendered, d)
            .unwrap_or_else(|e| panic!("re-parse of `{rendered}` failed: {e}"));
        assert_eq!(reparsed, stmt, "roundtrip mismatch for `{rendered}`");
    }

    #[test]
    fn roundtrips_legacy() {
        for sql in [
            "INSERT INTO PROD.CUSTOMER VALUES (TRIM(:CUST_ID), TRIM(:CUST_NAME), CAST(:JOIN_DATE AS DATE FORMAT 'YYYY-MM-DD'))",
            "SELECT A, B FROM T WHERE A > 1 AND B IS NOT NULL ORDER BY A DESC",
            "CREATE TABLE T (A INTEGER NOT NULL, B VARCHAR(10) CHARACTER SET UNICODE, PRIMARY KEY (A))",
            "UPDATE T SET A = A + 1 WHERE B IN (1, 2, 3)",
            "DELETE FROM T WHERE A BETWEEN 1 AND 9",
            "SELECT CASE WHEN A = 1 THEN 'x' ELSE 'y' END FROM T",
            "SELECT COUNT(DISTINCT A) FROM T GROUP BY B HAVING COUNT(*) > 2",
        ] {
            roundtrip(sql, Dialect::Legacy);
        }
    }

    #[test]
    fn roundtrips_cdw() {
        for sql in [
            "COPY INTO STG FROM 'store://b/p/' DELIMITER '|' COMPRESSED",
            "INSERT INTO T (A, B) SELECT X, Y FROM S JOIN R ON S.K = R.K",
            "SELECT N FROM (SELECT COUNT(*) AS N FROM T) q WHERE N > 0",
            "SELECT A || 'x' FROM T LIMIT 3",
        ] {
            roundtrip(sql, Dialect::Cdw);
        }
    }

    #[test]
    fn format_cast_cross_renders_as_to_date() {
        let stmt = parse_statement(
            "INSERT INTO T VALUES (CAST(:D AS DATE FORMAT 'YYYY-MM-DD'))",
            Dialect::Legacy,
        )
        .unwrap();
        let cdw = render_stmt(&stmt, Dialect::Cdw);
        assert!(cdw.contains("TO_DATE(:D, 'YYYY-MM-DD')"), "{cdw}");
        let legacy = render_stmt(&stmt, Dialect::Legacy);
        assert!(legacy.contains("FORMAT 'YYYY-MM-DD'"), "{legacy}");
    }

    #[test]
    fn format_cast_to_char() {
        let stmt = parse_statement(
            "SELECT CAST(D AS VARCHAR(10) FORMAT 'MM/DD/YY') FROM T",
            Dialect::Legacy,
        )
        .unwrap();
        let cdw = render_stmt(&stmt, Dialect::Cdw);
        assert!(cdw.contains("TO_CHAR(D, 'MM/DD/YY')"), "{cdw}");
    }

    #[test]
    fn unicode_type_renders_per_dialect() {
        let stmt = parse_statement(
            "CREATE TABLE T (A VARCHAR(5) CHARACTER SET UNICODE)",
            Dialect::Legacy,
        )
        .unwrap();
        assert!(render_stmt(&stmt, Dialect::Cdw).contains("NVARCHAR(5)"));
        assert!(render_stmt(&stmt, Dialect::Legacy).contains("CHARACTER SET UNICODE"));
    }

    #[test]
    fn weird_identifiers_quoted() {
        let stmt = Stmt::Select(SelectStmt::new(vec![SelectItem::Expr {
            expr: Expr::Column(ObjectName::simple("weird name")),
            alias: None,
        }]));
        let sql = render_stmt(&stmt, Dialect::Cdw);
        assert_eq!(sql, "SELECT \"weird name\"");
        roundtrip(&sql, Dialect::Cdw);
    }

    #[test]
    fn string_escaping() {
        let stmt = Stmt::Select(SelectStmt::new(vec![SelectItem::Expr {
            expr: Expr::str("it's"),
            alias: None,
        }]));
        let sql = render_stmt(&stmt, Dialect::Cdw);
        assert_eq!(sql, "SELECT 'it''s'");
        roundtrip(&sql, Dialect::Cdw);
    }
}
