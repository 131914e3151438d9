//! Recursive-descent SQL parser for both dialects.

use std::fmt;

use etlv_protocol::data::{parse_float, Date, Decimal, LegacyType, MAX_PRECISION};

use crate::ast::*;
use crate::dialect::Dialect;
use crate::lexer::{LexError, Lexer, Punct, Token};
use crate::types::{Charset, SqlType};

/// A parse error with a description and the offending token position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Description of the failure.
    pub message: String,
    /// Index of the offending token (not byte offset).
    pub token_index: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at token {}: {}",
            self.token_index, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            message: e.to_string(),
            token_index: 0,
        }
    }
}

/// Parse a single statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str, dialect: Dialect) -> Result<Stmt, ParseError> {
    let mut parser = Parser::new(sql, dialect)?;
    let stmt = parser.parse_stmt()?;
    parser.eat_punct(Punct::Semicolon);
    parser.expect_eof()?;
    Ok(stmt)
}

/// Parse a `;`-separated list of statements.
pub fn parse_statements(sql: &str, dialect: Dialect) -> Result<Vec<Stmt>, ParseError> {
    let mut parser = Parser::new(sql, dialect)?;
    let mut stmts = Vec::new();
    loop {
        while parser.eat_punct(Punct::Semicolon) {}
        if parser.at_eof() {
            break;
        }
        stmts.push(parser.parse_stmt()?);
    }
    Ok(stmts)
}

/// The SQL parser.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    dialect: Dialect,
}

impl Parser {
    /// Tokenize `sql` and construct a parser.
    pub fn new(sql: &str, dialect: Dialect) -> Result<Parser, ParseError> {
        Ok(Parser {
            tokens: Lexer::tokenize(sql)?,
            pos: 0,
            dialect,
        })
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            token_index: self.pos,
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Whether all tokens are consumed.
    pub fn at_eof(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err(format!(
                "unexpected trailing token {:?}",
                self.tokens[self.pos]
            )))
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Word(w)) if w == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn at_punct(&self, p: Punct) -> bool {
        matches!(self.peek(), Some(Token::Punct(q)) if *q == p)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{p}', found {:?}", self.peek())))
        }
    }

    /// Whether the next tokens are `name . *`.
    fn at_qualified_star(&self) -> bool {
        matches!(
            self.tokens.get(self.pos..self.pos + 3),
            Some([
                Token::Word(_) | Token::QuotedIdent(_),
                Token::Punct(Punct::Dot),
                Token::Punct(Punct::Star)
            ])
        )
    }

    fn parse_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Word(w)) => Ok(w),
            Some(Token::QuotedIdent(w)) => Ok(w),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn parse_object_name(&mut self) -> Result<ObjectName, ParseError> {
        let first = self.parse_ident()?;
        self.parse_name_tail(first)
    }

    /// The `.`-separated parts after a name's first. An unquoted reserved
    /// word there is an error, not a name: `SELECT T. FROM T` must not
    /// read as column `T.FROM`; `T."FROM"` still names one.
    fn parse_name_tail(&mut self, first: String) -> Result<ObjectName, ParseError> {
        let mut parts = vec![first];
        while self.eat_punct(Punct::Dot) {
            if let Some(Token::Word(w)) = self.peek() {
                if is_reserved(w) {
                    return Err(self.err(format!("expected identifier after '.', found {w}")));
                }
            }
            parts.push(self.parse_ident()?);
        }
        Ok(ObjectName(parts))
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Str(s)) => Ok(s),
            other => Err(self.err(format!("expected string literal, found {other:?}"))),
        }
    }

    fn parse_u64(&mut self) -> Result<u64, ParseError> {
        match self.bump() {
            Some(Token::Integer(n)) => n
                .parse::<u64>()
                .map_err(|_| self.err(format!("integer '{n}' out of range"))),
            other => Err(self.err(format!("expected integer, found {other:?}"))),
        }
    }

    // ---------------------------------------------------------------- stmts

    /// Parse one statement.
    pub fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        // Legacy scripts often prefix queries with `LOCKING <tbl> FOR
        // ACCESS`; it is a hint with no CDW equivalent, so we accept and
        // drop it (cross-compilation handles semantics elsewhere).
        if self.dialect.allows_locking_modifier() && self.eat_keyword("LOCKING") {
            let _ = self.parse_object_name()?;
            self.expect_keyword("FOR")?;
            self.expect_keyword("ACCESS")?;
        }
        match self.peek() {
            Some(Token::Word(w)) => match w.as_str() {
                "CREATE" => self.parse_create_table(),
                "DROP" => self.parse_drop_table(),
                "INSERT" | "INS" => self.parse_insert(),
                "UPDATE" | "UPD" => self.parse_update(),
                "DELETE" | "DEL" => self.parse_delete(),
                "SELECT" => self.parse_select().map(Stmt::Select),
                "SEL" if self.dialect.allows_sel_keyword() => self.parse_select().map(Stmt::Select),
                "COPY" if self.dialect.allows_copy() => self.parse_copy(),
                other => Err(self.err(format!("unexpected statement keyword {other}"))),
            },
            other => Err(self.err(format!("expected a statement, found {other:?}"))),
        }
    }

    fn parse_create_table(&mut self) -> Result<Stmt, ParseError> {
        self.expect_keyword("CREATE")?;
        // Legacy `CREATE MULTISET TABLE` / `CREATE SET TABLE` volatility
        // keywords are accepted and normalized away.
        let _ = self.eat_keyword("MULTISET") || self.eat_keyword("SET");
        let _ = self.eat_keyword("VOLATILE");
        self.expect_keyword("TABLE")?;
        let if_not_exists = if self.eat_keyword("IF") {
            self.expect_keyword("NOT")?;
            self.expect_keyword("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.parse_object_name()?;
        self.expect_punct(Punct::LParen)?;
        let mut columns = Vec::new();
        let mut constraints = Vec::new();
        loop {
            if self.at_keyword("UNIQUE") || self.at_keyword("PRIMARY") {
                constraints.push(self.parse_table_constraint()?);
            } else {
                let col_name = self.parse_ident()?;
                let ty = self.parse_type()?;
                let mut not_null = false;
                loop {
                    if self.eat_keyword("NOT") {
                        self.expect_keyword("NULL")?;
                        not_null = true;
                    } else if self.eat_keyword("NULL") {
                        // explicit NULL-able, default
                    } else {
                        break;
                    }
                }
                columns.push(ColumnDef {
                    name: col_name,
                    ty,
                    not_null,
                });
            }
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RParen)?;
        // Legacy suffix: `UNIQUE PRIMARY INDEX (cols)`.
        if self.eat_keyword("UNIQUE") {
            self.expect_keyword("PRIMARY")?;
            self.expect_keyword("INDEX")?;
            self.expect_punct(Punct::LParen)?;
            let mut cols = vec![self.parse_ident()?];
            while self.eat_punct(Punct::Comma) {
                cols.push(self.parse_ident()?);
            }
            self.expect_punct(Punct::RParen)?;
            constraints.push(TableConstraint::Unique {
                columns: cols,
                primary: true,
            });
        }
        Ok(Stmt::CreateTable(CreateTable {
            name,
            columns,
            constraints,
            if_not_exists,
        }))
    }

    fn parse_table_constraint(&mut self) -> Result<TableConstraint, ParseError> {
        let primary = if self.eat_keyword("PRIMARY") {
            self.expect_keyword("KEY")?;
            true
        } else {
            self.expect_keyword("UNIQUE")?;
            false
        };
        self.expect_punct(Punct::LParen)?;
        let mut cols = vec![self.parse_ident()?];
        while self.eat_punct(Punct::Comma) {
            cols.push(self.parse_ident()?);
        }
        self.expect_punct(Punct::RParen)?;
        Ok(TableConstraint::Unique {
            columns: cols,
            primary,
        })
    }

    /// Parse a SQL type name.
    pub fn parse_type(&mut self) -> Result<SqlType, ParseError> {
        let word = self.parse_ident()?;
        let ty = match word.as_str() {
            "BYTEINT" => SqlType::ByteInt,
            "SMALLINT" => SqlType::SmallInt,
            "INTEGER" | "INT" => SqlType::Integer,
            "BIGINT" => SqlType::BigInt,
            "FLOAT" | "REAL" => SqlType::Float,
            "DOUBLE" => {
                let _ = self.eat_keyword("PRECISION");
                SqlType::Float
            }
            "DECIMAL" | "NUMERIC" => {
                self.expect_punct(Punct::LParen)?;
                let p = self.parse_u64()?;
                let s = if self.eat_punct(Punct::Comma) {
                    self.parse_u64()?
                } else {
                    0
                };
                self.expect_punct(Punct::RParen)?;
                match LegacyType::decimal(p, s) {
                    Some(ty) => SqlType::from_legacy(ty),
                    None => {
                        return Err(self.err(format!(
                            "DECIMAL({p},{s}) needs 1 <= precision <= {MAX_PRECISION} and scale <= precision"
                        )))
                    }
                }
            }
            "CHAR" | "CHARACTER" => {
                let n = self.parse_len()?;
                let cs = self.parse_charset()?;
                SqlType::Char(n, cs)
            }
            "VARCHAR" => {
                let n = self.parse_len()?;
                let cs = self.parse_charset()?;
                SqlType::VarChar(n, cs)
            }
            "NVARCHAR" => SqlType::NVarChar(self.parse_len()?),
            "DATE" => SqlType::Date,
            "TIMESTAMP" => SqlType::Timestamp,
            "VARBYTE" => SqlType::VarByte(self.parse_len()?),
            other => return Err(self.err(format!("unknown type {other}"))),
        };
        // Legacy column attribute `CASESPECIFIC` / `NOT CASESPECIFIC` is
        // accepted and dropped (string comparisons here are case-exact).
        if self.at_keyword("CASESPECIFIC") {
            self.pos += 1;
        } else if self.at_keyword("NOT")
            && matches!(self.tokens.get(self.pos + 1), Some(Token::Word(w)) if w == "CASESPECIFIC")
        {
            self.pos += 2;
        }
        Ok(ty)
    }

    fn parse_len(&mut self) -> Result<u16, ParseError> {
        self.expect_punct(Punct::LParen)?;
        let n = self.parse_u64()?;
        self.expect_punct(Punct::RParen)?;
        u16::try_from(n).map_err(|_| self.err("type length out of range"))
    }

    fn parse_charset(&mut self) -> Result<Charset, ParseError> {
        if self.eat_keyword("CHARACTER") {
            self.expect_keyword("SET")?;
            let cs = self.parse_ident()?;
            match cs.as_str() {
                "UNICODE" => Ok(Charset::Unicode),
                "LATIN" => Ok(Charset::Latin),
                other => Err(self.err(format!("unknown character set {other}"))),
            }
        } else {
            Ok(Charset::Latin)
        }
    }

    fn parse_drop_table(&mut self) -> Result<Stmt, ParseError> {
        self.expect_keyword("DROP")?;
        self.expect_keyword("TABLE")?;
        let if_exists = if self.eat_keyword("IF") {
            self.expect_keyword("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.parse_object_name()?;
        Ok(Stmt::DropTable { name, if_exists })
    }

    fn parse_insert(&mut self) -> Result<Stmt, ParseError> {
        self.pos += 1; // INSERT / INS
        self.expect_keyword("INTO")?;
        let table = self.parse_object_name()?;
        let mut columns = None;
        if self.at_punct(Punct::LParen) {
            // Distinguish `(col, ...)` from `VALUES` — a column list is only
            // present when followed by VALUES or SELECT.
            let save = self.pos;
            self.pos += 1;
            let mut cols = Vec::new();
            let ok = loop {
                match self.bump() {
                    Some(Token::Word(w)) => cols.push(w),
                    Some(Token::QuotedIdent(w)) => cols.push(w),
                    _ => break false,
                }
                if self.eat_punct(Punct::RParen) {
                    break true;
                }
                if !self.eat_punct(Punct::Comma) {
                    break false;
                }
            };
            if ok
                && (self.at_keyword("VALUES")
                    || self.at_keyword("SELECT")
                    || self.at_keyword("SEL"))
            {
                columns = Some(cols);
            } else {
                self.pos = save;
            }
        }
        let source = if self.eat_keyword("VALUES") {
            let mut rows = Vec::new();
            loop {
                self.expect_punct(Punct::LParen)?;
                let mut row = Vec::new();
                if !self.at_punct(Punct::RParen) {
                    row.push(self.parse_expr()?);
                    while self.eat_punct(Punct::Comma) {
                        row.push(self.parse_expr()?);
                    }
                }
                self.expect_punct(Punct::RParen)?;
                rows.push(row);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else if self.at_keyword("SELECT")
            || (self.dialect.allows_sel_keyword() && self.at_keyword("SEL"))
        {
            InsertSource::Select(Box::new(self.parse_select()?))
        } else {
            return Err(self.err("expected VALUES or SELECT after INSERT INTO"));
        };
        Ok(Stmt::Insert(Insert {
            table,
            columns,
            source,
        }))
    }

    fn parse_update(&mut self) -> Result<Stmt, ParseError> {
        self.pos += 1; // UPDATE / UPD
        let table = self.parse_object_name()?;
        self.expect_keyword("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.parse_ident()?;
            self.expect_punct(Punct::Eq)?;
            let value = self.parse_expr()?;
            assignments.push((col, value));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        let selection = if self.eat_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Stmt::Update(Update {
            table,
            assignments,
            selection,
        }))
    }

    fn parse_delete(&mut self) -> Result<Stmt, ParseError> {
        self.pos += 1; // DELETE / DEL
        let _ = self.eat_keyword("FROM");
        let table = self.parse_object_name()?;
        // Legacy `DELETE t ALL` spelling.
        let _ = self.eat_keyword("ALL");
        let selection = if self.eat_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Stmt::Delete(Delete { table, selection }))
    }

    fn parse_copy(&mut self) -> Result<Stmt, ParseError> {
        self.expect_keyword("COPY")?;
        self.expect_keyword("INTO")?;
        let table = self.parse_object_name()?;
        self.expect_keyword("FROM")?;
        let from_url = self.parse_string()?;
        let mut delimiter = b'|';
        let mut compressed = false;
        loop {
            if self.eat_keyword("DELIMITER") {
                let s = self.parse_string()?;
                if s.len() != 1 {
                    return Err(self.err("COPY delimiter must be a single character"));
                }
                delimiter = s.as_bytes()[0];
            } else if self.eat_keyword("COMPRESSED") {
                compressed = true;
            } else {
                break;
            }
        }
        Ok(Stmt::Copy(CopyStmt {
            table,
            from_url,
            delimiter,
            compressed,
        }))
    }

    /// Parse a SELECT statement (after optionally consuming SELECT/SEL).
    pub fn parse_select(&mut self) -> Result<SelectStmt, ParseError> {
        if !(self.eat_keyword("SELECT")
            || (self.dialect.allows_sel_keyword() && self.eat_keyword("SEL")))
        {
            return Err(self.err("expected SELECT"));
        }
        let distinct = self.eat_keyword("DISTINCT");
        let mut limit = None;
        if self.eat_keyword("TOP") {
            limit = Some(self.parse_u64()?);
        }
        let mut projection = Vec::new();
        loop {
            if self.eat_punct(Punct::Star) {
                projection.push(SelectItem::Wildcard);
            } else if self.at_qualified_star() {
                let qualifier = self.parse_ident()?;
                self.expect_punct(Punct::Dot)?;
                self.expect_punct(Punct::Star)?;
                projection.push(SelectItem::QualifiedWildcard(qualifier));
            } else {
                let expr = self.parse_expr()?;
                let alias = if self.eat_keyword("AS")
                    || matches!(self.peek(), Some(Token::Word(w)) if !is_reserved(w))
                {
                    Some(self.parse_ident()?)
                } else {
                    None
                };
                projection.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        let from = if self.eat_keyword("FROM") {
            Some(self.parse_table_ref()?)
        } else {
            None
        };
        let selection = if self.eat_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.parse_expr()?);
            while self.eat_punct(Punct::Comma) {
                group_by.push(self.parse_expr()?);
            }
        }
        let having = if self.eat_keyword("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_keyword("DESC") {
                    true
                } else {
                    let _ = self.eat_keyword("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        if self.eat_keyword("LIMIT") {
            limit = Some(self.parse_u64()?);
        }
        Ok(SelectStmt {
            distinct,
            projection,
            from,
            selection,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, ParseError> {
        let mut left = self.parse_table_factor()?;
        loop {
            let kind = if self.eat_keyword("JOIN") {
                JoinKind::Inner
            } else if self.eat_keyword("INNER") {
                self.expect_keyword("JOIN")?;
                JoinKind::Inner
            } else if self.eat_keyword("LEFT") {
                let _ = self.eat_keyword("OUTER");
                self.expect_keyword("JOIN")?;
                JoinKind::Left
            } else {
                break;
            };
            let right = self.parse_table_factor()?;
            self.expect_keyword("ON")?;
            let on = self.parse_expr()?;
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on: Box::new(on),
            };
        }
        Ok(left)
    }

    fn parse_table_factor(&mut self) -> Result<TableRef, ParseError> {
        if self.eat_punct(Punct::LParen) {
            let query = self.parse_select()?;
            self.expect_punct(Punct::RParen)?;
            let _ = self.eat_keyword("AS");
            let alias = self.parse_ident()?;
            return Ok(TableRef::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.parse_object_name()?;
        let alias = if self.eat_keyword("AS")
            || matches!(self.peek(), Some(Token::Word(w)) if !is_reserved(w))
        {
            Some(self.parse_ident()?)
        } else {
            None
        };
        Ok(TableRef::Named { name, alias })
    }

    // ---------------------------------------------------------------- exprs

    /// Parse a scalar expression.
    pub fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_expr_prec(0)
    }

    fn parse_expr_prec(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_prefix()?;
        loop {
            lhs = self.parse_postfix(lhs, min_prec)?;
            let Some(op) = self.peek_binary_op() else {
                break;
            };
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.consume_binary_op(op);
            let rhs = self.parse_expr_prec(prec + 1)?;
            lhs = Expr::binary(lhs, op, rhs);
        }
        Ok(lhs)
    }

    fn peek_binary_op(&self) -> Option<BinaryOp> {
        match self.peek()? {
            Token::Punct(p) => Some(match p {
                Punct::Plus => BinaryOp::Add,
                Punct::Minus => BinaryOp::Sub,
                Punct::Star => BinaryOp::Mul,
                Punct::Slash => BinaryOp::Div,
                Punct::Percent => BinaryOp::Mod,
                Punct::Eq => BinaryOp::Eq,
                Punct::NotEq => BinaryOp::NotEq,
                Punct::Lt => BinaryOp::Lt,
                Punct::LtEq => BinaryOp::LtEq,
                Punct::Gt => BinaryOp::Gt,
                Punct::GtEq => BinaryOp::GtEq,
                Punct::Concat => BinaryOp::Concat,
                _ => return None,
            }),
            Token::Word(w) => match w.as_str() {
                "AND" => Some(BinaryOp::And),
                "OR" => Some(BinaryOp::Or),
                "MOD" => Some(BinaryOp::Mod),
                _ => None,
            },
            _ => None,
        }
    }

    fn consume_binary_op(&mut self, _op: BinaryOp) {
        self.pos += 1;
    }

    /// Postfix constructs: IS [NOT] NULL, [NOT] IN / BETWEEN / LIKE.
    /// These bind at comparison precedence (4); inside a tighter context we
    /// leave them for the outer call.
    fn parse_postfix(&mut self, mut lhs: Expr, min_prec: u8) -> Result<Expr, ParseError> {
        if min_prec > 4 {
            return Ok(lhs);
        }
        loop {
            if self.eat_keyword("IS") {
                let negated = self.eat_keyword("NOT");
                self.expect_keyword("NULL")?;
                lhs = Expr::IsNull {
                    expr: Box::new(lhs),
                    negated,
                };
                continue;
            }
            let negated = if self.at_keyword("NOT")
                && matches!(self.tokens.get(self.pos + 1), Some(Token::Word(w)) if matches!(w.as_str(), "IN" | "BETWEEN" | "LIKE"))
            {
                self.pos += 1;
                true
            } else {
                false
            };
            if self.eat_keyword("IN") {
                self.expect_punct(Punct::LParen)?;
                let mut list = vec![self.parse_expr()?];
                while self.eat_punct(Punct::Comma) {
                    list.push(self.parse_expr()?);
                }
                self.expect_punct(Punct::RParen)?;
                lhs = Expr::InList {
                    expr: Box::new(lhs),
                    list,
                    negated,
                };
                continue;
            }
            if self.eat_keyword("BETWEEN") {
                let low = self.parse_expr_prec(5)?;
                self.expect_keyword("AND")?;
                let high = self.parse_expr_prec(5)?;
                lhs = Expr::Between {
                    expr: Box::new(lhs),
                    low: Box::new(low),
                    high: Box::new(high),
                    negated,
                };
                continue;
            }
            if self.eat_keyword("LIKE") {
                let pattern = self.parse_expr_prec(5)?;
                lhs = Expr::Like {
                    expr: Box::new(lhs),
                    pattern: Box::new(pattern),
                    negated,
                };
                continue;
            }
            if negated {
                return Err(self.err("expected IN, BETWEEN, or LIKE after NOT"));
            }
            return Ok(lhs);
        }
    }

    fn parse_prefix(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Token::Punct(Punct::LParen)) => {
                self.pos += 1;
                let e = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            Some(Token::Punct(Punct::Minus)) => {
                self.pos += 1;
                let e = self.parse_expr_prec(7)?;
                // Fold negation into numeric literals so `-5` parses as the
                // literal -5 (and render→parse is structurally stable).
                Ok(match e {
                    Expr::Literal(Literal::Integer(v)) => Expr::Literal(Literal::Integer(-v)),
                    Expr::Literal(Literal::Decimal(d)) => {
                        Expr::Literal(Literal::Decimal(Decimal::new(-d.unscaled(), d.scale())))
                    }
                    Expr::Literal(Literal::Float(f)) => Expr::Literal(Literal::Float(-f)),
                    other => Expr::Unary {
                        op: UnaryOp::Neg,
                        expr: Box::new(other),
                    },
                })
            }
            Some(Token::Punct(Punct::Plus)) => {
                self.pos += 1;
                self.parse_expr_prec(7)
            }
            Some(Token::Integer(n)) => {
                self.pos += 1;
                n.parse::<i64>()
                    .map(|v| Expr::Literal(Literal::Integer(v)))
                    .map_err(|_| self.err(format!("integer '{n}' out of range")))
            }
            Some(Token::Number(n)) => {
                self.pos += 1;
                if n.contains(['e', 'E']) {
                    parse_float(&n)
                        .map(|v| Expr::Literal(Literal::Float(v)))
                        .map_err(|_| self.err(format!("bad float '{n}'")))
                } else {
                    Decimal::parse(&n)
                        .map(|d| Expr::Literal(Literal::Decimal(d)))
                        .map_err(|e| self.err(e.to_string()))
                }
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::Str(s)))
            }
            Some(Token::Placeholder(name)) => {
                self.pos += 1;
                if !self.dialect.allows_placeholders() {
                    return Err(self.err(format!(
                        "placeholder :{name} is not valid in the {} dialect",
                        self.dialect
                    )));
                }
                Ok(Expr::Placeholder(name))
            }
            Some(Token::Word(w)) => self.parse_word_prefix(w),
            Some(Token::QuotedIdent(w)) => {
                self.pos += 1;
                self.parse_name_tail(w).map(Expr::Column)
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }

    fn parse_word_prefix(&mut self, word: String) -> Result<Expr, ParseError> {
        match word.as_str() {
            "NULL" => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::Null))
            }
            "NOT" => {
                self.pos += 1;
                let e = self.parse_expr_prec(3)?;
                Ok(Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(e),
                })
            }
            "DATE" if matches!(self.tokens.get(self.pos + 1), Some(Token::Str(_))) => {
                self.pos += 1;
                let s = self.parse_string()?;
                Date::parse_iso(&s)
                    .map(|d| Expr::Literal(Literal::Date(d)))
                    .map_err(|e| self.err(e.to_string()))
            }
            "CASE" => {
                self.pos += 1;
                self.parse_case()
            }
            "CAST" => {
                self.pos += 1;
                self.parse_cast()
            }
            _ => {
                self.pos += 1;
                if self.at_punct(Punct::LParen) {
                    self.parse_function(word)
                } else {
                    self.parse_name_tail(word).map(Expr::Column)
                }
            }
        }
    }

    fn parse_function(&mut self, name: String) -> Result<Expr, ParseError> {
        self.expect_punct(Punct::LParen)?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut args = Vec::new();
        if !self.at_punct(Punct::RParen) {
            loop {
                if self.eat_punct(Punct::Star) {
                    args.push(Expr::Wildcard);
                } else {
                    args.push(self.parse_expr()?);
                }
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        self.expect_punct(Punct::RParen)?;
        Ok(Expr::Function {
            name,
            args,
            distinct,
        })
    }

    fn parse_case(&mut self) -> Result<Expr, ParseError> {
        let operand = if !self.at_keyword("WHEN") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        let mut branches = Vec::new();
        while self.eat_keyword("WHEN") {
            let when = self.parse_expr()?;
            self.expect_keyword("THEN")?;
            let then = self.parse_expr()?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(self.err("CASE requires at least one WHEN branch"));
        }
        let else_expr = if self.eat_keyword("ELSE") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_keyword("END")?;
        Ok(Expr::Case {
            operand,
            branches,
            else_expr,
        })
    }

    fn parse_cast(&mut self) -> Result<Expr, ParseError> {
        self.expect_punct(Punct::LParen)?;
        let expr = self.parse_expr()?;
        self.expect_keyword("AS")?;
        let ty = self.parse_type()?;
        let format = if self.at_keyword("FORMAT") {
            if !self.dialect.allows_format_cast() {
                return Err(self.err(format!(
                    "CAST ... FORMAT is not valid in the {} dialect",
                    self.dialect
                )));
            }
            self.pos += 1;
            Some(self.parse_string()?)
        } else {
            None
        };
        self.expect_punct(Punct::RParen)?;
        Ok(Expr::Cast {
            expr: Box::new(expr),
            ty,
            format,
        })
    }
}

/// Words that terminate an implicit alias position.
fn is_reserved(word: &str) -> bool {
    matches!(
        word,
        "FROM"
            | "WHERE"
            | "GROUP"
            | "HAVING"
            | "ORDER"
            | "LIMIT"
            | "JOIN"
            | "INNER"
            | "LEFT"
            | "RIGHT"
            | "OUTER"
            | "ON"
            | "AND"
            | "OR"
            | "NOT"
            | "AS"
            | "SET"
            | "VALUES"
            | "SELECT"
            | "SEL"
            | "UNION"
            | "WHEN"
            | "THEN"
            | "ELSE"
            | "END"
            | "CASE"
            | "IS"
            | "IN"
            | "BETWEEN"
            | "LIKE"
            | "DESC"
            | "ASC"
            | "TOP"
            | "DISTINCT"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legacy(sql: &str) -> Stmt {
        parse_statement(sql, Dialect::Legacy).unwrap()
    }

    fn cdw(sql: &str) -> Stmt {
        parse_statement(sql, Dialect::Cdw).unwrap()
    }

    #[test]
    fn parses_example_2_1_insert() {
        let stmt = legacy(
            "insert into PROD.CUSTOMER values ( trim(:CUST_ID), trim(:CUST_NAME), cast(:JOIN_DATE as DATE format 'YYYY-MM-DD') );",
        );
        let Stmt::Insert(ins) = stmt else {
            panic!("expected insert")
        };
        assert_eq!(ins.table.dotted(), "PROD.CUSTOMER");
        let InsertSource::Values(rows) = &ins.source else {
            panic!("expected values")
        };
        assert_eq!(rows[0].len(), 3);
        match &rows[0][2] {
            Expr::Cast { ty, format, .. } => {
                assert_eq!(*ty, SqlType::Date);
                assert_eq!(format.as_deref(), Some("YYYY-MM-DD"));
            }
            other => panic!("expected cast, got {other:?}"),
        }
    }

    /// One `DECIMAL(p, s)` rule: `1 <= p <= 38` and `s <= p`. The parser
    /// used to truncate with `as u8`: DECIMAL(300,2) became precision 44,
    /// and any scale passed.
    #[test]
    fn decimal_types_obey_one_rule() {
        let ty = |text: &str| Parser::new(text, Dialect::Legacy).unwrap().parse_type();
        assert_eq!(ty("DECIMAL(38,38)").unwrap(), SqlType::Decimal(38, 38));
        assert_eq!(ty("NUMERIC(10)").unwrap(), SqlType::Decimal(10, 0));
        for bad in [
            "DECIMAL(300,2)",
            "DECIMAL(38,150)",
            "DECIMAL(0)",
            "DECIMAL(39,0)",
            "DECIMAL(5,6)",
        ] {
            assert!(ty(bad).is_err(), "{bad}");
        }
        for dialect in [Dialect::Legacy, Dialect::Cdw] {
            assert!(parse_statement("select cast(1.5 as decimal(38,150))", dialect).is_err());
        }
    }

    #[test]
    fn format_cast_rejected_in_cdw() {
        let r = parse_statement(
            "insert into T values (cast(X as DATE format 'YYYY-MM-DD'))",
            Dialect::Cdw,
        );
        assert!(r.is_err());
    }

    #[test]
    fn placeholders_rejected_in_cdw() {
        assert!(parse_statement("select :X", Dialect::Cdw).is_err());
    }

    #[test]
    fn sel_keyword_legacy_only() {
        assert!(matches!(legacy("sel * from T"), Stmt::Select(_)));
        assert!(parse_statement("sel * from T", Dialect::Cdw).is_err());
    }

    #[test]
    fn create_table_with_constraints() {
        let stmt = legacy(
            "CREATE MULTISET TABLE PROD.CUSTOMER (
                CUST_ID VARCHAR(5) NOT NULL,
                CUST_NAME VARCHAR(50) CHARACTER SET UNICODE,
                JOIN_DATE DATE,
                BAL DECIMAL(10,2)
             ) UNIQUE PRIMARY INDEX (CUST_ID)",
        );
        let Stmt::CreateTable(ct) = stmt else {
            panic!()
        };
        assert_eq!(ct.columns.len(), 4);
        assert!(ct.columns[0].not_null);
        assert_eq!(ct.columns[1].ty, SqlType::VarChar(50, Charset::Unicode));
        assert_eq!(
            ct.constraints,
            vec![TableConstraint::Unique {
                columns: vec!["CUST_ID".into()],
                primary: true
            }]
        );
    }

    #[test]
    fn create_table_pk_inline_constraint() {
        let stmt = cdw("CREATE TABLE T (A INTEGER, B VARCHAR(3), PRIMARY KEY (A, B))");
        let Stmt::CreateTable(ct) = stmt else {
            panic!()
        };
        assert_eq!(
            ct.constraints,
            vec![TableConstraint::Unique {
                columns: vec!["A".into(), "B".into()],
                primary: true
            }]
        );
    }

    #[test]
    fn select_full_clauses() {
        let stmt = cdw(
            "SELECT a.X, COUNT(*) AS N FROM T a JOIN S b ON a.K = b.K WHERE a.X > 5 GROUP BY a.X HAVING COUNT(*) > 1 ORDER BY N DESC LIMIT 10",
        );
        let Stmt::Select(sel) = stmt else { panic!() };
        assert_eq!(sel.projection.len(), 2);
        assert!(matches!(sel.from, Some(TableRef::Join { .. })));
        assert!(sel.selection.is_some());
        assert_eq!(sel.group_by.len(), 1);
        assert!(sel.having.is_some());
        assert_eq!(sel.order_by.len(), 1);
        assert!(sel.order_by[0].desc);
        assert_eq!(sel.limit, Some(10));
    }

    #[test]
    fn select_top_legacy() {
        let Stmt::Select(sel) = legacy("SEL TOP 5 * FROM T") else {
            panic!()
        };
        assert_eq!(sel.limit, Some(5));
        assert_eq!(sel.projection, vec![SelectItem::Wildcard]);
    }

    #[test]
    fn qualified_star_in_both_dialects() {
        for stmt in [
            legacy("SEL a.*, K, b.* FROM T a JOIN S b ON a.K = b.K"),
            cdw("SELECT a.*, K, b.* FROM T a JOIN S b ON a.K = b.K"),
        ] {
            let Stmt::Select(sel) = stmt else { panic!() };
            assert_eq!(sel.projection.len(), 3);
            assert_eq!(sel.projection[0], SelectItem::QualifiedWildcard("A".into()));
            assert!(matches!(sel.projection[1], SelectItem::Expr { .. }));
            assert_eq!(sel.projection[2], SelectItem::QualifiedWildcard("B".into()));
        }
        let Stmt::Select(sel) = cdw("SELECT \"q\".* FROM T AS \"q\"") else {
            panic!()
        };
        assert_eq!(
            sel.projection,
            vec![SelectItem::QualifiedWildcard("q".into())]
        );
        // A star is still no operand.
        assert!(parse_statement("SELECT T.* + 1 FROM T", Dialect::Cdw).is_err());
    }

    #[test]
    fn reserved_word_after_a_dot_is_an_error() {
        for d in [Dialect::Legacy, Dialect::Cdw] {
            for sql in ["SELECT T. FROM T", "SELECT A FROM S.WHERE"] {
                assert!(parse_statement(sql, d).is_err(), "{sql} parsed in {d}");
            }
            let Stmt::Select(sel) =
                parse_statement("SELECT T.\"FROM\" FROM S.\"WHERE\"", d).unwrap()
            else {
                panic!()
            };
            let SelectItem::Expr { expr, .. } = &sel.projection[0] else {
                panic!()
            };
            assert_eq!(
                expr,
                &Expr::Column(ObjectName(vec!["T".into(), "FROM".into()]))
            );
            let Some(TableRef::Named { name, .. }) = &sel.from else {
                panic!()
            };
            assert_eq!(name.dotted(), "S.WHERE");
        }
    }

    #[test]
    fn expr_precedence() {
        let Stmt::Select(sel) = cdw("SELECT 1 + 2 * 3") else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &sel.projection[0] else {
            panic!()
        };
        // 1 + (2 * 3)
        match expr {
            Expr::Binary {
                op: BinaryOp::Add,
                right,
                ..
            } => {
                assert!(matches!(
                    **right,
                    Expr::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn and_or_precedence() {
        let Stmt::Select(sel) = cdw("SELECT * FROM T WHERE A = 1 OR B = 2 AND C = 3") else {
            panic!()
        };
        // OR at top.
        match sel.selection.unwrap() {
            Expr::Binary {
                op: BinaryOp::Or,
                right,
                ..
            } => {
                assert!(matches!(
                    *right,
                    Expr::Binary {
                        op: BinaryOp::And,
                        ..
                    }
                ));
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn postfix_predicates() {
        let Stmt::Select(sel) =
            cdw("SELECT * FROM T WHERE A IS NOT NULL AND B NOT IN (1, 2) AND C BETWEEN 1 AND 5 AND D LIKE 'x%'")
        else {
            panic!()
        };
        let mut kinds = Vec::new();
        sel.selection.unwrap().walk(&mut |e| {
            kinds.push(std::mem::discriminant(e));
        });
        // Just verify it parsed fully; structure checked piecewise below.
        let Stmt::Select(sel) = cdw("SELECT * FROM T WHERE B NOT IN (1, 2)") else {
            panic!()
        };
        assert!(matches!(
            sel.selection.unwrap(),
            Expr::InList { negated: true, .. }
        ));
    }

    #[test]
    fn between_binds_tighter_than_and() {
        let Stmt::Select(sel) = cdw("SELECT * FROM T WHERE A BETWEEN 1 AND 5 AND B = 2") else {
            panic!()
        };
        match sel.selection.unwrap() {
            Expr::Binary {
                op: BinaryOp::And,
                left,
                ..
            } => {
                assert!(matches!(*left, Expr::Between { .. }));
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn case_expressions() {
        let Stmt::Select(sel) = cdw(
            "SELECT CASE WHEN A > 0 THEN 'pos' ELSE 'neg' END, CASE B WHEN 1 THEN 'one' END FROM T",
        ) else {
            panic!()
        };
        assert_eq!(sel.projection.len(), 2);
        let SelectItem::Expr { expr, .. } = &sel.projection[1] else {
            panic!()
        };
        assert!(matches!(
            expr,
            Expr::Case {
                operand: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn update_delete() {
        let Stmt::Update(u) = legacy("UPDATE T SET A = A + 1, B = 'x' WHERE C = 2") else {
            panic!()
        };
        assert_eq!(u.assignments.len(), 2);
        assert!(u.selection.is_some());

        let Stmt::Delete(d) = legacy("DELETE FROM T") else {
            panic!()
        };
        assert!(d.selection.is_none());
        // Legacy `DEL T ALL` spelling.
        assert!(matches!(legacy("DEL T ALL"), Stmt::Delete(_)));
    }

    #[test]
    fn insert_select_with_columns() {
        let Stmt::Insert(ins) = cdw("INSERT INTO T (A, B) SELECT X, Y FROM S WHERE X > 0") else {
            panic!()
        };
        assert_eq!(ins.columns, Some(vec!["A".into(), "B".into()]));
        assert!(matches!(ins.source, InsertSource::Select(_)));
    }

    #[test]
    fn copy_stmt_cdw_only() {
        let Stmt::Copy(c) = cdw("COPY INTO STG FROM 'store://b/job1/' DELIMITER '|' COMPRESSED")
        else {
            panic!()
        };
        assert_eq!(c.table.dotted(), "STG");
        assert_eq!(c.from_url, "store://b/job1/");
        assert_eq!(c.delimiter, b'|');
        assert!(c.compressed);
        assert!(parse_statement("COPY INTO S FROM 'x'", Dialect::Legacy).is_err());
    }

    #[test]
    fn locking_modifier_skipped() {
        assert!(matches!(
            legacy("LOCKING T FOR ACCESS SELECT * FROM T"),
            Stmt::Select(_)
        ));
    }

    #[test]
    fn date_literal() {
        let Stmt::Select(sel) = cdw("SELECT DATE '2023-05-01'") else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &sel.projection[0] else {
            panic!()
        };
        assert!(matches!(expr, Expr::Literal(Literal::Date(_))));
    }

    #[test]
    fn multiple_statements() {
        let stmts = parse_statements(
            "DROP TABLE IF EXISTS T; CREATE TABLE T (A INTEGER); INSERT INTO T VALUES (1);",
            Dialect::Cdw,
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn subquery_in_from() {
        let Stmt::Select(sel) = cdw("SELECT N FROM (SELECT COUNT(*) AS N FROM T) q") else {
            panic!()
        };
        assert!(matches!(sel.from, Some(TableRef::Subquery { .. })));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_statement("SELECT 1 garbage garbage", Dialect::Cdw).is_err());
        assert!(parse_statement("SELECT 1; SELECT 2", Dialect::Cdw).is_err());
    }

    #[test]
    fn count_distinct() {
        let Stmt::Select(sel) = cdw("SELECT COUNT(DISTINCT A) FROM T") else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &sel.projection[0] else {
            panic!()
        };
        assert!(matches!(expr, Expr::Function { distinct: true, .. }));
    }

    #[test]
    fn negative_numbers_and_unary() {
        let Stmt::Select(sel) = cdw("SELECT -A + 3, NOT B FROM T") else {
            panic!()
        };
        assert_eq!(sel.projection.len(), 2);
    }
}
