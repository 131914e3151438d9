//! Parser for the dot-command scripting language.
//!
//! Scripts are a sequence of *commands*. A command either starts with a
//! dot-keyword (`.logon`, `.layout`, `.field`, `.begin`, `.dml`, `.import`,
//! `.export`, `.end`, `.sessions`, `.set`) and runs to the next `;`, or is
//! embedded SQL (following a `.dml label` or inside an export block),
//! which runs to the `;` that precedes the next dot-command.
//!
//! Both `'x'` and the legacy backquote form `` `x' `` are accepted for
//! quoted characters.

use std::fmt;

use etlv_protocol::data::LegacyType;
use etlv_sql::types::SqlType;
use etlv_sql::{Dialect, Parser as SqlParser};

/// Record format named in `.import` / `.export`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptFormat {
    /// `format vartext '|'`
    Vartext {
        /// Field delimiter.
        delimiter: u8,
    },
    /// `format binary`
    Binary,
}

/// One parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `.logon host/user,password;`
    Logon {
        /// Server host (ignored by in-process transports).
        host: String,
        /// Account name.
        user: String,
        /// Password.
        password: String,
    },
    /// `.sessions N;`
    Sessions(u16),
    /// `.layout NAME;` opens a layout; following `.field`s attach to it.
    Layout(String),
    /// `.field NAME TYPE;`
    Field {
        /// Field name.
        name: String,
        /// Declared legacy type.
        ty: LegacyType,
    },
    /// `.begin import tables TARGET errortables ET UV [errlimit N];`
    BeginImport {
        /// Target table.
        target: String,
        /// Transformation-error table.
        error_table_et: String,
        /// Uniqueness-violation table.
        error_table_uv: String,
        /// Abort after this many record errors (0 = unlimited).
        errlimit: u64,
    },
    /// `.begin export [sessions N];`
    BeginExport {
        /// Parallel export sessions (overrides `.sessions`).
        sessions: Option<u16>,
    },
    /// `.dml label NAME;` followed by the SQL to apply.
    DmlLabel {
        /// Label referenced by `.import ... apply NAME`.
        name: String,
        /// The raw legacy SQL statement.
        sql: String,
    },
    /// `.import infile FILE format F layout L apply LABEL;`
    Import {
        /// Input data file path.
        infile: String,
        /// Record format.
        format: ScriptFormat,
        /// Layout name.
        layout: String,
        /// DML label to apply.
        apply: String,
    },
    /// `.export outfile FILE format F;` followed by the SELECT.
    Export {
        /// Output file path.
        outfile: String,
        /// Record format.
        format: ScriptFormat,
        /// The raw legacy SELECT statement.
        select: String,
    },
    /// `.end load`
    EndLoad,
    /// `.end export`
    EndExport,
}

/// A parsed script: the flat command list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Script {
    /// Commands in source order.
    pub commands: Vec<Command>,
}

/// Script parse error with line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the failure.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "script error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Scanner<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn line_at(&self, pos: usize) -> usize {
        self.src[..pos].bytes().filter(|&b| b == b'\n').count() + 1
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line_at(self.pos.min(self.src.len())),
            message: message.into(),
        }
    }

    fn skip_ws_and_comments(&mut self) {
        let bytes = self.src.as_bytes();
        loop {
            while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            // `/* ... */` comments are legal in scripts.
            if self.src[self.pos..].starts_with("/*") {
                match self.src[self.pos..].find("*/") {
                    Some(end) => self.pos += end + 2,
                    None => {
                        self.pos = bytes.len();
                    }
                }
                continue;
            }
            break;
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws_and_comments();
        self.pos >= self.src.len()
    }

    /// Read one raw command: from the current position to the terminating
    /// `;` (exclusive), honoring quotes. `.end load` / `.end export` may
    /// omit the semicolon at end-of-file.
    fn read_command(&mut self) -> Result<(usize, String), ParseError> {
        self.skip_ws_and_comments();
        let start = self.pos;
        let bytes = self.src.as_bytes();
        let mut i = self.pos;
        while i < bytes.len() {
            match bytes[i] {
                b';' => {
                    let text = self.src[start..i].to_string();
                    self.pos = i + 1;
                    return Ok((self.line_at(start), text));
                }
                b'\'' => {
                    i += 1;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        i += 1;
                    }
                    if i >= bytes.len() {
                        self.pos = start;
                        return Err(self.err("unterminated quoted string"));
                    }
                    i += 1;
                }
                b'`' => {
                    // Legacy open quote: runs to the next `'`.
                    i += 1;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        i += 1;
                    }
                    if i >= bytes.len() {
                        self.pos = start;
                        return Err(self.err("unterminated backquoted string"));
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
        // No semicolon: only legal for a trailing `.end ...`.
        let text = self.src[start..].trim().to_string();
        self.pos = bytes.len();
        if text.to_ascii_lowercase().starts_with(".end") || text.is_empty() {
            Ok((self.line_at(start), text))
        } else {
            Err(ParseError {
                line: self.line_at(start),
                message: format!("missing ';' after `{}`", truncate(&text)),
            })
        }
    }
}

fn truncate(s: &str) -> String {
    let t: String = s.chars().take(40).collect();
    if t.len() < s.len() {
        format!("{t}…")
    } else {
        t
    }
}

/// Split a command body into words, keeping quoted tokens intact.
fn words(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut chars = body.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\'' | '`' => {
                // Quoted token: runs to the closing single quote.
                let mut q = String::new();
                for qc in chars.by_ref() {
                    if qc == '\'' {
                        break;
                    }
                    q.push(qc);
                }
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
                out.push(format!("'{q}"));
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Parse the type text of a `.field` using the SQL type grammar.
fn parse_field_type(text: &str, line: usize) -> Result<LegacyType, ParseError> {
    let mut parser = SqlParser::new(text, Dialect::Legacy).map_err(|e| ParseError {
        line,
        message: e.to_string(),
    })?;
    let ty: SqlType = parser.parse_type().map_err(|e| ParseError {
        line,
        message: format!("bad field type `{text}`: {e}"),
    })?;
    Ok(ty.to_legacy())
}

/// Parse a script source into a [`Script`].
pub fn parse_script(src: &str) -> Result<Script, ParseError> {
    let mut scanner = Scanner { src, pos: 0 };
    let mut commands = Vec::new();

    while !scanner.at_end() {
        let (line, raw) = scanner.read_command()?;
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        if !raw.starts_with('.') {
            return Err(ParseError {
                line,
                message: format!("SQL outside a .dml/.export block: `{}`", truncate(raw)),
            });
        }
        let head_end = raw
            .char_indices()
            .find(|(_, c)| c.is_whitespace())
            .map(|(i, _)| i)
            .unwrap_or(raw.len());
        let keyword = raw[1..head_end].to_ascii_lowercase();
        let body = raw[head_end..].trim();
        let w = words(body);
        let get = |i: usize, what: &str| -> Result<&String, ParseError> {
            w.get(i).ok_or_else(|| ParseError {
                line,
                message: format!(".{keyword}: missing {what}"),
            })
        };

        match keyword.as_str() {
            "logon" => {
                // host/user,password
                let spec = body;
                let (host, rest) = spec.split_once('/').ok_or_else(|| ParseError {
                    line,
                    message: ".logon expects host/user,password".into(),
                })?;
                let (user, password) = rest.split_once(',').ok_or_else(|| ParseError {
                    line,
                    message: ".logon expects host/user,password".into(),
                })?;
                commands.push(Command::Logon {
                    host: host.trim().to_string(),
                    user: user.trim().to_string(),
                    password: password.trim().to_string(),
                });
            }
            "sessions" => {
                let n: u16 = get(0, "session count")?.parse().map_err(|_| ParseError {
                    line,
                    message: ".sessions expects a number".into(),
                })?;
                commands.push(Command::Sessions(n));
            }
            "layout" => {
                commands.push(Command::Layout(get(0, "layout name")?.clone()));
            }
            "field" => {
                let name = get(0, "field name")?.to_ascii_uppercase();
                let ty_text = w[1..].join(" ");
                if ty_text.is_empty() {
                    return Err(ParseError {
                        line,
                        message: ".field: missing type".into(),
                    });
                }
                let ty = parse_field_type(&ty_text, line)?;
                commands.push(Command::Field { name, ty });
            }
            "begin" => {
                let mode = get(0, "import/export")?.to_ascii_lowercase();
                match mode.as_str() {
                    "import" => {
                        // tables TARGET errortables ET UV [errlimit N]
                        let mut target = None;
                        let mut et = None;
                        let mut uv = None;
                        let mut errlimit = 0u64;
                        let mut i = 1;
                        while i < w.len() {
                            match w[i].to_ascii_lowercase().as_str() {
                                "tables" | "table" => {
                                    target = Some(get(i + 1, "target table")?.clone());
                                    i += 2;
                                }
                                "errortables" => {
                                    et = Some(get(i + 1, "ET table")?.clone());
                                    uv = Some(get(i + 2, "UV table")?.clone());
                                    i += 3;
                                }
                                "errlimit" => {
                                    errlimit =
                                        get(i + 1, "error limit")?.parse().map_err(|_| {
                                            ParseError {
                                                line,
                                                message: "errlimit expects a number".into(),
                                            }
                                        })?;
                                    i += 2;
                                }
                                other => {
                                    return Err(ParseError {
                                        line,
                                        message: format!(
                                            "unexpected token `{other}` in .begin import"
                                        ),
                                    })
                                }
                            }
                        }
                        let target = target.ok_or_else(|| ParseError {
                            line,
                            message: ".begin import: missing `tables TARGET`".into(),
                        })?;
                        let et = et.ok_or_else(|| ParseError {
                            line,
                            message: ".begin import: missing `errortables ET UV`".into(),
                        })?;
                        commands.push(Command::BeginImport {
                            target,
                            error_table_et: et,
                            error_table_uv: uv.expect("set with et"),
                            errlimit,
                        });
                    }
                    "export" => {
                        let mut sessions = None;
                        let mut i = 1;
                        while i < w.len() {
                            match w[i].to_ascii_lowercase().as_str() {
                                "sessions" => {
                                    sessions = Some(get(i + 1, "session count")?.parse().map_err(
                                        |_| ParseError {
                                            line,
                                            message: "sessions expects a number".into(),
                                        },
                                    )?);
                                    i += 2;
                                }
                                other => {
                                    return Err(ParseError {
                                        line,
                                        message: format!(
                                            "unexpected token `{other}` in .begin export"
                                        ),
                                    })
                                }
                            }
                        }
                        commands.push(Command::BeginExport { sessions });
                    }
                    other => {
                        return Err(ParseError {
                            line,
                            message: format!(".begin {other} is not a job kind"),
                        })
                    }
                }
            }
            "dml" => {
                if !get(0, "label keyword")?.eq_ignore_ascii_case("label") {
                    return Err(ParseError {
                        line,
                        message: ".dml expects `label NAME`".into(),
                    });
                }
                let name = get(1, "label name")?.clone();
                // The SQL is the next command-like chunk (up to its `;`).
                let (sql_line, sql) = scanner.read_command()?;
                let sql = sql.trim().to_string();
                if sql.is_empty() || sql.starts_with('.') {
                    return Err(ParseError {
                        line: sql_line,
                        message: format!(".dml label {name}: expected SQL statement"),
                    });
                }
                commands.push(Command::DmlLabel { name, sql });
            }
            "import" => {
                let mut infile = None;
                let mut format = None;
                let mut layout = None;
                let mut apply = None;
                let mut i = 0;
                while i < w.len() {
                    match w[i].to_ascii_lowercase().as_str() {
                        "infile" => {
                            infile = Some(unquote(get(i + 1, "file name")?));
                            i += 2;
                        }
                        "format" => {
                            let (f, consumed) = parse_format(&w, i + 1, line)?;
                            format = Some(f);
                            i += 1 + consumed;
                        }
                        "layout" => {
                            layout = Some(get(i + 1, "layout name")?.clone());
                            i += 2;
                        }
                        "apply" => {
                            apply = Some(get(i + 1, "label name")?.clone());
                            i += 2;
                        }
                        other => {
                            return Err(ParseError {
                                line,
                                message: format!("unexpected token `{other}` in .import"),
                            })
                        }
                    }
                }
                commands.push(Command::Import {
                    infile: infile.ok_or_else(|| ParseError {
                        line,
                        message: ".import: missing infile".into(),
                    })?,
                    format: format.unwrap_or(ScriptFormat::Vartext { delimiter: b'|' }),
                    layout: layout.ok_or_else(|| ParseError {
                        line,
                        message: ".import: missing layout".into(),
                    })?,
                    apply: apply.ok_or_else(|| ParseError {
                        line,
                        message: ".import: missing apply label".into(),
                    })?,
                });
            }
            "export" => {
                let mut outfile = None;
                let mut format = None;
                let mut i = 0;
                while i < w.len() {
                    match w[i].to_ascii_lowercase().as_str() {
                        "outfile" => {
                            outfile = Some(unquote(get(i + 1, "file name")?));
                            i += 2;
                        }
                        "format" => {
                            let (f, consumed) = parse_format(&w, i + 1, line)?;
                            format = Some(f);
                            i += 1 + consumed;
                        }
                        other => {
                            return Err(ParseError {
                                line,
                                message: format!("unexpected token `{other}` in .export"),
                            })
                        }
                    }
                }
                let (sql_line, select) = scanner.read_command()?;
                let select = select.trim().to_string();
                if select.is_empty() || select.starts_with('.') {
                    return Err(ParseError {
                        line: sql_line,
                        message: ".export: expected a SELECT statement".into(),
                    });
                }
                commands.push(Command::Export {
                    outfile: outfile.ok_or_else(|| ParseError {
                        line,
                        message: ".export: missing outfile".into(),
                    })?,
                    format: format.unwrap_or(ScriptFormat::Vartext { delimiter: b'|' }),
                    select,
                });
            }
            "end" => {
                let what = get(0, "load/export")?.to_ascii_lowercase();
                match what.as_str() {
                    "load" => commands.push(Command::EndLoad),
                    "export" => commands.push(Command::EndExport),
                    other => {
                        return Err(ParseError {
                            line,
                            message: format!(".end {other} is not a job kind"),
                        })
                    }
                }
            }
            other => {
                return Err(ParseError {
                    line,
                    message: format!("unknown command .{other}"),
                })
            }
        }
    }

    Ok(Script { commands })
}

fn unquote(token: &str) -> String {
    token.strip_prefix('\'').unwrap_or(token).to_string()
}

/// Parse `vartext '|'` or `binary` starting at `w[i]`; returns the format
/// and the number of words consumed.
fn parse_format(w: &[String], i: usize, line: usize) -> Result<(ScriptFormat, usize), ParseError> {
    let kind = w
        .get(i)
        .ok_or_else(|| ParseError {
            line,
            message: "format: missing kind".into(),
        })?
        .to_ascii_lowercase();
    match kind.as_str() {
        "binary" => Ok((ScriptFormat::Binary, 1)),
        "vartext" => {
            let delim_tok = w.get(i + 1).ok_or_else(|| ParseError {
                line,
                message: "format vartext: missing delimiter".into(),
            })?;
            let delim = unquote(delim_tok);
            if delim.len() != 1 {
                return Err(ParseError {
                    line,
                    message: format!("vartext delimiter must be one character, got `{delim}`"),
                });
            }
            Ok((
                ScriptFormat::Vartext {
                    delimiter: delim.as_bytes()[0],
                },
                2,
            ))
        }
        other => Err(ParseError {
            line,
            message: format!("unknown format `{other}`"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE_2_1: &str = r#"
.logon host/user,pass;
.layout CustLayout;
.field CUST_ID varchar(5);
.field CUST_NAME varchar(50);
.field JOIN_DATE varchar(10);
.begin import tables PROD.CUSTOMER
errortables PROD.CUSTOMER_ET PROD.CUSTOMER_UV;
.dml label InsApply;
insert into PROD.CUSTOMER values (
    trim(:CUST_ID), trim(:CUST_NAME),
    cast(:JOIN_DATE as DATE format `YYYY-MM-DD') );
.import infile input.txt
    format vartext `|' layout CustLayout
    apply InsApply;
.end load
"#;

    #[test]
    fn parses_example_2_1_verbatim() {
        let script = parse_script(EXAMPLE_2_1).unwrap();
        assert_eq!(script.commands.len(), 9);
        assert_eq!(
            script.commands[0],
            Command::Logon {
                host: "host".into(),
                user: "user".into(),
                password: "pass".into()
            }
        );
        assert_eq!(script.commands[1], Command::Layout("CustLayout".into()));
        assert_eq!(
            script.commands[2],
            Command::Field {
                name: "CUST_ID".into(),
                ty: LegacyType::VarChar(5)
            }
        );
        let Command::BeginImport {
            target,
            error_table_et,
            error_table_uv,
            errlimit,
        } = &script.commands[5]
        else {
            panic!("{:?}", script.commands[5]);
        };
        assert_eq!(target, "PROD.CUSTOMER");
        assert_eq!(error_table_et, "PROD.CUSTOMER_ET");
        assert_eq!(error_table_uv, "PROD.CUSTOMER_UV");
        assert_eq!(*errlimit, 0);
        let Command::DmlLabel { name, sql } = &script.commands[6] else {
            panic!()
        };
        assert_eq!(name, "InsApply");
        assert!(sql.to_lowercase().starts_with("insert into"));
        assert!(sql.contains(":JOIN_DATE"));
        let Command::Import {
            infile,
            format,
            layout,
            apply,
        } = &script.commands[7]
        else {
            panic!()
        };
        assert_eq!(infile, "input.txt");
        assert_eq!(*format, ScriptFormat::Vartext { delimiter: b'|' });
        assert_eq!(layout, "CustLayout");
        assert_eq!(apply, "InsApply");
        assert_eq!(script.commands[8], Command::EndLoad);
    }

    #[test]
    fn export_script() {
        let src = r#"
.logon h/u,p;
.begin export sessions 4;
.export outfile out.txt format vartext '|';
select CUST_ID, CUST_NAME from PROD.CUSTOMER where CUST_ID > '1';
.end export;
"#;
        let script = parse_script(src).unwrap();
        assert_eq!(
            script.commands[1],
            Command::BeginExport { sessions: Some(4) }
        );
        let Command::Export {
            outfile,
            format,
            select,
        } = &script.commands[2]
        else {
            panic!()
        };
        assert_eq!(outfile, "out.txt");
        assert_eq!(*format, ScriptFormat::Vartext { delimiter: b'|' });
        assert!(select.to_lowercase().starts_with("select"));
        assert_eq!(script.commands[3], Command::EndExport);
    }

    #[test]
    fn binary_format_and_errlimit() {
        let src = r#"
.logon h/u,p;
.sessions 8;
.layout L;
.field A integer;
.field B decimal(10,2);
.begin import tables T errortables T_ET T_UV errlimit 50;
.dml label Go;
insert into T values (:A, :B);
.import infile data.bin format binary layout L apply Go;
.end load;
"#;
        let script = parse_script(src).unwrap();
        assert!(script.commands.contains(&Command::Sessions(8)));
        assert!(script.commands.contains(&Command::Field {
            name: "B".into(),
            ty: LegacyType::Decimal(10, 2)
        }));
        let Command::BeginImport { errlimit, .. } = &script.commands[5] else {
            panic!()
        };
        assert_eq!(*errlimit, 50);
        let Command::Import { format, .. } = &script.commands[7] else {
            panic!()
        };
        assert_eq!(*format, ScriptFormat::Binary);
    }

    #[test]
    fn comments_allowed() {
        let src = "/* header */ .logon h/u,p; /* between */ .end load";
        let script = parse_script(src).unwrap();
        assert_eq!(script.commands.len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_script(".logon h/u,p;\n.bogus x;").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn sql_outside_dml_rejected() {
        let err = parse_script("select 1;").unwrap_err();
        assert!(err.message.contains("outside"));
    }

    #[test]
    fn missing_semicolon_rejected() {
        let err = parse_script(".logon h/u,p").unwrap_err();
        assert!(err.message.contains("missing ';'"), "{err}");
    }

    #[test]
    fn dml_requires_sql() {
        let err = parse_script(".dml label X;\n.end load").unwrap_err();
        assert!(err.message.contains("expected SQL"));
    }

    #[test]
    fn bad_field_type_rejected() {
        let err = parse_script(".field A nosuchtype;").unwrap_err();
        assert!(err.message.contains("bad field type"));
    }

    /// `.field` types go through the SQL type parser's one `DECIMAL`
    /// rule; `decimal(300,2)` used to become `DECIMAL(44,2)`.
    #[test]
    fn out_of_range_decimal_field_rejected() {
        let err = parse_script(".field A decimal(300,2);").unwrap_err();
        assert!(err.message.contains("bad field type"), "{err}");
        assert!(parse_script(".field A decimal(10,11);").is_err());
    }

    #[test]
    fn semicolons_inside_quotes_ignored() {
        let src = ".dml label X;\ninsert into T values (';');\n.end load";
        let script = parse_script(src).unwrap();
        let Command::DmlLabel { sql, .. } = &script.commands[0] else {
            panic!()
        };
        assert_eq!(sql, "insert into T values (';')");
    }
}
