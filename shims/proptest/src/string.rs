//! String strategies from a regex subset
//! (`proptest::string::string_regex`).
//!
//! Supported syntax — the subset the workspace's patterns use:
//!
//! - literal characters, `\x` escapes
//! - character classes `[a-z0-9_]` with ranges, escapes, and a literal
//!   `-` first or last
//! - quantifiers `{n}`, `{m,n}`, `?`, `*`, `+` (the unbounded forms cap
//!   at 8 repetitions)
//!
//! Anything else returns [`Error`] rather than silently misgenerating.

use crate::{Strategy, TestRng};

/// Pattern rejected by the parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unsupported string pattern: {}", self.0)
    }
}

impl std::error::Error for Error {}

struct Segment {
    /// Candidate characters, pre-expanded (patterns here are ASCII-sized).
    choices: Vec<char>,
    min: usize,
    max: usize,
}

/// Strategy generating strings matching a parsed pattern.
pub struct RegexGeneratorStrategy {
    segments: Vec<Segment>,
}

impl Strategy for RegexGeneratorStrategy {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for segment in &self.segments {
            let count = rng.gen_range(segment.min..=segment.max);
            for _ in 0..count {
                let i = rng.gen_range(0..segment.choices.len());
                out.push(segment.choices[i]);
            }
        }
        out
    }
}

/// Compile `pattern` into a generator strategy.
pub fn string_regex(pattern: &str) -> Result<RegexGeneratorStrategy, Error> {
    let mut chars = pattern.chars().peekable();
    let mut segments = Vec::new();
    while let Some(c) = chars.next() {
        let choices = match c {
            '[' => parse_class(&mut chars)?,
            '\\' => {
                let escaped = chars
                    .next()
                    .ok_or_else(|| Error("trailing backslash".into()))?;
                vec![escaped]
            }
            '(' | ')' | '|' | '^' | '$' | '.' | '{' | '}' | '?' | '*' | '+' => {
                return Err(Error(format!("metacharacter `{c}` not supported here")));
            }
            literal => vec![literal],
        };
        let (min, max) = parse_quantifier(&mut chars)?;
        segments.push(Segment { choices, min, max });
    }
    Ok(RegexGeneratorStrategy { segments })
}

fn parse_class(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<Vec<char>, Error> {
    let mut items: Vec<char> = Vec::new();
    let mut choices = Vec::new();
    loop {
        let c = chars
            .next()
            .ok_or_else(|| Error("unterminated character class".into()))?;
        match c {
            ']' => break,
            '^' if items.is_empty() && choices.is_empty() => {
                return Err(Error("negated classes not supported".into()));
            }
            '\\' => {
                let escaped = chars
                    .next()
                    .ok_or_else(|| Error("trailing backslash in class".into()))?;
                items.push(escaped);
            }
            '-' if !items.is_empty() && chars.peek().is_some_and(|&n| n != ']') => {
                // Range: the previous item is the low end.
                let low = items.pop().expect("non-empty");
                let mut high = chars.next().expect("peeked");
                if high == '\\' {
                    high = chars
                        .next()
                        .ok_or_else(|| Error("trailing backslash in class".into()))?;
                }
                if (low as u32) > (high as u32) {
                    return Err(Error(format!("inverted range {low}-{high}")));
                }
                for code in (low as u32)..=(high as u32) {
                    if let Some(ch) = char::from_u32(code) {
                        choices.push(ch);
                    }
                }
            }
            other => items.push(other),
        }
    }
    choices.extend(items);
    if choices.is_empty() {
        return Err(Error("empty character class".into()));
    }
    Ok(choices)
}

fn parse_quantifier(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
) -> Result<(usize, usize), Error> {
    match chars.peek() {
        Some('{') => {
            chars.next();
            let mut spec = String::new();
            loop {
                match chars.next() {
                    Some('}') => break,
                    Some(c) => spec.push(c),
                    None => return Err(Error("unterminated quantifier".into())),
                }
            }
            let parse_num = |s: &str| {
                s.trim()
                    .parse::<usize>()
                    .map_err(|_| Error(format!("bad quantifier `{{{spec}}}`")))
            };
            match spec.split_once(',') {
                Some((lo, hi)) => {
                    let (lo, hi) = (parse_num(lo)?, parse_num(hi)?);
                    if lo > hi {
                        return Err(Error(format!("inverted quantifier `{{{spec}}}`")));
                    }
                    Ok((lo, hi))
                }
                None => {
                    let n = parse_num(&spec)?;
                    Ok((n, n))
                }
            }
        }
        Some('?') => {
            chars.next();
            Ok((0, 1))
        }
        Some('*') => {
            chars.next();
            Ok((0, 8))
        }
        Some('+') => {
            chars.next();
            Ok((1, 8))
        }
        _ => Ok((1, 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TestRng;

    fn gen_one(pattern: &str, case: u32) -> String {
        string_regex(pattern)
            .unwrap()
            .generate(&mut TestRng::for_case(pattern, case))
    }

    #[test]
    fn class_with_ranges_and_quantifier() {
        for case in 0..200 {
            let s = gen_one("[a-z]{1,8}", case);
            assert!((1..=8).contains(&s.len()), "{s:?}");
            assert!(s.bytes().all(|b| b.is_ascii_lowercase()), "{s:?}");
        }
    }

    #[test]
    fn printable_ascii_range() {
        for case in 0..200 {
            let s = gen_one("[ -~]{0,20}", case);
            assert!(s.len() <= 20);
            assert!(s.bytes().all(|b| (0x20..=0x7E).contains(&b)), "{s:?}");
        }
    }

    #[test]
    fn leading_segment_then_class() {
        for case in 0..200 {
            let s = gen_one("[A-Z][A-Z0-9_]{0,8}", case);
            assert!(!s.is_empty() && s.len() <= 9);
            assert!(s.as_bytes()[0].is_ascii_uppercase(), "{s:?}");
        }
    }

    #[test]
    fn escapes_and_trailing_dash() {
        for case in 0..200 {
            let s = gen_one("[a-zA-Z0-9 _|,\\\\\"'-]{0,40}", case);
            assert!(s.len() <= 40);
            for c in s.chars() {
                assert!(
                    c.is_ascii_alphanumeric() || " _|,\\\"'-".contains(c),
                    "unexpected {c:?} in {s:?}"
                );
            }
        }
    }

    #[test]
    fn unsupported_patterns_error() {
        assert!(string_regex("a|b").is_err());
        assert!(string_regex("[^a]").is_err());
        assert!(string_regex("(ab)").is_err());
        assert!(string_regex("[a-").is_err());
    }

    #[test]
    fn plain_literals_and_star() {
        for case in 0..50 {
            let s = gen_one("ab?c*", case);
            assert!(s.starts_with('a'));
        }
    }
}
