//! `DateFormat::parse`, which walks the text in place, against the parse
//! it replaced, which collected the pattern and the text into `Vec<char>`s
//! first: on seeded inputs both return the same date or the same error
//! message, character positions in non-ASCII text included.

use etlv_protocol::data::{Date, DateFormat, DateParseError};

#[derive(Clone, Copy)]
enum Token {
    Year4,
    Year2,
    Month,
    Day,
    Lit(char),
}

fn err(reason: String) -> Result<Date, DateParseError> {
    Err(DateParseError { reason })
}

/// The char-vector parse, for a pattern `DateFormat::parse_pattern`
/// accepted.
fn reference_parse(pattern: &str, text: &str) -> Result<Date, DateParseError> {
    let pchars: Vec<char> = pattern.chars().collect();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < pchars.len() {
        let (token, len) = if pchars[i..].starts_with(&['Y', 'Y', 'Y', 'Y']) {
            (Token::Year4, 4)
        } else if pchars[i..].starts_with(&['Y', 'Y']) {
            (Token::Year2, 2)
        } else if pchars[i..].starts_with(&['M', 'M']) {
            (Token::Month, 2)
        } else if pchars[i..].starts_with(&['D', 'D']) {
            (Token::Day, 2)
        } else {
            (Token::Lit(pchars[i]), 1)
        };
        tokens.push(token);
        i += len;
    }

    let text = text.trim();
    let chars: Vec<char> = text.chars().collect();
    let mut pos = 0usize;
    let (mut year, mut month, mut day) = (None, None, None);
    for token in tokens {
        let n = match token {
            Token::Year4 => 4,
            Token::Year2 | Token::Month | Token::Day => 2,
            Token::Lit(c) => {
                if pos >= chars.len() || chars[pos] != c {
                    return err(format!(
                        "expected '{c}' at position {pos} of '{text}' for pattern '{pattern}'"
                    ));
                }
                pos += 1;
                continue;
            }
        };
        if pos + n > chars.len() {
            return err(format!("'{text}' too short for pattern '{pattern}'"));
        }
        let slice = &chars[pos..pos + n];
        if !slice.iter().all(|c| c.is_ascii_digit()) {
            return err(format!("expected {n} digits at position {pos} of '{text}'"));
        }
        pos += n;
        let v = slice
            .iter()
            .fold(0i32, |acc, c| acc * 10 + (*c as i32 - '0' as i32));
        match token {
            Token::Year4 => year = Some(v),
            Token::Year2 => year = Some(if v <= 69 { 2000 + v } else { 1900 + v }),
            Token::Month => month = Some(v as u8),
            _ => day = Some(v as u8),
        }
    }
    if pos != chars.len() {
        return err(format!("trailing characters in '{text}'"));
    }
    Date::new(year.unwrap(), month.unwrap(), day.unwrap())
}

#[test]
fn in_place_parse_matches_the_char_vector_reference() {
    // A fixed-seed xorshift: the same inputs on every run.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    // Separators, whitespace, non-ASCII digits and letters.
    const NOISE: [char; 12] = [
        '-', '/', '.', ' ', '\t', 'x', 'é', 'ß', '٣', '５', '年', '0',
    ];
    let patterns = [
        "YYYY-MM-DD",
        "DD/MM/YYYY",
        "YYYYMMDD",
        "MM/DD/YY",
        "YYYY年MM月DD日",
    ];
    let mut seen = [0usize; 6];
    for pattern in patterns {
        let f = DateFormat::parse_pattern(pattern).unwrap();
        for _ in 0..2_000 {
            let date = Date::new(
                1 + next(9999) as i32,
                1 + next(12) as u8,
                1 + next(28) as u8,
            )
            .unwrap();
            let mut chars: Vec<char> = f.format(date).chars().collect();
            match next(8) {
                0 => {}
                // Leading and trailing whitespace.
                1 => {
                    chars.insert(0, ' ');
                    chars.push('\t');
                }
                // Too short.
                2 => chars.truncate(next(chars.len())),
                // Trailing characters.
                3 => chars.push(NOISE[next(NOISE.len())]),
                // A wrong separator, digit or letter anywhere.
                4..=6 => {
                    let at = next(chars.len());
                    chars[at] = NOISE[next(NOISE.len())];
                }
                // Out-of-range fields: every digit drawn at random.
                _ => {
                    for c in chars.iter_mut().filter(|c| c.is_ascii_digit()) {
                        *c = char::from(b'0' + next(10) as u8);
                    }
                }
            }
            let text: String = chars.into_iter().collect();
            let got = f.parse(&text);
            assert_eq!(
                got,
                reference_parse(pattern, &text),
                "{pattern} on {text:?}"
            );
            let class = match &got {
                Ok(_) => 0,
                Err(e) if e.reason.contains("too short") => 1,
                Err(e) if e.reason.contains("digits at") => 2,
                Err(e) if e.reason.starts_with("expected '") => 3,
                Err(e) if e.reason.starts_with("trailing") => 4,
                Err(_) => 5,
            };
            seen[class] += 1;
        }
    }
    // Every outcome was reached: a parse, each of the four text errors and
    // an out-of-range field.
    assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    assert_eq!(seen.iter().sum::<usize>(), 10_000);
    // The ISO parse runs the same walk.
    for text in [
        " 2012-01-05 ",
        "2012-1-05",
        "2012-01-0٣",
        "2012-01-05x",
        "2012",
    ] {
        assert_eq!(
            Date::parse_iso(text),
            reference_parse("YYYY-MM-DD", text),
            "{text:?}"
        );
    }
}

#[test]
fn format_writes_every_token() {
    let d = Date::new(1987, 3, 9).unwrap();
    for (pattern, want) in [
        ("YYYY-MM-DD", "1987-03-09"),
        ("DD/MM/YY", "09/03/87"),
        ("YYYY年MM月DD日", "1987年03月09日"),
    ] {
        let f = DateFormat::parse_pattern(pattern).unwrap();
        assert_eq!(f.format(d), want);
        assert_eq!(f.parse(want), Ok(d));
    }
    let f = DateFormat::parse_pattern("YYYY-MM-DD").unwrap();
    assert_eq!(f.format(Date::new(987, 3, 9).unwrap()), "0987-03-09");
}
