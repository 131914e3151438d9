//! LIKE matching: the iterative two-cursor matcher against the recursive
//! one it replaced, and a pattern the recursion could not finish.

use etlv_cdw::eval::like_match;
use etlv_cdw::Cdw;
use etlv_protocol::data::Value;

/// LIKE as a recursion on every `%`: the reference the iterative matcher
/// must agree with, exponential in the number of `%`s.
fn reference_like(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => s.is_empty(),
            Some(('%', rest)) => (0..=s.len()).any(|i| rec(&s[i..], rest)),
            Some(('_', rest)) => !s.is_empty() && rec(&s[1..], rest),
            Some((c, rest)) => s.first() == Some(c) && rec(&s[1..], rest),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

#[test]
fn like_matches_the_recursive_reference() {
    // A fixed-seed xorshift: the same cases on every run.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n) as usize
    };
    const ALPHABET: [char; 5] = ['a', 'b', 'é', '%', '_'];
    let mut matched = 0;
    for _ in 0..20_000 {
        let mut word = |max: u64| -> String {
            let len = next(max + 1);
            (0..len).map(|_| ALPHABET[next(5)]).collect()
        };
        let (s, p) = (word(8), word(6));
        let want = reference_like(&s, &p);
        assert_eq!(like_match(&s, &p), want, "{s:?} LIKE {p:?}");
        matched += want as usize;
    }
    // Both outcomes are well represented.
    assert!((2_000..18_000).contains(&matched), "{matched}");
}

#[test]
fn like_with_many_wildcards_is_polynomial() {
    // Twenty `%a` segments: the recursion tries every way to split 40
    // characters among them before it fails.
    let text = "a".repeat(40);
    let pattern = format!("{}%b", "%a".repeat(20));
    assert!(!like_match(&text, &pattern));
    assert!(like_match(&format!("{text}b"), &pattern));
    let r = Cdw::new()
        .execute(&format!("SELECT '{text}' LIKE '{pattern}'"))
        .unwrap();
    assert_eq!(*r.rows, vec![vec![Value::Int(0)]]);
}
