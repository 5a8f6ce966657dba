//! Every panic/hash/clock needle below sits in a masked region — except
//! one real hash set at the very end, which must fire despite the traps.

pub fn raw_strings() -> &'static str {
    r#"v.unwrap() and HashMap::new() and panic!("inside a raw string")"#
}

pub fn raw_fences() -> &'static str {
    r##"a "#-fenced raw string: v.expect("still a string")"##
}

pub fn byte_strings() -> &'static [u8] {
    b"HashSet and unwrap() in bytes \" with an escaped quote"
}

/* a block comment
   /* nested: v.unwrap() and std::time::Instant::now() */
   still inside the outer comment: HashMap::new()
*/

/// Doc comments quote code: `v.unwrap()` and `panic!("doc")`.
/// ```
/// let m = HashMap::new();
/// let t = std::time::SystemTime::now();
/// ```
pub fn documented(v: Option<u8>) -> u8 {
    v.unwrap_or(0)
}

pub fn char_vs_lifetime<'a>(v: &'a [u8]) -> u8 {
    let quote = '"';
    let escaped = '\'';
    let _ = (quote, escaped);
    v.iter().collect::<std::collections::HashSet<_>>().len() as u8
}
