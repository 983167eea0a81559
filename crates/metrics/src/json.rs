//! JSON string escaping for the suite's own JSON encoders: the metrics
//! snapshot and the Chrome trace export. The suite writes JSON and never
//! reads it back.

use std::fmt::Write as _;

/// Escape a string for embedding inside JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_every_branch_exactly() {
        assert_eq!(
            escape("a\"b\\c\nd\re\tf\u{1}g\u{1f}h é→😀"),
            "a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh é→😀"
        );
        assert_eq!(escape(""), "");
        assert_eq!(escape("plain"), "plain");
    }
}
