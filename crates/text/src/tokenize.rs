//! Separator-aware tokenization.
//!
//! Section 4.1.3 of the paper re-splits maximal-length placeholders "using
//! common split characters in the natural language, such as punctuations and
//! spaces", producing additional skeletons whose placeholders align with
//! common separators (Lemma 4, case 1). This module provides that
//! tokenization, keeping the separator runs so the original string can be
//! reconstructed exactly from the token stream.

use serde::{Deserialize, Serialize};

/// Whether a character counts as a separator for placeholder re-splitting
/// (whitespace or ASCII punctuation, matching the paper's "space and
/// punctuations" choice which "resolves all cases we have seen in our real
/// datasets").
#[inline]
pub fn is_separator_char(c: char) -> bool {
    c.is_whitespace() || c.is_ascii_punctuation()
}

/// The kind of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TokenKind {
    /// A maximal run of non-separator characters.
    Word,
    /// A maximal run of separator characters.
    Separator,
}

/// A token: a maximal run of word or separator characters, with its character
/// span in the original string.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Token {
    /// Token kind.
    pub kind: TokenKind,
    /// The token text.
    pub text: String,
    /// Start character position (0-based) in the original string.
    pub start: usize,
    /// End character position (exclusive).
    pub end: usize,
}

/// Tokenizes `text` into alternating word and separator tokens covering the
/// whole string. Concatenating the token texts reproduces `text` exactly.
///
/// ```
/// use tjoin_text::{tokenize_with_separators, TokenKind};
/// let toks = tokenize_with_separators("Victor R. Kasumba");
/// let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
/// assert_eq!(texts, vec!["Victor", " ", "R", ". ", "Kasumba"]);
/// assert_eq!(toks[1].kind, TokenKind::Separator);
/// ```
pub fn tokenize_with_separators(text: &str) -> Vec<Token> {
    let mut tokens: Vec<Token> = Vec::new();
    let mut current_kind: Option<TokenKind> = None;
    let mut current = String::new();
    let mut start = 0usize;
    let mut pos = 0usize;
    for c in text.chars() {
        let kind = if is_separator_char(c) {
            TokenKind::Separator
        } else {
            TokenKind::Word
        };
        match current_kind {
            Some(k) if k == kind => current.push(c),
            Some(k) => {
                tokens.push(Token {
                    kind: k,
                    text: std::mem::take(&mut current),
                    start,
                    end: pos,
                });
                start = pos;
                current.push(c);
                current_kind = Some(kind);
            }
            None => {
                current.push(c);
                current_kind = Some(kind);
            }
        }
        pos += 1;
    }
    if let Some(k) = current_kind {
        tokens.push(Token {
            kind: k,
            text: current,
            start,
            end: pos,
        });
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separator_classification() {
        assert!(is_separator_char(' '));
        assert!(is_separator_char(','));
        assert!(is_separator_char('-'));
        assert!(is_separator_char('.'));
        assert!(is_separator_char('('));
        assert!(!is_separator_char('a'));
        assert!(!is_separator_char('7'));
        assert!(!is_separator_char('é'));
    }

    #[test]
    fn tokenize_round_trips() {
        for s in [
            "Victor R. Kasumba",
            "(780) 433-6545",
            "  leading and trailing  ",
            "no-separators-here",
            "",
            "...",
            "a",
        ] {
            let toks = tokenize_with_separators(s);
            let rebuilt: String = toks.iter().map(|t| t.text.as_str()).collect();
            assert_eq!(rebuilt, s, "round trip failed for {s:?}");
            // Spans must be contiguous and cover the string.
            let mut pos = 0;
            for t in &toks {
                assert_eq!(t.start, pos);
                assert_eq!(t.end - t.start, t.text.chars().count());
                pos = t.end;
            }
            assert_eq!(pos, s.chars().count());
        }
    }

    #[test]
    fn tokenize_alternates_kinds() {
        let toks = tokenize_with_separators("ab, cd");
        let kinds: Vec<TokenKind> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![TokenKind::Word, TokenKind::Separator, TokenKind::Word]
        );
        assert_eq!(toks[1].text, ", ");
    }

    #[test]
    fn tokenize_empty_and_all_separator() {
        assert!(tokenize_with_separators("").is_empty());
        let toks = tokenize_with_separators(" .,");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].kind, TokenKind::Separator);
    }
}
