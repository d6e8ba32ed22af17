//! Tokenisers used by the similarity primitives.
//!
//! [`CodeTokenizer`] splits source code into identifiers, numeric literals
//! and operator/punctuation tokens, which is what the cosine machinery uses
//! so that `a+b` and `a + b` compare equal.

/// A strategy for splitting a text into comparable tokens.
///
/// Implementations should be cheap to construct and stateless; they are used
/// on every file of a multi-hundred-thousand-file corpus.
///
/// # Example
///
/// ```
/// use textsim::{CodeTokenizer, Tokenizer};
///
/// let tok = CodeTokenizer::new();
/// let tokens = tok.tokenize("assign y = a + 4'b1010;");
/// assert!(tokens.contains(&"assign".to_string()));
/// assert!(tokens.contains(&"4'b1010".to_string()));
/// ```
pub trait Tokenizer {
    /// Splits `text` into tokens, in order of appearance.
    fn tokenize(&self, text: &str) -> Vec<String>;
}

/// Code-aware tokeniser.
///
/// Identifiers (including escaped Verilog identifiers), numeric literals
/// (including based literals such as `4'b1010`) and operator characters each
/// become their own token, so formatting differences do not perturb the
/// similarity scores. Identifiers and literals are lower-cased, so
/// renamed-but-identical code still matches strongly.
///
/// # Example
///
/// ```
/// use textsim::{CodeTokenizer, Tokenizer};
///
/// let tok = CodeTokenizer::new();
/// let dense = tok.tokenize("assign y=a&b;");
/// let spaced = tok.tokenize("assign y = a & b ;");
/// assert_eq!(dense, spaced);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodeTokenizer;

impl CodeTokenizer {
    /// Creates a tokeniser.
    pub fn new() -> Self {
        Self
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == '$' || c == '\\'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '$'
}

fn is_number_continue(c: char) -> bool {
    // Covers Verilog based literals (4'b1010, 8'hFF, 16'd42), underscores in
    // literals and real numbers (1.5e3).
    c.is_ascii_alphanumeric() || c == '\'' || c == '_' || c == '.'
}

impl Tokenizer for CodeTokenizer {
    fn tokenize(&self, text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let chars: Vec<char> = text.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if is_ident_start(c) {
                let start = i;
                i += 1;
                while i < chars.len() && is_ident_continue(chars[i]) {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                tokens.push(word.to_ascii_lowercase());
            } else if c.is_ascii_digit() {
                let start = i;
                i += 1;
                while i < chars.len() && is_number_continue(chars[i]) {
                    i += 1;
                }
                let lit: String = chars[start..i].iter().collect();
                tokens.push(lit.to_ascii_lowercase());
            } else {
                tokens.push(c.to_string());
                i += 1;
            }
        }
        tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_tokenizer_is_whitespace_insensitive() {
        let tok = CodeTokenizer::new();
        assert_eq!(tok.tokenize("y=a+b;"), tok.tokenize("y = a + b ;"));
    }

    #[test]
    fn code_tokenizer_keeps_based_literals_together() {
        let tok = CodeTokenizer::new();
        let tokens = tok.tokenize("assign y = 4'b1010 ^ 8'hFF;");
        assert!(tokens.contains(&"4'b1010".to_string()));
        assert!(tokens.contains(&"8'hff".to_string()));
    }

    #[test]
    fn code_tokenizer_lowercases_identifiers_by_default() {
        let tok = CodeTokenizer::new();
        assert_eq!(tok.tokenize("Module TOP"), vec!["module", "top"]);
    }

    #[test]
    fn code_tokenizer_handles_unicode_gracefully() {
        let tok = CodeTokenizer::new();
        // Non-ASCII characters become punctuation-class tokens rather than
        // panicking or splitting identifiers incorrectly.
        let tokens = tok.tokenize("module café_x;");
        assert!(tokens.contains(&"module".to_string()));
    }
}
