//! Code tokenisation and vocabulary management.

use std::collections::HashMap;

use crate::parallel::{default_workers, sharded_tally};

/// A token id in the model vocabulary.
pub type TokenId = u32;

/// Reserved id for the unknown token.
pub const UNK: TokenId = 0;
/// Reserved id for beginning-of-sequence.
pub const BOS: TokenId = 1;
/// Reserved id for end-of-sequence.
pub const EOS: TokenId = 2;

/// A fixed vocabulary mapping token strings to ids.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Vocabulary {
    token_to_id: HashMap<String, TokenId>,
    id_to_token: Vec<String>,
}

impl Vocabulary {
    /// Creates a vocabulary containing only the reserved tokens.
    pub fn new() -> Self {
        let mut v = Self::default();
        for special in ["<unk>", "<bos>", "<eos>"] {
            v.intern(special);
        }
        v
    }

    fn intern(&mut self, token: &str) -> TokenId {
        if let Some(&id) = self.token_to_id.get(token) {
            return id;
        }
        let id = self.id_to_token.len() as TokenId;
        self.token_to_id.insert(token.to_string(), id);
        self.id_to_token.push(token.to_string());
        id
    }

    /// Number of tokens in the vocabulary (including the reserved ones).
    pub fn len(&self) -> usize {
        self.id_to_token.len()
    }

    /// Whether only the reserved tokens are present.
    pub fn is_empty(&self) -> bool {
        self.id_to_token.len() <= 3
    }

    /// Looks up the id of a token, returning [`UNK`] when absent.
    pub fn id(&self, token: &str) -> TokenId {
        self.token_to_id.get(token).copied().unwrap_or(UNK)
    }

    /// Looks up the string of a token id.
    pub fn token(&self, id: TokenId) -> &str {
        self.id_to_token
            .get(id as usize)
            .map(String::as_str)
            .unwrap_or("<unk>")
    }
}

/// Multi-character operators kept as single tokens so decoded code parses.
const MULTI_CHAR_OPERATORS: &[&str] = &[
    "<<<", ">>>", "===", "!==", "<=", ">=", "==", "!=", "<<", ">>", "&&", "||", "~^", "^~", "~&",
    "~|", "**", "+:", "-:",
];

/// Tokeniser for hardware-description source code.
///
/// Splitting follows code structure: identifiers, numeric literals (including
/// Verilog based literals), operators and punctuation each become one token,
/// and a dedicated `<nl>` token preserves line structure so generated code
/// keeps a plausible layout. A vocabulary is built with [`HdlTokenizer::fit`]
/// from the training corpus; unseen tokens encode to `<unk>`.
///
/// Encoding, training's vocabulary tally and [`HdlTokenizer::split`] share
/// one scan that yields each token as a slice of the input, so encoding
/// allocates only the id vector and the tally allocates a `String` only for
/// a token it has not seen. Its tokens equal, on any Unicode input, those
/// of a reference splitter that walks the text's `char`s and allocates a
/// `String` per token, which `hwlm/tests/properties.rs` keeps as an oracle.
///
/// # Example
///
/// ```
/// use hwlm::HdlTokenizer;
///
/// let corpus = vec!["assign y = a & b;".to_string()];
/// let tok = HdlTokenizer::fit(&corpus);
/// let ids = tok.encode("assign y = a & b;");
/// let text = tok.decode(&ids);
/// assert!(text.contains("assign y = a & b"));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HdlTokenizer {
    vocab: Vocabulary,
}

impl HdlTokenizer {
    /// Splits raw text into surface token strings (no vocabulary involved).
    pub fn split(text: &str) -> Vec<String> {
        Self::tokens(text).map(str::to_owned).collect()
    }

    /// The surface tokens of `text` as slices of it (`<nl>` for a line
    /// break), without allocating: the scan behind [`HdlTokenizer::split`],
    /// encoding and the vocabulary tally.
    ///
    /// It decides each token by its first character, as a walk over `char`s
    /// does, then extends identifier and number runs byte by byte: they are
    /// ASCII, and so is every multi-character operator, so a non-ASCII
    /// character is either Unicode whitespace (skipped) or a token of its
    /// own.
    pub(crate) fn tokens(text: &str) -> impl Iterator<Item = &str> {
        let bytes = text.as_bytes();
        let run_end = move |from: usize, part: fn(&u8) -> bool| {
            from + bytes[from..].iter().take_while(|b| part(b)).count()
        };
        let mut i = 0;
        std::iter::from_fn(move || loop {
            let start = i;
            let c = text[start..].chars().next()?;
            i += c.len_utf8();
            if c == '\n' {
                return Some("<nl>");
            } else if c.is_whitespace() {
                continue;
            } else if c.is_ascii_alphabetic() || matches!(c, '_' | '$' | '`') {
                i = run_end(i, |b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'$'));
            } else if c.is_ascii_digit()
                || (c == '\'' && bytes.get(i).is_some_and(u8::is_ascii_alphanumeric))
            {
                i = run_end(i, |b| {
                    b.is_ascii_alphanumeric() || matches!(b, b'\'' | b'_' | b'.')
                });
            } else if let Some(op) = MULTI_CHAR_OPERATORS
                .iter()
                .find(|op| text[start..].starts_with(*op))
            {
                i = start + op.len();
            }
            return Some(&text[start..i]);
        })
    }

    /// Builds a tokeniser whose vocabulary holds the reserved tokens and
    /// every token of `corpus`, most frequent first (ties in lexicographic
    /// order). The corpus is tallied on the machine's available parallelism;
    /// the vocabulary is the same for any worker count.
    pub fn fit<S: AsRef<str> + Sync>(corpus: &[S]) -> Self {
        Self::fit_on(corpus, default_workers())
    }

    /// [`HdlTokenizer::fit`] tallied on `workers` shards.
    pub(crate) fn fit_on<S: AsRef<str> + Sync>(corpus: &[S], workers: usize) -> Self {
        Self::absorb(Vocabulary::new(), sharded_tally(corpus, workers))
    }

    /// The vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Returns a tokeniser whose vocabulary is this one extended with every
    /// token of `corpus`, new tokens appended in [`HdlTokenizer::fit`]'s
    /// order.
    ///
    /// Existing token ids are preserved, so count tables built against the
    /// original vocabulary remain valid. This mirrors the practical situation
    /// of fine-tuning a subword model: the tokenizer is fixed, but it has no
    /// out-of-vocabulary problem on the new domain. A word-level vocabulary
    /// achieves the same property by absorbing the fine-tuning corpus's
    /// tokens.
    pub fn extended_with<S: AsRef<str> + Sync>(&self, corpus: &[S]) -> HdlTokenizer {
        Self::absorb(self.vocab.clone(), sharded_tally(corpus, default_workers()))
    }

    /// Interns every tallied token into `vocab` in the deterministic
    /// vocabulary order: descending count, then lexicographically.
    fn absorb(mut vocab: Vocabulary, tally: HashMap<String, usize>) -> Self {
        let mut tokens: Vec<(String, usize)> = tally.into_iter().collect();
        tokens.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (token, _) in tokens {
            vocab.intern(&token);
        }
        Self { vocab }
    }

    /// Encodes text into token ids (without BOS/EOS markers).
    pub fn encode(&self, text: &str) -> Vec<TokenId> {
        self.ids(text).collect()
    }

    /// The token ids of `text`, looked up slice by slice.
    pub(crate) fn ids<'a>(&'a self, text: &'a str) -> impl Iterator<Item = TokenId> + 'a {
        Self::tokens(text).map(|t| self.vocab.id(t))
    }

    /// Encodes a document wrapped in BOS/EOS markers, as used for training.
    pub fn encode_document(&self, text: &str) -> Vec<TokenId> {
        let mut ids = Vec::with_capacity(text.len() / 4 + 2);
        ids.push(BOS);
        ids.extend(self.ids(text));
        ids.push(EOS);
        ids
    }

    /// Decodes token ids back into readable source text, applying simple
    /// spacing rules so the output resembles hand-written Verilog.
    pub fn decode(&self, ids: &[TokenId]) -> String {
        let mut out = String::new();
        let mut at_line_start = true;
        for &id in ids {
            if id == BOS || id == EOS {
                continue;
            }
            let token = self.vocab.token(id);
            if token == "<nl>" {
                out.push('\n');
                at_line_start = true;
                continue;
            }
            let no_space_before =
                matches!(token, ";" | "," | ")" | "]" | ":" | "." | "(" | "[" | "'");
            let last = out.chars().last();
            let no_space_after_last = matches!(
                last,
                Some('(') | Some('[') | Some('.') | Some('$') | Some('~') | Some('!')
            );
            if !at_line_start && !no_space_before && !no_space_after_last && !out.is_empty() {
                out.push(' ');
            }
            out.push_str(token);
            at_line_start = false;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_separates_code_tokens() {
        let tokens = HdlTokenizer::split("assign y = a + 4'b1010;\n");
        assert_eq!(
            tokens,
            vec!["assign", "y", "=", "a", "+", "4'b1010", ";", "<nl>"]
        );
    }

    #[test]
    fn vocabulary_has_reserved_tokens() {
        let v = Vocabulary::new();
        assert_eq!(v.id("<unk>"), UNK);
        assert_eq!(v.id("<bos>"), BOS);
        assert_eq!(v.id("<eos>"), EOS);
        assert_eq!(v.len(), 3);
        assert!(v.is_empty());
    }

    #[test]
    fn unknown_tokens_map_to_unk() {
        let tok = HdlTokenizer::fit(&["module m ; endmodule".to_string()]);
        let ids = tok.encode("module zebra_signal ;");
        assert_eq!(ids[1], UNK);
        assert_ne!(ids[0], UNK);
    }

    #[test]
    fn encode_decode_round_trips_code_meaning() {
        let corpus = vec!["module m(input a, output y);\nassign y = ~a;\nendmodule\n".to_string()];
        let tok = HdlTokenizer::fit(&corpus);
        let ids = tok.encode(&corpus[0]);
        let text = tok.decode(&ids);
        assert!(text.contains("module m(input a, output y);"));
        assert!(text.contains("assign y = ~a;"));
        assert!(text.contains("endmodule"));
    }

    #[test]
    fn document_encoding_adds_bos_eos() {
        let tok = HdlTokenizer::fit(&["wire x;".to_string()]);
        let ids = tok.encode_document("wire x;");
        assert_eq!(ids.first(), Some(&BOS));
        assert_eq!(ids.last(), Some(&EOS));
    }

    #[test]
    fn fit_is_deterministic() {
        let corpus = vec![
            "module a; endmodule".to_string(),
            "module b; endmodule".to_string(),
        ];
        let t1 = HdlTokenizer::fit(&corpus);
        let t2 = HdlTokenizer::fit(&corpus);
        assert_eq!(t1, t2);
    }

    #[test]
    fn extended_tokenizer_preserves_existing_ids_and_learns_new_tokens() {
        let base = HdlTokenizer::fit(&["int main ( ) { return 0 ; }".to_string()]);
        assert_eq!(base.vocab().id("posedge"), UNK);
        let module_id = base.vocab().id("return");
        let extended = base.extended_with(&["always @(posedge clk) q <= d;".to_string()]);
        assert_eq!(extended.vocab().id("return"), module_id);
        assert_ne!(extended.vocab().id("posedge"), UNK);
        assert!(extended.vocab().len() > base.vocab().len());
        // The original tokenizer is untouched.
        assert_eq!(base.vocab().id("posedge"), UNK);
    }

    #[test]
    fn decode_handles_newlines_and_unknown_ids() {
        let tok = HdlTokenizer::fit(&["a\nb".to_string()]);
        let decoded = tok.decode(&[tok.vocab().id("a"), tok.vocab().id("<nl>"), 9999]);
        assert_eq!(decoded, "a\n<unk>");
    }
}
