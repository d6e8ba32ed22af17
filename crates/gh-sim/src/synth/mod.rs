//! Procedural generation of realistic synthetic Verilog designs.
//!
//! The synthetic GitHub universe needs Verilog files that look like the real
//! thing: parameterised datapath blocks, clocked control logic, protocol
//! front-ends, occasional testbenches and top-level integrations. Every
//! generator in this module emits source that parses with the
//! [`verilog`] front-end (guaranteed by tests), so the curation pipeline's
//! syntax filter, the de-duplicator and the language model all operate on
//! structurally meaningful data.
//!
//! A generated body is then restyled: identifier classes are renamed, the
//! header parameters are sometimes replaced by their values, and the port
//! list is sometimes flattened onto one line. Each of the three rewrites is
//! one pass over the text. The renames draw their spellings in the same
//! order as a rename-by-rename rewrite would, and a scan that gives every
//! word the renames in order yields the same text as one whole-word pass per
//! rename, so each seed still makes the same designs.

mod combinational;
pub mod defects;
mod protocol;
mod sequential;

pub use defects::DefectKind;

use rand::Rng;

/// The family of a generated design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum DesignKind {
    Adder,
    Alu,
    Mux,
    Decoder,
    Parity,
    GrayCode,
    Comparator,
    Counter,
    ShiftRegister,
    EdgeDetector,
    Debouncer,
    Pwm,
    Fifo,
    RegisterFile,
    Lfsr,
    TrafficLightFsm,
    HandshakeFsm,
    UartTx,
    UartRx,
    SpiMaster,
    Testbench,
    TopIntegration,
}

impl DesignKind {
    /// All design kinds, in a stable order.
    pub const ALL: [DesignKind; 22] = [
        DesignKind::Adder,
        DesignKind::Alu,
        DesignKind::Mux,
        DesignKind::Decoder,
        DesignKind::Parity,
        DesignKind::GrayCode,
        DesignKind::Comparator,
        DesignKind::Counter,
        DesignKind::ShiftRegister,
        DesignKind::EdgeDetector,
        DesignKind::Debouncer,
        DesignKind::Pwm,
        DesignKind::Fifo,
        DesignKind::RegisterFile,
        DesignKind::Lfsr,
        DesignKind::TrafficLightFsm,
        DesignKind::HandshakeFsm,
        DesignKind::UartTx,
        DesignKind::UartRx,
        DesignKind::SpiMaster,
        DesignKind::Testbench,
        DesignKind::TopIntegration,
    ];

    /// A short lowercase tag used in generated module and file names.
    pub fn tag(&self) -> &'static str {
        match self {
            DesignKind::Adder => "adder",
            DesignKind::Alu => "alu",
            DesignKind::Mux => "mux",
            DesignKind::Decoder => "decoder",
            DesignKind::Parity => "parity",
            DesignKind::GrayCode => "gray",
            DesignKind::Comparator => "cmp",
            DesignKind::Counter => "counter",
            DesignKind::ShiftRegister => "shiftreg",
            DesignKind::EdgeDetector => "edge_det",
            DesignKind::Debouncer => "debounce",
            DesignKind::Pwm => "pwm",
            DesignKind::Fifo => "fifo",
            DesignKind::RegisterFile => "regfile",
            DesignKind::Lfsr => "lfsr",
            DesignKind::TrafficLightFsm => "traffic_fsm",
            DesignKind::HandshakeFsm => "handshake_fsm",
            DesignKind::UartTx => "uart_tx",
            DesignKind::UartRx => "uart_rx",
            DesignKind::SpiMaster => "spi_master",
            DesignKind::Testbench => "tb",
            DesignKind::TopIntegration => "top",
        }
    }

    /// Whether the design contains clocked logic.
    pub fn is_sequential(&self) -> bool {
        !matches!(
            self,
            DesignKind::Adder
                | DesignKind::Alu
                | DesignKind::Mux
                | DesignKind::Decoder
                | DesignKind::Parity
                | DesignKind::GrayCode
                | DesignKind::Comparator
        )
    }
}

/// Minimum data-path width.
const MIN_WIDTH: u32 = 2;

/// Maximum data-path width (inclusive).
const MAX_WIDTH: u32 = 32;

/// Maximum FIFO/register-file depth. It is a power of two, so the drawn
/// depths, rounded up to powers of two, never exceed it.
const MAX_DEPTH: u32 = 32;

/// A generated design: one or more modules of Verilog source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedDesign {
    /// The top module name.
    pub name: String,
    /// The design family.
    pub kind: DesignKind,
    /// Complete Verilog source (no license header).
    pub source: String,
}

/// Procedural Verilog generator.
///
/// # Example
///
/// ```
/// use gh_sim::{Synthesizer, DesignKind};
/// use rand::SeedableRng;
/// use verilog::SyntaxChecker;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let synth = Synthesizer::new();
/// let design = synth.generate(DesignKind::Fifo, "my_fifo", &mut rng);
/// assert!(SyntaxChecker::new().is_valid(&design.source));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Synthesizer;

impl Synthesizer {
    /// Creates a synthesiser.
    pub fn new() -> Self {
        Self
    }

    fn width<R: Rng>(&self, rng: &mut R) -> u32 {
        rng.gen_range(MIN_WIDTH..=MAX_WIDTH)
    }

    /// Picks a random design kind, weighted toward the small combinational
    /// and register blocks that dominate real corpora.
    pub fn random_kind<R: Rng>(&self, rng: &mut R) -> DesignKind {
        let roll: f64 = rng.gen();
        match roll {
            r if r < 0.10 => DesignKind::Adder,
            r if r < 0.18 => DesignKind::Alu,
            r if r < 0.26 => DesignKind::Mux,
            r if r < 0.32 => DesignKind::Decoder,
            r if r < 0.36 => DesignKind::Parity,
            r if r < 0.40 => DesignKind::GrayCode,
            r if r < 0.44 => DesignKind::Comparator,
            r if r < 0.54 => DesignKind::Counter,
            r if r < 0.60 => DesignKind::ShiftRegister,
            r if r < 0.63 => DesignKind::EdgeDetector,
            r if r < 0.66 => DesignKind::Debouncer,
            r if r < 0.70 => DesignKind::Pwm,
            r if r < 0.76 => DesignKind::Fifo,
            r if r < 0.80 => DesignKind::RegisterFile,
            r if r < 0.83 => DesignKind::Lfsr,
            r if r < 0.86 => DesignKind::TrafficLightFsm,
            r if r < 0.89 => DesignKind::HandshakeFsm,
            r if r < 0.92 => DesignKind::UartTx,
            r if r < 0.95 => DesignKind::UartRx,
            r if r < 0.97 => DesignKind::SpiMaster,
            r if r < 0.99 => DesignKind::Testbench,
            _ => DesignKind::TopIntegration,
        }
    }

    /// Generates a design of the given kind with the given module name.
    pub fn generate<R: Rng>(&self, kind: DesignKind, name: &str, rng: &mut R) -> GeneratedDesign {
        let width = self.width(rng);
        let depth = rng.gen_range(4..=MAX_DEPTH).next_power_of_two();
        let source = match kind {
            DesignKind::Adder => combinational::adder(name, width, rng),
            DesignKind::Alu => combinational::alu(name, width, rng),
            DesignKind::Mux => combinational::mux(name, width, rng),
            DesignKind::Decoder => combinational::decoder(name, rng),
            DesignKind::Parity => combinational::parity(name, width),
            DesignKind::GrayCode => combinational::gray_code(name, width),
            DesignKind::Comparator => combinational::comparator(name, width),
            DesignKind::Counter => sequential::counter(name, width, rng),
            DesignKind::ShiftRegister => sequential::shift_register(name, width, rng),
            DesignKind::EdgeDetector => sequential::edge_detector(name),
            DesignKind::Debouncer => sequential::debouncer(name, rng),
            DesignKind::Pwm => sequential::pwm(name, width.max(4)),
            DesignKind::Fifo => sequential::fifo(name, width, depth),
            DesignKind::RegisterFile => sequential::register_file(name, width, depth),
            DesignKind::Lfsr => sequential::lfsr(name, width.clamp(4, 32)),
            DesignKind::TrafficLightFsm => protocol::traffic_light_fsm(name, rng),
            DesignKind::HandshakeFsm => protocol::handshake_fsm(name),
            DesignKind::UartTx => protocol::uart_tx(name, rng),
            DesignKind::UartRx => protocol::uart_rx(name, rng),
            DesignKind::SpiMaster => protocol::spi_master(name, width.clamp(8, 32)),
            DesignKind::Testbench => protocol::testbench(name, width),
            DesignKind::TopIntegration => protocol::top_integration(name, width, rng),
        };
        let mut source = restyle(&source, rng);
        // Real corpora mix parameterised and fixed-width coding styles, and
        // single-line versus one-port-per-line headers. Varying both keeps
        // the population diverse and representative.
        if rng.gen_bool(0.5) {
            if let Some(concrete) = concretize_parameters(&source) {
                source = concrete;
            }
        }
        if rng.gen_bool(0.5) {
            source = flatten_port_list(&source);
        }
        GeneratedDesign {
            name: name.to_string(),
            kind,
            source,
        }
    }

    /// Generates a design of a random kind with an auto-derived name.
    pub fn generate_random<R: Rng>(&self, rng: &mut R) -> GeneratedDesign {
        let kind = self.random_kind(rng);
        let suffix: u32 = rng.gen_range(0..100_000);
        let name = format!("{}_{suffix}", kind.tag());
        self.generate(kind, &name, rng)
    }
}

/// Identifier synonym classes used to vary the naming style of generated
/// designs. Real corpora never reuse one canonical set of signal names; this
/// keeps independently-generated designs from collapsing into near-duplicates
/// while exact copies remain exact.
const NAME_CLASSES: &[(&str, &[&str])] = &[
    ("clk", &["clk", "clock", "i_clk", "clk_i", "sys_clk"]),
    ("rst", &["rst", "reset", "rst_n", "i_rst", "srst"]),
    ("a", &["a", "in_a", "op_a", "x_in", "lhs"]),
    ("b", &["b", "in_b", "op_b", "y_in", "rhs"]),
    ("y", &["y", "out", "res", "o_data", "result_o"]),
    ("q", &["q", "cnt_q", "value", "q_reg", "o_q"]),
    ("din", &["din", "data_in", "d_in", "i_data", "wdata"]),
    (
        "dout",
        &["dout", "data_out", "d_out", "o_data_bus", "rdata"],
    ),
    ("count", &["count", "cnt", "counter_val", "tick", "total"]),
    ("en", &["en", "enable", "ce", "i_en", "valid_in"]),
    ("sel", &["sel", "select", "mux_sel", "s", "choice"]),
    ("state", &["state", "fsm_state", "cur_state", "st", "phase"]),
    ("mem", &["mem", "ram", "storage", "buffer", "array_mem"]),
    ("shift", &["shift", "shreg", "pipe", "hold", "stage_reg"]),
    (
        "timer",
        &["timer", "tick_cnt", "delay_cnt", "wait_cnt", "t_cnt"],
    ),
];

/// Whether `b` belongs to a word: a maximal run of `[A-Za-z0-9_]`, the
/// unit the renames below rewrite. Every byte of a non-ASCII character is
/// outside it.
fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `name` is one whole word.
fn is_word(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(is_word_byte)
}

/// Gives every word of `text` the renames in order, each `(from, to)`
/// turning the word `from` into `to`, in one scan that copies the unchanged
/// spans as slices.
///
/// When every `from` and `to` is a word, this equals one whole-word
/// replacement pass over the text per rename, in order: a word put in place
/// of a word keeps every word boundary where it was, so each pass maps words
/// to words, and the passes compose word by word.
fn rewrite_words<S: AsRef<str>>(text: &str, renames: &[(&str, S)]) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len() + text.len() / 4);
    let mut copied = 0;
    let mut i = 0;
    while i < bytes.len() {
        if !is_word_byte(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_word_byte(bytes[i]) {
            i += 1;
        }
        let word = &text[start..i];
        let mut renamed = None;
        for (from, to) in renames {
            if renamed.unwrap_or(word) == *from {
                renamed = Some(to.as_ref());
            }
        }
        if let Some(to) = renamed {
            out.push_str(&text[copied..start]);
            out.push_str(to);
            copied = i;
        }
    }
    out.push_str(&text[copied..]);
    out
}

/// Rewrites a design that declares only integer-valued header parameters
/// (`#(parameter WIDTH = 8, ...)`) into the equivalent fixed-width design:
/// the parameter list is removed and every use of each parameter is replaced
/// by its default value, all in one [`rewrite_words`] scan, which equals
/// substituting one parameter after another. Returns `None` when any default
/// is not a plain integer or any name is not a word (those designs are left
/// parameterised).
fn concretize_parameters(source: &str) -> Option<String> {
    // Designs that override parameters on instances (`sub #(.WIDTH(8)) u...`)
    // are left alone: rewriting the parameter name would also rewrite the
    // named override.
    if source.contains("#(.") {
        return None;
    }
    let start = source.find("#(")?;
    let end = start + source[start..].find(')')?;
    let list = &source[start + 2..end];
    let mut bindings = Vec::new();
    for entry in list.split(',') {
        let entry = entry.trim().strip_prefix("parameter")?.trim();
        let (name, value) = entry.split_once('=')?;
        let name = name.trim();
        let value: u64 = value.trim().parse().ok()?;
        if !is_word(name) {
            return None;
        }
        bindings.push((name, value.to_string()));
    }
    let unparameterised = format!("{}{}", &source[..start], &source[end + 1..]);
    Some(rewrite_words(&unparameterised, &bindings))
}

/// Collapses a one-port-per-line module header into a single line, leaving
/// the body untouched: the header's whitespace-separated tokens are joined
/// by single spaces, with none after a token that ends in `(`. Many real
/// designs are written this way, and the stylistic variety matters to
/// consumers of the corpus.
fn flatten_port_list(source: &str) -> String {
    let Some(open) = source.find('(') else {
        return source.to_string();
    };
    let Some(close_rel) = source[open..].find(");") else {
        return source.to_string();
    };
    let close = open + close_rel;
    let mut out = String::with_capacity(source.len());
    out.push_str(&source[..open]);
    let mut space = false;
    for token in source[open..close].split_whitespace() {
        if space {
            out.push(' ');
        }
        out.push_str(token);
        space = !token.ends_with('(');
    }
    out.push_str(&source[close..]);
    out
}

/// Applies a random naming style to a generated source.
///
/// Each identifier class keeps its canonical name with probability 0.6
/// (real corpora are dominated by the conventional `clk`/`rst`/`a`/`b`
/// spellings) and otherwise draws one of its spellings, the canonical
/// among them. The draws come first, class by class in [`NAME_CLASSES`]
/// order; then one [`rewrite_words`] scan renames every class whose draw is
/// not its canonical, which equals renaming one class after another.
fn restyle<R: Rng>(source: &str, rng: &mut R) -> String {
    let mut renames = Vec::with_capacity(NAME_CLASSES.len());
    for &(canonical, alternatives) in NAME_CLASSES {
        if rng.gen_bool(0.6) {
            continue;
        }
        let choice = alternatives[rng.gen_range(0..alternatives.len())];
        if choice != canonical {
            renames.push((canonical, choice));
        }
    }
    rewrite_words(source, &renames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use verilog::SyntaxChecker;

    /// Replaces whole-word occurrences of `from` with `to`, walking the text
    /// one character at a time: the longhand oracle for [`rewrite_words`].
    fn replace_word(text: &str, from: &str, to: &str) -> String {
        let bytes = text.as_bytes();
        let mut out = String::with_capacity(text.len());
        let mut i = 0;
        while i < text.len() {
            if text[i..].starts_with(from) {
                let before_ok =
                    i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
                let after = i + from.len();
                let after_ok = after >= text.len()
                    || !(bytes[after].is_ascii_alphanumeric() || bytes[after] == b'_');
                if before_ok && after_ok {
                    out.push_str(to);
                    i = after;
                    continue;
                }
            }
            let ch_len = text[i..].chars().next().map(char::len_utf8).unwrap_or(1);
            out.push_str(&text[i..i + ch_len]);
            i += ch_len;
        }
        out
    }

    #[test]
    fn rewrite_words_respects_boundaries() {
        assert_eq!(
            rewrite_words("clk clk_q qclk", &[("clk", "clock")]),
            "clock clk_q qclk"
        );
        assert_eq!(
            rewrite_words("q <= q + 1;", &[("q", "value")]),
            "value <= value + 1;"
        );
        assert_eq!(rewrite_words("", &[("q", "value")]), "");
    }

    /// Verilog-ish fragments: words, numbers, sized literals, format
    /// strings, punctuation, whitespace and non-ASCII characters. The texts
    /// below concatenate them, and random words, without separators, so
    /// neighbouring words merge.
    const PIECES: &[&str] = &[
        "a", "b", "q", "a1", "_q", "clk", "x_a", "8", "32", "8'b1", "4'hF", "%b", "%d", " ", "\n",
        "\t", "(", ")", ";", ",", ".", "#", "'", "$", "é", "İ", "—", "😀",
    ];

    /// A word that [`PIECES`] often spells.
    fn word() -> impl Strategy<Value = String> {
        prop_oneof![
            (0..7usize).prop_map(|i| PIECES[i].to_string()),
            "[abq_1]{1,2}",
            "[0-9]{1,2}",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The one-pass scan equals folding [`replace_word`] over the
        /// renames. A replacement may name any source, its own or an
        /// earlier or later one: the fold rewrites it again only if that
        /// source comes later.
        #[test]
        fn rewrite_words_equals_the_sequential_renames(
            pieces in proptest::collection::vec(
                prop_oneof![(0..PIECES.len()).prop_map(|i| PIECES[i].to_string()), word()],
                0..40,
            ),
            pairs in proptest::collection::vec((word(), word()), 0..6),
        ) {
            let text = pieces.concat();
            let renames: Vec<(&str, &str)> = pairs
                .iter()
                .map(|(from, to)| (from.as_str(), to.as_str()))
                .collect();
            let sequential = renames
                .iter()
                .fold(text.clone(), |acc, (from, to)| replace_word(&acc, from, to));
            prop_assert_eq!(
                rewrite_words(&text, &renames),
                sequential,
                "text {:?}, renames {:?}",
                text,
                renames
            );
        }
    }

    proptest! {
        /// The header built token by token equals the one joined with
        /// single spaces and then stripped of every `"( "`.
        #[test]
        fn flatten_port_list_equals_join_and_replace(
            parts in proptest::collection::vec(
                proptest::collection::vec(0..PIECES.len(), 0..16),
                3,
            ),
        ) {
            let [before, header, after] = [0, 1, 2]
                .map(|p| parts[p].iter().map(|&i| PIECES[i]).collect::<String>());
            let source = format!("{before}({header});{after}");
            let open = source.find('(').unwrap();
            let close = open + source[open..].find(");").unwrap();
            let joined = source[open..close]
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ")
                .replace("( ", "(");
            let longhand = format!("{}{joined}{}", &source[..open], &source[close..]);
            prop_assert_eq!(flatten_port_list(&source), longhand, "source {:?}", source);
        }
    }

    /// Every name is a word, which [`rewrite_words`] needs to equal the
    /// class-by-class renames; the canonicals are distinct, and no spelling
    /// is another class's canonical, so a class's drawn spelling is the one
    /// the design shows.
    #[test]
    fn name_classes_are_distinct_words() {
        let canonicals: Vec<&str> = NAME_CLASSES.iter().map(|(c, _)| *c).collect();
        let distinct: std::collections::HashSet<_> = canonicals.iter().collect();
        assert_eq!(distinct.len(), canonicals.len(), "canonicals repeat");
        for &(canonical, alternatives) in NAME_CLASSES {
            assert_eq!(alternatives[0], canonical, "canonical not listed first");
            for &name in alternatives {
                assert!(is_word(name), "{name:?} is not a word");
                assert!(
                    name == canonical || !canonicals.contains(&name),
                    "{name:?} in class {canonical:?} is another class's canonical"
                );
            }
        }
    }

    #[test]
    fn concretize_leaves_a_parameter_without_a_word_name_alone() {
        assert_eq!(
            concretize_parameters("module m #(parameter = 8) (input a); endmodule"),
            None
        );
        assert_eq!(
            concretize_parameters("module m #(parameter W W = 8) (input a); endmodule"),
            None
        );
        assert_eq!(
            concretize_parameters("module m #(parameter W = 4) (input [W-1:0] a); endmodule")
                .as_deref(),
            Some("module m  (input [4-1:0] a); endmodule")
        );
    }

    #[test]
    fn restyle_preserves_parsability_and_varies_names() {
        let synth = Synthesizer::new();
        let checker = SyntaxChecker::new();
        let mut rng = ChaCha8Rng::seed_from_u64(123);
        let mut distinct = std::collections::HashSet::new();
        for i in 0..10 {
            let d = synth.generate(DesignKind::Counter, &format!("c{i}"), &mut rng);
            assert!(checker.is_valid(&d.source));
            distinct.insert(d.source);
        }
        assert!(
            distinct.len() >= 8,
            "restyling should differentiate designs"
        );
    }

    #[test]
    fn every_design_kind_produces_parsable_verilog() {
        let synth = Synthesizer::new();
        let checker = SyntaxChecker::new();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for kind in DesignKind::ALL {
            for trial in 0..5 {
                let design = synth.generate(kind, &format!("{}_{trial}", kind.tag()), &mut rng);
                assert!(
                    checker.is_valid(&design.source),
                    "kind {kind:?} trial {trial} did not parse:\n{}",
                    design.source
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let synth = Synthesizer::new();
        let a = synth.generate_random(&mut ChaCha8Rng::seed_from_u64(5));
        let b = synth.generate_random(&mut ChaCha8Rng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_vary_the_output() {
        let synth = Synthesizer::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let designs: Vec<_> = (0..20).map(|_| synth.generate_random(&mut rng)).collect();
        let distinct: std::collections::HashSet<_> =
            designs.iter().map(|d| d.source.clone()).collect();
        assert!(
            distinct.len() > 10,
            "expected variety, got {}",
            distinct.len()
        );
    }

    #[test]
    fn random_kind_covers_many_families() {
        let synth = Synthesizer::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let kinds: std::collections::HashSet<_> =
            (0..500).map(|_| synth.random_kind(&mut rng)).collect();
        assert!(kinds.len() >= 15, "only {} kinds seen", kinds.len());
    }

    #[test]
    fn sequential_classification_is_consistent() {
        assert!(!DesignKind::Alu.is_sequential());
        assert!(DesignKind::Fifo.is_sequential());
        assert!(DesignKind::UartTx.is_sequential());
    }

    #[test]
    fn module_name_appears_in_source() {
        let synth = Synthesizer::new();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let d = synth.generate(DesignKind::Alu, "my_special_alu", &mut rng);
        assert!(d.source.contains("module my_special_alu"));
    }
}
