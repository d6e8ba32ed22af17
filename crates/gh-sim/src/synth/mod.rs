//! Procedural generation of realistic synthetic Verilog designs.
//!
//! The synthetic GitHub universe needs Verilog files that look like the real
//! thing: parameterised datapath blocks, clocked control logic, protocol
//! front-ends, occasional testbenches and top-level integrations. Every
//! generator in this module emits source that parses with the
//! [`verilog`] front-end (guaranteed by tests), so the curation pipeline's
//! syntax filter, the de-duplicator and the language model all operate on
//! structurally meaningful data.

mod combinational;
pub mod defects;
mod protocol;
mod sequential;

pub use defects::DefectKind;

use rand::Rng;
use serde::{Deserialize, Serialize};

/// The family of a generated design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

/// Replaces whole-word occurrences of `from` with `to`.
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
        // Advance by one UTF-8 character (generated sources are ASCII, but be
        // safe).
        let ch_len = text[i..].chars().next().map(char::len_utf8).unwrap_or(1);
        out.push_str(&text[i..i + ch_len]);
        i += ch_len;
    }
    out
}

/// Rewrites a design that declares only integer-valued header parameters
/// (`#(parameter WIDTH = 8, ...)`) into the equivalent fixed-width design:
/// the parameter list is removed and every use of each parameter is replaced
/// by its default value. Returns `None` when any default is not a plain
/// integer (those designs are left parameterised).
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
        let value: u64 = value.trim().parse().ok()?;
        bindings.push((name.trim().to_string(), value));
    }
    let mut out = format!("{}{}", &source[..start], &source[end + 1..]);
    for (name, value) in bindings {
        out = replace_word(&out, &name, &value.to_string());
    }
    Some(out)
}

/// Collapses a one-port-per-line module header into a single line, leaving
/// the body untouched. Many real designs are written this way, and the
/// stylistic variety matters to consumers of the corpus.
fn flatten_port_list(source: &str) -> String {
    let Some(open) = source.find('(') else {
        return source.to_string();
    };
    let Some(close_rel) = source[open..].find(");") else {
        return source.to_string();
    };
    let close = open + close_rel;
    let header: String = source[open..close]
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
        .replace("( ", "(");
    format!("{}{}{}", &source[..open], header, &source[close..])
}

/// Applies a random naming style to a generated source.
///
/// Each identifier class keeps its canonical name half of the time (real
/// corpora are dominated by the conventional `clk`/`rst`/`a`/`b` spellings)
/// and picks one of the synonyms otherwise.
fn restyle<R: Rng>(source: &str, rng: &mut R) -> String {
    let mut out = source.to_string();
    for (canonical, alternatives) in NAME_CLASSES {
        if rng.gen_bool(0.6) {
            continue;
        }
        let choice = alternatives[rng.gen_range(0..alternatives.len())];
        if choice != *canonical {
            out = replace_word(&out, canonical, choice);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use verilog::SyntaxChecker;

    #[test]
    fn replace_word_respects_boundaries() {
        assert_eq!(
            replace_word("clk clk_q qclk", "clk", "clock"),
            "clock clk_q qclk"
        );
        assert_eq!(
            replace_word("q <= q + 1;", "q", "value"),
            "value <= value + 1;"
        );
        assert_eq!(replace_word("", "q", "value"), "");
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
