//! Test-vector driven simulation on top of the behavioural interpreter.
//!
//! The VerilogEval-style functional evaluation needs exactly one capability:
//! apply stimulus to a device under test, optionally pulse a clock, and
//! compare the observed outputs against a golden reference. [`Simulator`]
//! wraps [`crate::interp::CompiledModule`] with that workflow and
//! [`Testbench`] runs whole vector suites.

use serde::{Deserialize, Serialize};

use crate::ast::{EdgeKind, Module};
use crate::interp::{CompiledModule, EvalError, EvalState, Value};

/// An interactive simulator for one module.
///
/// # Example
///
/// ```
/// use verilog::{Parser, Simulator};
///
/// let module = &Parser::parse_source(
///     "module counter(input clk, input rst, output reg [3:0] q);\n\
///      always @(posedge clk) begin if (rst) q <= 0; else q <= q + 1; end endmodule",
/// )?[0];
/// let mut sim = Simulator::new(module)?;
/// sim.poke("rst", 1)?;
/// sim.clock("clk")?;
/// sim.poke("rst", 0)?;
/// sim.clock("clk")?;
/// sim.clock("clk")?;
/// assert_eq!(sim.peek("q")?, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    compiled: CompiledModule,
    state: EvalState,
}

impl Simulator {
    /// Elaborates `module` and initialises its state.
    ///
    /// # Errors
    ///
    /// Propagates elaboration and initialisation errors from the interpreter.
    pub fn new(module: &Module) -> Result<Self, EvalError> {
        let compiled = CompiledModule::elaborate(module)?;
        let state = compiled.initial_state()?;
        Ok(Self { compiled, state })
    }

    /// The elaborated module.
    pub fn compiled(&self) -> &CompiledModule {
        &self.compiled
    }

    /// Sets an input signal and fires any edge-triggered processes that are
    /// sensitive to the resulting transition, then settles combinational
    /// logic.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::UnknownSignal`] if the signal does not exist.
    pub fn poke(&mut self, name: &str, value: u64) -> Result<(), EvalError> {
        let width = self
            .compiled
            .signal_width(name)
            .ok_or_else(|| EvalError::UnknownSignal(name.to_string()))?;
        let old = self.state.get(name).map(|v| v.is_true()).unwrap_or(false);
        let new_value = Value::new(value, width);
        self.state.set(name, new_value);
        let new = new_value.is_true();
        if !old && new {
            self.compiled
                .trigger_edge(name, EdgeKind::Posedge, &mut self.state)?;
        } else if old && !new {
            self.compiled
                .trigger_edge(name, EdgeKind::Negedge, &mut self.state)?;
        } else {
            self.compiled.settle(&mut self.state)?;
        }
        Ok(())
    }

    /// Reads a signal value as raw bits.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::UnknownSignal`] if the signal does not exist.
    pub fn peek(&self, name: &str) -> Result<u64, EvalError> {
        self.state
            .get(name)
            .map(|v| v.bits())
            .ok_or_else(|| EvalError::UnknownSignal(name.to_string()))
    }

    /// Pulses `clock` low→high→low, which fires posedge processes once and
    /// negedge processes once.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn clock(&mut self, clock: &str) -> Result<(), EvalError> {
        self.poke(clock, 1)?;
        self.poke(clock, 0)?;
        Ok(())
    }

    /// Re-settles combinational logic without changing any input.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn settle(&mut self) -> Result<(), EvalError> {
        self.compiled.settle(&mut self.state)
    }
}

/// A single stimulus/response vector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TestVector {
    /// `(signal, value)` pairs applied before evaluation.
    pub inputs: Vec<(String, u64)>,
    /// Number of clock pulses applied after the inputs (0 for purely
    /// combinational checks).
    pub clock_cycles: u32,
    /// `(signal, expected value)` pairs compared after evaluation.
    pub expected: Vec<(String, u64)>,
}

impl TestVector {
    /// Creates a combinational vector (no clocking).
    pub fn combinational(inputs: Vec<(String, u64)>, expected: Vec<(String, u64)>) -> Self {
        Self {
            inputs,
            clock_cycles: 0,
            expected,
        }
    }

    /// Creates a clocked vector.
    pub fn clocked(
        inputs: Vec<(String, u64)>,
        clock_cycles: u32,
        expected: Vec<(String, u64)>,
    ) -> Self {
        Self {
            inputs,
            clock_cycles,
            expected,
        }
    }
}

/// The result of running one vector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VectorOutcome {
    /// Index of the vector in the testbench.
    pub index: usize,
    /// Whether every expectation held.
    pub passed: bool,
    /// `(signal, expected, actual)` for every mismatch.
    pub mismatches: Vec<(String, u64, u64)>,
}

/// An ordered collection of test vectors, optionally clocked.
///
/// # Example
///
/// ```
/// use verilog::{Parser, Testbench, TestVector};
///
/// let module = &Parser::parse_source(
///     "module andgate(input a, input b, output y); assign y = a & b; endmodule",
/// )?[0];
/// let tb = Testbench::combinational(vec![
///     TestVector::combinational(vec![("a".into(), 1), ("b".into(), 1)], vec![("y".into(), 1)]),
///     TestVector::combinational(vec![("a".into(), 1), ("b".into(), 0)], vec![("y".into(), 0)]),
/// ]);
/// assert!(tb.passes(module)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Testbench {
    /// Clock signal name for sequential designs.
    pub clock: Option<String>,
    /// The vectors, applied in order against a single simulator instance
    /// (state persists between vectors, as in a real testbench).
    pub vectors: Vec<TestVector>,
}

impl Testbench {
    /// Creates a purely combinational testbench.
    pub fn combinational(vectors: Vec<TestVector>) -> Self {
        Self {
            clock: None,
            vectors,
        }
    }

    /// Creates a clocked testbench driving the named clock signal.
    pub fn clocked(clock: impl Into<String>, vectors: Vec<TestVector>) -> Self {
        Self {
            clock: Some(clock.into()),
            vectors,
        }
    }

    /// Runs the testbench against `module`, returning one outcome per vector.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] if the module cannot be elaborated or a
    /// referenced signal does not exist.
    pub fn run(&self, module: &Module) -> Result<Vec<VectorOutcome>, EvalError> {
        let mut sim = Simulator::new(module)?;
        let mut outcomes = Vec::with_capacity(self.vectors.len());
        for (index, vector) in self.vectors.iter().enumerate() {
            for (name, value) in &vector.inputs {
                sim.poke(name, *value)?;
            }
            if let Some(clock) = &self.clock {
                for _ in 0..vector.clock_cycles {
                    sim.clock(clock)?;
                }
            }
            sim.settle()?;
            let mut mismatches = Vec::new();
            for (name, expected) in &vector.expected {
                let actual = sim.peek(name)?;
                if actual != *expected {
                    mismatches.push((name.clone(), *expected, actual));
                }
            }
            outcomes.push(VectorOutcome {
                index,
                passed: mismatches.is_empty(),
                mismatches,
            });
        }
        Ok(outcomes)
    }

    /// Convenience predicate: does `module` pass every vector?
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Testbench::run`].
    pub fn passes(&self, module: &Module) -> Result<bool, EvalError> {
        Ok(self.run(module)?.iter().all(|o| o.passed))
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the testbench has no vectors.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::Parser;

    fn module(src: &str) -> Module {
        Parser::parse_source(src).expect("parse").remove(0)
    }

    #[test]
    fn combinational_testbench_passes_and_fails_correctly() {
        let good =
            module("module xorgate(input a, input b, output y); assign y = a ^ b; endmodule");
        let bad = module("module xorgate(input a, input b, output y); assign y = a & b; endmodule");
        let tb = Testbench::combinational(vec![
            TestVector::combinational(
                vec![("a".into(), 0), ("b".into(), 1)],
                vec![("y".into(), 1)],
            ),
            TestVector::combinational(
                vec![("a".into(), 1), ("b".into(), 1)],
                vec![("y".into(), 0)],
            ),
        ]);
        assert!(tb.passes(&good).unwrap());
        assert!(!tb.passes(&bad).unwrap());
        let outcomes = tb.run(&bad).unwrap();
        assert!(!outcomes[0].passed);
        assert_eq!(outcomes[0].mismatches[0].0, "y");
        assert_eq!(tb.len(), 2);
        assert!(!tb.is_empty());
    }

    #[test]
    fn clocked_testbench_drives_state_machine() {
        let counter = module(
            "module counter(input clk, input rst, output reg [3:0] q);\n\
             always @(posedge clk) begin if (rst) q <= 0; else q <= q + 1; end endmodule",
        );
        let tb = Testbench::clocked(
            "clk",
            vec![
                TestVector::clocked(vec![("rst".into(), 1)], 1, vec![("q".into(), 0)]),
                TestVector::clocked(vec![("rst".into(), 0)], 3, vec![("q".into(), 3)]),
                TestVector::clocked(vec![], 2, vec![("q".into(), 5)]),
            ],
        );
        assert!(tb.passes(&counter).unwrap());
    }

    #[test]
    fn simulator_poke_detects_async_reset_edge() {
        let dff = module(
            "module dff(input clk, input arst, input d, output reg q);\n\
             always @(posedge clk, posedge arst) begin if (arst) q <= 0; else q <= d; end endmodule",
        );
        let mut sim = Simulator::new(&dff).unwrap();
        sim.poke("d", 1).unwrap();
        sim.clock("clk").unwrap();
        assert_eq!(sim.peek("q").unwrap(), 1);
        // Raising the asynchronous reset clears q without a clock edge.
        sim.poke("arst", 1).unwrap();
        assert_eq!(sim.peek("q").unwrap(), 0);
    }

    #[test]
    fn unknown_signal_reports_error() {
        let m = module("module m(input a, output y); assign y = a; endmodule");
        let mut sim = Simulator::new(&m).unwrap();
        assert!(sim.poke("nonexistent", 1).is_err());
        assert!(sim.peek("nonexistent").is_err());
    }

    #[test]
    fn state_persists_between_vectors() {
        let accumulator = module(
            "module acc(input clk, input [3:0] d, output reg [7:0] sum);\n\
             always @(posedge clk) sum <= sum + d; endmodule",
        );
        let tb = Testbench::clocked(
            "clk",
            vec![
                TestVector::clocked(vec![("d".into(), 3)], 1, vec![("sum".into(), 3)]),
                TestVector::clocked(vec![("d".into(), 4)], 1, vec![("sum".into(), 7)]),
            ],
        );
        assert!(tb.passes(&accumulator).unwrap());
    }

    #[test]
    fn overflowing_constant_folds_elaborate_instead_of_panicking() {
        // Constant folding wraps on `i64` overflow; a range whose width
        // overflows is too wide, not a panic.
        let tb = Testbench::combinational(Vec::new());
        for (decl, wrapped) in [
            ("parameter P = 64'h8000000000000000 / -1;", Some(i64::MIN)),
            ("parameter P = 64'h8000000000000000 % -1;", Some(0)),
            ("parameter P = 64'h7fffffffffffffff + 1;", Some(i64::MIN)),
            ("parameter P = -64'h8000000000000000;", Some(i64::MIN)),
            ("parameter P = 3 ** 63;", Some(3i64.wrapping_pow(63))),
            ("wire [64'h7fffffffffffffff:-1] w;", None),
        ] {
            let m = module(&format!(
                "module m(input a, output y); {decl} assign y = a; endmodule"
            ));
            match wrapped {
                Some(p) => {
                    assert_eq!(tb.passes(&m), Ok(true), "{decl}");
                    assert_eq!(
                        Simulator::new(&m).unwrap().compiled().parameter("P"),
                        Some(p)
                    );
                }
                None => assert!(
                    matches!(tb.passes(&m), Err(EvalError::WidthTooLarge(_))),
                    "{decl}"
                ),
            }
        }
    }

    #[test]
    fn out_of_range_part_selects_read_zero_and_drop_writes() {
        // Bits past a vector's width read as zero and drop writes, as single
        // bit selects already did; a select wider than 64 bits is rejected.
        let tb = |y: u64| {
            Testbench::combinational(vec![TestVector::combinational(
                vec![("a".into(), 0xFF)],
                vec![("y".into(), y)],
            )])
        };
        for (body, y) in [
            ("assign y = a[70:66];", 0),
            ("assign y = a[9:4];", 0xF),
            (
                "always @(*) begin r = 8'h0f; r[70:66] = a; end assign y = r;",
                0x0F,
            ),
            (
                "always @(*) begin r = 8'h0f; r[9:6] = a; end assign y = r;",
                0xCF,
            ),
            ("always @(*) {r[70:66], s} = a; assign y = s;", 0xFF),
        ] {
            let m = module(&format!(
                "module m(input [7:0] a, output [7:0] y); reg [7:0] r; reg [63:0] s; {body} endmodule"
            ));
            assert_eq!(tb(y).passes(&m), Ok(true), "{body}");
        }
        for body in [
            "assign y = a[32'hffffffff:0];",
            "always @(*) r[64:0] = a; assign y = r;",
        ] {
            let m = module(&format!(
                "module m(input [7:0] a, output [7:0] y); reg [7:0] r; {body} endmodule"
            ));
            assert!(
                matches!(tb(0).passes(&m), Err(EvalError::Unsupported(_))),
                "{body}"
            );
        }
    }

    #[test]
    fn oversized_memory_is_rejected_before_allocation() {
        let m = module(
            "module m(input a, output y); reg [7:0] mem [0:64'h7fffffffffffffff];\n\
             assign y = a; endmodule",
        );
        assert!(matches!(
            Testbench::combinational(Vec::new()).passes(&m),
            Err(EvalError::Unsupported(_))
        ));
    }
}
