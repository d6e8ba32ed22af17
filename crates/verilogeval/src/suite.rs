//! The built-in problem suite.
//!
//! A laptop-scale stand-in for VerilogEval-Human: each problem is a
//! natural-language specification plus a module interface, a golden solution
//! and a vector testbench. The suite spans the same families the original
//! covers — gates, multiplexers, arithmetic, comparisons, encodings and
//! clocked sequential logic — so that pass@k responds to model quality the
//! same way, just over fewer problems.

use serde::{Deserialize, Serialize};
use verilog::{TestVector, Testbench};

use crate::problem::{Problem, ProblemFamily};

/// A collection of benchmark problems.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ProblemSuite {
    problems: Vec<Problem>,
}

impl ProblemSuite {
    /// Creates a suite from explicit problems.
    pub fn new(problems: Vec<Problem>) -> Self {
        Self { problems }
    }

    /// The problems.
    pub fn problems(&self) -> &[Problem] {
        &self.problems
    }

    /// Number of problems.
    pub fn len(&self) -> usize {
        self.problems.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.problems.is_empty()
    }

    /// Looks up a problem by id.
    pub fn by_id(&self, id: &str) -> Option<&Problem> {
        self.problems.iter().find(|p| p.id == id)
    }

    /// A reduced suite containing only the first `n` problems (useful for
    /// fast benchmarks).
    pub fn truncated(&self, n: usize) -> ProblemSuite {
        ProblemSuite {
            problems: self.problems.iter().take(n).cloned().collect(),
        }
    }

    /// The full built-in suite (the VerilogEval-Human stand-in).
    pub fn verilog_eval_human() -> Self {
        let mut problems = Vec::new();
        problems.extend(gate_problems());
        problems.extend(mux_problems());
        problems.extend(arithmetic_problems());
        problems.extend(comparison_problems());
        problems.extend(encoding_problems());
        problems.extend(sequential_problems());
        Self { problems }
    }
}

// ----- helpers -----

/// A named signal assignment, e.g. `("a", 1)`.
type Pins<'a> = &'a [(&'a str, u64)];

fn iv(pairs: Pins<'_>) -> Vec<(String, u64)> {
    pairs.iter().map(|(n, v)| ((*n).to_string(), *v)).collect()
}

fn comb_vectors(cases: &[(Pins<'_>, Pins<'_>)]) -> Testbench {
    Testbench::combinational(
        cases
            .iter()
            .map(|(inputs, outputs)| TestVector::combinational(iv(inputs), iv(outputs)))
            .collect(),
    )
}

fn clocked_vectors(cases: &[(Pins<'_>, u32, Pins<'_>)]) -> Testbench {
    Testbench::clocked(
        "clk",
        cases
            .iter()
            .map(|(inputs, cycles, outputs)| TestVector::clocked(iv(inputs), *cycles, iv(outputs)))
            .collect(),
    )
}

fn problem(
    id: &str,
    family: ProblemFamily,
    description: &str,
    header: &str,
    body: &str,
    testbench: Testbench,
) -> Problem {
    Problem {
        id: id.to_string(),
        family,
        description: description.to_string(),
        module_header: header.to_string(),
        golden_solution: format!("{header}\n{body}\nendmodule\n"),
        testbench,
    }
}

// ----- combinational gates -----

fn gate_problems() -> Vec<Problem> {
    let two_input = |id: &str, desc: &str, op: &str, f: fn(u64, u64) -> u64| {
        #[allow(clippy::type_complexity)]
        let cases: Vec<(Vec<(&str, u64)>, Vec<(&str, u64)>)> = (0..4)
            .map(|i| {
                let a = i & 1;
                let b = (i >> 1) & 1;
                (vec![("a", a), ("b", b)], vec![("y", f(a, b) & 1)])
            })
            .collect();
        let case_refs: Vec<(Pins<'_>, Pins<'_>)> = cases
            .iter()
            .map(|(i, o)| (i.as_slice(), o.as_slice()))
            .collect();
        problem(
            id,
            ProblemFamily::Gate,
            desc,
            "module top_module(input a, input b, output y);",
            &format!("assign y = {op};"),
            comb_vectors(&case_refs),
        )
    };
    let mut out = vec![
        two_input("and2", "Implement a 2-input AND gate.", "a & b", |a, b| {
            a & b
        }),
        two_input("or2", "Implement a 2-input OR gate.", "a | b", |a, b| a | b),
        two_input("xor2", "Implement a 2-input XOR gate.", "a ^ b", |a, b| {
            a ^ b
        }),
        two_input(
            "nand2",
            "Implement a 2-input NAND gate.",
            "~(a & b)",
            |a, b| !(a & b),
        ),
        two_input(
            "nor2",
            "Implement a 2-input NOR gate.",
            "~(a | b)",
            |a, b| !(a | b),
        ),
        two_input(
            "xnor2",
            "Implement a 2-input XNOR gate.",
            "~(a ^ b)",
            |a, b| !(a ^ b),
        ),
    ];
    out.push(problem(
        "not1",
        ProblemFamily::Gate,
        "Implement an inverter: the output is the logical complement of the input.",
        "module top_module(input a, output y);",
        "assign y = ~a;",
        comb_vectors(&[(&[("a", 0)], &[("y", 1)]), (&[("a", 1)], &[("y", 0)])]),
    ));
    out.push(problem(
        "buffer1",
        ProblemFamily::Gate,
        "Implement a buffer: the output follows the input.",
        "module top_module(input a, output y);",
        "assign y = a;",
        comb_vectors(&[(&[("a", 0)], &[("y", 0)]), (&[("a", 1)], &[("y", 1)])]),
    ));
    out.push(problem(
        "and4",
        ProblemFamily::Gate,
        "Implement a 4-input AND gate over inputs a, b, c and d.",
        "module top_module(input a, input b, input c, input d, output y);",
        "assign y = a & b & c & d;",
        comb_vectors(&[
            (&[("a", 1), ("b", 1), ("c", 1), ("d", 1)], &[("y", 1)]),
            (&[("a", 1), ("b", 1), ("c", 0), ("d", 1)], &[("y", 0)]),
            (&[("a", 0), ("b", 0), ("c", 0), ("d", 0)], &[("y", 0)]),
        ]),
    ));
    out.push(problem(
        "majority3",
        ProblemFamily::Gate,
        "Output 1 when at least two of the three inputs a, b and c are 1.",
        "module top_module(input a, input b, input c, output y);",
        "assign y = (a & b) | (a & c) | (b & c);",
        comb_vectors(&[
            (&[("a", 0), ("b", 0), ("c", 0)], &[("y", 0)]),
            (&[("a", 1), ("b", 0), ("c", 0)], &[("y", 0)]),
            (&[("a", 1), ("b", 1), ("c", 0)], &[("y", 1)]),
            (&[("a", 1), ("b", 1), ("c", 1)], &[("y", 1)]),
            (&[("a", 0), ("b", 1), ("c", 1)], &[("y", 1)]),
        ]),
    ));
    out
}

// ----- multiplexers -----

fn mux_problems() -> Vec<Problem> {
    vec![
        problem(
            "mux2",
            ProblemFamily::Mux,
            "Implement a 2-to-1 multiplexer: output a when sel is 0, b when sel is 1.",
            "module top_module(input a, input b, input sel, output y);",
            "assign y = sel ? b : a;",
            comb_vectors(&[
                (&[("a", 1), ("b", 0), ("sel", 0)], &[("y", 1)]),
                (&[("a", 1), ("b", 0), ("sel", 1)], &[("y", 0)]),
                (&[("a", 0), ("b", 1), ("sel", 1)], &[("y", 1)]),
                (&[("a", 0), ("b", 1), ("sel", 0)], &[("y", 0)]),
            ]),
        ),
        problem(
            "mux2_bus8",
            ProblemFamily::Mux,
            "Implement an 8-bit wide 2-to-1 multiplexer: output a when sel is 0, b when sel is 1.",
            "module top_module(input [7:0] a, input [7:0] b, input sel, output [7:0] y);",
            "assign y = sel ? b : a;",
            comb_vectors(&[
                (&[("a", 0x55), ("b", 0xAA), ("sel", 0)], &[("y", 0x55)]),
                (&[("a", 0x55), ("b", 0xAA), ("sel", 1)], &[("y", 0xAA)]),
                (&[("a", 0xFF), ("b", 0x00), ("sel", 1)], &[("y", 0x00)]),
            ]),
        ),
        problem(
            "mux4_bit",
            ProblemFamily::Mux,
            "Implement a 4-to-1 multiplexer over the bits of d: output d[sel].",
            "module top_module(input [3:0] d, input [1:0] sel, output y);",
            "assign y = d[sel];",
            comb_vectors(&[
                (&[("d", 0b1010), ("sel", 0)], &[("y", 0)]),
                (&[("d", 0b1010), ("sel", 1)], &[("y", 1)]),
                (&[("d", 0b1010), ("sel", 2)], &[("y", 0)]),
                (&[("d", 0b1010), ("sel", 3)], &[("y", 1)]),
            ]),
        ),
    ]
}

// ----- arithmetic -----

fn arithmetic_problems() -> Vec<Problem> {
    vec![
        problem(
            "half_adder",
            ProblemFamily::Arithmetic,
            "Implement a half adder: s is the sum of a and b, c is the carry.",
            "module top_module(input a, input b, output s, output c);",
            "assign s = a ^ b;\nassign c = a & b;",
            comb_vectors(&[
                (&[("a", 0), ("b", 0)], &[("s", 0), ("c", 0)]),
                (&[("a", 1), ("b", 0)], &[("s", 1), ("c", 0)]),
                (&[("a", 1), ("b", 1)], &[("s", 0), ("c", 1)]),
            ]),
        ),
        problem(
            "full_adder",
            ProblemFamily::Arithmetic,
            "Implement a full adder with inputs a, b and cin, producing sum s and carry cout.",
            "module top_module(input a, input b, input cin, output s, output cout);",
            "assign s = a ^ b ^ cin;\nassign cout = (a & b) | (a & cin) | (b & cin);",
            comb_vectors(&[
                (&[("a", 0), ("b", 0), ("cin", 0)], &[("s", 0), ("cout", 0)]),
                (&[("a", 1), ("b", 1), ("cin", 0)], &[("s", 0), ("cout", 1)]),
                (&[("a", 1), ("b", 1), ("cin", 1)], &[("s", 1), ("cout", 1)]),
                (&[("a", 0), ("b", 1), ("cin", 1)], &[("s", 0), ("cout", 1)]),
            ]),
        ),
        problem(
            "adder4_carry",
            ProblemFamily::Arithmetic,
            "Add the two 4-bit inputs a and b, producing a 4-bit sum and a carry output.",
            "module top_module(input [3:0] a, input [3:0] b, output [3:0] sum, output carry);",
            "assign {carry, sum} = {1'b0, a} + {1'b0, b};",
            comb_vectors(&[
                (&[("a", 3), ("b", 4)], &[("sum", 7), ("carry", 0)]),
                (&[("a", 9), ("b", 8)], &[("sum", 1), ("carry", 1)]),
                (&[("a", 15), ("b", 15)], &[("sum", 14), ("carry", 1)]),
            ]),
        ),
        problem(
            "adder8",
            ProblemFamily::Arithmetic,
            "Add the two 8-bit inputs a and b, producing a 9-bit sum so that no carry is lost.",
            "module top_module(input [7:0] a, input [7:0] b, output [8:0] sum);",
            "assign sum = {1'b0, a} + {1'b0, b};",
            comb_vectors(&[
                (&[("a", 100), ("b", 55)], &[("sum", 155)]),
                (&[("a", 200), ("b", 100)], &[("sum", 300)]),
                (&[("a", 255), ("b", 255)], &[("sum", 510)]),
            ]),
        ),
        problem(
            "subtractor4",
            ProblemFamily::Arithmetic,
            "Subtract the 4-bit input b from the 4-bit input a, wrapping modulo 16.",
            "module top_module(input [3:0] a, input [3:0] b, output [3:0] diff);",
            "assign diff = a - b;",
            comb_vectors(&[
                (&[("a", 9), ("b", 4)], &[("diff", 5)]),
                (&[("a", 4), ("b", 9)], &[("diff", 11)]),
                (&[("a", 0), ("b", 1)], &[("diff", 15)]),
            ]),
        ),
        problem(
            "incrementer4",
            ProblemFamily::Arithmetic,
            "Output the 4-bit input a plus one, wrapping modulo 16.",
            "module top_module(input [3:0] a, output [3:0] y);",
            "assign y = a + 4'd1;",
            comb_vectors(&[
                (&[("a", 0)], &[("y", 1)]),
                (&[("a", 7)], &[("y", 8)]),
                (&[("a", 15)], &[("y", 0)]),
            ]),
        ),
        problem(
            "multiplier4",
            ProblemFamily::Arithmetic,
            "Multiply the two 4-bit inputs a and b, producing the full 8-bit product.",
            "module top_module(input [3:0] a, input [3:0] b, output [7:0] p);",
            "assign p = {4'b0000, a} * {4'b0000, b};",
            comb_vectors(&[
                (&[("a", 3), ("b", 5)], &[("p", 15)]),
                (&[("a", 15), ("b", 15)], &[("p", 225)]),
                (&[("a", 0), ("b", 9)], &[("p", 0)]),
            ]),
        ),
    ]
}

// ----- comparisons -----

fn comparison_problems() -> Vec<Problem> {
    vec![
        problem(
            "comparator4",
            ProblemFamily::Comparison,
            "Compare the 4-bit inputs a and b, asserting lt, eq or gt.",
            "module top_module(input [3:0] a, input [3:0] b, output lt, output eq, output gt);",
            "assign lt = (a < b);\nassign eq = (a == b);\nassign gt = (a > b);",
            comb_vectors(&[
                (&[("a", 3), ("b", 9)], &[("lt", 1), ("eq", 0), ("gt", 0)]),
                (&[("a", 9), ("b", 9)], &[("lt", 0), ("eq", 1), ("gt", 0)]),
                (&[("a", 12), ("b", 2)], &[("lt", 0), ("eq", 0), ("gt", 1)]),
            ]),
        ),
        problem(
            "is_zero",
            ProblemFamily::Comparison,
            "Output 1 when the 4-bit input a is zero.",
            "module top_module(input [3:0] a, output y);",
            "assign y = (a == 4'd0);",
            comb_vectors(&[
                (&[("a", 0)], &[("y", 1)]),
                (&[("a", 1)], &[("y", 0)]),
                (&[("a", 15)], &[("y", 0)]),
            ]),
        ),
        problem(
            "min4",
            ProblemFamily::Comparison,
            "Output the smaller of the two 4-bit inputs a and b.",
            "module top_module(input [3:0] a, input [3:0] b, output [3:0] y);",
            "assign y = (a < b) ? a : b;",
            comb_vectors(&[
                (&[("a", 3), ("b", 9)], &[("y", 3)]),
                (&[("a", 9), ("b", 3)], &[("y", 3)]),
                (&[("a", 7), ("b", 7)], &[("y", 7)]),
            ]),
        ),
    ]
}

// ----- encodings -----

fn encoding_problems() -> Vec<Problem> {
    vec![
        problem(
            "parity8",
            ProblemFamily::Encoding,
            "Compute the odd parity (XOR reduction) of the 8-bit input data.",
            "module top_module(input [7:0] data, output parity);",
            "assign parity = ^data;",
            comb_vectors(&[
                (&[("data", 0)], &[("parity", 0)]),
                (&[("data", 0b1000_0001)], &[("parity", 0)]),
                (&[("data", 0b1000_0000)], &[("parity", 1)]),
                (&[("data", 0b0110_1011)], &[("parity", 1)]),
            ]),
        ),
        problem(
            "gray4",
            ProblemFamily::Encoding,
            "Convert the 4-bit binary input bin into Gray code.",
            "module top_module(input [3:0] bin, output [3:0] gray);",
            "assign gray = bin ^ (bin >> 1);",
            comb_vectors(&[
                (&[("bin", 0)], &[("gray", 0)]),
                (&[("bin", 1)], &[("gray", 1)]),
                (&[("bin", 2)], &[("gray", 3)]),
                (&[("bin", 7)], &[("gray", 4)]),
                (&[("bin", 15)], &[("gray", 8)]),
            ]),
        ),
        problem(
            "decoder2to4",
            ProblemFamily::Encoding,
            "Implement a 2-to-4 one-hot decoder with an enable input; all outputs are 0 when en is 0.",
            "module top_module(input [1:0] sel, input en, output reg [3:0] y);",
            "always @* begin\nif (!en) y = 4'b0000;\nelse case (sel)\n2'd0: y = 4'b0001;\n2'd1: y = 4'b0010;\n2'd2: y = 4'b0100;\ndefault: y = 4'b1000;\nendcase\nend",
            comb_vectors(&[
                (&[("sel", 0), ("en", 1)], &[("y", 0b0001)]),
                (&[("sel", 2), ("en", 1)], &[("y", 0b0100)]),
                (&[("sel", 3), ("en", 1)], &[("y", 0b1000)]),
                (&[("sel", 3), ("en", 0)], &[("y", 0)]),
            ]),
        ),
        problem(
            "popcount8",
            ProblemFamily::Encoding,
            "Count the number of 1 bits in the 8-bit input a.",
            "module top_module(input [7:0] a, output reg [3:0] count);",
            "integer i;\nalways @* begin\ncount = 0;\nfor (i = 0; i < 8; i = i + 1) count = count + a[i];\nend",
            comb_vectors(&[
                (&[("a", 0)], &[("count", 0)]),
                (&[("a", 0b1111_1111)], &[("count", 8)]),
                (&[("a", 0b1010_0101)], &[("count", 4)]),
            ]),
        ),
        problem(
            "sign_extend4to8",
            ProblemFamily::Encoding,
            "Sign-extend the 4-bit input a to 8 bits.",
            "module top_module(input [3:0] a, output [7:0] y);",
            "assign y = {{4{a[3]}}, a};",
            comb_vectors(&[
                (&[("a", 0b0101)], &[("y", 0b0000_0101)]),
                (&[("a", 0b1010)], &[("y", 0b1111_1010)]),
            ]),
        ),
        problem(
            "reverse4",
            ProblemFamily::Encoding,
            "Reverse the bit order of the 4-bit input a.",
            "module top_module(input [3:0] a, output [3:0] y);",
            "assign y = {a[0], a[1], a[2], a[3]};",
            comb_vectors(&[
                (&[("a", 0b0001)], &[("y", 0b1000)]),
                (&[("a", 0b1100)], &[("y", 0b0011)]),
                (&[("a", 0b1111)], &[("y", 0b1111)]),
            ]),
        ),
        problem(
            "shift_left",
            ProblemFamily::Encoding,
            "Shift the 8-bit input a left by the 3-bit amount n, filling with zeros.",
            "module top_module(input [7:0] a, input [2:0] n, output [7:0] y);",
            "assign y = a << n;",
            comb_vectors(&[
                (&[("a", 0b0000_0001), ("n", 0)], &[("y", 0b0000_0001)]),
                (&[("a", 0b0000_0001), ("n", 3)], &[("y", 0b0000_1000)]),
                (&[("a", 0b1000_0001), ("n", 1)], &[("y", 0b0000_0010)]),
            ]),
        ),
    ]
}

// ----- sequential -----

fn sequential_problems() -> Vec<Problem> {
    vec![
        problem(
            "dff",
            ProblemFamily::Sequential,
            "Implement a D flip-flop: q takes the value of d at every rising clock edge.",
            "module top_module(input clk, input d, output reg q);",
            "always @(posedge clk) q <= d;",
            clocked_vectors(&[
                (&[("d", 1)], 1, &[("q", 1)]),
                (&[("d", 0)], 1, &[("q", 0)]),
                (&[("d", 1)], 2, &[("q", 1)]),
            ]),
        ),
        problem(
            "dff_rst",
            ProblemFamily::Sequential,
            "Implement a D flip-flop with synchronous reset: when rst is 1 at the clock edge, q becomes 0, otherwise q takes d.",
            "module top_module(input clk, input rst, input d, output reg q);",
            "always @(posedge clk) begin\nif (rst) q <= 1'b0;\nelse q <= d;\nend",
            clocked_vectors(&[
                (&[("rst", 0), ("d", 1)], 1, &[("q", 1)]),
                (&[("rst", 1), ("d", 1)], 1, &[("q", 0)]),
                (&[("rst", 0), ("d", 1)], 1, &[("q", 1)]),
            ]),
        ),
        problem(
            "counter8",
            ProblemFamily::Sequential,
            "Implement an 8-bit counter with synchronous reset and enable: it resets to 0 when rst is 1 and increments by 1 each clock cycle when en is 1.",
            "module top_module(input clk, input rst, input en, output reg [7:0] count);",
            "always @(posedge clk) begin\nif (rst) count <= 8'd0;\nelse if (en) count <= count + 8'd1;\nend",
            clocked_vectors(&[
                (&[("rst", 1), ("en", 0)], 1, &[("count", 0)]),
                (&[("rst", 0), ("en", 1)], 3, &[("count", 3)]),
                (&[("en", 0)], 2, &[("count", 3)]),
                (&[("en", 1)], 2, &[("count", 5)]),
            ]),
        ),
        problem(
            "updown_counter4",
            ProblemFamily::Sequential,
            "Implement a 4-bit up/down counter with synchronous reset: it counts up when up is 1 and down when up is 0.",
            "module top_module(input clk, input rst, input up, output reg [3:0] count);",
            "always @(posedge clk) begin\nif (rst) count <= 4'd0;\nelse if (up) count <= count + 4'd1;\nelse count <= count - 4'd1;\nend",
            clocked_vectors(&[
                (&[("rst", 1), ("up", 1)], 1, &[("count", 0)]),
                (&[("rst", 0), ("up", 1)], 5, &[("count", 5)]),
                (&[("up", 0)], 2, &[("count", 3)]),
            ]),
        ),
        problem(
            "shift_reg8",
            ProblemFamily::Sequential,
            "Implement an 8-bit serial-in shift register with synchronous reset: each clock cycle the register shifts left by one and din enters the least-significant bit.",
            "module top_module(input clk, input rst, input din, output reg [7:0] q);",
            "always @(posedge clk) begin\nif (rst) q <= 8'd0;\nelse q <= {q[6:0], din};\nend",
            clocked_vectors(&[
                (&[("rst", 1), ("din", 0)], 1, &[("q", 0)]),
                (&[("rst", 0), ("din", 1)], 1, &[("q", 0b0000_0001)]),
                (&[("din", 0)], 1, &[("q", 0b0000_0010)]),
                (&[("din", 1)], 2, &[("q", 0b0000_1011)]),
            ]),
        ),
        problem(
            "toggle_ff",
            ProblemFamily::Sequential,
            "Implement a toggle flip-flop with synchronous reset: q inverts on every clock edge where t is 1.",
            "module top_module(input clk, input rst, input t, output reg q);",
            "always @(posedge clk) begin\nif (rst) q <= 1'b0;\nelse if (t) q <= ~q;\nend",
            clocked_vectors(&[
                (&[("rst", 1), ("t", 0)], 1, &[("q", 0)]),
                (&[("rst", 0), ("t", 1)], 1, &[("q", 1)]),
                (&[("t", 1)], 1, &[("q", 0)]),
                (&[("t", 0)], 3, &[("q", 0)]),
                (&[("t", 1)], 1, &[("q", 1)]),
            ]),
        ),
        problem(
            "accumulator8",
            ProblemFamily::Sequential,
            "Implement an 8-bit accumulator with synchronous reset: each clock cycle the input d is added to the running sum.",
            "module top_module(input clk, input rst, input [7:0] d, output reg [7:0] sum);",
            "always @(posedge clk) begin\nif (rst) sum <= 8'd0;\nelse sum <= sum + d;\nend",
            clocked_vectors(&[
                (&[("rst", 1), ("d", 0)], 1, &[("sum", 0)]),
                (&[("rst", 0), ("d", 10)], 1, &[("sum", 10)]),
                (&[("d", 5)], 2, &[("sum", 20)]),
            ]),
        ),
        problem(
            "edge_detect_rise",
            ProblemFamily::Sequential,
            "Detect a rising edge of sig: rise is 1 when sig is 1 but was 0 at the previous clock edge.",
            "module top_module(input clk, input sig, output rise);",
            "reg sig_d;\nalways @(posedge clk) sig_d <= sig;\nassign rise = sig & ~sig_d;",
            clocked_vectors(&[
                (&[("sig", 0)], 1, &[("rise", 0)]),
                (&[("sig", 1)], 0, &[("rise", 1)]),
                (&[("sig", 1)], 1, &[("rise", 0)]),
                (&[("sig", 0)], 1, &[("rise", 0)]),
            ]),
        ),
        problem(
            "parity_tracker",
            ProblemFamily::Fsm,
            "Track the running parity of a bit stream: starting from 0 after reset, the output p flips at every clock edge where the input bit is 1.",
            "module top_module(input clk, input rst, input bit_in, output reg p);",
            "always @(posedge clk) begin\nif (rst) p <= 1'b0;\nelse if (bit_in) p <= ~p;\nend",
            clocked_vectors(&[
                (&[("rst", 1), ("bit_in", 0)], 1, &[("p", 0)]),
                (&[("rst", 0), ("bit_in", 1)], 1, &[("p", 1)]),
                (&[("bit_in", 1)], 1, &[("p", 0)]),
                (&[("bit_in", 0)], 2, &[("p", 0)]),
                (&[("bit_in", 1)], 1, &[("p", 1)]),
            ]),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_broad_coverage() {
        let suite = ProblemSuite::verilog_eval_human();
        assert!(suite.len() >= 30, "only {} problems", suite.len());
        let families: std::collections::HashSet<_> =
            suite.problems().iter().map(|p| p.family).collect();
        assert!(families.len() >= 6, "families: {families:?}");
    }

    #[test]
    fn every_golden_solution_passes_its_testbench() {
        let suite = ProblemSuite::verilog_eval_human();
        for p in suite.problems() {
            match p.golden_passes() {
                Ok(true) => {}
                Ok(false) => panic!("golden solution for `{}` fails its testbench", p.id),
                Err(e) => panic!("golden solution for `{}` cannot be simulated: {e}", p.id),
            }
        }
    }

    #[test]
    fn problem_ids_are_unique() {
        let suite = ProblemSuite::verilog_eval_human();
        let ids: std::collections::HashSet<_> =
            suite.problems().iter().map(|p| p.id.clone()).collect();
        assert_eq!(ids.len(), suite.len());
    }

    #[test]
    fn every_problem_has_testbench_vectors_and_description() {
        let suite = ProblemSuite::verilog_eval_human();
        for p in suite.problems() {
            assert!(!p.testbench.is_empty(), "{} has no vectors", p.id);
            assert!(!p.description.is_empty());
            assert!(p.module_header.starts_with("module top_module("));
        }
    }

    #[test]
    fn lookup_and_truncation() {
        let suite = ProblemSuite::verilog_eval_human();
        assert!(suite.by_id("and2").is_some());
        assert!(suite.by_id("does_not_exist").is_none());
        let small = suite.truncated(5);
        assert_eq!(small.len(), 5);
        assert!(!small.is_empty());
    }

    #[test]
    fn wrong_solutions_fail_some_problem() {
        let suite = ProblemSuite::verilog_eval_human();
        let p = suite.by_id("counter8").unwrap();
        // A counter that ignores the enable.
        let wrong = "always @(posedge clk) begin\nif (rst) count <= 0;\nelse count <= count + 1;\nend\nendmodule";
        assert!(!p.judge_completion(wrong, false).functional);
    }
}
