//! Known-bad design variants for exercising the semantic lint engine.
//!
//! Each [`DefectKind`] plants exactly one class of semantic defect in an
//! otherwise clean, syntactically valid module. The sources are used to
//! validate rule sensitivity (each lint rule must catch its planted defect
//! — and only that defect), and to salt synthetic corpora with realistic
//! broken files for the curation funnel's lint stage to reject.
use verilog::RuleId;

/// A deliberately planted semantic defect.
///
/// Every variant maps onto exactly one lint rule (see
/// [`DefectKind::expected_rule`]); the generated source triggers that rule
/// once and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefectKind {
    /// References an identifier that is never declared.
    UndeclaredIdent,
    /// Declares the same wire twice.
    RedeclaredIdent,
    /// Declares a net that is driven but never read.
    UnusedSignal,
    /// Connects a named port the child module does not have.
    UnknownPort,
    /// Instantiates positionally with the wrong number of connections.
    PortCountMismatch,
    /// Leaves a child input port unconnected.
    UnconnectedPort,
    /// Connects a child output to a non-lvalue expression.
    PortDirectionMismatch,
    /// Drives one net from two continuous assignments.
    MultiplyDriven,
    /// Declares an output port and never drives it.
    UndrivenOutput,
    /// Assigns one reg from two different always blocks.
    RegMultiAlways,
    /// Assigns a wide value into a narrow net.
    WidthMismatch,
    /// Builds a combinational feedback loop through two assigns.
    CombLoop,
    /// Reads a signal missing from a level sensitivity list.
    IncompleteSensitivity,
    /// Leaves a target unassigned on a path of a combinational `if`.
    IncompleteIf,
    /// Leaves a `case` without a default and without full coverage.
    IncompleteCase,
    /// Uses a blocking assignment under an edge trigger.
    BlockingInSequential,
    /// Uses a non-blocking assignment in a combinational block.
    NonblockingInComb,
    /// Samples a register from another clock domain with no synchronizer.
    UnsynchronizedCdc,
    /// Clocks one block on posedge and another on negedge of one clock.
    MixedClockEdge,
    /// Lists a reset on negedge but tests it active-high.
    AsyncResetPolarity,
    /// Uses one reset asynchronously in one block, synchronously in another.
    MixedResetStyle,
    /// Shadows a specific casez arm behind an earlier wildcard arm.
    CaseArmOverlap,
    /// Feeds a narrow wire into a wider child input port.
    PortWidthMismatch,
}

impl DefectKind {
    /// Every defect kind, in a stable order.
    pub const ALL: [DefectKind; 23] = [
        DefectKind::UndeclaredIdent,
        DefectKind::RedeclaredIdent,
        DefectKind::UnusedSignal,
        DefectKind::UnknownPort,
        DefectKind::PortCountMismatch,
        DefectKind::UnconnectedPort,
        DefectKind::PortDirectionMismatch,
        DefectKind::MultiplyDriven,
        DefectKind::UndrivenOutput,
        DefectKind::RegMultiAlways,
        DefectKind::WidthMismatch,
        DefectKind::CombLoop,
        DefectKind::IncompleteSensitivity,
        DefectKind::IncompleteIf,
        DefectKind::IncompleteCase,
        DefectKind::BlockingInSequential,
        DefectKind::NonblockingInComb,
        DefectKind::UnsynchronizedCdc,
        DefectKind::MixedClockEdge,
        DefectKind::AsyncResetPolarity,
        DefectKind::MixedResetStyle,
        DefectKind::CaseArmOverlap,
        DefectKind::PortWidthMismatch,
    ];

    /// The lint rule this defect must trigger.
    pub fn expected_rule(&self) -> RuleId {
        match self {
            DefectKind::UndeclaredIdent => RuleId::UndeclaredIdent,
            DefectKind::RedeclaredIdent => RuleId::RedeclaredIdent,
            DefectKind::UnusedSignal => RuleId::UnusedSignal,
            DefectKind::UnknownPort => RuleId::UnknownPort,
            DefectKind::PortCountMismatch => RuleId::PortCountMismatch,
            DefectKind::UnconnectedPort => RuleId::UnconnectedPort,
            DefectKind::PortDirectionMismatch => RuleId::PortDirectionMismatch,
            DefectKind::MultiplyDriven => RuleId::MultiplyDriven,
            DefectKind::UndrivenOutput => RuleId::UndrivenOutput,
            DefectKind::RegMultiAlways => RuleId::RegMultiAlways,
            DefectKind::WidthMismatch => RuleId::WidthMismatch,
            DefectKind::CombLoop => RuleId::CombLoop,
            DefectKind::IncompleteSensitivity => RuleId::IncompleteSensitivity,
            DefectKind::IncompleteIf | DefectKind::IncompleteCase => RuleId::InferredLatch,
            DefectKind::BlockingInSequential => RuleId::BlockingInSequential,
            DefectKind::NonblockingInComb => RuleId::NonblockingInComb,
            DefectKind::UnsynchronizedCdc => RuleId::UnsynchronizedCdc,
            DefectKind::MixedClockEdge => RuleId::MixedClockEdge,
            DefectKind::AsyncResetPolarity => RuleId::AsyncResetPolarity,
            DefectKind::MixedResetStyle => RuleId::MixedResetStyle,
            DefectKind::CaseArmOverlap => RuleId::CaseArmOverlap,
            DefectKind::PortWidthMismatch => RuleId::PortWidthMismatch,
        }
    }

    /// A short lowercase tag for file and module names.
    pub fn tag(&self) -> &'static str {
        match self {
            DefectKind::UndeclaredIdent => "undeclared",
            DefectKind::RedeclaredIdent => "redeclared",
            DefectKind::UnusedSignal => "unused",
            DefectKind::UnknownPort => "unknown_port",
            DefectKind::PortCountMismatch => "port_count",
            DefectKind::UnconnectedPort => "unconnected",
            DefectKind::PortDirectionMismatch => "port_dir",
            DefectKind::MultiplyDriven => "multi_drive",
            DefectKind::UndrivenOutput => "undriven",
            DefectKind::RegMultiAlways => "multi_always",
            DefectKind::WidthMismatch => "width",
            DefectKind::CombLoop => "comb_loop",
            DefectKind::IncompleteSensitivity => "sensitivity",
            DefectKind::IncompleteIf => "latch_if",
            DefectKind::IncompleteCase => "latch_case",
            DefectKind::BlockingInSequential => "blocking_seq",
            DefectKind::NonblockingInComb => "nonblocking_comb",
            DefectKind::UnsynchronizedCdc => "cdc",
            DefectKind::MixedClockEdge => "mixed_edge",
            DefectKind::AsyncResetPolarity => "reset_polarity",
            DefectKind::MixedResetStyle => "reset_style",
            DefectKind::CaseArmOverlap => "case_overlap",
            DefectKind::PortWidthMismatch => "port_width",
        }
    }

    /// Generates a syntactically valid module named `name` containing this
    /// defect and no other.
    pub fn source(&self, name: &str) -> String {
        match self {
            DefectKind::UndeclaredIdent => format!(
                "module {name}(input a, output y);\n\
                 \tassign y = a & ghost;\n\
                 endmodule\n"
            ),
            DefectKind::RedeclaredIdent => format!(
                "module {name}(input a, output y);\n\
                 \twire t;\n\
                 \twire t;\n\
                 \tassign t = a;\n\
                 \tassign y = t;\n\
                 endmodule\n"
            ),
            DefectKind::UnusedSignal => format!(
                "module {name}(input a, output y);\n\
                 \twire dead_net;\n\
                 \tassign dead_net = a;\n\
                 \tassign y = a;\n\
                 endmodule\n"
            ),
            DefectKind::UnknownPort => format!(
                "module {name}_sub(input i, output o);\n\
                 \tassign o = ~i;\n\
                 endmodule\n\
                 module {name}(input a, output y);\n\
                 \t{name}_sub u0(.i(a), .o(y), .bogus(a));\n\
                 endmodule\n"
            ),
            DefectKind::PortCountMismatch => format!(
                "module {name}_sub(input i, output o);\n\
                 \tassign o = ~i;\n\
                 endmodule\n\
                 module {name}(input a, output y);\n\
                 \tassign y = a;\n\
                 \t{name}_sub u0(a);\n\
                 endmodule\n"
            ),
            DefectKind::UnconnectedPort => format!(
                "module {name}_sub(input i, output o);\n\
                 \tassign o = ~i;\n\
                 endmodule\n\
                 module {name}(output y);\n\
                 \t{name}_sub u0(.o(y));\n\
                 endmodule\n"
            ),
            DefectKind::PortDirectionMismatch => format!(
                "module {name}_sub(input i, output o);\n\
                 \tassign o = ~i;\n\
                 endmodule\n\
                 module {name}(input a, input b, output y);\n\
                 \tassign y = a;\n\
                 \t{name}_sub u0(.i(a), .o(a & b));\n\
                 endmodule\n"
            ),
            DefectKind::MultiplyDriven => format!(
                "module {name}(input a, output y);\n\
                 \tassign y = a;\n\
                 \tassign y = ~a;\n\
                 endmodule\n"
            ),
            DefectKind::UndrivenOutput => format!(
                "module {name}(input a, output y, output z);\n\
                 \tassign y = a;\n\
                 endmodule\n"
            ),
            DefectKind::RegMultiAlways => format!(
                "module {name}(input clk, input d, output reg q);\n\
                 \talways @(posedge clk) q <= d;\n\
                 \talways @(posedge clk) q <= ~d;\n\
                 endmodule\n"
            ),
            DefectKind::WidthMismatch => format!(
                "module {name}(input [7:0] a, output [3:0] y);\n\
                 \tassign y = a;\n\
                 endmodule\n"
            ),
            DefectKind::CombLoop => format!(
                "module {name}(input a, output y);\n\
                 \twire x;\n\
                 \tassign x = y & a;\n\
                 \tassign y = ~x;\n\
                 endmodule\n"
            ),
            DefectKind::IncompleteSensitivity => format!(
                "module {name}(input a, input b, output reg y);\n\
                 \talways @(a) y = a & b;\n\
                 endmodule\n"
            ),
            DefectKind::IncompleteIf => format!(
                "module {name}(input en, input d, output reg q);\n\
                 \talways @* begin\n\
                 \t\tif (en) q = d;\n\
                 \tend\n\
                 endmodule\n"
            ),
            DefectKind::IncompleteCase => format!(
                "module {name}(input [1:0] sel, input a, input b, output reg y);\n\
                 \talways @* begin\n\
                 \t\tcase (sel)\n\
                 \t\t\t2'd0: y = a;\n\
                 \t\t\t2'd1: y = b;\n\
                 \t\tendcase\n\
                 \tend\n\
                 endmodule\n"
            ),
            DefectKind::BlockingInSequential => format!(
                "module {name}(input clk, input d, output reg q);\n\
                 \talways @(posedge clk) q = d;\n\
                 endmodule\n"
            ),
            DefectKind::NonblockingInComb => format!(
                "module {name}(input a, output reg y);\n\
                 \talways @* y <= a;\n\
                 endmodule\n"
            ),
            DefectKind::UnsynchronizedCdc => format!(
                "module {name}(input clk_a, input clk_b, input d, output reg q);\n\
                 \treg meta;\n\
                 \talways @(posedge clk_a) meta <= d;\n\
                 \talways @(posedge clk_b) q <= meta;\n\
                 endmodule\n"
            ),
            DefectKind::MixedClockEdge => format!(
                "module {name}(input clk, input d, output reg q, output reg p);\n\
                 \talways @(posedge clk) q <= d;\n\
                 \talways @(negedge clk) p <= d;\n\
                 endmodule\n"
            ),
            DefectKind::AsyncResetPolarity => format!(
                "module {name}(input clk, input rst_n, input d, output reg q);\n\
                 \talways @(posedge clk or negedge rst_n) begin\n\
                 \t\tif (rst_n) q <= 1'b0;\n\
                 \t\telse q <= d;\n\
                 \tend\n\
                 endmodule\n"
            ),
            DefectKind::MixedResetStyle => format!(
                "module {name}(input clk, input rst, input d, output reg q, output reg p);\n\
                 \talways @(posedge clk or posedge rst) begin\n\
                 \t\tif (rst) q <= 1'b0;\n\
                 \t\telse q <= d;\n\
                 \tend\n\
                 \talways @(posedge clk) begin\n\
                 \t\tif (rst) p <= 1'b0;\n\
                 \t\telse p <= d;\n\
                 \tend\n\
                 endmodule\n"
            ),
            DefectKind::CaseArmOverlap => format!(
                "module {name}(input [1:0] sel, input a, input b, output reg y);\n\
                 \talways @* begin\n\
                 \t\tcasez (sel)\n\
                 \t\t\t2'b1?: y = a;\n\
                 \t\t\t2'b10: y = b;\n\
                 \t\t\tdefault: y = 1'b0;\n\
                 \t\tendcase\n\
                 \tend\n\
                 endmodule\n"
            ),
            DefectKind::PortWidthMismatch => format!(
                "module {name}_sub(input [3:0] i, output [3:0] o);\n\
                 \tassign o = i;\n\
                 endmodule\n\
                 module {name}(input [1:0] a, output [3:0] y);\n\
                 \t{name}_sub u0(.i(a), .o(y));\n\
                 endmodule\n"
            ),
        }
    }
}
