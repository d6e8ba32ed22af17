//! Arena-backed abstract syntax tree for the supported Verilog subset.
//!
//! The subset is the synthesisable core that the paper's datasets and
//! benchmark problems are written in: module declarations with ANSI or
//! non-ANSI port lists, parameter/localparam declarations, `wire`/`reg`
//! declarations (with packed ranges and simple memories), continuous
//! assignments, `always` blocks (combinational and edge-triggered),
//! `initial` blocks, module instantiations and the usual expression
//! operators.
//!
//! Expressions live in one [`ExprArena`] per [`Module`]: every [`Expr`]
//! child position holds a `Copy` [`ExprId`] index instead of a `Box<Expr>`,
//! so a parse performs one arena `Vec` growth per module instead of one
//! heap allocation per expression node, and walking an expression tree is
//! an index chase through a contiguous buffer. Identifiers inside the AST
//! are the lexer's interned [`Symbol`]s; the module carries its
//! [`Interner`] so names can always be resolved back to text.

use std::ops::Index;
use std::sync::Arc;

use crate::intern::{Interner, Name, Symbol};

/// A `Copy` handle to an expression stored in an [`ExprArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// The raw index of the expression in its arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The expression store of one module: a flat `Vec` the parser appends to
/// in post-order, indexed by [`ExprId`]. Children always precede parents,
/// so iterating the arena visits every subexpression before its use.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExprArena {
    nodes: Vec<Expr>,
}

impl ExprArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores an expression, returning its id.
    pub fn alloc(&mut self, expr: Expr) -> ExprId {
        let id = u32::try_from(self.nodes.len()).expect("more than u32::MAX expressions");
        self.nodes.push(expr);
        ExprId(id)
    }

    /// The expression behind `id`, or `None` if the id belongs to a
    /// different arena and is out of range.
    pub fn get(&self, id: ExprId) -> Option<&Expr> {
        self.nodes.get(id.index())
    }

    /// Number of expressions stored.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena holds no expressions.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Collects the symbols of all identifiers referenced by `id`, in
    /// depth-first source order.
    pub fn referenced_idents(&self, id: ExprId) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.collect_idents(id, &mut out);
        out
    }

    /// Appends the symbols of all identifiers referenced by `id` to `out`.
    pub fn collect_idents(&self, id: ExprId, out: &mut Vec<Symbol>) {
        match &self[id] {
            Expr::Ident(sym) => out.push(*sym),
            Expr::Number { .. } | Expr::Pattern { .. } | Expr::StringLit(_) => {}
            Expr::Unary { operand, .. } => self.collect_idents(*operand, out),
            Expr::Binary { lhs, rhs, .. } => {
                self.collect_idents(*lhs, out);
                self.collect_idents(*rhs, out);
            }
            Expr::Ternary {
                condition,
                then_expr,
                else_expr,
            } => {
                self.collect_idents(*condition, out);
                self.collect_idents(*then_expr, out);
                self.collect_idents(*else_expr, out);
            }
            Expr::Index { base, index } => {
                self.collect_idents(*base, out);
                self.collect_idents(*index, out);
            }
            Expr::Slice { base, msb, lsb } => {
                self.collect_idents(*base, out);
                self.collect_idents(*msb, out);
                self.collect_idents(*lsb, out);
            }
            Expr::Concat(parts) => {
                for p in parts {
                    self.collect_idents(*p, out);
                }
            }
            Expr::Repeat { count, value } => {
                self.collect_idents(*count, out);
                self.collect_idents(*value, out);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    self.collect_idents(*a, out);
                }
            }
        }
    }

    /// Appends the symbols an assignment target *reads*: the identifiers in
    /// its index and part-select bounds (`mem[wptr]`, `bus[HI:LO]`), at
    /// every level and in every part of a concatenation, but not the
    /// selected base nets, which the assignment writes. Anything else in
    /// target position is not a well-formed lvalue, and all its identifiers
    /// count as reads, so the analyses stay conservative.
    pub(crate) fn collect_selector_reads(&self, target: ExprId, out: &mut Vec<Symbol>) {
        match &self[target] {
            Expr::Ident(_) => {}
            Expr::Index { base, index } => {
                self.collect_idents(*index, out);
                self.collect_selector_reads(*base, out);
            }
            Expr::Slice { base, msb, lsb } => {
                self.collect_idents(*msb, out);
                self.collect_idents(*lsb, out);
                self.collect_selector_reads(*base, out);
            }
            Expr::Concat(parts) => {
                for p in parts {
                    self.collect_selector_reads(*p, out);
                }
            }
            _ => self.collect_idents(target, out),
        }
    }
}

impl Index<ExprId> for ExprArena {
    type Output = Expr;

    fn index(&self, id: ExprId) -> &Expr {
        &self.nodes[id.index()]
    }
}

/// Direction of a module port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDirection {
    /// `input`
    Input,
    /// `output`
    Output,
    /// `inout`
    Inout,
}

/// A packed range `[msb:lsb]`. Both bounds are expressions so parameterised
/// widths (`[WIDTH-1:0]`) survive parsing; they are evaluated at elaboration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Range {
    /// Most significant bound.
    pub msb: ExprId,
    /// Least significant bound.
    pub lsb: ExprId,
}

/// A port of a module.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Port name.
    pub name: Symbol,
    /// Direction.
    pub direction: PortDirection,
    /// Packed range, if the port is a vector.
    pub range: Option<Range>,
    /// Whether the port was declared `reg`.
    pub is_reg: bool,
    /// Whether the port was declared `signed`.
    pub signed: bool,
}

/// Kinds of net/variable declarations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetKind {
    /// `wire`
    Wire,
    /// `reg`
    Reg,
    /// `integer`
    Integer,
    /// `genvar`
    Genvar,
}

/// One declared net or variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Name of the net.
    pub name: Symbol,
    /// Declaration kind.
    pub kind: NetKind,
    /// Packed range, if any.
    pub range: Option<Range>,
    /// Unpacked (memory) range, if any — `reg [7:0] mem [0:15]`.
    pub array: Option<Range>,
    /// Whether declared `signed`.
    pub signed: bool,
    /// Optional initialiser (e.g. `wire x = a & b;`).
    pub init: Option<ExprId>,
}

/// A declaration statement, possibly declaring several nets and possibly
/// doubling as a non-ANSI port direction declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Declaration {
    /// Port direction if this is (also) a port declaration.
    pub direction: Option<PortDirection>,
    /// The declared nets.
    pub nets: Vec<Net>,
}

/// Edge qualifier inside a sensitivity list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// `posedge sig`
    Posedge,
    /// `negedge sig`
    Negedge,
    /// Level sensitivity (plain signal name).
    Level,
}

/// The sensitivity list of an `always` block.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SensitivityList {
    /// `(edge, signal)` entries.
    pub entries: Vec<(EdgeKind, Symbol)>,
    /// Whether the list was `@*` or `@(*)`.
    pub star: bool,
}

impl SensitivityList {
    /// Whether any entry is edge-triggered, i.e. this is sequential logic.
    pub fn is_edge_triggered(&self) -> bool {
        self.entries
            .iter()
            .any(|(edge, _)| matches!(edge, EdgeKind::Posedge | EdgeKind::Negedge))
    }
}

/// Case statement flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaseKind {
    /// `case`
    Case,
    /// `casez`
    Casez,
    /// `casex`
    Casex,
}

/// One arm of a case statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseArm {
    /// Match labels (empty for the `default` arm).
    pub labels: Vec<ExprId>,
    /// Body executed when a label matches.
    pub body: Statement,
}

/// A procedural statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `begin ... end`
    Block(Vec<Statement>),
    /// Blocking assignment `lhs = rhs;`
    Blocking {
        /// Assignment target (identifier, bit/part select or concatenation).
        target: ExprId,
        /// Right-hand side.
        value: ExprId,
    },
    /// Non-blocking assignment `lhs <= rhs;`
    NonBlocking {
        /// Assignment target.
        target: ExprId,
        /// Right-hand side.
        value: ExprId,
    },
    /// `if (c) s [else s]`
    If {
        /// Condition expression.
        condition: ExprId,
        /// Taken branch.
        then_branch: Box<Statement>,
        /// Optional else branch.
        else_branch: Option<Box<Statement>>,
    },
    /// `case (subject) ... endcase`
    Case {
        /// Case flavour (`case`, `casez`, `casex`).
        kind: CaseKind,
        /// Subject expression.
        subject: ExprId,
        /// Arms, including a possible default arm (empty labels).
        arms: Vec<CaseArm>,
    },
    /// `for (init; cond; step) body`
    For {
        /// Initialisation assignment.
        init: Box<Statement>,
        /// Loop condition.
        condition: ExprId,
        /// Step assignment.
        step: Box<Statement>,
        /// Loop body.
        body: Box<Statement>,
    },
    /// A system task call such as `$display(...)`; ignored by the interpreter.
    SystemCall {
        /// Task name including the `$`.
        name: Symbol,
        /// Arguments (kept for fidelity, unused).
        args: Vec<ExprId>,
    },
    /// An empty statement (`;`).
    Empty,
}

/// An `always` block.
#[derive(Debug, Clone, PartialEq)]
pub struct AlwaysBlock {
    /// Sensitivity list.
    pub sensitivity: SensitivityList,
    /// Body statement (usually a block).
    pub body: Statement,
}

/// A named parameter with its default value.
#[derive(Debug, Clone, PartialEq)]
pub struct Parameter {
    /// Parameter name.
    pub name: Symbol,
    /// Default value expression.
    pub value: ExprId,
    /// Whether declared `localparam`.
    pub local: bool,
}

/// A module instantiation.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Name of the instantiated module.
    pub module: Symbol,
    /// Instance name.
    pub name: Symbol,
    /// Named connections `.port(expr)`; `None` for unconnected `.port()`.
    pub named_connections: Vec<(Symbol, Option<ExprId>)>,
    /// Ordered (positional) connections, if the named form was not used.
    pub ordered_connections: Vec<ExprId>,
    /// Parameter overrides `#(.P(v))`; `None` names a positional override.
    pub parameter_overrides: Vec<(Option<Symbol>, ExprId)>,
}

/// A top-level item inside a module body.
#[derive(Debug, Clone, PartialEq)]
pub enum ModuleItem {
    /// Net/variable (and non-ANSI port) declaration.
    Declaration(Declaration),
    /// `parameter` / `localparam`.
    Parameter(Parameter),
    /// `assign lhs = rhs;`
    ContinuousAssign {
        /// Assignment target.
        target: ExprId,
        /// Driven value.
        value: ExprId,
    },
    /// `always @(...) ...`
    Always(AlwaysBlock),
    /// `initial ...`
    Initial(Statement),
    /// Module instantiation.
    Instance(Instance),
    /// A generate region; contents are kept but not elaborated.
    Generate(Vec<ModuleItem>),
}

/// A Verilog module: its header and items plus the expression arena and
/// identifier interner every [`ExprId`] and [`Symbol`] inside it resolves
/// against. Modules parsed from one source file share the interner (an
/// [`Arc`] clone), which is what lets the lint engine resolve instance
/// references between sibling modules without string hashing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Module name.
    pub name: Name,
    /// Ports in declaration order.
    pub ports: Vec<Port>,
    /// Body items in source order.
    pub items: Vec<ModuleItem>,
    /// The expression store backing every [`ExprId`] in this module.
    pub arena: ExprArena,
    /// Resolves every [`Symbol`] in this module (shared per source file).
    pub symbols: Arc<Interner>,
}

impl Module {
    /// The spelling of a symbol of this module.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.symbols.resolve(sym)
    }

    /// The spelling of a symbol as a cheap-clone [`Name`].
    pub fn name_of(&self, sym: Symbol) -> Name {
        self.symbols.name(sym)
    }

    /// Returns the port with the given name, if present.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports
            .iter()
            .find(|p| self.symbols.resolve(p.name) == name)
    }

    /// Names of all input ports, in declaration order.
    pub fn input_names(&self) -> Vec<&str> {
        self.ports
            .iter()
            .filter(|p| p.direction == PortDirection::Input)
            .map(|p| self.symbols.resolve(p.name))
            .collect()
    }

    /// Names of all output ports, in declaration order.
    pub fn output_names(&self) -> Vec<&str> {
        self.ports
            .iter()
            .filter(|p| p.direction == PortDirection::Output)
            .map(|p| self.symbols.resolve(p.name))
            .collect()
    }

    /// Iterates over all instantiations in the module (including inside
    /// generate regions).
    pub fn instances(&self) -> Vec<&Instance> {
        fn walk<'a>(items: &'a [ModuleItem], out: &mut Vec<&'a Instance>) {
            for item in items {
                match item {
                    ModuleItem::Instance(inst) => out.push(inst),
                    ModuleItem::Generate(inner) => walk(inner, out),
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.items, &mut out);
        out
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnaryOp {
    Not,        // !
    BitNot,     // ~
    Negate,     // -
    Plus,       // +
    ReduceAnd,  // &
    ReduceOr,   // |
    ReduceXor,  // ^
    ReduceNand, // ~&
    ReduceNor,  // ~|
    ReduceXnor, // ~^ or ^~
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Pow,
    And,
    Or,
    Xor,
    Xnor,
    LogicalAnd,
    LogicalOr,
    Eq,
    Neq,
    CaseEq,
    CaseNeq,
    Lt,
    Le,
    Gt,
    Ge,
    Shl,
    Shr,
    AShl,
    AShr,
}

/// An expression node. Child positions are [`ExprId`]s into the owning
/// [`ExprArena`]; identifier payloads are interned [`Symbol`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A numeric literal with an optional declared width. `x`/`z` bits are
    /// represented as zero (the interpreter is two-state).
    Number {
        /// Literal value.
        value: u64,
        /// Declared width in bits, if the literal was sized.
        width: Option<u32>,
    },
    /// A based literal containing `x`/`z`/`?` digits (e.g. `4'b1?0x`).
    ///
    /// `value` holds the known bits with wildcard positions at zero, so the
    /// two-state interpreter and constant folder treat a pattern exactly
    /// like the equivalent [`Expr::Number`]; the masks record which bits
    /// were spelled `x` and which `z`/`?`, which is what `casez`/`casex`
    /// subsumption analysis needs.
    Pattern {
        /// Known bits (wildcard positions are zero).
        value: u64,
        /// Bits spelled `x`/`X`.
        x_mask: u64,
        /// Bits spelled `z`/`Z`/`?`.
        z_mask: u64,
        /// Declared width in bits, if the literal was sized.
        width: Option<u32>,
    },
    /// An identifier reference.
    Ident(Symbol),
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: ExprId,
    },
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// The ternary conditional `c ? a : b`.
    Ternary {
        /// Condition.
        condition: ExprId,
        /// Value when true.
        then_expr: ExprId,
        /// Value when false.
        else_expr: ExprId,
    },
    /// Bit-select or memory index `base[index]`.
    Index {
        /// Selected base expression.
        base: ExprId,
        /// Index expression.
        index: ExprId,
    },
    /// Constant part-select `base[msb:lsb]`.
    Slice {
        /// Selected base expression.
        base: ExprId,
        /// Most significant bound.
        msb: ExprId,
        /// Least significant bound.
        lsb: ExprId,
    },
    /// Concatenation `{a, b, c}`.
    Concat(Vec<ExprId>),
    /// Replication `{n{expr}}`.
    Repeat {
        /// Replication count.
        count: ExprId,
        /// Replicated expression.
        value: ExprId,
    },
    /// A function or system-function call.
    Call {
        /// Callee name.
        name: Symbol,
        /// Arguments.
        args: Vec<ExprId>,
    },
    /// A string literal (only meaningful to system tasks).
    StringLit(String),
}

impl Expr {
    /// Convenience constructor for an unsized number.
    pub fn number(value: u64) -> Self {
        Expr::Number { value, width: None }
    }

    /// Convenience constructor for an identifier.
    pub fn ident(sym: Symbol) -> Self {
        Expr::Ident(sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_port_lookup_and_direction_lists() {
        let mut interner = Interner::new();
        let a = interner.intern("a");
        let y = interner.intern("y");
        let module = Module {
            name: "m".into(),
            ports: vec![
                Port {
                    name: a,
                    direction: PortDirection::Input,
                    range: None,
                    is_reg: false,
                    signed: false,
                },
                Port {
                    name: y,
                    direction: PortDirection::Output,
                    range: None,
                    is_reg: true,
                    signed: false,
                },
            ],
            items: vec![],
            arena: ExprArena::new(),
            symbols: Arc::new(interner),
        };
        assert!(module.port("a").is_some());
        assert!(module.port("zzz").is_none());
        assert_eq!(module.input_names(), vec!["a"]);
        assert_eq!(module.output_names(), vec!["y"]);
        assert_eq!(module.resolve(y), "y");
        assert_eq!(module.name_of(a), "a");
    }

    #[test]
    fn sensitivity_list_edge_detection() {
        let mut interner = Interner::new();
        let a = interner.intern("a");
        let clk = interner.intern("clk");
        let comb = SensitivityList {
            entries: vec![(EdgeKind::Level, a)],
            star: false,
        };
        assert!(!comb.is_edge_triggered());
        let seq = SensitivityList {
            entries: vec![(EdgeKind::Posedge, clk)],
            star: false,
        };
        assert!(seq.is_edge_triggered());
    }

    #[test]
    fn arena_collects_referenced_identifiers() {
        let mut interner = Interner::new();
        let mut arena = ExprArena::new();
        let a = interner.intern("a");
        let sel = interner.intern("sel");
        let b = interner.intern("b");
        let lhs = arena.alloc(Expr::ident(a));
        let condition = arena.alloc(Expr::ident(sel));
        let then_expr = arena.alloc(Expr::ident(b));
        let else_expr = arena.alloc(Expr::number(1));
        let ternary = arena.alloc(Expr::Ternary {
            condition,
            then_expr,
            else_expr,
        });
        let root = arena.alloc(Expr::Binary {
            op: BinaryOp::Add,
            lhs,
            rhs: ternary,
        });
        assert_eq!(arena.referenced_idents(root), vec![a, sel, b]);
        assert_eq!(arena.len(), 6);
        assert!(arena.get(root).is_some());
    }

    #[test]
    fn instances_are_found_inside_generate_blocks() {
        let mut interner = Interner::new();
        let sub = interner.intern("sub");
        let u0 = interner.intern("u0");
        let inst = Instance {
            module: sub,
            name: u0,
            named_connections: vec![],
            ordered_connections: vec![],
            parameter_overrides: vec![],
        };
        let module = Module {
            name: "top".into(),
            ports: vec![],
            items: vec![ModuleItem::Generate(vec![ModuleItem::Instance(inst)])],
            arena: ExprArena::new(),
            symbols: Arc::new(interner),
        };
        assert_eq!(module.instances().len(), 1);
    }
}
