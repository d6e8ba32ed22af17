//! Recursive-descent parser for the supported Verilog subset.
//!
//! The parser works over a borrowed token slice with an index-based
//! `peek` — tokens are `Copy`, so stepping never clones a `String` the way
//! the retired reference frontend did. Identifiers stay interned
//! [`Symbol`]s all the way into the AST, and every
//! expression node is allocated into the module's [`ExprArena`] at the cost
//! of one `Vec` push. Diagnostics text (parse errors, and the lint
//! diagnostics downstream) is unchanged byte for byte.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::ast::*;
use crate::intern::{Interner, Symbol};
use crate::lexer::{LexError, LexedSource, Lexer};
use crate::token::{Keyword, Op, Token, TokenKind};

/// An error produced while parsing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            column: e.column,
        }
    }
}

/// Parses Verilog source into [`Module`] definitions.
///
/// # Example
///
/// ```
/// use verilog::Parser;
///
/// let src = "module inv(input a, output y); assign y = ~a; endmodule";
/// let modules = Parser::parse_source(src)?;
/// assert_eq!(modules[0].name, "inv");
/// assert_eq!(modules[0].ports.len(), 2);
/// # Ok::<(), verilog::ParseError>(())
/// ```
#[derive(Debug)]
pub struct Parser<'a> {
    src: &'a str,
    tokens: &'a [Token],
    interner: &'a Arc<Interner>,
    pos: usize,
    arena: ExprArena,
}

impl<'a> Parser<'a> {
    /// Creates a parser over a lexed source.
    pub fn new(src: &'a str, lexed: &'a LexedSource) -> Self {
        Self {
            src,
            tokens: &lexed.tokens,
            interner: &lexed.interner,
            pos: 0,
            arena: ExprArena::new(),
        }
    }

    /// Lexes and parses a full source file into its modules.
    ///
    /// # Errors
    ///
    /// Returns the first lexing or parsing error encountered.
    pub fn parse_source(src: &str) -> Result<Vec<Module>, ParseError> {
        let lexed = Lexer::new(src).tokenize()?;
        Parser::new(src, &lexed).parse_modules()
    }

    #[inline]
    fn peek(&self) -> TokenKind {
        self.tokens
            .get(self.pos)
            .map(|t| t.kind)
            .unwrap_or(TokenKind::Eof)
    }

    /// Renders a token kind the way error messages expect (identical to the
    /// original frontend's `TokenKind: Display`).
    fn describe(&self, kind: TokenKind) -> String {
        match kind {
            TokenKind::Keyword(k) => format!("keyword `{k}`"),
            TokenKind::Ident(sym) => format!("identifier `{}`", self.interner.resolve(sym)),
            TokenKind::Number(span) => format!("number `{}`", span.text(self.src)),
            TokenKind::StringLit(_) => "string literal".to_string(),
            TokenKind::Op(op) => format!("`{op}`"),
            TokenKind::Eof => "end of input".to_string(),
        }
    }

    fn location(&self) -> (usize, usize) {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| (t.line as usize, t.column as usize))
            .unwrap_or((0, 0))
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let (line, column) = self.location();
        ParseError {
            message: message.into(),
            line,
            column,
        }
    }

    #[inline]
    fn eat_op(&mut self, op: Op) -> bool {
        if matches!(self.peek(), TokenKind::Op(o) if o == op) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_op(&mut self, op: Op) -> Result<(), ParseError> {
        if self.eat_op(op) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected `{op}`, found {}",
                self.describe(self.peek())
            )))
        }
    }

    #[inline]
    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if matches!(self.peek(), TokenKind::Keyword(k) if k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected `{kw}`, found {}",
                self.describe(self.peek())
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<Symbol, ParseError> {
        match self.peek() {
            TokenKind::Ident(sym) => {
                self.pos += 1;
                Ok(sym)
            }
            other => Err(self.error(format!(
                "expected identifier, found {}",
                self.describe(other)
            ))),
        }
    }

    /// Parses every module in the token stream.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on the first malformed construct.
    pub fn parse_modules(&mut self) -> Result<Vec<Module>, ParseError> {
        let mut modules = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Eof => return Ok(modules),
                TokenKind::Keyword(Keyword::Module) => modules.push(self.parse_module()?),
                other => {
                    return Err(
                        self.error(format!("expected `module`, found {}", self.describe(other)))
                    );
                }
            }
        }
    }

    fn parse_module(&mut self) -> Result<Module, ParseError> {
        self.expect_keyword(Keyword::Module)?;
        let name = self.expect_ident()?;
        let mut module = Module {
            name: self.interner.name(name),
            ports: Vec::new(),
            items: Vec::new(),
            arena: ExprArena::new(),
            symbols: Arc::clone(self.interner),
        };

        // Optional parameter port list: #(parameter WIDTH = 8, ...)
        if self.eat_op(Op::Hash) {
            self.expect_op(Op::LParen)?;
            loop {
                if self.eat_op(Op::RParen) {
                    break;
                }
                // `parameter` keyword is optional after the first entry.
                let _ = self.eat_keyword(Keyword::Parameter);
                // optional type-ish tokens (integer/signed/range)
                let _ = self.eat_keyword(Keyword::Integer);
                let _ = self.eat_keyword(Keyword::Signed);
                let _ = self.try_parse_range()?;
                let pname = self.expect_ident()?;
                self.expect_op(Op::Eq)?;
                let value = self.parse_expr()?;
                module.items.push(ModuleItem::Parameter(Parameter {
                    name: pname,
                    value,
                    local: false,
                }));
                if !self.eat_op(Op::Comma) {
                    self.expect_op(Op::RParen)?;
                    break;
                }
            }
        }

        // Port list (ANSI or non-ANSI), optional.
        if self.eat_op(Op::LParen) {
            self.parse_port_list(&mut module)?;
        }
        self.expect_op(Op::Semi)?;

        // Body.
        loop {
            if self.eat_keyword(Keyword::Endmodule) {
                break;
            }
            if matches!(self.peek(), TokenKind::Eof) {
                return Err(self.error("unexpected end of input inside module body"));
            }
            let items = self.parse_module_item()?;
            module.items.extend(items);
        }

        // Promote non-ANSI port declarations to ports, preserving header order.
        promote_non_ansi_ports(&mut module);
        // The module takes ownership of its expressions; the parser starts a
        // fresh arena for the next module in the file.
        module.arena = std::mem::take(&mut self.arena);
        Ok(module)
    }

    fn parse_port_list(&mut self, module: &mut Module) -> Result<(), ParseError> {
        if self.eat_op(Op::RParen) {
            return Ok(());
        }
        // Distinguish ANSI (starts with a direction keyword) from non-ANSI
        // (bare identifiers).
        let mut current_direction: Option<PortDirection> = None;
        let mut current_range: Option<Range> = None;
        let mut current_is_reg = false;
        let mut current_signed = false;
        loop {
            match self.peek() {
                TokenKind::Keyword(kw @ (Keyword::Input | Keyword::Output | Keyword::Inout)) => {
                    self.pos += 1;
                    current_direction = Some(match kw {
                        Keyword::Input => PortDirection::Input,
                        Keyword::Output => PortDirection::Output,
                        _ => PortDirection::Inout,
                    });
                    current_is_reg = self.eat_keyword(Keyword::Reg);
                    // `output wire` is also legal; swallow a wire keyword.
                    if !current_is_reg {
                        let _ = self.eat_keyword(Keyword::Wire);
                    }
                    current_signed = self.eat_keyword(Keyword::Signed);
                    current_range = self.try_parse_range()?;
                    let name = self.expect_ident()?;
                    module.ports.push(Port {
                        name,
                        direction: current_direction.unwrap(),
                        range: current_range,
                        is_reg: current_is_reg,
                        signed: current_signed,
                    });
                }
                TokenKind::Ident(sym) => {
                    self.pos += 1;
                    if let Some(direction) = current_direction {
                        // Continuation of an ANSI group: `input a, b, c`.
                        module.ports.push(Port {
                            name: sym,
                            direction,
                            range: current_range,
                            is_reg: current_is_reg,
                            signed: current_signed,
                        });
                    } else {
                        // Non-ANSI header: record the name; the direction
                        // arrives later in the body.
                        module.ports.push(Port {
                            name: sym,
                            direction: PortDirection::Input,
                            range: None,
                            is_reg: false,
                            signed: false,
                        });
                    }
                }
                other => {
                    return Err(self.error(format!(
                        "expected port declaration, found {}",
                        self.describe(other)
                    )))
                }
            }
            if self.eat_op(Op::Comma) {
                continue;
            }
            self.expect_op(Op::RParen)?;
            return Ok(());
        }
    }

    fn try_parse_range(&mut self) -> Result<Option<Range>, ParseError> {
        if !self.eat_op(Op::LBracket) {
            return Ok(None);
        }
        let msb = self.parse_expr()?;
        self.expect_op(Op::Colon)?;
        let lsb = self.parse_expr()?;
        self.expect_op(Op::RBracket)?;
        Ok(Some(Range { msb, lsb }))
    }

    fn parse_module_item(&mut self) -> Result<Vec<ModuleItem>, ParseError> {
        match self.peek() {
            TokenKind::Keyword(Keyword::Parameter) | TokenKind::Keyword(Keyword::Localparam) => {
                let local = matches!(self.peek(), TokenKind::Keyword(Keyword::Localparam));
                self.pos += 1;
                let _ = self.eat_keyword(Keyword::Integer);
                let _ = self.eat_keyword(Keyword::Signed);
                let _ = self.try_parse_range()?;
                let mut out = Vec::new();
                loop {
                    let name = self.expect_ident()?;
                    self.expect_op(Op::Eq)?;
                    let value = self.parse_expr()?;
                    out.push(ModuleItem::Parameter(Parameter { name, value, local }));
                    if !self.eat_op(Op::Comma) {
                        break;
                    }
                }
                self.expect_op(Op::Semi)?;
                Ok(out)
            }
            TokenKind::Keyword(
                kw @ (Keyword::Input
                | Keyword::Output
                | Keyword::Inout
                | Keyword::Wire
                | Keyword::Reg
                | Keyword::Integer
                | Keyword::Genvar),
            ) => {
                self.pos += 1;
                let direction = match kw {
                    Keyword::Input => Some(PortDirection::Input),
                    Keyword::Output => Some(PortDirection::Output),
                    Keyword::Inout => Some(PortDirection::Inout),
                    _ => None,
                };
                let mut kind = match kw {
                    Keyword::Reg => NetKind::Reg,
                    Keyword::Integer => NetKind::Integer,
                    Keyword::Genvar => NetKind::Genvar,
                    _ => NetKind::Wire,
                };
                if direction.is_some() {
                    if self.eat_keyword(Keyword::Reg) {
                        kind = NetKind::Reg;
                    } else if self.eat_keyword(Keyword::Wire) {
                        kind = NetKind::Wire;
                    }
                }
                let signed = self.eat_keyword(Keyword::Signed);
                let range = self.try_parse_range()?;
                let mut nets = Vec::new();
                loop {
                    let name = self.expect_ident()?;
                    let array = self.try_parse_range()?;
                    let init = if self.eat_op(Op::Eq) {
                        Some(self.parse_expr()?)
                    } else {
                        None
                    };
                    nets.push(Net {
                        name,
                        kind,
                        range,
                        array,
                        signed,
                        init,
                    });
                    if !self.eat_op(Op::Comma) {
                        break;
                    }
                }
                self.expect_op(Op::Semi)?;
                Ok(vec![ModuleItem::Declaration(Declaration {
                    direction,
                    nets,
                })])
            }
            TokenKind::Keyword(Keyword::Assign) => {
                self.pos += 1;
                let mut out = Vec::new();
                loop {
                    let target = self.parse_expr()?;
                    self.expect_op(Op::Eq)?;
                    let value = self.parse_expr()?;
                    out.push(ModuleItem::ContinuousAssign { target, value });
                    if !self.eat_op(Op::Comma) {
                        break;
                    }
                }
                self.expect_op(Op::Semi)?;
                Ok(out)
            }
            TokenKind::Keyword(Keyword::Always) => {
                self.pos += 1;
                let sensitivity = self.parse_sensitivity()?;
                let body = self.parse_statement()?;
                Ok(vec![ModuleItem::Always(AlwaysBlock { sensitivity, body })])
            }
            TokenKind::Keyword(Keyword::Initial) => {
                self.pos += 1;
                let body = self.parse_statement()?;
                Ok(vec![ModuleItem::Initial(body)])
            }
            TokenKind::Keyword(Keyword::Generate) => {
                self.pos += 1;
                let mut inner = Vec::new();
                while !self.eat_keyword(Keyword::Endgenerate) {
                    if matches!(self.peek(), TokenKind::Eof) {
                        return Err(self.error("unexpected end of input inside generate region"));
                    }
                    inner.extend(self.parse_module_item()?);
                }
                Ok(vec![ModuleItem::Generate(inner)])
            }
            TokenKind::Keyword(Keyword::Function) | TokenKind::Keyword(Keyword::Task) => {
                // Functions/tasks are tolerated but skipped: consume tokens
                // until the matching end keyword.
                let is_function = matches!(self.peek(), TokenKind::Keyword(Keyword::Function));
                self.pos += 1;
                let end_kw = if is_function {
                    Keyword::Endfunction
                } else {
                    Keyword::Endtask
                };
                while !self.eat_keyword(end_kw) {
                    if matches!(self.peek(), TokenKind::Eof) {
                        return Err(self.error("unexpected end of input inside function/task"));
                    }
                    self.pos += 1;
                }
                Ok(vec![])
            }
            TokenKind::Ident(_) => {
                // Module instantiation: `name [#(...)] inst_name ( ... );`
                let inst = self.parse_instance()?;
                Ok(vec![ModuleItem::Instance(inst)])
            }
            other => Err(self.error(format!(
                "unexpected {} in module body",
                self.describe(other)
            ))),
        }
    }

    fn parse_instance(&mut self) -> Result<Instance, ParseError> {
        let module = self.expect_ident()?;
        let mut parameter_overrides = Vec::new();
        if self.eat_op(Op::Hash) {
            self.expect_op(Op::LParen)?;
            if !self.eat_op(Op::RParen) {
                loop {
                    if self.eat_op(Op::Dot) {
                        let pname = self.expect_ident()?;
                        self.expect_op(Op::LParen)?;
                        let value = self.parse_expr()?;
                        self.expect_op(Op::RParen)?;
                        parameter_overrides.push((Some(pname), value));
                    } else {
                        let value = self.parse_expr()?;
                        parameter_overrides.push((None, value));
                    }
                    if !self.eat_op(Op::Comma) {
                        break;
                    }
                }
                self.expect_op(Op::RParen)?;
            }
        }
        let name = self.expect_ident()?;
        self.expect_op(Op::LParen)?;
        let mut named_connections = Vec::new();
        let mut ordered_connections = Vec::new();
        if !self.eat_op(Op::RParen) {
            loop {
                if self.eat_op(Op::Dot) {
                    let port = self.expect_ident()?;
                    self.expect_op(Op::LParen)?;
                    if self.eat_op(Op::RParen) {
                        named_connections.push((port, None));
                    } else {
                        let value = self.parse_expr()?;
                        self.expect_op(Op::RParen)?;
                        named_connections.push((port, Some(value)));
                    }
                } else {
                    ordered_connections.push(self.parse_expr()?);
                }
                if !self.eat_op(Op::Comma) {
                    break;
                }
            }
            self.expect_op(Op::RParen)?;
        }
        self.expect_op(Op::Semi)?;
        Ok(Instance {
            module,
            name,
            named_connections,
            ordered_connections,
            parameter_overrides,
        })
    }

    fn parse_sensitivity(&mut self) -> Result<SensitivityList, ParseError> {
        let mut list = SensitivityList::default();
        if !self.eat_op(Op::At) {
            // `always` with no event control (e.g. `always begin ... end`) is
            // treated as combinational.
            list.star = true;
            return Ok(list);
        }
        if self.eat_op(Op::Star) {
            list.star = true;
            return Ok(list);
        }
        self.expect_op(Op::LParen)?;
        if self.eat_op(Op::Star) {
            list.star = true;
            self.expect_op(Op::RParen)?;
            return Ok(list);
        }
        loop {
            let edge = if self.eat_keyword(Keyword::Posedge) {
                EdgeKind::Posedge
            } else if self.eat_keyword(Keyword::Negedge) {
                EdgeKind::Negedge
            } else {
                EdgeKind::Level
            };
            let name = self.expect_ident()?;
            list.entries.push((edge, name));
            if self.eat_op(Op::Comma) || self.eat_keyword(Keyword::Or) {
                continue;
            }
            self.expect_op(Op::RParen)?;
            return Ok(list);
        }
    }

    fn parse_statement(&mut self) -> Result<Statement, ParseError> {
        match self.peek() {
            TokenKind::Keyword(Keyword::Begin) => {
                self.pos += 1;
                // Optional block label `begin : name`.
                if self.eat_op(Op::Colon) {
                    let _ = self.expect_ident()?;
                }
                let mut body = Vec::new();
                while !self.eat_keyword(Keyword::End) {
                    if matches!(self.peek(), TokenKind::Eof) {
                        return Err(self.error("unexpected end of input inside begin/end block"));
                    }
                    body.push(self.parse_statement()?);
                }
                Ok(Statement::Block(body))
            }
            TokenKind::Keyword(Keyword::If) => {
                self.pos += 1;
                self.expect_op(Op::LParen)?;
                let condition = self.parse_expr()?;
                self.expect_op(Op::RParen)?;
                let then_branch = Box::new(self.parse_statement()?);
                let else_branch = if self.eat_keyword(Keyword::Else) {
                    Some(Box::new(self.parse_statement()?))
                } else {
                    None
                };
                Ok(Statement::If {
                    condition,
                    then_branch,
                    else_branch,
                })
            }
            TokenKind::Keyword(kw @ (Keyword::Case | Keyword::Casez | Keyword::Casex)) => {
                self.pos += 1;
                let kind = match kw {
                    Keyword::Casez => CaseKind::Casez,
                    Keyword::Casex => CaseKind::Casex,
                    _ => CaseKind::Case,
                };
                self.expect_op(Op::LParen)?;
                let subject = self.parse_expr()?;
                self.expect_op(Op::RParen)?;
                let mut arms = Vec::new();
                while !self.eat_keyword(Keyword::Endcase) {
                    if matches!(self.peek(), TokenKind::Eof) {
                        return Err(self.error("unexpected end of input inside case statement"));
                    }
                    if self.eat_keyword(Keyword::Default) {
                        let _ = self.eat_op(Op::Colon);
                        let body = self.parse_statement()?;
                        arms.push(CaseArm {
                            labels: vec![],
                            body,
                        });
                        continue;
                    }
                    let mut labels = vec![self.parse_expr()?];
                    while self.eat_op(Op::Comma) {
                        labels.push(self.parse_expr()?);
                    }
                    self.expect_op(Op::Colon)?;
                    let body = self.parse_statement()?;
                    arms.push(CaseArm { labels, body });
                }
                Ok(Statement::Case {
                    kind,
                    subject,
                    arms,
                })
            }
            TokenKind::Keyword(Keyword::For) => {
                self.pos += 1;
                self.expect_op(Op::LParen)?;
                let init = Box::new(self.parse_assignment_no_semi()?);
                self.expect_op(Op::Semi)?;
                let condition = self.parse_expr()?;
                self.expect_op(Op::Semi)?;
                let step = Box::new(self.parse_assignment_no_semi()?);
                self.expect_op(Op::RParen)?;
                let body = Box::new(self.parse_statement()?);
                Ok(Statement::For {
                    init,
                    condition,
                    step,
                    body,
                })
            }
            TokenKind::Op(Op::Semi) => {
                self.pos += 1;
                Ok(Statement::Empty)
            }
            TokenKind::Op(Op::Hash) => {
                // Delay control `#10 statement` — skip the delay and parse the
                // controlled statement (testbench style code).
                self.pos += 1;
                let _ = self.parse_primary()?;
                self.parse_statement()
            }
            TokenKind::Op(Op::At) => {
                // Event control inside a statement, e.g. `@(posedge clk) q = d;`
                let _ = self.parse_sensitivity()?;
                self.parse_statement()
            }
            TokenKind::Ident(sym) if self.interner.resolve(sym).starts_with('$') => {
                self.pos += 1;
                let mut args = Vec::new();
                if self.eat_op(Op::LParen) && !self.eat_op(Op::RParen) {
                    loop {
                        args.push(self.parse_expr()?);
                        if !self.eat_op(Op::Comma) {
                            break;
                        }
                    }
                    self.expect_op(Op::RParen)?;
                }
                self.expect_op(Op::Semi)?;
                Ok(Statement::SystemCall { name: sym, args })
            }
            _ => {
                let stmt = self.parse_assignment_no_semi()?;
                self.expect_op(Op::Semi)?;
                Ok(stmt)
            }
        }
    }

    fn parse_assignment_no_semi(&mut self) -> Result<Statement, ParseError> {
        let target = self.parse_expr_no_comparison_shortcut()?;
        if self.eat_op(Op::Le) {
            let value = self.parse_expr()?;
            Ok(Statement::NonBlocking { target, value })
        } else if self.eat_op(Op::Eq) {
            let value = self.parse_expr()?;
            Ok(Statement::Blocking { target, value })
        } else {
            Err(self.error(format!(
                "expected `=` or `<=`, found {}",
                self.describe(self.peek())
            )))
        }
    }

    /// Parses an assignment *target* expression: stops before `<=`/`=` so the
    /// statement parser can decide blocking vs non-blocking. Targets are
    /// primaries with optional selects or concatenations, so full precedence
    /// parsing is unnecessary (and would swallow `<=`).
    fn parse_expr_no_comparison_shortcut(&mut self) -> Result<ExprId, ParseError> {
        self.parse_postfix()
    }

    // ----- expression parsing (precedence climbing) -----

    /// Parses a full expression into the parser's arena, returning its id.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] if the token stream is not an expression.
    pub fn parse_expr(&mut self) -> Result<ExprId, ParseError> {
        self.parse_ternary()
    }

    fn parse_ternary(&mut self) -> Result<ExprId, ParseError> {
        let condition = self.parse_binary(0)?;
        if self.eat_op(Op::Question) {
            let then_expr = self.parse_ternary()?;
            self.expect_op(Op::Colon)?;
            let else_expr = self.parse_ternary()?;
            Ok(self.arena.alloc(Expr::Ternary {
                condition,
                then_expr,
                else_expr,
            }))
        } else {
            Ok(condition)
        }
    }

    /// Binary operator table for precedence climbing: the AST operator and
    /// its binding power (higher binds tighter). One lookup replaces the
    /// eleven-deep recursive ladder of the original frontend, so a primary
    /// costs one peek instead of a call frame per precedence level.
    fn binary_op(op: Op) -> Option<(BinaryOp, u8)> {
        Some(match op {
            Op::OrOr => (BinaryOp::LogicalOr, 1),
            Op::AndAnd => (BinaryOp::LogicalAnd, 2),
            Op::Pipe => (BinaryOp::Or, 3),
            Op::Caret => (BinaryOp::Xor, 4),
            Op::TildeCaret | Op::CaretTilde => (BinaryOp::Xnor, 4),
            Op::Amp => (BinaryOp::And, 5),
            Op::EqEq => (BinaryOp::Eq, 6),
            Op::Neq => (BinaryOp::Neq, 6),
            Op::CaseEq => (BinaryOp::CaseEq, 6),
            Op::CaseNeq => (BinaryOp::CaseNeq, 6),
            Op::Le => (BinaryOp::Le, 7),
            Op::Ge => (BinaryOp::Ge, 7),
            Op::Lt => (BinaryOp::Lt, 7),
            Op::Gt => (BinaryOp::Gt, 7),
            Op::AShl => (BinaryOp::AShl, 8),
            Op::AShr => (BinaryOp::AShr, 8),
            Op::Shl => (BinaryOp::Shl, 8),
            Op::Shr => (BinaryOp::Shr, 8),
            Op::Plus => (BinaryOp::Add, 9),
            Op::Minus => (BinaryOp::Sub, 9),
            Op::Star => (BinaryOp::Mul, 10),
            Op::Slash => (BinaryOp::Div, 10),
            Op::Percent => (BinaryOp::Mod, 10),
            Op::Pow => (BinaryOp::Pow, 11),
            _ => return None,
        })
    }

    /// Precedence-climbing loop over [`Self::binary_op`]. `**` is
    /// right-associative (its right operand re-admits precedence 11);
    /// everything else is left-associative, exactly like the ladder it
    /// replaces — the differential fixtures pin the grouping.
    fn parse_binary(&mut self, min_prec: u8) -> Result<ExprId, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let TokenKind::Op(op) = self.peek() else {
                return Ok(lhs);
            };
            let Some((bin, prec)) = Self::binary_op(op) else {
                return Ok(lhs);
            };
            if prec < min_prec {
                return Ok(lhs);
            }
            self.pos += 1;
            let next_min = if matches!(bin, BinaryOp::Pow) {
                prec
            } else {
                prec + 1
            };
            let rhs = self.parse_binary(next_min)?;
            lhs = self.arena.alloc(Expr::Binary { op: bin, lhs, rhs });
        }
    }

    fn parse_unary(&mut self) -> Result<ExprId, ParseError> {
        let op = if self.eat_op(Op::Bang) {
            Some(UnaryOp::Not)
        } else if self.eat_op(Op::TildeAmp) {
            Some(UnaryOp::ReduceNand)
        } else if self.eat_op(Op::TildePipe) {
            Some(UnaryOp::ReduceNor)
        } else if self.eat_op(Op::TildeCaret) || self.eat_op(Op::CaretTilde) {
            Some(UnaryOp::ReduceXnor)
        } else if self.eat_op(Op::Tilde) {
            Some(UnaryOp::BitNot)
        } else if self.eat_op(Op::Minus) {
            Some(UnaryOp::Negate)
        } else if self.eat_op(Op::Plus) {
            Some(UnaryOp::Plus)
        } else if self.eat_op(Op::Amp) {
            Some(UnaryOp::ReduceAnd)
        } else if self.eat_op(Op::Pipe) {
            Some(UnaryOp::ReduceOr)
        } else if self.eat_op(Op::Caret) {
            Some(UnaryOp::ReduceXor)
        } else {
            None
        };
        match op {
            Some(op) => {
                let operand = self.parse_unary()?;
                Ok(self.arena.alloc(Expr::Unary { op, operand }))
            }
            None => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> Result<ExprId, ParseError> {
        let mut expr = self.parse_primary()?;
        loop {
            if self.eat_op(Op::LBracket) {
                let first = self.parse_expr()?;
                if self.eat_op(Op::Colon) {
                    let lsb = self.parse_expr()?;
                    self.expect_op(Op::RBracket)?;
                    expr = self.arena.alloc(Expr::Slice {
                        base: expr,
                        msb: first,
                        lsb,
                    });
                } else if self.eat_op(Op::PlusColon) || self.eat_op(Op::MinusColon) {
                    // Indexed part selects are approximated as a slice with
                    // the same base/width information.
                    let width = self.parse_expr()?;
                    self.expect_op(Op::RBracket)?;
                    expr = self.arena.alloc(Expr::Slice {
                        base: expr,
                        msb: first,
                        lsb: width,
                    });
                } else {
                    self.expect_op(Op::RBracket)?;
                    expr = self.arena.alloc(Expr::Index {
                        base: expr,
                        index: first,
                    });
                }
            } else {
                return Ok(expr);
            }
        }
    }

    fn parse_primary(&mut self) -> Result<ExprId, ParseError> {
        match self.peek() {
            TokenKind::Number(span) => {
                self.pos += 1;
                let text = span.text(self.src);
                if let Some((value, x_mask, z_mask, width)) = parse_pattern_literal(text) {
                    return Ok(self.arena.alloc(Expr::Pattern {
                        value,
                        x_mask,
                        z_mask,
                        width,
                    }));
                }
                let (value, width) = parse_number_literal(text)
                    .ok_or_else(|| self.error(format!("invalid number literal `{text}`")))?;
                Ok(self.arena.alloc(Expr::Number { value, width }))
            }
            TokenKind::StringLit(span) => {
                self.pos += 1;
                let value = Lexer::string_value(self.src, span);
                Ok(self.arena.alloc(Expr::StringLit(value)))
            }
            TokenKind::Ident(sym) => {
                self.pos += 1;
                if self.eat_op(Op::LParen) {
                    let mut args = Vec::new();
                    if !self.eat_op(Op::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_op(Op::Comma) {
                                break;
                            }
                        }
                        self.expect_op(Op::RParen)?;
                    }
                    Ok(self.arena.alloc(Expr::Call { name: sym, args }))
                } else {
                    Ok(self.arena.alloc(Expr::Ident(sym)))
                }
            }
            TokenKind::Op(Op::LParen) => {
                self.pos += 1;
                let expr = self.parse_expr()?;
                self.expect_op(Op::RParen)?;
                Ok(expr)
            }
            TokenKind::Op(Op::LBrace) => {
                self.pos += 1;
                let first = self.parse_expr()?;
                if self.eat_op(Op::LBrace) {
                    // Replication {N{expr}}
                    let value = self.parse_expr()?;
                    self.expect_op(Op::RBrace)?;
                    self.expect_op(Op::RBrace)?;
                    return Ok(self.arena.alloc(Expr::Repeat {
                        count: first,
                        value,
                    }));
                }
                let mut parts = vec![first];
                while self.eat_op(Op::Comma) {
                    parts.push(self.parse_expr()?);
                }
                self.expect_op(Op::RBrace)?;
                Ok(self.arena.alloc(Expr::Concat(parts)))
            }
            other => Err(self.error(format!(
                "expected expression, found {}",
                self.describe(other)
            ))),
        }
    }
}

/// Converts non-ANSI style modules (bare names in the header, directions
/// declared in the body) into fully-populated port lists.
pub(crate) fn promote_non_ansi_ports(module: &mut Module) {
    use std::collections::HashMap;
    let mut decls: HashMap<Symbol, (PortDirection, Option<Range>, bool, bool)> = HashMap::new();
    for item in &module.items {
        if let ModuleItem::Declaration(decl) = item {
            if let Some(direction) = decl.direction {
                for net in &decl.nets {
                    decls.insert(
                        net.name,
                        (direction, net.range, net.kind == NetKind::Reg, net.signed),
                    );
                }
            }
        }
    }
    for port in &mut module.ports {
        if let Some((direction, range, is_reg, signed)) = decls.get(&port.name) {
            port.direction = *direction;
            if port.range.is_none() {
                port.range = *range;
            }
            port.is_reg |= *is_reg;
            port.signed |= *signed;
        }
    }
}

/// Parses a Verilog number literal spelling into `(value, declared_width)`.
///
/// `x`, `z` and `?` digits are mapped to zero (two-state semantics).
pub fn parse_number_literal(text: &str) -> Option<(u64, Option<u32>)> {
    let bytes = text.as_bytes();
    if let Some(pos) = bytes.iter().position(|&b| b == b'\'') {
        // Sized/based literal. Width digits before the quote, underscores
        // skipped; overflow or a stray byte leaves the width unspecified,
        // like the `str::parse` it replaces.
        let width = if pos == 0 {
            None
        } else {
            let mut width: u32 = 0;
            let mut any = false;
            bytes[..pos]
                .iter()
                .filter(|&&b| b != b'_')
                .try_for_each(|&b| {
                    if !b.is_ascii_digit() {
                        return None;
                    }
                    any = true;
                    width = width.checked_mul(10)?.checked_add(u32::from(b - b'0'))?;
                    Some(())
                })
                .filter(|()| any)
                .map(|()| width)
        };
        let mut i = pos + 1;
        if matches!(bytes.get(i), Some(b's' | b'S')) {
            i += 1;
        }
        if i >= bytes.len() {
            return None;
        }
        let radix: u32 = match bytes[i].to_ascii_lowercase() {
            b'b' => {
                i += 1;
                2
            }
            b'o' => {
                i += 1;
                8
            }
            b'd' => {
                i += 1;
                10
            }
            b'h' => {
                i += 1;
                16
            }
            _ => 10,
        };
        let mut value: u64 = 0;
        let mut any = false;
        for &b in &bytes[i..] {
            if b == b'_' {
                continue;
            }
            let digit = match b {
                b'x' | b'X' | b'z' | b'Z' | b'?' => 0,
                _ => u64::from((b as char).to_digit(radix)?),
            };
            any = true;
            value = value.checked_mul(u64::from(radix))?.checked_add(digit)?;
        }
        if !any {
            return None;
        }
        let value = match width {
            Some(w) if w < 64 => value & ((1u64 << w) - 1),
            _ => value,
        };
        Some((value, width))
    } else if bytes.contains(&b'.') {
        // Real literal: truncate toward zero, no width.
        let value = if bytes.contains(&b'_') {
            let cleaned: String = text.chars().filter(|c| *c != '_').collect();
            cleaned.parse::<f64>().ok()?
        } else {
            text.parse::<f64>().ok()?
        };
        Some((value as u64, None))
    } else {
        // Plain decimal.
        let mut value: u64 = 0;
        let mut any = false;
        for &b in bytes {
            if b == b'_' {
                continue;
            }
            if !b.is_ascii_digit() {
                return None;
            }
            any = true;
            value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        }
        if !any {
            return None;
        }
        Some((value, None))
    }
}

/// Parses a based literal containing `x`/`z`/`?` digits into
/// `(value, x_mask, z_mask, declared_width)`.
///
/// Returns `None` for literals without wildcard digits (the common case,
/// handled by [`parse_number_literal`]) and for spellings whose wildcard
/// positions cannot be mapped to bits — a malformed literal falls back to
/// the plain number path, which keeps error reporting unchanged.
///
/// The `value` and `width` agree exactly with [`parse_number_literal`] on
/// the same spelling (wildcard digits contribute zero bits), so every
/// consumer that only looks at the folded value behaves as before.
pub fn parse_pattern_literal(text: &str) -> Option<(u64, u64, u64, Option<u32>)> {
    let bytes = text.as_bytes();
    let quote = bytes.iter().position(|&b| b == b'\'')?;
    if !bytes[quote..]
        .iter()
        .any(|&b| matches!(b, b'x' | b'X' | b'z' | b'Z' | b'?'))
    {
        return None;
    }
    let width = if quote == 0 {
        None
    } else {
        let mut width: u32 = 0;
        let mut any = false;
        for &b in bytes[..quote].iter().filter(|&&b| b != b'_') {
            if !b.is_ascii_digit() {
                return None;
            }
            any = true;
            width = width.checked_mul(10)?.checked_add(u32::from(b - b'0'))?;
        }
        any.then_some(width)
    };
    let mut i = quote + 1;
    if matches!(bytes.get(i), Some(b's' | b'S')) {
        i += 1;
    }
    // Only power-of-two radices map digits onto bit positions.
    let (radix, bits_per_digit) = match bytes.get(i)?.to_ascii_lowercase() {
        b'b' => (2u32, 1u32),
        b'o' => (8, 3),
        b'h' => (16, 4),
        _ => return None,
    };
    i += 1;
    let digit_mask = (1u64 << bits_per_digit) - 1;
    let (mut value, mut x_mask, mut z_mask) = (0u64, 0u64, 0u64);
    let mut any = false;
    for &b in &bytes[i..] {
        if b == b'_' {
            continue;
        }
        let (digit, xm, zm) = match b {
            b'x' | b'X' => (0, digit_mask, 0),
            b'z' | b'Z' | b'?' => (0, 0, digit_mask),
            _ => (u64::from((b as char).to_digit(radix)?), 0, 0),
        };
        any = true;
        // Overflow out of 64 bits mirrors `parse_number_literal`'s
        // checked arithmetic: the literal falls back to the number path.
        if (value | x_mask | z_mask) >> (64 - bits_per_digit) != 0 {
            return None;
        }
        value = (value << bits_per_digit) | digit;
        x_mask = (x_mask << bits_per_digit) | xm;
        z_mask = (z_mask << bits_per_digit) | zm;
    }
    if !any {
        return None;
    }
    if let Some(w) = width {
        if w < 64 {
            let m = (1u64 << w) - 1;
            value &= m;
            x_mask &= m;
            z_mask &= m;
        }
    }
    Some((value, x_mask, z_mask, width))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(src: &str) -> Module {
        let mut modules = Parser::parse_source(src).expect("parse");
        assert_eq!(modules.len(), 1);
        modules.remove(0)
    }

    #[test]
    fn parses_ansi_module_with_vector_ports() {
        let m = parse_one(
            "module adder(input [3:0] a, input [3:0] b, output [4:0] sum);\n\
             assign sum = a + b;\nendmodule",
        );
        assert_eq!(m.name, "adder");
        assert_eq!(m.ports.len(), 3);
        assert_eq!(m.input_names(), vec!["a", "b"]);
        assert_eq!(m.output_names(), vec!["sum"]);
        assert!(matches!(m.items[0], ModuleItem::ContinuousAssign { .. }));
    }

    #[test]
    fn parses_ansi_group_continuation() {
        let m = parse_one("module m(input a, b, c, output y); assign y = a & b & c; endmodule");
        assert_eq!(m.input_names(), vec!["a", "b", "c"]);
    }

    #[test]
    fn parses_non_ansi_ports() {
        let m = parse_one(
            "module dff(clk, d, q);\ninput clk, d;\noutput reg q;\n\
             always @(posedge clk) q <= d;\nendmodule",
        );
        assert_eq!(m.ports.len(), 3);
        assert_eq!(m.output_names(), vec!["q"]);
        assert!(m.port("q").unwrap().is_reg);
    }

    #[test]
    fn parses_parameters_in_header_and_body() {
        let m = parse_one(
            "module fifo #(parameter WIDTH = 8, parameter DEPTH = 16)(input clk);\n\
             localparam ADDR = 4;\nendmodule",
        );
        let params: Vec<&Parameter> = m
            .items
            .iter()
            .filter_map(|i| match i {
                ModuleItem::Parameter(p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(params.len(), 3);
        assert!(params
            .iter()
            .any(|p| m.resolve(p.name) == "ADDR" && p.local));
    }

    #[test]
    fn parses_always_ff_with_if_else() {
        let m = parse_one(
            "module counter(input clk, input rst, output reg [7:0] q);\n\
             always @(posedge clk) begin\n  if (rst) q <= 8'd0; else q <= q + 1;\nend\nendmodule",
        );
        let always = m
            .items
            .iter()
            .find_map(|i| match i {
                ModuleItem::Always(a) => Some(a),
                _ => None,
            })
            .unwrap();
        assert!(always.sensitivity.is_edge_triggered());
        assert!(matches!(always.body, Statement::Block(_)));
    }

    #[test]
    fn parses_case_statement_with_default() {
        let m = parse_one(
            "module mux(input [1:0] sel, input [3:0] a, output reg y);\n\
             always @* begin\n case (sel)\n  2'd0: y = a[0];\n  2'd1: y = a[1];\n  \
             2'd2, 2'd3: y = a[2];\n  default: y = 1'b0;\n endcase\nend\nendmodule",
        );
        let always = m
            .items
            .iter()
            .find_map(|i| match i {
                ModuleItem::Always(a) => Some(a),
                _ => None,
            })
            .unwrap();
        assert!(always.sensitivity.star);
        if let Statement::Block(stmts) = &always.body {
            if let Statement::Case { arms, .. } = &stmts[0] {
                assert_eq!(arms.len(), 4);
                assert!(arms.last().unwrap().labels.is_empty());
                assert_eq!(arms[2].labels.len(), 2);
                return;
            }
        }
        panic!("expected case inside block");
    }

    #[test]
    fn parses_instances_named_and_positional() {
        let src = "module top(input a, output y);\nwire w;\n\
                   inv u1 (.a(a), .y(w));\n inv u2 (w, y);\n\
                   sub #(.WIDTH(8)) u3 (.x(a));\nendmodule";
        let m = parse_one(src);
        let instances = m.instances();
        assert_eq!(instances.len(), 3);
        assert_eq!(instances[0].named_connections.len(), 2);
        assert_eq!(instances[1].ordered_connections.len(), 2);
        assert_eq!(instances[2].parameter_overrides.len(), 1);
        assert!(instances[2].parameter_overrides[0].0.is_some());
    }

    #[test]
    fn parses_concat_replication_and_slices() {
        let m = parse_one(
            "module m(input [7:0] a, output [15:0] y);\n\
             assign y = {a[7:4], {2{a[1:0]}}, 4'b0000};\nendmodule",
        );
        if let ModuleItem::ContinuousAssign { value, .. } = &m.items[0] {
            assert!(matches!(&m.arena[*value], Expr::Concat(parts) if parts.len() == 3));
        } else {
            panic!("expected assign");
        }
    }

    #[test]
    fn parses_ternary_and_reduction() {
        let m = parse_one(
            "module m(input [3:0] a, input sel, output y);\n\
             assign y = sel ? &a : |a;\nendmodule",
        );
        if let ModuleItem::ContinuousAssign { value, .. } = &m.items[0] {
            assert!(matches!(&m.arena[*value], Expr::Ternary { .. }));
        } else {
            panic!("expected assign");
        }
    }

    #[test]
    fn missing_semicolon_is_an_error() {
        let err = Parser::parse_source("module m(input a, output y) assign y = a; endmodule")
            .unwrap_err();
        assert!(err.message.contains("expected `;`"), "{err}");
    }

    #[test]
    fn missing_endmodule_is_an_error() {
        let err = Parser::parse_source("module m(input a, output y); assign y = a;").unwrap_err();
        assert!(err.message.contains("unexpected end of input"), "{err}");
    }

    #[test]
    fn garbage_port_list_is_an_error() {
        assert!(Parser::parse_source("module m(input a output y); endmodule").is_err());
    }

    #[test]
    fn multiple_modules_in_one_file() {
        let modules = Parser::parse_source(
            "module a(input x, output y); assign y = x; endmodule\n\
             module b(input x, output y); assign y = ~x; endmodule",
        )
        .unwrap();
        assert_eq!(modules.len(), 2);
        assert_eq!(modules[1].name, "b");
    }

    #[test]
    fn each_module_owns_a_compact_arena() {
        let modules = Parser::parse_source(
            "module a(input x, output y); assign y = x & 1; endmodule\n\
             module b(input x, output y); assign y = x; endmodule",
        )
        .unwrap();
        // Arenas are per-module: the second module's arena holds only its own
        // expressions, not module `a`'s.
        assert!(modules[0].arena.len() > modules[1].arena.len());
    }

    #[test]
    fn number_literal_parsing_cases() {
        assert_eq!(parse_number_literal("42"), Some((42, None)));
        assert_eq!(parse_number_literal("4'b1010"), Some((10, Some(4))));
        assert_eq!(parse_number_literal("8'hFF"), Some((255, Some(8))));
        assert_eq!(parse_number_literal("'d7"), Some((7, None)));
        assert_eq!(parse_number_literal("16'd1_000"), Some((1000, Some(16))));
        assert_eq!(parse_number_literal("4'bxx10"), Some((2, Some(4))));
        assert_eq!(
            parse_number_literal("2'd7"),
            Some((3, Some(2))),
            "truncated to width"
        );
        assert_eq!(parse_number_literal("bogus"), None);
    }

    #[test]
    fn functions_are_skipped_without_error() {
        let m = parse_one(
            "module m(input [3:0] a, output [3:0] y);\n\
             function [3:0] twice; input [3:0] v; begin twice = v << 1; end endfunction\n\
             assign y = a;\nendmodule",
        );
        assert_eq!(m.items.len(), 1);
    }

    #[test]
    fn initial_blocks_and_system_tasks_parse() {
        let m = parse_one(
            "module tb;\nreg clk;\ninitial begin\n clk = 0;\n $display(\"hello\");\n #10 clk = 1;\nend\nendmodule",
        );
        assert!(m.items.iter().any(|i| matches!(i, ModuleItem::Initial(_))));
    }

    #[test]
    fn generate_regions_parse() {
        let m = parse_one(
            "module m(input [3:0] a, output [3:0] y);\ngenvar i;\ngenerate\n\
             assign y = a;\nendgenerate\nendmodule",
        );
        assert!(m.items.iter().any(|i| matches!(i, ModuleItem::Generate(_))));
    }

    #[test]
    fn for_loop_statement_parses() {
        let m = parse_one(
            "module m(input [7:0] a, output reg [3:0] count);\ninteger i;\n\
             always @* begin\n count = 0;\n for (i = 0; i < 8; i = i + 1) begin\n \
             count = count + a[i];\n end\nend\nendmodule",
        );
        assert!(m.items.iter().any(|i| matches!(i, ModuleItem::Always(_))));
    }

    #[test]
    fn error_messages_render_token_text() {
        let err = Parser::parse_source("module 42").unwrap_err();
        assert!(err.message.contains("number `42`"), "{err}");
        let err = Parser::parse_source("module m; foo bar").unwrap_err();
        assert!(err.message.contains('`'), "{err}");
    }
}
