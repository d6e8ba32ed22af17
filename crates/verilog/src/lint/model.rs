//! The shared semantic model the lint passes analyse: a symbol table with
//! folded parameter values, resolved instances, and per-net drive/read
//! summaries.
//!
//! The model is *symbol-keyed*: every table is a dense `Vec` indexed by the
//! `Copy` [`Symbol`] ids the lexer interned, sized to the module's interner.
//! Looking up a net's width, drives or reads is an array index — no string
//! hashing anywhere on the lint hot path. Names are resolved back to text
//! only when a pass renders a diagnostic, so message text is unchanged.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{
    AlwaysBlock, Expr, ExprArena, ExprId, Module, ModuleItem, Net, NetKind, PortDirection, Range,
    Statement,
};
use crate::intern::{Name, Symbol};

/// What a name in the module's scope refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SymbolKind {
    /// A declared net, variable or port.
    Net,
    /// A `parameter`/`localparam`.
    Param,
    /// A `genvar`.
    Genvar,
}

/// One entry of the symbol table.
#[derive(Debug, Clone)]
pub(crate) struct SymbolInfo {
    pub kind: SymbolKind,
    /// Port direction if the symbol is a port.
    pub direction: Option<PortDirection>,
    /// Whether the symbol is a variable (`reg`/`integer`).
    pub is_reg: bool,
    /// Whether the symbol is specifically an `integer` (loop counter).
    pub is_integer: bool,
    /// Whether the symbol has an unpacked (memory) dimension.
    pub is_array: bool,
    /// Packed width in bits when it constant-folds.
    pub width: Option<u32>,
    /// Non-ANSI direction declarations seen for a port name.
    pub port_dir_decls: usize,
    /// Data-type (`wire`/`reg`/…) declarations seen.
    pub data_decls: usize,
}

impl SymbolInfo {
    fn net(direction: Option<PortDirection>) -> Self {
        Self {
            kind: SymbolKind::Net,
            direction,
            is_reg: false,
            is_integer: false,
            is_array: false,
            width: None,
            port_dir_decls: 0,
            data_decls: 0,
        }
    }
}

/// How a net is driven, accumulated over the whole module.
#[derive(Debug, Clone, Default)]
pub(crate) struct DriveInfo {
    /// Whole-net continuous drivers: `assign` statements, net initialisers
    /// and resolved instance outputs.
    pub continuous_whole: usize,
    /// Partial (bit/part-select) continuous drivers.
    pub continuous_partial: usize,
    /// Indices (into [`ModuleModel::always_blocks`]) of `always` blocks
    /// assigning the net.
    pub always_blocks: BTreeSet<usize>,
    /// Driven from an `initial` block.
    pub initial: bool,
    /// Connected to an instance of a module defined elsewhere — direction
    /// unknown, so the net may be driven externally.
    pub maybe_external: bool,
}

impl DriveInfo {
    /// Whether anything drives the net at all (conservatively counting
    /// unresolved-instance connections).
    pub fn is_driven(&self) -> bool {
        self.continuous_whole > 0
            || self.continuous_partial > 0
            || !self.always_blocks.is_empty()
            || self.initial
            || self.maybe_external
    }
}

/// A continuous-assignment target: either a real target expression from an
/// `assign` item, or the bare net a declaration initialiser drives (the
/// arena is immutable by lint time, so no `Ident` node is synthesised).
#[derive(Debug, Clone, Copy)]
pub(crate) enum AssignTarget {
    /// An `assign lhs = ...;` target expression.
    Expr(ExprId),
    /// The whole net of a declaration initialiser `wire x = ...;`.
    Net(Symbol),
}

/// A connection of one instance port, classified against the resolved
/// target module.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedConnection {
    /// The port's name, kept as text for diagnostics.
    pub port_name: Name,
    pub direction: PortDirection,
    /// Folded width of the child port under the instance's parameter
    /// overrides.
    pub port_width: Option<u32>,
    /// The connected expression in the *parent* module's arena (`None` for
    /// explicit `.port()`).
    pub expr: Option<ExprId>,
}

/// One instantiation with its resolution against the sibling modules.
#[derive(Debug, Clone)]
pub(crate) struct InstanceModel<'a> {
    pub instance: &'a crate::ast::Instance,
    /// The target module when it is defined in the same source.
    pub target: Option<&'a Module>,
    /// Classified connections (resolved instances only).
    pub connections: Vec<ResolvedConnection>,
    /// Input ports of the resolved target left without a connection.
    pub missing_inputs: Vec<Name>,
}

/// The semantic model of one module, shared by every lint pass. All
/// per-symbol tables are dense `Vec`s indexed by [`Symbol::index`], sized to
/// the module's interner.
pub(crate) struct ModuleModel<'a> {
    pub module: &'a Module,
    /// Constant-folded parameter values, by symbol.
    pub params: Vec<Option<u64>>,
    /// Widths of sized parameter literals (`localparam S = 2'd1` → 2).
    pub param_widths: Vec<Option<u32>>,
    /// The symbol table (`None` = never declared).
    pub symbols: Vec<Option<SymbolInfo>>,
    /// Declared symbols in declaration order (deterministic iteration).
    pub symbol_order: Vec<Symbol>,
    /// Every `always` block, in source order (generate regions included).
    pub always_blocks: Vec<&'a AlwaysBlock>,
    /// Every `initial` body, in source order.
    pub initial_blocks: Vec<&'a Statement>,
    /// Continuous assignments (`assign` items and net initialisers), as
    /// `(target, value)` pairs in the module's arena.
    pub continuous_assigns: Vec<(AssignTarget, ExprId)>,
    /// Instantiations with their resolution.
    pub instances: Vec<InstanceModel<'a>>,
    /// Names of sibling modules in the same source (including this one).
    pub sibling_names: BTreeSet<Name>,
    /// Per-net drive summary, by symbol.
    pub drives: Vec<Option<DriveInfo>>,
    /// Whether each symbol is read anywhere (RHS, conditions, selects,
    /// sensitivity lists, system-task arguments, unresolved connections).
    pub reads: Vec<bool>,
    /// Symbols read in positions that must resolve to a local symbol
    /// (excludes system-task arguments, where hierarchical names and
    /// module references are idiomatic).
    pub strict_refs: Vec<Symbol>,
}

impl<'a> ModuleModel<'a> {
    /// Builds the model for `module`, resolving instances against
    /// `siblings` (the other modules parsed from the same source).
    pub fn build(module: &'a Module, siblings: &'a [Module]) -> Self {
        let sibling_names: BTreeSet<Name> = siblings.iter().map(|m| m.name.clone()).collect();
        let n = module.symbols.len();
        let mut model = Self {
            module,
            params: vec![None; n],
            param_widths: vec![None; n],
            symbols: vec![None; n],
            symbol_order: Vec::new(),
            always_blocks: Vec::new(),
            initial_blocks: Vec::new(),
            continuous_assigns: Vec::new(),
            instances: Vec::new(),
            sibling_names,
            drives: vec![None; n],
            reads: vec![false; n],
            strict_refs: Vec::new(),
        };
        model.collect_symbols();
        model.collect_items(siblings);
        model.collect_drives_and_reads();
        model
    }

    /// The module's expression arena.
    pub fn arena(&self) -> &'a ExprArena {
        &self.module.arena
    }

    /// The spelling of a symbol.
    pub fn resolve(&self, sym: Symbol) -> &'a str {
        self.module.symbols.resolve(sym)
    }

    /// The symbol-table entry for a symbol, if declared.
    pub fn symbol(&self, sym: Symbol) -> Option<&SymbolInfo> {
        self.symbols.get(sym.index()).and_then(Option::as_ref)
    }

    /// The drive summary for a symbol, if anything drives it.
    pub fn drive(&self, sym: Symbol) -> Option<&DriveInfo> {
        self.drives.get(sym.index()).and_then(Option::as_ref)
    }

    /// Whether the symbol is read anywhere.
    pub fn is_read(&self, sym: Symbol) -> bool {
        self.reads.get(sym.index()).copied().unwrap_or(false)
    }

    /// The width of a symbol, if known (scalars are 1 bit wide).
    pub fn symbol_width(&self, sym: Symbol) -> Option<u32> {
        if let Some(w) = self.param_widths.get(sym.index()).copied().flatten() {
            return Some(w);
        }
        self.symbol(sym).and_then(|s| match s.kind {
            SymbolKind::Net => s.width,
            SymbolKind::Param | SymbolKind::Genvar => None,
        })
    }

    fn declare(&mut self, sym: Symbol, info: SymbolInfo) {
        let slot = &mut self.symbols[sym.index()];
        if slot.is_none() {
            self.symbol_order.push(sym);
            *slot = Some(info);
        }
    }

    fn drive_mut(&mut self, sym: Symbol) -> &mut DriveInfo {
        self.drives[sym.index()].get_or_insert_with(DriveInfo::default)
    }

    fn collect_symbols(&mut self) {
        // Ports first (ANSI ranges fold below, after parameters are known —
        // parameter declarations may appear in the body *after* the header
        // uses them, but defaults are folded in declaration order, which
        // matches the synthesisable subset in practice).
        let module = self.module;
        for port in &module.ports {
            let mut info = SymbolInfo::net(Some(port.direction));
            info.is_reg = port.is_reg;
            self.declare(port.name, info);
        }
        // Walk items in source order, folding parameters as they appear so
        // later ranges can use them.
        fn walk<'m>(model: &mut ModuleModel<'m>, arena: &ExprArena, items: &'m [ModuleItem]) {
            for item in items {
                match item {
                    ModuleItem::Parameter(p) => {
                        if let Some(v) = const_eval(arena, p.value, &model.params) {
                            model.params[p.name.index()] = Some(v);
                        }
                        if let Expr::Number { width: Some(w), .. } = arena[p.value] {
                            model.param_widths[p.name.index()] = Some(w);
                        }
                        model.declare(
                            p.name,
                            SymbolInfo {
                                kind: SymbolKind::Param,
                                direction: None,
                                is_reg: false,
                                is_integer: false,
                                is_array: false,
                                width: None,
                                port_dir_decls: 0,
                                data_decls: 0,
                            },
                        );
                    }
                    ModuleItem::Declaration(decl) => {
                        for net in &decl.nets {
                            model.declare_net(decl.direction, net);
                        }
                    }
                    ModuleItem::Generate(inner) => walk(model, arena, inner),
                    _ => {}
                }
            }
        }
        walk(self, &module.arena, &module.items);
        // Fold ANSI port ranges now that every parameter default is known.
        for port in &module.ports {
            let width = match port.range {
                Some(range) => range_width(&module.arena, &range, &self.params),
                None => Some(1),
            };
            if let Some(info) = self.symbols[port.name.index()].as_mut() {
                if info.width.is_none() {
                    info.width = width;
                }
            }
        }
    }

    fn declare_net(&mut self, direction: Option<PortDirection>, net: &Net) {
        // `integer` is a 32-bit loop/temporary variable in practice; leave
        // its width unknown so arithmetic on loop counters never warns.
        let width = if net.kind == NetKind::Integer {
            None
        } else {
            match net.range {
                Some(range) => range_width(&self.module.arena, &range, &self.params),
                None => Some(1),
            }
        };
        if let Some(existing) = self.symbols[net.name.index()].as_mut() {
            // Merging a non-ANSI port declaration (or the matching data-type
            // declaration) into the port symbol.
            if direction.is_some() {
                existing.port_dir_decls += 1;
            } else {
                existing.data_decls += 1;
            }
            if existing.width.is_none() {
                existing.width = width;
            }
            if matches!(net.kind, NetKind::Reg | NetKind::Integer) {
                existing.is_reg = true;
            }
            if net.kind == NetKind::Integer {
                existing.is_integer = true;
            }
            if net.array.is_some() {
                existing.is_array = true;
            }
            return;
        }
        let kind = if net.kind == NetKind::Genvar {
            SymbolKind::Genvar
        } else {
            SymbolKind::Net
        };
        self.declare(
            net.name,
            SymbolInfo {
                kind,
                direction,
                is_reg: matches!(net.kind, NetKind::Reg | NetKind::Integer),
                is_integer: net.kind == NetKind::Integer,
                is_array: net.array.is_some(),
                width,
                port_dir_decls: usize::from(direction.is_some()),
                data_decls: usize::from(direction.is_none()),
            },
        );
    }

    fn collect_items(&mut self, siblings: &'a [Module]) {
        fn walk<'m>(model: &mut ModuleModel<'m>, items: &'m [ModuleItem], siblings: &'m [Module]) {
            for item in items {
                match item {
                    ModuleItem::ContinuousAssign { target, value } => {
                        model
                            .continuous_assigns
                            .push((AssignTarget::Expr(*target), *value));
                    }
                    ModuleItem::Declaration(decl) => {
                        for net in &decl.nets {
                            if let Some(init) = net.init {
                                model
                                    .continuous_assigns
                                    .push((AssignTarget::Net(net.name), init));
                            }
                        }
                    }
                    ModuleItem::Always(block) => model.always_blocks.push(block),
                    ModuleItem::Initial(body) => model.initial_blocks.push(body),
                    ModuleItem::Instance(inst) => {
                        // Siblings may come from a different parse, so the
                        // match is by resolved text, not symbol id.
                        let inst_module = model.resolve(inst.module);
                        let target = siblings
                            .iter()
                            .find(|m| m.name == inst_module && m.name != model.module.name);
                        let resolved = resolve_instance(model.module, &model.params, inst, target);
                        model.instances.push(resolved);
                    }
                    ModuleItem::Generate(inner) => walk(model, inner, siblings),
                    _ => {}
                }
            }
        }
        let module = self.module;
        walk(self, &module.items, siblings);
    }

    fn collect_drives_and_reads(&mut self) {
        // Continuous assignments.
        let assigns = self.continuous_assigns.clone();
        for (target, value) in assigns {
            self.record_assign_target(target, DriveSite::Continuous);
            self.record_reads(value, true);
        }
        // Always blocks.
        let blocks = self.always_blocks.clone();
        for (index, block) in blocks.iter().enumerate() {
            for &(_, signal) in &block.sensitivity.entries {
                self.reads[signal.index()] = true;
                self.strict_refs.push(signal);
            }
            self.collect_statement(&block.body, DriveSite::Always(index));
        }
        // Initial blocks.
        let initials = self.initial_blocks.clone();
        for body in initials {
            self.collect_statement(body, DriveSite::Initial);
        }
        // Instance connections.
        let instances: Vec<InstanceModel<'a>> = self.instances.clone();
        for inst in &instances {
            match inst.target {
                Some(_) => {
                    for conn in &inst.connections {
                        let Some(expr) = conn.expr else { continue };
                        match conn.direction {
                            PortDirection::Input => self.record_reads(expr, true),
                            PortDirection::Output | PortDirection::Inout => {
                                self.record_lvalue(expr, DriveSite::InstanceOutput);
                                // Selector expressions inside the target
                                // still read.
                                self.record_selector_reads(expr);
                            }
                        }
                    }
                    for &(_, value) in &inst.instance.parameter_overrides {
                        self.record_reads(value, true);
                    }
                }
                None => {
                    // Unknown direction: every connected ident both reads
                    // and may be driven externally.
                    let exprs: Vec<ExprId> = inst
                        .instance
                        .named_connections
                        .iter()
                        .filter_map(|(_, e)| *e)
                        .chain(inst.instance.ordered_connections.iter().copied())
                        .collect();
                    for expr in exprs {
                        self.record_reads(expr, true);
                        for ident in self.module.arena.referenced_idents(expr) {
                            self.drive_mut(ident).maybe_external = true;
                        }
                    }
                    for &(_, value) in &inst.instance.parameter_overrides {
                        self.record_reads(value, true);
                    }
                }
            }
        }
    }

    fn collect_statement(&mut self, statement: &'a Statement, site: DriveSite) {
        match statement {
            Statement::Block(stmts) => {
                for s in stmts {
                    self.collect_statement(s, site);
                }
            }
            Statement::Blocking { target, value } | Statement::NonBlocking { target, value } => {
                self.record_lvalue(*target, site);
                self.record_selector_reads(*target);
                self.record_reads(*value, true);
            }
            Statement::If {
                condition,
                then_branch,
                else_branch,
            } => {
                self.record_reads(*condition, true);
                self.collect_statement(then_branch, site);
                if let Some(e) = else_branch {
                    self.collect_statement(e, site);
                }
            }
            Statement::Case { subject, arms, .. } => {
                self.record_reads(*subject, true);
                for arm in arms {
                    for &label in &arm.labels {
                        self.record_reads(label, true);
                    }
                    self.collect_statement(&arm.body, site);
                }
            }
            Statement::For {
                init,
                condition,
                step,
                body,
            } => {
                self.collect_statement(init, site);
                self.record_reads(*condition, true);
                self.collect_statement(step, site);
                self.collect_statement(body, site);
            }
            Statement::SystemCall { args, .. } => {
                // Arguments are reads but not strict references: system
                // tasks legitimately name modules and hierarchical paths
                // (`$dumpvars(0, tb)`).
                for &arg in args {
                    self.record_reads(arg, false);
                }
            }
            Statement::Empty => {}
        }
    }

    fn record_reads(&mut self, expr: ExprId, strict: bool) {
        let module = self.module;
        let mut idents = Vec::new();
        module.arena.collect_idents(expr, &mut idents);
        for ident in idents {
            self.reads[ident.index()] = true;
            if strict {
                self.strict_refs.push(ident);
            }
        }
    }

    /// Records the reads hidden inside an assignment target: index and
    /// part-select bound expressions.
    fn record_selector_reads(&mut self, target: ExprId) {
        let mut idents = Vec::new();
        self.module
            .arena
            .collect_selector_reads(target, &mut idents);
        for ident in idents {
            self.reads[ident.index()] = true;
            self.strict_refs.push(ident);
        }
    }

    fn record_assign_target(&mut self, target: AssignTarget, site: DriveSite) {
        match target {
            AssignTarget::Expr(id) => self.record_lvalue(id, site),
            AssignTarget::Net(sym) => self.record_lvalue_symbols(&[(sym, true)], site),
        }
    }

    fn record_lvalue(&mut self, target: ExprId, site: DriveSite) {
        let targets = lvalue_targets(&self.module.arena, target);
        self.record_lvalue_symbols(&targets, site);
    }

    fn record_lvalue_symbols(&mut self, targets: &[(Symbol, bool)], site: DriveSite) {
        for &(sym, whole) in targets {
            // The target name itself must resolve locally.
            self.strict_refs.push(sym);
            let drive = self.drive_mut(sym);
            match site {
                DriveSite::Continuous | DriveSite::InstanceOutput => {
                    if whole {
                        drive.continuous_whole += 1;
                    } else {
                        drive.continuous_partial += 1;
                    }
                }
                DriveSite::Always(index) => {
                    drive.always_blocks.insert(index);
                }
                DriveSite::Initial => drive.initial = true,
            }
        }
    }
}

/// Where a drive was seen.
#[derive(Debug, Clone, Copy)]
enum DriveSite {
    Continuous,
    InstanceOutput,
    Always(usize),
    Initial,
}

/// Decomposes an assignment target into `(base symbol, is whole-net)` pairs.
pub(crate) fn lvalue_targets(arena: &ExprArena, target: ExprId) -> Vec<(Symbol, bool)> {
    let mut out = Vec::new();
    fn walk(arena: &ExprArena, expr: ExprId, whole: bool, out: &mut Vec<(Symbol, bool)>) {
        match arena[expr] {
            Expr::Ident(sym) => out.push((sym, whole)),
            Expr::Index { base, .. } | Expr::Slice { base, .. } => walk(arena, base, false, out),
            Expr::Concat(ref parts) => {
                for &p in parts {
                    walk(arena, p, whole, out);
                }
            }
            _ => {}
        }
    }
    walk(arena, target, true, &mut out);
    out
}

/// Constant-folds an expression under a dense symbol-indexed parameter
/// environment. Returns `None` for anything that is not a compile-time
/// constant.
pub(crate) fn const_eval(arena: &ExprArena, expr: ExprId, params: &[Option<u64>]) -> Option<u64> {
    use crate::ast::{BinaryOp, UnaryOp};
    match arena[expr] {
        Expr::Number { value, .. } | Expr::Pattern { value, .. } => Some(value),
        Expr::Ident(sym) => params.get(sym.index()).copied().flatten(),
        Expr::Unary { op, operand } => {
            let v = const_eval(arena, operand, params)?;
            match op {
                UnaryOp::Plus => Some(v),
                UnaryOp::Not => Some(u64::from(v == 0)),
                // Negation/bit-complement produce huge two's-complement
                // values that are meaningless as widths; refuse to fold.
                _ => None,
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let a = const_eval(arena, lhs, params)?;
            let b = const_eval(arena, rhs, params)?;
            match op {
                BinaryOp::Add => a.checked_add(b),
                BinaryOp::Sub => a.checked_sub(b),
                BinaryOp::Mul => a.checked_mul(b),
                BinaryOp::Div => a.checked_div(b),
                BinaryOp::Mod => a.checked_rem(b),
                BinaryOp::Pow => a.checked_pow(u32::try_from(b).ok()?),
                BinaryOp::Shl | BinaryOp::AShl => a.checked_shl(u32::try_from(b).ok()?),
                BinaryOp::Shr | BinaryOp::AShr => a.checked_shr(u32::try_from(b).ok()?),
                BinaryOp::And => Some(a & b),
                BinaryOp::Or => Some(a | b),
                BinaryOp::Xor => Some(a ^ b),
                BinaryOp::Eq => Some(u64::from(a == b)),
                BinaryOp::Neq => Some(u64::from(a != b)),
                BinaryOp::Lt => Some(u64::from(a < b)),
                BinaryOp::Le => Some(u64::from(a <= b)),
                BinaryOp::Gt => Some(u64::from(a > b)),
                BinaryOp::Ge => Some(u64::from(a >= b)),
                _ => None,
            }
        }
        Expr::Ternary {
            condition,
            then_expr,
            else_expr,
        } => {
            let c = const_eval(arena, condition, params)?;
            if c != 0 {
                const_eval(arena, then_expr, params)
            } else {
                const_eval(arena, else_expr, params)
            }
        }
        _ => None,
    }
}

/// Folds a packed range into its width in bits (`None` when a bound is not
/// constant or the width does not fit a `u32`).
pub(crate) fn range_width(arena: &ExprArena, range: &Range, params: &[Option<u64>]) -> Option<u32> {
    let msb = const_eval(arena, range.msb, params)?;
    let lsb = const_eval(arena, range.lsb, params)?;
    u32::try_from(msb.abs_diff(lsb).checked_add(1)?).ok()
}

/// Resolves one instance against a possible target module: classifies each
/// connection by the child port's direction and folds the child port widths
/// under the instance's parameter overrides. Override expressions live in
/// the parent's arena and fold under the parent's parameters; child default
/// expressions live in the child's arena and fold under the child's. Names
/// cross the module boundary as resolved text.
fn resolve_instance<'a>(
    parent: &Module,
    parent_params: &[Option<u64>],
    inst: &'a crate::ast::Instance,
    target: Option<&'a Module>,
) -> InstanceModel<'a> {
    let Some(target_module) = target else {
        return InstanceModel {
            instance: inst,
            target: None,
            connections: Vec::new(),
            missing_inputs: Vec::new(),
        };
    };
    // Child parameter environment: defaults, then overrides folded in the
    // parent's environment.
    let mut child_params: Vec<Option<u64>> = vec![None; target_module.symbols.len()];
    let mut positional = inst.parameter_overrides.iter().filter(|(n, _)| n.is_none());
    for item in &target_module.items {
        if let ModuleItem::Parameter(p) = item {
            if p.local {
                if let Some(v) = const_eval(&target_module.arena, p.value, &child_params) {
                    child_params[p.name.index()] = Some(v);
                }
                continue;
            }
            let child_param_name = target_module.resolve(p.name);
            let named = inst
                .parameter_overrides
                .iter()
                .find(|(n, _)| n.is_some_and(|sym| parent.resolve(sym) == child_param_name))
                .map(|&(_, v)| v);
            let by_position = if named.is_none() {
                positional.next().map(|&(_, v)| v)
            } else {
                None
            };
            let value = match (named, by_position) {
                (Some(v), _) | (None, Some(v)) => const_eval(&parent.arena, v, parent_params),
                (None, None) => const_eval(&target_module.arena, p.value, &child_params),
            };
            if let Some(v) = value {
                child_params[p.name.index()] = Some(v);
            }
        }
    }
    let port_width = |name: &str| -> Option<u32> {
        let port = target_module.port(name)?;
        match port.range {
            Some(range) => range_width(&target_module.arena, &range, &child_params),
            None => Some(1),
        }
    };
    let mut connections = Vec::new();
    let mut connected: BTreeMap<Name, bool> = BTreeMap::new();
    if !inst.named_connections.is_empty() || inst.ordered_connections.is_empty() {
        for &(port_sym, expr) in &inst.named_connections {
            let port_name = parent.resolve(port_sym);
            if let Some(port) = target_module.port(port_name) {
                let direction = port.direction;
                connections.push(ResolvedConnection {
                    port_name: parent.name_of(port_sym),
                    direction,
                    port_width: port_width(port_name),
                    expr,
                });
                connected.insert(parent.name_of(port_sym), expr.is_some());
            }
        }
    } else {
        for (port, &expr) in target_module.ports.iter().zip(&inst.ordered_connections) {
            let port_name = target_module.name_of(port.name);
            connections.push(ResolvedConnection {
                port_name: port_name.clone(),
                direction: port.direction,
                port_width: port_width(&port_name),
                expr: Some(expr),
            });
            connected.insert(port_name, true);
        }
    }
    let missing_inputs = target_module
        .ports
        .iter()
        .filter(|p| p.direction == PortDirection::Input)
        .filter(|p| !matches!(connected.get(target_module.resolve(p.name)), Some(true)))
        .map(|p| target_module.name_of(p.name))
        .collect();
    InstanceModel {
        instance: inst,
        target: Some(target_module),
        connections,
        missing_inputs,
    }
}
