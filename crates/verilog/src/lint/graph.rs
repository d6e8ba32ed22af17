//! Pass 4 — net-dependency graph analysis.
//!
//! Builds a dependency graph over the module's combinational logic
//! (continuous assignments plus non-edge-triggered `always` blocks) and
//! runs Tarjan's SCC algorithm over it: any strongly connected component
//! of more than one net — or a net depending on itself — is a
//! combinational loop. Edge-triggered `always` blocks contribute no edges
//! (a flip-flop breaks the cycle), and reads of values assigned earlier in
//! the same block (the blocking-assignment accumulator idiom) are not
//! dependencies.
//!
//! The graph is keyed by [`Symbol`] ids, so building and traversing it
//! never hashes or compares strings; names are resolved (and string-sorted,
//! to keep message text stable) only when a diagnostic is rendered.
//!
//! The same traversal records each level-sensitive block's external read
//! set for incomplete-sensitivity-list detection.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{ExprArena, ExprId, Statement};
use crate::intern::Symbol;

use super::model::{lvalue_targets, AssignTarget, SymbolKind};
use super::{diag, LintDiagnostic, ModuleModel, RuleId};

type Edges = BTreeMap<Symbol, BTreeSet<Symbol>>;

pub(crate) fn check(model: &ModuleModel<'_>, out: &mut Vec<LintDiagnostic>) {
    let arena = model.arena();
    let mut edges: Edges = BTreeMap::new();
    // Continuous assignments: target depends on every RHS read and every
    // selector read of the target itself.
    for &(target, value) in &model.continuous_assigns {
        let mut deps = arena.referenced_idents(value);
        let targets = match target {
            AssignTarget::Expr(id) => {
                arena.collect_selector_reads(id, &mut deps);
                lvalue_targets(arena, id)
            }
            AssignTarget::Net(sym) => vec![(sym, true)],
        };
        for (sym, _) in targets {
            edges.entry(sym).or_default().extend(deps.iter().copied());
        }
    }
    // Combinational always blocks.
    for (index, block) in model.always_blocks.iter().enumerate() {
        if block.sensitivity.is_edge_triggered() {
            continue;
        }
        let mut walker = CombWalker::default();
        walker.walk(arena, &block.body, &mut edges);
        // Incomplete sensitivity only applies to explicit level lists —
        // `@*` is complete by definition.
        if !block.sensitivity.star && !block.sensitivity.entries.is_empty() {
            let listed: BTreeSet<Symbol> =
                block.sensitivity.entries.iter().map(|&(_, s)| s).collect();
            let mut missing: Vec<&str> = walker
                .external_reads
                .iter()
                .filter(|sym| !listed.contains(sym))
                .filter(|&&sym| model.symbol(sym).is_some_and(|s| s.kind == SymbolKind::Net))
                .map(|&sym| model.resolve(sym))
                .collect();
            if !missing.is_empty() {
                // String order, not symbol order, so the message text is
                // independent of interning order.
                missing.sort_unstable();
                out.push(diag(
                    RuleId::IncompleteSensitivity,
                    format!("always #{index}"),
                    format!(
                        "sensitivity list misses signals the block reads: {}",
                        missing.join(", ")
                    ),
                ));
            }
        }
    }
    // Cycles.
    for scc in tarjan(&edges) {
        let is_loop = scc.len() > 1
            || edges
                .get(&scc[0])
                .is_some_and(|deps| deps.contains(&scc[0]));
        if is_loop {
            let mut members: Vec<&str> = scc.iter().map(|&sym| model.resolve(sym)).collect();
            members.sort_unstable();
            out.push(diag(
                RuleId::CombLoop,
                format!("net '{}'", members[0]),
                format!("combinational loop through: {}", members.join(" -> ")),
            ));
        }
    }
}

/// Walks one combinational block, tracking blocking-assigned symbols so
/// that accumulator reads (`count = count + x` after `count = 0`) are not
/// counted as external dependencies.
#[derive(Default)]
struct CombWalker {
    /// Symbols definitely assigned (by blocking assignment) before the
    /// current point.
    assigned: BTreeSet<Symbol>,
    /// Control-context reads (conditions of enclosing if/case/for).
    context: Vec<Vec<Symbol>>,
    /// Every external read the block performs.
    external_reads: BTreeSet<Symbol>,
}

impl CombWalker {
    fn walk(&mut self, arena: &ExprArena, statement: &Statement, edges: &mut Edges) {
        match statement {
            Statement::Block(stmts) => {
                for s in stmts {
                    self.walk(arena, s, edges);
                }
            }
            Statement::Blocking { target, value } | Statement::NonBlocking { target, value } => {
                let mut reads = arena.referenced_idents(*value);
                arena.collect_selector_reads(*target, &mut reads);
                let mut deps: BTreeSet<Symbol> = reads.into_iter().collect();
                for ctx in &self.context {
                    deps.extend(ctx.iter().copied());
                }
                deps.retain(|d| !self.assigned.contains(d));
                self.external_reads.extend(deps.iter().copied());
                for (sym, whole) in lvalue_targets(arena, *target) {
                    edges.entry(sym).or_default().extend(deps.iter().copied());
                    // Only blocking assignments make the value visible to
                    // later reads in the same block.
                    if whole && matches!(statement, Statement::Blocking { .. }) {
                        self.assigned.insert(sym);
                    }
                }
            }
            Statement::If {
                condition,
                then_branch,
                else_branch,
            } => {
                self.push_context(arena, *condition);
                let before = self.assigned.clone();
                self.walk(arena, then_branch, edges);
                let after_then = std::mem::replace(&mut self.assigned, before.clone());
                match else_branch {
                    Some(e) => {
                        self.walk(arena, e, edges);
                        let after_else = std::mem::take(&mut self.assigned);
                        self.assigned = after_then.intersection(&after_else).copied().collect();
                    }
                    None => self.assigned = before,
                }
                self.context.pop();
            }
            Statement::Case { subject, arms, .. } => {
                self.push_context(arena, *subject);
                let before = self.assigned.clone();
                let has_default = arms.iter().any(|a| a.labels.is_empty());
                let mut intersection: Option<BTreeSet<Symbol>> = None;
                for arm in arms {
                    for &label in &arm.labels {
                        let reads: Vec<Symbol> = arena
                            .referenced_idents(label)
                            .into_iter()
                            .filter(|d| !before.contains(d))
                            .collect();
                        self.external_reads.extend(reads);
                    }
                    self.assigned = before.clone();
                    self.walk(arena, &arm.body, edges);
                    let after = std::mem::take(&mut self.assigned);
                    intersection = Some(match intersection {
                        None => after,
                        Some(acc) => acc.intersection(&after).copied().collect(),
                    });
                }
                self.assigned = if has_default {
                    intersection.unwrap_or(before)
                } else {
                    before
                };
                self.context.pop();
            }
            Statement::For {
                init,
                condition,
                step,
                body,
            } => {
                self.walk(arena, init, edges);
                self.push_context(arena, *condition);
                self.walk(arena, body, edges);
                self.walk(arena, step, edges);
                self.context.pop();
            }
            Statement::SystemCall { .. } | Statement::Empty => {}
        }
    }

    fn push_context(&mut self, arena: &ExprArena, condition: ExprId) {
        let reads: Vec<Symbol> = arena.referenced_idents(condition);
        self.external_reads.extend(
            reads
                .iter()
                .filter(|d| !self.assigned.contains(*d))
                .copied(),
        );
        self.context.push(reads);
    }
}

/// Tarjan's strongly-connected-components algorithm over the dependency
/// graph. Deterministic: nodes are visited in symbol order, and component
/// membership is independent of visit order.
fn tarjan(edges: &Edges) -> Vec<Vec<Symbol>> {
    struct State<'e> {
        edges: &'e Edges,
        index: usize,
        indices: BTreeMap<Symbol, usize>,
        lowlinks: BTreeMap<Symbol, usize>,
        on_stack: BTreeSet<Symbol>,
        stack: Vec<Symbol>,
        sccs: Vec<Vec<Symbol>>,
    }

    impl State<'_> {
        fn connect(&mut self, node: Symbol) {
            self.indices.insert(node, self.index);
            self.lowlinks.insert(node, self.index);
            self.index += 1;
            self.stack.push(node);
            self.on_stack.insert(node);
            if let Some(deps) = self.edges.get(&node) {
                for &dep in deps {
                    // Only follow dependencies that are themselves driven
                    // combinationally (graph keys); everything else cannot
                    // be part of a cycle.
                    if !self.edges.contains_key(&dep) {
                        continue;
                    }
                    if !self.indices.contains_key(&dep) {
                        self.connect(dep);
                        let low = self.lowlinks[&dep].min(self.lowlinks[&node]);
                        self.lowlinks.insert(node, low);
                    } else if self.on_stack.contains(&dep) {
                        let low = self.indices[&dep].min(self.lowlinks[&node]);
                        self.lowlinks.insert(node, low);
                    }
                }
            }
            if self.lowlinks[&node] == self.indices[&node] {
                let mut component = Vec::new();
                while let Some(top) = self.stack.pop() {
                    self.on_stack.remove(&top);
                    component.push(top);
                    if top == node {
                        break;
                    }
                }
                self.sccs.push(component);
            }
        }
    }

    let mut state = State {
        edges,
        index: 0,
        indices: BTreeMap::new(),
        lowlinks: BTreeMap::new(),
        on_stack: BTreeSet::new(),
        stack: Vec::new(),
        sccs: Vec::new(),
    };
    for &node in edges.keys() {
        if !state.indices.contains_key(&node) {
            state.connect(node);
        }
    }
    state.sccs
}
