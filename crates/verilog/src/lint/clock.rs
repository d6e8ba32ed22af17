//! Pass 6 — clock/reset-domain inference and clock-domain-crossing (CDC)
//! analysis.
//!
//! Every edge-triggered `always` block is classified into a *domain*: the
//! clock symbol and edge that advance it, plus any asynchronous resets
//! (edge-listed signals whose polarity is tested by the block's leading
//! `if` chain). The inference is purely structural — it never looks at
//! names, so `rst`, `rst_n` and `arst` are all recognised by shape alone.
//!
//! Four rules are derived from the per-block domains:
//!
//! - [`RuleId::MixedClockEdge`] — one clock symbol drives blocks on both
//!   `posedge` and `negedge`.
//! - [`RuleId::AsyncResetPolarity`] — a reset's sensitivity edge
//!   contradicts the polarity its reset branch tests (a `negedge` reset
//!   whose branch runs when the signal is *high* can never fire), or the
//!   same reset is edge-listed with different edges across blocks.
//! - [`RuleId::MixedResetStyle`] — a signal used as an async reset in one
//!   block gates the leading `if` of another block synchronously.
//! - [`RuleId::UnsynchronizedCdc`] — a signal registered only in domain A
//!   is sampled by a block in domain B without a two-flop synchronizer
//!   chain (`meta <= sig; sync <= meta;` clocked by B).

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{EdgeKind, Expr, ExprId, Statement};
use crate::intern::Symbol;

use super::model::{lvalue_targets, SymbolKind};
use super::width::walk_statements;
use super::{diag, LintDiagnostic, ModuleModel, RuleId};

/// The polarity a reset branch tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Polarity {
    /// Branch taken when the signal is 1 (`if (rst)`, `if (rst == 1)`).
    ActiveHigh,
    /// Branch taken when the signal is 0 (`if (!rst)`, `if (rst == 0)`).
    ActiveLow,
}

/// The inferred shape of one edge-triggered `always` block.
struct BlockDomain {
    /// Index into [`ModuleModel::always_blocks`].
    index: usize,
    /// The clock: the single edge entry left after reset extraction.
    clock: Option<(Symbol, EdgeKind)>,
    /// Async resets: `(signal, sensitivity edge, tested polarity)`.
    async_resets: Vec<(Symbol, EdgeKind, Polarity)>,
    /// A declared net tested by the leading `if` but absent from the
    /// sensitivity list — the synchronous-reset idiom.
    sync_reset: Option<Symbol>,
}

pub(crate) fn check(model: &ModuleModel<'_>, out: &mut Vec<LintDiagnostic>) {
    let domains: Vec<BlockDomain> = model
        .always_blocks
        .iter()
        .enumerate()
        .filter(|(_, b)| b.sensitivity.is_edge_triggered())
        .map(|(index, block)| infer_domain(model, index, block))
        .collect();

    check_mixed_clock_edge(model, &domains, out);
    check_reset_polarity(model, &domains, out);
    check_mixed_reset_style(model, &domains, out);
    check_cdc(model, &domains, out);
}

/// Classifies one edge-triggered block into clock + resets.
fn infer_domain(
    model: &ModuleModel<'_>,
    index: usize,
    block: &crate::ast::AlwaysBlock,
) -> BlockDomain {
    let mut edges: Vec<(EdgeKind, Symbol)> = block
        .sensitivity
        .entries
        .iter()
        .filter(|(edge, _)| !matches!(edge, EdgeKind::Level))
        .copied()
        .collect();

    // With more than one edge entry, peel async resets off the leading
    // `if`/`else if` chain: each condition that tests the polarity of an
    // edge-listed signal claims that signal as a reset.
    let mut async_resets = Vec::new();
    if edges.len() > 1 {
        let mut stmt = unwrap_blocks(&block.body);
        while let Statement::If {
            condition,
            else_branch,
            ..
        } = stmt
        {
            let Some((sym, polarity)) = polarity_test(model, *condition) else {
                break;
            };
            let Some(pos) = edges.iter().position(|&(_, s)| s == sym) else {
                break;
            };
            let (edge, _) = edges.remove(pos);
            async_resets.push((sym, edge, polarity));
            match else_branch {
                Some(e) => stmt = unwrap_blocks(e),
                None => break,
            }
        }
    }

    let clock = (edges.len() == 1).then(|| {
        let (edge, sym) = edges[0];
        (sym, edge)
    });

    // The synchronous-reset idiom: a single-edge block whose leading `if`
    // tests a declared net that is not in the sensitivity list.
    let sync_reset = if block.sensitivity.entries.len() == 1 && async_resets.is_empty() {
        match unwrap_blocks(&block.body) {
            Statement::If { condition, .. } => polarity_test(model, *condition)
                .map(|(sym, _)| sym)
                .filter(|&sym| {
                    !block.sensitivity.entries.iter().any(|&(_, s)| s == sym)
                        && model
                            .symbol(sym)
                            .is_some_and(|info| info.kind == SymbolKind::Net)
                }),
            _ => None,
        }
    } else {
        None
    };

    BlockDomain {
        index,
        clock,
        async_resets,
        sync_reset,
    }
}

/// Strips single-statement `begin`/`end` nesting.
fn unwrap_blocks(stmt: &Statement) -> &Statement {
    let mut current = stmt;
    while let Statement::Block(stmts) = current {
        if stmts.len() != 1 {
            break;
        }
        current = &stmts[0];
    }
    current
}

/// Recognises the reset-condition shapes `r`, `!r`, `~r`, `r == 0/1` and
/// `r != 0/1`, returning the tested signal and the polarity under which
/// the branch is taken.
fn polarity_test(model: &ModuleModel<'_>, condition: ExprId) -> Option<(Symbol, Polarity)> {
    use crate::ast::{BinaryOp, UnaryOp};
    let arena = model.arena();
    match arena[condition] {
        Expr::Ident(sym) => Some((sym, Polarity::ActiveHigh)),
        Expr::Unary {
            op: UnaryOp::Not | UnaryOp::BitNot,
            operand,
        } => match arena[operand] {
            Expr::Ident(sym) => Some((sym, Polarity::ActiveLow)),
            _ => None,
        },
        Expr::Binary {
            op: op @ (BinaryOp::Eq | BinaryOp::Neq),
            lhs,
            rhs,
        } => {
            let (sym, value) = match (&arena[lhs], &arena[rhs]) {
                (&Expr::Ident(sym), &Expr::Number { value, .. }) => (sym, value),
                (&Expr::Number { value, .. }, &Expr::Ident(sym)) => (sym, value),
                _ => return None,
            };
            let truthy = (value != 0) == matches!(op, BinaryOp::Eq);
            Some((
                sym,
                if truthy {
                    Polarity::ActiveHigh
                } else {
                    Polarity::ActiveLow
                },
            ))
        }
        _ => None,
    }
}

fn check_mixed_clock_edge(
    model: &ModuleModel<'_>,
    domains: &[BlockDomain],
    out: &mut Vec<LintDiagnostic>,
) {
    let mut edges_by_clock: BTreeMap<usize, BTreeSet<EdgeKind>> = BTreeMap::new();
    let mut symbols: BTreeMap<usize, Symbol> = BTreeMap::new();
    for d in domains {
        if let Some((sym, edge)) = d.clock {
            edges_by_clock.entry(sym.index()).or_default().insert(edge);
            symbols.insert(sym.index(), sym);
        }
    }
    for (key, edges) in &edges_by_clock {
        if edges.contains(&EdgeKind::Posedge) && edges.contains(&EdgeKind::Negedge) {
            let name = model.resolve(symbols[key]);
            out.push(diag(
                RuleId::MixedClockEdge,
                format!("net '{name}'"),
                format!("'{name}' clocks some always blocks on posedge and others on negedge"),
            ));
        }
    }
}

fn check_reset_polarity(
    model: &ModuleModel<'_>,
    domains: &[BlockDomain],
    out: &mut Vec<LintDiagnostic>,
) {
    // Within a block: the sensitivity edge must agree with the tested
    // polarity — a posedge-listed reset branch must run on 1, a
    // negedge-listed one on 0. Otherwise the async branch can never be
    // entered by the event that wakes the block.
    for d in domains {
        for &(sym, edge, polarity) in &d.async_resets {
            let contradicts = matches!(
                (edge, polarity),
                (EdgeKind::Posedge, Polarity::ActiveLow)
                    | (EdgeKind::Negedge, Polarity::ActiveHigh)
            );
            if contradicts {
                let name = model.resolve(sym);
                let (edge_name, level) = match edge {
                    EdgeKind::Posedge => ("posedge", "low"),
                    _ => ("negedge", "high"),
                };
                out.push(diag(
                    RuleId::AsyncResetPolarity,
                    format!("always #{}, net '{name}'", d.index),
                    format!(
                        "'{name}' is listed as {edge_name} but its reset branch \
                         runs when it is {level}"
                    ),
                ));
            }
        }
    }
    // Across blocks: the same reset edge-listed with different edges.
    let mut edges_by_reset: BTreeMap<usize, BTreeSet<EdgeKind>> = BTreeMap::new();
    let mut symbols: BTreeMap<usize, Symbol> = BTreeMap::new();
    for d in domains {
        for &(sym, edge, _) in &d.async_resets {
            edges_by_reset.entry(sym.index()).or_default().insert(edge);
            symbols.insert(sym.index(), sym);
        }
    }
    for (key, edges) in &edges_by_reset {
        if edges.contains(&EdgeKind::Posedge) && edges.contains(&EdgeKind::Negedge) {
            let name = model.resolve(symbols[key]);
            out.push(diag(
                RuleId::AsyncResetPolarity,
                format!("net '{name}'"),
                format!("'{name}' is an async reset on posedge in one always block and negedge in another"),
            ));
        }
    }
}

fn check_mixed_reset_style(
    model: &ModuleModel<'_>,
    domains: &[BlockDomain],
    out: &mut Vec<LintDiagnostic>,
) {
    let mut async_resets: BTreeMap<usize, Symbol> = BTreeMap::new();
    let mut sync_resets: BTreeSet<usize> = BTreeSet::new();
    for d in domains {
        for &(sym, _, _) in &d.async_resets {
            async_resets.insert(sym.index(), sym);
        }
        if let Some(sym) = d.sync_reset {
            sync_resets.insert(sym.index());
        }
    }
    for (key, &sym) in &async_resets {
        if sync_resets.contains(key) {
            let name = model.resolve(sym);
            out.push(diag(
                RuleId::MixedResetStyle,
                format!("net '{name}'"),
                format!(
                    "'{name}' is an asynchronous reset in one always block and a \
                     synchronous reset in another"
                ),
            ));
        }
    }
}

fn check_cdc(model: &ModuleModel<'_>, domains: &[BlockDomain], out: &mut Vec<LintDiagnostic>) {
    let arena = model.arena();

    // Which clock symbols register each signal (non-blocking or blocking
    // targets of a clocked block).
    let mut registered_in: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    // Direct register copies `dst <= src` per clock domain — the raw
    // material of synchronizer chains.
    let mut copies: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    for d in domains {
        let Some((clock, _)) = d.clock else { continue };
        let block = model.always_blocks[d.index];
        walk_statements(&block.body, &mut |s| {
            if let Statement::Blocking { target, value }
            | Statement::NonBlocking { target, value } = s
            {
                for (sym, _) in lvalue_targets(arena, *target) {
                    registered_in
                        .entry(sym.index())
                        .or_default()
                        .insert(clock.index());
                }
                if let (Expr::Ident(dst), Expr::Ident(src)) = (&arena[*target], &arena[*value]) {
                    copies
                        .entry(clock.index())
                        .or_default()
                        .push((dst.index(), src.index()));
                }
            }
        });
    }

    for d in domains {
        let Some((clock, _)) = d.clock else { continue };
        // Everything the block reads, minus its own clock and resets.
        let mut reads: BTreeSet<Symbol> = BTreeSet::new();
        let block = model.always_blocks[d.index];
        walk_statements(&block.body, &mut |s| {
            collect_statement_reads(arena, s, &mut reads);
        });
        reads.remove(&clock);
        for &(sym, _, _) in &d.async_resets {
            reads.remove(&sym);
        }

        let mut offenders: Vec<(&str, &str)> = Vec::new();
        for &sym in &reads {
            let Some(sources) = registered_in.get(&sym.index()) else {
                continue; // Inputs and combinational nets: no home domain.
            };
            if sources.contains(&clock.index()) {
                continue; // Registered in this block's own domain.
            }
            if has_sync_chain(copies.get(&clock.index()), sym.index()) {
                continue; // A two-flop synchronizer exists in this domain.
            }
            let Some(&source) = sources.iter().next() else {
                continue;
            };
            // Resolve the source clock's name for the message.
            let source_name = domains
                .iter()
                .filter_map(|o| o.clock)
                .find(|(c, _)| c.index() == source)
                .map(|(c, _)| model.resolve(c))
                .unwrap_or("?");
            offenders.push((model.resolve(sym), source_name));
        }
        offenders.sort_unstable();
        for (name, source_clock) in offenders {
            out.push(diag(
                RuleId::UnsynchronizedCdc,
                format!("always #{}, net '{name}'", d.index),
                format!(
                    "'{name}' is registered in the '{source_clock}' clock domain but \
                     sampled in the '{}' domain without a 2-FF synchronizer",
                    model.resolve(clock)
                ),
            ));
        }
    }
}

/// Whether `copies` (register copies of one domain) contains a chain
/// `first <= sym; second <= first;` — the canonical 2-FF synchronizer.
fn has_sync_chain(copies: Option<&Vec<(usize, usize)>>, sym: usize) -> bool {
    let Some(copies) = copies else { return false };
    copies
        .iter()
        .filter(|&&(_, src)| src == sym)
        .any(|&(first, _)| copies.iter().any(|&(_, src)| src == first))
}

/// Collects the symbols a single statement *reads*: right-hand sides,
/// conditions, case subjects and labels, and the index parts of assignment
/// targets. Child statements are not visited — the caller walks the tree.
fn collect_statement_reads(
    arena: &crate::ast::ExprArena,
    statement: &Statement,
    out: &mut BTreeSet<Symbol>,
) {
    let mut sink = Vec::new();
    match statement {
        Statement::Blocking { target, value } | Statement::NonBlocking { target, value } => {
            arena.collect_idents(*value, &mut sink);
            // Bit/part-select indices of the target are reads too; the
            // selected net itself is a write, not a read.
            arena.collect_selector_reads(*target, &mut sink);
        }
        Statement::If { condition, .. } => arena.collect_idents(*condition, &mut sink),
        Statement::Case { subject, arms, .. } => {
            arena.collect_idents(*subject, &mut sink);
            for arm in arms {
                for &label in &arm.labels {
                    arena.collect_idents(label, &mut sink);
                }
            }
        }
        Statement::For { condition, .. } => arena.collect_idents(*condition, &mut sink),
        Statement::SystemCall { args, .. } => {
            for &a in args {
                arena.collect_idents(a, &mut sink);
            }
        }
        Statement::Block(_) | Statement::Empty => {}
    }
    out.extend(sink);
}

#[cfg(test)]
mod tests {
    use crate::lint::{Linter, RuleId};

    fn rules(source: &str) -> Vec<RuleId> {
        Linter::new()
            .lint_source(source)
            .expect("parse")
            .into_iter()
            .map(|d| d.rule)
            .collect()
    }

    #[test]
    fn crossing_without_synchronizer_is_flagged() {
        let src = "module m(input clk_a, input clk_b, input d, output reg q);\n\
                   reg meta;\n\
                   always @(posedge clk_a) meta <= d;\n\
                   always @(posedge clk_b) q <= meta;\n\
                   endmodule\n";
        assert!(rules(src).contains(&RuleId::UnsynchronizedCdc));
    }

    #[test]
    fn two_flop_synchronizer_is_clean() {
        let src = "module m(input clk_a, input clk_b, input d, output reg q);\n\
                   reg src_ff;\n\
                   reg meta;\n\
                   reg sync;\n\
                   always @(posedge clk_a) src_ff <= d;\n\
                   always @(posedge clk_b) begin\n\
                   \tmeta <= src_ff;\n\
                   \tsync <= meta;\n\
                   \tq <= sync;\n\
                   end\n\
                   endmodule\n";
        assert!(!rules(src).contains(&RuleId::UnsynchronizedCdc));
    }

    #[test]
    fn single_domain_module_is_clean() {
        let src = "module m(input clk, input rst, input d, output reg q);\n\
                   always @(posedge clk) begin\n\
                   \tif (rst) q <= 1'b0;\n\
                   \telse q <= d;\n\
                   end\n\
                   endmodule\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn both_edges_of_one_clock_are_flagged() {
        let src = "module m(input clk, input d, output reg q, output reg p);\n\
                   always @(posedge clk) q <= d;\n\
                   always @(negedge clk) p <= d;\n\
                   endmodule\n";
        assert_eq!(rules(src), vec![RuleId::MixedClockEdge]);
    }

    #[test]
    fn async_reset_polarity_contradiction_is_flagged() {
        let src = "module m(input clk, input rst_n, input d, output reg q);\n\
                   always @(posedge clk or negedge rst_n) begin\n\
                   \tif (rst_n) q <= 1'b0;\n\
                   \telse q <= d;\n\
                   end\n\
                   endmodule\n";
        assert_eq!(rules(src), vec![RuleId::AsyncResetPolarity]);
    }

    #[test]
    fn consistent_async_reset_is_clean() {
        let src = "module m(input clk, input rst_n, input d, output reg q);\n\
                   always @(posedge clk or negedge rst_n) begin\n\
                   \tif (!rst_n) q <= 1'b0;\n\
                   \telse q <= d;\n\
                   end\n\
                   endmodule\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn mixed_reset_style_is_flagged() {
        let src = "module m(input clk, input rst, input d, output reg q, output reg p);\n\
                   always @(posedge clk or posedge rst) begin\n\
                   \tif (rst) q <= 1'b0;\n\
                   \telse q <= d;\n\
                   end\n\
                   always @(posedge clk) begin\n\
                   \tif (rst) p <= 1'b0;\n\
                   \telse p <= d;\n\
                   end\n\
                   endmodule\n";
        assert_eq!(rules(src), vec![RuleId::MixedResetStyle]);
    }

    #[test]
    fn sync_reset_everywhere_is_clean() {
        let src = "module m(input clk, input rst, input d, output reg q, output reg p);\n\
                   always @(posedge clk) begin\n\
                   \tif (rst) q <= 1'b0;\n\
                   \telse q <= d;\n\
                   end\n\
                   always @(posedge clk) begin\n\
                   \tif (rst) p <= 1'b0;\n\
                   \telse p <= d;\n\
                   end\n\
                   endmodule\n";
        assert!(rules(src).is_empty());
    }
}
