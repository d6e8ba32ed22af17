//! Pass 3 — bit-width inference and mismatch detection.
//!
//! Widths are inferred bottom-up over the arena-allocated [`Expr`] tree
//! with parameter constant-folding; anything that cannot be folded is
//! `None` and never warns. The pass is deliberately truncation-only:
//! implicit zero/sign extension (`assign wide = narrow;`) is idiomatic
//! Verilog, while silently dropping bits (`assign narrow = wide_expr;`) is
//! the defect class worth surfacing. Unsized literals adapt to their
//! context and are skipped — except directly inside concatenations, where
//! their width is genuinely ambiguous.

use crate::ast::{BinaryOp, Expr, ExprArena, ExprId, PortDirection, Range, Statement, UnaryOp};
use crate::intern::Symbol;

use super::model::{const_eval, lvalue_targets, range_width, AssignTarget};
use super::{diag, LintDiagnostic, ModuleModel, RuleId};

pub(crate) fn check(model: &ModuleModel<'_>, out: &mut Vec<LintDiagnostic>) {
    let arena = model.arena();
    // Continuous assignments (including net initialisers).
    for &(target, value) in &model.continuous_assigns {
        check_assignment(model, target, value, "assign", out);
        check_concats(arena, value, "assign", out);
    }
    // Procedural assignments.
    for (index, block) in model.always_blocks.iter().enumerate() {
        let locus = format!("always #{index}");
        walk_statements(&block.body, &mut |s| {
            if let Statement::Blocking { target, value }
            | Statement::NonBlocking { target, value } = s
            {
                check_assignment(model, AssignTarget::Expr(*target), *value, &locus, out);
                check_concats(arena, *value, &locus, out);
            }
        });
    }
    // Port connections of resolved instances.
    for inst in &model.instances {
        if inst.target.is_none() {
            continue;
        }
        let locus = format!("instance '{}'", model.resolve(inst.instance.name));
        for conn in &inst.connections {
            let (Some(expr), Some(port_width)) = (conn.expr, conn.port_width) else {
                continue;
            };
            let Some(conn_width) = infer_width(model, expr) else {
                continue;
            };
            let lossy = match conn.direction {
                PortDirection::Input => conn_width > port_width,
                PortDirection::Output => port_width > conn_width,
                PortDirection::Inout => false,
            };
            if lossy {
                out.push(diag(
                    RuleId::WidthMismatch,
                    locus.clone(),
                    format!(
                        "port '{}' is {port_width} bits but its connection is {conn_width} bits",
                        conn.port_name
                    ),
                ));
            }
        }
    }
}

fn check_assignment(
    model: &ModuleModel<'_>,
    target: AssignTarget,
    value: ExprId,
    locus: &str,
    out: &mut Vec<LintDiagnostic>,
) {
    let lhs_width = match target {
        AssignTarget::Expr(id) => lvalue_width(model, id),
        AssignTarget::Net(sym) => symbol_lvalue_width(model, sym),
    };
    let (Some(lhs), Some(rhs)) = (lhs_width, infer_width(model, value)) else {
        return;
    };
    if rhs > lhs {
        let name = match target {
            AssignTarget::Net(sym) => model.resolve(sym),
            AssignTarget::Expr(id) => lvalue_targets(model.arena(), id)
                .first()
                .map(|&(sym, _)| model.resolve(sym))
                .unwrap_or("?"),
        };
        out.push(diag(
            RuleId::WidthMismatch,
            format!("{locus}, net '{name}'"),
            format!("assignment truncates a {rhs}-bit value into {lhs} bits"),
        ));
    }
}

/// Flags unsized literals appearing directly inside a concatenation, whose
/// width is ambiguous (illegal in strict Verilog, silently 32 bits in most
/// tools).
fn check_concats(arena: &ExprArena, expr: ExprId, locus: &str, out: &mut Vec<LintDiagnostic>) {
    match arena[expr] {
        Expr::Concat(ref parts) => {
            for &part in parts {
                if matches!(
                    arena[part],
                    Expr::Number { width: None, .. } | Expr::Pattern { width: None, .. }
                ) {
                    out.push(diag(
                        RuleId::WidthMismatch,
                        locus.to_string(),
                        "unsized literal inside a concatenation has ambiguous width".to_string(),
                    ));
                }
                check_concats(arena, part, locus, out);
            }
        }
        Expr::Unary { operand, .. } => check_concats(arena, operand, locus, out),
        Expr::Binary { lhs, rhs, .. } => {
            check_concats(arena, lhs, locus, out);
            check_concats(arena, rhs, locus, out);
        }
        Expr::Ternary {
            condition,
            then_expr,
            else_expr,
        } => {
            check_concats(arena, condition, locus, out);
            check_concats(arena, then_expr, locus, out);
            check_concats(arena, else_expr, locus, out);
        }
        Expr::Index { base, index } => {
            check_concats(arena, base, locus, out);
            check_concats(arena, index, locus, out);
        }
        Expr::Slice { base, .. } => check_concats(arena, base, locus, out),
        Expr::Repeat { value, .. } => check_concats(arena, value, locus, out),
        Expr::Call { ref args, .. } => {
            for &a in args {
                check_concats(arena, a, locus, out);
            }
        }
        _ => {}
    }
}

/// Width of a whole-net target (net initialisers, identifiers).
fn symbol_lvalue_width(model: &ModuleModel<'_>, sym: Symbol) -> Option<u32> {
    let info = model.symbol(sym)?;
    if info.is_array {
        return None;
    }
    model.symbol_width(sym)
}

/// Width of an assignment target.
pub(crate) fn lvalue_width(model: &ModuleModel<'_>, target: ExprId) -> Option<u32> {
    let arena = model.arena();
    match arena[target] {
        Expr::Ident(sym) => symbol_lvalue_width(model, sym),
        Expr::Index { base, .. } => match arena[base] {
            Expr::Ident(sym) if model.symbol(sym).is_some_and(|s| s.is_array) => {
                model.symbol_width(sym)
            }
            _ => Some(1),
        },
        Expr::Slice { msb, lsb, .. } => range_width(arena, &Range { msb, lsb }, &model.params),
        Expr::Concat(ref parts) => {
            let mut total = 0u32;
            for &p in parts {
                total = total.checked_add(lvalue_width(model, p)?)?;
            }
            Some(total)
        }
        _ => None,
    }
}

/// Bottom-up width inference; `None` means "unknown", which never warns.
pub(crate) fn infer_width(model: &ModuleModel<'_>, expr: ExprId) -> Option<u32> {
    let arena = model.arena();
    match arena[expr] {
        Expr::Number { width, .. } | Expr::Pattern { width, .. } => width,
        Expr::Ident(sym) => symbol_lvalue_width(model, sym),
        Expr::Unary { op, operand } => match op {
            UnaryOp::Not
            | UnaryOp::ReduceAnd
            | UnaryOp::ReduceOr
            | UnaryOp::ReduceXor
            | UnaryOp::ReduceNand
            | UnaryOp::ReduceNor
            | UnaryOp::ReduceXnor => Some(1),
            UnaryOp::BitNot | UnaryOp::Negate | UnaryOp::Plus => infer_width(model, operand),
        },
        Expr::Binary { op, lhs, rhs } => match op {
            BinaryOp::Eq
            | BinaryOp::Neq
            | BinaryOp::CaseEq
            | BinaryOp::CaseNeq
            | BinaryOp::Lt
            | BinaryOp::Le
            | BinaryOp::Gt
            | BinaryOp::Ge
            | BinaryOp::LogicalAnd
            | BinaryOp::LogicalOr => Some(1),
            BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShl | BinaryOp::AShr => {
                infer_width(model, lhs)
            }
            BinaryOp::Pow => None,
            BinaryOp::Add
            | BinaryOp::Sub
            | BinaryOp::Mul
            | BinaryOp::Div
            | BinaryOp::Mod
            | BinaryOp::And
            | BinaryOp::Or
            | BinaryOp::Xor
            | BinaryOp::Xnor => {
                let a = infer_width(model, lhs)?;
                let b = infer_width(model, rhs)?;
                Some(a.max(b))
            }
        },
        Expr::Ternary {
            then_expr,
            else_expr,
            ..
        } => {
            let a = infer_width(model, then_expr)?;
            let b = infer_width(model, else_expr)?;
            Some(a.max(b))
        }
        Expr::Index { base, .. } => match arena[base] {
            Expr::Ident(sym) if model.symbol(sym).is_some_and(|s| s.is_array) => {
                model.symbol_width(sym)
            }
            _ => Some(1),
        },
        Expr::Slice { msb, lsb, .. } => range_width(arena, &Range { msb, lsb }, &model.params),
        Expr::Concat(ref parts) => {
            let mut total = 0u32;
            for &p in parts {
                total = total.checked_add(infer_width(model, p)?)?;
            }
            Some(total)
        }
        Expr::Repeat { count, value } => {
            let count = u32::try_from(const_eval(arena, count, &model.params)?).ok()?;
            let value = infer_width(model, value)?;
            count.checked_mul(value)
        }
        Expr::Call { .. } | Expr::StringLit(_) => None,
    }
}

/// Depth-first walk over a statement tree.
pub(crate) fn walk_statements<'a>(statement: &'a Statement, f: &mut impl FnMut(&'a Statement)) {
    f(statement);
    match statement {
        Statement::Block(stmts) => {
            for s in stmts {
                walk_statements(s, f);
            }
        }
        Statement::If {
            then_branch,
            else_branch,
            ..
        } => {
            walk_statements(then_branch, f);
            if let Some(e) = else_branch {
                walk_statements(e, f);
            }
        }
        Statement::Case { arms, .. } => {
            for arm in arms {
                walk_statements(&arm.body, f);
            }
        }
        Statement::For {
            init, step, body, ..
        } => {
            walk_statements(init, f);
            walk_statements(step, f);
            walk_statements(body, f);
        }
        _ => {}
    }
}
