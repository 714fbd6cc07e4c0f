//! Block-at-a-time predicate evaluation with SQL three-valued logic.
//!
//! The row path folds `WHERE` conjuncts through [`BoundExpr::eval`],
//! which implements SQL's three-valued logic: a comparison against
//! NULL is *unknown*, `NOT unknown` is unknown, and `unknown OR true`
//! is true. The block path must reproduce those semantics exactly, so
//! a compiled predicate evaluates to a **pair** of bitmaps per block —
//! `is_true` and `is_false` words — rather than a single boolean mask
//! that would fold unknown into false and break under `NOT`/`OR`.
//! A row whose bit is set in neither map is unknown.
//!
//! Kleene connectives over the word pairs:
//!
//! ```text
//! NOT:  t' = f            f' = t
//! AND:  t' = ta & tb      f' = fa | fb
//! OR:   t' = ta | tb      f' = fa & fb
//! ```
//!
//! The final selection for a conjunction of predicates is the AND of
//! their `is_true` words — exactly the rows the row path keeps.
//! All bitmaps follow the storage convention: LSB-ordered, bits at or
//! beyond the block length always zero.

use nlq_storage::{
    bitmap_mask_tail, bitmap_words, ColumnBlock, DataType, Row, Table, Value, F64_EXACT_INT,
};

use crate::ast::BinOp;
use crate::expr::{BoundExpr, BoundSchema};

/// One side of a compiled comparison.
#[derive(Debug, Clone, Copy)]
enum Operand {
    /// A projected block column (by slot).
    Slot(usize),
    /// A numeric constant, pre-widened to `f64`. Compilation refuses
    /// Int constants and columns the widening would round, so the
    /// comparison agrees with the row path's exact Int comparison.
    Num(f64),
    /// A NULL constant: every comparison against it is unknown.
    Null,
}

/// A compiled predicate node, evaluated per block into Kleene
/// (`is_true`, `is_false`) word pairs.
#[derive(Debug)]
enum Node {
    /// `lhs <op> rhs` for a comparison operator.
    Cmp {
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// `col IS [NOT] NULL` — two-valued (never unknown).
    IsNull {
        slot: usize,
        negated: bool,
    },
    Not(Box<Node>),
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
}

/// Reusable per-worker scratch for nested predicate evaluation.
#[derive(Default)]
pub(crate) struct PredScratch {
    pool: Vec<(Vec<u64>, Vec<u64>)>,
}

/// A conjunction of compiled predicates plus the evaluation entry
/// point producing a selection bitmap per block.
pub(crate) struct CompiledPredicates {
    preds: Vec<Node>,
}

impl CompiledPredicates {
    /// Number of compiled conjuncts (for EXPLAIN).
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Evaluates the conjunction over a block, leaving the selection
    /// (`is_true` of the AND) in `sel`: `bitmap_words(block.len())`
    /// words, bits beyond the block length zero.
    pub fn selection(&self, block: &ColumnBlock, sel: &mut Vec<u64>, scratch: &mut PredScratch) {
        let len = block.len();
        let words = bitmap_words(len);
        sel.clear();
        sel.resize(words, !0u64);
        bitmap_mask_tail(sel, len);
        let (mut t, mut f) = scratch.pool.pop().unwrap_or_default();
        for pred in &self.preds {
            pred.eval(block, &mut t, &mut f, scratch);
            for (s, tw) in sel.iter_mut().zip(&t) {
                *s &= tw;
            }
            if sel.iter().all(|&w| w == 0) {
                break;
            }
        }
        scratch.pool.push((t, f));
    }
}

impl Node {
    /// Evaluates this node over a block into (`is_true`, `is_false`).
    fn eval(&self, block: &ColumnBlock, t: &mut Vec<u64>, f: &mut Vec<u64>, sc: &mut PredScratch) {
        let len = block.len();
        let words = bitmap_words(len);
        match self {
            Node::Cmp { op, lhs, rhs } => {
                t.clear();
                t.resize(words, 0);
                f.clear();
                f.resize(words, 0);
                if matches!(lhs, Operand::Null) || matches!(rhs, Operand::Null) {
                    return; // unknown everywhere
                }
                cmp_eval(*op, *lhs, *rhs, block, t, f);
            }
            Node::IsNull { slot, negated } => {
                // IS NULL is two-valued: true or false, never unknown.
                t.clear();
                t.resize(words, 0);
                f.clear();
                f.resize(words, !0u64);
                bitmap_mask_tail(f, len);
                if let Some(validity) = block.column(*slot).validity() {
                    for ((tw, fw), vw) in t.iter_mut().zip(f.iter_mut()).zip(validity) {
                        *tw = *fw & !vw;
                        *fw &= vw;
                    }
                }
                if *negated {
                    std::mem::swap(t, f);
                }
            }
            Node::Not(inner) => {
                inner.eval(block, t, f, sc);
                std::mem::swap(t, f);
            }
            Node::And(a, b) | Node::Or(a, b) => {
                a.eval(block, t, f, sc);
                let (mut tb, mut fb) = sc.pool.pop().unwrap_or_default();
                b.eval(block, &mut tb, &mut fb, sc);
                let and = matches!(self, Node::And(..));
                for ((tw, fw), (tbw, fbw)) in t.iter_mut().zip(f.iter_mut()).zip(tb.iter().zip(&fb))
                {
                    if and {
                        *tw &= tbw;
                        *fw |= fbw;
                    } else {
                        *tw |= tbw;
                        *fw &= fbw;
                    }
                }
                sc.pool.push((tb, fb));
            }
        }
    }
}

/// Per-row comparison matching [`Value::sql_cmp`] on numeric operands:
/// NULL on either side is unknown, and so is a NaN comparison
/// (`partial_cmp` returns `None`, as `sql_cmp` does).
fn cmp_eval(
    op: BinOp,
    lhs: Operand,
    rhs: Operand,
    block: &ColumnBlock,
    t: &mut [u64],
    f: &mut [u64],
) {
    let fetch = |operand: Operand, i: usize| -> Option<f64> {
        match operand {
            Operand::Num(c) => Some(c),
            Operand::Slot(s) => {
                let col = block.column(s);
                (!col.is_null(i)).then(|| col.values[i])
            }
            Operand::Null => None,
        }
    };
    for i in 0..block.len() {
        let (Some(a), Some(b)) = (fetch(lhs, i), fetch(rhs, i)) else {
            continue;
        };
        let Some(ord) = a.partial_cmp(&b) else {
            continue;
        };
        let hit = match op {
            BinOp::Eq => ord == std::cmp::Ordering::Equal,
            BinOp::NotEq => ord != std::cmp::Ordering::Equal,
            BinOp::Lt => ord == std::cmp::Ordering::Less,
            BinOp::LtEq => ord != std::cmp::Ordering::Greater,
            BinOp::Gt => ord == std::cmp::Ordering::Greater,
            BinOp::GtEq => ord != std::cmp::Ordering::Less,
            _ => unreachable!("only comparison operators are compiled"),
        };
        let (word, bit) = (i >> 6, 1u64 << (i & 63));
        if hit {
            t[word] |= bit;
        } else {
            f[word] |= bit;
        }
    }
}

/// Compiles residual `WHERE` conjuncts over `base` into block
/// predicates, or `None` when any conjunct falls outside the
/// compilable subset (numeric comparisons, `IS [NOT] NULL` on numeric
/// base columns, and `NOT`/`AND`/`OR` over those) or reads an Int the
/// block scan's `f64` widening would round (beyond ±2⁵³, in a literal,
/// a joined constant or a column's stored values). Referenced base
/// columns are appended to `cols` as projection slots (deduplicated);
/// when `int_slots` is given it stays index-aligned with `cols`.
/// `suffix` supplies values for joined-table column references (the
/// scalar scoring pattern's single join combination); with `None` such
/// references are uncompilable.
pub(crate) fn compile_residual(
    residual: &[BoundExpr],
    schema: &BoundSchema,
    base: &Table,
    suffix: Option<&Row>,
    cols: &mut Vec<usize>,
    mut int_slots: Option<&mut Vec<bool>>,
) -> Option<CompiledPredicates> {
    let mut preds = Vec::with_capacity(residual.len());
    for pred in residual {
        preds.push(compile_node(
            pred,
            schema,
            base,
            suffix,
            cols,
            &mut int_slots,
        )?);
    }
    Some(CompiledPredicates { preds })
}

/// Allocates (or reuses) the projection slot for a numeric base
/// column whose stored values widen to `f64` exactly.
fn slot_for(
    col: usize,
    schema: &BoundSchema,
    base: &Table,
    cols: &mut Vec<usize>,
    int_slots: &mut Option<&mut Vec<bool>>,
) -> Option<usize> {
    let ty = schema.column_type(col);
    if (ty != DataType::Float && ty != DataType::Int) || !base.int_widening_exact(col) {
        return None;
    }
    if let Some(slot) = cols.iter().position(|&c| c == col) {
        return Some(slot);
    }
    cols.push(col);
    if let Some(ints) = int_slots {
        ints.push(ty == DataType::Int);
    }
    Some(cols.len() - 1)
}

/// Compiles one operand: a numeric base column, a numeric or NULL
/// literal (optionally negated), or a joined-table constant.
fn compile_operand(
    e: &BoundExpr,
    schema: &BoundSchema,
    base: &Table,
    suffix: Option<&Row>,
    cols: &mut Vec<usize>,
    int_slots: &mut Option<&mut Vec<bool>>,
) -> Option<Operand> {
    let from_value = |v: &Value| match v {
        Value::Null => Some(Operand::Null),
        Value::Int(i) if !(-F64_EXACT_INT..=F64_EXACT_INT).contains(i) => None,
        other => other.as_f64().map(Operand::Num),
    };
    let base_width = base.schema().len();
    match e {
        BoundExpr::Literal(v) => from_value(v),
        BoundExpr::Neg(inner) => {
            match compile_operand(inner, schema, base, suffix, cols, int_slots)? {
                Operand::Num(c) => Some(Operand::Num(-c)),
                Operand::Null => Some(Operand::Null),
                Operand::Slot(_) => None,
            }
        }
        BoundExpr::ColumnRef(i) if *i < base_width => {
            slot_for(*i, schema, base, cols, int_slots).map(Operand::Slot)
        }
        BoundExpr::ColumnRef(i) => from_value(suffix?.get(*i - base_width)?),
        _ => None,
    }
}

/// Compiles one predicate node.
fn compile_node(
    e: &BoundExpr,
    schema: &BoundSchema,
    base: &Table,
    suffix: Option<&Row>,
    cols: &mut Vec<usize>,
    int_slots: &mut Option<&mut Vec<bool>>,
) -> Option<Node> {
    match e {
        BoundExpr::Not(inner) => Some(Node::Not(Box::new(compile_node(
            inner, schema, base, suffix, cols, int_slots,
        )?))),
        BoundExpr::IsNull { expr, negated } => match expr.as_ref() {
            BoundExpr::ColumnRef(i) if *i < base.schema().len() => Some(Node::IsNull {
                slot: slot_for(*i, schema, base, cols, int_slots)?,
                negated: *negated,
            }),
            _ => None,
        },
        BoundExpr::Binary { op, lhs, rhs } => match op {
            BinOp::And | BinOp::Or => {
                let a = compile_node(lhs, schema, base, suffix, cols, int_slots)?;
                let b = compile_node(rhs, schema, base, suffix, cols, int_slots)?;
                Some(if matches!(op, BinOp::And) {
                    Node::And(Box::new(a), Box::new(b))
                } else {
                    Node::Or(Box::new(a), Box::new(b))
                })
            }
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                let a = compile_operand(lhs, schema, base, suffix, cols, int_slots)?;
                let b = compile_operand(rhs, schema, base, suffix, cols, int_slots)?;
                Some(Node::Cmp {
                    op: *op,
                    lhs: a,
                    rhs: b,
                })
            }
            _ => None,
        },
        _ => None,
    }
}
