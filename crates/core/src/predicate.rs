//! Comparison operators: the atoms of every filter predicate.

/// Comparison operator of a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `column < literal`
    Lt,
    /// `column <= literal`
    Le,
    /// `column > literal`
    Gt,
    /// `column >= literal`
    Ge,
    /// `column == literal`
    Eq,
    /// `column != literal`
    Ne,
}

impl CompareOp {
    /// Evaluate the comparison.
    #[inline]
    pub fn eval(&self, value: i64, literal: i64) -> bool {
        match self {
            CompareOp::Lt => value < literal,
            CompareOp::Le => value <= literal,
            CompareOp::Gt => value > literal,
            CompareOp::Ge => value >= literal,
            CompareOp::Eq => value == literal,
            CompareOp::Ne => value != literal,
        }
    }

    /// The comparison that accepts exactly the values this one rejects
    /// (`NOT (a < b)` ⇔ `a >= b`). Used to push `Not` through
    /// comparisons when normalizing predicate expressions.
    pub fn negated(&self) -> CompareOp {
        match self {
            CompareOp::Lt => CompareOp::Ge,
            CompareOp::Le => CompareOp::Gt,
            CompareOp::Gt => CompareOp::Le,
            CompareOp::Ge => CompareOp::Lt,
            CompareOp::Eq => CompareOp::Ne,
            CompareOp::Ne => CompareOp::Eq,
        }
    }

    /// The comparison with its operands exchanged (`a < b` ⇔ `b > a`).
    /// Used to rewrite `literal OP column` into the canonical
    /// `column OP literal` form.
    pub fn swapped(&self) -> CompareOp {
        match self {
            CompareOp::Lt => CompareOp::Gt,
            CompareOp::Le => CompareOp::Ge,
            CompareOp::Gt => CompareOp::Lt,
            CompareOp::Ge => CompareOp::Le,
            CompareOp::Eq => CompareOp::Eq,
            CompareOp::Ne => CompareOp::Ne,
        }
    }

    /// SQL-ish rendering for plan display.
    pub fn symbol(&self) -> &'static str {
        match self {
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
            CompareOp::Eq => "=",
            CompareOp::Ne => "<>",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_operators_evaluate() {
        assert!(CompareOp::Lt.eval(1, 2));
        assert!(!CompareOp::Lt.eval(2, 2));
        assert!(CompareOp::Le.eval(2, 2));
        assert!(CompareOp::Gt.eval(3, 2));
        assert!(CompareOp::Ge.eval(2, 2));
        assert!(CompareOp::Eq.eval(5, 5));
        assert!(CompareOp::Ne.eval(5, 6));
    }

    #[test]
    fn negated_and_swapped_agree_with_eval() {
        let ops = [
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
            CompareOp::Eq,
            CompareOp::Ne,
        ];
        for op in ops {
            for a in -2..=2i64 {
                for b in -2..=2i64 {
                    assert_eq!(op.eval(a, b), !op.negated().eval(a, b), "{op:?} {a} {b}");
                    assert_eq!(op.eval(a, b), op.swapped().eval(b, a), "{op:?} {a} {b}");
                }
            }
            assert_eq!(op.negated().negated(), op);
            assert_eq!(op.swapped().swapped(), op);
        }
    }
}
