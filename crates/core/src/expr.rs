//! Symbolic XOR expressions over bit-symbols.

use std::fmt;

use symphase_bitmat::{BitVec, SparseBitVec};

use crate::symbol::SymbolId;

/// A symbolic expression `c ⊕ s_{j1} ⊕ s_{j2} ⊕ …` over bit-symbols with a
/// constant term — the value of a measurement outcome, detector, or
/// observable under phase symbolization (paper §3.1).
///
/// # Example
///
/// ```
/// use symphase_core::SymExpr;
///
/// let mut e = SymExpr::from_symbols([1, 3]);
/// assert_eq!(e.to_string(), "s1 ⊕ s3");
/// e.xor_constant(true);
/// e.xor_symbol(3);
/// assert_eq!(e.to_string(), "1 ⊕ s1");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SymExpr {
    constant: bool,
    /// Sorted symbol ids (≥ 1).
    symbols: SparseBitVec,
}

impl SymExpr {
    /// The constant-0 expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// The expression equal to a single symbol.
    pub fn symbol(id: SymbolId) -> Self {
        assert!(id >= 1, "symbol ids start at 1 (0 is the constant)");
        Self {
            constant: false,
            symbols: SparseBitVec::singleton(id),
        }
    }

    /// An expression from several symbol ids (duplicates cancel).
    pub fn from_symbols<I: IntoIterator<Item = SymbolId>>(ids: I) -> Self {
        Self {
            constant: false,
            symbols: ids.into_iter().collect(),
        }
    }

    /// The expression `constant ⊕ symbols`.
    pub(crate) fn from_parts(constant: bool, symbols: SparseBitVec) -> Self {
        Self { constant, symbols }
    }

    /// A constant expression.
    pub fn constant(value: bool) -> Self {
        Self {
            constant: value,
            symbols: SparseBitVec::new(),
        }
    }

    /// The constant term.
    pub fn constant_term(&self) -> bool {
        self.constant
    }

    /// The symbol ids present, sorted ascending.
    pub fn symbol_ids(&self) -> &[u32] {
        self.symbols.indices()
    }

    /// `true` if the expression is identically zero.
    pub fn is_zero(&self) -> bool {
        !self.constant && self.symbols.is_zero()
    }

    /// `true` if no symbols appear (the value is a constant).
    pub fn is_constant(&self) -> bool {
        self.symbols.is_zero()
    }

    /// Flips the constant term if `value`.
    pub fn xor_constant(&mut self, value: bool) {
        self.constant ^= value;
    }

    /// Toggles one symbol.
    pub fn xor_symbol(&mut self, id: SymbolId) {
        assert!(id >= 1, "symbol ids start at 1");
        self.symbols.flip(id);
    }

    /// XORs another expression into this one.
    pub fn xor_assign(&mut self, other: &SymExpr) {
        self.constant ^= other.constant;
        self.symbols.xor_assign(&other.symbols);
    }

    /// Writes `self ⊕ other` into `out`, reusing its allocation.
    pub(crate) fn xor_into(&self, other: &SymExpr, out: &mut SymExpr) {
        out.constant = self.constant ^ other.constant;
        self.symbols.xor_into(&other.symbols, &mut out.symbols);
    }

    /// Set entries of the phase-vector row: the symbols plus the constant.
    pub(crate) fn row_weight(&self) -> usize {
        self.symbols.count_ones() + usize::from(self.constant)
    }

    /// Evaluates under a concrete assignment: `assignment` has one bit per
    /// symbol id (index 0 unused/constant — it is ignored; the constant
    /// term comes from the expression itself).
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than the largest symbol id.
    pub fn eval(&self, assignment: &BitVec) -> bool {
        self.constant ^ self.symbols.eval(assignment)
    }

    /// The sparse phase-vector row over `F₂^{n_s+1}` (index 0 = constant) —
    /// the `m` bit-vector of paper §3.2.1.
    pub fn to_sparse_row(&self) -> SparseBitVec {
        // Merging into the constant's singleton allocates the row at its
        // exact size; flipping bit 0 into a clone would regrow it.
        let mut row = if self.constant {
            SparseBitVec::singleton(0)
        } else {
            SparseBitVec::new()
        };
        row.xor_assign(&self.symbols);
        row
    }

    /// Builds an expression from a sparse phase-vector row (index 0 =
    /// constant).
    pub fn from_sparse_row(row: &SparseBitVec) -> Self {
        let mut symbols = row.clone();
        let constant = row.get(0);
        if constant {
            symbols.flip(0);
        }
        Self { constant, symbols }
    }

    /// Number of symbols in the expression.
    pub fn weight(&self) -> usize {
        self.symbols.count_ones()
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        if self.constant {
            write!(f, "1")?;
            first = false;
        }
        for &id in self.symbols.indices() {
            if !first {
                write!(f, " ⊕ ")?;
            }
            write!(f, "s{id}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(SymExpr::zero().to_string(), "0");
        assert_eq!(SymExpr::constant(true).to_string(), "1");
        assert_eq!(SymExpr::symbol(2).to_string(), "s2");
        let mut e = SymExpr::from_symbols([4, 1]);
        e.xor_constant(true);
        assert_eq!(e.to_string(), "1 ⊕ s1 ⊕ s4");
    }

    #[test]
    fn xor_cancels() {
        let mut e = SymExpr::symbol(3);
        e.xor_assign(&SymExpr::symbol(3));
        assert!(e.is_zero());
        let mut e = SymExpr::from_symbols([1, 2]);
        e.xor_assign(&SymExpr::from_symbols([2, 5]));
        assert_eq!(e.symbol_ids(), &[1, 5]);
    }

    #[test]
    fn eval_under_assignment() {
        let mut assign = BitVec::zeros(6);
        assign.set(1, true);
        assign.set(5, true);
        let e = SymExpr::from_symbols([1, 5]);
        assert!(!e.eval(&assign)); // 1 ⊕ 1
        let e = SymExpr::from_symbols([1, 2]);
        assert!(e.eval(&assign)); // 1 ⊕ 0
        let mut e = SymExpr::from_symbols([1, 2]);
        e.xor_constant(true);
        assert!(!e.eval(&assign));
    }

    #[test]
    fn sparse_row_roundtrip() {
        let mut e = SymExpr::from_symbols([2, 7]);
        e.xor_constant(true);
        let row = e.to_sparse_row();
        assert_eq!(row.indices(), &[0, 2, 7]);
        assert_eq!(SymExpr::from_sparse_row(&row), e);
    }

    #[test]
    #[should_panic(expected = "start at 1")]
    fn symbol_zero_rejected() {
        SymExpr::symbol(0);
    }
}
