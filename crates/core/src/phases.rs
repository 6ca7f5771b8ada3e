//! Symbolic phase stores: the tableau columns of paper Eq. (3).
//!
//! Both stores keep the constant term (column `s₀`) as a plain bit-vector so
//! Clifford gates stay word-parallel, and differ in how they hold the
//! symbol coefficients of each row:
//!
//! * [`DensePhases`] — a packed bit-row per tableau row (grown geometrically
//!   as symbols appear): faithful to the paper's bit-matrix picture.
//! * [`SparsePhases`] — a sorted symbol list per row: per-row XOR cost
//!   proportional to the number of symbols actually present, which stays
//!   tiny for QEC-style circuits (the "sparse circuits" case of Table 1).

use symphase_bitmat::{BitVec, SparseBitVec, WORD_BITS};
use symphase_tableau::PhaseStore;

use crate::expr::SymExpr;
use crate::symbol::SymbolId;

/// Extension of [`PhaseStore`] with symbol-coefficient operations (paper
/// Init-P and Init-M).
pub trait SymbolicPhases: PhaseStore {
    /// Makes room for symbol ids up to and including `max_id`.
    fn ensure_symbol_capacity(&mut self, max_id: SymbolId);

    /// Declares rows below `first_tracked` as *untracked*: their symbol
    /// coefficients are never read, so stores may skip maintaining them.
    ///
    /// The engine marks the destabilizer rows (`0..n`) untracked — their
    /// phases are irrelevant to measurement outcomes (Aaronson–Gottesman
    /// §III); this roughly halves Initialization's phase work. Constant
    /// terms are still maintained for every row (they are word-cheap).
    /// Untracked rows must never be used as the *source* of
    /// `add_row_into`/`copy_row`; the tableau's measurement control flow
    /// guarantees this (sources are always stabilizer or scratch rows).
    fn set_symbol_tracking_floor(&mut self, first_tracked: usize);

    /// Flips the coefficient of `sym` in every row selected by `mask`
    /// (rows `64·word_index .. 64·word_index+64`) — the effect of a fault
    /// `P^s` on the rows that anticommute with `P`.
    fn xor_symbol_word(&mut self, sym: SymbolId, word_index: usize, mask: u64);

    /// XORs a whole expression into the phases of every row selected by
    /// `mask` — the effect of a classically-controlled Pauli `P^e`
    /// (paper §6 dynamic circuits).
    fn xor_expr_word(&mut self, expr: &SymExpr, word_index: usize, mask: u64);

    /// Extracts the full symbolic phase of `row`.
    fn row_expr(&self, row: usize) -> SymExpr;

    /// Checkpoints `row` before a deterministic collapse reads it: when
    /// its symbol part has more than one term, the part is handed to
    /// `define`, which returns a fresh alias id, and the row keeps only
    /// that alias (the constant term is untouched). A store may decline
    /// and keep the full part; the outcome expressions then stay
    /// alias-free.
    fn checkpoint_row(&mut self, row: usize, define: &mut dyn FnMut(&[SymbolId]) -> SymbolId);
}

// ---------------------------------------------------------------------------
// Dense store
// ---------------------------------------------------------------------------

/// Dense symbolic phases: per-row packed coefficient words (symbol `k` at
/// bit `k−1`), plus a shared constant-term bit-vector.
#[derive(Clone, Debug)]
pub struct DensePhases {
    constants: BitVec,
    rows: usize,
    /// Words per row of the symbol block.
    stride: usize,
    /// `sym[row * stride ..][..stride]`.
    sym: Vec<u64>,
    /// Rows below this index skip symbol maintenance.
    first_tracked: usize,
}

impl DensePhases {
    fn grow_stride(&mut self, needed_words: usize) {
        let new_stride = needed_words.max(self.stride * 2).max(1);
        let mut new_sym = vec![0u64; self.rows * new_stride];
        for r in 0..self.rows {
            new_sym[r * new_stride..r * new_stride + self.stride]
                .copy_from_slice(&self.sym[r * self.stride..(r + 1) * self.stride]);
        }
        self.sym = new_sym;
        self.stride = new_stride;
    }

    fn row_words(&self, row: usize) -> &[u64] {
        &self.sym[row * self.stride..(row + 1) * self.stride]
    }
}

impl PhaseStore for DensePhases {
    fn with_rows(rows: usize) -> Self {
        Self {
            constants: BitVec::zeros(rows),
            rows,
            stride: 0,
            sym: Vec::new(),
            first_tracked: 0,
        }
    }

    fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    fn xor_constant_word(&mut self, word_index: usize, mask: u64) {
        self.constants.words_mut()[word_index] ^= mask;
    }

    fn add_row_into(&mut self, src: usize, dst: usize, extra_constant: bool) {
        let c = self.constants.get(dst) ^ self.constants.get(src) ^ extra_constant;
        self.constants.set(dst, c);
        if self.stride == 0 || dst < self.first_tracked {
            return;
        }
        debug_assert!(src >= self.first_tracked, "untracked row used as source");
        let stride = self.stride;
        let (s_off, d_off) = (src * stride, dst * stride);
        if s_off < d_off {
            let (lo, hi) = self.sym.split_at_mut(d_off);
            for i in 0..stride {
                hi[i] ^= lo[s_off + i];
            }
        } else {
            let (lo, hi) = self.sym.split_at_mut(s_off);
            for i in 0..stride {
                lo[d_off + i] ^= hi[i];
            }
        }
    }

    fn copy_row(&mut self, src: usize, dst: usize) {
        let c = self.constants.get(src);
        self.constants.set(dst, c);
        if self.stride == 0 || dst < self.first_tracked {
            return;
        }
        let stride = self.stride;
        let (s_off, d_off) = (src * stride, dst * stride);
        if s_off < d_off {
            let (lo, hi) = self.sym.split_at_mut(d_off);
            hi[..stride].copy_from_slice(&lo[s_off..s_off + stride]);
        } else {
            let (lo, hi) = self.sym.split_at_mut(s_off);
            lo[d_off..d_off + stride].copy_from_slice(&hi[..stride]);
        }
    }

    fn clear_row(&mut self, row: usize) {
        self.constants.set(row, false);
        let stride = self.stride;
        self.sym[row * stride..(row + 1) * stride]
            .iter_mut()
            .for_each(|w| *w = 0);
    }

    fn constant_bit(&self, row: usize) -> bool {
        self.constants.get(row)
    }

    fn set_constant_bit(&mut self, row: usize, value: bool) {
        self.constants.set(row, value);
    }
}

impl SymbolicPhases for DensePhases {
    fn ensure_symbol_capacity(&mut self, max_id: SymbolId) {
        let needed_words = (max_id as usize).div_ceil(WORD_BITS);
        if needed_words > self.stride {
            self.grow_stride(needed_words);
        }
    }

    fn set_symbol_tracking_floor(&mut self, first_tracked: usize) {
        self.first_tracked = first_tracked;
    }

    fn xor_symbol_word(&mut self, sym: SymbolId, word_index: usize, mask: u64) {
        debug_assert!(sym >= 1);
        let bit = (sym - 1) as usize;
        let (sw, sb) = (bit / WORD_BITS, bit % WORD_BITS);
        let mut m = tracked_mask(mask, word_index, self.first_tracked);
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            let row = word_index * WORD_BITS + b;
            self.sym[row * self.stride + sw] ^= 1 << sb;
        }
    }

    fn xor_expr_word(&mut self, expr: &SymExpr, word_index: usize, mask: u64) {
        if expr.constant_term() {
            self.constants.words_mut()[word_index] ^= mask;
        }
        let mut m = tracked_mask(mask, word_index, self.first_tracked);
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            let row = word_index * WORD_BITS + b;
            for &id in expr.symbol_ids() {
                let bit = (id - 1) as usize;
                self.sym[row * self.stride + bit / WORD_BITS] ^= 1 << (bit % WORD_BITS);
            }
        }
    }

    fn row_expr(&self, row: usize) -> SymExpr {
        let mut e = SymExpr::constant(self.constants.get(row));
        for (w, &word) in self.row_words(row).iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                e.xor_symbol((w * WORD_BITS + b + 1) as u32);
            }
        }
        e
    }

    /// Declines: a packed row has no room for alias ids, and full rows
    /// keep the dense store the oracle the sparse store is checked
    /// against.
    fn checkpoint_row(&mut self, _row: usize, _define: &mut dyn FnMut(&[SymbolId]) -> SymbolId) {}
}

// ---------------------------------------------------------------------------
// Sparse store
// ---------------------------------------------------------------------------

/// Sparse symbolic phases: a sorted symbol-id list per row.
#[derive(Clone, Debug)]
pub struct SparsePhases {
    constants: BitVec,
    rows: Vec<SparseBitVec>,
    /// Rows below this index skip symbol maintenance.
    first_tracked: usize,
    /// Merge target of every row XOR: swapped with the row it updates,
    /// so rows and scratch trade buffers instead of allocating.
    scratch: SparseBitVec,
}

/// `row ^= other`, merged into `scratch`, which then swaps with `row`.
fn xor_row(row: &mut SparseBitVec, other: &SparseBitVec, scratch: &mut SparseBitVec) {
    row.xor_into(other, scratch);
    std::mem::swap(row, scratch);
}

impl PhaseStore for SparsePhases {
    fn with_rows(rows: usize) -> Self {
        Self {
            constants: BitVec::zeros(rows),
            rows: vec![SparseBitVec::new(); rows],
            first_tracked: 0,
            scratch: SparseBitVec::new(),
        }
    }

    fn rows(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    fn xor_constant_word(&mut self, word_index: usize, mask: u64) {
        self.constants.words_mut()[word_index] ^= mask;
    }

    fn add_row_into(&mut self, src: usize, dst: usize, extra_constant: bool) {
        let c = self.constants.get(dst) ^ self.constants.get(src) ^ extra_constant;
        self.constants.set(dst, c);
        if dst < self.first_tracked {
            return;
        }
        debug_assert!(src >= self.first_tracked, "untracked row used as source");
        debug_assert_ne!(src, dst);
        let (a, b) = (src.min(dst), src.max(dst));
        let (lo, hi) = self.rows.split_at_mut(b);
        if src < dst {
            xor_row(&mut hi[0], &lo[a], &mut self.scratch);
        } else {
            xor_row(&mut lo[a], &hi[0], &mut self.scratch);
        }
    }

    fn copy_row(&mut self, src: usize, dst: usize) {
        let c = self.constants.get(src);
        self.constants.set(dst, c);
        if dst < self.first_tracked {
            return;
        }
        let row = self.rows[src].clone();
        self.rows[dst] = row;
    }

    fn clear_row(&mut self, row: usize) {
        self.constants.set(row, false);
        self.rows[row].clear();
    }

    fn constant_bit(&self, row: usize) -> bool {
        self.constants.get(row)
    }

    fn set_constant_bit(&mut self, row: usize, value: bool) {
        self.constants.set(row, value);
    }
}

impl SymbolicPhases for SparsePhases {
    fn ensure_symbol_capacity(&mut self, _max_id: SymbolId) {}

    fn set_symbol_tracking_floor(&mut self, first_tracked: usize) {
        self.first_tracked = first_tracked;
    }

    fn xor_symbol_word(&mut self, sym: SymbolId, word_index: usize, mask: u64) {
        debug_assert!(sym >= 1);
        let mut m = tracked_mask(mask, word_index, self.first_tracked);
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            self.rows[word_index * WORD_BITS + b].flip(sym);
        }
    }

    fn xor_expr_word(&mut self, expr: &SymExpr, word_index: usize, mask: u64) {
        if expr.constant_term() {
            self.constants.words_mut()[word_index] ^= mask;
        }
        let sym_part = SparseBitVec::from_indices(expr.symbol_ids().iter().copied());
        let mut m = tracked_mask(mask, word_index, self.first_tracked);
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            let row = &mut self.rows[word_index * WORD_BITS + b];
            xor_row(row, &sym_part, &mut self.scratch);
        }
    }

    fn row_expr(&self, row: usize) -> SymExpr {
        let mut e = SymExpr::from_symbols(self.rows[row].indices().iter().copied());
        e.xor_constant(self.constants.get(row));
        e
    }

    fn checkpoint_row(&mut self, row: usize, define: &mut dyn FnMut(&[SymbolId]) -> SymbolId) {
        let part = &mut self.rows[row];
        if part.count_ones() > 1 {
            let alias = define(part.indices());
            part.clear();
            part.flip(alias);
        }
    }
}

/// Clears the bits of `mask` that select rows below `first_tracked`.
#[inline]
fn tracked_mask(mask: u64, word_index: usize, first_tracked: usize) -> u64 {
    let word_start = word_index * WORD_BITS;
    if word_start >= first_tracked {
        mask
    } else if word_start + WORD_BITS <= first_tracked {
        0
    } else {
        mask & (!0u64 << (first_tracked - word_start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<S: SymbolicPhases + Clone>(mut store: S) {
        store.ensure_symbol_capacity(80);
        // Attach s3 to rows 0 and 65, s80 to row 0.
        store.xor_symbol_word(3, 0, 0b1);
        store.xor_symbol_word(3, 1, 0b10); // row 65
        store.xor_symbol_word(80, 0, 0b1);
        assert_eq!(store.row_expr(0).symbol_ids(), &[3, 80]);
        assert_eq!(store.row_expr(65).symbol_ids(), &[3]);
        assert!(store.row_expr(1).is_zero());

        // Row multiplication mixes symbol parts and constants.
        store.set_constant_bit(65, true);
        store.add_row_into(65, 0, true);
        // row0: {3, 80} ⊕ {3} = {80}; const: 0 ⊕ 1 ⊕ 1 = 0.
        let e = store.row_expr(0);
        assert_eq!(e.symbol_ids(), &[80]);
        assert!(!e.constant_term());

        // Copy and clear.
        store.copy_row(65, 2);
        assert_eq!(store.row_expr(2).symbol_ids(), &[3]);
        assert!(store.row_expr(2).constant_term());
        store.clear_row(2);
        assert!(store.row_expr(2).is_zero());

        // Expression application.
        let mut expr = SymExpr::from_symbols([5, 9]);
        expr.xor_constant(true);
        store.xor_expr_word(&expr, 0, 0b100); // row 2
        let e = store.row_expr(2);
        assert_eq!(e.symbol_ids(), &[5, 9]);
        assert!(e.constant_term());

        // Constant-word flips.
        store.xor_constant_word(0, 0b100);
        assert!(!store.row_expr(2).constant_term());
    }

    #[test]
    fn dense_store_behaviour() {
        exercise(DensePhases::with_rows(130));
    }

    #[test]
    fn sparse_store_behaviour() {
        exercise(SparsePhases::with_rows(130));
    }

    #[test]
    fn sparse_row_merges_trade_buffers_with_the_scratch() {
        let mut s = SparsePhases::with_rows(4);
        for sym in 1..=8 {
            s.xor_symbol_word(sym, 0, 0b11); // rows 0 and 1
        }
        s.xor_symbol_word(9, 0, 0b1);
        let buffers = |s: &SparsePhases| {
            let mut b = [s.rows[1].indices().as_ptr(), s.scratch.indices().as_ptr()];
            b.sort();
            b
        };
        s.add_row_into(0, 1, false);
        let warm = buffers(&s);
        for round in 0..4 {
            s.add_row_into(0, 1, false);
            let want: &[u32] = if round % 2 == 0 {
                &[1, 2, 3, 4, 5, 6, 7, 8]
            } else {
                &[9]
            };
            assert_eq!(s.row_expr(1).symbol_ids(), want);
            assert_eq!(buffers(&s), warm, "round {round} allocated");
        }
    }

    #[test]
    fn sparse_store_checkpoints_and_dense_store_declines() {
        fn checkpoint<S: SymbolicPhases>(mut store: S, defs: &mut Vec<Vec<u32>>) -> S {
            store.ensure_symbol_capacity(2);
            store.xor_symbol_word(1, 0, 0b011);
            store.xor_symbol_word(2, 0, 0b001);
            store.set_constant_bit(0, true);
            let mut define = |part: &[u32]| {
                defs.push(part.to_vec());
                1000 + defs.len() as u32
            };
            store.checkpoint_row(0, &mut define);
            store.checkpoint_row(1, &mut define);
            store
        }
        let mut defs = Vec::new();
        let sparse = checkpoint(SparsePhases::with_rows(3), &mut defs);
        assert_eq!(defs, vec![vec![1, 2]]);
        assert_eq!(sparse.row_expr(0).to_string(), "1 ⊕ s1001");
        assert_eq!(sparse.row_expr(1).to_string(), "s1");
        let dense = checkpoint(DensePhases::with_rows(3), &mut defs);
        assert_eq!(defs.len(), 1);
        assert_eq!(dense.row_expr(0).to_string(), "1 ⊕ s1 ⊕ s2");
    }

    #[test]
    fn dense_growth_preserves_contents() {
        let mut d = DensePhases::with_rows(4);
        d.ensure_symbol_capacity(1);
        d.xor_symbol_word(1, 0, 0b1);
        d.ensure_symbol_capacity(5000);
        d.xor_symbol_word(5000, 0, 0b1);
        assert_eq!(d.row_expr(0).symbol_ids(), &[1, 5000]);
    }

    #[test]
    fn stores_agree_on_random_ops() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let rows = 70;
        let mut dense = DensePhases::with_rows(rows);
        let mut sparse = SparsePhases::with_rows(rows);
        dense.ensure_symbol_capacity(40);
        for _ in 0..400 {
            match rng.random_range(0..5) {
                0 => {
                    let sym = rng.random_range(1..=40u32);
                    let w = rng.random_range(0..2usize);
                    let mask: u64 = rng.random();
                    let mask = if w == 1 {
                        mask & ((1 << (rows - 64)) - 1)
                    } else {
                        mask
                    };
                    dense.xor_symbol_word(sym, w, mask);
                    sparse.xor_symbol_word(sym, w, mask);
                }
                1 => {
                    let src = rng.random_range(0..rows);
                    let mut dst = rng.random_range(0..rows);
                    if dst == src {
                        dst = (dst + 1) % rows;
                    }
                    let extra: bool = rng.random();
                    dense.add_row_into(src, dst, extra);
                    sparse.add_row_into(src, dst, extra);
                }
                2 => {
                    let src = rng.random_range(0..rows);
                    let dst = rng.random_range(0..rows);
                    if src != dst {
                        dense.copy_row(src, dst);
                        sparse.copy_row(src, dst);
                    }
                }
                3 => {
                    let row = rng.random_range(0..rows);
                    dense.clear_row(row);
                    sparse.clear_row(row);
                }
                _ => {
                    let w = rng.random_range(0..2usize);
                    let mask: u64 = rng.random();
                    let mask = if w == 1 {
                        mask & ((1 << (rows - 64)) - 1)
                    } else {
                        mask
                    };
                    dense.xor_constant_word(w, mask);
                    sparse.xor_constant_word(w, mask);
                }
            }
        }
        for r in 0..rows {
            assert_eq!(dense.row_expr(r), sparse.row_expr(r), "row {r} diverged");
        }
    }
}
