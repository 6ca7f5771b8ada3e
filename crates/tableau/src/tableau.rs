//! The destabilizer/stabilizer tableau with column-major X/Z storage.

use symphase_bitmat::{BitVec, WORD_BITS};
use symphase_circuit::Gate;

use crate::pauli::PauliString;
use crate::phases::{mask_words, PhaseStore};

/// Result of collapsing a qubit for a Z-basis measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Collapse {
    /// The outcome is random; the stabilizer at `pivot` has been replaced by
    /// `+Z_a` (outcome fixed to 0) and the caller decides the actual
    /// outcome: a coin flip for concrete simulation, a fresh symbol plus
    /// `X^s` for phase symbolization (paper Init-M).
    Random {
        /// Stabilizer row index (`n ≤ pivot < 2n`) that anticommuted with
        /// `Z_a`.
        pivot: usize,
    },
    /// The outcome is determined by the current generators; call
    /// [`Tableau::accumulate_deterministic`] and read the scratch-row phase.
    Deterministic,
}

/// A-G phase-product table: `G_TABLE[p1][p2]` is the power of `i` produced
/// when multiplying single-qubit Paulis `p1 · p2`, with `p = 2x + z`
/// (`0=I, 2=X, 1=Z, 3=Y`). Values are in `{-1, 0, 1}`.
const G_TABLE: [[i32; 4]; 4] = {
    // index = 2x + z: 0 = I, 1 = Z, 2 = X, 3 = Y
    let mut t = [[0i32; 4]; 4];
    // P1 = X: g = z2 * (2x2 - 1)
    t[2][1] = -1; // X·Z
    t[2][3] = 1; // X·Y
                 // P1 = Y: g = z2 - x2
    t[3][1] = 1; // Y·Z
    t[3][2] = -1; // Y·X
                  // P1 = Z: g = x2 * (1 - 2z2)
    t[1][2] = 1; // Z·X
    t[1][3] = -1; // Z·Y
    t
};

/// The 2n×(2n+1) Aaronson–Gottesman tableau (plus one scratch row), generic
/// over the phase representation.
///
/// * Rows `0..n` hold destabilizer generators, rows `n..2n` stabilizer
///   generators, row `2n` is scratch space for deterministic measurements.
/// * X and Z bits are stored **column-major by qubit**: the bits of qubit
///   `q` across all rows form a contiguous word slice, so Clifford gates are
///   word-parallel (paper Fact 1 turns into `xor_constant_word` calls on the
///   phase store).
///
/// # Example
///
/// ```
/// use symphase_tableau::{ConcretePhases, Tableau};
/// use symphase_circuit::Gate;
///
/// let mut t: Tableau<ConcretePhases> = Tableau::new(2);
/// t.apply_gate(Gate::H, &[0]);
/// t.apply_gate(Gate::Cx, &[0, 1]);
/// assert_eq!(t.stabilizer(0).to_string(), "+XX");
/// assert_eq!(t.stabilizer(1).to_string(), "+ZZ");
/// ```
#[derive(Clone, Debug)]
pub struct Tableau<P: PhaseStore> {
    n: usize,
    rows: usize,
    wpc: usize,
    /// `x[q * wpc + w]`: X bits of qubit `q`, rows packed 64 per word.
    x: Vec<u64>,
    /// `z[q * wpc + w]`: Z bits of qubit `q`.
    z: Vec<u64>,
    phases: P,
}

impl<P: PhaseStore> Tableau<P> {
    /// Creates the tableau of `|0…0⟩`: destabilizers `X_i`, stabilizers
    /// `Z_i`, all phases `+1`.
    pub fn new(n: usize) -> Self {
        let rows = 2 * n + 1;
        let wpc = mask_words(rows);
        let mut t = Self {
            n,
            rows,
            wpc,
            x: vec![0; n * wpc],
            z: vec![0; n * wpc],
            phases: P::with_rows(rows),
        };
        for i in 0..n {
            t.set_x_bit(i, i, true); // destabilizer i = X_i
            t.set_z_bit(n + i, i, true); // stabilizer i = Z_i
        }
        t
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of rows (2n + 1, including the scratch row).
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Words per column.
    pub fn words_per_col(&self) -> usize {
        self.wpc
    }

    /// Index of the scratch row.
    pub fn scratch_row(&self) -> usize {
        2 * self.n
    }

    /// Borrow of the phase store.
    pub fn phases(&self) -> &P {
        &self.phases
    }

    /// Mutable borrow of the phase store (used by the symbolic engine to
    /// attach symbols).
    pub fn phases_mut(&mut self) -> &mut P {
        &mut self.phases
    }

    /// The packed X column of qubit `q` (bit `r` of word `r/64` is row `r`).
    pub fn x_col(&self, q: usize) -> &[u64] {
        &self.x[q * self.wpc..(q + 1) * self.wpc]
    }

    /// The packed Z column of qubit `q`.
    pub fn z_col(&self, q: usize) -> &[u64] {
        &self.z[q * self.wpc..(q + 1) * self.wpc]
    }

    /// Reads the X bit at (`row`, qubit `q`).
    #[inline]
    pub fn x_bit(&self, row: usize, q: usize) -> bool {
        (self.x[q * self.wpc + row / WORD_BITS] >> (row % WORD_BITS)) & 1 == 1
    }

    /// Reads the Z bit at (`row`, qubit `q`).
    #[inline]
    pub fn z_bit(&self, row: usize, q: usize) -> bool {
        (self.z[q * self.wpc + row / WORD_BITS] >> (row % WORD_BITS)) & 1 == 1
    }

    #[inline]
    fn set_x_bit(&mut self, row: usize, q: usize, v: bool) {
        let w = &mut self.x[q * self.wpc + row / WORD_BITS];
        if v {
            *w |= 1 << (row % WORD_BITS);
        } else {
            *w &= !(1 << (row % WORD_BITS));
        }
    }

    #[inline]
    fn set_z_bit(&mut self, row: usize, q: usize, v: bool) {
        let w = &mut self.z[q * self.wpc + row / WORD_BITS];
        if v {
            *w |= 1 << (row % WORD_BITS);
        } else {
            *w &= !(1 << (row % WORD_BITS));
        }
    }

    /// Extracts stabilizer generator `i` (`0 ≤ i < n`) as a [`PauliString`].
    /// The sign reflects the constant phase term only.
    pub fn stabilizer(&self, i: usize) -> PauliString {
        self.row_pauli(self.n + i)
    }

    /// Extracts destabilizer generator `i`.
    pub fn destabilizer(&self, i: usize) -> PauliString {
        self.row_pauli(i)
    }

    /// Extracts an arbitrary row as a [`PauliString`].
    pub fn row_pauli(&self, row: usize) -> PauliString {
        let x = BitVec::from_fn(self.n, |q| self.x_bit(row, q));
        let z = BitVec::from_fn(self.n, |q| self.z_bit(row, q));
        PauliString::from_xz(x, z, self.phases.constant_bit(row))
    }

    // -- gates --------------------------------------------------------

    /// Applies `gate` to broadcast `targets` (pairs for two-qubit gates).
    ///
    /// # Panics
    ///
    /// Panics if targets are out of range or malformed for the gate's arity.
    pub fn apply_gate(&mut self, gate: Gate, targets: &[u32]) {
        match gate.arity() {
            1 => {
                for &q in targets {
                    self.apply_single(gate, q as usize);
                }
            }
            _ => {
                assert!(
                    targets.len().is_multiple_of(2),
                    "two-qubit gate needs pairs"
                );
                for pair in targets.chunks_exact(2) {
                    self.apply_pair(gate, pair[0] as usize, pair[1] as usize);
                }
            }
        }
    }

    fn apply_single(&mut self, gate: Gate, a: usize) {
        assert!(a < self.n, "qubit {a} out of range");
        let wpc = self.wpc;
        let xa = &mut self.x[a * wpc..(a + 1) * wpc];
        let za = &mut self.z[a * wpc..(a + 1) * wpc];
        let phases = &mut self.phases;
        // One shared dispatch table (derived from the reference conjugation
        // semantics) supplies both the F₂ bit action and the sign flips.
        symphase_circuit::apply_action1(gate.xz_action1(), xa, za, |w, m| {
            phases.xor_constant_word(w, m);
        });
    }

    fn apply_pair(&mut self, gate: Gate, a: usize, b: usize) {
        assert!(a < self.n && b < self.n, "qubit out of range");
        assert_ne!(a, b, "two-qubit gate targets must differ");
        let wpc = self.wpc;
        let (xa, xb) = two_slices(&mut self.x, a, b, wpc);
        let (za, zb) = two_slices(&mut self.z, a, b, wpc);
        let phases = &mut self.phases;
        symphase_circuit::apply_action2(gate.xz_action2(), xa, za, xb, zb, |w, m| {
            phases.xor_constant_word(w, m);
        });
    }

    // -- row operations -----------------------------------------------

    /// A-G `rowsum`: replaces generator `h` with the product
    /// `generator(i) · generator(h)`, updating phases through the store.
    pub fn rowsum(&mut self, h: usize, i: usize) {
        debug_assert!(h < self.rows && i < self.rows && h != i);
        let mut g_sum: i32 = 0;
        let (wh, bh) = (h / WORD_BITS, (h % WORD_BITS) as u32);
        let (wi, bi) = (i / WORD_BITS, (i % WORD_BITS) as u32);
        for q in 0..self.n {
            let base = q * self.wpc;
            let x1 = (self.x[base + wi] >> bi) & 1;
            let z1 = (self.z[base + wi] >> bi) & 1;
            let x2 = (self.x[base + wh] >> bh) & 1;
            let z2 = (self.z[base + wh] >> bh) & 1;
            g_sum += G_TABLE[(2 * x1 + z1) as usize][(2 * x2 + z2) as usize];
            self.x[base + wh] ^= x1 << bh;
            self.z[base + wh] ^= z1 << bh;
        }
        // For commuting rows the total phase exponent 2r_h + 2r_i + Σg is 0
        // or 2 mod 4; the constant correction is the Σg ≡ 2 case.
        let extra = (g_sum.rem_euclid(4) & 2) != 0;
        self.phases.add_row_into(i, h, extra);
    }

    /// Copies row `src` onto row `dst` (bits and phase).
    pub fn copy_row(&mut self, src: usize, dst: usize) {
        debug_assert!(src != dst);
        let (ws, bs) = (src / WORD_BITS, (src % WORD_BITS) as u32);
        let (wd, bd) = (dst / WORD_BITS, (dst % WORD_BITS) as u32);
        for q in 0..self.n {
            let base = q * self.wpc;
            let xv = (self.x[base + ws] >> bs) & 1;
            let zv = (self.z[base + ws] >> bs) & 1;
            self.x[base + wd] = (self.x[base + wd] & !(1 << bd)) | (xv << bd);
            self.z[base + wd] = (self.z[base + wd] & !(1 << bd)) | (zv << bd);
        }
        self.phases.copy_row(src, dst);
    }

    /// Zeroes row `row` (bits and phase).
    pub fn clear_row(&mut self, row: usize) {
        let (w, b) = (row / WORD_BITS, (row % WORD_BITS) as u32);
        for q in 0..self.n {
            let base = q * self.wpc;
            self.x[base + w] &= !(1 << b);
            self.z[base + w] &= !(1 << b);
        }
        self.phases.clear_row(row);
    }

    // -- measurement --------------------------------------------------

    /// Collapses qubit `a` for a Z-basis measurement (the phase-independent
    /// part of A-G's measurement; paper Fact 2).
    ///
    /// In the random case the new stabilizer at the pivot is left as `+Z_a`
    /// — the outcome is fixed to 0 and the caller supplies the randomness
    /// (concrete coin, or fresh symbol + `X^s` for Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn collapse_z(&mut self, a: usize) -> Collapse {
        assert!(a < self.n, "qubit {a} out of range");
        let Some(pivot) = self.find_pivot(a) else {
            return Collapse::Deterministic;
        };
        // Multiply every other row that anticommutes with Z_a by the pivot.
        let anticommuting: Vec<usize> = self
            .rows_with_x_bit(a)
            .filter(|&r| r != pivot && r < 2 * self.n)
            .collect();
        for r in anticommuting {
            self.rowsum(r, pivot);
        }
        // The old pivot becomes the destabilizer; the new stabilizer is +Z_a.
        self.copy_row(pivot, pivot - self.n);
        self.clear_row(pivot);
        self.set_z_bit(pivot, a, true);
        Collapse::Random { pivot }
    }

    /// For a deterministic measurement of qubit `a` (after [`Self::collapse_z`]
    /// returned [`Collapse::Deterministic`]): accumulates into the scratch
    /// row the product of stabilizers indicated by the destabilizers that
    /// anticommute with `Z_a`. The outcome is the scratch row's phase.
    pub fn accumulate_deterministic(&mut self, a: usize) {
        assert!(a < self.n, "qubit {a} out of range");
        let scratch = self.scratch_row();
        self.clear_row(scratch);
        for r in self.indicated_stabilizers(a) {
            self.rowsum(scratch, r);
        }
        debug_assert!(
            (0..self.n).all(|q| !self.x_bit(scratch, q)),
            "deterministic scratch row must be Z-type"
        );
    }

    /// The stabilizer rows [`Self::accumulate_deterministic`] multiplies
    /// for a deterministic measurement of qubit `a`: those whose
    /// destabilizer anticommutes with `Z_a`, ascending.
    pub fn indicated_stabilizers(&self, a: usize) -> Vec<usize> {
        self.rows_with_x_bit(a)
            .filter(|&r| r < self.n)
            .map(|r| r + self.n)
            .collect()
    }

    /// First stabilizer row whose X bit at qubit `a` is set.
    fn find_pivot(&self, a: usize) -> Option<usize> {
        self.rows_with_x_bit(a)
            .find(|&r| r >= self.n && r < 2 * self.n)
    }

    /// Iterates rows (ascending) whose X bit at qubit `a` is set, snapshot
    /// at call time.
    fn rows_with_x_bit(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        let col = self.x_col(a).to_vec();
        let rows = self.rows;
        col.into_iter().enumerate().flat_map(move |(w, mut word)| {
            let mut out = Vec::new();
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                word &= word - 1;
                let r = w * WORD_BITS + b;
                if r < rows {
                    out.push(r);
                }
            }
            out
        })
    }
}

/// Splits two distinct same-length column slices out of the backing vector.
fn two_slices(v: &mut [u64], a: usize, b: usize, wpc: usize) -> (&mut [u64], &mut [u64]) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = v.split_at_mut(b * wpc);
        (&mut lo[a * wpc..(a + 1) * wpc], &mut hi[..wpc])
    } else {
        let (lo, hi) = v.split_at_mut(a * wpc);
        let (xb, xa) = (&mut lo[b * wpc..(b + 1) * wpc], &mut hi[..wpc]);
        (xa, xb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::ConcretePhases;
    use symphase_circuit::SmallPauli;

    type T = Tableau<ConcretePhases>;

    #[test]
    fn initial_state_generators() {
        let t = T::new(3);
        assert_eq!(t.stabilizer(0).to_string(), "+ZII");
        assert_eq!(t.stabilizer(2).to_string(), "+IIZ");
        assert_eq!(t.destabilizer(1).to_string(), "+IXI");
    }

    #[test]
    fn bell_state_stabilizers() {
        let mut t = T::new(2);
        t.apply_gate(Gate::H, &[0]);
        t.apply_gate(Gate::Cx, &[0, 1]);
        assert_eq!(t.stabilizer(0).to_string(), "+XX");
        assert_eq!(t.stabilizer(1).to_string(), "+ZZ");
    }

    /// Exhaustively checks every gate's tableau update against the
    /// reference conjugation semantics from `symphase-circuit`.
    #[test]
    fn gate_updates_match_reference_conjugation() {
        // Single-qubit gates: prepare each Pauli as the row of a 1-qubit
        // tableau by direct injection.
        for gate in Gate::ALL {
            if gate.arity() != 1 {
                continue;
            }
            for (x, z, neg) in [
                (false, true, false),
                (true, false, false),
                (true, true, false),
                (false, true, true),
                (true, false, true),
                (true, true, true),
            ] {
                let mut t = T::new(1);
                t.set_x_bit(1, 0, x);
                t.set_z_bit(1, 0, z);
                t.phases.set_constant_bit(1, neg);
                t.apply_gate(gate, &[0]);
                let got = t.stabilizer(0);

                let mut input = SmallPauli::two(x, z, false, false);
                if x && z {
                    input = input.phased(1); // physical Y
                }
                if neg {
                    input = input.negated();
                }
                let expect = gate.conjugate(input);
                let got_x = got.x_bits().get(0);
                let got_z = got.z_bits().get(0);
                assert_eq!(
                    (got_x, got_z, got.sign_is_negative()),
                    (expect.x0, expect.z0, expect.sign_is_negative()),
                    "{gate} on (x={x},z={z},neg={neg})"
                );
            }
        }
        // Two-qubit gates: all 16 Pauli patterns, both signs.
        for gate in [Gate::Cx, Gate::Cy, Gate::Cz, Gate::Swap] {
            for bits in 0..16u8 {
                for neg in [false, true] {
                    let (x0, z0, x1, z1) =
                        (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0);
                    let mut t = T::new(2);
                    t.set_x_bit(2, 0, x0);
                    t.set_z_bit(2, 0, z0);
                    t.set_x_bit(2, 1, x1);
                    t.set_z_bit(2, 1, z1);
                    t.phases.set_constant_bit(2, neg);
                    t.apply_gate(gate, &[0, 1]);
                    let got = t.stabilizer(0);

                    let mut input = SmallPauli::two(x0, z0, x1, z1);
                    if x0 && z0 {
                        input = input.phased(1);
                    }
                    if x1 && z1 {
                        input = input.phased(1);
                    }
                    if neg {
                        input = input.negated();
                    }
                    let expect = gate.conjugate(input);
                    assert_eq!(
                        (
                            got.x_bits().get(0),
                            got.z_bits().get(0),
                            got.x_bits().get(1),
                            got.z_bits().get(1),
                            got.sign_is_negative()
                        ),
                        (
                            expect.x0,
                            expect.z0,
                            expect.x1,
                            expect.z1,
                            expect.sign_is_negative()
                        ),
                        "{gate} on bits={bits:04b} neg={neg}"
                    );
                }
            }
        }
    }

    #[test]
    fn measurement_of_zero_state_is_deterministic_zero() {
        let mut t = T::new(2);
        assert_eq!(t.collapse_z(0), Collapse::Deterministic);
        t.accumulate_deterministic(0);
        assert!(!t.phases().constant_bit(t.scratch_row()));
    }

    #[test]
    fn measurement_after_x_is_deterministic_one() {
        let mut t = T::new(1);
        t.apply_gate(Gate::X, &[0]);
        assert_eq!(t.collapse_z(0), Collapse::Deterministic);
        t.accumulate_deterministic(0);
        assert!(t.phases().constant_bit(t.scratch_row()));
    }

    #[test]
    fn measurement_after_h_is_random_then_repeatable() {
        let mut t = T::new(1);
        t.apply_gate(Gate::H, &[0]);
        let Collapse::Random { pivot } = t.collapse_z(0) else {
            panic!("expected random outcome");
        };
        assert_eq!(pivot, 1);
        // Fix the outcome to 1 and measure again: now deterministic 1.
        t.phases_mut().set_constant_bit(pivot, true);
        assert_eq!(t.collapse_z(0), Collapse::Deterministic);
        t.accumulate_deterministic(0);
        assert!(t.phases().constant_bit(t.scratch_row()));
    }

    #[test]
    fn bell_pair_measurements_correlate() {
        let mut t = T::new(2);
        t.apply_gate(Gate::H, &[0]);
        t.apply_gate(Gate::Cx, &[0, 1]);
        let Collapse::Random { pivot } = t.collapse_z(0) else {
            panic!("Bell measurement must be random");
        };
        t.phases_mut().set_constant_bit(pivot, true); // outcome 1
        assert_eq!(t.collapse_z(1), Collapse::Deterministic);
        t.accumulate_deterministic(1);
        assert!(
            t.phases().constant_bit(t.scratch_row()),
            "outcomes must agree"
        );
    }

    #[test]
    fn ghz_third_qubit_follows_first() {
        let mut t = T::new(3);
        t.apply_gate(Gate::H, &[0]);
        t.apply_gate(Gate::Cx, &[0, 1, 1, 2]);
        let Collapse::Random { pivot } = t.collapse_z(0) else {
            panic!("random expected");
        };
        t.phases_mut().set_constant_bit(pivot, false); // outcome 0
        for q in [1usize, 2] {
            assert_eq!(t.collapse_z(q), Collapse::Deterministic);
            t.accumulate_deterministic(q);
            assert!(!t.phases().constant_bit(t.scratch_row()));
        }
    }

    #[test]
    fn invariants_hold_after_random_circuit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(20);
        let n = 12;
        let mut t = T::new(n);
        for _ in 0..300 {
            match rng.random_range(0..5) {
                0 => t.apply_gate(Gate::H, &[rng.random_range(0..n as u32)]),
                1 => t.apply_gate(Gate::S, &[rng.random_range(0..n as u32)]),
                2 => {
                    let a = rng.random_range(0..n as u32);
                    let mut b = rng.random_range(0..n as u32);
                    if a == b {
                        b = (b + 1) % n as u32;
                    }
                    t.apply_gate(Gate::Cx, &[a, b]);
                }
                3 => t.apply_gate(Gate::SqrtY, &[rng.random_range(0..n as u32)]),
                _ => {
                    let a = rng.random_range(0..n);
                    if let Collapse::Random { pivot } = t.collapse_z(a) {
                        t.phases_mut().set_constant_bit(pivot, rng.random());
                    }
                }
            }
            crate::verify::check_invariants(&t).expect("invariants violated");
        }
    }

    #[test]
    fn swap_moves_generators() {
        let mut t = T::new(2);
        t.apply_gate(Gate::H, &[0]);
        t.apply_gate(Gate::Swap, &[0, 1]);
        assert_eq!(t.stabilizer(0).to_string(), "+IX");
        assert_eq!(t.stabilizer(1).to_string(), "+ZI");
    }
}
