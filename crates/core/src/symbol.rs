//! Bit-symbols and their sampling distributions (paper §3.1).
//!
//! Symbols come from two sources: *coins* introduced by random measurement
//! outcomes (sampled fair), and *fault symbols* introduced by noise channels
//! (sampled with the channel's joint distribution — e.g. `DEPOLARIZE1`
//! introduces a pair `(s_x, s_z)` valued `00, 10, 11, 01` with probabilities
//! `1−p, p/3, p/3, p/3`).

use rand::Rng;

use symphase_bitmat::bernoulli::fill_bernoulli;
use symphase_bitmat::BitMatrix;

/// Identifier of a bit-symbol: its column index in phase vectors.
/// Index 0 is reserved for the constant `s₀ = 1` (paper §3.2.1), so real
/// symbols start at 1.
pub type SymbolId = u32;

/// A group of symbols sampled jointly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SymbolGroup {
    /// A fair coin from a random measurement outcome.
    Coin {
        /// The symbol.
        id: SymbolId,
    },
    /// A single Bernoulli symbol from an `X/Y/Z_ERROR(p)` fault.
    Bernoulli {
        /// The symbol.
        id: SymbolId,
        /// Fault probability.
        p: f64,
    },
    /// `DEPOLARIZE1(p)`: `X^{s_x} Z^{s_z}` with `(s_x, s_z)` jointly
    /// distributed over `{00: 1−p, 10: p/3, 11: p/3, 01: p/3}`.
    Depolarize1 {
        /// Symbol of the X component.
        x_id: SymbolId,
        /// Symbol of the Z component.
        z_id: SymbolId,
        /// Total fault probability.
        p: f64,
    },
    /// `DEPOLARIZE2(p)`: four symbols `(s_{xa}, s_{za}, s_{xb}, s_{zb})`
    /// uniformly over the 15 non-identity two-qubit Paulis with total
    /// probability `p`.
    Depolarize2 {
        /// Symbols in order `x_a, z_a, x_b, z_b`.
        ids: [SymbolId; 4],
        /// Total fault probability.
        p: f64,
    },
    /// `PAULI_CHANNEL_1(px, py, pz)`: `X^{s_x} Z^{s_z}` with
    /// `(1,0)`, `(1,1)`, `(0,1)` having probabilities `px, py, pz`.
    PauliChannel1 {
        /// Symbol of the X component.
        x_id: SymbolId,
        /// Symbol of the Z component.
        z_id: SymbolId,
        /// X probability.
        px: f64,
        /// Y probability.
        py: f64,
        /// Z probability.
        pz: f64,
    },
    /// `PAULI_CHANNEL_2(p₁…p₁₅)`: four symbols `(s_{xa}, s_{za}, s_{xb},
    /// s_{zb})` over the 15 non-identity two-qubit Paulis with the listed
    /// probabilities (Stim argument order, see
    /// [`symphase_circuit::pauli_channel_2_bits`]).
    PauliChannel2 {
        /// Symbols in order `x_a, z_a, x_b, z_b`.
        ids: [SymbolId; 4],
        /// Outcome probabilities, indexed by outcome − 1.
        probs: [f64; 15],
    },
    /// One element of a `CORRELATED_ERROR` / `ELSE_CORRELATED_ERROR`
    /// chain: a single symbol for the whole Pauli product. Elements of
    /// one chain are sampled jointly — an `else_branch` element fires
    /// with probability `p` only when no earlier element of its
    /// (contiguous, allocation-order) chain fired, so at most one symbol
    /// per chain is 1 in any shot.
    Correlated {
        /// The product's symbol.
        id: SymbolId,
        /// Fire probability (conditional for `else_branch` elements).
        p: f64,
        /// `true` for `ELSE_CORRELATED_ERROR` (continues the previous
        /// group's chain).
        else_branch: bool,
    },
}

/// Registry of all symbols introduced during Initialization, with enough
/// information to sample assignment vectors `b` (paper §3.2.3).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SymbolTable {
    groups: Vec<SymbolGroup>,
    next_id: u32,
}

impl SymbolTable {
    /// Creates an empty table (only the constant `s₀` exists).
    pub fn new() -> Self {
        Self {
            groups: Vec::new(),
            next_id: 1,
        }
    }

    /// Number of symbols allocated (excluding the constant `s₀`).
    pub fn num_symbols(&self) -> usize {
        (self.next_id - 1) as usize
    }

    /// Number of columns of an assignment vector (symbols + constant).
    pub fn assignment_len(&self) -> usize {
        self.next_id as usize
    }

    /// The symbol groups in allocation order.
    pub fn groups(&self) -> &[SymbolGroup] {
        &self.groups
    }

    /// Enumerates the fault mechanisms of the noise model in allocation
    /// order: each set of symbols that flips together, with its marginal
    /// probability (an `ELSE_CORRELATED_ERROR` element's conditional
    /// probability times the chance its chain has not fired yet). Coins
    /// are not mechanisms.
    pub(crate) fn for_each_mechanism(&self, mut f: impl FnMut(&[SymbolId], f64)) {
        // Probability that the current correlated chain has not fired yet
        // (chain elements are contiguous in allocation order).
        let mut chain_none = 1.0f64;
        for group in &self.groups {
            match *group {
                SymbolGroup::Coin { .. } => {}
                SymbolGroup::Bernoulli { id, p } => f(&[id], p),
                SymbolGroup::Depolarize1 { x_id, z_id, p } => {
                    f(&[x_id], p / 3.0);
                    f(&[x_id, z_id], p / 3.0);
                    f(&[z_id], p / 3.0);
                }
                SymbolGroup::Depolarize2 { ids, p } => {
                    for k in 1u32..16 {
                        let subset: Vec<SymbolId> = ids
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| k & (1 << j) != 0)
                            .map(|(_, &id)| id)
                            .collect();
                        f(&subset, p / 15.0);
                    }
                }
                SymbolGroup::PauliChannel1 {
                    x_id,
                    z_id,
                    px,
                    py,
                    pz,
                } => {
                    f(&[x_id], px);
                    f(&[x_id, z_id], py);
                    f(&[z_id], pz);
                }
                SymbolGroup::PauliChannel2 { ids, probs } => {
                    for (m, &p) in probs.iter().enumerate() {
                        let bits = symphase_circuit::pauli_channel_2_bits(m + 1);
                        let subset: Vec<SymbolId> = ids
                            .iter()
                            .enumerate()
                            .filter(|&(j, _)| bits[j])
                            .map(|(_, &id)| id)
                            .collect();
                        f(&subset, p);
                    }
                }
                SymbolGroup::Correlated { id, p, else_branch } => {
                    // Marginal probability: conditional `p` scaled by the
                    // chain not having fired yet.
                    let marginal = if else_branch { chain_none * p } else { p };
                    if else_branch {
                        chain_none *= 1.0 - p;
                    } else {
                        chain_none = 1.0 - p;
                    }
                    f(&[id], marginal);
                }
            }
        }
    }

    /// Number of coin symbols (from random measurements).
    pub fn num_coins(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| matches!(g, SymbolGroup::Coin { .. }))
            .count()
    }

    fn alloc(&mut self) -> SymbolId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Allocates a fair-coin symbol for a random measurement outcome.
    pub fn fresh_coin(&mut self) -> SymbolId {
        let id = self.alloc();
        self.groups.push(SymbolGroup::Coin { id });
        id
    }

    /// Allocates a Bernoulli fault symbol.
    pub fn fresh_bernoulli(&mut self, p: f64) -> SymbolId {
        let id = self.alloc();
        self.groups.push(SymbolGroup::Bernoulli { id, p });
        id
    }

    /// Allocates the `(s_x, s_z)` pair of a `DEPOLARIZE1` site.
    pub fn fresh_depolarize1(&mut self, p: f64) -> (SymbolId, SymbolId) {
        let x_id = self.alloc();
        let z_id = self.alloc();
        self.groups.push(SymbolGroup::Depolarize1 { x_id, z_id, p });
        (x_id, z_id)
    }

    /// Allocates the four symbols of a `DEPOLARIZE2` site, in order
    /// `x_a, z_a, x_b, z_b`.
    pub fn fresh_depolarize2(&mut self, p: f64) -> [SymbolId; 4] {
        let ids = [self.alloc(), self.alloc(), self.alloc(), self.alloc()];
        self.groups.push(SymbolGroup::Depolarize2 { ids, p });
        ids
    }

    /// Allocates the `(s_x, s_z)` pair of a `PAULI_CHANNEL_1` site.
    pub fn fresh_pauli_channel1(&mut self, px: f64, py: f64, pz: f64) -> (SymbolId, SymbolId) {
        let x_id = self.alloc();
        let z_id = self.alloc();
        self.groups.push(SymbolGroup::PauliChannel1 {
            x_id,
            z_id,
            px,
            py,
            pz,
        });
        (x_id, z_id)
    }

    /// Allocates the four symbols of a `PAULI_CHANNEL_2` site, in order
    /// `x_a, z_a, x_b, z_b`.
    pub fn fresh_pauli_channel2(&mut self, probs: [f64; 15]) -> [SymbolId; 4] {
        let ids = [self.alloc(), self.alloc(), self.alloc(), self.alloc()];
        self.groups.push(SymbolGroup::PauliChannel2 { ids, probs });
        ids
    }

    /// Allocates the symbol of one correlated-error chain element.
    pub fn fresh_correlated(&mut self, p: f64, else_branch: bool) -> SymbolId {
        let id = self.alloc();
        self.groups
            .push(SymbolGroup::Correlated { id, p, else_branch });
        id
    }

    /// Samples the assignment matrix `B ∈ F₂^{(n_s+1) × shots}`: row 0 is
    /// the constant 1, row `k` the sampled values of symbol `k` across
    /// shots (64 shots per word). This is the noise-model-dependent part of
    /// the paper's Sampling procedure.
    pub fn sample_assignments(&self, shots: usize, rng: &mut impl Rng) -> BitMatrix {
        let mut b = BitMatrix::zeros(self.assignment_len(), shots);
        self.sample_assignments_into(&mut b, rng);
        b
    }

    /// In-place variant of [`SymbolTable::sample_assignments`]: refills a
    /// previously shaped `(assignment_len × shots)` matrix, so shot-batched
    /// sampling reuses one buffer instead of allocating per batch. The RNG
    /// stream consumed is identical to the allocating variant.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != assignment_len()`.
    pub fn sample_assignments_into(&self, b: &mut BitMatrix, rng: &mut impl Rng) {
        assert_eq!(b.rows(), self.assignment_len(), "assignment row mismatch");
        let shots = b.cols();
        b.words_mut().fill(0);
        // Row 0: the constant symbol s₀ = 1.
        {
            let stride = b.stride();
            let tail = symphase_bitmat::word::tail_mask(shots);
            let row0 = &mut b.words_mut()[..stride];
            row0.iter_mut().for_each(|w| *w = !0);
            if let Some(last) = row0.last_mut() {
                *last &= tail;
            }
        }
        let stride = b.stride();
        // Scratch fire-mask reused across all jointly-distributed groups.
        let mut fire = vec![0u64; stride];
        // Per-shot "this correlated chain already fired" mask; rewritten
        // by every chain-starting `Correlated` group.
        let mut chain = vec![0u64; stride];
        for group in &self.groups {
            match *group {
                SymbolGroup::Coin { id } => {
                    let row = row_mut(b, id, stride);
                    fill_bernoulli(row, shots, 0.5, rng);
                }
                SymbolGroup::Bernoulli { id, p } => {
                    let row = row_mut(b, id, stride);
                    fill_bernoulli(row, shots, p, rng);
                }
                SymbolGroup::Depolarize1 { x_id, z_id, p } => {
                    fill_bernoulli(&mut fire, shots, p, rng);
                    scatter_choice(
                        b,
                        stride,
                        &fire,
                        rng,
                        |k| match k {
                            0 => (Some(x_id), None),       // X
                            1 => (Some(x_id), Some(z_id)), // Y
                            _ => (None, Some(z_id)),       // Z
                        },
                        3,
                    );
                }
                SymbolGroup::Depolarize2 { ids, p } => {
                    fill_bernoulli(&mut fire, shots, p, rng);
                    for (w, &fire_word) in fire.iter().enumerate().take(stride) {
                        let mut fired = fire_word;
                        while fired != 0 {
                            let bit = fired.trailing_zeros() as usize;
                            fired &= fired - 1;
                            let k = rng.random_range(1..16u32);
                            for (j, &id) in ids.iter().enumerate() {
                                if k & (1 << j) != 0 {
                                    set_bit(b, id, stride, w, bit);
                                }
                            }
                        }
                    }
                }
                SymbolGroup::PauliChannel1 {
                    x_id,
                    z_id,
                    px,
                    py,
                    pz,
                } => {
                    let total = px + py + pz;
                    fill_bernoulli(&mut fire, shots, total, rng);
                    for (w, &fire_word) in fire.iter().enumerate().take(stride) {
                        let mut fired = fire_word;
                        while fired != 0 {
                            let bit = fired.trailing_zeros() as usize;
                            fired &= fired - 1;
                            let u: f64 = rng.random::<f64>() * total;
                            let (fx, fz) = if u < px {
                                (true, false)
                            } else if u < px + py {
                                (true, true)
                            } else {
                                (false, true)
                            };
                            if fx {
                                set_bit(b, x_id, stride, w, bit);
                            }
                            if fz {
                                set_bit(b, z_id, stride, w, bit);
                            }
                        }
                    }
                }
                SymbolGroup::PauliChannel2 { ids, probs } => {
                    let total: f64 = probs.iter().sum();
                    fill_bernoulli(&mut fire, shots, total.min(1.0), rng);
                    for (w, &fire_word) in fire.iter().enumerate().take(stride) {
                        let mut fired = fire_word;
                        while fired != 0 {
                            let bit = fired.trailing_zeros() as usize;
                            fired &= fired - 1;
                            let u: f64 = rng.random::<f64>() * total;
                            let m = symphase_circuit::pauli_channel_2_select(u, &probs);
                            let bits = symphase_circuit::pauli_channel_2_bits(m);
                            for (j, &id) in ids.iter().enumerate() {
                                if bits[j] {
                                    set_bit(b, id, stride, w, bit);
                                }
                            }
                        }
                    }
                }
                SymbolGroup::Correlated { id, p, else_branch } => {
                    // An independent Bernoulli(p) draw masked by "chain
                    // not fired yet" realizes the conditional probability
                    // exactly; the chain mask accumulates fired shots.
                    fill_bernoulli(&mut fire, shots, p, rng);
                    if else_branch {
                        for (f, c) in fire.iter_mut().zip(chain.iter_mut()) {
                            *f &= !*c;
                            *c |= *f;
                        }
                    } else {
                        chain.copy_from_slice(&fire);
                    }
                    row_mut(b, id, stride).copy_from_slice(&fire);
                }
            }
        }
    }
}

fn row_mut(b: &mut BitMatrix, id: SymbolId, stride: usize) -> &mut [u64] {
    let start = id as usize * stride;
    &mut b.words_mut()[start..start + stride]
}

#[inline]
fn set_bit(b: &mut BitMatrix, id: SymbolId, stride: usize, word: usize, bit: usize) {
    b.words_mut()[id as usize * stride + word] |= 1 << bit;
}

fn scatter_choice(
    b: &mut BitMatrix,
    stride: usize,
    fire: &[u64],
    rng: &mut impl Rng,
    choose: impl Fn(u32) -> (Option<SymbolId>, Option<SymbolId>),
    options: u32,
) {
    for (w, &word) in fire.iter().enumerate() {
        let mut fired = word;
        while fired != 0 {
            let bit = fired.trailing_zeros() as usize;
            fired &= fired - 1;
            let (a, c) = choose(rng.random_range(0..options));
            if let Some(id) = a {
                set_bit(b, id, stride, w, bit);
            }
            if let Some(id) = c {
                set_bit(b, id, stride, w, bit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ids_are_sequential_from_one() {
        let mut t = SymbolTable::new();
        assert_eq!(t.fresh_coin(), 1);
        assert_eq!(t.fresh_bernoulli(0.1), 2);
        assert_eq!(t.fresh_depolarize1(0.1), (3, 4));
        assert_eq!(t.fresh_depolarize2(0.1), [5, 6, 7, 8]);
        assert_eq!(t.num_symbols(), 8);
        assert_eq!(t.assignment_len(), 9);
        assert_eq!(t.num_coins(), 1);
    }

    #[test]
    fn constant_row_is_all_ones() {
        let mut t = SymbolTable::new();
        t.fresh_coin();
        let b = t.sample_assignments(130, &mut StdRng::seed_from_u64(1));
        for shot in 0..130 {
            assert!(b.get(0, shot));
        }
    }

    #[test]
    fn coin_density_is_half() {
        let mut t = SymbolTable::new();
        let id = t.fresh_coin();
        let shots = 100_000;
        let b = t.sample_assignments(shots, &mut StdRng::seed_from_u64(2));
        let ones: usize = (0..shots).filter(|&s| b.get(id as usize, s)).count();
        assert!((ones as f64 - shots as f64 / 2.0).abs() < 6.0 * (shots as f64 / 4.0).sqrt());
    }

    #[test]
    fn depolarize1_joint_distribution() {
        let mut t = SymbolTable::new();
        let p = 0.3;
        let (x, z) = t.fresh_depolarize1(p);
        let shots = 300_000;
        let b = t.sample_assignments(shots, &mut StdRng::seed_from_u64(3));
        let mut counts = [0usize; 4]; // I, X, Z, Y as (x,z) bit pairs
        for s in 0..shots {
            let xi = usize::from(b.get(x as usize, s));
            let zi = usize::from(b.get(z as usize, s));
            counts[xi + 2 * zi] += 1;
        }
        let expect = [
            (1.0 - p) * shots as f64, // I = (0,0)
            p / 3.0 * shots as f64,   // X = (1,0)
            p / 3.0 * shots as f64,   // Z = (0,1)
            p / 3.0 * shots as f64,   // Y = (1,1)
        ];
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect[i]).abs() < 6.0 * expect[i].sqrt() + 20.0,
                "outcome {i}: {c} vs {}",
                expect[i]
            );
        }
    }

    #[test]
    fn depolarize2_never_identity_when_fired() {
        let mut t = SymbolTable::new();
        let ids = t.fresh_depolarize2(1.0); // always fires
        let shots = 10_000;
        let b = t.sample_assignments(shots, &mut StdRng::seed_from_u64(4));
        for s in 0..shots {
            let any = ids.iter().any(|&id| b.get(id as usize, s));
            assert!(any, "fired DEPOLARIZE2 produced identity in shot {s}");
        }
    }

    #[test]
    fn pauli_channel1_marginals() {
        let mut t = SymbolTable::new();
        let (x, z) = t.fresh_pauli_channel1(0.1, 0.05, 0.2);
        let shots = 200_000;
        let b = t.sample_assignments(shots, &mut StdRng::seed_from_u64(5));
        let mut nx = 0usize;
        let mut ny = 0usize;
        let mut nz = 0usize;
        for s in 0..shots {
            match (b.get(x as usize, s), b.get(z as usize, s)) {
                (true, false) => nx += 1,
                (true, true) => ny += 1,
                (false, true) => nz += 1,
                (false, false) => {}
            }
        }
        let tol = |p: f64| 6.0 * (shots as f64 * p * (1.0 - p)).sqrt() + 20.0;
        assert!((nx as f64 - 0.1 * shots as f64).abs() < tol(0.1));
        assert!((ny as f64 - 0.05 * shots as f64).abs() < tol(0.05));
        assert!((nz as f64 - 0.2 * shots as f64).abs() < tol(0.2));
    }

    #[test]
    fn empty_table_has_constant_only() {
        let t = SymbolTable::new();
        let b = t.sample_assignments(64, &mut StdRng::seed_from_u64(6));
        assert_eq!(b.rows(), 1);
    }

    #[test]
    fn pauli_channel2_outcome_distribution() {
        let mut probs = [0.0f64; 15];
        probs[0] = 0.15; // IX → (xb)
        probs[3] = 0.2; // XI → (xa)
        probs[9] = 0.1; // YY → all four
        let mut t = SymbolTable::new();
        let ids = t.fresh_pauli_channel2(probs);
        let shots = 300_000;
        let b = t.sample_assignments(shots, &mut StdRng::seed_from_u64(7));
        let mut counts = std::collections::HashMap::new();
        for s in 0..shots {
            let key: Vec<bool> = ids.iter().map(|&id| b.get(id as usize, s)).collect();
            *counts.entry(key).or_insert(0usize) += 1;
        }
        let tol = |p: f64| 6.0 * (shots as f64 * p * (1.0 - p)).sqrt() + 20.0;
        let expect = [
            (vec![false, false, true, false], 0.15),
            (vec![true, false, false, false], 0.2),
            (vec![true, true, true, true], 0.1),
            (vec![false, false, false, false], 0.55),
        ];
        for (key, p) in expect {
            let c = *counts.get(&key).unwrap_or(&0) as f64;
            assert!(
                (c - p * shots as f64).abs() < tol(p),
                "outcome {key:?}: {c} vs {}",
                p * shots as f64
            );
        }
        // No other outcome ever fires.
        assert_eq!(counts.len(), 4, "unexpected outcomes: {counts:?}");
    }

    #[test]
    fn correlated_chain_fires_at_most_one_element() {
        let mut t = SymbolTable::new();
        let a = t.fresh_correlated(0.4, false);
        let b_id = t.fresh_correlated(0.5, true);
        let c_id = t.fresh_correlated(1.0, true);
        let shots = 200_000;
        let b = t.sample_assignments(shots, &mut StdRng::seed_from_u64(8));
        let mut counts = [0usize; 3];
        for s in 0..shots {
            let fired = [
                b.get(a as usize, s),
                b.get(b_id as usize, s),
                b.get(c_id as usize, s),
            ];
            assert!(
                fired.iter().filter(|&&f| f).count() <= 1,
                "chain fired twice in shot {s}"
            );
            for (i, &f) in fired.iter().enumerate() {
                counts[i] += usize::from(f);
            }
        }
        // The p=1 tail element guarantees exactly one element per shot.
        assert_eq!(counts.iter().sum::<usize>(), shots);
        // Marginals: 0.4, 0.6·0.5 = 0.3, 0.6·0.5·1 = 0.3.
        let tol = 6.0 * (shots as f64 * 0.25).sqrt() + 20.0;
        assert!((counts[0] as f64 - 0.4 * shots as f64).abs() < tol);
        assert!((counts[1] as f64 - 0.3 * shots as f64).abs() < tol);
        assert!((counts[2] as f64 - 0.3 * shots as f64).abs() < tol);
    }

    #[test]
    fn independent_chains_reset_state() {
        // A second E starts a fresh chain: its ELSE conditions on the new
        // chain only.
        let mut t = SymbolTable::new();
        let a = t.fresh_correlated(1.0, false); // always fires
        let b_id = t.fresh_correlated(1.0, false); // new chain, always fires
        let c_id = t.fresh_correlated(1.0, true); // blocked by b, not a
        let shots = 1_000;
        let b = t.sample_assignments(shots, &mut StdRng::seed_from_u64(9));
        for s in 0..shots {
            assert!(b.get(a as usize, s));
            assert!(b.get(b_id as usize, s));
            assert!(!b.get(c_id as usize, s));
        }
    }
}
