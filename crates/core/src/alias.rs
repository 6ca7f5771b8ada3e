//! Checkpoint aliases: symbolic phases whose size is linear in rounds.
//!
//! On a long QEC memory every stabilizer row accumulates each fault that
//! ever touched it, so a record read from it carries its whole history,
//! and so does every `X^e` correction that XORs the record back into the
//! tableau: `nnz(M)` grows quadratically in rounds. Before a deterministic
//! collapse reads its rows, Initialization therefore lets the phase store
//! *checkpoint* each row whose symbol part has more than one term: the
//! part is replaced by one fresh alias `a := part`, which is a previous
//! alias plus the faults since. Records then name a few aliases, and the
//! definitions grow linearly in rounds.
//!
//! An alias is a change of representation, not a new random variable: it
//! never enters the [`crate::SymbolTable`], so the assignment matrix and
//! the RNG stream are unchanged. Alias ids start at [`ALIAS_BASE`], above
//! every symbol id, so they form the tail of any sorted id list. A
//! definition names only symbols and aliases created before it, so
//! substituting definitions in decreasing alias order removes every alias.

use std::collections::BinaryHeap;

use symphase_bitmat::SparseBitVec;

use crate::expr::SymExpr;
use crate::symbol::SymbolId;

/// The first alias id. Symbol ids stay below it (Initialization asserts
/// this), so a sorted id list is its symbols followed by its aliases.
pub(crate) const ALIAS_BASE: SymbolId = 1 << 31;

/// Splits a sorted id list into its symbols and its aliases.
fn split(ids: &[SymbolId]) -> (&[SymbolId], &[SymbolId]) {
    ids.split_at(ids.partition_point(|&id| id < ALIAS_BASE))
}

/// The alias definitions made during one Initialization, back to back.
#[derive(Clone, Debug, Default)]
pub(crate) struct Aliases {
    /// Sorted ids of every definition, concatenated.
    ids: Vec<SymbolId>,
    /// `ends[k]`: where alias `k`'s definition ends in `ids`.
    ends: Vec<usize>,
}

impl Aliases {
    /// Defines a fresh alias as the sorted id list `part` and returns its id.
    pub(crate) fn define(&mut self, part: &[SymbolId]) -> SymbolId {
        let id = u32::try_from(self.ends.len())
            .ok()
            .and_then(|k| ALIAS_BASE.checked_add(k))
            .expect("alias ids exhausted");
        self.ids.extend_from_slice(part);
        self.ends.push(self.ids.len());
        id
    }

    /// `true` when no row was checkpointed (always so for the dense store).
    pub(crate) fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total ids across all definitions.
    #[cfg(test)]
    pub(crate) fn nnz(&self) -> usize {
        self.ids.len()
    }

    fn index(alias: SymbolId) -> usize {
        (alias - ALIAS_BASE) as usize
    }

    /// The definition of the alias at index `k`.
    fn definition(&self, k: usize) -> &[SymbolId] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.ids[start..self.ends[k]]
    }

    /// `expr` with every alias substituted: definitions are expanded in
    /// decreasing alias order, so each alias is visited at most once and
    /// pairs cancel before they are expanded.
    pub(crate) fn expand(&self, expr: &SymExpr) -> SymExpr {
        let (symbols, aliases) = split(expr.symbol_ids());
        if aliases.is_empty() {
            return expr.clone();
        }
        let mut symbols = symbols.to_vec();
        let mut pending: BinaryHeap<SymbolId> = aliases.iter().copied().collect();
        while let Some(alias) = pending.pop() {
            let mut odd = true;
            while pending.peek() == Some(&alias) {
                pending.pop();
                odd = !odd;
            }
            if odd {
                let (def_symbols, def_aliases) = split(self.definition(Self::index(alias)));
                symbols.extend_from_slice(def_symbols);
                pending.extend(def_aliases);
            }
        }
        let mut out = SymExpr::from_symbols(symbols);
        out.xor_constant(expr.constant_term());
        out
    }

    /// Hands every record, expanded, to `f` in order. Each alias a record
    /// needs is expanded once, from the expansions its definition names,
    /// and freed after its last use, so only the expansions still ahead
    /// are held at any time.
    pub(crate) fn expand_each(&self, records: &[SymExpr], mut f: impl FnMut(SymExpr)) {
        // Uses of each alias by the records and by the definitions of the
        // aliases they need, counted from the newest alias down.
        let mut uses = vec![0u32; self.ends.len()];
        for record in records {
            for &alias in split(record.symbol_ids()).1 {
                uses[Self::index(alias)] += 1;
            }
        }
        for k in (0..self.ends.len()).rev() {
            if uses[k] > 0 {
                for &alias in split(self.definition(k)).1 {
                    uses[Self::index(alias)] += 1;
                }
            }
        }
        let mut memo = Memo {
            uses,
            expanded: vec![None; self.ends.len()],
            scratch: SparseBitVec::new(),
        };
        let mut next = 0;
        for record in records {
            let (symbols, aliases) = split(record.symbol_ids());
            let Some(&newest) = aliases.last() else {
                f(record.clone());
                continue;
            };
            // Definitions only name older aliases, so expanding in
            // creation order finds every dependency already expanded.
            while next <= Self::index(newest) {
                if memo.uses[next] > 0 {
                    let (def_symbols, def_aliases) = split(self.definition(next));
                    let mut full = SparseBitVec::from_indices(def_symbols.iter().copied());
                    memo.fold(def_aliases, &mut full);
                    memo.expanded[next] = Some(full);
                }
                next += 1;
            }
            let mut full = SparseBitVec::from_indices(symbols.iter().copied());
            memo.fold(aliases, &mut full);
            f(SymExpr::from_parts(record.constant_term(), full));
        }
    }
}

/// The alias expansions [`Aliases::expand_each`] still needs.
struct Memo {
    /// Remaining uses per alias.
    uses: Vec<u32>,
    expanded: Vec<Option<SparseBitVec>>,
    scratch: SparseBitVec,
}

impl Memo {
    /// XORs the expansions of `aliases` into `acc`, freeing each expansion
    /// after its last use.
    fn fold(&mut self, aliases: &[SymbolId], acc: &mut SparseBitVec) {
        for &alias in aliases {
            let k = Aliases::index(alias);
            let full = self.expanded[k].as_ref().expect("expanded before use");
            acc.xor_into(full, &mut self.scratch);
            std::mem::swap(acc, &mut self.scratch);
            self.uses[k] -= 1;
            if self.uses[k] == 0 {
                self.expanded[k] = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(constant: bool, ids: &[SymbolId]) -> SymExpr {
        let mut e = SymExpr::from_symbols(ids.iter().copied());
        e.xor_constant(constant);
        e
    }

    #[test]
    fn substitution_removes_every_alias_and_cancels_pairs() {
        let mut aliases = Aliases::default();
        let a0 = aliases.define(&[1, 2, 3]);
        let a1 = aliases.define(&[4, a0]);
        let a2 = aliases.define(&[2, 5, a0, a1]);
        assert_eq!(
            aliases.expand(&expr(true, &[7, a1])),
            expr(true, &[1, 2, 3, 4, 7])
        );
        // a2 = 2 ⊕ 5 ⊕ a0 ⊕ (4 ⊕ a0) = 2 ⊕ 4 ⊕ 5.
        assert_eq!(aliases.expand(&expr(false, &[a2])), expr(false, &[2, 4, 5]));
        // a1 ⊕ a2 = (4 ⊕ a0) ⊕ (2 ⊕ 4 ⊕ 5) = 1 ⊕ 3 ⊕ 5.
        assert_eq!(
            aliases.expand(&expr(false, &[a1, a2])),
            expr(false, &[1, 3, 5])
        );
        assert_eq!(aliases.expand(&expr(true, &[6])), expr(true, &[6]));
    }

    #[test]
    fn expand_each_agrees_with_substitution() {
        let mut aliases = Aliases::default();
        let a0 = aliases.define(&[1, 2]);
        let a1 = aliases.define(&[3, a0]);
        let unused = aliases.define(&[4, a1]);
        let a3 = aliases.define(&[1, 5, a1]);
        let records = [
            expr(false, &[a0]),
            expr(true, &[9]),
            expr(false, &[2, a1, a3]),
            expr(true, &[a0, a3]),
            expr(false, &[6, a3]),
        ];
        let mut expanded = Vec::new();
        aliases.expand_each(&records, |e| expanded.push(e));
        let substituted: Vec<SymExpr> = records.iter().map(|r| aliases.expand(r)).collect();
        assert_eq!(expanded, substituted);
        assert!(records.iter().all(|r| !r.symbol_ids().contains(&unused)));
    }
}
