//! Evaluating detector and observable annotations over measurement records.
//!
//! A detector is the XOR of a set of measurement outcomes that is
//! deterministic (0) in the absence of faults; an observable accumulates
//! outcomes into a logical readout. Both are linear over F₂, so they apply
//! equally to a single record ([`detector_values`]) and to a batch of shots
//! stored as a measurement-major bit-matrix ([`detector_matrix`]).
//!
//! (Hoisted from `symphase-tableau` into the backend layer so that every
//! engine — including the dense state-vector ground truth, which does not
//! depend on the tableau — derives detectors and observables from the same
//! resolution code.)

use std::collections::HashMap;

use symphase_bitmat::{BitMatrix, BitVec};
use symphase_circuit::{Circuit, Instruction, PauliFactor};

/// Collects `(measurement_indices)` for every detector in order.
///
/// The circuit is streamed in flattened execution order, so detectors
/// inside `REPEAT` bodies resolve their lookbacks per iteration against
/// the running record position (a lookback may reach the previous
/// iteration's measurements).
pub fn detector_measurement_sets(circuit: &Circuit) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut measured = 0usize;
    for inst in circuit.flat_instructions() {
        match inst {
            Instruction::Detector { lookbacks, .. } => {
                out.push(resolve(lookbacks, measured));
            }
            _ => measured += inst.measurements_added(),
        }
    }
    out
}

/// Collects `(measurement_indices)` for every observable `0..num_observables`
/// (streamed like [`detector_measurement_sets`]).
pub fn observable_measurement_sets(circuit: &Circuit) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); circuit.num_observables()];
    let mut measured = 0usize;
    for inst in circuit.flat_instructions() {
        match inst {
            Instruction::ObservableInclude { index, lookbacks } => {
                out[*index as usize].extend(resolve(lookbacks, measured));
            }
            _ => measured += inst.measurements_added(),
        }
    }
    out
}

/// For every measurement record, the previous record that measured the
/// same qubit (single-qubit measurements, any basis) or the same Pauli
/// product (`MPP`, factor order ignored); `None` for a first measurement.
///
/// Streamed like [`detector_measurement_sets`]. A QEC round re-measures
/// each stabilizer, so a record and its predecessor share everything but
/// the faults between them — the pair a detector compares.
pub fn previous_same_target_records(circuit: &Circuit) -> Vec<Option<usize>> {
    #[derive(PartialEq, Eq, Hash)]
    enum Target {
        Qubit(u32),
        Product(Vec<PauliFactor>),
    }
    let mut last = HashMap::new();
    let mut out = Vec::new();
    let mut record = |target: Target, out: &mut Vec<Option<usize>>| {
        let m = out.len();
        out.push(last.insert(target, m));
    };
    for inst in circuit.flat_instructions() {
        match inst {
            Instruction::Measure { targets, .. } | Instruction::MeasureReset { targets, .. } => {
                for &q in targets {
                    record(Target::Qubit(q), &mut out);
                }
            }
            Instruction::MeasurePauliProduct { products } => {
                for product in products {
                    let mut key = product.clone();
                    key.sort_unstable_by_key(|&(_, q)| q);
                    record(Target::Product(key), &mut out);
                }
            }
            _ => {}
        }
    }
    out
}

fn resolve(lookbacks: &[i64], measured: usize) -> Vec<usize> {
    lookbacks
        .iter()
        .map(|&l| {
            let idx = measured as i64 + l;
            assert!(idx >= 0, "lookback validated at circuit construction");
            idx as usize
        })
        .collect()
}

/// Evaluates all detectors of `circuit` on a single measurement record.
///
/// # Panics
///
/// Panics if the record is shorter than the circuit's measurement count.
pub fn detector_values(circuit: &Circuit, record: &BitVec) -> BitVec {
    let sets = detector_measurement_sets(circuit);
    BitVec::from_fn(sets.len(), |d| {
        sets[d].iter().fold(false, |acc, &m| acc ^ record.get(m))
    })
}

/// Evaluates all observables of `circuit` on a single measurement record.
pub fn observable_values(circuit: &Circuit, record: &BitVec) -> BitVec {
    let sets = observable_measurement_sets(circuit);
    BitVec::from_fn(sets.len(), |o| {
        sets[o].iter().fold(false, |acc, &m| acc ^ record.get(m))
    })
}

/// Evaluates all detectors over a batch: `samples` is measurement-major
/// (`num_measurements × num_shots`); the result is `num_detectors ×
/// num_shots`.
///
/// # Panics
///
/// Panics if `samples` has fewer rows than the circuit has measurements.
pub fn detector_matrix(circuit: &Circuit, samples: &BitMatrix) -> BitMatrix {
    xor_rows(&detector_measurement_sets(circuit), samples)
}

/// Evaluates all observables over a batch (see [`detector_matrix`]).
pub fn observable_matrix(circuit: &Circuit, samples: &BitMatrix) -> BitMatrix {
    xor_rows(&observable_measurement_sets(circuit), samples)
}

/// XORs the selected measurement rows of `samples` into one output row per
/// set — shared by the batch evaluators and by [`Sampler`] implementations
/// that derive detectors from sampled measurements.
///
/// [`Sampler`]: crate::Sampler
pub fn xor_rows(sets: &[Vec<usize>], samples: &BitMatrix) -> BitMatrix {
    let mut out = BitMatrix::zeros(sets.len(), samples.cols());
    xor_rows_into(sets, samples, &mut out);
    out
}

/// In-place variant of [`xor_rows`]: accumulates into `out`, which must be
/// `sets.len() × samples.cols()` and zeroed by the caller.
pub fn xor_rows_into(sets: &[Vec<usize>], samples: &BitMatrix, out: &mut BitMatrix) {
    assert_eq!(out.rows(), sets.len(), "output row count mismatch");
    assert_eq!(out.cols(), samples.cols(), "output shot count mismatch");
    for (d, set) in sets.iter().enumerate() {
        for &m in set {
            assert!(m < samples.rows(), "sample matrix too small");
            out.xor_words_into_row(d, samples.row(m));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphase_circuit::Circuit;

    fn annotated() -> Circuit {
        let mut c = Circuit::new(2);
        c.measure(0);
        c.measure(1);
        c.detector(&[-1, -2]);
        c.measure(0);
        c.detector(&[-1]);
        c.observable_include(0, &[-1, -3]);
        c
    }

    #[test]
    fn previous_records_follow_qubits_and_products() {
        use symphase_circuit::PauliKind::{X, Z};
        let mut c = annotated(); // records 0..3: qubits 0, 1, 0
        c.measure_pauli_product(&[(X, 0), (Z, 1)]);
        c.measure_pauli_product(&[(Z, 1), (X, 0)]);
        c.measure_reset(1);
        assert_eq!(
            previous_same_target_records(&c),
            [None, None, Some(0), None, Some(3), Some(1)]
        );
    }

    #[test]
    fn single_record_evaluation() {
        let c = annotated();
        // record: m0=1, m1=0, m2=1
        let record = BitVec::from_bools([true, false, true]);
        let d = detector_values(&c, &record);
        assert_eq!(d.len(), 2);
        assert!(d.get(0)); // m1 ⊕ m0 = 1
        assert!(d.get(1)); // m2 = 1
        let o = observable_values(&c, &record);
        assert!(!o.get(0)); // m2 ⊕ m0 = 0
    }

    #[test]
    fn batch_matches_single() {
        let c = annotated();
        let records = [
            BitVec::from_bools([true, false, true]),
            BitVec::from_bools([false, false, false]),
            BitVec::from_bools([true, true, false]),
        ];
        let mut samples = BitMatrix::zeros(3, records.len());
        for (shot, r) in records.iter().enumerate() {
            for m in 0..3 {
                samples.set(m, shot, r.get(m));
            }
        }
        let d = detector_matrix(&c, &samples);
        let o = observable_matrix(&c, &samples);
        for (shot, r) in records.iter().enumerate() {
            let dv = detector_values(&c, r);
            let ov = observable_values(&c, r);
            for i in 0..dv.len() {
                assert_eq!(d.get(i, shot), dv.get(i));
            }
            for i in 0..ov.len() {
                assert_eq!(o.get(i, shot), ov.get(i));
            }
        }
    }

    #[test]
    fn empty_annotations() {
        let mut c = Circuit::new(1);
        c.measure(0);
        assert_eq!(detector_values(&c, &BitVec::from_bools([true])).len(), 0);
        assert_eq!(observable_values(&c, &BitVec::from_bools([true])).len(), 0);
    }
}
