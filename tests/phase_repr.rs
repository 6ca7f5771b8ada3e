//! Properties of the phase-representation choice (paper Eq. (3)).
//!
//! `PhaseRepr::Auto` may pick either store per circuit, but the pick must
//! be a pure function of the circuit, and the pick must never matter for
//! correctness: the sparse and dense stores are two layouts of the same
//! symbolic Initialization, so they must produce identical measurement
//! expressions on any circuit. The sparse store also checkpoints rows into
//! aliases that the dense store never makes, so the agreement is checked
//! on expanded records, derived rows and the symbol table alike.

use proptest::prelude::*;

use symphase::circuit::generators::{
    mpp_phase_memory, surface_code_memory_in, LayeredCircuitConfig, MemoryBasis, PairsPerLayer,
    PhaseMemoryConfig, SurfaceCodeConfig,
};
use symphase::circuit::Circuit;
use symphase::core::{PhaseRepr, SymPhaseSampler};

/// Asserts that the sparse and dense stores initialize `circuit` to the
/// same records, derived rows, collapse kinds and symbol table.
fn assert_stores_agree(circuit: &Circuit) -> Result<(), TestCaseError> {
    let sparse = SymPhaseSampler::with_repr(circuit, PhaseRepr::Sparse);
    let dense = SymPhaseSampler::with_repr(circuit, PhaseRepr::Dense);
    prop_assert_eq!(sparse.measurement_exprs(), dense.measurement_exprs());
    prop_assert_eq!(sparse.measurement_matrix(), dense.measurement_matrix());
    prop_assert_eq!(
        sparse.random_measurement_records(),
        dense.random_measurement_records()
    );
    prop_assert_eq!(
        sparse.symbol_table().assignment_len(),
        dense.symbol_table().assignment_len()
    );
    prop_assert_eq!(sparse.num_detectors(), dense.num_detectors());
    for d in 0..sparse.num_detectors() {
        prop_assert_eq!(sparse.detector_expr(d), dense.detector_expr(d));
    }
    prop_assert_eq!(sparse.num_observables(), dense.num_observables());
    for o in 0..sparse.num_observables() {
        prop_assert_eq!(sparse.observable_expr(o), dense.observable_expr(o));
    }
    Ok(())
}

/// Resets, measure-resets, X/Y-basis measurements, Pauli products,
/// record feedback and correlated errors, repeated: every path that
/// collapses, reads or corrects a checkpointed row.
const DYNAMIC: &str = "\
R 0 1 2 3 4
H 0
CX 0 1 0 2
M 3 4
REPEAT 30 {
    DEPOLARIZE1(0.01) 0 1 2
    E(0.01) X0 X1
    ELSE_CORRELATED_ERROR(0.02) Z1 Z2
    CX 0 3 1 3 1 4 2 4
    X_ERROR(0.01) 3 4
    MR 3 4
    DETECTOR rec[-1] rec[-2]
    MPP X0*X1*X2 Z0*Z1 Z1*Z2
    DETECTOR rec[-2]
    MX 2
    MY 1
    CX rec[-1] 0
    CZ rec[-2] 2
    DEPOLARIZE2(0.01) 0 1
    M 4
    R 4
    RX 3
    MRX 3
    MRY 4
}
M 0 1 2
OBSERVABLE_INCLUDE(0) rec[-1] rec[-2]
OBSERVABLE_INCLUDE(1) rec[-3]
";

/// Random layered-circuit configurations spanning both sides of the
/// Auto heuristic's crossover (sparse QEC-like and dense noisy).
fn config_strategy() -> impl Strategy<Value = LayeredCircuitConfig> {
    (
        2usize..12,
        1usize..12,
        prop_oneof![
            (1usize..4).prop_map(PairsPerLayer::Fixed),
            Just(PairsPerLayer::HalfOfQubits)
        ],
        0.0f64..=0.4,
        prop_oneof![Just(None), (0.001f64..0.05).prop_map(Some)],
        any::<u64>(),
    )
        .prop_map(
            |(qubits, layers, cnot_pairs, measure_fraction, depolarize, seed)| {
                LayeredCircuitConfig {
                    qubits,
                    layers,
                    cnot_pairs,
                    measure_fraction,
                    depolarize,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Auto::resolve` is deterministic, never returns `Auto`, and is a
    /// fixed point on already-resolved representations.
    #[test]
    fn auto_resolve_is_deterministic(config in config_strategy()) {
        let circuit = config.generate();
        let first = PhaseRepr::Auto.resolve(&circuit);
        prop_assert_ne!(first, PhaseRepr::Auto, "Auto must resolve to a concrete store");
        for _ in 0..3 {
            prop_assert_eq!(PhaseRepr::Auto.resolve(&circuit), first);
        }
        prop_assert_eq!(PhaseRepr::Sparse.resolve(&circuit), PhaseRepr::Sparse);
        prop_assert_eq!(PhaseRepr::Dense.resolve(&circuit), PhaseRepr::Dense);
        // Resolution reads only circuit statistics: a structural clone
        // resolves identically.
        let reparsed = Circuit::parse(&circuit.to_string()).expect("round-trip");
        prop_assert_eq!(PhaseRepr::Auto.resolve(&reparsed), first);
    }

    /// Initialization through the sparse and dense phase stores yields
    /// identical measurement expressions (and therefore identical
    /// detector/observable rows) on random layered circuits.
    #[test]
    fn sparse_and_dense_init_results_agree(config in config_strategy()) {
        assert_stores_agree(&config.generate())?;
    }
}

/// The agreement on dynamic and long-memory circuits, where the sparse
/// store checkpoints most of its reads.
#[test]
fn sparse_and_dense_init_results_agree_on_dynamic_circuits() {
    let surface = |basis, rounds| {
        let config = SurfaceCodeConfig {
            distance: 3,
            rounds,
            data_error: 0.01,
            measure_error: 0.01,
        };
        surface_code_memory_in(&config, basis)
    };
    let phase_memory = mpp_phase_memory(&PhaseMemoryConfig {
        distance: 5,
        rounds: 20,
        data_error: 0.01,
        pair_error: 0.01,
    });
    let circuits = [
        ("dynamic", Circuit::parse(DYNAMIC).expect("parses")),
        ("surface Z", surface(MemoryBasis::Z, 40)),
        ("surface X", surface(MemoryBasis::X, 40)),
        ("phase memory", phase_memory),
        (
            "teleportation",
            symphase::circuit::generators::teleportation(),
        ),
    ];
    for (name, circuit) in circuits {
        if let Err(e) = assert_stores_agree(&circuit) {
            panic!("{name}: {e}");
        }
    }
}

/// The Auto heuristic measures *noise* symbols per measurement (coins are
/// excluded — every random measurement carries exactly one, so they can't
/// differentiate circuits). This pins the crossover on representative
/// circuits, including the boundary itself.
#[test]
fn auto_crossover_pinned_on_representative_circuits() {
    use symphase::circuit::generators::{
        fig3c_circuit, repetition_code_memory, RepetitionCodeConfig,
    };
    use symphase::circuit::NoiseChannel;

    // Dense noisy mixing: thousands of fault symbols over few measurements.
    assert_eq!(
        PhaseRepr::Auto.resolve(&fig3c_circuit(32, 0.001, 1)),
        PhaseRepr::Dense
    );
    // QEC-style: a handful of symbols per measurement.
    let rep = repetition_code_memory(&RepetitionCodeConfig {
        distance: 9,
        rounds: 9,
        data_error: 0.01,
        measure_error: 0.01,
    });
    assert_eq!(PhaseRepr::Auto.resolve(&rep), PhaseRepr::Sparse);
    // Noiseless but measurement-heavy: 0 noise symbols per measurement →
    // sparse, no matter how many measurements pile up. (The old formula
    // folded measurements into the numerator, flooring the ratio at 1.)
    let mut noiseless = Circuit::new(4);
    for _ in 0..100 {
        noiseless.h(0);
        noiseless.measure_many(&[0, 1, 2, 3]);
    }
    assert_eq!(PhaseRepr::Auto.resolve(&noiseless), PhaseRepr::Sparse);
    // The crossover sits at exactly 8 symbols per measurement: 8 stays
    // sparse, 9 flips dense.
    let mut at_boundary = Circuit::new(8);
    at_boundary.noise(NoiseChannel::XError(0.1), &[0, 1, 2, 3, 4, 5, 6, 7]);
    at_boundary.measure(0);
    assert_eq!(PhaseRepr::Auto.resolve(&at_boundary), PhaseRepr::Sparse);
    let mut past_boundary = Circuit::new(9);
    past_boundary.noise(NoiseChannel::XError(0.1), &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
    past_boundary.measure(0);
    assert_eq!(PhaseRepr::Auto.resolve(&past_boundary), PhaseRepr::Dense);
}
