//! Round-trip property tests of the shot output formats on ragged
//! shapes: 0 rows, 0 shots, non-multiple-of-8 rows, multi-word shot
//! counts.
//!
//! Every writer is paired with a reader (`symphase::sampler_api::formats`)
//! and `write ∘ read` must be the identity on the record matrices —
//! except `counts`, whose round trip is checked against independently
//! computed pattern counts (aggregation is lossy by design: shot order).

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use symphase::bitmat::BitMatrix;
use symphase::sampler_api::formats::{
    read_01, read_01_dets, read_b8, read_counts, read_dets, read_hits, RecordSource, SampleFormat,
};
use symphase::sampler_api::{SampleBatch, ShotSpec};

/// A random `rows × shots` bit matrix from a seed.
fn random_matrix(rows: usize, shots: usize, rng: &mut StdRng) -> BitMatrix {
    let mut m = BitMatrix::zeros(rows, shots);
    for r in 0..rows {
        for c in 0..shots {
            if rng.random_bool(0.3) {
                m.set(r, c, true);
            }
        }
    }
    m
}

/// Runs `format` over `batch` delivered as chunks split at a word-aligned
/// boundary (exercising the multi-chunk path) and returns the bytes.
fn write_chunked(format: SampleFormat, source: RecordSource, batch: &SampleBatch) -> Vec<u8> {
    let mut out = Vec::new();
    let mut sink = format.sink(&mut out, source);
    let spec = ShotSpec {
        num_measurements: batch.measurements.rows(),
        num_detectors: batch.detectors.rows(),
        num_observables: batch.observables.rows(),
        shots: batch.shots(),
    };
    sink.begin(&spec).unwrap();
    // Split into two chunks at a word boundary when possible (sinks
    // consume chunks independently; `start` only orders them).
    let split = (batch.shots() / 2) & !63;
    if split == 0 || split == batch.shots() {
        sink.chunk(batch, 0).unwrap();
    } else {
        let (a, b) = split_batch(batch, split);
        sink.chunk(&a, 0).unwrap();
        sink.chunk(&b, split).unwrap();
    }
    sink.finish().unwrap();
    drop(sink);
    out
}

/// Splits `batch` columns into `[0, at)` and `[at, shots)` copies.
fn split_batch(batch: &SampleBatch, at: usize) -> (SampleBatch, SampleBatch) {
    let copy = |m: &BitMatrix, from: usize, to: usize| {
        let mut out = BitMatrix::zeros(m.rows(), to - from);
        for r in 0..m.rows() {
            for c in from..to {
                if m.get(r, c) {
                    out.set(r, c - from, true);
                }
            }
        }
        out
    };
    let part = |from: usize, to: usize| SampleBatch {
        measurements: copy(&batch.measurements, from, to),
        detectors: copy(&batch.detectors, from, to),
        observables: copy(&batch.observables, from, to),
    };
    (part(0, at), part(at, batch.shots()))
}

/// The shape strategy: ragged on purpose — zero rows, zero shots, row
/// counts straddling byte boundaries, shot counts straddling words.
fn shape() -> impl Strategy<Value = (usize, usize, u64)> {
    (
        prop_oneof![Just(0usize), 1usize..18],
        prop_oneof![Just(0usize), 1usize..200],
        any::<u64>(),
    )
}

/// The per-bit `b8` packing of detectors then observables: record `r` of
/// the concatenation at bit `r % 8` of byte `r / 8` of its shot.
fn scalar_b8(dets: &BitMatrix, obs: &BitMatrix) -> Vec<u8> {
    let rows = dets.rows() + obs.rows();
    let mut out = Vec::new();
    for shot in 0..dets.cols() {
        let mut bytes = vec![0u8; rows.div_ceil(8)];
        let bits = (0..dets.rows())
            .map(|r| dets.get(r, shot))
            .chain((0..obs.rows()).map(|r| obs.get(r, shot)));
        for (r, bit) in bits.enumerate() {
            bytes[r / 8] |= u8::from(bit) << (r % 8);
        }
        out.extend(bytes);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The transposed `b8` writer of detectors + observables is
    /// byte-identical to per-bit packing, with the detector count on
    /// every residue class that moves the observables' bit offset across
    /// a byte or word boundary (≡ 0, 1, 7, 63 mod 64).
    #[test]
    fn b8_detectors_and_observables_match_scalar_packing(
        words in 0usize..3,
        residue in prop_oneof![Just(0usize), Just(1), Just(7), Just(63)],
        obs_rows in 0usize..4,
        shots in prop_oneof![Just(0usize), 1usize..200],
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dets = random_matrix(64 * words + residue, shots, &mut rng);
        let obs = random_matrix(obs_rows, shots, &mut rng);
        let expected = scalar_b8(&dets, &obs);
        let batch = SampleBatch {
            measurements: BitMatrix::zeros(0, shots),
            detectors: dets,
            observables: obs,
        };
        let bytes = write_chunked(SampleFormat::B8, RecordSource::DetectorsAndObservables, &batch);
        prop_assert_eq!(bytes, expected);
    }

    #[test]
    fn plain01_round_trips(shape in shape()) {
        let (rows, shots, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_matrix(rows, shots, &mut rng);
        let batch = SampleBatch {
            measurements: m.clone(),
            detectors: BitMatrix::zeros(0, shots),
            observables: BitMatrix::zeros(0, shots),
        };
        let bytes = write_chunked(SampleFormat::Plain01, RecordSource::Measurements, &batch);
        let text = std::str::from_utf8(&bytes).unwrap();
        prop_assert_eq!(text.lines().count(), shots);
        prop_assert_eq!(read_01(text, rows).unwrap(), m);
    }

    #[test]
    fn b8_round_trips(shape in shape()) {
        let (rows, shots, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_matrix(rows, shots, &mut rng);
        let batch = SampleBatch {
            measurements: m.clone(),
            detectors: BitMatrix::zeros(0, shots),
            observables: BitMatrix::zeros(0, shots),
        };
        let bytes = write_chunked(SampleFormat::B8, RecordSource::Measurements, &batch);
        prop_assert_eq!(bytes.len(), rows.div_ceil(8) * shots);
        let back = read_b8(&bytes, rows).unwrap();
        if rows == 0 {
            // Zero-row shots serialize to zero bytes: the count is lost.
            prop_assert_eq!(back.cols(), 0);
        } else {
            prop_assert_eq!(back, m);
        }
    }

    #[test]
    fn hits_round_trips(shape in shape()) {
        let (rows, shots, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_matrix(rows, shots, &mut rng);
        let batch = SampleBatch {
            measurements: m.clone(),
            detectors: BitMatrix::zeros(0, shots),
            observables: BitMatrix::zeros(0, shots),
        };
        let bytes = write_chunked(SampleFormat::Hits, RecordSource::Measurements, &batch);
        let text = std::str::from_utf8(&bytes).unwrap();
        prop_assert_eq!(read_hits(text, rows).unwrap(), m);
    }

    #[test]
    fn dets_round_trips(shape in shape()) {
        let (det_rows, shots, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let obs_rows = (seed % 4) as usize;
        let dets = random_matrix(det_rows, shots, &mut rng);
        let obs = random_matrix(obs_rows, shots, &mut rng);
        let batch = SampleBatch {
            measurements: BitMatrix::zeros(0, shots),
            detectors: dets.clone(),
            observables: obs.clone(),
        };
        let bytes = write_chunked(
            SampleFormat::Dets,
            RecordSource::DetectorsAndObservables,
            &batch,
        );
        let text = std::str::from_utf8(&bytes).unwrap();
        let (d, o) = read_dets(text, det_rows, obs_rows).unwrap();
        prop_assert_eq!(d, dets);
        prop_assert_eq!(o, obs);
    }

    #[test]
    fn combined_01_round_trips(shape in shape()) {
        let (det_rows, shots, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let obs_rows = (seed % 3) as usize;
        let dets = random_matrix(det_rows, shots, &mut rng);
        let obs = random_matrix(obs_rows, shots, &mut rng);
        let batch = SampleBatch {
            measurements: BitMatrix::zeros(0, shots),
            detectors: dets.clone(),
            observables: obs.clone(),
        };
        let bytes = write_chunked(
            SampleFormat::Plain01,
            RecordSource::DetectorsAndObservables,
            &batch,
        );
        let text = std::str::from_utf8(&bytes).unwrap();
        let (d, o) = read_01_dets(text, det_rows, obs_rows).unwrap();
        prop_assert_eq!(d, dets);
        prop_assert_eq!(o, obs);
    }

    #[test]
    fn counts_round_trips_against_independent_aggregation(shape in shape()) {
        let (rows, shots, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_matrix(rows, shots, &mut rng);
        let batch = SampleBatch {
            measurements: m.clone(),
            detectors: BitMatrix::zeros(0, shots),
            observables: BitMatrix::zeros(0, shots),
        };
        let bytes = write_chunked(SampleFormat::Counts, RecordSource::Measurements, &batch);
        let text = std::str::from_utf8(&bytes).unwrap();
        let parsed = read_counts(text).unwrap();
        // Aggregate independently.
        let mut expected: BTreeMap<String, u64> = BTreeMap::new();
        for shot in 0..shots {
            let key: String = (0..rows)
                .map(|r| if m.get(r, shot) { '1' } else { '0' })
                .collect();
            *expected.entry(key).or_insert(0) += 1;
        }
        prop_assert_eq!(parsed, expected);
        let total: u64 = read_counts(text).unwrap().values().sum();
        prop_assert_eq!(total, shots as u64);
    }
}

/// The `b8` transpose fast path across word boundaries: row counts
/// around and past 64 make each shot span multiple transposed words, so
/// the per-word byte truncation is exercised.
#[test]
fn b8_round_trips_on_multi_word_rows() {
    for rows in [63usize, 64, 65, 72, 130, 200] {
        for shots in [1usize, 63, 64, 65, 129] {
            let mut rng = StdRng::seed_from_u64((rows * 1000 + shots) as u64);
            let m = random_matrix(rows, shots, &mut rng);
            let batch = SampleBatch {
                measurements: m.clone(),
                detectors: BitMatrix::zeros(0, shots),
                observables: BitMatrix::zeros(0, shots),
            };
            let bytes = write_chunked(SampleFormat::B8, RecordSource::Measurements, &batch);
            assert_eq!(bytes.len(), rows.div_ceil(8) * shots, "{rows}x{shots}");
            assert_eq!(read_b8(&bytes, rows).unwrap(), m, "{rows}x{shots}");
        }
    }
}

/// The streamed CLI path and the format writers agree: sampling straight
/// into a `b8` sink then reading it back equals the in-memory batch.
#[test]
fn sampled_b8_stream_round_trips() {
    use symphase::backend::{build_sampler, SimConfig};
    use symphase::circuit::generators::{repetition_code_memory, RepetitionCodeConfig};
    let circuit = repetition_code_memory(&RepetitionCodeConfig {
        distance: 3,
        rounds: 2,
        data_error: 0.05,
        measure_error: 0.05,
    });
    let sampler = build_sampler(&circuit, &SimConfig::new()).unwrap();
    let shots = 300;
    let mut bytes = Vec::new();
    {
        let mut sink = SampleFormat::B8.sink(&mut bytes, RecordSource::Measurements);
        sampler.sample_to(shots, 17, &mut *sink).unwrap();
    }
    let expected = sampler.sample_seeded(shots, 17);
    assert_eq!(
        read_b8(&bytes, sampler.num_measurements()).unwrap(),
        expected.measurements
    );
}
