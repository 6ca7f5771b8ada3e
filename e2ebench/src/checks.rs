//! Output checks. None of them is timed; each is one operation, and a
//! check that does not hold is a failed one.

use std::io;

use symphase::backend::build_sampler;
use symphase::circuit::Circuit;
use symphase::core::DetectorErrorModel;
use symphase::sampler_api::formats::{RecordSource, SampleFormat};
use symphase::sampler_api::sink::stream_range_with_config;
use symphase::sampler_api::{SampleBatch, Sampler, ShotSink, ShotSpec, SimConfig};
use symphase::serve::{CircuitRef, SampleRequest};

use crate::serve_load::ServeRun;
use crate::stages::ByteCounter;

/// One check's outcome and what it compared.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn range_bytes(
    sampler: &dyn Sampler,
    start: usize,
    end: usize,
    config: &SimConfig,
    format: SampleFormat,
) -> io::Result<Vec<u8>> {
    let mut out = ByteCounter::keeping(true);
    {
        let mut sink = format.sink(&mut out, RecordSource::Measurements);
        stream_range_with_config(sampler, start, end, config, sink.as_mut())?;
    }
    Ok(out.kept.expect("kept"))
}

/// The determinism contract on a shot prefix of three chunks (a chunk
/// width of 256 keeps it cheap on every workload): the default engine's
/// bytes are the same serial, at every core, and split into two
/// chunk-aligned ranges.
pub fn determinism(sampler: &dyn Sampler, format: SampleFormat, seed: u64) -> Check {
    const CHUNK: usize = 256;
    let shots = 2 * CHUNK + 40;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = SimConfig::new().with_seed(seed).with_chunk_shots(CHUNK);
    let run = || -> io::Result<(Vec<u8>, Vec<u8>, Vec<u8>)> {
        let serial = range_bytes(sampler, 0, shots, &config, format)?;
        let parallel = range_bytes(
            sampler,
            0,
            shots,
            &config.clone().with_threads(threads),
            format,
        )?;
        let mut split = range_bytes(sampler, 0, CHUNK, &config, format)?;
        split.extend(range_bytes(sampler, CHUNK, shots, &config, format)?);
        Ok((serial, parallel, split))
    };
    let (ok, detail) = match run() {
        Ok((serial, parallel, split)) => (
            !serial.is_empty() && serial == parallel && serial == split,
            format!(
                "{shots} shots, {} bytes: serial == {threads} threads: {}, serial == two ranges: {}",
                serial.len(),
                serial == parallel,
                serial == split
            ),
        ),
        Err(e) => (false, e.to_string()),
    };
    Check {
        name: "determinism",
        ok,
        detail,
    }
}

/// Counts the ones of every record row over all streamed shots.
#[derive(Default)]
struct RowOnes {
    ones: Vec<u64>,
    shots: usize,
}

impl ShotSink for RowOnes {
    fn chunk(&mut self, chunk: &SampleBatch, _start: usize) -> io::Result<()> {
        let parts = [&chunk.measurements, &chunk.detectors, &chunk.observables];
        let rows: usize = parts.iter().map(|m| m.rows()).sum();
        self.ones.resize(rows, 0);
        let mut r = 0;
        for m in parts {
            for i in 0..m.rows() {
                self.ones[r] += m
                    .row(i)
                    .iter()
                    .map(|w| u64::from(w.count_ones()))
                    .sum::<u64>();
                r += 1;
            }
        }
        self.shots += chunk.shots();
        Ok(())
    }
}

fn row_ones(sampler: &dyn Sampler, shots: usize, seed: u64) -> io::Result<RowOnes> {
    let mut sink = RowOnes::default();
    sampler.sample_to(shots, seed, &mut sink)?;
    Ok(sink)
}

/// Cross-engine agreement: every measurement, detector and observable
/// row fires at rates that agree between symphase and frame within
/// `6·sqrt(2·p(1−p)/n) + 2/n`, with `p` the pooled rate over `n` shots
/// per engine. Six standard errors keep the chance of a false alarm
/// below 1e-4 over 25 000 rows.
pub fn agreement(symphase: &dyn Sampler, frame: &dyn Sampler, shots: usize, seed: u64) -> Check {
    let run = || -> io::Result<(RowOnes, RowOnes)> {
        Ok((
            row_ones(symphase, shots, seed)?,
            row_ones(frame, shots, seed ^ 1)?,
        ))
    };
    let (ok, detail) = match run() {
        Ok((a, b)) if a.ones.len() == b.ones.len() && a.shots == shots && b.shots == shots => {
            let n = shots as f64;
            let mut worst = 0.0f64;
            let mut ok = true;
            for (&x, &y) in a.ones.iter().zip(&b.ones) {
                let (pa, pb) = (x as f64 / n, y as f64 / n);
                let p = 0.5 * (pa + pb);
                let bound = 6.0 * (2.0 * p * (1.0 - p) / n).sqrt() + 2.0 / n;
                worst = worst.max((pa - pb).abs() / bound);
                ok &= (pa - pb).abs() <= bound;
            }
            (
                ok,
                format!(
                    "{} rows, {shots} shots per engine, largest |rate difference| / bound = {worst:.3}",
                    a.ones.len()
                ),
            )
        }
        Ok((a, b)) => (
            false,
            format!("shapes differ: {} vs {} rows", a.ones.len(), b.ones.len()),
        ),
        Err(e) => (false, e.to_string()),
    };
    Check {
        name: "agreement",
        ok,
        detail,
    }
}

/// The `dem` text parses back and covers the circuit's detectors.
pub fn dem_round_trip(text: &str, circuit: &Circuit) -> Check {
    let (ok, detail) = match DetectorErrorModel::parse(text) {
        Ok(model) => (
            model.num_detectors() == circuit.num_detectors(),
            format!(
                "{} mechanisms, {} detectors parsed, circuit has {}",
                model.len(),
                model.num_detectors(),
                circuit.num_detectors()
            ),
        ),
        Err(e) => (false, e),
    };
    Check {
        name: "dem_round_trip",
        ok,
        detail,
    }
}

/// Whether a served payload equals the offline
/// `stream_range_with_config` bytes of its request, computed with a fresh
/// build of the request's circuit.
pub fn replay_matches(request: &SampleRequest, served: &[u8]) -> bool {
    let config = SimConfig::new()
        .with_engine(request.engine)
        .with_seed(request.seed);
    let CircuitRef::Text(text) = &request.circuit else {
        return false;
    };
    let built = Circuit::parse(text)
        .map_err(|e| e.to_string())
        .and_then(|c| build_sampler(&c, &config).map_err(|e| e.to_string()));
    let Ok(sampler) = built else {
        return false;
    };
    let offline = range_bytes(
        sampler.as_ref(),
        request.start as usize,
        request.end as usize,
        &config,
        request.format,
    );
    offline.is_ok_and(|bytes| bytes == served)
}

/// Served bytes equal offline bytes, each from a sampler built on its
/// own, for every replayed request: every eighth warm request and the
/// run's first cold request.
pub fn served_bytes(run: &ServeRun) -> Check {
    Check {
        name: "served_bytes",
        ok: run.replayed > 0 && run.replay_mismatches == 0,
        detail: format!(
            "{} replies replayed offline, {} differ",
            run.replayed, run.replay_mismatches
        ),
    }
}

/// Shape sanity that every later number relies on: the stream stage
/// produced the bytes its format implies.
pub fn stream_bytes(
    bytes: u64,
    spec: &ShotSpec,
    format: SampleFormat,
    source: RecordSource,
) -> Check {
    let rows = source.rows(spec) as u64;
    let shots = spec.shots as u64;
    let expected = match format {
        SampleFormat::B8 => shots * rows.div_ceil(8),
        // One character per record, a separator between the detector
        // and observable groups when both exist, and a newline.
        SampleFormat::Plain01 => {
            let separator = u64::from(
                source == RecordSource::DetectorsAndObservables
                    && spec.num_detectors > 0
                    && spec.num_observables > 0,
            );
            shots * (rows + separator + 1)
        }
        _ => bytes,
    };
    Check {
        name: "stream_bytes",
        ok: bytes == expected,
        detail: format!("{bytes} bytes, {expected} expected"),
    }
}
