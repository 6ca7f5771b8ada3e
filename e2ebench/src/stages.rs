//! The offline stages of a run — set-up, `dem`, and the `sample`/`detect`
//! streams — each driving the public API the way the CLI command does,
//! timed from the outside.

use std::io::{self, Write};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use symphase::backend::build_sampler;
use symphase::circuit::Circuit;
use symphase::core::SymPhaseSampler;
use symphase::sampler_api::formats::{RecordSource, SampleFormat};
use symphase::sampler_api::sink::stream_with_config;
use symphase::sampler_api::{
    EngineKind, PhaseRepr, SampleBatch, Sampler, ShotSink, ShotSpec, SimConfig,
};

use crate::report::PerRound;
use crate::trace::{self, span};
use crate::workload::{mix, Workload};

/// Failed operations out of those attempted; every command call, output
/// check and daemon request is one operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Delegates to an engine, recording a `backend` span around every
/// `sample_into` (one per chunk).
pub struct TimedSampler(pub Arc<dyn Sampler>);

impl Sampler for TimedSampler {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn num_measurements(&self) -> usize {
        self.0.num_measurements()
    }

    fn num_detectors(&self) -> usize {
        self.0.num_detectors()
    }

    fn num_observables(&self) -> usize {
        self.0.num_observables()
    }

    fn sample_into(&self, batch: &mut SampleBatch, rng: &mut dyn RngCore) {
        let _s = span("backend", "sample_into");
        self.0.sample_into(batch, rng);
    }
}

/// Delegates to a format sink, recording a `formats` span around every
/// call.
pub struct TimedSink<'w>(pub Box<dyn ShotSink + 'w>);

impl ShotSink for TimedSink<'_> {
    fn begin(&mut self, spec: &ShotSpec) -> io::Result<()> {
        let _s = span("formats", "begin");
        self.0.begin(spec)
    }

    fn chunk(&mut self, chunk: &SampleBatch, start: usize) -> io::Result<()> {
        let _s = span("formats", "chunk");
        self.0.chunk(chunk, start)
    }

    fn finish(&mut self) -> io::Result<()> {
        let _s = span("formats", "finish");
        self.0.finish()
    }
}

/// Counts the bytes written to it, notes when the first arrived, and
/// keeps them only when asked.
#[derive(Default)]
pub struct ByteCounter {
    pub bytes: u64,
    pub first_write: Option<Instant>,
    pub kept: Option<Vec<u8>>,
}

impl ByteCounter {
    pub fn keeping(keep: bool) -> Self {
        Self {
            kept: keep.then(Vec::new),
            ..Self::default()
        }
    }
}

impl Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        self.first_write.get_or_insert_with(Instant::now);
        if let Some(kept) = &mut self.kept {
            kept.extend_from_slice(buf);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The CLI command a record source stands for.
pub fn source_label(source: RecordSource) -> &'static str {
    match source {
        RecordSource::Measurements => "sample",
        _ => "detect",
    }
}

/// `Circuit::parse` inside a `circuit` span.
fn parse(text: &str) -> Result<Circuit, String> {
    let _s = span("circuit", "parse");
    Circuit::parse(text).map_err(|e| e.to_string())
}

/// What a run has measured so far, appended to round by round.
#[derive(Default)]
pub struct Timings {
    /// The round being measured.
    pub round: usize,
    pub setup_symphase_s: PerRound,
    pub setup_frame_s: PerRound,
    pub dem_s: PerRound,
    pub calls: Vec<Call>,
}

/// The circuit and the samplers a set-up built.
pub struct Built {
    pub circuit: Circuit,
    pub symphase: Arc<dyn Sampler>,
    pub frame: Arc<dyn Sampler>,
}

/// Repetitions a round makes at most of any one call.
const MAX_REPS: usize = 1000;

/// Time a round spends repeating each set-up and the `dem` call (at
/// least once each): cheap calls then contribute many samples, expensive
/// ones one per round.
pub const REPEAT_S: f64 = 0.2;

/// Time a round spends repeating the four stream calls.
const STREAM_S: f64 = 0.75;

/// Shots of the batch that closes a set-up.
pub const FIRST_BATCH_SHOTS: usize = 64;

/// One set-up as every CLI command pays it: `Circuit::parse`,
/// `build_sampler` with the default configuration (or with
/// `--engine frame`), and a first batch of [`FIRST_BATCH_SHOTS`] shots.
fn setup_once(text: &str, engine: EngineKind) -> Result<(Circuit, Arc<dyn Sampler>), String> {
    let layer = if engine == EngineKind::Frame {
        "frame"
    } else {
        "core"
    };
    let config = SimConfig::new().with_engine(engine);
    trace::op(format!("setup.{}", engine.name()), "setup", || {
        let circuit = parse(text)?;
        let sampler = {
            let _s = span(layer, "init");
            build_sampler(&circuit, &config).map_err(|e| e.to_string())?
        };
        {
            // The first batch builds whatever the engine builds lazily on
            // first use, which every CLI command pays.
            let _s = span(layer, "first_batch");
            sampler.sample(FIRST_BATCH_SHOTS, &mut StdRng::seed_from_u64(0));
        }
        Ok((circuit, Arc::from(sampler)))
    })
}

/// Repeats the set-up of `engine` for `seconds`, at least once; returns
/// the last build.
pub fn setup(
    text: &str,
    engine: EngineKind,
    seconds: f64,
    ops: &mut Ops,
    t: &mut Timings,
) -> Result<(Circuit, Arc<dyn Sampler>), String> {
    let times = if engine == EngineKind::Frame {
        &mut t.setup_frame_s
    } else {
        &mut t.setup_symphase_s
    };
    let start = Instant::now();
    let mut built = None;
    for _ in 0..MAX_REPS {
        // Free the previous build outside the clock.
        drop(built.take());
        let t0 = Instant::now();
        let result = setup_once(text, engine);
        times.push(t.round, t0.elapsed().as_secs_f64());
        ops.record(result.is_ok());
        built = Some(result?);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(built.expect("the loop runs at least once"))
}

/// Exact counts of the symbolic representation the default engine
/// builds; the record counts are computed from them.
pub struct Counts {
    pub symbols: usize,
    pub random_records: usize,
    pub nnz_m: usize,
    pub nnz_det: usize,
    pub nnz_obs: usize,
    pub phase_store: &'static str,
    pub sampling_method: &'static str,
}

/// The `symphase dem` path: parse, `SymPhaseSampler::new`, the detector
/// error model with detector coordinates, rendered to text. Repeats for
/// [`REPEAT_S`]; returns the last model's text and the counts of its
/// sampler.
pub fn dem(text: &str, ops: &mut Ops, t: &mut Timings) -> Result<(String, Counts), String> {
    let start = Instant::now();
    let mut last = None;
    for _ in 0..MAX_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let result = trace::op("dem".into(), "dem", || {
            let circuit = parse(text)?;
            let sampler = {
                let _s = span("core", "init");
                SymPhaseSampler::new(&circuit)
            };
            let model = {
                let _s = span("core", "dem_extract");
                sampler
                    .detector_error_model()
                    .with_detector_coords(circuit.detector_coordinates())
                    .to_string()
            };
            Ok::<_, String>((circuit, sampler, model))
        });
        t.dem_s.push(t.round, t0.elapsed().as_secs_f64());
        ops.record(result.is_ok());
        last = Some(result?);
        if start.elapsed().as_secs_f64() >= REPEAT_S {
            break;
        }
    }
    let (circuit, sampler, model) = last.expect("the loop runs at least once");
    let counts = Counts {
        symbols: sampler.symbol_table().num_symbols(),
        random_records: sampler
            .random_measurement_records()
            .iter()
            .filter(|r| **r)
            .count(),
        nnz_m: sampler.measurement_matrix().count_ones(),
        nnz_det: sampler.detector_rows().count_ones(),
        nnz_obs: sampler.observable_rows().count_ones(),
        phase_store: PhaseRepr::Auto.resolve(&circuit).name(),
        sampling_method: sampler.resolved_method().name(),
    };
    Ok((model, counts))
}

/// One timed `sample`/`detect` call.
pub struct Call {
    pub round: usize,
    pub engine: EngineKind,
    pub source: RecordSource,
    pub seconds: f64,
    pub bytes: u64,
    pub traced: bool,
}

/// Streams `shots` shots of `source` from `sampler` through the format
/// sink into a byte counter, as `symphase sample`/`detect` do.
pub fn stream_call(
    sampler: &Arc<dyn Sampler>,
    shots: usize,
    seed: u64,
    format: SampleFormat,
    source: RecordSource,
) -> io::Result<u64> {
    let config = SimConfig::new().with_seed(seed);
    let timed = TimedSampler(Arc::clone(sampler));
    let mut out = ByteCounter::default();
    {
        let mut sink = TimedSink(format.sink(&mut out, source));
        let _s = span("backend", "stream_with_config");
        stream_with_config(&timed, shots, &config, &mut sink)?;
    }
    Ok(out.bytes)
}

/// Repeats the four stream calls (symphase and frame, `sample` and
/// `detect`) for [`STREAM_S`], at least once each. `traced`
/// marks the calls made while spans were recorded.
pub fn streams(
    built: &Built,
    workload: &Workload,
    seed: u64,
    traced: bool,
    ops: &mut Ops,
    t: &mut Timings,
) {
    let start = Instant::now();
    for cycle in 0..MAX_REPS {
        let call_seed = mix(seed, cycle as u64);
        for (engine, source) in crate::SERIES {
            let sampler = if engine == EngineKind::Frame {
                &built.frame
            } else {
                &built.symphase
            };
            let label = format!("stream.{}.{}", engine.name(), source_label(source));
            let t0 = Instant::now();
            let result = trace::op(label, "stream", || {
                stream_call(
                    sampler,
                    workload.stream_shots,
                    call_seed,
                    workload.format,
                    source,
                )
            });
            let seconds = t0.elapsed().as_secs_f64();
            ops.record(result.is_ok());
            if let Ok(bytes) = result {
                t.calls.push(Call {
                    round: t.round,
                    engine,
                    source,
                    seconds,
                    bytes,
                    traced,
                });
            }
        }
        if start.elapsed().as_secs_f64() >= STREAM_S {
            break;
        }
    }
}
