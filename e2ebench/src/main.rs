//! End-to-end benchmark of the paths `symphase sample`, `detect`, `dem`
//! and `serve` run, with the default `symphase` engine beside
//! `--engine frame`, timed stage by stage from outside the crates.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics when
//! `--trace 0`, the per-layer metrics when `--trace 1`). The line before
//! it describes the run: host stamp, workload counts, check details,
//! tail percentiles and, when traced, the per-stage self-time table.
//! README.md lists every metric and workload.

mod checks;
mod report;
mod serve_load;
mod stages;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use symphase::sampler_api::formats::RecordSource;
use symphase::sampler_api::{EngineKind, ShotSpec};

use report::{median, tail, Json, PerRound};
use serve_load::ServeRun;
use stages::{source_label, Call, Ops, Timings};
use workload::{Workload, WORKLOADS};

const USAGE: &str =
    "usage: symphase-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |flag: &str| flags.get(flag).ok_or(format!("missing {flag}"));
    let name = get("--workload")?;
    let workload = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (one of: {})", names.join(", "))
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    if flags.len() != 4 {
        return Err("unexpected flags".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("symphase-e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((describe, result)) => {
            println!("{}", describe.render());
            println!("{}", result.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("symphase-e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The metrics of the result line, in order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, value, _)| value.is_finite())
    }

    fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|(name, value, unit)| {
            let entry = Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]);
            (name.clone(), entry)
        }))
    }
}

/// Everything the rounds of a run measured.
struct Measured {
    rounds: usize,
    ops: Ops,
    timings: Timings,
    serve: ServeRun,
    /// Counts from the first `dem` call's sampler.
    counts: stages::Counts,
    /// The last `dem` call's model text and the last set-up's build,
    /// which the output checks use.
    dem_text: String,
    built: stages::Built,
    circuit_bytes: usize,
    peak_rss_mb: f64,
}

/// Rounds a run makes at least.
const MIN_ROUNDS: usize = 3;

/// Runs rounds of the whole user path for `--seconds`: a round starts
/// only if a round as long as the last one still ends in time, and at
/// least [`MIN_ROUNDS`] run.
fn measure(args: &Args, text: &str) -> Result<Measured, String> {
    let w = args.workload;
    let mut ops = Ops::default();
    let mut timings = Timings::default();
    let mut serve = ServeRun::default();
    let mut counts = None;
    let mut last = None;
    let warm_text = workload::warm_text();
    let start = Instant::now();
    let mut rounds = 0;
    let mut last_round_s = 0.0;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() + last_round_s <= args.seconds {
        let round_start = Instant::now();
        // A traced run records spans in every other round only, so the
        // rounds without spans measure what tracing costs.
        let traced = args.trace && rounds % 2 == 0;
        trace::set_enabled(traced);
        timings.round = rounds;
        let seed = workload::mix(args.seed, rounds as u64);
        drop(last.take());
        // The frame set-up is short, so it runs in two bursts, at either
        // end of the round's symphase work, for its samples to span more
        // of the machine's speed spells.
        let half = stages::REPEAT_S / 2.0;
        stages::setup(text, EngineKind::Frame, half, &mut ops, &mut timings)?;
        let (dem_text, c) = stages::dem(text, &mut ops, &mut timings)?;
        counts.get_or_insert(c);
        let (circuit, symphase) = stages::setup(
            text,
            EngineKind::SymPhase,
            stages::REPEAT_S,
            &mut ops,
            &mut timings,
        )?;
        let (_, frame) = stages::setup(text, EngineKind::Frame, half, &mut ops, &mut timings)?;
        let built = stages::Built {
            circuit,
            symphase,
            frame,
        };
        stages::streams(&built, w, seed, traced, &mut ops, &mut timings);
        let first_cold = rounds * workload::COLD_PER_WINDOW;
        serve_load::window(&warm_text, seed, first_cold, &mut ops, &mut serve)?;
        last = Some((dem_text, built));
        rounds += 1;
        last_round_s = round_start.elapsed().as_secs_f64();
    }
    trace::set_enabled(false);
    let (dem_text, built) = last.expect("a run makes at least one round");
    Ok(Measured {
        rounds,
        ops,
        timings,
        serve,
        counts: counts.expect("every round runs dem"),
        dem_text,
        built,
        circuit_bytes: text.len(),
        peak_rss_mb: peak_rss_mb(),
    })
}

/// The output checks, untimed, on the last round's build.
fn run_checks(args: &Args, m: &Measured) -> Vec<checks::Check> {
    let w = args.workload;
    let symphase = m.built.symphase.as_ref();
    let mut all = vec![
        checks::determinism(symphase, w.format, args.seed),
        checks::agreement(
            symphase,
            m.built.frame.as_ref(),
            w.agreement_shots,
            args.seed,
        ),
        checks::dem_round_trip(&m.dem_text, &m.built.circuit),
        checks::served_bytes(&m.serve),
    ];
    let spec = ShotSpec::of(symphase, w.stream_shots);
    for (engine, source) in SERIES {
        let first = m
            .timings
            .calls
            .iter()
            .find(|c| c.engine == engine && c.source == source);
        all.push(checks::stream_bytes(
            first.map_or(u64::MAX, |c| c.bytes),
            &spec,
            w.format,
            source,
        ));
    }
    all
}

fn run(args: &Args) -> Result<(Json, Json), String> {
    let w = args.workload;
    let mut m = measure(args, &w.text())?;
    let checks = run_checks(args, &m);
    for check in &checks {
        m.ops.record(check.ok);
    }
    let (spans, labels) = trace::take();
    if args.trace {
        let written = write_spans(w.name, args.seed, &spans, &labels);
        if let Err(e) = &written {
            eprintln!("symphase-e2ebench: writing spans: {e}");
        }
        m.ops.record(written.is_ok());
    }

    let warm_ms: Vec<f64> = m.serve.warm.iter().map(|r| r.latency_s * 1e3).collect();
    let warm_tail = tail(&warm_ms);
    let mut describe = vec![
        ("workload", Json::str(w.name)),
        ("seed", Json::Int(args.seed)),
        ("trace", Json::Bool(args.trace)),
        ("host", host_stamp()),
        ("rounds", Json::Int(m.rounds as u64)),
        (
            "descriptor",
            descriptor(w, &m.built, &m.counts, m.circuit_bytes),
        ),
        (
            "checks",
            Json::Arr(
                checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(c.name)),
                            ("ok", Json::Bool(c.ok)),
                            ("detail", Json::str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("warm_tail", tail_json(warm_tail)),
        (
            "serve_requests",
            Json::obj([
                ("warm", Json::Int(m.serve.warm.len() as u64)),
                ("cold", Json::Int(m.serve.cold.len() as u64)),
            ]),
        ),
    ];
    let metrics = if args.trace {
        let traced = Traced::new(&spans, &labels);
        describe.push(("stages", traced.stage_table()));
        per_layer(w, &m, &traced, &mut describe)
    } else {
        end_to_end(w, &m, warm_tail.value)
    };
    let result = Json::obj([
        (
            "correct",
            Json::Bool(checks.iter().all(|c| c.ok) && metrics.all_finite()),
        ),
        ("attempted", Json::Int(m.ops.attempted)),
        ("failed", Json::Int(m.ops.failed)),
        ("metrics", metrics.to_json()),
    ]);
    Ok((Json::obj(describe), result))
}

/// The four stream series: each engine, `sample` and `detect`.
const SERIES: [(EngineKind, RecordSource); 4] = [
    (EngineKind::SymPhase, RecordSource::Measurements),
    (EngineKind::SymPhase, RecordSource::DetectorsAndObservables),
    (EngineKind::Frame, RecordSource::Measurements),
    (EngineKind::Frame, RecordSource::DetectorsAndObservables),
];

/// The `frame.` prefix of frame-engine metric names.
fn prefix(engine: EngineKind) -> &'static str {
    if engine == EngineKind::Frame {
        "frame."
    } else {
        ""
    }
}

/// Stream-call time of one series, over the calls made with or without
/// span recording: the mean over rounds of each round's median.
fn call_s(calls: &[Call], engine: EngineKind, source: RecordSource, traced: bool) -> f64 {
    let mut times = PerRound::default();
    for c in calls {
        if c.engine == engine && c.source == source && c.traced == traced {
            times.push(c.round, c.seconds);
        }
    }
    times.round_mean()
}

fn end_to_end(w: &Workload, m: &Measured, warm_tail_ms: f64) -> Metrics {
    let t = &m.timings;
    let ms = |replies: &[serve_load::Reply]| -> f64 {
        median(
            &replies
                .iter()
                .map(|r| r.latency_s * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let mut out = Metrics::default();
    // Set-up time is the plain median of the run's set-ups.
    out.add("setup_s", t.setup_symphase_s.median(), "s");
    for (engine, source) in SERIES {
        let name = format!("{}{}_shots_per_s", prefix(engine), source_label(source));
        let seconds = call_s(&t.calls, engine, source, false);
        out.add(name, w.stream_shots as f64 / seconds, "shots/s");
    }
    out.add("dem_s", t.dem_s.round_mean(), "s");
    out.add("frame.setup_s", t.setup_frame_s.round_mean(), "s");
    out.add("peak_rss_mb", m.peak_rss_mb, "MiB");
    out.add("serve.warm_p50_ms", ms(&m.serve.warm), "ms");
    out.add("serve.warm_tail_ms", warm_tail_ms, "ms");
    out.add("serve.cold_p50_ms", ms(&m.serve.cold), "ms");
    out
}

fn per_layer(
    w: &Workload,
    m: &Measured,
    traced: &Traced,
    describe: &mut Vec<(&'static str, Json)>,
) -> Metrics {
    let c = &m.counts;
    let words = w.stream_shots.div_ceil(64);
    let mut out = Metrics::default();
    out.add(
        "circuit.parse_s",
        traced.median("setup.symphase", "circuit", "parse"),
        "s",
    );
    out.add("circuit.bytes", m.circuit_bytes as f64, "bytes");
    for (label, layer) in [("setup.symphase", "core"), ("setup.frame", "frame")] {
        out.add(
            format!("{layer}.init_s"),
            traced.median(label, layer, "init"),
            "s",
        );
        out.add(
            format!("{layer}.first_batch_s"),
            traced.median(label, layer, "first_batch"),
            "s",
        );
    }
    out.add(
        "core.dem_extract_s",
        traced.median("dem", "core", "dem_extract"),
        "s",
    );
    out.add(
        "core.cold_init_s",
        traced.median("daemon", "core", "init"),
        "s",
    );
    out.add("core.symbols", c.symbols as f64, "count");
    out.add("core.random_records", c.random_records as f64, "count");
    out.add("core.nnz_m", c.nnz_m as f64, "count");
    out.add("core.nnz_det", c.nnz_det as f64, "count");
    out.add("core.nnz_obs", c.nnz_obs as f64, "count");
    out.add("core.record_word_xors", (c.nnz_m * words) as f64, "count");
    out.add("core.record_bytes", (c.nnz_m * words * 8) as f64, "bytes");
    for (engine, source) in SERIES {
        let (p, s) = (prefix(engine), source_label(source));
        let op = format!("stream.{}.{s}", engine.name());
        out.add(
            format!("{p}backend.{s}.sample_s"),
            traced.per_op_median(&op, "backend", Some("sample_into")),
            "s",
        );
        out.add(
            format!("{p}formats.{s}.serialize_s"),
            traced.per_op_median(&op, "formats", None),
            "s",
        );
    }
    let chunk_ms = traced.durations_ms("stream.symphase.", "backend", "sample_into");
    let chunk_tail = tail(&chunk_ms);
    out.add(
        "backend.chunks",
        traced.per_op_count("stream.symphase.sample", "backend", "sample_into"),
        "count",
    );
    out.add("backend.chunk_p50_ms", median(&chunk_ms), "ms");
    out.add("backend.chunk_tail_ms", chunk_tail.value, "ms");
    let sample_bytes: Vec<f64> = m
        .timings
        .calls
        .iter()
        .filter(|c| c.engine == EngineKind::SymPhase && c.source == RecordSource::Measurements)
        .map(|c| c.bytes as f64)
        .collect();
    out.add("formats.bytes_out", median(&sample_bytes), "bytes");
    let serve = &m.serve;
    let ttfb_ms: Vec<f64> = serve.warm.iter().map(|r| r.ttfb_s * 1e3).collect();
    let ttfb_tail = tail(&ttfb_ms);
    out.add("serve.start_ms", 1e3 * median(&serve.start_s), "ms");
    out.add("serve.warm_ttfb_p50_ms", median(&ttfb_ms), "ms");
    out.add("serve.warm_ttfb_tail_ms", ttfb_tail.value, "ms");
    out.add("serve.cache_hits", serve.hits as f64, "count");
    out.add("serve.cache_misses", serve.misses as f64, "count");
    out.add("serve.busy", serve.busy as f64, "count");
    let late_s = serve
        .warm
        .iter()
        .chain(&serve.cold)
        .map(|r| r.late_s)
        .fold(0.0, f64::max);
    out.add("serve.gen_late_ms", late_s * 1e3, "ms");
    let failed_ratio = m.ops.failed as f64 / m.ops.attempted.max(1) as f64;
    out.add("failed_ratio", failed_ratio, "ratio");
    out.add(
        "trace.overhead_ratio",
        overhead_ratio(&m.timings.calls),
        "ratio",
    );
    out.add("trace.spans", traced.spans.len() as f64, "count");
    for (layer, seconds) in traced.layer_self_totals() {
        out.add(format!("{layer}.self_s"), seconds, "s");
    }
    describe.push(("chunk_tail", tail_json(chunk_tail)));
    describe.push(("warm_ttfb_tail", tail_json(ttfb_tail)));
    out
}

fn tail_json(t: report::Tail) -> Json {
    Json::obj([
        ("value", Json::Num(t.value)),
        ("percentile", Json::Num(t.percentile)),
        ("samples", Json::Int(t.samples as u64)),
    ])
}

/// Traced over untraced time of the stream calls: per series the time of
/// a call of each kind, summed over the four series.
fn overhead_ratio(calls: &[Call]) -> f64 {
    let sum = |traced| -> f64 {
        SERIES
            .iter()
            .map(|&(engine, source)| call_s(calls, engine, source, traced))
            .sum()
    };
    sum(true) / sum(false)
}

/// The spans of a traced run, indexed by operation label.
struct Traced<'a> {
    spans: &'a [trace::Span],
    self_s: Vec<f64>,
    labels: BTreeMap<u64, &'a str>,
}

impl<'a> Traced<'a> {
    fn new(spans: &'a [trace::Span], labels: &'a [(u64, String)]) -> Self {
        Self {
            spans,
            self_s: trace::self_times(spans),
            labels: labels.iter().map(|(id, l)| (*id, l.as_str())).collect(),
        }
    }

    /// The operation label of a span; spans on the daemon's worker
    /// threads belong to no operation and are labelled `daemon`.
    fn label(&self, span: &trace::Span) -> &str {
        self.labels.get(&span.op).copied().unwrap_or("daemon")
    }

    fn durations_ms(&self, label_prefix: &str, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| {
                s.layer == layer && s.name == name && self.label(s).starts_with(label_prefix)
            })
            .map(|s| s.duration_s() * 1e3)
            .collect()
    }

    /// Median duration of the `layer.name` spans of operations `label`.
    fn median(&self, label: &str, layer: &str, name: &str) -> f64 {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name && self.label(s) == label)
            .map(trace::Span::duration_s)
            .collect();
        median(&v)
    }

    /// Per operation `label`: the summed self time of its `layer` spans
    /// (only those named `name`, if given); the median over operations.
    fn per_op_median(&self, label: &str, layer: &str, name: Option<&str>) -> f64 {
        let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&self.self_s) {
            if self.label(s) == label && s.layer == layer && name.is_none_or(|n| n == s.name) {
                *per_op.entry(s.op).or_default() += own;
            }
        }
        median(&per_op.into_values().collect::<Vec<_>>())
    }

    fn per_op_count(&self, label: &str, layer: &str, name: &str) -> f64 {
        let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans {
            if self.label(s) == label && s.layer == layer && s.name == name {
                *per_op.entry(s.op).or_default() += 1.0;
            }
        }
        median(&per_op.into_values().collect::<Vec<_>>())
    }

    fn layer_self_totals(&self) -> BTreeMap<&'static str, f64> {
        let mut totals: BTreeMap<&'static str, f64> = [
            "bench", "circuit", "core", "frame", "backend", "formats", "serve",
        ]
        .into_iter()
        .map(|l| (l, 0.0))
        .collect();
        for (s, own) in self.spans.iter().zip(&self.self_s) {
            *totals.entry(s.layer).or_default() += own;
        }
        totals
    }

    /// Per stage (the part of the operation label before the first dot):
    /// the wall time of its root spans and each layer's self time. The
    /// self times of a stage sum to its wall time.
    fn stage_table(&self) -> Json {
        let mut stages: BTreeMap<&str, (f64, BTreeMap<&str, f64>)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&self.self_s) {
            let stage = self.label(s).split('.').next().unwrap_or("");
            let entry = stages.entry(stage).or_default();
            if s.parent == 0 {
                entry.0 += s.duration_s();
            }
            *entry.1.entry(s.layer).or_default() += own;
        }
        Json::Obj(
            stages
                .into_iter()
                .map(|(stage, (wall, layers))| {
                    let sum: f64 = layers.values().sum();
                    let layers = layers.into_iter().map(|(l, v)| (l, Json::Num(v)));
                    (
                        stage.to_owned(),
                        Json::obj([
                            ("wall_s", Json::Num(wall)),
                            ("self_sum_s", Json::Num(sum)),
                            ("self_s", Json::obj(layers)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Workload descriptor: circuit shape, exact counts of the symbolic
/// representation, and the store and method Auto resolved to.
fn descriptor(w: &Workload, built: &stages::Built, c: &stages::Counts, bytes: usize) -> Json {
    let stats = built.circuit.stats();
    let words = w.stream_shots.div_ceil(64);
    Json::obj([
        ("format", Json::str(w.format.name())),
        ("stream_shots", Json::Int(w.stream_shots as u64)),
        ("circuit_bytes", Json::Int(bytes as u64)),
        ("qubits", Json::Int(u64::from(built.circuit.num_qubits()))),
        ("gates", Json::Int(stats.gates as u64)),
        ("measurements", Json::Int(stats.measurements as u64)),
        ("detectors", Json::Int(stats.detectors as u64)),
        ("observables", Json::Int(stats.observables as u64)),
        ("noise_symbols", Json::Int(stats.noise_symbols as u64)),
        ("symbols", Json::Int(c.symbols as u64)),
        ("random_records", Json::Int(c.random_records as u64)),
        ("nnz_m", Json::Int(c.nnz_m as u64)),
        ("nnz_det", Json::Int(c.nnz_det as u64)),
        ("nnz_obs", Json::Int(c.nnz_obs as u64)),
        ("phase_store", Json::str(c.phase_store)),
        ("sampling_method", Json::str(c.sampling_method)),
        (
            "record_word_xors_computed",
            Json::Int((c.nnz_m * words) as u64),
        ),
    ])
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The checkout the benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a subdirectory of the repository")
        .to_path_buf()
}

/// Cores, SIMD level, compiler, git commit and a digest of the program's
/// sources: results from different hosts or builds are never compared
/// blindly. The checkout a run builds in need not be a git repository,
/// so the source digest identifies the program either way.
fn host_stamp() -> Json {
    use symphase::bitmat::simd;
    let root = repo_root();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&root)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(&root))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unavailable".to_owned(), |s| s.trim().to_owned());
    Json::obj([
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("simd_detected", Json::str(simd::detected_level().name())),
        ("simd_active", Json::str(simd::active_level().name())),
        ("rustc", Json::str(env!("E2EBENCH_RUSTC"))),
        ("git_commit", Json::str(commit)),
        ("source_sha256", Json::str(source_digest(&root))),
    ])
}

/// SHA-256 over the path and contents of every file of the program:
/// the root manifest and lock file, `src`, `crates` and `vendor`.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["src", "crates", "vendor"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut hasher = symphase::serve::Sha256::new();
    for file in files {
        let Ok(bytes) = std::fs::read(&file) else {
            continue;
        };
        let rel = file.strip_prefix(root).unwrap_or(&file);
        hasher.update(rel.to_string_lossy().as_bytes());
        hasher.update(&bytes);
    }
    hasher
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Writes the spans of a traced run as JSON lines under `.bench_out/`.
fn write_spans(
    workload: &str,
    seed: u64,
    spans: &[trace::Span],
    labels: &[(u64, String)],
) -> std::io::Result<PathBuf> {
    use std::io::Write;
    let labels: BTreeMap<u64, &str> = labels.iter().map(|(id, l)| (*id, l.as_str())).collect();
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        let line = Json::obj([
            ("id", Json::Int(s.id)),
            ("parent", Json::Int(s.parent)),
            ("op", Json::Int(s.op)),
            ("label", Json::str(*labels.get(&s.op).unwrap_or(&"daemon"))),
            ("layer", Json::str(s.layer)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Int(s.start_ns)),
            ("end_ns", Json::Int(s.end_ns)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()?;
    Ok(path)
}
