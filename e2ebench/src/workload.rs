//! The workloads: one circuit per workload, the output format its shots
//! are written in, and how a run spends its time across the stages.
//!
//! Every run takes its circuit through the whole user path (set-up,
//! `sample`, `detect` and `dem`) and drives the same daemon load, so
//! every end-to-end metric exists on every workload; the workloads differ
//! in which stage dominates.

use symphase::circuit::generators::{
    noisy_ghz_chain, surface_code_memory_in, MemoryBasis, SurfaceCodeConfig,
};
use symphase::circuit::Circuit;
use symphase::sampler_api::formats::SampleFormat;
use symphase::sampler_api::CHUNK_SHOTS;

/// Length of a daemon window.
pub const WINDOW_S: f64 = 1.5;

/// Cold requests per window, evenly spaced. With [`COLD_QUBITS`] they
/// hold the cache lock for about 12% of a window.
pub const COLD_PER_WINDOW: usize = 3;

/// How long each cold request is sent before a warm one falls due. The
/// cold windows sit on the warm grid, so without a lead the cold request
/// and the warm one due with it would race for the cache lock; with it,
/// that warm request always waits for the whole build, less the lead, and
/// the warm tail does not jump with who won the race.
pub const COLD_LEAD_S: f64 = 0.010;

/// Qubits of each cold GHZ chain; its symbolic init (about 60 ms) is the
/// cold cost.
const COLD_QUBITS: u32 = 256;

/// Rate of the warm requests. One warm request takes about 3 ms to serve,
/// so at this rate the warm load keeps the two workers about 6% busy and
/// warm requests queue only behind cold builds.
pub const WARM_RATE_HZ: f64 = 40.0;

/// Shots per warm request: one chunk of the warm circuit, as `b8`.
pub const WARM_SHOTS: usize = CHUNK_SHOTS;

/// A workload. A run is a sequence of rounds, each of them the whole user
/// path — `dem`, set-up, the `sample`/`detect` streams, and a daemon
/// window — so every metric samples the whole run. Rounds go on while
/// they still end within `--seconds`, and at least three run.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub format: SampleFormat,
    circuit: fn() -> Circuit,
    /// Shots per `sample`/`detect` call.
    pub stream_shots: usize,
    /// Shots each engine draws for the cross-engine rate check.
    pub agreement_shots: usize,
}

fn surface(rounds: usize) -> Circuit {
    // The `symphase gen surface-code --distance 5` defaults.
    surface_code_memory_in(
        &SurfaceCodeConfig {
            distance: 5,
            rounds,
            data_error: 0.001,
            measure_error: 0.001,
        },
        MemoryBasis::Z,
    )
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "surface_d5_r1000",
        format: SampleFormat::B8,
        circuit: || surface(1000),
        stream_shots: 2048,
        agreement_shots: 1024,
    },
    Workload {
        name: "surface_d5_r25",
        format: SampleFormat::Plain01,
        circuit: || surface(25),
        stream_shots: 100_000,
        agreement_shots: 8192,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: derives every seed-dependent input from `--seed`.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// What the program receives in a run: circuit text only.
    pub fn text(&self) -> String {
        (self.circuit)().to_string()
    }
}

/// The circuit of every warm daemon request, on every workload: the
/// `surface_d5_r25` memory.
pub fn warm_text() -> String {
    surface(25).to_string()
}

/// The circuit of cold request `index` of a run: a GHZ chain whose noise
/// probability is unique to the seed and the index, so no two share a
/// cache entry.
pub fn cold_text(seed: u64, index: usize) -> String {
    let base = mix(seed, 0xC01D) % 100_000 * 1024;
    let jitter = (base + index as u64) as f64 * 1e-12;
    noisy_ghz_chain(COLD_QUBITS, 0.001 + jitter).to_string()
}
