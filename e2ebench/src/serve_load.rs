//! The daemon stage: an in-process `Server` on loopback driven by one
//! load process with two client threads — open-loop warm requests at a
//! fixed rate and cold requests on a fixed schedule. The load is the same
//! on every workload: warm requests are one chunk of the `surface_d5_r25`
//! memory as `b8`, cold requests distinct GHZ chains.
//!
//! Every latency is timed from when the request was due, not from when
//! the client got to send it, so a stall also counts against the
//! requests it delayed; how late the generator ran is reported too.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use symphase::backend::build_sampler;
use symphase::circuit::Circuit;
use symphase::sampler_api::formats::{RecordSource, SampleFormat};
use symphase::sampler_api::{EngineKind, Sampler, CHUNK_SHOTS};
use symphase::serve::{
    circuit_hash, request_sample, CircuitRef, SampleRequest, SamplerFactory, ServeOptions, Server,
};

use crate::checks;
use crate::stages::{ByteCounter, Ops, TimedSampler};
use crate::trace::{self, span};
use crate::workload::{
    self, mix, COLD_LEAD_S, COLD_PER_WINDOW, WARM_RATE_HZ, WARM_SHOTS, WINDOW_S,
};

/// One request and what came back.
pub struct Reply {
    /// Due time to the last payload byte.
    pub latency_s: f64,
    /// Due time to the first payload byte, which directly follows the
    /// response head.
    pub ttfb_s: f64,
    /// How late the client sent it.
    pub late_s: f64,
}

/// What the daemon windows of a run measured, appended to window by
/// window.
#[derive(Default)]
pub struct ServeRun {
    pub warm: Vec<Reply>,
    pub cold: Vec<Reply>,
    /// `Server::bind(..).spawn()` time of each window.
    pub start_s: Vec<f64>,
    pub hits: u64,
    pub misses: u64,
    pub busy: u64,
    /// Served payloads replayed offline, and how many of them differed.
    pub replayed: usize,
    pub replay_mismatches: usize,
}

fn sample_request(text: &str, seed: u64, start: usize, shots: usize) -> SampleRequest {
    SampleRequest {
        circuit: CircuitRef::Text(text.to_owned()),
        engine: EngineKind::SymPhase,
        source: RecordSource::Measurements,
        format: SampleFormat::B8,
        seed,
        start: start as u64,
        end: (start + shots) as u64,
    }
}

/// Sends `request` when it is due; `None` if the daemon refused it or
/// the transport failed (BUSY included). The payload comes back only
/// when `keep` is set.
fn send(
    addr: std::net::SocketAddr,
    label: &str,
    request: &SampleRequest,
    due: Instant,
    keep: bool,
) -> Option<(Reply, Option<Vec<u8>>)> {
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    let late_s = Instant::now().duration_since(due).as_secs_f64();
    let mut out = ByteCounter::keeping(keep);
    let result = trace::op(label.to_owned(), "serve", || {
        let _s = span("serve", "request_sample");
        request_sample(addr, request, &mut out)
    });
    let done = Instant::now();
    result.ok()?;
    let reply = Reply {
        latency_s: done.duration_since(due).as_secs_f64(),
        ttfb_s: out
            .first_write
            .unwrap_or(done)
            .duration_since(due)
            .as_secs_f64(),
        late_s,
    };
    Some((reply, out.kept))
}

/// The replies of one client, and the requests it kept the payload of.
type ClientLog = (Vec<Option<Reply>>, Vec<(SampleRequest, Vec<u8>)>);

/// Sends the scheduled requests of one client.
fn client(
    addr: std::net::SocketAddr,
    label: &str,
    schedule: impl Iterator<Item = (Instant, SampleRequest, bool)>,
) -> ClientLog {
    let mut replies = Vec::new();
    let mut kept = Vec::new();
    for (due, request, keep) in schedule {
        let reply = send(addr, label, &request, due, keep).map(|(reply, payload)| {
            if let Some(payload) = payload {
                kept.push((request, payload));
            }
            reply
        });
        replies.push(reply);
    }
    (replies, kept)
}

/// Runs one window of the load against a fresh daemon and appends what
/// it measured to `run`. Cold requests `first_cold..` of the run are
/// sent in this window. The daemon builds every sampler itself, through
/// `build_sampler`.
pub fn window(
    warm_text: &str,
    seed: u64,
    first_cold: usize,
    ops: &mut Ops,
    run: &mut ServeRun,
) -> Result<(), String> {
    let warm_hash = Circuit::parse(warm_text)
        .map(|c| circuit_hash(&c))
        .map_err(|e| e.to_string())?;
    let factory: SamplerFactory = Arc::new(move |circuit, config| {
        // The warm circuit's build is the warm-up's, not a cold one.
        let name = if circuit_hash(circuit) == warm_hash {
            "warm_init"
        } else {
            "init"
        };
        let sampler = {
            let _s = span("core", name);
            build_sampler(circuit, config)?
        };
        Ok(Box::new(TimedSampler(Arc::from(sampler))) as Box<dyn Sampler>)
    });
    let options = ServeOptions {
        workers: 2,
        threads: 1,
        ..ServeOptions::default()
    };
    let t0 = Instant::now();
    let handle = trace::op("serve.start".into(), "serve", || {
        let _s = span("serve", "bind_spawn");
        Server::bind("127.0.0.1:0", options, factory, None).map(Server::spawn)
    })
    .map_err(|e| format!("binding the daemon: {e}"))?;
    run.start_s.push(t0.elapsed().as_secs_f64());
    let addr = handle.addr();

    // Warm-up: the first request of the warm circuit fills its cache
    // entry; it is neither warm nor cold.
    let warmup = sample_request(warm_text, seed, 0, WARM_SHOTS);
    ops.record(send(addr, "serve.warmup", &warmup, Instant::now(), false).is_some());

    let n_warm = (WINDOW_S * WARM_RATE_HZ).round() as usize;
    let barrier = Barrier::new(2);
    let begin = Instant::now() + Duration::from_millis(20);
    let warm_schedule = (0..n_warm).map(|i| {
        let due = begin + Duration::from_secs_f64(i as f64 / WARM_RATE_HZ);
        let tag = mix(seed, i as u64);
        let start = (tag % 8) as usize * CHUNK_SHOTS;
        let request = sample_request(warm_text, tag, start, WARM_SHOTS);
        (due, request, i % 8 == 0)
    });
    let spacing = WINDOW_S / COLD_PER_WINDOW as f64;
    let cold_schedule = (0..COLD_PER_WINDOW).map(|j| {
        let due = begin + Duration::from_secs_f64((j as f64 + 0.5) * spacing - COLD_LEAD_S);
        let index = first_cold + j;
        let text = workload::cold_text(seed, index);
        let request = sample_request(&text, mix(seed, 0xC0 + index as u64), 0, 64);
        (due, request, index == 0)
    });
    let ((warm, warm_kept), (cold, cold_kept)) = std::thread::scope(|scope| {
        let warm = scope.spawn(|| {
            barrier.wait();
            client(addr, "serve.warm", warm_schedule)
        });
        let cold = scope.spawn(|| {
            barrier.wait();
            client(addr, "serve.cold", cold_schedule)
        });
        (
            warm.join().expect("warm client thread"),
            cold.join().expect("cold client thread"),
        )
    });
    for reply in warm.iter().chain(&cold) {
        ops.record(reply.is_some());
    }
    let stats = trace::op("serve.stats".into(), "serve", || {
        let _s = span("serve", "stats");
        handle.stats()
    });
    handle
        .shutdown()
        .map_err(|e| format!("stopping the daemon: {e}"))?;
    run.hits += stats.hits;
    run.misses += stats.misses;
    run.busy += stats.busy;
    run.warm.extend(warm.into_iter().flatten());
    run.cold.extend(cold.into_iter().flatten());
    // Replay the kept payloads offline now, so they need not be held.
    for (request, payload) in warm_kept.iter().chain(&cold_kept) {
        run.replayed += 1;
        run.replay_mismatches += usize::from(!checks::replay_matches(request, payload));
    }
    Ok(())
}
