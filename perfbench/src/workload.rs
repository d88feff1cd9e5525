//! The three workloads and the rounds every run goes through.
//!
//! A run builds the surrogate graph, starts the measured engine, and then
//! repeats one round until `--seconds` are used up: a window of the
//! workload's closed-loop clients, a family probe where the clients read
//! no families, a write probe where they make no writes, and one start
//! (`setup_s`) and one restart (`recover_s`) of a fresh engine in a
//! helper process. Each rate, start and restart time is the median over
//! the rounds, and each latency percentile pools every round's samples,
//! so every metric samples the whole run rather than one stretch of it,
//! and a stretch of slow host time moves few rounds. The
//! correctness checks and a final restart on the served state follow. All
//! load goes through `EngineHandle`.

use crate::report::{end_to_end, per_layer, trace_overhead, EndToEnd, LayerInputs, Metric};
use crate::stats::{median, ratio, Samples};
use crate::trace::{copy_tree, trace_recovery, QueryTrace, RecoveryTrace, Tracer, SCAN_FAMILIES};
use crate::verify::{fingerprint, Grid};
use esd_core::index::delta::EdgeSetSnapshot;
use esd_core::maintain::{GraphUpdate, MutationBatch};
use esd_core::{EsdIndex, Family};
use esd_datasets::churn::{churn_trace, ChurnEvent, ChurnMix};
use esd_datasets::surrogates::{self, Scale};
use esd_durability::CheckpointStore;
use esd_graph::{DynamicGraph, Graph};
use esd_serve::{
    DurabilityConfig, EngineHandle, MetricsRegistry, QueryRequest, QueryResponse, RetryPolicy,
    ServiceConfig, ShardConfig, ShardedHandle, ShardedService,
};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One workload's shape; `BENCHMARK.json` records why each was chosen.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub shards: u32,
    pub workers: usize,
    pub pipeline_threads: usize,
    /// WAL armed with `AckPolicy::Fsync` and the default checkpoint policy.
    pub durable: bool,
    pub readers: usize,
    /// One writer client replaying the churn trace in each window.
    pub writer: bool,
    pub families: &'static [Family],
    /// Menu `k` is drawn from; `None` draws log-uniformly from [16, 2048].
    pub k_menu: Option<&'static [usize]>,
}

const ALL_FAMILIES: [Family; 4] = [
    Family::Component,
    Family::Truss,
    Family::ParameterFree,
    Family::EgoBetweenness,
];
const K_MENU: [usize; 6] = [10, 25, 50, 100, 250, 500];

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "read_only",
        shards: 1,
        workers: 2,
        pipeline_threads: 2,
        durable: false,
        readers: 2,
        writer: false,
        families: &[Family::Component],
        k_menu: None,
    },
    Spec {
        name: "churn_families",
        shards: 2,
        workers: 1,
        pipeline_threads: 1,
        durable: false,
        readers: 1,
        writer: true,
        families: &ALL_FAMILIES,
        k_menu: Some(&K_MENU),
    },
    Spec {
        name: "durable_churn",
        shards: 1,
        workers: 2,
        pipeline_threads: 2,
        durable: true,
        readers: 1,
        writer: true,
        families: &[Family::Component],
        k_menu: Some(&K_MENU),
    },
];

/// The surrogate every workload serves, at `Scale::Bench`.
const DATASET: &str = "Youtube";

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Run-size knobs; `--short` shrinks the fixed parts.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// How long the rounds run, in total.
    pub seconds: f64,
    pub trace: bool,
    /// Length of the warm-up round's window.
    pub warmup_s: f64,
    /// Length of each round's window of the workload's own clients.
    pub window_s: f64,
    /// Churn events of each round's write probe, on workloads whose
    /// clients do not write; each is followed by its inverse.
    pub probe_events: usize,
    /// Queries of each round's family probe, on workloads whose clients
    /// read the component family only.
    pub probe_queries: usize,
}

impl Options {
    pub fn new(seed: u64, seconds: f64, trace: bool, short: bool) -> Self {
        let full = Self {
            seed,
            seconds,
            trace,
            warmup_s: 1.0,
            window_s: 1.0,
            probe_events: 8,
            probe_queries: 45,
        };
        if !short {
            return full;
        }
        Self {
            warmup_s: 0.2,
            window_s: 0.2,
            probe_events: 2,
            probe_queries: 3,
            ..full
        }
    }
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness check passed.
    pub verified: bool,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
}

/// The churn updates the writer replays, and how far it got. The stream
/// never runs out: past its end it grows by another seeded chunk,
/// generated against the graph the whole stream so far leaves, so the
/// events stay valid in order however fast the engine acks.
struct WriteStream {
    seed: u64,
    chunk: usize,
    chunks: u64,
    events: Vec<GraphUpdate>,
    next: usize,
}

impl WriteStream {
    /// A stream whose first chunk holds `chunk` events against `g`.
    fn new(g: &Graph, chunk: usize, seed: u64) -> Self {
        let mut stream = Self {
            seed,
            chunk: chunk.max(1),
            chunks: 0,
            events: Vec::new(),
            next: 0,
        };
        stream.grow(g);
        stream
    }

    fn grow(&mut self, g: &Graph) {
        let tail = graph_after(g, &self.events);
        let seed = self.seed.wrapping_add(self.chunks);
        self.chunks += 1;
        self.events.extend(
            churn_trace(&tail, self.chunk, ChurnMix::default(), seed)
                .into_iter()
                .map(|e| match e {
                    ChurnEvent::Insert(u, v) => GraphUpdate::Insert(u, v),
                    ChurnEvent::Remove(u, v) => GraphUpdate::Remove(u, v),
                }),
        );
    }

    /// The next update to submit, growing the stream (from the initial
    /// graph `g`) when it is used up; also returns the time growing took.
    fn peek(&mut self, g: &Graph) -> Result<(GraphUpdate, Duration), String> {
        let mut grew = Duration::ZERO;
        if self.next == self.events.len() {
            let t = Instant::now();
            self.grow(g);
            grew = t.elapsed();
        }
        match self.events.get(self.next) {
            Some(&update) => Ok((update, grew)),
            None => Err("the churn generator produced no further event".into()),
        }
    }

    fn acked(&self) -> &[GraphUpdate] {
        &self.events[..self.next]
    }
}

/// `g` with `updates` applied in order.
fn graph_after(g: &Graph, updates: &[GraphUpdate]) -> Graph {
    let mut dynamic = DynamicGraph::from_graph(g);
    for u in updates {
        match *u {
            GraphUpdate::Insert(a, b) => {
                dynamic.ensure_vertex(a.max(b));
                dynamic.insert_edge(a, b);
            }
            GraphUpdate::Remove(a, b) => {
                dynamic.remove_edge(a, b);
            }
        }
    }
    dynamic.to_graph()
}

/// What one client-driven phase or probe measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub elapsed: Duration,
    /// Time the writer spent growing its churn stream instead of
    /// writing; left out of `writes_per_s`.
    pub client_busy: Duration,
    pub component: Samples,
    pub family: Samples,
    pub acks: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub queries: QueryTrace,
    /// First answer seen per `(k, τ)`; filled only while the graph is
    /// static, so every answer must match the static index.
    pub fingerprints: HashMap<(usize, u32), u64>,
}

impl Phase {
    pub fn reads(&self) -> usize {
        self.component.len() + self.family.len()
    }

    pub fn rate(&self, n: usize) -> f64 {
        ratio(n as f64, self.elapsed.as_secs_f64())
    }

    /// Acks per second of the writer's own time.
    pub fn write_rate(&self) -> f64 {
        ratio(
            self.acks.len() as f64,
            self.elapsed.saturating_sub(self.client_busy).as_secs_f64(),
        )
    }

    /// Heap bytes of the latency samples, for the client's share of the
    /// peak RSS.
    pub fn sample_bytes(&self) -> usize {
        [&self.component, &self.family, &self.acks]
            .iter()
            .map(|s| s.heap_bytes())
            .sum()
    }

    fn absorb(&mut self, other: &Phase) {
        self.client_busy += other.client_busy;
        self.component.extend(&other.component);
        self.family.extend(&other.family);
        self.acks.extend(&other.acks);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.queries.merge(&other.queries);
    }
}

struct Run<'a> {
    spec: &'a Spec,
    g: Graph,
    writes: WriteStream,
    /// The write probe's updates: churn events, then their inverses in
    /// reverse order, so every probe leaves the graph as it found it.
    probe: Vec<GraphUpdate>,
    /// Every update the write probes had acked, in order.
    probe_acked: Vec<GraphUpdate>,
    /// The family probe's keys, and where in them the next probe starts.
    family_keys: Vec<QueryRequest>,
    family_next: usize,
    family_hits: usize,
    reader_rngs: Vec<StdRng>,
    policy: RetryPolicy,
    /// First answer seen per `(k, τ)`; filled only on workloads whose
    /// clients do not write, so every answer must match the static index.
    fingerprints: HashMap<(usize, u32), u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
}

fn shard_config(spec: &Spec, durable_dir: Option<&Path>) -> ShardConfig {
    ShardConfig {
        shards: spec.shards,
        per_shard: ServiceConfig {
            workers: spec.workers,
            pipeline_threads: spec.pipeline_threads,
            durability: durable_dir.map(DurabilityConfig::new),
            ..ServiceConfig::default()
        },
    }
}

/// Starts an engine and waits for its first answer; returns it with the
/// elapsed seconds.
fn start(g: &Graph, cfg: &ShardConfig) -> Result<(ShardedService, f64), String> {
    let t = Instant::now();
    let svc = ShardedService::try_start(g, cfg).map_err(|e| format!("engine start: {e}"))?;
    svc.handle()
        .execute(QueryRequest::new(1, 1))
        .map_err(|e| format!("first query: {e}"))?;
    Ok((svc, t.elapsed().as_secs_f64()))
}

/// The `i`-th request of a reader: the workload's families in turn, so
/// every stretch of reads holds them in equal shares, with `k` and `τ`
/// drawn from `rng`.
fn draw(rng: &mut StdRng, spec: &Spec, i: usize) -> QueryRequest {
    let family = spec.families[i % spec.families.len()];
    let k = match spec.k_menu {
        Some(menu) => menu[rng.gen_range(0..menu.len())],
        None => {
            let (lo, hi) = (16f64.ln(), 2048f64.ln());
            (lo + rng.gen::<f64>() * (hi - lo)).exp().round() as usize
        }
    };
    QueryRequest::new(k, rng.gen_range(1..=4u32)).with_family(family)
}

/// One closed-loop read; `None` when it failed after the retry policy.
fn read_one(
    handle: &ShardedHandle,
    req: QueryRequest,
    policy: &RetryPolicy,
    traced: bool,
    p: &mut Phase,
) -> Option<QueryResponse> {
    let t = Instant::now();
    let result = handle.execute_with_retry(req, policy);
    let took = t.elapsed();
    p.attempted += 1;
    let Ok(resp) = result else {
        p.failed += 1;
        return None;
    };
    if req.family == Family::Component {
        p.component.push(took);
    } else {
        p.family.push(took);
    }
    if traced {
        p.queries
            .observe(handle.shard_handles(), req, took, resp.cache_hit);
    }
    Some(resp)
}

/// One closed-loop write of `update` as its own batch.
fn write_one(
    handle: &ShardedHandle,
    update: GraphUpdate,
    policy: &RetryPolicy,
    tracer: Option<&mut Tracer>,
    p: &mut Phase,
) -> Result<(), String> {
    let t = Instant::now();
    let result = handle.submit_with_retry(MutationBatch::from_raw(vec![update]), policy);
    let ack = t.elapsed();
    p.attempted += 1;
    match result {
        Ok(_) => {
            p.acks.push(ack);
            match tracer {
                Some(tr) => tr
                    .replay(&[update], ack)
                    .map_err(|e| format!("replay: {e}")),
                None => Ok(()),
            }
        }
        Err(e) => {
            // The acked prefix is ambiguous from here on; stop writing.
            p.failed += 1;
            Err(format!("write failed: {e}"))
        }
    }
}

/// The write probe's updates: the first `n` events of a seeded churn
/// trace on `g`, then their inverses in reverse order. Trace events are
/// valid in order, so the inverses undo them exactly.
fn probe_updates(g: &Graph, n: usize, seed: u64) -> Vec<GraphUpdate> {
    let events: Vec<GraphUpdate> = churn_trace(g, n, ChurnMix::default(), seed ^ 0x9E0B_E000)
        .into_iter()
        .map(|e| match e {
            ChurnEvent::Insert(u, v) => GraphUpdate::Insert(u, v),
            ChurnEvent::Remove(u, v) => GraphUpdate::Remove(u, v),
        })
        .collect();
    let undo = events.iter().rev().map(|u| match *u {
        GraphUpdate::Insert(a, b) => GraphUpdate::Remove(a, b),
        GraphUpdate::Remove(a, b) => GraphUpdate::Insert(a, b),
    });
    events.iter().copied().chain(undo).collect()
}

/// Every (family, k, τ) of the three scan families, k in 10..=500 and τ
/// in 1..4: each family's keys in a seeded order, taken in turn, so any
/// stretch of the cycle holds the three families in equal shares. The
/// 5 892 keys outnumber the 4096-entry LRU caches, so a probe cycling
/// through them misses the cache, and every stretch draws from the same
/// mix: a faster engine gets further through it, not harder queries.
fn family_keys(seed: u64) -> Vec<QueryRequest> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA31_1100);
    let per_family: Vec<Vec<QueryRequest>> = SCAN_FAMILIES
        .iter()
        .map(|&family| {
            let mut keys: Vec<QueryRequest> = (10..=500usize)
                .flat_map(|k| {
                    (1..=4u32).map(move |tau| QueryRequest::new(k, tau).with_family(family))
                })
                .collect();
            keys.shuffle(&mut rng);
            keys
        })
        .collect();
    (0..per_family[0].len())
        .flat_map(|i| per_family.iter().map(move |keys| keys[i]))
        .collect()
}

/// What one round measured: the figures whose medians over the rounds
/// are the end-to-end rates, start and restart times.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    pub reads_per_s: f64,
    pub writes_per_s: f64,
    pub setup_s: f64,
    pub recover_s: f64,
}

impl Run<'_> {
    fn count(&mut self, p: &Phase) {
        self.attempted += p.attempted;
        self.failed += p.failed;
    }

    /// Runs the workload's clients for `length`, tracing when `tracer`
    /// is given.
    fn window(
        &mut self,
        handle: &ShardedHandle,
        length: Duration,
        tracer: Option<&mut Tracer>,
    ) -> Phase {
        let stop = AtomicBool::new(false);
        let traced = tracer.is_some();
        let fingerprints = !self.spec.writer;
        let (spec, policy) = (self.spec, self.policy);
        let started = Instant::now();
        let (readers, writer) = std::thread::scope(|s| {
            let readers: Vec<_> = self
                .reader_rngs
                .iter_mut()
                .map(|rng| {
                    let stop = &stop;
                    s.spawn(move || {
                        let mut p = Phase::default();
                        for i in 0.. {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            let req = draw(rng, spec, i);
                            let Some(resp) = read_one(handle, req, &policy, traced, &mut p) else {
                                continue;
                            };
                            if fingerprints {
                                p.fingerprints
                                    .entry((req.k, req.tau))
                                    .or_insert_with(|| fingerprint(&resp.results));
                            }
                        }
                        p
                    })
                })
                .collect();
            let writer = spec.writer.then(|| {
                let (stop, g, stream, mut tracer) = (&stop, &self.g, &mut self.writes, tracer);
                s.spawn(move || {
                    let mut p = Phase::default();
                    let mut error = None;
                    while error.is_none() && !stop.load(Ordering::Relaxed) {
                        let tracer = tracer.as_deref_mut();
                        error = match stream.peek(g) {
                            Ok((update, grew)) => {
                                p.client_busy += grew;
                                let acked = write_one(handle, update, &policy, tracer, &mut p);
                                if acked.is_ok() {
                                    stream.next += 1;
                                }
                                acked.err()
                            }
                            Err(e) => Some(e),
                        };
                    }
                    (p, error)
                })
            });
            std::thread::sleep(length);
            stop.store(true, Ordering::Relaxed);
            let readers: Vec<Phase> = readers
                .into_iter()
                .map(|h| h.join().expect("reader thread panicked"))
                .collect();
            (
                readers,
                writer.map(|h| h.join().expect("writer thread panicked")),
            )
        });
        let mut out = Phase {
            elapsed: started.elapsed(),
            ..Phase::default()
        };
        for r in &readers {
            for (&key, &fp) in &r.fingerprints {
                if *self.fingerprints.entry(key).or_insert(fp) != fp {
                    self.problems.push(format!(
                        "answers for (k={}, tau={}) differ between reads",
                        key.0, key.1
                    ));
                }
            }
            out.absorb(r);
        }
        if let Some((w, error)) = writer {
            out.absorb(&w);
            self.problems.extend(error);
        }
        self.count(&out);
        out
    }

    /// The write probe: the probe's updates as sequential closed-loop
    /// writes, which leave the graph as they found it.
    fn write_probe(&mut self, handle: &ShardedHandle, mut tracer: Option<&mut Tracer>) -> Phase {
        let mut p = Phase::default();
        let started = Instant::now();
        for i in 0..self.probe.len() {
            let update = self.probe[i];
            match write_one(handle, update, &self.policy, tracer.as_deref_mut(), &mut p) {
                Ok(()) => self.probe_acked.push(update),
                Err(e) => {
                    self.problems.push(e);
                    break;
                }
            }
        }
        p.elapsed = started.elapsed();
        self.count(&p);
        p
    }

    /// The family probe: `n` closed-loop queries, continuing through the
    /// family key cycle where the last probe stopped.
    fn family_probe(&mut self, handle: &ShardedHandle, n: usize, traced: bool) -> Phase {
        let mut p = Phase::default();
        for _ in 0..n {
            let req = self.family_keys[self.family_next % self.family_keys.len()];
            self.family_next += 1;
            if let Some(resp) = read_one(handle, req, &self.policy, traced, &mut p) {
                self.family_hits += usize::from(resp.cache_hit);
            }
        }
        self.count(&p);
        p
    }

    /// One round: a window of the workload's clients, the probes it
    /// lacks, then one start and one restart in the helper process.
    fn round(
        &mut self,
        handle: &ShardedHandle,
        opts: &Options,
        window_s: f64,
        mut tracer: Option<&mut Tracer>,
        helper: &mut Helper,
        dirs: &Dirs,
    ) -> Result<(Round, Phase), String> {
        let traced = tracer.is_some();
        let mut p = self.window(handle, secs(window_s), tracer.as_deref_mut());
        let mut r = Round {
            reads_per_s: p.rate(p.reads()),
            writes_per_s: p.write_rate(),
            ..Round::default()
        };
        if !self.spec.families.contains(&Family::Truss) {
            let f = self.family_probe(handle, opts.probe_queries, traced);
            p.absorb(&f);
        }
        if !self.spec.writer {
            let w = self.write_probe(handle, tracer);
            r.writes_per_s = w.write_rate();
            p.absorb(&w);
        }
        r.setup_s = helper.start(&dirs.setup)?;
        copy_tree(&dirs.durable, &dirs.restart).map_err(|e| format!("copy durable dir: {e}"))?;
        r.recover_s = helper.restart(&dirs.restart)?;
        let _ = std::fs::remove_dir_all(&dirs.restart);
        Ok((r, p))
    }

    /// The graph the engine must be serving: the initial graph plus the
    /// acked churn prefix and the write probes.
    fn final_graph(&self) -> Graph {
        let acked: Vec<GraphUpdate> = self
            .writes
            .acked()
            .iter()
            .chain(&self.probe_acked)
            .copied()
            .collect();
        graph_after(&self.g, &acked)
    }

    fn acked_writes(&self) -> usize {
        self.writes.acked().len() + self.probe_acked.len()
    }

    /// Every distinct `(k, τ)` answer seen while the graph was static
    /// must equal the statically built index's.
    fn check_fingerprints(&mut self) {
        if self.fingerprints.is_empty() {
            return;
        }
        let index = EsdIndex::build_fast(&self.g);
        let bad = self
            .fingerprints
            .iter()
            .filter(|((k, tau), fp)| fingerprint(&index.query(*k, *tau)) != **fp)
            .count();
        if bad > 0 {
            self.problems.push(format!(
                "{bad} of {} distinct (k, tau) answers differ from EsdIndex::build_fast",
                self.fingerprints.len()
            ));
        }
        self.notes.push(format!(
            "checked {} distinct (k, tau) answers against EsdIndex::build_fast",
            self.fingerprints.len()
        ));
    }
}

/// The directories a run uses under its work directory.
struct Dirs {
    /// The measured engine's durable directory (durable workloads), or a
    /// genesis checkpoint of the initial graph per shard (the others):
    /// what the rounds' restarts recover from, copied fresh each time.
    durable: PathBuf,
    /// Where each round's restart runs, on a copy of `durable`.
    restart: PathBuf,
    /// Where each round's start writes its genesis on a durable workload.
    setup: PathBuf,
}

fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(all, steal)` CPU ticks of the machine from `/proc/stat`: stolen time
/// is when the hypervisor ran something else, which no code change can
/// affect, so each run reports its share.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Engine registry counters, summed over shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct Registry {
    pub published: u64,
    pub wal_bytes: u64,
    pub checkpoints: u64,
}

impl Registry {
    fn read(handle: &ShardedHandle) -> Self {
        let sum = |f: fn(&MetricsRegistry) -> u64| -> u64 {
            handle.shard_handles().iter().map(|h| f(h.metrics())).sum()
        };
        Self {
            published: sum(|m| m.snapshots_published.get()),
            wal_bytes: sum(|m| m.wal_bytes.get()),
            checkpoints: sum(|m| m.ckpt_full.get() + m.ckpt_delta.get()),
        }
    }
}

/// Runs one workload end to end.
pub fn run(spec: &'static Spec, opts: Options) -> Result<Outcome, String> {
    let root = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench_work");
    let work = root.join(format!("{}-{}", spec.name, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = Helper::spawn(spec, opts).and_then(|mut helper| {
        let outcome = run_in(spec, opts, &work, &mut helper)?;
        helper.finish()?;
        Ok(outcome)
    });
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&root); // only succeeds once no other run uses it
    result
}

fn run_in(
    spec: &'static Spec,
    opts: Options,
    work: &Path,
    helper: &mut Helper,
) -> Result<Outcome, String> {
    let g = surrogates::load(DATASET, Scale::Bench);
    // The first chunk is generated before setup and covers ~150 acks/s,
    // several times today's rate; a faster writer grows the stream.
    let chunk = 64 + 150 * (opts.seconds + opts.warmup_s + 1.0) as usize;
    let mut run = Run {
        spec,
        writes: WriteStream::new(&g, if spec.writer { chunk } else { 1 }, opts.seed),
        probe: if spec.writer {
            Vec::new()
        } else {
            probe_updates(&g, opts.probe_events, opts.seed)
        },
        probe_acked: Vec::new(),
        family_keys: family_keys(opts.seed),
        family_next: 0,
        family_hits: 0,
        reader_rngs: (0..spec.readers)
            .map(|i| StdRng::seed_from_u64(opts.seed ^ (0x5EED_0000 + i as u64)))
            .collect(),
        policy: RetryPolicy::new(opts.seed),
        fingerprints: HashMap::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        notes: vec![format!(
            "graph: {DATASET}/Bench n={} m={}; shards={} workers/shard={} pipeline_threads={} \
             durable={}",
            g.num_vertices(),
            g.num_edges(),
            spec.shards,
            spec.workers,
            spec.pipeline_threads,
            spec.durable
        )],
        g,
    };

    // The measured engine. Its own start is not a sample: every round
    // starts a fresh engine in the helper for `setup_s`.
    let dirs = Dirs {
        durable: work.join(if spec.durable { "engine" } else { "genesis" }),
        restart: work.join("restart"),
        setup: work.join("setup"),
    };
    if !spec.durable {
        persist_genesis(&run.g, spec.shards, &dirs.durable)
            .map_err(|e| format!("persist the initial graph: {e}"))?;
    }
    let (svc, _) = start(
        &run.g,
        &shard_config(spec, spec.durable.then_some(dirs.durable.as_path())),
    )?;
    let handle = svc.handle();

    let mut tracer = if opts.trace {
        let dir = work.join("trace");
        Some(
            Tracer::new(
                &run.g,
                spec.shards,
                spec.pipeline_threads,
                spec.durable,
                &dir,
            )
            .map_err(|e| format!("tracer: {e}"))?,
        )
    } else {
        None
    };

    // A warm-up round, not measured: the engine, the helper and the
    // caches settle before the first measured round.
    run.round(
        &handle,
        &opts,
        opts.warmup_s,
        tracer.as_mut(),
        helper,
        &dirs,
    )?;
    if let Some(t) = tracer.as_mut() {
        t.recording = true;
    }

    // The measured rounds, until `--seconds` are used up. The traced
    // invocation traces the rounds that start in the first half and
    // leaves the rest untraced; the two give the tracing overhead.
    let ticks_before = cpu_ticks();
    let mut rounds = Vec::new();
    let mut all = Phase::default();
    let (mut traced_pool, mut plain_pool) = (Phase::default(), Phase::default());
    let mut switched = false;
    let started = Instant::now();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if !rounds.is_empty() && elapsed >= opts.seconds && (!opts.trace || switched) {
            break;
        }
        let traced = opts.trace && !switched && (rounds.is_empty() || elapsed < opts.seconds / 2.0);
        if let (Some(t), false, false) = (tracer.as_mut(), traced, switched) {
            // From here on windows are acked without a replay.
            t.mark_stale();
            switched = true;
        }
        let (r, p) = run.round(
            &handle,
            &opts,
            opts.window_s,
            tracer.as_mut().filter(|_| traced),
            helper,
            &dirs,
        )?;
        rounds.push(r);
        all.absorb(&p);
        if opts.trace {
            let pool = if traced {
                &mut traced_pool
            } else {
                &mut plain_pool
            };
            pool.absorb(&p);
        }
    }
    let measured = started.elapsed();
    if let (Some((all0, steal0)), Some((all1, steal1))) = (ticks_before, cpu_ticks()) {
        run.notes.push(format!(
            "host: {:.1}% of CPU time stolen by the hypervisor during the rounds",
            100.0
                * ratio(
                    steal1.saturating_sub(steal0) as f64,
                    all1.saturating_sub(all0) as f64
                )
        ));
    }
    if !spec.families.contains(&Family::Truss) {
        run.notes.push(format!(
            "family probes: {} queries over a {}-key cycle, {} cache hits",
            run.family_next,
            run.family_keys.len(),
            run.family_hits
        ));
    }
    let peak_rss = vm_hwm_mib();
    let registry = Registry::read(&handle);
    let grid = Grid::run(&handle, &run.policy);
    run.attempted += grid.attempted;
    run.failed += grid.failed;

    // Correctness.
    run.check_fingerprints();
    let final_graph = run.final_graph();
    let mismatches = grid.check_against_rebuild(&final_graph);
    if mismatches > 0 {
        run.problems.push(format!(
            "{mismatches} of {} grid answers differ from a rebuild of the final graph",
            grid.answers.len()
        ));
    }
    run.notes.push(format!(
        "checked {} grid answers (6 k incl. whole rankings x 4 tau x 4 families) against \
         MaintainedIndex::new + \
         FamilySuite::new of the initial graph plus {} acked writes",
        grid.answers.len(),
        run.acked_writes()
    ));

    // Shutdown and restart on the final state. For workloads that serve
    // from memory, the directory holds what a durable engine's genesis
    // would: a full checkpoint of the final graph per shard.
    drop(handle);
    svc.shutdown();
    let final_dir = if spec.durable {
        dirs.durable.clone()
    } else {
        let dir = work.join("final");
        persist_genesis(&final_graph, spec.shards, &dir)
            .map_err(|e| format!("persist the final graph: {e}"))?;
        dir
    };
    let recovery = if opts.trace {
        let copy = work.join("recover-copy");
        copy_tree(&final_dir, &copy).map_err(|e| format!("copy durable dir: {e}"))?;
        trace_recovery(&copy, spec.shards).map_err(|e| format!("recovery trace: {e}"))?
    } else {
        RecoveryTrace::default()
    };
    let restart = helper.check(&final_dir)?;
    run.attempted += restart.attempted;
    run.failed += restart.failed;
    if restart.grid != grid.fingerprint() {
        run.problems
            .push("the restarted engine's grid differs from the pre-shutdown grid".into());
    }
    run.notes
        .push("checked the restarted engine's grid against the pre-shutdown grid".into());

    let setup: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let metrics = match &tracer {
        Some(tracer) => {
            let m = per_layer(&LayerInputs {
                tracer,
                queries: &traced_pool.queries,
                registry,
                acked: run.acked_writes() as f64,
                setup_s: median(&setup),
                recovery,
                overhead: trace_overhead(spec, &traced_pool, &plain_pool),
            });
            run.notes.push(tracer.summary(&traced_pool.queries));
            if let Some(w) = m.iter().find(|m| m.name == "write.unattributed_frac") {
                if w.value > 0.10 {
                    run.notes.push(format!(
                        "FLAG: write.unattributed_frac {:.3} > 0.10: the traced stages leave more \
                         than a tenth of the write ack unexplained",
                        w.value
                    ));
                }
            }
            m
        }
        None => end_to_end(&EndToEnd {
            rounds: &rounds,
            measured,
            all: &all,
            write_source: if spec.writer {
                "client windows"
            } else {
                "write probes"
            },
            family_source: if spec.families.contains(&Family::Truss) {
                "client windows"
            } else {
                "family probes"
            },
            peak_rss,
            client_mib: all.sample_bytes() as f64 / (1024.0 * 1024.0),
            attempted: run.attempted,
            failed: run.failed,
        }),
    };
    Ok(Outcome {
        metrics,
        attempted: run.attempted,
        failed: run.failed,
        verified: run.problems.is_empty(),
        problems: run.problems,
        notes: run.notes,
    })
}

/// What the helper reports for the final restart.
#[derive(Debug)]
pub struct Restart {
    /// Fingerprint of the restarted engine's grid.
    pub grid: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// A process of the benchmark's own that starts engines on request, so
/// the starts and restarts interleave with the rounds yet never share
/// the measured engine's process or heap: a restart begins from a heap
/// of its own, the way a real one does, and `peak_rss_mb` stays the
/// measured engine's.
struct Helper {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Helper {
    fn spawn(spec: &Spec, opts: Options) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("helper: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["--workload", spec.name, "--seed", &opts.seed.to_string()])
            .arg("--helper")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        let mut child = cmd.spawn().map_err(|e| format!("helper: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        match (stdin, stdout) {
            (Some(stdin), Some(stdout)) => Ok(Self {
                child,
                stdin: Some(stdin),
                stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err("helper: no pipes".into())
            }
        }
    }

    /// Sends one command line and returns the one-line reply.
    fn ask(&mut self, command: &str, dir: &Path) -> Result<String, String> {
        let stdin = self.stdin.as_mut().ok_or("helper: already finished")?;
        writeln!(stdin, "{command} {}", dir.display())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("helper: {e}"))?;
        let mut reply = String::new();
        self.stdout
            .read_line(&mut reply)
            .map_err(|e| format!("helper: {e}"))?;
        match reply.trim() {
            "" => Err(format!("helper exited during `{command}`")),
            r => r
                .strip_prefix("error: ")
                .map_or_else(|| Ok(r.to_string()), |e| Err(format!("helper: {e}"))),
        }
    }

    fn seconds(&mut self, command: &str, dir: &Path) -> Result<f64, String> {
        let reply = self.ask(command, dir)?;
        reply
            .parse()
            .map_err(|_| format!("helper: unexpected reply {reply:?}"))
    }

    /// Seconds to start an engine from the in-memory graph (a durable one
    /// with its genesis in `dir`) until its first answer.
    fn start(&mut self, dir: &Path) -> Result<f64, String> {
        self.seconds("start", dir)
    }

    /// Seconds to restart an engine on the durable directory `dir` until
    /// its first answer.
    fn restart(&mut self, dir: &Path) -> Result<f64, String> {
        self.seconds("restart", dir)
    }

    /// Restarts on `dir` and answers the grid.
    fn check(&mut self, dir: &Path) -> Result<Restart, String> {
        let reply = self.ask("check", dir)?;
        let mut fields = reply.split_whitespace();
        let mut next = || fields.next().unwrap_or_default();
        let (grid, attempted, failed) = (next(), next(), next());
        match (
            u64::from_str_radix(grid, 16),
            attempted.parse(),
            failed.parse(),
        ) {
            (Ok(grid), Ok(attempted), Ok(failed)) => Ok(Restart {
                grid,
                attempted,
                failed,
            }),
            _ => Err(format!("helper: unexpected reply {reply:?}")),
        }
    }

    /// Closes the command stream and waits for the helper to exit.
    fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        match self.child.wait() {
            Ok(status) if status.success() => Ok(()),
            Ok(status) => Err(format!("helper exited with {status}")),
            Err(e) => Err(format!("helper: {e}")),
        }
    }
}

impl Drop for Helper {
    /// On every way out of a run, the helper is stopped and reaped.
    fn drop(&mut self) {
        drop(self.stdin.take());
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The helper's side: answers `start <dir>`, `restart <dir>` and
/// `check <dir>` lines on standard input, one reply line each, until the
/// input ends.
pub fn helper(spec: &Spec, opts: Options) -> Result<(), String> {
    let g = surrogates::load(DATASET, Scale::Bench);
    let policy = RetryPolicy::new(opts.seed);
    // Recovery ignores the graph it is handed when the directory holds a
    // checkpoint, which it must.
    let empty = Graph::from_edges(0, &[]);
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let (command, dir) = line.split_once(' ').unwrap_or((line.as_str(), ""));
        let dir = Path::new(dir);
        let reply = match command {
            "start" => {
                let durable = spec.durable.then_some(dir);
                start(&g, &shard_config(spec, durable)).map(|(svc, secs)| {
                    svc.shutdown();
                    if durable.is_some() {
                        let _ = std::fs::remove_dir_all(dir);
                    }
                    secs.to_string()
                })
            }
            "restart" => start(&empty, &shard_config(spec, Some(dir))).map(|(svc, secs)| {
                svc.shutdown();
                secs.to_string()
            }),
            "check" => start(&empty, &shard_config(spec, Some(dir))).map(|(svc, _)| {
                let grid = Grid::run(&svc.handle(), &policy);
                svc.shutdown();
                format!(
                    "{:x} {} {}",
                    grid.fingerprint(),
                    grid.attempted,
                    grid.failed
                )
            }),
            other => Err(format!("unknown helper command {other:?}")),
        };
        let reply = reply.unwrap_or_else(|e| format!("error: {e}"));
        writeln!(out, "{reply}")
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Writes `g` as each shard's genesis checkpoint under `dir/shard-<i>`,
/// the layout `ShardedService` recovers from.
fn persist_genesis(g: &Graph, shards: u32, dir: &Path) -> std::io::Result<()> {
    let payload = EdgeSetSnapshot::from_graph(&DynamicGraph::from_graph(g)).encode();
    for i in 0..shards {
        CheckpointStore::open(&dir.join(format!("shard-{i}")))?.write_full(0, &payload)?;
    }
    Ok(())
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Draws `n` events the way the writer does, acking each one.
    fn drain(stream: &mut WriteStream, g: &Graph, n: usize) -> Vec<GraphUpdate> {
        (0..n)
            .map(|_| {
                let (update, _) = stream.peek(g).expect("the stream grows");
                stream.next += 1;
                update
            })
            .collect()
    }

    #[test]
    fn the_write_stream_grows_past_its_first_chunk_with_valid_events() {
        let g = surrogates::load(DATASET, Scale::Tiny);
        let mut stream = WriteStream::new(&g, 7, 11);
        let events = drain(&mut stream, &g, 50);
        assert!(stream.chunks > 1, "50 acks outran one 7-event chunk");
        let mut dynamic = DynamicGraph::from_graph(&g);
        for (i, u) in events.iter().enumerate() {
            let valid = match *u {
                GraphUpdate::Insert(a, b) => {
                    dynamic.ensure_vertex(a.max(b));
                    dynamic.insert_edge(a, b)
                }
                GraphUpdate::Remove(a, b) => dynamic.remove_edge(a, b),
            };
            assert!(valid, "event {i} ({u:?}) is a no-op on the graph before it");
        }
        let again = drain(&mut WriteStream::new(&g, 7, 11), &g, 50);
        assert_eq!(events, again, "the same seed gives the same stream");
    }

    #[test]
    fn the_write_probe_leaves_the_edge_set_as_it_found_it() {
        let g = surrogates::load(DATASET, Scale::Tiny);
        // Long enough that some edge is touched twice, so the inverses'
        // order matters.
        let probe = probe_updates(&g, 400, 3);
        assert_eq!(probe.len(), 800);
        let after = graph_after(&g, &probe);
        let edges = |g: &Graph| {
            let mut e: Vec<_> = (0..g.num_vertices() as u32)
                .flat_map(|u| g.neighbors(u).iter().map(move |&v| (u, v)))
                .collect();
            e.sort_unstable();
            e
        };
        assert_eq!(edges(&after), edges(&g));
        assert_eq!(graph_after(&after, &probe).num_edges(), g.num_edges());
    }
}
