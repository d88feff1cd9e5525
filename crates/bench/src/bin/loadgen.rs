//! Closed-loop load generator for the `esd-serve` query service.
//!
//! Drives a mixed read/write workload through [`esd_serve::ServiceHandle`]s at each
//! requested worker count and reports throughput, tail latency, and cache
//! behaviour, then measures query availability while a 1000-edge batch is
//! being applied. The first row (0 workers = inline single-threaded mode)
//! is the scaling baseline.
//!
//! ```text
//! loadgen [--n V] [--ops N] [--write-ratio R] [--workers 0,2,8] [--seed S]
//!         [--shards 1,4] [--k-set 10,50,100] [--families component,truss]
//!         [--durable]
//! ```
//!
//! Queries draw `k` log-uniformly from `[16, 2048]`, `τ` from `[1, 4]`,
//! and the query [`Family`] uniformly from the `--families` mix (default:
//! component only), so the result cache sees a realistic mix of hits and
//! misses instead of one key served entirely from cache. `--k-set`
//! replaces the log-uniform draw with a fixed menu of `k` values — the API/dashboard serving shape
//! where repeated keys let the result caches work; it is the reference
//! configuration for the sharded read-scaling report
//! (`docs/benchmarking.md`).
//!
//! With `--durable`, every phase is run twice — once in-memory and once
//! with the write-ahead log armed under the ack-after-fsync policy on a
//! scratch directory — so the `wal` column makes the durability tax
//! directly readable: same workload, same workers, `u_p99_us` with and
//! without an fsync on the ack path.
//!
//! With `--shards 1,4` each phase runs once per shard count through the
//! shard-transparent [`EngineHandle`] — the identical client loop against
//! a [`ShardedService`] — and the report prints per-phase read throughput
//! plus the read-scaling ratio of every row against the first-shard-count
//! baseline at the same worker count.

use esd_core::maintain::{GraphUpdate, MutationBatch};
use esd_core::Family;
use esd_graph::{generators, Graph};
use esd_serve::{
    AckPolicy, DurabilityConfig, EngineHandle, QueryRequest, RetryPolicy, Service, ServiceConfig,
    ShardConfig, ShardedService,
};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Config {
    n: u32,
    ops: u64,
    write_ratio: f64,
    workers: Vec<usize>,
    shards: Vec<u32>,
    /// Fixed menu of query `k` values; empty means log-uniform 16..2048.
    /// A small repeated set models API/dashboard serving, where result
    /// caches (per-engine and merged) actually get to work.
    k_set: Vec<usize>,
    /// Query families in the read mix; each query draws one uniformly.
    /// The default (component only) reproduces the historical workload.
    families: Vec<Family>,
    seed: u64,
    durable: bool,
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        n: 600,
        ops: 2000,
        write_ratio: 0.05,
        workers: vec![0, 8],
        shards: vec![1],
        k_set: Vec::new(),
        families: vec![Family::Component],
        seed: 0xBE7C,
        durable: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--n" => cfg.n = value("--n")?.parse().map_err(|e| format!("bad --n: {e}"))?,
            "--ops" => {
                cfg.ops = value("--ops")?
                    .parse()
                    .map_err(|e| format!("bad --ops: {e}"))?;
            }
            "--write-ratio" => {
                cfg.write_ratio = value("--write-ratio")?
                    .parse()
                    .map_err(|e| format!("bad --write-ratio: {e}"))?;
            }
            "--workers" => {
                cfg.workers = value("--workers")?
                    .split(',')
                    .map(|t| t.trim().parse().map_err(|e| format!("bad --workers: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--shards" => {
                cfg.shards = value("--shards")?
                    .split(',')
                    .map(|t| t.trim().parse().map_err(|e| format!("bad --shards: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--durable" => cfg.durable = true,
            "--k-set" => {
                cfg.k_set = value("--k-set")?
                    .split(',')
                    .map(|t| t.trim().parse().map_err(|e| format!("bad --k-set: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--families" => {
                cfg.families = value("--families")?
                    .split(',')
                    .map(|t| {
                        Family::parse(t.trim())
                            .ok_or_else(|| format!("bad --families: unknown family {t:?}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            other => {
                return Err(format!(
                    "unknown flag {other} \
                     (--n | --ops | --write-ratio | --workers | --shards | --k-set \
                     | --families | --seed | --durable)"
                ))
            }
        }
    }
    if !(0.0..=1.0).contains(&cfg.write_ratio) {
        return Err("--write-ratio must be in [0, 1]".into());
    }
    if cfg.shards.contains(&0) {
        return Err("--shards entries must be at least 1".into());
    }
    if cfg.k_set.contains(&0) {
        return Err("--k-set entries must be at least 1".into());
    }
    if cfg.families.is_empty() {
        return Err("--families needs at least one family".into());
    }
    Ok(cfg)
}

/// Per-client outcome accounting. Nothing is silently dropped: every
/// attempted operation lands in exactly one of `succeeded` / `failed`,
/// with `shed` counting the succeeded queries that were answered from a
/// slightly-stale snapshot under overload.
#[derive(Debug, Default, Clone, Copy)]
struct ClientStats {
    attempted: u64,
    succeeded: u64,
    reads_ok: u64,
    /// Client-observed time spent inside query calls, in nanoseconds.
    /// `reads_ok / read_ns` is the read throughput with write stalls
    /// factored out — the comparable number across write-cost regimes.
    read_ns: u64,
    shed: u64,
    failed: u64,
}

impl ClientStats {
    fn merge(&mut self, other: ClientStats) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.reads_ok += other.reads_ok;
        self.read_ns += other.read_ns;
        self.shed += other.shed;
        self.failed += other.failed;
    }
}

/// One closed-loop client: issues `ops` operations back to back, each a
/// query (log-uniform `k`, random `τ`, family drawn from the configured
/// mix) or a single-edge update, retrying
/// transient failures with jittered backoff and tallying every outcome.
/// Shard-transparent: the same loop drives a [`esd_serve::ServiceHandle`] or a
/// [`ShardedHandle`](esd_serve::ShardedHandle) through [`EngineHandle`].
fn client<H: EngineHandle>(
    handle: &H,
    n: u32,
    ops: u64,
    write_ratio: f64,
    k_set: &[usize],
    families: &[Family],
    seed: u64,
) -> ClientStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let retry = RetryPolicy::new(seed);
    let mut stats = ClientStats::default();
    for _ in 0..ops {
        stats.attempted += 1;
        if rng.gen_bool(write_ratio) {
            let (a, b) = loop {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b {
                    break (a, b);
                }
            };
            let mut batch = MutationBatch::new();
            if rng.gen_bool(0.7) {
                batch.insert(a, b);
            } else {
                batch.remove(a, b);
            }
            match handle.submit_with_retry(batch, &retry) {
                Ok(_) => stats.succeeded += 1,
                Err(_) => stats.failed += 1,
            }
        } else {
            let k = if k_set.is_empty() {
                (16.0 * 128f64.powf(rng.gen::<f64>())) as usize // 16..2048
            } else {
                k_set[rng.gen_range(0..k_set.len())]
            };
            let tau = rng.gen_range(1..=4);
            let family = families[rng.gen_range(0..families.len())];
            let started = Instant::now();
            let outcome =
                handle.execute_with_retry(QueryRequest::new(k, tau).with_family(family), &retry);
            stats.read_ns += started.elapsed().as_nanos() as u64;
            match outcome {
                Ok(resp) => {
                    stats.succeeded += 1;
                    stats.reads_ok += 1;
                    if resp.degraded {
                        stats.shed += 1;
                    }
                }
                Err(_) => stats.failed += 1,
            }
        }
    }
    stats
}

/// What one phase measured, alongside its rendered table row.
struct PhaseOutcome {
    row: Vec<String>,
    throughput: f64,
    read_throughput: f64,
    update_p99: u64,
}

/// Drives the closed-loop clients over any engine handle and aggregates
/// their stats plus the wall-clock of the whole phase.
fn drive<H: EngineHandle>(
    handle: &H,
    cfg: &Config,
    workers: usize,
) -> (ClientStats, std::time::Duration) {
    let clients = workers.max(1);
    let per_client = cfg.ops / clients as u64;
    let started = Instant::now();
    let mut stats = ClientStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let handle = handle.clone();
                let seed = cfg.seed + 1000 * c as u64;
                scope.spawn(move || {
                    client(
                        &handle,
                        cfg.n,
                        per_client,
                        cfg.write_ratio,
                        &cfg.k_set,
                        &cfg.families,
                        seed,
                    )
                })
            })
            .collect();
        for h in handles {
            stats.merge(h.join().expect("client thread"));
        }
    });
    (stats, started.elapsed())
}

/// Runs one workload phase against a fresh service — sharded when
/// `shards > 1`, durably when `wal_dir` is given (WAL armed,
/// ack-after-fsync; per-shard subdirectories under a fleet) — and returns
/// the row for the report table plus the measured throughputs.
fn run_phase(
    g: &Graph,
    cfg: &Config,
    workers: usize,
    shards: u32,
    wal_dir: Option<&std::path::Path>,
) -> PhaseOutcome {
    let per_shard = ServiceConfig {
        workers,
        durability: wal_dir.map(|dir| {
            let mut durability = DurabilityConfig::new(dir);
            durability.ack_policy = AckPolicy::Fsync;
            durability
        }),
        ..ServiceConfig::default()
    };
    // (retries, q_p50, q_p99, u_p99, hit_rate) sampled before shutdown.
    // The sharded service's shard 0 sees every scatter-gather round, so its
    // registry is the representative one for latency/hit-rate columns.
    let sample = |m: &esd_serve::MetricsRegistry| {
        (
            m.retries.get(),
            m.query_latency.percentile_us(0.50),
            m.query_latency.percentile_us(0.99),
            m.update_latency.percentile_us(0.99),
            m.hit_rate(),
        )
    };
    let (stats, wall, (retries, q_p50, q_p99, update_p99, hit_rate)) = if shards > 1 {
        let service = ShardedService::try_start(g, &ShardConfig { shards, per_shard })
            .expect("scratch WAL directory opens");
        let handle = service.handle();
        let (stats, wall) = drive(&handle, cfg, workers);
        let m = sample(handle.shard_handles()[0].metrics());
        service.shutdown();
        (stats, wall, m)
    } else {
        let service = Service::try_start(g, &per_shard).expect("scratch WAL directory opens");
        let handle = service.handle();
        let (stats, wall) = drive(&handle, cfg, workers);
        let m = sample(handle.metrics());
        service.shutdown();
        (stats, wall, m)
    };
    let throughput = stats.succeeded as f64 / wall.as_secs_f64();
    // Reads per second of read-side busy time: write stalls (which scale
    // with the write fan-out, not the read path) are factored out.
    let read_throughput = stats.reads_ok as f64 / (stats.read_ns.max(1) as f64 / 1e9);
    let row = vec![
        shards.to_string(),
        workers.to_string(),
        if wal_dir.is_some() { "fsync" } else { "off" }.to_string(),
        stats.attempted.to_string(),
        stats.succeeded.to_string(),
        retries.to_string(),
        stats.shed.to_string(),
        stats.failed.to_string(),
        esd_bench::fmt_duration(wall),
        format!("{throughput:.0}"),
        format!("{read_throughput:.0}"),
        format!("{q_p50}"),
        format!("{q_p99}"),
        format!("{update_p99}"),
        format!("{:.0}%", hit_rate * 100.0),
    ];
    PhaseOutcome {
        row,
        throughput,
        read_throughput,
        update_p99,
    }
}

/// Applies one 1000-edge batch while reader threads keep querying, and
/// reports how many queries completed during the apply window — the
/// snapshot-isolation availability claim, measured.
fn run_update_storm(g: &Graph, cfg: &Config) {
    let service = Service::start(
        g,
        &ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5707);
    let mut batch = Vec::with_capacity(1000);
    while batch.len() < 1000 {
        let (a, b) = (rng.gen_range(0..cfg.n), rng.gen_range(0..cfg.n));
        if a == b {
            continue;
        }
        batch.push(if rng.gen_bool(0.7) {
            GraphUpdate::Insert(a, b)
        } else {
            GraphUpdate::Remove(a, b)
        });
    }

    let done = Arc::new(AtomicBool::new(false));
    let during = Arc::new(AtomicU64::new(0));
    let refused = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..2u64)
        .map(|r| {
            let handle = handle.clone();
            let done = Arc::clone(&done);
            let during = Arc::clone(&during);
            let refused = Arc::clone(&refused);
            let seed = cfg.seed ^ (0xAA00 + r);
            std::thread::spawn(move || {
                let retry = RetryPolicy::new(seed);
                while !done.load(Ordering::Relaxed) {
                    match handle.execute_with_retry(QueryRequest::new(100, 2), &retry) {
                        Ok(_) => during.fetch_add(1, Ordering::Relaxed),
                        Err(_) => refused.fetch_add(1, Ordering::Relaxed),
                    };
                }
            })
        })
        .collect();

    let (outcome, wall) = esd_bench::time(|| {
        handle
            .submit(MutationBatch::from_raw(batch))
            .expect("batch failed")
    });
    done.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    println!(
        "update storm: 1000-edge batch applied in {} ({} applied, {} no-op(s), {} rejected, epoch {}); \
         {} queries completed during the apply window, {} failed past retries (p99 {} µs)",
        esd_bench::fmt_duration(wall),
        outcome.applied,
        outcome.noop,
        outcome.rejected,
        outcome.epoch,
        during.load(Ordering::Relaxed),
        refused.load(Ordering::Relaxed),
        handle.metrics().query_latency.percentile_us(0.99),
    );
    service.shutdown();
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let n = cfg.n as usize;
    let g = generators::clique_overlap(n, n * 3 / 4, 6, cfg.seed);
    println!(
        "loadgen: {} vertices, {} edges; {} ops/phase, {:.0}% writes, families [{}], {} core(s)\n",
        g.num_vertices(),
        g.num_edges(),
        cfg.ops,
        cfg.write_ratio * 100.0,
        cfg.families
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join(", "),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );

    let mut table = esd_bench::TextTable::new(&[
        "shards",
        "workers",
        "wal",
        "attempted",
        "ok",
        "retries",
        "shed",
        "failed",
        "wall",
        "ops/s",
        "reads/s",
        "q_p50_us",
        "q_p99_us",
        "u_p99_us",
        "hit_rate",
    ]);
    let mut baseline = None;
    let mut speedups = Vec::new();
    // Read throughput of the first shard count, per worker count — the
    // baseline for the read-scaling lines.
    let mut read_base: Vec<(usize, f64)> = Vec::new();
    let mut read_scaling = Vec::new();
    let mut wal_costs = Vec::new();
    for &shards in &cfg.shards {
        for &workers in &cfg.workers {
            let phase = run_phase(&g, &cfg, workers, shards, None);
            table.row(phase.row);
            let base = *baseline.get_or_insert(phase.throughput);
            speedups.push((shards, workers, phase.throughput / base));
            match read_base.iter().find(|(w, _)| *w == workers) {
                None => read_base.push((workers, phase.read_throughput)),
                Some(&(_, base)) => {
                    read_scaling.push((shards, workers, phase.read_throughput / base));
                }
            }
            if cfg.durable {
                let dir = std::env::temp_dir().join(format!(
                    "esd_loadgen_wal_{}_{shards}_{workers}",
                    std::process::id()
                ));
                std::fs::remove_dir_all(&dir).ok();
                let durable = run_phase(&g, &cfg, workers, shards, Some(&dir));
                table.row(durable.row);
                wal_costs.push((shards, workers, phase.update_p99, durable.update_p99));
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
    println!("{}", table.render());
    for (shards, workers, speedup) in &speedups[1..] {
        println!("speedup at {shards} shard(s) × {workers} workers vs baseline: {speedup:.2}x");
    }
    for (shards, workers, scaling) in &read_scaling {
        println!(
            "read scaling at {shards} shard(s) × {workers} worker(s) vs {} shard(s): {scaling:.2}x",
            cfg.shards[0],
        );
    }
    for (shards, workers, off, fsync) in &wal_costs {
        println!(
            "durable ack cost at {shards} shard(s) × {workers} worker(s): u_p99 {fsync} µs with \
             fsync vs {off} µs off ({:+} µs per acked update)",
            *fsync as i64 - *off as i64,
        );
    }
    println!();
    run_update_storm(&g, &cfg);
}
