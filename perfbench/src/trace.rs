//! The traced run: outside-in timing of each layer's public calls.
//!
//! Nothing here adds a span or counter to the program. Instead the
//! tracer re-runs, from outside the engine, the public calls each layer
//! makes for the same inputs, and times them:
//!
//! * **setup** — `MaintainedIndex::new_owned`, `FamilySuite::rebuild`,
//!   and, on a durable workload, the genesis checkpoint
//!   (`EdgeSetSnapshot::from_graph(..).encode()` into
//!   `CheckpointStore::write_full`), once per shard;
//! * **write windows** — every acked window is replayed on a private copy
//!   of each shard's state, stage by stage in the engine's order:
//!   `apply_batch_parallel`, `FamilySuite::apply`, on a durable workload
//!   `WalWriter::append` + `sync` on a private log, the publish copy
//!   (`MaintainedIndex::clone` + `FamilySuite::clone`), dropping the copy
//!   it displaces, and, durable again, the engine's checkpoint cadence.
//!   Stages the workload's engine does not run are not replayed, and
//!   their metrics print 0;
//! * **queries** — each answered request is walked again directly on
//!   every shard's published snapshot (`Snapshot::query_family`), which
//!   splits `execute` into the walk and everything around it;
//! * **recovery** — `esd_serve::durability::recover_owned` and
//!   `FamilySuite::rebuild` on a copy of the durable directory.

use crate::stats::{mean, ratio, Samples};
use esd_core::index::delta::EdgeSetSnapshot;
use esd_core::maintain::GraphUpdate;
use esd_core::{EdgeOwnership, Family, FamilySuite, MaintainedIndex};
use esd_durability::{CheckpointStore, WalOptions, WalWriter};
use esd_graph::Graph;
use esd_serve::{DurabilityConfig, QueryRequest, ServiceHandle};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// The three non-component families, in the order their per-family
/// metrics are printed.
pub const SCAN_FAMILIES: [Family; 3] =
    [Family::Truss, Family::ParameterFree, Family::EgoBetweenness];

/// One shard's replay copy.
struct Replay {
    index: MaintainedIndex,
    families: FamilySuite,
    /// The private WAL and checkpoint store; only where the workload's
    /// engine is durable.
    log: Option<ReplayLog>,
    /// The last published copy; replacing it is the reclaim the engine
    /// pays when a new snapshot displaces the old one.
    published: Option<(MaintainedIndex, FamilySuite)>,
}

/// A shard's private WAL and checkpoint store, at the engine's cadence.
struct ReplayLog {
    wal: WalWriter,
    ckpts: CheckpointStore,
    base: EdgeSetSnapshot,
    base_epoch: u64,
    publications: u64,
}

impl ReplayLog {
    /// The engine's checkpoint step: a delta against the last full
    /// checkpoint, or a fresh full one past the change-ratio threshold.
    fn checkpoint(
        &mut self,
        index: &MaintainedIndex,
        epoch: u64,
        full_ratio_permille: u32,
    ) -> std::io::Result<()> {
        let current = EdgeSetSnapshot::from_graph(index.graph());
        let delta = self.base.diff(&current);
        if delta.change_ratio(&self.base) * 1000.0 >= f64::from(full_ratio_permille) {
            self.ckpts.write_full(epoch, &current.encode())?;
            self.base = current;
            self.base_epoch = epoch;
        } else {
            self.ckpts
                .write_delta(self.base_epoch, epoch, &delta.encode())?;
        }
        Ok(())
    }
}

/// Setup stages, summed over shards, in milliseconds; `genesis_ms` is 0
/// where the engine is not durable.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTrace {
    pub maintain_init_ms: f64,
    pub family_init_ms: f64,
    pub genesis_ms: f64,
    /// The first snapshot's copy of the index and suite.
    pub snapshot_copy_ms: f64,
}

/// Per-window stage timings, each summed over shards.
#[derive(Debug, Default)]
pub struct WindowTrace {
    pub apply: Samples,
    pub family: Samples,
    pub wal_append: Samples,
    pub wal_fsync: Samples,
    pub copy: Samples,
    pub reclaim: Samples,
    /// Only windows that wrote a checkpoint.
    pub ckpt: Samples,
    pub recomputed: Vec<u64>,
    pub family_recomputed: Vec<u64>,
    /// Ack latency minus the stage sum that is on the engine's ack path.
    pub fanout: Samples,
    pub acks: Samples,
}

/// The replaying tracer for one workload.
pub struct Tracer {
    shards: Vec<Replay>,
    pipeline_threads: usize,
    policy: DurabilityConfig,
    epoch: u64,
    /// Set once a window was acked without being replayed; the copies no
    /// longer match the engine.
    stale: bool,
    pub recording: bool,
    pub setup: SetupTrace,
    pub windows: WindowTrace,
}

impl Tracer {
    /// Builds one replay copy per shard of `g`, timing each setup stage;
    /// `durable` adds the private WAL and checkpoint store under `dir`.
    pub fn new(
        g: &Graph,
        shards: u32,
        pipeline_threads: usize,
        durable: bool,
        dir: &Path,
    ) -> std::io::Result<Self> {
        let mut setup = SetupTrace::default();
        let mut replays = Vec::with_capacity(shards as usize);
        for i in 0..shards {
            let own = EdgeOwnership::of(i, shards);
            let t = Instant::now();
            let index = MaintainedIndex::new_owned(g, own);
            setup.maintain_init_ms += ms(t.elapsed());
            let t = Instant::now();
            let families = FamilySuite::rebuild(index.graph(), own);
            setup.family_init_ms += ms(t.elapsed());
            let t = Instant::now();
            let first = black_box((index.clone(), families.clone()));
            setup.snapshot_copy_ms += ms(t.elapsed());
            let log = if durable {
                let shard_dir = dir.join(format!("shard-{i}"));
                let t = Instant::now();
                let ckpts = CheckpointStore::open(&shard_dir)?;
                let base = EdgeSetSnapshot::from_graph(index.graph());
                ckpts.write_full(0, &base.encode())?;
                setup.genesis_ms += ms(t.elapsed());
                Some(ReplayLog {
                    wal: WalWriter::open(&shard_dir, WalOptions::default())?,
                    ckpts,
                    base,
                    base_epoch: 0,
                    publications: 0,
                })
            } else {
                None
            };
            replays.push(Replay {
                index,
                families,
                log,
                published: Some(first),
            });
        }
        Ok(Self {
            shards: replays,
            pipeline_threads,
            policy: DurabilityConfig::new(dir),
            epoch: 0,
            stale: false,
            recording: false,
            setup,
            windows: WindowTrace::default(),
        })
    }

    /// Marks the copies out of date: a window was acked without a replay.
    pub fn mark_stale(&mut self) {
        self.stale = true;
    }

    /// Replays one acked window on every shard's copy, in the engine's
    /// stage order, and records the stage times against the `ack`.
    pub fn replay(&mut self, updates: &[GraphUpdate], ack: Duration) -> std::io::Result<()> {
        assert!(
            !self.stale,
            "replay copies fell behind the engine; a traced round followed an untraced write"
        );
        self.epoch += 1;
        let payload = esd_serve::durability::encode_updates(updates);
        let [mut apply, mut family, mut append, mut fsync, mut copy, mut reclaim] =
            [Duration::ZERO; 6];
        let mut ckpt = None;
        let (mut recomputed, mut family_recomputed) = (0u64, 0u64);
        for r in &mut self.shards {
            let t = Instant::now();
            let outcome = r.index.apply_batch_parallel(updates, self.pipeline_threads);
            apply += t.elapsed();
            recomputed += outcome.report.recomputed_edges;
            if outcome.stats.applied == 0 {
                continue; // the engine publishes nothing for an all-no-op window
            }
            let t = Instant::now();
            let report = r
                .families
                .apply(r.index.graph(), updates, self.pipeline_threads);
            family += t.elapsed();
            family_recomputed += report.recomputed as u64;
            if let Some(log) = &mut r.log {
                let t = Instant::now();
                log.wal.append(self.epoch, &payload)?;
                append += t.elapsed();
                let t = Instant::now();
                log.wal.sync()?;
                fsync += t.elapsed();
            }
            let t = Instant::now();
            let published = black_box((r.index.clone(), r.families.clone()));
            copy += t.elapsed();
            let t = Instant::now();
            r.published = Some(published);
            reclaim += t.elapsed();
            let Some(log) = &mut r.log else {
                continue;
            };
            log.publications += 1;
            if log.publications >= self.policy.checkpoint_interval {
                log.publications = 0;
                let t = Instant::now();
                log.checkpoint(&r.index, self.epoch, self.policy.delta_ratio_permille)?;
                *ckpt.get_or_insert(Duration::ZERO) += t.elapsed();
            }
        }
        if !self.recording {
            return Ok(());
        }
        let w = &mut self.windows;
        w.apply.push(apply);
        w.family.push(family);
        w.wal_append.push(append);
        w.wal_fsync.push(fsync);
        w.copy.push(copy);
        w.reclaim.push(reclaim);
        if let Some(d) = ckpt {
            w.ckpt.push(d);
        }
        w.recomputed.push(recomputed);
        w.family_recomputed.push(family_recomputed);
        let on_path = apply + family + append + fsync + copy + reclaim + ckpt.unwrap_or_default();
        w.fanout
            .push_nanos(ack.as_nanos() as i128 - on_path.as_nanos() as i128);
        w.acks.push(ack);
        Ok(())
    }

    /// Σ of the write stages' medians, in ns.
    pub fn write_stage_sum_ns(&self) -> f64 {
        let w = &self.windows;
        [
            &w.apply,
            &w.family,
            &w.wal_append,
            &w.wal_fsync,
            &w.copy,
            &w.reclaim,
        ]
        .iter()
        .map(|s| s.median_ns())
        .sum()
    }

    /// One human-readable line with the sample counts behind the
    /// per-layer medians.
    pub fn summary(&self, q: &QueryTrace) -> String {
        let w = &self.windows;
        format!(
            "trace samples: {} write windows ({} with a checkpoint), {} component misses, \
             {} component hits, family walks {}/{}/{}; WAL and checkpoint stages replayed: {}",
            w.acks.len(),
            w.ckpt.len(),
            q.component_miss.len(),
            q.component_hit.len(),
            q.family_walk[0].len(),
            q.family_walk[1].len(),
            q.family_walk[2].len(),
            self.shards.iter().any(|r| r.log.is_some())
        )
    }

    pub fn mean_recomputed(&self) -> (f64, f64) {
        (
            mean(&self.windows.recomputed),
            mean(&self.windows.family_recomputed),
        )
    }
}

/// Query-side trace of one client thread; merged after each window.
#[derive(Debug, Default)]
pub struct QueryTrace {
    pub component_hit: Samples,
    pub component_miss: Samples,
    pub component_walk: Samples,
    pub component_overhead: Samples,
    /// `execute` minus Σ per-shard walks, over cache misses of every family.
    pub gather: Samples,
    pub family_walk: [Samples; 3],
    pub hits: u64,
    pub answered: u64,
}

impl QueryTrace {
    /// Walks `request` directly on every shard's current snapshot and
    /// splits the observed `execute` time around it.
    pub fn observe(
        &mut self,
        shards: &[ServiceHandle],
        request: QueryRequest,
        execute: Duration,
        cache_hit: bool,
    ) {
        let mut walk = Duration::ZERO;
        for shard in shards {
            let snapshot = shard.snapshot();
            let t = Instant::now();
            let results = snapshot.query_family(request.family, request.k, request.tau);
            walk += t.elapsed();
            black_box(results);
        }
        self.answered += 1;
        self.hits += u64::from(cache_hit);
        let residual = execute.as_nanos() as i128 - walk.as_nanos() as i128;
        if !cache_hit {
            self.gather.push_nanos(residual);
        }
        match SCAN_FAMILIES.iter().position(|&f| f == request.family) {
            Some(i) => self.family_walk[i].push(walk),
            None if cache_hit => self.component_hit.push(execute),
            None => {
                self.component_miss.push(execute);
                self.component_walk.push(walk);
                self.component_overhead.push_nanos(residual);
            }
        }
    }

    pub fn merge(&mut self, other: &QueryTrace) {
        self.component_hit.extend(&other.component_hit);
        self.component_miss.extend(&other.component_miss);
        self.component_walk.extend(&other.component_walk);
        self.component_overhead.extend(&other.component_overhead);
        self.gather.extend(&other.gather);
        for (mine, theirs) in self.family_walk.iter_mut().zip(&other.family_walk) {
            mine.extend(theirs);
        }
        self.hits += other.hits;
        self.answered += other.answered;
    }

    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits as f64, self.answered as f64)
    }
}

/// Recovery stages on a copy of a durable directory, summed over shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryTrace {
    pub index_ms: f64,
    pub family_ms: f64,
    pub replayed_records: u64,
}

/// Runs `recover_owned` and the family rebuild per shard on `copy`, a
/// copy of the engine's durable directory.
pub fn trace_recovery(copy: &Path, shards: u32) -> std::io::Result<RecoveryTrace> {
    let mut out = RecoveryTrace::default();
    for i in 0..shards {
        let own = EdgeOwnership::of(i, shards);
        let t = Instant::now();
        let recovered =
            esd_serve::durability::recover_owned(&copy.join(format!("shard-{i}")), own)?
                .ok_or_else(|| std::io::Error::other("durable directory holds no checkpoint"))?;
        out.index_ms += ms(t.elapsed());
        out.replayed_records += recovered.report.wal_records_replayed;
        let t = Instant::now();
        let suite = black_box(FamilySuite::rebuild(recovered.index.graph(), own));
        out.family_ms += ms(t.elapsed());
        drop(suite);
    }
    Ok(out)
}

/// Copies a durable directory tree (the per-shard directories and their
/// files).
pub fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
