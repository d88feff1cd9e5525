//! Naming and assembling the printed metrics: the end-to-end set of an
//! untraced run and the per-layer set of a traced one, in the order
//! `BENCHMARK.json` declares them.

use crate::stats::{median, ratio, Samples};
use crate::trace::{QueryTrace, RecoveryTrace, Tracer};
use crate::workload::{Phase, Registry, Round, Spec};
use std::time::Duration;

/// One metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Human-readable provenance (sample count, source).
    pub note: String,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64, note: String) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
        note,
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

pub struct EndToEnd<'a> {
    pub rounds: &'a [Round],
    /// Wall time of the measured rounds.
    pub measured: Duration,
    /// Every round's client samples, pooled for the tails.
    pub all: &'a Phase,
    pub write_source: &'static str,
    pub family_source: &'static str,
    pub peak_rss: f64,
    /// The part of it the client's latency samples hold.
    pub client_mib: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// The `--trace 0` metrics, in `BENCHMARK.json` order. Rates, starts
/// and restarts are medians over the rounds; latency percentiles come
/// from the samples of every round pooled, since one round holds too few
/// family queries, writes, or tail samples for its own percentile.
pub fn end_to_end(e: &EndToEnd<'_>) -> Vec<Metric> {
    let n = e.rounds.len();
    let over_rounds = |f: fn(&Round) -> f64| -> (f64, f64, f64) {
        let values: Vec<f64> = e.rounds.iter().map(f).collect();
        let (lo, hi) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        (median(&values), lo, hi)
    };
    let per_round = |name, unit, scale: f64, f: fn(&Round) -> f64, what: String| {
        let (mid, lo, hi) = over_rounds(f);
        metric(
            name,
            unit,
            mid / scale,
            format!(
                "median of {n} rounds, {:.4}..{:.4}; {what}",
                lo / scale,
                hi / scale
            ),
        )
    };
    let shape = |s: &Samples, scale: f64, source: &str| {
        let tail = [50.0, 90.0, 95.0, 99.0]
            .map(|q| format!("p{q} {:.1}", s.percentile_ns(q) / scale))
            .join(", ");
        format!("pooled n={}, {source}: {tail}", s.len())
    };
    let pooled = |name, unit, scale: f64, p: f64, s: &Samples, source: &str| {
        metric(
            name,
            unit,
            s.percentile_ns(p) / scale,
            shape(s, scale, source),
        )
    };
    let (component, fam, acks) = (&e.all.component, &e.all.family, &e.all.acks);
    vec![
        per_round(
            "setup_s",
            "s",
            1.0,
            |r| r.setup_s,
            "one start per round in the helper process".into(),
        ),
        per_round(
            "reads_per_s",
            "1/s",
            1.0,
            |r| r.reads_per_s,
            format!(
                "{} reads in {:.2} s of rounds",
                e.all.reads(),
                e.measured.as_secs_f64()
            ),
        ),
        pooled("query_p50_us", "us", 1e3, 50.0, component, "client windows"),
        pooled("query_p99_us", "us", 1e3, 99.0, component, "client windows"),
        pooled("family_query_p50_us", "us", 1e3, 50.0, fam, e.family_source),
        per_round(
            "writes_per_s",
            "1/s",
            1.0,
            |r| r.writes_per_s,
            format!("{} acks, {}", acks.len(), e.write_source),
        ),
        pooled("write_ack_p50_ms", "ms", 1e6, 50.0, acks, e.write_source),
        pooled("write_ack_p95_ms", "ms", 1e6, 95.0, acks, e.write_source),
        per_round(
            "recover_s",
            "s",
            1.0,
            |r| r.recover_s,
            "one restart per round in the helper process".into(),
        ),
        metric(
            "peak_rss_mb",
            "MiB",
            e.peak_rss,
            format!(
                "VmHWM after the rounds; {:.1} MiB of it are client latency samples",
                e.client_mib
            ),
        ),
        metric(
            "ok_frac",
            "ratio",
            1.0 - ratio(e.failed as f64, e.attempted as f64),
            format!(
                "1 - failed_frac; {} of {} operations failed",
                e.failed, e.attempted
            ),
        ),
    ]
}

/// Overhead of tracing on the workload's headline latency: the write ack
/// where the clients write, the component query otherwise.
pub fn trace_overhead(spec: &Spec, traced: &Phase, plain: &Phase) -> (f64, String) {
    let (t, p, what) = if spec.writer {
        (
            traced.acks.median_ns(),
            plain.acks.median_ns(),
            "write ack p50",
        )
    } else {
        (
            traced.component.median_ns(),
            plain.component.median_ns(),
            "query p50",
        )
    };
    (
        ratio(t - p, p),
        format!("{what}: traced {:.1} us, untraced {:.1} us", us(t), us(p)),
    )
}

pub struct LayerInputs<'a> {
    pub tracer: &'a Tracer,
    pub queries: &'a QueryTrace,
    pub registry: Registry,
    pub acked: f64,
    pub setup_s: f64,
    pub recovery: RecoveryTrace,
    pub overhead: (f64, String),
}

/// The `--trace 1` metrics, in `BENCHMARK.json` order.
pub fn per_layer(l: &LayerInputs<'_>) -> Vec<Metric> {
    let (q, w, s, r) = (l.queries, &l.tracer.windows, &l.tracer.setup, &l.recovery);
    let setup_stages_ms = s.maintain_init_ms + s.family_init_ms + s.snapshot_copy_ms + s.genesis_ms;
    let (recomputed, family_recomputed) = l.tracer.mean_recomputed();
    let per_write = |n: u64| ratio(n as f64, l.acked);
    let m = |name, unit, value| metric(name, unit, value, String::new());
    vec![
        m("maintain.init_ms", "ms", s.maintain_init_ms),
        m("family.init_ms", "ms", s.family_init_ms),
        m("durability.genesis_ms", "ms", s.genesis_ms),
        m("serve.walk_us", "us", us(q.component_walk.median_ns())),
        m("serve.hit_us", "us", us(q.component_hit.median_ns())),
        m("serve.miss_us", "us", us(q.component_miss.median_ns())),
        m(
            "serve.overhead_us",
            "us",
            us(q.component_overhead.median_ns()),
        ),
        m("cache.hit_rate", "ratio", q.hit_rate()),
        m(
            "family.query_us.truss",
            "us",
            us(q.family_walk[0].median_ns()),
        ),
        m(
            "family.query_us.parameter-free",
            "us",
            us(q.family_walk[1].median_ns()),
        ),
        m(
            "family.query_us.ego-betweenness",
            "us",
            us(q.family_walk[2].median_ns()),
        ),
        m("shard.gather_us", "us", us(q.gather.median_ns())),
        m("maintain.apply_us", "us", us(w.apply.median_ns())),
        m("maintain.recomputed_edges", "count", recomputed),
        m("family.apply_us", "us", us(w.family.median_ns())),
        m("family.recomputed_edges", "count", family_recomputed),
        m("publish.copy_us", "us", us(w.copy.median_ns())),
        m("publish.reclaim_us", "us", us(w.reclaim.median_ns())),
        m(
            "publish.windows_per_write",
            "ratio",
            per_write(l.registry.published),
        ),
        m("shard.fanout_us", "us", us(w.fanout.median_ns())),
        m("wal.append_us", "us", us(w.wal_append.median_ns())),
        m("wal.fsync_us", "us", us(w.wal_fsync.median_ns())),
        m(
            "wal.bytes_per_write",
            "bytes",
            per_write(l.registry.wal_bytes),
        ),
        m("ckpt.write_ms", "ms", w.ckpt.median_ns() / 1e6),
        m(
            "ckpt.per_1k_writes",
            "count",
            1000.0 * per_write(l.registry.checkpoints),
        ),
        m("recovery.index_ms", "ms", r.index_ms),
        m(
            "recovery.replayed_records",
            "count",
            r.replayed_records as f64,
        ),
        m("recovery.family_ms", "ms", r.family_ms),
        m(
            "setup.unattributed_frac",
            "ratio",
            1.0 - ratio(setup_stages_ms, l.setup_s * 1e3),
        ),
        m(
            "query.unattributed_frac",
            "ratio",
            1.0 - ratio(q.component_walk.median_ns(), q.component_miss.median_ns()),
        ),
        m(
            "write.unattributed_frac",
            "ratio",
            1.0 - ratio(l.tracer.write_stage_sum_ns(), w.acks.median_ns()),
        ),
        metric(
            "trace.overhead_frac",
            "ratio",
            l.overhead.0,
            l.overhead.1.clone(),
        ),
    ]
}
