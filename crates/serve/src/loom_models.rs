//! Loom model suites for the serve engine's synchronisation skeleton.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (see the `sync` facade):
//! every lock and atomic below resolves to the vendored loom stand-in,
//! whose scheduler runs each model body many times under seeded
//! adversarial interleavings. Failures print the iteration and seed so a
//! bad schedule can be replayed with `LOOM_SEED`.
//!
//! The models pin the three serve-side properties the analysis layer is
//! built around:
//!
//! 1. **Epoch monotonicity** — a reader never observes an older epoch
//!    than one it already saw, across concurrent publication.
//! 2. **Shard-LRU consistency** — concurrent insert/lookup on one key
//!    yields only values that were actually inserted, and the final state
//!    is the last insert.
//! 3. **Queue integrity** — concurrent producers and a draining consumer
//!    neither lose nor duplicate items.

use crate::cache::{CacheKey, ResultCache};
use crate::queue::BoundedQueue;
use crate::snapshot::{Snapshot, SnapshotCell};
use crate::sync::Arc;
use esd_core::{Family, FamilySuite, MaintainedIndex, ScoredEdge};
use esd_graph::Graph;

fn snap(epoch: u64) -> Snapshot {
    let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
    Snapshot::new(epoch, MaintainedIndex::new(&g), FamilySuite::new(&g))
}

fn val(score: u32) -> Arc<Vec<ScoredEdge>> {
    Arc::new(vec![ScoredEdge {
        edge: esd_graph::Edge::new(0, 1),
        score,
    }])
}

#[test]
fn epoch_reads_are_monotonic_across_publication() {
    loom::model(|| {
        let cell = Arc::new(SnapshotCell::new(snap(0)));
        let writer = {
            let cell = Arc::clone(&cell);
            loom::thread::spawn(move || {
                cell.store(Arc::new(snap(1)));
                cell.store(Arc::new(snap(2)));
            })
        };
        let mut last = 0;
        for _ in 0..3 {
            let epoch = cell.load().epoch();
            assert!(epoch >= last, "epoch went backwards: {last} -> {epoch}");
            last = epoch;
        }
        writer.join().expect("writer thread");
        assert_eq!(cell.load().epoch(), 2, "final read sees the last publish");
    });
}

#[test]
fn shard_lru_concurrent_insert_lookup_stays_consistent() {
    loom::model(|| {
        let cache = Arc::new(ResultCache::new(64));
        let key = CacheKey {
            family: Family::Component,
            k: 5,
            tau: 2,
            epoch: 0,
        };
        let writer = {
            let cache = Arc::clone(&cache);
            loom::thread::spawn(move || {
                cache.insert(key, val(1));
                cache.insert(key, val(2));
            })
        };
        // A racing hit must surface a value that was actually inserted —
        // never a torn or dropped entry.
        for _ in 0..2 {
            if let Some(v) = cache.get(&key) {
                assert!(matches!(v[0].score, 1 | 2), "torn value {}", v[0].score);
            }
        }
        writer.join().expect("writer thread");
        assert_eq!(cache.get(&key).expect("entry present")[0].score, 2);
        assert_eq!(cache.len(), 1, "re-insert replaced, not duplicated");
    });
}

#[test]
fn queue_concurrent_push_pop_neither_loses_nor_duplicates() {
    loom::model(|| {
        let queue = Arc::new(BoundedQueue::new(8));
        let producers: Vec<_> = [0u32, 10]
            .into_iter()
            .map(|base| {
                let queue = Arc::clone(&queue);
                loom::thread::spawn(move || {
                    for v in base..base + 3 {
                        while queue.try_push(v).is_err() {
                            loom::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let mut got = Vec::new();
        for _ in 0..6 {
            got.push(queue.pop().expect("queue not closed"));
        }
        for p in producers {
            p.join().expect("producer thread");
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 10, 11, 12]);
        assert_eq!(queue.len(), 0);
    });
}
