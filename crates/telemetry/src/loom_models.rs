//! Loom models for the wait-free registry.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` with the `enabled`
//! feature (the registry statics do not otherwise exist). The registry is
//! process-global and loom re-runs each model body many times, so every
//! assertion is windowed through [`Snapshot::delta_since`] rather than
//! absolute counter values, and every model holds [`REGISTRY_LOCK`] so the
//! crate's unit tests cannot record or reset inside its window.
//!
//! [`Snapshot::delta_since`]: crate::Snapshot::delta_since

use crate::sync::Unpoison;
use crate::{add, snapshot, span, Metric, Stage, REGISTRY_LOCK};

#[test]
fn counter_deltas_from_concurrent_writers_sum_exactly() {
    let _guard = REGISTRY_LOCK.lock().unpoison();
    loom::model(|| {
        let before = snapshot();
        let t1 = loom::thread::spawn(|| {
            for _ in 0..3 {
                add(Metric::OnlineHeapPops, 2);
            }
        });
        let t2 = loom::thread::spawn(|| {
            for _ in 0..3 {
                add(Metric::OnlineHeapPops, 5);
            }
        });
        t1.join().expect("writer 1");
        t2.join().expect("writer 2");
        let delta = snapshot().delta_since(&before);
        // 3×2 + 3×5: no add may be lost or double-counted under any
        // interleaving of the two writers.
        assert_eq!(delta.counter("online.heap_pops"), 21);
    });
}

#[test]
fn span_records_from_concurrent_threads_all_land() {
    let _guard = REGISTRY_LOCK.lock().unpoison();
    loom::model(|| {
        let before = snapshot();
        let threads: Vec<_> = (0..2)
            .map(|_| {
                loom::thread::spawn(|| {
                    drop(span(Stage::ParEnumerate));
                    drop(span(Stage::ParEnumerate));
                })
            })
            .collect();
        for t in threads {
            t.join().expect("span thread");
        }
        let delta = snapshot().delta_since(&before);
        assert_eq!(
            delta
                .stage("pbuild.enumerate")
                .expect("stage recorded")
                .count,
            4
        );
    });
}
