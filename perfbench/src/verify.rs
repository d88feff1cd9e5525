//! Correctness checks run in the same command as the measurement.

use esd_core::{Family, FamilySuite, MaintainedIndex, ScoredEdge};
use esd_graph::Graph;
use esd_serve::{EngineHandle, QueryRequest, RetryPolicy, ShardedHandle};
use std::sync::Arc;

/// FNV-1a over a ranked answer, so a reader can remember the first answer
/// per key without holding it.
pub fn fingerprint(results: &[ScoredEdge]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(results.len() as u32);
    for r in results {
        eat(r.edge.u);
        eat(r.edge.v);
        eat(r.score);
    }
    h
}

/// The last `k` exceeds every surrogate's edge count, so those queries
/// return whole rankings and the check covers every scored edge.
const GRID_K: [usize; 6] = [10, 50, 100, 500, 1000, 1 << 20];
const GRID_FAMILIES: [Family; 4] = [
    Family::Component,
    Family::Truss,
    Family::ParameterFree,
    Family::EgoBetweenness,
];

/// The k × τ × family grid, answered by the engine.
#[derive(Debug)]
pub struct Grid {
    pub answers: Vec<(QueryRequest, Arc<Vec<ScoredEdge>>)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Grid {
    /// Asks the engine every grid query once, one at a time.
    pub fn run(handle: &ShardedHandle, policy: &RetryPolicy) -> Grid {
        let mut grid = Grid {
            answers: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        for family in GRID_FAMILIES {
            for k in GRID_K {
                for tau in 1..=4 {
                    let req = QueryRequest::new(k, tau).with_family(family);
                    grid.attempted += 1;
                    match handle.execute_with_retry(req, policy) {
                        Ok(resp) => grid.answers.push((req, resp.results)),
                        Err(_) => grid.failed += 1,
                    }
                }
            }
        }
        grid
    }

    /// Number of answers that differ from a from-scratch rebuild of `g`.
    pub fn check_against_rebuild(&self, g: &Graph) -> usize {
        let index = MaintainedIndex::new(g);
        let families = FamilySuite::new(g);
        self.answers
            .iter()
            .filter(|(req, got)| {
                let want = match req.family {
                    Family::Component => index.query(req.k, req.tau),
                    f => families.query(f, req.k, req.tau),
                };
                want != ***got
            })
            .count()
    }

    /// One fingerprint over every answer, in grid order, so an engine in
    /// another process can be compared with this one.
    pub fn fingerprint(&self) -> u64 {
        self.answers
            .iter()
            .fold(self.answers.len() as u64, |h, (_, a)| {
                h.rotate_left(5) ^ fingerprint(a)
            })
    }
}
