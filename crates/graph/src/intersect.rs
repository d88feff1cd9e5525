//! Sorted-set intersection kernels.
//!
//! Every hot loop of the ESD algorithms intersects sorted adjacency lists:
//! common neighbourhoods `N(u) ∩ N(v)` (Definition 1), common out-neighbours
//! `N⁺(u) ∩ N⁺(v)` in the 4-clique enumerator, and the common-neighbour upper
//! bound of the online search. Three strategies are provided and an adaptive
//! dispatcher picks between them:
//!
//! * [`intersect_merge`] — linear two-pointer merge, best when the lists have
//!   comparable lengths and sparse, scattered ids.
//! * [`intersect_gallop`] — galloping (exponential) search of the longer list
//!   for each element of the shorter, `O(s·log(l/s))`, best for very skewed
//!   length ratios (a low-degree vertex against a hub).
//! * [`intersect_bitset`] — blocked-bitset / SWAR kernel: both lists are
//!   walked at 64-id *word* granularity (`id >> 6`), per-word membership
//!   masks are built and `AND`ed, and the surviving bits are emitted. Up to
//!   64 candidates are resolved by one branch-free word operation, which
//!   wins on high-degree vertices whose neighbour ids cluster into dense
//!   runs (community-structured graphs after degree relabelling).
//!
//! [`intersect_into`] / [`intersection_size`] dispatch adaptively using the
//! process-wide [`KernelConfig`]; the crossover constants default to values
//! measured with [`calibrate`] (see each constant's doc) and can be
//! re-measured on the running machine by calling [`calibrate`] yourself —
//! the bench suite does so before timing anything. Each dispatch bumps one
//! of the `intersect.merge` / `intersect.gallop` / `intersect.bitset`
//! telemetry counters (the single owning call site is the dispatcher), so a
//! counter delta tells you exactly which kernels a workload exercised — see
//! `docs/kernels.md` for how to read one.
//!
//! Under the `strict-invariants` feature every non-merge dispatch re-runs
//! [`intersect_merge`] on the same inputs and asserts identical output, so
//! any workload run with the feature armed *proves* kernel agreement on the
//! exact slices it intersected.
//!
//! [`WordTiles`] exposes the bitset kernel's word-blocked layout as a
//! reusable membership structure; the 4-clique enumerator builds one per
//! edge neighbourhood and streams candidate lists through it (see
//! [`crate::cliques`]).

use crate::VertexId;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Length ratio above which galloping beats the linear merge. The default
/// is the [`calibrate`] measurement from the development machine (16, with
/// the 16–64 band within noise; re-run it with the `calibrate` example);
/// calling [`calibrate`] at startup replaces it with a value measured on
/// the running machine via [`set_kernel_config`].
pub const GALLOP_RATIO: usize = 16;

/// Minimum shorter-list length before the bitset kernel is considered.
/// Below this the span arithmetic costs more than the merge it replaces.
pub const BITSET_MIN_LEN: usize = 16;

/// Minimum average number of list elements per 64-id word (across the union
/// span of both lists) for the bitset kernel to be dispatched. [`calibrate`]
/// on the development machine measured the merge→bitset crossover between 2
/// (cold branch predictor, the common case inside a build sweeping many
/// distinct neighbourhoods) and 8 (predictor fully warmed on one repeated
/// input); the default ships the conservative end of that band and a
/// [`calibrate`] / [`set_kernel_config`] call supersedes it.
pub const BITSET_MIN_PER_WORD: usize = 8;

static GALLOP_RATIO_CFG: AtomicUsize = AtomicUsize::new(GALLOP_RATIO);
static BITSET_MIN_LEN_CFG: AtomicUsize = AtomicUsize::new(BITSET_MIN_LEN);
static BITSET_MIN_PER_WORD_CFG: AtomicUsize = AtomicUsize::new(BITSET_MIN_PER_WORD);

/// The crossover thresholds used by the adaptive dispatcher.
///
/// Process-global: [`set_kernel_config`] installs one, [`kernel_config`]
/// reads the current one, [`calibrate`] measures and installs one. All
/// three kernels produce identical results, so changing the config is
/// always safe — it only moves work between kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Dispatch to [`intersect_gallop`] when `long.len() / short.len()`
    /// reaches this ratio.
    pub gallop_ratio: usize,
    /// Never dispatch to [`intersect_bitset`] when the shorter list is
    /// shorter than this.
    pub bitset_min_len: usize,
    /// Dispatch to [`intersect_bitset`] when the combined element count
    /// divided by the number of 64-id words spanned reaches this density.
    pub bitset_min_per_word: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            gallop_ratio: GALLOP_RATIO,
            bitset_min_len: BITSET_MIN_LEN,
            bitset_min_per_word: BITSET_MIN_PER_WORD,
        }
    }
}

/// The current process-wide dispatch thresholds.
#[must_use]
pub fn kernel_config() -> KernelConfig {
    KernelConfig {
        gallop_ratio: GALLOP_RATIO_CFG.load(Ordering::Relaxed).max(1),
        bitset_min_len: BITSET_MIN_LEN_CFG.load(Ordering::Relaxed),
        bitset_min_per_word: BITSET_MIN_PER_WORD_CFG.load(Ordering::Relaxed).max(1),
    }
}

/// Installs new process-wide dispatch thresholds.
pub fn set_kernel_config(cfg: KernelConfig) {
    GALLOP_RATIO_CFG.store(cfg.gallop_ratio.max(1), Ordering::Relaxed);
    BITSET_MIN_LEN_CFG.store(cfg.bitset_min_len, Ordering::Relaxed);
    BITSET_MIN_PER_WORD_CFG.store(cfg.bitset_min_per_word.max(1), Ordering::Relaxed);
}

/// Which kernel the adaptive dispatcher selected for a pair of lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Linear two-pointer merge.
    Merge,
    /// Exponential + binary search of the longer list.
    Gallop,
    /// Word-blocked SWAR mask intersection.
    Bitset,
}

impl Kernel {
    /// The kernel's telemetry-counter suffix (`"merge"` / `"gallop"` /
    /// `"bitset"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Merge => "merge",
            Kernel::Gallop => "gallop",
            Kernel::Bitset => "bitset",
        }
    }
}

/// The kernel the dispatcher would pick for these inputs under the current
/// [`kernel_config`]. Pure — no counters move. Both slices must be
/// non-empty (the dispatcher answers trivially before choosing otherwise).
#[must_use]
pub fn choose_kernel(a: &[VertexId], b: &[VertexId]) -> Kernel {
    debug_assert!(!a.is_empty() && !b.is_empty());
    let cfg = kernel_config();
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() / short.len() >= cfg.gallop_ratio {
        return Kernel::Gallop;
    }
    if short.len() >= cfg.bitset_min_len {
        let lo = a[0].min(b[0]);
        let hi = (*a.last().expect("non-empty")).max(*b.last().expect("non-empty"));
        let words = ((hi - lo) >> 6) as usize + 1;
        if a.len() + b.len() >= words.saturating_mul(cfg.bitset_min_per_word) {
            return Kernel::Bitset;
        }
    }
    Kernel::Merge
}

/// The one owning call site of the `intersect.*` dispatch counters: every
/// adaptive dispatch (materialising or counting) records its chosen kernel
/// here and nowhere else, so the three counters sum to the number of
/// non-trivial adaptive intersections performed.
#[inline]
fn record_dispatch(kernel: Kernel) {
    let metric = match kernel {
        Kernel::Merge => esd_telemetry::Metric::IntersectMerge,
        Kernel::Gallop => esd_telemetry::Metric::IntersectGallop,
        Kernel::Bitset => esd_telemetry::Metric::IntersectBitset,
    };
    esd_telemetry::add(metric, 1);
}

/// Two-pointer merge intersection of two sorted slices.
pub fn intersect_merge(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Galloping intersection: for each element of the shorter slice, locate it
/// in the (much) longer slice by exponential + binary search.
pub fn intersect_gallop(short: &[VertexId], long: &[VertexId], out: &mut Vec<VertexId>) {
    debug_assert!(short.len() <= long.len());
    let mut lo = 0usize;
    for &x in short {
        // Exponential probe from the current frontier.
        let mut step = 1usize;
        let mut hi = lo;
        while hi < long.len() && long[hi] < x {
            lo = hi + 1;
            hi = lo + step;
            step <<= 1;
        }
        // `long[hi]` (if in range) is >= x, so include it in the window.
        let hi = (hi + 1).min(long.len());
        match long[lo..hi].binary_search(&x) {
            Ok(pos) => {
                out.push(x);
                lo += pos + 1;
            }
            Err(pos) => lo += pos,
        }
        if lo >= long.len() {
            break;
        }
    }
}

/// Blocked-bitset (SWAR) intersection of two sorted slices.
///
/// Both lists are consumed a 64-id word at a time: elements sharing
/// `id >> 6` are gathered into one `u64` membership mask per list, the two
/// masks are `AND`ed, and the set bits of the product are emitted in
/// ascending order. Words present in only one list are skipped without any
/// per-element comparison, and words present in both resolve up to 64
/// membership tests with a single branch-free `&`.
pub fn intersect_bitset(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let wa = a[i] >> 6;
        let wb = b[j] >> 6;
        if wa < wb {
            i += 1;
            while i < a.len() && a[i] >> 6 < wb {
                i += 1;
            }
        } else if wb < wa {
            j += 1;
            while j < b.len() && b[j] >> 6 < wa {
                j += 1;
            }
        } else {
            let w = wa;
            let mut ma = 0u64;
            while i < a.len() && a[i] >> 6 == w {
                ma |= 1u64 << (a[i] & 63);
                i += 1;
            }
            let mut mb = 0u64;
            while j < b.len() && b[j] >> 6 == w {
                mb |= 1u64 << (b[j] & 63);
                j += 1;
            }
            let mut m = ma & mb;
            while m != 0 {
                let bit = m.trailing_zeros();
                out.push((w << 6) | bit);
                m &= m - 1;
            }
        }
    }
}

/// Re-runs the reference merge kernel and asserts the fast kernel's output
/// matches — the `strict-invariants` proof that every dispatch is
/// result-identical to [`intersect_merge`].
#[cfg(feature = "strict-invariants")]
fn verify_against_merge(a: &[VertexId], b: &[VertexId], kernel: Kernel, got: &[VertexId]) {
    let mut expect = Vec::new();
    intersect_merge(a, b, &mut expect);
    assert!(
        got == expect.as_slice(),
        "{} kernel disagrees with merge: got {got:?}, expected {expect:?}",
        kernel.name()
    );
}

/// Intersects two sorted slices, dispatching per [`choose_kernel`] and
/// recording the chosen kernel in the `intersect.*` telemetry counters.
pub fn intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return;
    }
    let kernel = choose_kernel(a, b);
    record_dispatch(kernel);
    #[cfg(feature = "strict-invariants")]
    let start = out.len();
    match kernel {
        Kernel::Merge => intersect_merge(short, long, out),
        Kernel::Gallop => intersect_gallop(short, long, out),
        Kernel::Bitset => intersect_bitset(short, long, out),
    }
    #[cfg(feature = "strict-invariants")]
    verify_against_merge(a, b, kernel, &out[start..]);
}

/// Allocating convenience wrapper around [`intersect_into`].
#[must_use]
pub fn intersect_adaptive(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    intersect_into(a, b, &mut out);
    out
}

fn count_merge(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut i, mut j, mut count) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

fn count_gallop(short: &[VertexId], long: &[VertexId]) -> usize {
    let mut count = 0;
    let mut lo = 0usize;
    for &x in short {
        let mut step = 1usize;
        let mut hi = lo;
        while hi < long.len() && long[hi] < x {
            lo = hi + 1;
            hi = lo + step;
            step <<= 1;
        }
        let hi = (hi + 1).min(long.len());
        match long[lo..hi].binary_search(&x) {
            Ok(pos) => {
                count += 1;
                lo += pos + 1;
            }
            Err(pos) => lo += pos,
        }
        if lo >= long.len() {
            break;
        }
    }
    count
}

/// Counting twin of [`intersect_bitset`]: the `AND`ed word masks are
/// `popcnt`ed instead of expanded, so dense words cost one instruction.
fn count_bitset(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut i, mut j, mut count) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        let wa = a[i] >> 6;
        let wb = b[j] >> 6;
        if wa < wb {
            i += 1;
            while i < a.len() && a[i] >> 6 < wb {
                i += 1;
            }
        } else if wb < wa {
            j += 1;
            while j < b.len() && b[j] >> 6 < wa {
                j += 1;
            }
        } else {
            let w = wa;
            let mut ma = 0u64;
            while i < a.len() && a[i] >> 6 == w {
                ma |= 1u64 << (a[i] & 63);
                i += 1;
            }
            let mut mb = 0u64;
            while j < b.len() && b[j] >> 6 == w {
                mb |= 1u64 << (b[j] & 63);
                j += 1;
            }
            count += (ma & mb).count_ones() as usize;
        }
    }
    count
}

/// `|a ∩ b|` without materialising the intersection. Dispatches and counts
/// exactly like [`intersect_into`].
#[must_use]
pub fn intersection_size(a: &[VertexId], b: &[VertexId]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return 0;
    }
    let kernel = choose_kernel(a, b);
    record_dispatch(kernel);
    let count = match kernel {
        Kernel::Merge => count_merge(short, long),
        Kernel::Gallop => count_gallop(short, long),
        Kernel::Bitset => count_bitset(short, long),
    };
    #[cfg(feature = "strict-invariants")]
    assert_eq!(
        count,
        count_merge(a, b),
        "{} counting kernel disagrees with merge",
        kernel.name()
    );
    count
}

/// A word-blocked membership set over sorted vertex ids — the bitset
/// kernel's layout, reusable across many probes.
///
/// Each *tile* is a `(id >> 6, u64 mask)` pair; tiles are stored sorted and
/// contiguously (two parallel arrays), so probing a sorted candidate list
/// walks both sequentially — the cache-conscious replacement for the old
/// size-`n` generation-stamped scratch array in the 4-clique enumerator,
/// whose probes were random accesses into an array as large as the graph.
#[derive(Debug, Default)]
pub struct WordTiles {
    words: Vec<u32>,
    masks: Vec<u64>,
}

impl WordTiles {
    /// An empty tile set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty tile set with room for `words` tiles.
    #[must_use]
    pub fn with_capacity(words: usize) -> Self {
        Self {
            words: Vec::with_capacity(words),
            masks: Vec::with_capacity(words),
        }
    }

    /// Rebuilds the tiles from a sorted id slice, reusing the allocations.
    pub fn build(&mut self, sorted: &[VertexId]) {
        self.words.clear();
        self.masks.clear();
        for &x in sorted {
            let w = x >> 6;
            let bit = 1u64 << (x & 63);
            match self.words.last() {
                Some(&last) if last == w => {
                    *self.masks.last_mut().expect("parallel arrays") |= bit;
                }
                _ => {
                    self.words.push(w);
                    self.masks.push(bit);
                }
            }
        }
    }

    /// Number of (non-empty) tiles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the set holds no ids at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Membership test for one id (binary search over the tiles).
    #[must_use]
    pub fn contains(&self, x: VertexId) -> bool {
        self.words
            .binary_search(&(x >> 6))
            .is_ok_and(|t| self.masks[t] & (1u64 << (x & 63)) != 0)
    }

    /// Streams the members of `sorted ∩ self` to `f` in ascending order.
    ///
    /// Sequential two-pointer walk over the candidate list and the tile
    /// array; with both sides sorted the per-candidate cost is amortised
    /// `O(1)` with contiguous memory traffic only.
    pub fn intersect_sorted(&self, sorted: &[VertexId], mut f: impl FnMut(VertexId)) {
        let mut t = 0usize;
        for &x in sorted {
            let w = x >> 6;
            while t < self.words.len() && self.words[t] < w {
                t += 1;
            }
            if t == self.words.len() {
                return;
            }
            if self.words[t] == w && self.masks[t] & (1u64 << (x & 63)) != 0 {
                f(x);
            }
        }
    }
}

/// Measures the merge/gallop and merge/bitset crossovers on the running
/// machine, installs the result via [`set_kernel_config`], and returns it.
///
/// Takes a few milliseconds. The bench suite calls this before timing
/// anything so reported numbers use machine-tuned dispatch; long-running
/// services may call it once at startup. The synthetic workloads mirror
/// the shapes the dispatcher distinguishes: a short list against ever
/// longer ones (gallop), and equal-length lists of increasing per-word
/// density (bitset).
pub fn calibrate() -> KernelConfig {
    let cfg = KernelConfig {
        gallop_ratio: calibrate_gallop_ratio(),
        bitset_min_per_word: calibrate_bitset_density(),
        ..KernelConfig::default()
    };
    set_kernel_config(cfg);
    cfg
}

/// Best-of-3 wall time of 16 runs of `f` (which returns a size so the
/// optimiser cannot delete the work).
fn best_time_ns(mut f: impl FnMut() -> usize) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..3 {
        let start = std::time::Instant::now();
        let mut sink = 0usize;
        for _ in 0..16 {
            sink = sink.wrapping_add(f());
        }
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        std::hint::black_box(sink);
        best = best.min(ns);
    }
    best
}

fn calibrate_gallop_ratio() -> usize {
    // A 64-element list against longer and longer ones; every short element
    // is present in the long list, spread evenly. Materialising kernels are
    // timed (not the counting twins) because neighbourhood construction —
    // the dominant workload — materialises.
    let short_len = 64usize;
    let mut out: Vec<VertexId> = Vec::new();
    for ratio in [4usize, 8, 16, 32, 64, 128] {
        let long: Vec<VertexId> = (0..(short_len * ratio) as u32).collect();
        let short: Vec<VertexId> = (0..short_len as u32).map(|i| i * ratio as u32).collect();
        let merge = best_time_ns(|| {
            out.clear();
            intersect_merge(&short, &long, &mut out);
            out.len()
        });
        let gallop = best_time_ns(|| {
            out.clear();
            intersect_gallop(&short, &long, &mut out);
            out.len()
        });
        if gallop < merge {
            return ratio;
        }
    }
    GALLOP_RATIO
}

/// `splitmix64` — a tiny deterministic mixer for the calibration workloads
/// (pseudorandom membership defeats the branch predictor the way real,
/// non-periodic adjacency data does; a periodic pattern would flatter the
/// merge kernel).
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn calibrate_bitset_density() -> usize {
    // Two ~2048-element lists drawn pseudorandomly from a span sized to
    // hit a target *combined* per-word density. The smallest density where
    // the word kernel wins becomes the dispatch threshold.
    for density in [2usize, 4, 8, 16, 32, 64] {
        // Each id joins each list with probability density/128, so the two
        // lists together average `density` elements per 64-id word.
        let span = 2048 * 128 / density;
        let mut a = Vec::new();
        let mut b = Vec::new();
        for id in 0..span as u32 {
            let h = splitmix(u64::from(id));
            if h & 127 < density as u64 {
                a.push(id);
            }
            if (h >> 8) & 127 < density as u64 {
                b.push(id);
            }
        }
        let mut out: Vec<VertexId> = Vec::new();
        let merge = best_time_ns(|| {
            out.clear();
            intersect_merge(&a, &b, &mut out);
            out.len()
        });
        let bitset = best_time_ns(|| {
            out.clear();
            intersect_bitset(&a, &b, &mut out);
            out.len()
        });
        if bitset < merge {
            return density;
        }
    }
    // The word kernel never won: effectively disable it.
    65
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn merge_basic() {
        let mut out = Vec::new();
        intersect_merge(&[1, 3, 5, 7], &[2, 3, 4, 7, 9], &mut out);
        assert_eq!(out, vec![3, 7]);
    }

    #[test]
    fn gallop_basic() {
        let long: Vec<u32> = (0..1000).map(|x| x * 3).collect();
        let mut out = Vec::new();
        intersect_gallop(&[3, 4, 9, 2997, 2998], &long, &mut out);
        assert_eq!(out, vec![3, 9, 2997]);
    }

    #[test]
    fn bitset_basic() {
        let mut out = Vec::new();
        intersect_bitset(&[1, 3, 5, 7, 64, 65], &[2, 3, 4, 7, 9, 65, 700], &mut out);
        assert_eq!(out, vec![3, 7, 65]);
        assert_eq!(
            count_bitset(&[1, 3, 5, 7, 64, 65], &[2, 3, 4, 7, 9, 65, 700]),
            3
        );
    }

    #[test]
    fn bitset_handles_word_gaps_and_max_ids() {
        let a = vec![0, 63, 64, 127, u32::MAX - 1, u32::MAX];
        let b = vec![63, 100, 127, 128, u32::MAX];
        let mut out = Vec::new();
        intersect_bitset(&a, &b, &mut out);
        assert_eq!(out, vec![63, 127, u32::MAX]);
        assert_eq!(count_bitset(&a, &b), 3);
    }

    #[test]
    fn empty_inputs() {
        assert!(intersect_adaptive(&[], &[1, 2, 3]).is_empty());
        assert!(intersect_adaptive(&[1, 2, 3], &[]).is_empty());
        assert_eq!(intersection_size(&[], &[]), 0);
        let mut out = Vec::new();
        intersect_bitset(&[], &[1], &mut out);
        intersect_bitset(&[1], &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn disjoint_and_identical() {
        assert!(intersect_adaptive(&[1, 3], &[2, 4]).is_empty());
        assert_eq!(intersect_adaptive(&[5, 6, 7], &[5, 6, 7]), vec![5, 6, 7]);
    }

    #[test]
    fn dispatcher_picks_each_kernel_under_forced_thresholds() {
        let saved = kernel_config();
        // Skewed lengths → gallop under the default ratio.
        let long: Vec<u32> = (0..4096).collect();
        assert_eq!(choose_kernel(&[5, 9], &long), Kernel::Gallop);
        // Dense balanced lists → bitset once the density threshold allows.
        set_kernel_config(KernelConfig {
            bitset_min_per_word: 1,
            ..saved
        });
        let dense: Vec<u32> = (0..256).collect();
        assert_eq!(choose_kernel(&dense, &dense), Kernel::Bitset);
        // Sparse balanced lists → merge.
        let sparse: Vec<u32> = (0..256).map(|i| i * 1000).collect();
        assert_eq!(choose_kernel(&sparse, &sparse), Kernel::Merge);
        set_kernel_config(saved);
        assert_eq!(kernel_config(), saved);
    }

    #[test]
    fn word_tiles_membership_and_streaming() {
        let members = vec![3u32, 64, 65, 120, 500];
        let mut tiles = WordTiles::new();
        assert!(tiles.is_empty());
        tiles.build(&members);
        assert_eq!(tiles.len(), 3, "3, {{64,65,120}}, 500 span three words");
        for &m in &members {
            assert!(tiles.contains(m));
        }
        assert!(!tiles.contains(4));
        assert!(!tiles.contains(501));
        let mut seen = Vec::new();
        tiles.intersect_sorted(&[0, 3, 64, 66, 120, 499, 500, 501], |x| seen.push(x));
        assert_eq!(seen, vec![3, 64, 120, 500]);
        // Rebuilding reuses the allocation and replaces the contents.
        tiles.build(&[7]);
        assert_eq!(tiles.len(), 1);
        assert!(!tiles.contains(3));
    }

    #[test]
    fn calibrate_installs_a_sane_config() {
        let saved = kernel_config();
        let cfg = calibrate();
        assert_eq!(cfg, kernel_config());
        assert!(cfg.gallop_ratio >= 1);
        assert!((1..=65).contains(&cfg.bitset_min_per_word));
        set_kernel_config(saved);
    }

    fn sorted_set() -> impl Strategy<Value = Vec<u32>> {
        prop::collection::btree_set(0u32..500, 0..120).prop_map(|s| s.into_iter().collect())
    }

    proptest! {
        #[test]
        fn all_kernels_match_btreeset(a in sorted_set(), b in sorted_set()) {
            let sa: BTreeSet<u32> = a.iter().copied().collect();
            let sb: BTreeSet<u32> = b.iter().copied().collect();
            let expect: Vec<u32> = sa.intersection(&sb).copied().collect();

            let mut merge = Vec::new();
            intersect_merge(&a, &b, &mut merge);
            prop_assert_eq!(&merge, &expect);

            let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
            let mut gallop = Vec::new();
            intersect_gallop(short, long, &mut gallop);
            prop_assert_eq!(&gallop, &expect);

            let mut bitset = Vec::new();
            intersect_bitset(&a, &b, &mut bitset);
            prop_assert_eq!(&bitset, &expect);

            prop_assert_eq!(&intersect_adaptive(&a, &b), &expect);
            prop_assert_eq!(intersection_size(&a, &b), expect.len());

            let mut tiles = WordTiles::new();
            tiles.build(&a);
            let mut streamed = Vec::new();
            tiles.intersect_sorted(&b, |x| streamed.push(x));
            prop_assert_eq!(&streamed, &expect);
        }
    }
}
