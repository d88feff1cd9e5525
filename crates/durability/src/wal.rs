//! The append-only, epoch-stamped write-ahead log.
//!
//! ## On-disk format
//!
//! A log is a directory of segment files named
//! `wal-<seq:08>-<first_epoch:016x>.log`. Each segment starts with an
//! 8-byte header (`magic "ESDW"` + `u32` version, little-endian like every
//! integer here) followed by length-prefixed frames:
//!
//! ```text
//! [u32 len] [u32 crc32] [u64 epoch] [payload: len − 8 bytes]
//! ```
//!
//! `len` counts the epoch + payload region; `crc32` (IEEE, see
//! [`crate::crc32`]) covers exactly those `len` bytes. Epochs are strictly
//! increasing across the whole log — each record is one published epoch —
//! which is what lets a reader treat any non-monotone epoch as corruption
//! and lets purge reason about segments from their first-epoch name alone
//! (every record in segment *k* is older than segment *k + 1*'s name).
//!
//! ## Writer
//!
//! [`WalWriter`] appends frames and fsyncs with **group commit**: any
//! number of appends can be outstanding, and a single [`WalWriter::sync`]
//! call — whichever caller gets there first becomes the syncer, everyone
//! else parks on a condvar — makes all of them durable at once. Segments
//! rotate at a size threshold (the outgoing segment is fsynced before the
//! next opens). [`WalWriter::mark`]/[`WalWriter::truncate_to`] give the
//! serving layer transactional appends: a record written for a window
//! that later fails to publish is physically removed, so the log never
//! contains a record for an un-acked batch.
//!
//! ## Reader
//!
//! [`read_dir`] replays segments in order and **stops at the last valid
//! record**: a torn tail, a bit flip, a truncated segment, or an epoch
//! regression ends the replay there (recorded in
//! [`WalReplay::truncated`]) — it never panics and never yields a record
//! that fails its checksum. After a truncated replay, a process that
//! intends to keep appending must call [`repair_dir`] to physically drop
//! the invalid tail *before* opening a writer: the writer starts a fresh
//! segment after the tear, and a later replay would stop at the tear and
//! never reach it.

use crate::crc32::crc32;
use crate::sync::{Condvar, Mutex, Unpoison};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Segment header magic.
pub const MAGIC: &[u8; 4] = b"ESDW";
/// Segment format version.
pub const VERSION: u32 = 1;
/// Segment header length in bytes (magic + version).
pub const HEADER_LEN: u64 = 8;
/// Frame prefix length in bytes (`len` + `crc`).
const FRAME_PREFIX: u64 = 8;
/// Upper bound on one frame's `len` field — anything larger is treated as
/// corruption rather than attempted as an allocation.
const MAX_FRAME_LEN: u32 = 1 << 30;

/// Tuning for [`WalWriter::open`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Rotate to a fresh segment once the open one reaches this many bytes.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            segment_bytes: 8 << 20,
        }
    }
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The publication epoch this record commits.
    pub epoch: u64,
    /// The opaque payload (the serving layer's serialized update batch).
    pub payload: Vec<u8>,
}

/// The result of replaying a log directory.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Every record up to the last valid one, in epoch order.
    pub records: Vec<WalRecord>,
    /// `true` when replay stopped early (torn tail, checksum mismatch,
    /// short frame, bad header, or epoch regression); everything at and
    /// after the first invalid byte was discarded.
    pub truncated: bool,
    /// Number of segment files visited.
    pub segments: usize,
}

/// A resumption point for [`WalWriter::truncate_to`], captured by
/// [`WalWriter::mark`] before a speculative append.
#[derive(Debug, Clone, Copy)]
pub struct WalMark {
    seg_seq: u64,
    seg_len: u64,
    seg_open: bool,
    appended: u64,
    last_epoch: Option<u64>,
}

/// One discovered segment file.
#[derive(Debug, Clone)]
struct Segment {
    seq: u64,
    first_epoch: u64,
    path: PathBuf,
}

/// Parses `wal-<seq:08>-<first_epoch:016x>.log`; `None` for foreign files.
fn parse_segment_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    let (seq, epoch) = rest.split_once('-')?;
    if seq.len() != 8 || epoch.len() != 16 {
        return None;
    }
    Some((seq.parse().ok()?, u64::from_str_radix(epoch, 16).ok()?))
}

fn segment_file_name(seq: u64, first_epoch: u64) -> String {
    format!("wal-{seq:08}-{first_epoch:016x}.log")
}

/// All segments in `dir`, sorted by sequence number.
fn list_segments(dir: &Path) -> io::Result<Vec<Segment>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some((seq, first_epoch)) = parse_segment_name(name) {
            out.push(Segment {
                seq,
                first_epoch,
                path: entry.path(),
            });
        }
    }
    out.sort_by_key(|s| s.seq);
    Ok(out)
}

/// Opens the directory itself for fsync (durable rename/create on the
/// containing directory — POSIX requires syncing the parent to persist a
/// new directory entry).
fn open_dir(dir: &Path) -> io::Result<File> {
    File::open(dir)
}

/// Fsyncs the directory entry table so freshly created/renamed file names
/// survive power loss. Best effort on platforms where directories cannot
/// be opened; errors other than permission/unsupported are surfaced.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    match open_dir(dir) {
        Ok(d) => d.sync_all(),
        Err(e) if e.kind() == io::ErrorKind::Unsupported => Ok(()),
        Err(e) => Err(e),
    }
}

#[derive(Debug)]
struct Inner {
    /// The open segment, if one has been created (creation is lazy so a
    /// recover-only process never litters empty segments).
    file: Option<File>,
    seg_seq: u64,
    seg_len: u64,
    /// Records ever appended (logical commit index).
    appended: u64,
    /// Records known durable (fsynced, or in a rotated-and-fsynced
    /// segment).
    durable: u64,
    /// Bytes appended since the last successful full sync — the deferred
    /// (ack-after-enqueue) policy's batching trigger.
    unsynced_bytes: u64,
    /// A sync is in flight outside the lock; contenders park on `synced`.
    syncing: bool,
    /// Bumped by every effective [`WalWriter::truncate_to`]: an fsync that
    /// raced a truncation (its generation no longer matches) proves
    /// nothing about the current tail, so its result must not advance
    /// `durable`.
    truncations: u64,
    /// Set when the on-disk tail may not match this bookkeeping (a failed
    /// truncate). Every subsequent append refuses, so an inconsistent log
    /// is never extended.
    poisoned: bool,
    last_epoch: Option<u64>,
}

/// The appending side of the log. All methods are `&self` and thread-safe;
/// see the module docs for the commit protocol.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    segment_bytes: u64,
    inner: Mutex<Inner>,
    synced: Condvar,
}

impl WalWriter {
    /// Opens `dir` for appending (creating it if missing). Existing
    /// segments are left untouched — the writer always starts a fresh
    /// segment after the highest existing sequence number, so a possibly
    /// torn tail from a previous process is never appended to.
    pub fn open(dir: &Path, opts: WalOptions) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let next_seq = list_segments(dir)?.last().map_or(0, |s| s.seq + 1);
        Ok(Self {
            dir: dir.to_path_buf(),
            segment_bytes: opts.segment_bytes.max(HEADER_LEN + FRAME_PREFIX),
            inner: Mutex::new(Inner {
                file: None,
                seg_seq: next_seq,
                seg_len: 0,
                appended: 0,
                durable: 0,
                unsynced_bytes: 0,
                syncing: false,
                truncations: 0,
                poisoned: false,
                last_epoch: None,
            }),
            synced: Condvar::new(),
        })
    }

    /// The log directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Captures the current tail position for a later
    /// [`truncate_to`](Self::truncate_to).
    pub fn mark(&self) -> WalMark {
        let inner = self.inner.lock().unpoison();
        WalMark {
            seg_seq: inner.seg_seq,
            seg_len: inner.seg_len,
            seg_open: inner.file.is_some(),
            appended: inner.appended,
            last_epoch: inner.last_epoch,
        }
    }

    /// Appends one record. `epoch` must be strictly greater than every
    /// previously appended epoch. Returns the frame size in bytes. The
    /// record is buffered in the OS page cache until [`sync`](Self::sync)
    /// (or a rotation) makes it durable.
    pub fn append(&self, epoch: u64, payload: &[u8]) -> io::Result<u64> {
        let frame_len = u32::try_from(8 + payload.len())
            .ok()
            .filter(|l| *l <= MAX_FRAME_LEN)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "payload too large"))?;
        let mut inner = self.inner.lock().unpoison();
        if inner.poisoned {
            return Err(io::Error::other("wal poisoned by an earlier failed abort"));
        }
        if inner.last_epoch.is_some_and(|last| epoch <= last) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "wal epochs must be strictly increasing",
            ));
        }
        if inner.file.is_some() && inner.seg_len >= self.segment_bytes {
            self.rotate(&mut inner)?;
        }
        if inner.file.is_none() {
            self.open_segment(&mut inner, epoch)?;
        }
        let mut frame = Vec::with_capacity(8 + frame_len as usize);
        frame.extend_from_slice(&frame_len.to_le_bytes());
        let mut body = Vec::with_capacity(frame_len as usize);
        body.extend_from_slice(&epoch.to_le_bytes());
        body.extend_from_slice(payload);
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        inner
            .file
            .as_mut()
            .expect("segment opened above")
            .write_all(&frame)?;
        inner.seg_len += frame.len() as u64;
        inner.unsynced_bytes += frame.len() as u64;
        inner.appended += 1;
        inner.last_epoch = Some(epoch);
        Ok(frame.len() as u64)
    }

    /// Makes every record appended before this call durable (group
    /// commit): if another caller is already fsyncing, this one parks and
    /// is covered by that fsync when possible.
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().unpoison();
        let mut target = inner.appended;
        loop {
            // A concurrent truncate_to may have removed records this call
            // set out to cover; what still exists is all there is to sync.
            target = target.min(inner.appended);
            if inner.durable >= target {
                return Ok(());
            }
            if inner.syncing {
                inner = self.synced.wait(inner).unpoison();
                continue;
            }
            let Some(file) = inner.file.as_ref() else {
                // Everything lives in rotated segments, which were fsynced
                // at rotation time.
                inner.durable = inner.appended;
                inner.unsynced_bytes = 0;
                return Ok(());
            };
            let clone = file.try_clone()?;
            let high = inner.appended;
            let generation = inner.truncations;
            inner.syncing = true;
            drop(inner);
            let result = clone.sync_data();
            inner = self.inner.lock().unpoison();
            inner.syncing = false;
            self.synced.notify_all();
            result?;
            if inner.truncations == generation {
                inner.durable = inner.durable.max(high);
                if inner.durable == inner.appended {
                    inner.unsynced_bytes = 0;
                }
            }
            // On a generation mismatch the fsync raced a truncation — it
            // may even have targeted a now-deleted segment file — so its
            // result is discarded and the loop re-evaluates against the
            // shrunken log. Without this, `durable` could run past
            // `appended` and records appended after the truncation would
            // be counted durable without ever being fsynced.
        }
    }

    /// Bytes appended since the last complete [`sync`](Self::sync) — the
    /// deferred-fsync policy batches on this.
    pub fn unsynced_bytes(&self) -> u64 {
        self.inner.lock().unpoison().unsynced_bytes
    }

    /// Records appended so far.
    pub fn appended(&self) -> u64 {
        self.inner.lock().unpoison().appended
    }

    /// Whether a failed abort has poisoned the writer (see
    /// [`truncate_to`](Self::truncate_to)).
    pub fn poisoned(&self) -> bool {
        self.inner.lock().unpoison().poisoned
    }

    /// `(appended, durable)` under one lock acquisition, for invariant
    /// checks: `durable ≤ appended` must hold at every instant.
    #[cfg(test)]
    fn accounting(&self) -> (u64, u64) {
        let inner = self.inner.lock().unpoison();
        (inner.appended, inner.durable)
    }

    /// Physically removes every record appended after `mark` — the abort
    /// half of a transactional append. If the removal itself fails the
    /// writer is **poisoned** (all further appends refuse) because the
    /// on-disk tail can no longer be trusted to contain only acked
    /// records.
    pub fn truncate_to(&self, mark: &WalMark) -> io::Result<()> {
        let mut inner = self.inner.lock().unpoison();
        if inner.appended == mark.appended {
            return Ok(());
        }
        // Invalidate any fsync in flight outside the lock: its result must
        // not advance the durable watermark past records removed here (see
        // `sync`).
        inner.truncations += 1;
        let result = self.truncate_locked(&mut inner, mark);
        if result.is_err() {
            inner.poisoned = true;
        }
        result
    }

    fn truncate_locked(&self, inner: &mut Inner, mark: &WalMark) -> io::Result<()> {
        if inner.seg_seq != mark.seg_seq {
            // Appends since the mark crossed a rotation: drop the newer
            // segments wholesale, then reopen the marked one.
            for seg in list_segments(&self.dir)? {
                if seg.seq > mark.seg_seq {
                    std::fs::remove_file(&seg.path)?;
                }
            }
            inner.file = None;
            inner.seg_seq = mark.seg_seq;
            inner.seg_len = 0;
            if mark.seg_open {
                let seg = list_segments(&self.dir)?
                    .into_iter()
                    .find(|s| s.seq == mark.seg_seq)
                    .ok_or_else(|| io::Error::other("marked wal segment disappeared"))?;
                let file = OpenOptions::new().write(true).open(&seg.path)?;
                inner.file = Some(file);
            }
        } else if !mark.seg_open {
            // The segment was created entirely by the aborted append(s).
            if inner.file.take().is_some() {
                for seg in list_segments(&self.dir)? {
                    if seg.seq == mark.seg_seq {
                        std::fs::remove_file(&seg.path)?;
                    }
                }
            }
            inner.seg_len = 0;
        }
        if let Some(file) = inner.file.as_mut() {
            file.set_len(mark.seg_len)?;
            file.seek(SeekFrom::Start(mark.seg_len))?;
            inner.seg_len = mark.seg_len;
        }
        inner.appended = mark.appended;
        inner.last_epoch = mark.last_epoch;
        inner.durable = inner.durable.min(inner.appended);
        if inner.durable == inner.appended {
            inner.unsynced_bytes = 0;
        }
        // A conservative overestimate of `unsynced_bytes` remains otherwise
        // (the aborted frame's bytes are still counted); it can only make
        // the deferred-fsync policy sync early, never late.
        Ok(())
    }

    /// Deletes every **closed** segment all of whose records have epoch
    /// `≤ epoch` (safe once a checkpoint at `epoch` is durable). Returns
    /// the number of segments removed.
    pub fn purge_up_to(&self, epoch: u64) -> io::Result<usize> {
        let inner = self.inner.lock().unpoison();
        let segments = list_segments(&self.dir)?;
        let mut removed = 0;
        for pair in segments.windows(2) {
            // Every record in `pair[0]` is older than `pair[1]`'s first
            // epoch, so `first_epoch(next) ≤ epoch + 1` bounds them all
            // at ≤ epoch.
            if pair[0].seq < inner.seg_seq && pair[1].first_epoch <= epoch.saturating_add(1) {
                std::fs::remove_file(&pair[0].path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Rotates: fsyncs and closes the open segment (advancing the durable
    /// watermark over its records) and bumps the sequence number. The next
    /// append lazily creates the successor.
    fn rotate(&self, inner: &mut Inner) -> io::Result<()> {
        if let Some(file) = inner.file.as_ref() {
            file.sync_data()?;
            inner.durable = inner.appended;
            inner.unsynced_bytes = 0;
        }
        inner.file = None;
        inner.seg_seq += 1;
        inner.seg_len = 0;
        Ok(())
    }

    fn open_segment(&self, inner: &mut Inner, first_epoch: u64) -> io::Result<()> {
        let path = self.dir.join(segment_file_name(inner.seg_seq, first_epoch));
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        file.write_all(MAGIC)?;
        file.write_all(&VERSION.to_le_bytes())?;
        // Persist the directory entry so the segment name survives a crash
        // that happens before its first fsync.
        sync_dir(&self.dir)?;
        inner.file = Some(file);
        inner.seg_len = HEADER_LEN;
        Ok(())
    }
}

/// Replays every valid record in `dir`, in order, stopping at the first
/// sign of corruption (see [`WalReplay::truncated`]). Only real directory
/// I/O failures return `Err`; corrupted content is handled by stopping.
pub fn read_dir(dir: &Path) -> io::Result<WalReplay> {
    let mut replay = WalReplay::default();
    if !dir.exists() {
        return Ok(replay);
    }
    let mut last_epoch: Option<u64> = None;
    for seg in list_segments(dir)? {
        replay.segments += 1;
        let Ok(mut file) = File::open(&seg.path) else {
            replay.truncated = true;
            return Ok(replay);
        };
        let (clean, _) = read_segment(&mut file, &mut replay, &mut last_epoch);
        if !clean {
            replay.truncated = true;
            // Later segments are unreachable for replay: records must form
            // a prefix of the commit order.
            return Ok(replay);
        }
    }
    Ok(replay)
}

/// Physically truncates the log in `dir` to its valid record prefix: the
/// segment holding the first invalid byte is truncated at that byte (or
/// deleted outright when even its header is bad), every later segment is
/// removed, and the surviving tail plus the directory are fsynced.
/// Returns `true` when anything was removed.
///
/// This is the mandatory companion of recovery-after-a-torn-tail: a new
/// [`WalWriter`] always starts a fresh segment *after* the tear, while
/// [`read_dir`] stops at the *first* invalid byte — so a tear left in
/// place would hide, and a later recovery would silently lose, every
/// record fsynced after the restart. Nothing acked is ever dropped here:
/// appends are strictly sequential, so no valid record can exist beyond
/// the first invalid byte.
pub fn repair_dir(dir: &Path) -> io::Result<bool> {
    if !dir.exists() {
        return Ok(false);
    }
    let segments = list_segments(dir)?;
    let mut scratch = WalReplay::default();
    let mut last_epoch: Option<u64> = None;
    let mut tear: Option<(usize, u64)> = None;
    for (i, seg) in segments.iter().enumerate() {
        let Ok(mut file) = File::open(&seg.path) else {
            tear = Some((i, 0));
            break;
        };
        let (clean, valid_len) = read_segment(&mut file, &mut scratch, &mut last_epoch);
        if !clean {
            tear = Some((i, valid_len));
            break;
        }
    }
    let Some((torn, valid_len)) = tear else {
        return Ok(false);
    };
    // Segments past the tear are unreachable for replay (records must form
    // a prefix of the commit order), so they are pure garbage.
    for seg in &segments[torn + 1..] {
        std::fs::remove_file(&seg.path)?;
    }
    let seg = &segments[torn];
    if valid_len < HEADER_LEN {
        std::fs::remove_file(&seg.path)?;
    } else {
        let file = OpenOptions::new().write(true).open(&seg.path)?;
        file.set_len(valid_len)?;
        file.sync_data()?;
    }
    sync_dir(dir)?;
    Ok(true)
}

/// Reads one segment into `replay`. Returns `(clean, valid_len)`:
/// `clean == false` means replay must stop here, and `valid_len` is the
/// byte length of the segment's valid prefix (`0` when even the header is
/// bad — the whole file is garbage). [`repair_dir`] truncates at exactly
/// this boundary.
fn read_segment(
    file: &mut File,
    replay: &mut WalReplay,
    last_epoch: &mut Option<u64>,
) -> (bool, u64) {
    let mut header = [0u8; HEADER_LEN as usize];
    if read_exact_or_eof(file, &mut header) != ReadOutcome::Full {
        return (false, 0);
    }
    if &header[..4] != MAGIC
        || u32::from_le_bytes([header[4], header[5], header[6], header[7]]) != VERSION
    {
        return (false, 0);
    }
    // A `len` claiming more than the segment has left is a tear, caught
    // before its body is allocated (an unreadable length reads as 0: a tear).
    let seg_len = file.metadata().map_or(0, |m| m.len());
    let mut valid_len = HEADER_LEN;
    loop {
        let mut prefix = [0u8; FRAME_PREFIX as usize];
        match read_exact_or_eof(file, &mut prefix) {
            ReadOutcome::Eof => return (true, valid_len), // clean segment end
            ReadOutcome::Partial => return (false, valid_len),
            ReadOutcome::Full => {}
        }
        let len = u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]);
        let crc = u32::from_le_bytes([prefix[4], prefix[5], prefix[6], prefix[7]]);
        let left = seg_len.saturating_sub(valid_len + FRAME_PREFIX);
        if !(8..=MAX_FRAME_LEN).contains(&len) || u64::from(len) > left {
            return (false, valid_len);
        }
        let mut body = vec![0u8; len as usize];
        if read_exact_or_eof(file, &mut body) != ReadOutcome::Full {
            return (false, valid_len);
        }
        if crc32(&body) != crc {
            return (false, valid_len);
        }
        let epoch = u64::from_le_bytes([
            body[0], body[1], body[2], body[3], body[4], body[5], body[6], body[7],
        ]);
        if last_epoch.is_some_and(|last| epoch <= last) {
            return (false, valid_len);
        }
        *last_epoch = Some(epoch);
        replay.records.push(WalRecord {
            epoch,
            payload: body.split_off(8),
        });
        valid_len += FRAME_PREFIX + u64::from(len);
    }
}

#[derive(Debug, PartialEq, Eq)]
enum ReadOutcome {
    Full,
    Partial,
    Eof,
}

/// `read_exact` that distinguishes a clean EOF (no bytes) from a torn one.
fn read_exact_or_eof(file: &mut File, buf: &mut [u8]) -> ReadOutcome {
    let mut filled = 0;
    while filled < buf.len() {
        match file.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Partial,
        }
    }
    ReadOutcome::Full
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("esd_wal_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_and_order() {
        let dir = tmp("roundtrip");
        let wal = WalWriter::open(&dir, WalOptions::default()).unwrap();
        for epoch in 1..=20u64 {
            wal.append(epoch, format!("payload-{epoch}").as_bytes())
                .unwrap();
        }
        wal.sync().unwrap();
        let replay = read_dir(&dir).unwrap();
        assert!(!replay.truncated);
        assert_eq!(replay.records.len(), 20);
        for (i, r) in replay.records.iter().enumerate() {
            assert_eq!(r.epoch, i as u64 + 1);
            assert_eq!(r.payload, format!("payload-{}", i + 1).into_bytes());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epochs_must_increase() {
        let dir = tmp("epochs");
        let wal = WalWriter::open(&dir, WalOptions::default()).unwrap();
        wal.append(5, b"a").unwrap();
        assert!(wal.append(5, b"b").is_err());
        assert!(wal.append(4, b"c").is_err());
        wal.append(6, b"d").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_and_purge() {
        let dir = tmp("rotate");
        let wal = WalWriter::open(&dir, WalOptions { segment_bytes: 64 }).unwrap();
        for epoch in 1..=40u64 {
            wal.append(epoch, &[0u8; 16]).unwrap();
        }
        wal.sync().unwrap();
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 1, "small segment size must rotate");
        let replay = read_dir(&dir).unwrap();
        assert_eq!(replay.records.len(), 40);
        assert!(!replay.truncated);
        // Purge everything a checkpoint at epoch 40 covers: all closed
        // segments go; the open segment stays.
        let removed = wal.purge_up_to(40).unwrap();
        assert_eq!(removed, segments.len() - 1);
        let replay = read_dir(&dir).unwrap();
        assert!(!replay.records.is_empty(), "open segment survives purge");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_to_removes_speculative_records() {
        let dir = tmp("truncate");
        let wal = WalWriter::open(&dir, WalOptions::default()).unwrap();
        wal.append(1, b"keep").unwrap();
        wal.sync().unwrap();
        let mark = wal.mark();
        wal.append(2, b"abort-me").unwrap();
        wal.truncate_to(&mark).unwrap();
        assert!(!wal.poisoned());
        // The aborted epoch can be re-used: the record is physically gone.
        wal.append(2, b"retried").unwrap();
        wal.sync().unwrap();
        let replay = read_dir(&dir).unwrap();
        assert!(!replay.truncated);
        assert_eq!(
            replay
                .records
                .iter()
                .map(|r| r.payload.clone())
                .collect::<Vec<_>>(),
            vec![b"keep".to_vec(), b"retried".to_vec()]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_across_rotation_drops_new_segment() {
        let dir = tmp("truncate_rot");
        let wal = WalWriter::open(&dir, WalOptions { segment_bytes: 32 }).unwrap();
        wal.append(1, &[7u8; 40]).unwrap();
        wal.sync().unwrap();
        let mark = wal.mark();
        // Oversized first record forces the next append into a new segment.
        wal.append(2, b"spill").unwrap();
        assert_eq!(list_segments(&dir).unwrap().len(), 2);
        wal.truncate_to(&mark).unwrap();
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        let replay = read_dir(&dir).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(!replay.truncated);
        wal.append(2, b"after").unwrap();
        wal.sync().unwrap();
        assert_eq!(read_dir(&dir).unwrap().records.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_fresh_unopened_mark_is_noop() {
        let dir = tmp("truncate_fresh");
        let wal = WalWriter::open(&dir, WalOptions::default()).unwrap();
        let mark = wal.mark();
        wal.append(1, b"x").unwrap();
        wal.truncate_to(&mark).unwrap();
        assert_eq!(read_dir(&dir).unwrap().records.len(), 0);
        wal.append(1, b"y").unwrap();
        wal.sync().unwrap();
        assert_eq!(read_dir(&dir).unwrap().records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_stops_replay_cleanly() {
        let dir = tmp("torn");
        let wal = WalWriter::open(&dir, WalOptions::default()).unwrap();
        for epoch in 1..=5u64 {
            wal.append(epoch, &[epoch as u8; 24]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let seg = list_segments(&dir).unwrap().pop().unwrap();
        let full = std::fs::metadata(&seg.path).unwrap().len();
        // Chop mid-frame: replay keeps the intact prefix, flags truncation.
        let file = OpenOptions::new().write(true).open(&seg.path).unwrap();
        file.set_len(full - 10).unwrap();
        let replay = read_dir(&dir).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.records.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_stops_replay_at_last_valid() {
        let dir = tmp("flip");
        let wal = WalWriter::open(&dir, WalOptions::default()).unwrap();
        for epoch in 1..=3u64 {
            wal.append(epoch, &[0xAB; 16]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let seg = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&seg.path).unwrap();
        let mid = HEADER_LEN as usize + 40; // inside the second frame
        bytes[mid] ^= 0x01;
        std::fs::write(&seg.path, &bytes).unwrap();
        let replay = read_dir(&dir).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_drops_torn_tail_so_later_records_stay_reachable() {
        let dir = tmp("repair");
        {
            let wal = WalWriter::open(&dir, WalOptions::default()).unwrap();
            for epoch in 1..=5u64 {
                wal.append(epoch, &[epoch as u8; 24]).unwrap();
            }
            wal.sync().unwrap();
        }
        // Crash mid-append: the last record is torn.
        let seg = list_segments(&dir).unwrap().pop().unwrap();
        let full = std::fs::metadata(&seg.path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&seg.path).unwrap();
        file.set_len(full - 10).unwrap();
        drop(file);
        assert!(repair_dir(&dir).unwrap());
        let replay = read_dir(&dir).unwrap();
        assert!(!replay.truncated, "the tear is physically gone");
        assert_eq!(replay.records.len(), 4);
        // The second life appends past the repaired tear; without the
        // repair its records would sit behind the tear and be lost by the
        // next replay.
        {
            let wal = WalWriter::open(&dir, WalOptions::default()).unwrap();
            wal.append(5, b"second-life").unwrap();
            wal.sync().unwrap();
        }
        let replay = read_dir(&dir).unwrap();
        assert!(!replay.truncated);
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.records[4].payload, b"second-life");
        // Idempotent: a clean log repairs to itself.
        assert!(!repair_dir(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_deletes_headerless_garbage_and_unreachable_segments() {
        let dir = tmp("repair_garbage");
        let wal = WalWriter::open(&dir, WalOptions { segment_bytes: 64 }).unwrap();
        for epoch in 1..=10u64 {
            wal.append(epoch, &[0x5A; 16]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3, "need a mid-log segment to corrupt");
        // Smash the second segment's header: its whole file becomes
        // garbage, and every segment after it is unreachable for replay.
        std::fs::write(&segments[1].path, b"no").unwrap();
        let before = read_dir(&dir).unwrap();
        assert!(before.truncated);
        assert!(repair_dir(&dir).unwrap());
        let survivors = list_segments(&dir).unwrap();
        assert_eq!(survivors.len(), 1, "garbage + unreachable segments gone");
        let replay = read_dir(&dir).unwrap();
        assert!(!replay.truncated);
        assert_eq!(replay.records, before.records);
        // Missing directories repair to nothing.
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(!repair_dir(&dir).unwrap());
    }

    #[test]
    fn concurrent_sync_never_outruns_a_truncated_log() {
        // Regression: sync() used to set `durable = max(durable, high)`
        // with a record count captured before dropping the lock for the
        // fsync. A truncate_to racing that fsync could shrink `appended`
        // below `high`, after which records appended post-truncation were
        // counted durable without ever being fsynced.
        let dir = tmp("sync_vs_truncate");
        let wal = crate::sync::Arc::new(
            WalWriter::open(&dir, WalOptions { segment_bytes: 256 }).unwrap(),
        );
        let syncer = {
            let wal = crate::sync::Arc::clone(&wal);
            std::thread::spawn(move || {
                for _ in 0..2_000 {
                    wal.sync().unwrap();
                    let (appended, durable) = wal.accounting();
                    assert!(
                        durable <= appended,
                        "durable watermark outran the log: {durable} > {appended}"
                    );
                }
            })
        };
        let mut epoch = 0u64;
        for _ in 0..300 {
            let mark = wal.mark();
            wal.append(epoch + 1, &[0xAA; 48]).unwrap();
            wal.append(epoch + 2, &[0xBB; 48]).unwrap();
            wal.truncate_to(&mark).unwrap();
            epoch += 1;
            wal.append(epoch, &[0xCC; 16]).unwrap();
        }
        wal.sync().unwrap();
        syncer.join().unwrap();
        assert!(!wal.poisoned());
        let (appended, durable) = wal.accounting();
        assert_eq!(appended, 300);
        assert_eq!(durable, 300, "the final sync covers every survivor");
        let replay = read_dir(&dir).unwrap();
        assert!(!replay.truncated);
        assert_eq!(replay.records.len(), 300);
        assert!(replay.records.iter().all(|r| r.payload == [0xCC; 16]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_starts_a_fresh_segment() {
        let dir = tmp("reopen");
        {
            let wal = WalWriter::open(&dir, WalOptions::default()).unwrap();
            wal.append(1, b"first-life").unwrap();
            wal.sync().unwrap();
        }
        {
            let wal = WalWriter::open(&dir, WalOptions::default()).unwrap();
            wal.append(2, b"second-life").unwrap();
            wal.sync().unwrap();
        }
        assert_eq!(list_segments(&dir).unwrap().len(), 2);
        let replay = read_dir(&dir).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(!replay.truncated);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_covers_concurrent_appends() {
        let dir = tmp("group");
        let wal = crate::sync::Arc::new(WalWriter::open(&dir, WalOptions::default()).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let wal = crate::sync::Arc::clone(&wal);
            handles.push(std::thread::spawn(move || {
                // Appends race on epochs, so retry on the ordering error;
                // every thread then syncs — group commit means most calls
                // return without issuing their own fsync.
                for i in 0..25u64 {
                    loop {
                        let epoch = wal.appended() + 1;
                        match wal.append(epoch, &[t as u8, i as u8]) {
                            Ok(_) => break,
                            Err(e) if e.kind() == io::ErrorKind::InvalidInput => {}
                            Err(e) => panic!("append failed: {e}"),
                        }
                    }
                    wal.sync().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let replay = read_dir(&dir).unwrap();
        assert_eq!(replay.records.len(), 100);
        assert!(!replay.truncated);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_missing_dirs_replay_empty() {
        let dir = tmp("empty");
        let replay = read_dir(&dir).unwrap();
        assert_eq!(replay.records.len(), 0);
        assert!(!replay.truncated);
        std::fs::create_dir_all(&dir).unwrap();
        let replay = read_dir(&dir).unwrap();
        assert_eq!(replay.segments, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
