//! Crash-safe file writes and the bounded-retry policy around them.
//!
//! Two shapes of durable write, matched to two shapes of data:
//!
//! * **Replace** — job manifests, final reports and traces, a log's
//!   first record — goes through [`atomic_write`]: write `<path>.tmp`,
//!   fsync the file, rename over the target, then fsync the parent
//!   directory. Process death (`kill -9`) at any instant leaves either
//!   the old bytes or the new bytes, never a torn file; the directory
//!   fsync extends that to host crashes, where a rename alone may not
//!   yet be on disk.
//! * **Append** — a session's checkpoint records — goes through
//!   [`AppendLog`]: write at the end of one open file, `fdatasync`. A
//!   crash can tear the record being appended, and only that one; the
//!   records carry their own length and checksum, so the reader drops a
//!   torn tail and the next appender truncates it. What this buys is
//!   cost proportional to the record instead of to the whole state.
//!
//! [`DurableWriter`] layers the daemon's retry policy on top: bounded
//! attempts with exponential backoff, with deterministic fault
//! injection (`FaultPlan::io_write_fails`) so the whole
//! retry-then-fail path is exercised by tests rather than trusted.
//! [`CheckpointLog`] puts the two together as the one writer of a
//! session's checkpoint log, for `pdtune tune --checkpoint` and the
//! daemon alike.

use pdt_tuner::fault::{FaultPlan, SITE_CHECKPOINT_WRITE};
use pdt_tuner::{Checkpoint, TuneError};
use std::fs;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Atomically replace `path` with `contents`, surviving both process
/// death and host crash: tmp + fsync(file) + rename + fsync(dir).
pub fn atomic_write(path: &Path, contents: &[u8]) -> io::Result<()> {
    stage(path, contents)?;
    fs::rename(tmp_path(path), path)?;
    sync_parent_dir(path)
}

/// Write `contents` to `<path>.tmp` and fsync it: everything of an
/// atomic replace short of the rename.
fn stage(path: &Path, contents: &[u8]) -> io::Result<()> {
    let mut f = fs::File::create(tmp_path(path))?;
    f.write_all(contents)?;
    // A rename can be durable while the data it points at is not;
    // flush file bytes before the rename makes them reachable.
    f.sync_all()
}

/// An append-only file of self-delimiting records (a session's
/// checkpoint log). The file comes into existence whole: the first
/// record is installed by [`atomic_write`], which also makes the name
/// durable, so a log that exists starts with an intact record. Every
/// later record is one write at the end plus `sync_data` — no rename,
/// no directory fsync, no rewrite of what is already there.
#[derive(Debug)]
pub struct AppendLog {
    path: PathBuf,
    /// Open once the file exists.
    file: Option<fs::File>,
    /// Bytes of intact records; the next record lands here.
    len: u64,
}

impl AppendLog {
    /// A log the first [`append`](AppendLog::append) will create,
    /// replacing whatever is at `path`.
    pub fn create(path: &Path) -> AppendLog {
        AppendLog {
            path: path.to_path_buf(),
            file: None,
            len: 0,
        }
    }

    /// Keep appending to an existing log whose first `keep` bytes are
    /// intact records; a torn tail beyond them is cut off first.
    pub fn reopen(path: &Path, keep: u64) -> io::Result<AppendLog> {
        let file = fs::OpenOptions::new().write(true).open(path)?;
        if file.metadata()?.len() != keep {
            file.set_len(keep)?;
            file.sync_data()?;
        }
        Ok(AppendLog {
            path: path.to_path_buf(),
            file: Some(file),
            len: keep,
        })
    }

    /// Durably append one framed record. On error the log still ends
    /// at its last intact record (a partial write is cut back off), so
    /// the call can simply be retried.
    pub fn append(&mut self, record: &[u8]) -> io::Result<()> {
        match &mut self.file {
            None => {
                atomic_write(&self.path, record)?;
                self.file = Some(fs::OpenOptions::new().write(true).open(&self.path)?);
            }
            Some(file) => {
                let written = file
                    .seek(SeekFrom::Start(self.len))
                    .and_then(|_| file.write_all(record))
                    .and_then(|()| file.sync_data());
                if let Err(e) = written {
                    let _ = file.set_len(self.len);
                    return Err(e);
                }
            }
        }
        self.len += record.len() as u64;
        Ok(())
    }
}

/// A session's checkpoint log (DESIGN.md §10): framed records on an
/// [`AppendLog`], each appended through a [`DurableWriter`] at the
/// fault coordinate `(SITE_CHECKPOINT_WRITE, n)`, `n` counting this
/// log's appends from 0. Every record extends the one before it, so
/// once one is lost a later one would only corrupt the log: every
/// append after the first loss writes nothing and returns that loss.
/// What a lost record means is the caller's policy.
#[derive(Debug)]
pub struct CheckpointLog {
    log: AppendLog,
    writer: DurableWriter,
    frame: Vec<u8>,
    appends: u64,
    lost: Option<String>,
}

impl CheckpointLog {
    /// Fold the longest intact prefix of the log at `path`: the
    /// checkpoint it ends at and the bytes its intact records take.
    pub fn read(path: &Path) -> Result<(Checkpoint, u64), TuneError> {
        let bytes = fs::read(path).map_err(|e| io_error(path, e))?;
        let (ck, kept) = Checkpoint::from_log(&bytes)?;
        Ok((ck, kept as u64))
    }

    /// A new log at `path`; the first append replaces whatever is there.
    pub fn create(path: &Path, writer: DurableWriter) -> CheckpointLog {
        CheckpointLog {
            log: AppendLog::create(path),
            writer,
            frame: Vec::new(),
            appends: 0,
            lost: None,
        }
    }

    /// Go on appending to the log at `path` after its first `kept`
    /// bytes, the intact records [`CheckpointLog::read`] folded; a torn
    /// tail beyond them is cut off.
    pub fn extend(path: &Path, kept: u64, writer: DurableWriter) -> Result<Self, TuneError> {
        Ok(CheckpointLog {
            log: AppendLog::reopen(path, kept).map_err(|e| io_error(path, e))?,
            ..CheckpointLog::create(path, writer)
        })
    }

    /// A new log at `path` whose first record is `ck`, folded: where a
    /// session resumed from another log goes on checkpointing.
    pub fn fork(path: &Path, ck: &Checkpoint, writer: DurableWriter) -> Result<Self, TuneError> {
        let mut log = CheckpointLog::create(path, writer);
        log.append(&ck.to_json_string())
            .map_err(|msg| TuneError::Io {
                path: path.display().to_string(),
                msg,
            })?;
        Ok(log)
    }

    /// Frame `record` and append it durably, retrying by the writer's
    /// policy. Once an append has failed, writes nothing and returns
    /// that first error.
    pub fn append(&mut self, record: &str) -> Result<(), String> {
        if let Some(e) = &self.lost {
            return Err(e.clone());
        }
        Checkpoint::frame_record(record, &mut self.frame);
        let (log, frame) = (&mut self.log, &self.frame);
        let path = log.path.clone();
        let appended = self
            .writer
            .retry(SITE_CHECKPOINT_WRITE, self.appends, &path, || {
                log.append(frame)
            });
        self.appends += 1;
        appended
            .map(|_| ())
            .map_err(|e| self.lost.insert(e).clone())
    }

    /// The first append that failed, if one has.
    pub fn lost(&self) -> Option<&str> {
        self.lost.as_deref()
    }
}

fn io_error(path: &Path, e: io::Error) -> TuneError {
    TuneError::Io {
        path: path.display().to_string(),
        msg: e.to_string(),
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Fsync the directory holding `path`, so the rename that installed it
/// survives a host crash. On platforms where directories cannot be
/// opened for sync this is a no-op — process-death atomicity (the
/// rename itself) still holds there.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::File::open(dir)?.sync_all()?;
        }
    }
    Ok(())
}

/// Bounded retry with exponential backoff for durable writes.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (first try included). At least 1.
    pub max_attempts: u32,
    /// Delay before the first retry; doubles per retry.
    pub base_delay: Duration,
    /// Ceiling on any single backoff delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (0-based): `base * 2^retry`,
    /// capped at `max_delay`.
    pub fn delay(&self, retry: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32.checked_shl(retry).unwrap_or(u32::MAX));
        exp.min(self.max_delay)
    }
}

/// A durable writer with a retry policy and optional deterministic
/// fault injection. One writer per fault domain: the daemon holds one
/// for manifests (driven by `PDTUNE_FAULTS`), each session holds one
/// for its checkpoint/report/trace writes (driven by the job's
/// `io_faults` spec), so a poisoned session cannot fail another
/// session's writes.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurableWriter {
    pub faults: Option<FaultPlan>,
    pub policy: RetryPolicy,
}

impl DurableWriter {
    pub fn new(faults: Option<FaultPlan>, policy: RetryPolicy) -> DurableWriter {
        DurableWriter { faults, policy }
    }

    /// Durably write `contents` to `path`, retrying with exponential
    /// backoff. `site`/`seq` are the fault-injection coordinates: the
    /// write path (checkpoint vs manifest) and a monotonic per-site
    /// write number. Returns the number of attempts used (1 = first
    /// try succeeded); after the retry budget is exhausted, returns the
    /// last error — the caller moves the session to `failed`.
    pub fn write(&self, site: u32, seq: u64, path: &Path, contents: &[u8]) -> Result<u32, String> {
        self.retry(site, seq, path, || atomic_write(path, contents))
    }

    /// Install several files of one directory as a group: each is
    /// staged (tmp + fsync) under its own retry budget and its own
    /// `seq` coordinate, then all are renamed into place and the
    /// directory is fsynced once — one directory flush where separate
    /// [`DurableWriter::write`]s pay one each. Not atomic as a group:
    /// the caller's commit record (the manifest) is what says the
    /// group is complete.
    pub fn write_group(&self, site: u32, files: &[(u64, &Path, &[u8])]) -> Result<(), String> {
        for (seq, path, contents) in files {
            self.retry(site, *seq, path, || stage(path, contents))?;
        }
        let Some((_, first, _)) = files.first() else {
            return Ok(());
        };
        files
            .iter()
            .try_for_each(|(_, path, _)| fs::rename(tmp_path(path), path))
            .and_then(|()| sync_parent_dir(first))
            .map_err(|e| format!("installing into {}: {e}", first.display()))
    }

    fn retry(
        &self,
        site: u32,
        seq: u64,
        path: &Path,
        mut op: impl FnMut() -> io::Result<()>,
    ) -> Result<u32, String> {
        let attempts = self.policy.max_attempts.max(1);
        let mut last_err = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.policy.delay(attempt - 1));
            }
            let injected = self
                .faults
                .is_some_and(|p| p.io_write_fails(site, seq, attempt as u64));
            let result = if injected {
                Err(io::Error::other(format!(
                    "injected I/O fault: site={site} seq={seq} attempt={attempt}"
                )))
            } else {
                op()
            };
            match result {
                Ok(()) => return Ok(attempt + 1),
                Err(e) => last_err = e.to_string(),
            }
        }
        Err(format!(
            "write to {} failed after {attempts} attempts: {last_err}",
            path.display()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_tuner::fault::{SITE_CHECKPOINT_WRITE, SITE_MANIFEST_WRITE};

    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pdtune-durable-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Zero-delay policy for tests: the backoff schedule is still
    /// computed (and asserted separately), just not slept.
    fn fast(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    #[test]
    fn atomic_write_installs_content_and_removes_tmp() {
        let dir = scratch_dir("rename");
        let path = dir.join("ck.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        // The rename path proper: overwrite an existing target.
        atomic_write(&path, b"second, longer than the first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer than the first");
        assert!(
            !tmp_path(&path).exists(),
            "tmp file must be consumed by the rename"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_fails_cleanly_without_parent() {
        let dir = scratch_dir("noparent");
        let path = dir.join("missing").join("ck.json");
        assert!(atomic_write(&path, b"x").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_log_is_created_whole_and_grows_in_place() {
        let dir = scratch_dir("appendlog");
        let path = dir.join("ck.log");
        fs::write(&path, b"stale bytes from an earlier run").unwrap();
        let mut log = AppendLog::create(&path);
        assert_eq!(fs::read(&path).unwrap().len(), 31, "nothing until a record");
        log.append(b"first\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first\n");
        assert!(!tmp_path(&path).exists());
        log.append(b"second\n").unwrap();
        log.append(b"third\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first\nsecond\nthird\n");
        drop(log);
        // A crash tore the third record; the next daemon keeps the
        // intact prefix, cuts the tail and appends after it.
        let mut log = AppendLog::reopen(&path, 13).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first\nsecond\n");
        log.append(b"3rd\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first\nsecond\n3rd\n");
        assert!(AppendLog::reopen(&dir.join("absent.log"), 0).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The records a small traced session hands its sink, one per
    /// iteration.
    fn session_records() -> Vec<String> {
        let spec = crate::JobSpec {
            sf: 0.01,
            queries: Some(6),
            budget: Some(2e6),
            iterations: 8,
            ..crate::JobSpec::default()
        };
        let db = spec.build_database().unwrap();
        let workload = spec.build_workload(&db).unwrap();
        let options = spec
            .tuner_options(None, pdt_tuner::StopToken::new())
            .unwrap();
        let records = std::cell::RefCell::new(Vec::new());
        let sink = |_: usize, record: &str| records.borrow_mut().push(record.to_string());
        let tracer = pdt_trace::Tracer::new();
        let ctl = pdt_tuner::SessionCtl {
            tracer: Some(&tracer),
            checkpoint_every: 1,
            checkpoint_sink: Some(&sink),
            ..pdt_tuner::SessionCtl::default()
        };
        pdt_tuner::tune_session(&db, &workload, &options, ctl).unwrap();
        records.into_inner()
    }

    #[test]
    fn a_lost_record_ends_the_checkpoint_log() {
        let records = session_records();
        assert!(records.len() >= 5, "only {} records", records.len());
        // A plan under which appends 0..3 land, append 3 fails all of
        // its attempts, and append 4 would land again.
        let attempts = 2;
        let fails = |plan: &FaultPlan, n: u64| {
            (0..u64::from(attempts)).all(|a| plan.io_write_fails(SITE_CHECKPOINT_WRITE, n, a))
        };
        let plan = (0..)
            .map(|seed| FaultPlan { seed, rate: 0.5 })
            .find(|p| (0..3).all(|n| !fails(p, n)) && fails(p, 3) && !fails(p, 4))
            .unwrap();
        let dir = scratch_dir("lost");
        let path = dir.join("checkpoint.log");
        let writer = DurableWriter::new(Some(plan), fast(attempts));
        let mut log = CheckpointLog::create(&path, writer);
        for record in &records[..3] {
            log.append(record).unwrap();
        }
        let intact = fs::read(&path).unwrap();
        let err = log.append(&records[3]).unwrap_err();
        assert!(err.contains("after 2 attempts"), "{err}");
        assert_eq!(log.lost(), Some(err.as_str()));
        // Later appends, the one the plan would let land included,
        // write nothing and report the loss.
        for record in &records[4..] {
            assert_eq!(log.append(record).unwrap_err(), err);
        }
        assert_eq!(fs::read(&path).unwrap(), intact);
        // The file folds to the records written before the loss.
        let (folded, kept) = CheckpointLog::read(&path).unwrap();
        assert_eq!(kept, intact.len() as u64);
        let mut expected = Checkpoint::from_json_str(&records[0]).unwrap();
        for record in &records[1..3] {
            expected.apply_record(record).unwrap();
        }
        assert_eq!(folded.to_json_string(), expected.to_json_string());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_logs_start_fresh_after_a_prefix_or_from_a_fold() {
        let records = session_records();
        let dir = scratch_dir("starts");
        let (a, b) = (dir.join("a.log"), dir.join("b.log"));
        let mut log = CheckpointLog::create(&a, DurableWriter::default());
        for record in &records[..3] {
            log.append(record).unwrap();
        }
        drop(log);
        let whole = fs::read(&a).unwrap();
        // Torn mid-record: the next log goes on after the intact prefix.
        fs::write(&a, &whole[..whole.len() - 7]).unwrap();
        let (ck, kept) = CheckpointLog::read(&a).unwrap();
        let mut log = CheckpointLog::extend(&a, kept, DurableWriter::default()).unwrap();
        log.append(&records[2]).unwrap();
        assert_eq!(fs::read(&a).unwrap(), whole);
        // A fork starts with the fold as one record and extends alike.
        let mut fork = CheckpointLog::fork(&b, &ck, DurableWriter::default()).unwrap();
        fork.append(&records[2]).unwrap();
        let (from_fork, _) = CheckpointLog::read(&b).unwrap();
        let (from_whole, _) = CheckpointLog::read(&a).unwrap();
        assert_eq!(from_fork.to_json_string(), from_whole.to_json_string());
        assert_eq!(fs::read_to_string(&b).unwrap().lines().count(), 2);
        // What cannot be read is an I/O error, what does not fold a
        // checkpoint error.
        let absent = dir.join("absent.log");
        assert!(matches!(
            CheckpointLog::read(&absent),
            Err(TuneError::Io { .. })
        ));
        fs::write(&absent, b"garbage").unwrap();
        assert!(matches!(
            CheckpointLog::read(&absent),
            Err(TuneError::Checkpoint(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_writes_keep_per_file_coordinates_and_stage_before_installing() {
        let dir = scratch_dir("group");
        let (a, b) = (dir.join("a.txt"), dir.join("b.txt"));
        DurableWriter::default()
            .write_group(SITE_CHECKPOINT_WRITE, &[(7, &a, b"aa"), (8, &b, b"bb")])
            .unwrap();
        assert_eq!(fs::read(&a).unwrap(), b"aa");
        assert_eq!(fs::read(&b).unwrap(), b"bb");
        assert!(!tmp_path(&a).exists() && !tmp_path(&b).exists());
        // A certain fault fails the group at its first file, after the
        // retry budget, with nothing installed.
        let (c, d) = (dir.join("c.txt"), dir.join("d.txt"));
        let faulty = DurableWriter::new(Some(FaultPlan { seed: 3, rate: 1.0 }), fast(2));
        let err = faulty
            .write_group(SITE_CHECKPOINT_WRITE, &[(7, &c, b"cc"), (8, &d, b"dd")])
            .unwrap_err();
        assert!(
            err.contains("c.txt") && err.contains("after 2 attempts"),
            "{err}"
        );
        assert!(
            !c.exists() && !d.exists(),
            "nothing of a failed group appears"
        );
        // The injector is consulted at exactly the coordinates separate
        // writes would use.
        for seed in 0..20u64 {
            let w = DurableWriter::new(Some(FaultPlan { seed, rate: 0.5 }), fast(1));
            let (e, f) = (dir.join(format!("e{seed}")), dir.join(format!("f{seed}")));
            let separate = w.write(SITE_CHECKPOINT_WRITE, 1, &e, b"e").is_ok()
                && w.write(SITE_CHECKPOINT_WRITE, 2, &f, b"f").is_ok();
            let grouped = w
                .write_group(SITE_CHECKPOINT_WRITE, &[(1, &e, b"e"), (2, &f, b"f")])
                .is_ok();
            assert_eq!(separate, grouped, "seed {seed}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(45),
        };
        assert_eq!(p.delay(0), Duration::from_millis(10));
        assert_eq!(p.delay(1), Duration::from_millis(20));
        assert_eq!(p.delay(2), Duration::from_millis(40));
        assert_eq!(p.delay(3), Duration::from_millis(45), "capped");
        assert_eq!(p.delay(30), Duration::from_millis(45), "no overflow");
    }

    #[test]
    fn certain_faults_exhaust_exactly_the_retry_budget() {
        let dir = scratch_dir("exhaust");
        let path = dir.join("m.json");
        let w = DurableWriter::new(Some(FaultPlan { seed: 3, rate: 1.0 }), fast(4));
        let err = w
            .write(SITE_MANIFEST_WRITE, 0, &path, b"never lands")
            .unwrap_err();
        assert!(err.contains("after 4 attempts"), "{err}");
        assert!(!path.exists(), "no partial artifact may appear");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_outcome_is_deterministic_and_bounded() {
        // Property: for any seed, the (attempts, ok) outcome of every
        // write is (a) identical across runs and (b) within the retry
        // budget; at rate 0.5 some write must need >1 attempt (the
        // retry path fires) and some must fail outright at a small
        // budget (the give-up path fires).
        let dir = scratch_dir("prop");
        let mut saw_retry = false;
        let mut saw_failure = false;
        for seed in 0..40u64 {
            let w = DurableWriter::new(Some(FaultPlan { seed, rate: 0.5 }), fast(3));
            for seq in 0..8u64 {
                let path = dir.join(format!("w-{seed}-{seq}.json"));
                let run = |w: &DurableWriter| w.write(SITE_CHECKPOINT_WRITE, seq, &path, b"body");
                let first = run(&w);
                let second = run(&w);
                match (&first, &second) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a, b, "attempt count must be deterministic");
                        assert!(*a <= 3);
                        if *a > 1 {
                            saw_retry = true;
                        }
                        assert_eq!(fs::read(&path).unwrap(), b"body");
                    }
                    (Err(_), Err(_)) => saw_failure = true,
                    other => panic!("outcome flipped between runs: {other:?}"),
                }
            }
        }
        assert!(saw_retry, "rate 0.5 must exercise the retry path");
        assert!(saw_failure, "rate 0.5 at 3 attempts must exercise give-up");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_faults_means_single_attempt() {
        let dir = scratch_dir("clean");
        let w = DurableWriter::default();
        let n = w
            .write(SITE_CHECKPOINT_WRITE, 7, &dir.join("c.json"), b"ok")
            .unwrap();
        assert_eq!(n, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
