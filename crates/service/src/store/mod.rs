//! `store` — durable snapshot + journal persistence for the engine.
//!
//! A `srank serve` restart used to throw away every Monte-Carlo sample
//! batch, every cached `verify` region, and every live `GET-NEXT`
//! session — exactly the state the rest of this service exists to make
//! cheap to share. This subsystem persists all three under a `--data-dir`
//! so a warm restart answers hot queries at cache speed from the first
//! request and producers resume their enumerations across process death.
//!
//! ## On-disk layout (version 1)
//!
//! ```text
//! <data-dir>/
//!   MANIFEST.json            one row per dataset: name, file, generation,
//!                            content checksum (the restore entry point)
//!   datasets/<name>.snap     per-dataset snapshot: source spec + the
//!                            result-cache and sample-batch entries built
//!                            against it (LRU order, restored verbatim)
//!   sessions/<id>.sess       one serialized session per file (enumerator
//!                            state + RNG position), so `session.save` /
//!                            `session.resume` work at single-session
//!                            granularity
//! ```
//!
//! Every file is a checksummed, versioned snapshot file written with
//! tmp+rename (see [`layout`]); a crash mid-checkpoint leaves the
//! previous complete generation in place. Loaders are corruption
//! tolerant end to end: a bad file is logged to stderr and skipped —
//! never a panic, never a poisoned boot.
//!
//! ## Generation-stamp compatibility
//!
//! Cache keys and session records embed the registry generation they
//! were built against. A snapshot additionally records each dataset's
//! *content checksum*; on restore the source is re-loaded and the bits
//! compared. Match ⇒ the dataset is re-registered under its recorded
//! generation and every derived artifact is restored verbatim. Mismatch
//! (a CSV edited between runs, a changed simulator) ⇒ the dataset loads
//! under a fresh generation and the stale artifacts are dropped with a
//! logged warning — reloading a dataset invalidates snapshots exactly
//! like reloading it over the wire invalidates caches.

pub mod journal;
pub mod layout;

use crate::cache::ResultKey;
use crate::engine::EngineCore;
use crate::lockorder::{rank, OrderedMutex};
use crate::metrics::Sink;
use crate::proto::{Object, Op, ServiceError, ServiceResult};
use crate::registry::{dataset_checksum, DatasetSource};
use crate::session::Session;
use layout::{encode_name, read_snapshot_file, write_snapshot_file};
use serde_json::Value;
use srank_sample::store::SampleBuffer;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters surfaced through the `stats` op's `store` block.
#[derive(Debug)]
pub struct StoreCounters {
    pub snapshots: AtomicU64,
    pub restores: AtomicU64,
    pub sessions_saved: AtomicU64,
    pub sessions_resumed: AtomicU64,
    pub journal_checkpoints: AtomicU64,
    /// Individual store file writes that failed (each one logged, the
    /// artifact retried by a later pass).
    pub write_failures: AtomicU64,
    /// Background journal passes that failed entirely or partially.
    pub journal_failures: AtomicU64,
    /// Consecutive failed journal passes (reset to 0 by the first clean
    /// pass) — the `health` op calls persistence "degraded" while this
    /// is non-zero, and the journal backs off exponentially on it.
    pub consecutive_failures: AtomicU64,
    /// The most recent store IO error, verbatim (`None` = never failed).
    pub last_error: OrderedMutex<rank::StoreState, Option<String>>,
}

impl Default for StoreCounters {
    fn default() -> Self {
        Self {
            snapshots: AtomicU64::new(0),
            restores: AtomicU64::new(0),
            sessions_saved: AtomicU64::new(0),
            sessions_resumed: AtomicU64::new(0),
            journal_checkpoints: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
            journal_failures: AtomicU64::new(0),
            consecutive_failures: AtomicU64::new(0),
            last_error: OrderedMutex::new(None),
        }
    }
}

impl StoreCounters {
    /// Records one failed store write: counted, and kept as
    /// `last_error` for `stats.store` / `health`.
    pub fn note_write_failure(&self, what: &str, e: &dyn std::fmt::Display) {
        self.write_failures.fetch_add(1, Ordering::Relaxed);
        *self.last_error.lock() = Some(format!("{what}: {e}"));
    }

    /// The recorded `last_error`, cloned out.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }
}

/// A handle on the `--data-dir` persistence root.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    pub counters: StoreCounters,
    /// Fault-injection seams for chaos testing (disarmed by default;
    /// the engine shares its armed set at construction).
    faults: Arc<crate::faults::Faults>,
}

/// Logs one store warning (the log-and-skip channel of the loaders).
/// Routed through [`crate::log`], whose pretty format keeps the exact
/// `srank-store: warning: …` shape downstream parsers match on.
fn warn(msg: &str) {
    crate::log::warn("srank-store", msg);
}

fn io_err(what: &str, e: std::io::Error) -> ServiceError {
    ServiceError::internal(format!("store: {what}: {e}"))
}

impl Store {
    /// Opens (creating if needed) the store directories.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(dir.join("datasets"))?;
        std::fs::create_dir_all(dir.join("sessions"))?;
        Ok(Self {
            dir,
            counters: StoreCounters::default(),
            faults: Arc::new(crate::faults::Faults::disarmed()),
        })
    }

    /// Shares the engine's armed fault set with this store's IO seams.
    pub fn arm_faults(&mut self, faults: Arc<crate::faults::Faults>) {
        self.faults = faults;
    }

    /// All snapshot-file writes funnel through here: the fault seam
    /// fires first, and every failure (injected or real) is counted and
    /// kept as `last_error` before propagating.
    fn write_file(
        &self,
        path: &Path,
        kind: &str,
        header: Vec<(String, Value)>,
        payload: &[Value],
    ) -> std::io::Result<()> {
        let outcome = match self.faults.store_write_error(kind) {
            Some(e) => Err(e),
            None => write_snapshot_file(path, kind, header, payload),
        };
        if let Err(e) = &outcome {
            self.counters
                .note_write_failure(&format!("writing {kind} {}", path.display()), e);
        }
        outcome
    }

    /// All snapshot-file reads funnel through here (same seam, read
    /// side; failures surface through the callers' warning channels).
    fn read_file(&self, path: &Path, kind: &str) -> Result<(Value, Vec<Value>), String> {
        if let Some(e) = self.faults.store_read_error(kind) {
            return Err(format!("{}: {e}", path.display()));
        }
        read_snapshot_file(path, kind)
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("MANIFEST.json")
    }

    fn dataset_path(&self, name: &str) -> PathBuf {
        self.dir
            .join("datasets")
            .join(format!("{}.snap", encode_name(name)))
    }

    fn session_path(&self, id: u64) -> PathBuf {
        self.dir.join("sessions").join(format!("{id}.sess"))
    }

    // ------------------------------------------------------------------
    // Snapshot (full)

    /// Persists the engine's warm state: every registered dataset
    /// (source plus content checksum), the result-cache and sample-batch
    /// entries built against its current generation, and every
    /// checked-in session. Checked-out (mid-request) sessions are
    /// skipped and counted — their state is not observable without
    /// blocking them.
    pub fn snapshot(&self, core: &EngineCore) -> ServiceResult<Value> {
        let datasets = core.registry().list();
        // Clone the cache contents out under short locks; file IO happens
        // lock-free.
        let results: Vec<(ResultKey, Value)> = {
            let cache = core.results_cache().lock();
            cache
                .iter_lru()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };
        let samples: Vec<(String, Arc<SampleBuffer>)> = {
            let cache = core.samples_cache().lock();
            cache
                .iter_lru()
                .map(|(k, v)| (k.clone(), Arc::clone(v)))
                .collect()
        };
        let (session_exports, busy_ids) = core.sessions().export_snapshots(false);

        let mut manifest_rows = Vec::new();
        let mut result_count = 0usize;
        let mut sample_count = 0usize;
        for entry in &datasets {
            let checksum = dataset_checksum(&entry.dataset);
            let mut payload = Vec::new();
            // Result keys carry their op, dataset and generation, and
            // sample-batch keys embed `name|g<generation>|…`; only the
            // current generation's entries are worth persisting.
            for op in Op::ALL.into_iter().filter(|op| op.cacheable()) {
                let current = |k: &ResultKey| {
                    k.op == op && k.dataset == entry.name && k.generation == entry.generation
                };
                for (key, value) in results.iter().filter(|(k, _)| current(k)) {
                    payload.push(
                        Object::new()
                            .field("t", "result")
                            .field("key", key.to_string())
                            .field("value", value.clone())
                            .build(),
                    );
                    result_count += 1;
                }
            }
            let prefix = format!("{}|g{}|", entry.name, entry.generation);
            for (key, buffer) in samples.iter().filter(|(k, _)| k.starts_with(&prefix)) {
                payload.push(
                    Object::new()
                        .field("t", "samples")
                        .field("key", key.as_str())
                        .field("buffer", buffer.to_value())
                        .build(),
                );
                sample_count += 1;
            }
            self.write_file(
                &self.dataset_path(&entry.name),
                "dataset",
                vec![
                    ("dataset".into(), Value::String(entry.name.clone())),
                    ("generation".into(), Value::Number(entry.generation as f64)),
                    (
                        "data_checksum".into(),
                        Value::String(format!("{checksum:016x}")),
                    ),
                    ("source".into(), entry.origin.to_value()),
                ],
                &payload,
            )
            .map_err(|e| io_err("writing dataset snapshot", e))?;
            manifest_rows.push(
                Object::new()
                    .field("dataset", entry.name.as_str())
                    .field("file", format!("{}.snap", encode_name(&entry.name)))
                    .field("generation", entry.generation)
                    .field("data_checksum", format!("{checksum:016x}"))
                    .build(),
            );
        }

        // Sessions: one file each, then prune files for sessions that no
        // longer exist (closed or evicted since the last snapshot). Busy
        // sessions keep their previous checkpoint file; a failed write
        // keeps its session dirty (and its old file), so the next
        // checkpoint retries — progress is only acknowledged durable
        // after its write succeeded.
        let by_name: std::collections::HashMap<&str, u64> = datasets
            .iter()
            .map(|e| (e.name.as_str(), dataset_checksum(&e.dataset)))
            .collect();
        let mut keep: std::collections::HashSet<u64> = busy_ids.iter().copied().collect();
        let (session_count, write_failures) =
            self.write_session_exports(core, &session_exports, &by_name, Some(&mut keep));
        self.prune_sessions(&keep);
        self.prune_datasets(&datasets.iter().map(|e| e.name.clone()).collect::<Vec<_>>());

        self.write_file(&self.manifest_path(), "manifest", vec![], &manifest_rows)
            .map_err(|e| io_err("writing manifest", e))?;
        self.counters.snapshots.fetch_add(1, Ordering::Relaxed);
        Ok(Object::new()
            .field("data_dir", self.dir.display().to_string())
            .field("datasets", manifest_rows.len())
            .field("results", result_count)
            .field("sample_batches", sample_count)
            .field("sessions", session_count)
            .field("sessions_busy_skipped", busy_ids.len())
            .field("session_write_failures", write_failures)
            .build())
    }

    /// Checkpoints sessions only (the journal's periodic pass). With
    /// `only_dirty`, sessions untouched since their last checkpoint are
    /// skipped. Returns `(written, busy_skipped, failures)` — failed
    /// writes leave their sessions dirty for the next pass, and the
    /// journal uses the failure count to back off and report health.
    pub fn checkpoint_sessions(
        &self,
        core: &EngineCore,
        only_dirty: bool,
    ) -> ServiceResult<(usize, usize, usize)> {
        let (exports, busy_ids) = core.sessions().export_snapshots(only_dirty);
        let datasets = core.registry().list();
        let by_name: std::collections::HashMap<&str, u64> = datasets
            .iter()
            .map(|e| (e.name.as_str(), dataset_checksum(&e.dataset)))
            .collect();
        let (written, failures) = self.write_session_exports(core, &exports, &by_name, None);
        Ok((written, busy_ids.len(), failures))
    }

    /// Writes one file per exported session, acknowledging each session's
    /// checkpoint watermark only after its write succeeded. Failures are
    /// logged and skipped (the session stays dirty and is retried by the
    /// next pass) rather than aborting the remaining sessions. Returns
    /// `(written, failures)`.
    fn write_session_exports(
        &self,
        core: &EngineCore,
        exports: &[crate::session::SessionExport],
        checksum_by_dataset: &std::collections::HashMap<&str, u64>,
        mut keep: Option<&mut std::collections::HashSet<u64>>,
    ) -> (usize, usize) {
        let mut written = 0usize;
        let mut failures = 0usize;
        for export in exports {
            let Some(&checksum) = checksum_by_dataset.get(export.dataset.as_str()) else {
                continue; // dataset dropped under the session; stale
            };
            match self.write_session_file(export.id, &export.dataset, checksum, &export.record) {
                Ok(()) => {
                    core.sessions()
                        .mark_checkpointed(export.id, export.advances);
                    if let Some(keep) = keep.as_deref_mut() {
                        keep.insert(export.id);
                    }
                    written += 1;
                }
                Err(e) => {
                    warn(&format!(
                        "writing session {} checkpoint failed (will retry): {e}",
                        export.id
                    ));
                    // Keep any previous checkpoint file for this session.
                    if let Some(keep) = keep.as_deref_mut() {
                        keep.insert(export.id);
                    }
                    failures += 1;
                }
            }
        }
        (written, failures)
    }

    fn write_session_file(
        &self,
        id: u64,
        dataset: &str,
        data_checksum: u64,
        record: &Value,
    ) -> std::io::Result<()> {
        self.write_file(
            &self.session_path(id),
            "session",
            vec![
                ("dataset".into(), Value::String(dataset.to_string())),
                (
                    "data_checksum".into(),
                    Value::String(format!("{data_checksum:016x}")),
                ),
            ],
            std::slice::from_ref(record),
        )
    }

    /// Removes `.sess` files whose session no longer exists.
    fn prune_sessions(&self, keep: &std::collections::HashSet<u64>) {
        let Ok(entries) = std::fs::read_dir(self.dir.join("sessions")) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let stale = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(".sess"))
                .and_then(|stem| stem.parse::<u64>().ok())
                .is_some_and(|id| !keep.contains(&id));
            if stale {
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    /// Removes `.snap` files for datasets no longer registered.
    fn prune_datasets(&self, names: &[String]) {
        let keep: std::collections::HashSet<String> = names
            .iter()
            .map(|n| format!("{}.snap", encode_name(n)))
            .collect();
        let Ok(entries) = std::fs::read_dir(self.dir.join("datasets")) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let stale = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".snap") && !keep.contains(n));
            if stale {
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    // ------------------------------------------------------------------
    // Restore

    /// Loads everything the store holds back into `core`: datasets under
    /// their recorded generations (when the re-loaded bits match the
    /// recorded checksum), cache entries verbatim, and every valid
    /// session file. Corrupt or incompatible files are logged to stderr,
    /// surfaced in the report's `warnings`, and skipped.
    pub fn restore(&self, core: &EngineCore) -> Value {
        let mut warnings: Vec<String> = Vec::new();
        let mut datasets = 0usize;
        let mut results = 0usize;
        let mut sample_batches = 0usize;

        let manifest = self.manifest_path();
        let rows = if manifest.exists() {
            match self.read_file(&manifest, "manifest") {
                Ok((_, rows)) => rows,
                Err(e) => {
                    warnings.push(e);
                    Vec::new()
                }
            }
        } else {
            Vec::new() // cold start: nothing to restore, nothing to warn
        };

        for row in &rows {
            match self.restore_dataset(core, row) {
                Ok((r, s)) => {
                    datasets += 1;
                    results += r;
                    sample_batches += s;
                }
                Err(e) => warnings.push(e),
            }
        }

        let mut sessions = 0usize;
        if let Ok(entries) = std::fs::read_dir(self.dir.join("sessions")) {
            let mut paths: Vec<PathBuf> = entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "sess"))
                .collect();
            paths.sort();
            for path in paths {
                match self.restore_session_file(core, &path) {
                    Ok(()) => sessions += 1,
                    Err(e) => warnings.push(e),
                }
            }
        }

        for w in &warnings {
            warn(w);
        }
        self.counters.restores.fetch_add(1, Ordering::Relaxed);
        Object::new()
            .field("data_dir", self.dir.display().to_string())
            .field("datasets", datasets)
            .field("results", results)
            .field("sample_batches", sample_batches)
            .field("sessions", sessions)
            .field(
                "warnings",
                Value::Array(warnings.into_iter().map(Value::String).collect()),
            )
            .build()
    }

    /// Restores one manifest row: dataset + its cache entries. Returns
    /// `(results, sample_batches)` restored.
    fn restore_dataset(&self, core: &EngineCore, row: &Value) -> Result<(usize, usize), String> {
        let name = row
            .get("dataset")
            .and_then(Value::as_str)
            .ok_or("manifest row has no dataset name")?;
        let generation = row
            .get("generation")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("manifest row for '{name}' has no generation"))?;
        let recorded = row
            .get("data_checksum")
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| format!("manifest row for '{name}' has no data checksum"))?;
        let path = self.dataset_path(name);
        let (header, payload) = self.read_file(&path, "dataset")?;
        let source = DatasetSource::from_value(
            header
                .get("source")
                .ok_or_else(|| format!("{}: header has no source", path.display()))?,
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;

        // A *live* registration newer than the snapshot wins: rolling it
        // back to the recorded generation would stale every session and
        // cache entry built since (this arm is only reachable through
        // the `restore` op on a running engine — at boot the registry is
        // empty).
        if let Ok(live) = core.registry().get(name) {
            if live.generation > generation {
                return Err(format!(
                    "dataset '{name}' is live at generation {} (snapshot has {generation}); \
                     left untouched and its snapshotted state skipped",
                    live.generation
                ));
            }
        }

        // The compatibility gate: re-register under the recorded
        // generation only when the re-loaded bits are identical.
        let entry = core
            .registry()
            .load_with_generation(name, &source, generation)
            .map_err(|e| format!("dataset '{name}' failed to re-load: {e}"))?;
        if dataset_checksum(&entry.dataset) != recorded {
            // Contents drifted (e.g. the CSV changed on disk): demote to
            // a fresh generation so nothing stale can ever be served, and
            // drop the derived artifacts.
            let fresh = core
                .registry()
                .load(name, &source)
                .map_err(|e| format!("dataset '{name}' failed to re-load: {e}"))?;
            return Err(format!(
                "dataset '{name}' contents changed since the snapshot; loaded fresh as \
                 generation {} and dropped its cached state",
                fresh.generation
            ));
        }

        let mut results = 0usize;
        let mut sample_batches = 0usize;
        for line in &payload {
            match line.get("t").and_then(Value::as_str) {
                Some("result") => {
                    let key: ResultKey = line
                        .get("key")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("{}: result entry has no key", path.display()))?
                        .parse()
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    let value = line
                        .get("value")
                        .ok_or_else(|| format!("{}: result entry has no value", path.display()))?;
                    core.results_cache().lock().insert(key, value.clone());
                    results += 1;
                }
                Some("samples") => {
                    let key = line
                        .get("key")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("{}: sample entry has no key", path.display()))?;
                    let buffer = SampleBuffer::from_value(line.get("buffer").ok_or_else(|| {
                        format!("{}: sample entry has no buffer", path.display())
                    })?)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                    core.samples_cache()
                        .lock()
                        .insert(key.to_string(), Arc::new(buffer));
                    sample_batches += 1;
                }
                other => {
                    return Err(format!(
                        "{}: unknown payload entry type {other:?}",
                        path.display()
                    ))
                }
            }
        }
        Ok((results, sample_batches))
    }

    /// Restores one `.sess` file into the session table. The record's
    /// dataset must be registered under the session's generation with
    /// the checksum recorded at save time — checked before the state is
    /// decoded, since an md state harvests its pair list from that
    /// dataset — and the state must reattach to it.
    fn restore_session_file(&self, core: &EngineCore, path: &Path) -> Result<(), String> {
        use srank_sample::persist::{str_field, u64_field};
        let at = path.display();
        let (header, payload) = self.read_file(path, "session")?;
        let record = payload
            .first()
            .ok_or_else(|| format!("{at}: empty session file"))?;
        let dataset = str_field(record, "dataset").map_err(|e| format!("{at}: {e}"))?;
        let generation = u64_field(record, "generation").map_err(|e| format!("{at}: {e}"))?;
        let entry = core
            .registry()
            .get(dataset)
            .map_err(|_| format!("{at}: dataset '{dataset}' is not registered"))?;
        if entry.generation != generation {
            return Err(format!(
                "{at}: session was saved against generation {generation} of '{dataset}', \
                 which is now generation {} — stale",
                entry.generation
            ));
        }
        let recorded = header
            .get("data_checksum")
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| format!("{at}: session header has no data checksum"))?;
        if dataset_checksum(&entry.dataset) != recorded {
            return Err(format!(
                "{at}: dataset '{dataset}' contents differ from the session checkpoint — stale"
            ));
        }
        let session = Session::from_snapshot_value(record, &entry.dataset)
            .map_err(|e| format!("{at}: {e}"))?;
        core.sessions()
            .install(session)
            .map_err(|e| format!("{at}: {e}"))?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Single-session save / resume (the `session.save` / `session.resume`
    // ops)

    /// Checkpoints one live session to its `.sess` file.
    pub fn save_session(&self, core: &EngineCore, id: u64) -> ServiceResult<Value> {
        let mut checked = core.sessions().check_out(id)?;
        let (record, dataset, advances) = {
            let session = checked.session();
            (
                session.snapshot_value(),
                session.dataset.clone(),
                session.advances,
            )
        };
        let entry = core.registry().get(&dataset).map_err(|_| {
            ServiceError::session_not_found(format!(
                "dataset '{dataset}' was dropped; session {id} cannot be saved"
            ))
        })?;
        self.write_session_file(id, &dataset, dataset_checksum(&entry.dataset), &record)
            .map_err(|e| io_err("writing session checkpoint", e))?;
        // Acknowledged only now that the write succeeded (the session is
        // checked out, so `advances` cannot have moved meanwhile).
        checked.session().checkpointed = advances;
        self.counters.sessions_saved.fetch_add(1, Ordering::Relaxed);
        Ok(Object::new()
            .field("session", id)
            .field("saved", true)
            .field("path", self.session_path(id).display().to_string())
            .build())
    }

    /// Brings a checkpointed session back to life. If the session is
    /// already live (or currently executing a request) it is left
    /// untouched and reported as such.
    pub fn resume_session(&self, core: &EngineCore, id: u64) -> ServiceResult<Value> {
        use crate::proto::ErrorCode;
        match core.sessions().check_out(id) {
            Ok(mut checked) => {
                let session = checked.session();
                return Ok(Object::new()
                    .field("session", id)
                    .field("dataset", session.dataset.as_str())
                    .field("kind", session.state.kind())
                    .field("returned", session.returned)
                    .field("restored", false)
                    .build());
            }
            Err(e) if e.code == ErrorCode::SessionBusy => {
                return Ok(Object::new()
                    .field("session", id)
                    .field("restored", false)
                    .build());
            }
            Err(_) => {} // not in memory: fall through to the store
        }
        let path = self.session_path(id);
        if !path.exists() {
            return Err(ServiceError::session_not_found(format!(
                "session {id} has no checkpoint under {}",
                self.dir.join("sessions").display()
            )));
        }
        self.restore_session_file(core, &path)
            .map_err(ServiceError::session_not_found)?;
        self.counters
            .sessions_resumed
            .fetch_add(1, Ordering::Relaxed);
        let mut checked = core.sessions().check_out(id)?;
        let session = checked.session();
        Ok(Object::new()
            .field("session", id)
            .field("dataset", session.dataset.as_str())
            .field("kind", session.state.kind())
            .field("returned", session.returned)
            .field("restored", true)
            .build())
    }

    /// Exports the `stats` op's `store` block.
    pub(crate) fn export(&self, s: &mut Sink) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let c = &self.counters;
        s.info("data_dir", self.dir.display().to_string());
        s.counter(
            "snapshots",
            "srank_store_snapshots_total",
            "Full snapshots written.",
            load(&c.snapshots),
        );
        s.counter(
            "restores",
            "srank_store_restores_total",
            "Restore passes run.",
            load(&c.restores),
        );
        s.counter(
            "sessions_saved",
            "srank_store_sessions_saved_total",
            "Explicit session.save checkpoints.",
            load(&c.sessions_saved),
        );
        s.counter(
            "sessions_resumed",
            "srank_store_sessions_resumed_total",
            "Sessions resumed from disk.",
            load(&c.sessions_resumed),
        );
        s.counter(
            "journal_checkpoints",
            "srank_store_journal_checkpoints_total",
            "Background journal checkpoint passes.",
            load(&c.journal_checkpoints),
        );
        s.counter(
            "write_failures",
            "srank_store_write_failures_total",
            "Store file writes that failed (injected or real).",
            load(&c.write_failures),
        );
        s.counter(
            "journal_failures",
            "srank_store_journal_failures_total",
            "Background journal passes that failed entirely or partially.",
            load(&c.journal_failures),
        );
        s.gauge(
            "consecutive_failures",
            "srank_store_consecutive_failures",
            "Current run of back-to-back store write failures.",
            load(&c.consecutive_failures),
        );
        s.info("last_error", self.last_error_value());
    }

    /// The `health` op's `store` block: is persistence keeping up?
    pub fn health_value(&self) -> Value {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Object::new()
            .field("configured", true)
            .field("active", true)
            .field("write_failures", load(&self.counters.write_failures))
            .field("journal_failures", load(&self.counters.journal_failures))
            .field(
                "consecutive_failures",
                load(&self.counters.consecutive_failures),
            )
            .field("last_error", self.last_error_value())
            .build()
    }

    fn last_error_value(&self) -> Value {
        self.counters
            .last_error()
            .map_or(Value::Null, Value::String)
    }
}
