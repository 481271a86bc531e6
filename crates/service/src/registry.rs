//! The dataset registry: loads and normalizes each dataset once, then
//! shares it between queries, sessions, and worker threads via `Arc`.
//!
//! Sources are either the `srank-data` simulators (seeded, reproducible)
//! or a CSV file with named scoring columns. Every (re)registration bumps
//! a process-wide generation counter; cache keys embed the generation so
//! reloading a dataset under the same name can never serve stale results.

use crate::lockorder::{rank, OrderedRwLock};
use crate::proto::{ServiceError, ServiceResult};
use srank_core::Dataset;
use srank_data::{
    bluenile, csmetrics, dot, fifa, read_csv_file, synthetic, ColumnSpec, CorrelationKind,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A dataset registered with the engine.
#[derive(Debug)]
pub struct DatasetEntry {
    /// Registry name (the wire-protocol `dataset` field).
    pub name: String,
    /// The normalized dataset, shared with sessions and worker threads.
    pub dataset: Arc<Dataset>,
    /// Monotonic registration stamp; part of every cache key.
    pub generation: u64,
    /// Human-readable provenance (builtin spec or CSV path).
    pub source: String,
    /// The machine-readable source, retained so the persistence layer
    /// can re-load the dataset on a warm restart.
    pub origin: DatasetSource,
}

/// Content fingerprint of a normalized dataset (FNV-1a over the shape and
/// every attribute's exact bits). A snapshot records it so a restart can
/// tell whether re-loading the source produced the *same* data — the
/// generation-stamp compatibility gate: caches and sessions only survive
/// when the bits match (a CSV edited on disk, or a changed simulator,
/// silently invalidates everything derived from the old contents).
pub fn dataset_checksum(data: &Dataset) -> u64 {
    let mut h = crate::store::layout::Fnv1a::new();
    h.update(&(data.len() as u64).to_le_bytes());
    h.update(&(data.dim() as u64).to_le_bytes());
    for i in 0..data.len() {
        for &x in data.item(i) {
            h.update(&x.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

/// How to obtain a dataset.
#[derive(Clone, Debug, PartialEq)]
pub enum DatasetSource {
    /// A seeded `srank-data` simulator: `csmetrics`, `fifa`, `bluenile`,
    /// `dot`, `synthetic-independent`, `synthetic-correlated`,
    /// `synthetic-anticorrelated`, or the paper's `figure1`.
    Builtin {
        family: String,
        n: usize,
        d: usize,
        seed: u64,
    },
    /// A CSV file with header row; scoring columns listed by preference
    /// direction, all other columns ignored.
    Csv {
        path: String,
        higher: Vec<String>,
        lower: Vec<String>,
    },
    /// Explicit rows (used by tests and embedded callers).
    Rows(Vec<Vec<f64>>),
}

impl DatasetSource {
    fn describe(&self) -> String {
        match self {
            DatasetSource::Builtin { family, n, d, seed } => {
                format!("builtin:{family}(n={n}, d={d}, seed={seed})")
            }
            DatasetSource::Csv { path, .. } => format!("csv:{path}"),
            DatasetSource::Rows(rows) => format!("rows:{}", rows.len()),
        }
    }

    /// Serializes the source for the persistence manifest (every variant
    /// is re-loadable, including explicit rows).
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        use srank_sample::persist::{f64_slice_value, obj, u64_hex_value};
        let names =
            |ns: &[String]| Value::Array(ns.iter().map(|n| Value::String(n.clone())).collect());
        match self {
            DatasetSource::Builtin { family, n, d, seed } => obj([
                ("kind", Value::String("builtin".into())),
                ("family", Value::String(family.clone())),
                ("n", Value::Number(*n as f64)),
                ("d", Value::Number(*d as f64)),
                ("seed", u64_hex_value(*seed)),
            ]),
            DatasetSource::Csv {
                path,
                higher,
                lower,
            } => obj([
                ("kind", Value::String("csv".into())),
                ("path", Value::String(path.clone())),
                ("higher", names(higher)),
                ("lower", names(lower)),
            ]),
            DatasetSource::Rows(rows) => obj([
                ("kind", Value::String("rows".into())),
                (
                    "rows",
                    Value::Array(rows.iter().map(|r| f64_slice_value(r)).collect()),
                ),
            ]),
        }
    }

    /// Rebuilds a source serialized by [`to_value`](Self::to_value).
    pub fn from_value(v: &serde_json::Value) -> srank_sample::persist::PersistResult<Self> {
        use srank_sample::persist::{
            array_field, f64_vec_value, str_field, u64_hex_field, usize_field, PersistError,
        };
        let str_names = |key: &str| -> srank_sample::persist::PersistResult<Vec<String>> {
            array_field(v, key)?
                .iter()
                .map(|n| {
                    n.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| PersistError::new(format!("'{key}' must hold strings")))
                })
                .collect()
        };
        match str_field(v, "kind")? {
            "builtin" => Ok(DatasetSource::Builtin {
                family: str_field(v, "family")?.to_string(),
                n: usize_field(v, "n")?,
                d: usize_field(v, "d")?,
                seed: u64_hex_field(v, "seed")?,
            }),
            "csv" => Ok(DatasetSource::Csv {
                path: str_field(v, "path")?.to_string(),
                higher: str_names("higher")?,
                lower: str_names("lower")?,
            }),
            "rows" => Ok(DatasetSource::Rows(
                array_field(v, "rows")?
                    .iter()
                    .map(|r| f64_vec_value(r, "row"))
                    .collect::<srank_sample::persist::PersistResult<_>>()?,
            )),
            other => Err(PersistError::new(format!("unknown source kind '{other}'"))),
        }
    }

    fn load(&self) -> ServiceResult<Dataset> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let bad = |msg: String| ServiceError::bad_request(msg);
        match self {
            DatasetSource::Builtin { family, n, d, seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let table = match family.as_str() {
                    "figure1" => return Ok(Dataset::figure1()),
                    "csmetrics" => csmetrics(&mut rng, *n),
                    "fifa" => fifa(&mut rng, *n),
                    "bluenile" => bluenile(&mut rng, *n),
                    "dot" => dot(&mut rng, *n),
                    // The synthetic generator asserts d ≥ 2; validate here
                    // so malformed client input gets an error, not a panic.
                    "synthetic-independent"
                    | "synthetic-correlated"
                    | "synthetic-anticorrelated"
                        if *d < 2 =>
                    {
                        return Err(bad(format!(
                            "builtin '{family}' needs a 'd' of at least 2, got {d}"
                        )))
                    }
                    "synthetic-independent" => {
                        synthetic(&mut rng, CorrelationKind::Independent, *n, *d)
                    }
                    "synthetic-correlated" => {
                        synthetic(&mut rng, CorrelationKind::Correlated, *n, *d)
                    }
                    "synthetic-anticorrelated" => {
                        synthetic(&mut rng, CorrelationKind::AntiCorrelated, *n, *d)
                    }
                    other => return Err(bad(format!("unknown builtin dataset '{other}'"))),
                };
                let table = if family == "bluenile" && *d > 0 && *d < table.n_cols() {
                    table.project(&(0..*d).collect::<Vec<_>>())
                } else {
                    table
                };
                Dataset::from_rows(&table.normalized())
                    .map_err(|e| ServiceError::internal(e.to_string()))
            }
            DatasetSource::Csv {
                path,
                higher,
                lower,
            } => {
                if higher.is_empty() && lower.is_empty() {
                    return Err(bad("csv source needs at least one scoring column".into()));
                }
                let spec: Vec<ColumnSpec> = higher
                    .iter()
                    .map(|n| ColumnSpec::higher(n))
                    .chain(lower.iter().map(|n| ColumnSpec::lower(n)))
                    .collect();
                let table = read_csv_file(std::path::Path::new(path), &spec)
                    .map_err(|e| bad(format!("cannot read '{path}': {e}")))?;
                Dataset::from_rows(&table.normalized()).map_err(|e| bad(e.to_string()))
            }
            DatasetSource::Rows(rows) => Dataset::from_rows(rows).map_err(|e| bad(e.to_string())),
        }
    }
}

/// The shared registry. All methods are `&self`; interior locking.
#[derive(Debug)]
pub struct DatasetRegistry {
    entries: OrderedRwLock<rank::Registry, HashMap<String, Arc<DatasetEntry>>>,
    generation: AtomicU64,
}

impl Default for DatasetRegistry {
    fn default() -> Self {
        Self {
            entries: OrderedRwLock::new(HashMap::new()),
            generation: AtomicU64::new(0),
        }
    }
}

impl DatasetRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads `source` and registers it under `name`, replacing any
    /// previous entry with that name (under a fresh generation).
    pub fn load(&self, name: &str, source: &DatasetSource) -> ServiceResult<Arc<DatasetEntry>> {
        self.install(name, source, None)
    }

    /// [`load`](Self::load) under an *explicit* generation stamp — the
    /// warm-restart path: a snapshot's cache keys and session records
    /// embed the generation they were built against, so restoring them
    /// verbatim requires re-registering the dataset under that same
    /// stamp. The process-wide counter is advanced past it, so later
    /// fresh loads still strictly increase.
    pub fn load_with_generation(
        &self,
        name: &str,
        source: &DatasetSource,
        generation: u64,
    ) -> ServiceResult<Arc<DatasetEntry>> {
        self.install(name, source, Some(generation))
    }

    fn install(
        &self,
        name: &str,
        source: &DatasetSource,
        generation: Option<u64>,
    ) -> ServiceResult<Arc<DatasetEntry>> {
        if name.is_empty() {
            return Err(ServiceError::bad_request("dataset name must be non-empty"));
        }
        let dataset = source.load()?;
        // Every query path (regions of interest, sweeps, samplers) needs
        // at least two scoring attributes; reject d = 1 at the boundary so
        // later ops can't hit library asserts.
        if dataset.dim() < 2 {
            return Err(ServiceError::bad_request(format!(
                "dataset '{name}' has {} scoring attribute(s); at least 2 are required",
                dataset.dim()
            )));
        }
        let generation = match generation {
            None => self.generation.fetch_add(1, Ordering::Relaxed) + 1,
            Some(g) => {
                self.generation.fetch_max(g, Ordering::Relaxed);
                g
            }
        };
        let entry = Arc::new(DatasetEntry {
            name: name.to_string(),
            dataset: Arc::new(dataset),
            generation,
            source: source.describe(),
            origin: source.clone(),
        });
        self.entries
            .write()
            .insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    pub fn get(&self, name: &str) -> ServiceResult<Arc<DatasetEntry>> {
        self.entries
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::not_found(format!("dataset '{name}' is not registered")))
    }

    /// Removes `name`; reports whether it existed.
    pub fn drop_entry(&self, name: &str) -> bool {
        self.entries.write().remove(name).is_some()
    }

    /// Registered entries, sorted by name for deterministic listings.
    pub fn list(&self) -> Vec<Arc<DatasetEntry>> {
        let mut entries: Vec<_> = self.entries.read().values().cloned().collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_load_is_deterministic_and_shared() {
        let reg = DatasetRegistry::new();
        let src = DatasetSource::Builtin {
            family: "fifa".into(),
            n: 100,
            d: 4,
            seed: 7,
        };
        let a = reg.load("fifa", &src).unwrap();
        let b = reg.get("fifa").unwrap();
        assert!(Arc::ptr_eq(&a.dataset, &b.dataset), "one load, shared Arc");
        let reg2 = DatasetRegistry::new();
        let c = reg2.load("fifa", &src).unwrap();
        assert_eq!(*a.dataset, *c.dataset, "same builtin + seed ⇒ same data");
    }

    #[test]
    fn reload_bumps_generation() {
        let reg = DatasetRegistry::new();
        let src = DatasetSource::Builtin {
            family: "figure1".into(),
            n: 0,
            d: 0,
            seed: 0,
        };
        let g1 = reg.load("f", &src).unwrap().generation;
        let g2 = reg.load("f", &src).unwrap().generation;
        assert!(g2 > g1);
    }

    #[test]
    fn unknown_names_error() {
        let reg = DatasetRegistry::new();
        assert!(reg.get("nope").is_err());
        assert!(!reg.drop_entry("nope"));
        let bad = DatasetSource::Builtin {
            family: "mars".into(),
            n: 5,
            d: 2,
            seed: 0,
        };
        assert!(reg.load("m", &bad).is_err());
    }

    #[test]
    fn list_is_sorted() {
        let reg = DatasetRegistry::new();
        let src = DatasetSource::Builtin {
            family: "figure1".into(),
            n: 0,
            d: 0,
            seed: 0,
        };
        reg.load("zeta", &src).unwrap();
        reg.load("alpha", &src).unwrap();
        let names: Vec<String> = reg.list().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
