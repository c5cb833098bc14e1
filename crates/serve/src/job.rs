//! Job specifications: everything a tuning session needs, as data.
//!
//! A [`JobSpec`] is the wire- and disk-format description of one
//! tuning job. It is deliberately a pure value: the daemon persists it
//! in the session's manifest before acknowledging the submit, and
//! every later run of the session — first attempt, resume after
//! `kill -9`, resume after graceful drain — rebuilds the database,
//! workload, and [`TunerOptions`] from the persisted spec alone. That
//! is what makes recovered sessions byte-identical: the options
//! signature is a pure function of the spec, so the PR 3 checkpoint
//! machinery accepts the recovered checkpoint and replays it exactly.

use pdt_catalog::Database;
use pdt_trace::json::Json;
use pdt_tuner::{FaultPlan, StopToken, TunerOptions, Workload};
use pdt_workloads::bench::{bench_database, bench_workload, BenchParams};
use pdt_workloads::star::{star_database, star_workload, StarParams};
use pdt_workloads::{tpch, WorkloadSpec};

/// Largest generated workload a spec may ask for; the generators
/// allocate and bind one statement per requested query.
const MAX_QUERIES: usize = 10_000;

/// One tuning job, as submitted over the wire and persisted in the
/// session manifest. Only built-in workloads are accepted: the spec
/// must rebuild the identical workload on every recovery, which a
/// client-local file path cannot guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub db: String,
    pub sf: f64,
    pub queries: Option<usize>,
    pub seed: u64,
    pub budget: Option<f64>,
    pub iterations: usize,
    pub updates: Option<f64>,
    pub indexes_only: bool,
    /// Ignored. Retained only because the frozen `pdt-benchmark` crate
    /// names it; the next benchmark PR drops it. Still parsed and
    /// rendered, so manifests keep their bytes.
    pub threads: usize,
    pub checkpoint_every: usize,
    /// Per-job what-if call budget request; the daemon's global
    /// scheduler may assign a smaller share.
    pub call_budget: Option<usize>,
    pub max_faults: Option<usize>,
    /// Deterministic eval-layer fault injection, `"seed:rate"` (tests).
    pub faults: Option<String>,
    /// Deterministic checkpoint-write fault injection, `"seed:rate"`
    /// (tests). Scoped to this session's durable writes only.
    pub io_faults: Option<String>,
    /// Warm-start from a finished session: its final configuration is
    /// copied into this session's directory at submit (as
    /// `deployed.json`) and becomes [`TunerOptions::deployed`] — the
    /// relaxation start point and the never-regress safety floor. The
    /// copy makes recovery self-contained: the source session can be
    /// deleted after the ack.
    pub warm_from: Option<String>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            db: "tpch".to_string(),
            sf: 0.1,
            queries: None,
            seed: 0,
            budget: None,
            iterations: 300,
            updates: None,
            indexes_only: false,
            threads: 1,
            checkpoint_every: 5,
            call_budget: None,
            max_faults: None,
            faults: None,
            io_faults: None,
            warm_from: None,
        }
    }
}

impl JobSpec {
    pub fn to_json(&self) -> Json {
        fn opt_num(v: Option<f64>) -> Json {
            v.map_or(Json::Null, Json::Num)
        }
        fn opt_int(v: Option<usize>) -> Json {
            v.map_or(Json::Null, |n| Json::Int(n as i64))
        }
        fn opt_str(v: &Option<String>) -> Json {
            v.as_ref().map_or(Json::Null, |s| Json::Str(s.clone()))
        }
        Json::Obj(vec![
            ("db".into(), Json::Str(self.db.clone())),
            ("sf".into(), Json::Num(self.sf)),
            ("queries".into(), opt_int(self.queries)),
            ("seed".into(), Json::Int(self.seed as i64)),
            ("budget".into(), opt_num(self.budget)),
            ("iterations".into(), Json::Int(self.iterations as i64)),
            ("updates".into(), opt_num(self.updates)),
            ("indexes_only".into(), Json::Bool(self.indexes_only)),
            ("threads".into(), Json::Int(self.threads as i64)),
            (
                "checkpoint_every".into(),
                Json::Int(self.checkpoint_every as i64),
            ),
            ("call_budget".into(), opt_int(self.call_budget)),
            ("max_faults".into(), opt_int(self.max_faults)),
            ("faults".into(), opt_str(&self.faults)),
            ("io_faults".into(), opt_str(&self.io_faults)),
            ("warm_from".into(), opt_str(&self.warm_from)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let d = JobSpec::default();
        let str_field = |key: &str, default: &str| -> Result<String, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(default.to_string()),
                Some(Json::Str(s)) => Ok(s.clone()),
                Some(other) => Err(format!("`{key}` must be a string, got {other}")),
            }
        };
        let num_field = |key: &str, default: f64| -> Result<f64, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(default),
                Some(j) => j
                    .as_f64()
                    .ok_or_else(|| format!("`{key}` must be a number")),
            }
        };
        let opt_num_field = |key: &str| -> Result<Option<f64>, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(j) => j
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| format!("`{key}` must be a number")),
            }
        };
        let usize_field = |key: &str, default: usize| -> Result<usize, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(default),
                Some(j) => match j.as_i64() {
                    Some(n) if n >= 0 => Ok(n as usize),
                    _ => Err(format!("`{key}` must be a non-negative integer")),
                },
            }
        };
        let opt_usize_field = |key: &str| -> Result<Option<usize>, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(j) => match j.as_i64() {
                    Some(n) if n >= 0 => Ok(Some(n as usize)),
                    _ => Err(format!("`{key}` must be a non-negative integer")),
                },
            }
        };
        let bool_field = |key: &str, default: bool| -> Result<bool, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(default),
                Some(Json::Bool(b)) => Ok(*b),
                Some(other) => Err(format!("`{key}` must be a bool, got {other}")),
            }
        };
        let opt_str_field = |key: &str| -> Result<Option<String>, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Str(s)) => Ok(Some(s.clone())),
                Some(other) => Err(format!("`{key}` must be a string, got {other}")),
            }
        };
        // The seed is an opaque 64-bit value, not a count: JSON integers
        // are `i64`, so the upper half of the range travels as its
        // two's-complement negative (see `to_json`) and is
        // reinterpreted here.
        let seed = match v.get("seed") {
            None | Some(Json::Null) => d.seed,
            Some(j) => j.as_i64().ok_or("`seed` must be an integer")? as u64,
        };
        let spec = JobSpec {
            db: str_field("db", &d.db)?,
            sf: num_field("sf", d.sf)?,
            queries: opt_usize_field("queries")?,
            seed,
            budget: opt_num_field("budget")?,
            iterations: usize_field("iterations", d.iterations)?,
            updates: opt_num_field("updates")?,
            indexes_only: bool_field("indexes_only", false)?,
            threads: usize_field("threads", d.threads)?,
            checkpoint_every: usize_field("checkpoint_every", d.checkpoint_every)?.max(1),
            call_budget: opt_usize_field("call_budget")?,
            max_faults: opt_usize_field("max_faults")?,
            faults: opt_str_field("faults")?,
            io_faults: opt_str_field("io_faults")?,
            warm_from: opt_str_field("warm_from")?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Reject specs that could not run (or could not re-run identically
    /// on recovery) before they are accepted into the queue.
    pub fn validate(&self) -> Result<(), String> {
        match self.db.as_str() {
            "tpch" | "ds1" | "ds2" | "bench" => {}
            other => {
                return Err(format!(
                    "unknown database `{other}` (try tpch|ds1|ds2|bench)"
                ))
            }
        }
        if !self.sf.is_finite() || self.sf <= 0.0 {
            return Err(format!(
                "scale factor {} must be positive and finite",
                self.sf
            ));
        }
        if let Some(b) = self.budget {
            if !b.is_finite() || b <= 0.0 {
                return Err(format!("budget {b} must be positive and finite"));
            }
        }
        if let Some(u) = self.updates {
            if !(0.0..=1.0).contains(&u) {
                return Err(format!("update ratio {u} not in [0, 1]"));
            }
        }
        if self.iterations == 0 {
            return Err("iterations must be at least 1".to_string());
        }
        if let Some(n) = self.queries.filter(|&n| n > MAX_QUERIES) {
            return Err(format!("queries {n} exceeds the limit of {MAX_QUERIES}"));
        }
        if let Some(f) = &self.faults {
            FaultPlan::parse(f).map_err(|e| format!("faults: {e}"))?;
        }
        if let Some(f) = &self.io_faults {
            FaultPlan::parse(f).map_err(|e| format!("io_faults: {e}"))?;
        }
        if let Some(w) = &self.warm_from {
            if w.is_empty() {
                return Err("warm_from must name a session".to_string());
            }
        }
        Ok(())
    }

    pub fn build_database(&self) -> Result<Database, String> {
        match self.db.as_str() {
            "tpch" => Ok(tpch::tpch_database(self.sf)),
            "ds1" => Ok(star_database(&StarParams::ds1())),
            "ds2" => Ok(star_database(&StarParams::ds2())),
            "bench" => Ok(bench_database(&BenchParams::default())),
            other => Err(format!("unknown database `{other}`")),
        }
    }

    /// The built-in workload the spec names, as statements: generated
    /// from `db`/`queries`/`seed`, with the `updates` mix applied.
    pub fn workload_spec(&self, db: &Database) -> WorkloadSpec {
        let spec = match self.db.as_str() {
            "tpch" => match self.queries {
                Some(n) => tpch::tpch_workload_variant(self.seed, n),
                None => tpch::tpch_workload(),
            },
            "ds1" => star_workload(&StarParams::ds1(), self.seed, self.queries.unwrap_or(12)),
            "ds2" => star_workload(&StarParams::ds2(), self.seed, self.queries.unwrap_or(12)),
            _ => bench_workload(db, self.seed, self.queries.unwrap_or(15)),
        };
        match self.updates {
            Some(ratio) => pdt_workloads::updates::with_updates(db, &spec, ratio, self.seed),
            None => spec,
        }
    }

    pub fn build_workload(&self, db: &Database) -> Result<Workload, String> {
        Workload::bind(db, &self.workload_spec(db).statements)
            .map_err(|e| format!("binding workload: {e}"))
    }

    /// The session's [`TunerOptions`]: a pure function of the spec plus
    /// the budget the scheduler assigned at admission (persisted in the
    /// manifest, so recovery rebuilds the identical options signature).
    pub fn tuner_options(
        &self,
        assigned_call_budget: Option<u64>,
        stop: StopToken,
    ) -> Result<TunerOptions, String> {
        let fault_plan = match &self.faults {
            Some(f) => Some(FaultPlan::parse(f)?),
            None => None,
        };
        let defaults = TunerOptions::default();
        Ok(TunerOptions {
            space_budget: self.budget,
            max_iterations: self.iterations,
            with_views: !self.indexes_only,
            optimizer_call_budget: assigned_call_budget.map(|b| b as usize),
            stop: Some(stop),
            fault_plan,
            max_faults: self.max_faults.unwrap_or(defaults.max_faults),
            ..defaults
        })
    }

    /// The session's checkpoint-write fault plan, if any.
    pub fn io_fault_plan(&self) -> Option<FaultPlan> {
        self.io_faults
            .as_deref()
            .and_then(|f| FaultPlan::parse(f).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = JobSpec {
            db: "tpch".into(),
            sf: 0.01,
            queries: Some(6),
            seed: 7,
            budget: Some(24e6),
            iterations: 40,
            updates: Some(0.5),
            indexes_only: true,
            threads: 2,
            checkpoint_every: 2,
            call_budget: Some(64),
            max_faults: Some(3),
            faults: Some("7:0.5".into()),
            io_faults: Some("9:1.0".into()),
            warm_from: Some("s0001".into()),
        };
        // Every `u64` is a valid seed, including those above `i64::MAX`.
        for seed in [7, 1 << 63, u64::MAX] {
            let spec = JobSpec {
                seed,
                ..spec.clone()
            };
            let j = spec.to_json().to_string();
            let back = JobSpec::from_json(&pdt_trace::json::parse(&j).unwrap()).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let v = pdt_trace::json::parse(r#"{"db":"bench","iterations":10}"#).unwrap();
        let spec = JobSpec::from_json(&v).unwrap();
        assert_eq!(spec.db, "bench");
        assert_eq!(spec.iterations, 10);
        assert_eq!(spec.checkpoint_every, 5);
        assert_eq!(spec.budget, None);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        for bad in [
            r#"{"db":"oracle"}"#,
            r#"{"db":"tpch","sf":-1.0}"#,
            r#"{"db":"tpch","budget":0.0}"#,
            r#"{"db":"tpch","updates":1.5}"#,
            r#"{"db":"tpch","iterations":0}"#,
            r#"{"db":"tpch","faults":"nope"}"#,
            r#"{"db":"tpch","io_faults":"7:2.0"}"#,
            r#"{"db":"tpch","warm_from":""}"#,
            r#"{"db":"tpch","queries":4000000000}"#,
        ] {
            let v = pdt_trace::json::parse(bad).unwrap();
            assert!(JobSpec::from_json(&v).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn options_are_a_pure_function_of_spec_and_assignment() {
        let spec = JobSpec {
            sf: 0.01,
            queries: Some(6),
            iterations: 40,
            ..JobSpec::default()
        };
        let a = spec.tuner_options(Some(32), StopToken::new()).unwrap();
        let b = spec.tuner_options(Some(32), StopToken::new()).unwrap();
        assert_eq!(a.optimizer_call_budget, b.optimizer_call_budget);
        assert_eq!(a.max_iterations, b.max_iterations);
        assert_eq!(a.space_budget, b.space_budget);
    }

    #[test]
    fn spec_builds_a_runnable_workload() {
        let spec = JobSpec {
            sf: 0.01,
            queries: Some(3),
            ..JobSpec::default()
        };
        let db = spec.build_database().unwrap();
        let w = spec.build_workload(&db).unwrap();
        assert!(w.len() >= 3);
    }
}
