//! Layer probes: after the traced pass, call each layer's public
//! entry points directly on the inputs of every op and time them.
//! Each probe makes at most [`CAP`] calls per op. Probes never run
//! during a timed pass.

use crate::metrics::Layers;
use pdt_catalog::Database;
use pdt_opt::{reprice_plan, Optimizer};
use pdt_physical::Configuration;
use pdt_trace::allocation_counters;
use pdt_trace::json::Json;
use pdt_tuner::bound::{cost_upper_bound_restricted, ViewBuildCosts};
use pdt_tuner::eval::{evaluate_full, evaluate_full_ctx, evaluate_incremental_ctx};
use pdt_tuner::{
    gather_optimal_configuration, transform, tune_session, window_costs, Checkpoint, CostCache,
    EvalCtx, RelevanceTable, SessionCtl, SharedInvocationStore, TunerOptions, Workload,
    DEFAULT_SHARED_CAP,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Calls one probe may make per op.
pub const CAP: usize = 64;

/// Mean per metric over everything the probes observed.
#[derive(Default)]
pub struct Acc(BTreeMap<&'static str, (f64, u64)>);

impl Acc {
    pub fn add(&mut self, name: &'static str, value: f64) {
        let slot = self.0.entry(name).or_default();
        slot.0 += value;
        slot.1 += 1;
    }

    pub fn write_means(&self, layers: &mut Layers) {
        for (name, (sum, n)) in &self.0 {
            layers.set(name, sum / *n as f64);
        }
    }
}

/// `f`'s result, its wall-clock in microseconds, and the heap
/// allocations made meanwhile (process-wide; probes run alone).
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let allocs = allocation_counters().0;
    let start = Instant::now();
    let out = std::hint::black_box(f());
    let us = start.elapsed().as_nanos() as f64 / 1e3;
    (out, us, (allocation_counters().0 - allocs) as f64)
}

/// Mean microseconds and allocations of `f` over `n` calls.
fn repeat<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, f64) {
    let ((), us, allocs) = measure(|| {
        for _ in 0..n {
            std::hint::black_box(f());
        }
    });
    (us / n as f64, allocs / n as f64)
}

/// Every tuner-side layer, probed on one session's inputs.
pub fn session_layers(
    db: &Database,
    sql: &str,
    options: &TunerOptions,
    acc: &mut Acc,
) -> Result<(), String> {
    // sql, expr
    let (statements, us, _) = measure(|| pdt_sql::parse_workload(sql));
    let statements = statements.map_err(|e| e.to_string())?;
    acc.add("sql.parse_us_per_stmt", us / statements.len() as f64);
    let (workload, us, _) = measure(|| Workload::bind(db, &statements));
    let workload = workload.map_err(|e| e.to_string())?;
    acc.add("expr.bind_us_per_stmt", us / statements.len() as f64);

    // core.instrument
    let base = Configuration::base(db);
    let ((optimal, _), us, _) =
        measure(|| gather_optimal_configuration(db, &workload, options.with_views));
    acc.add("core.instrument.gather_ms", us / 1e3);
    acc.add(
        "core.instrument.structures",
        (optimal.structure_count() - base.structure_count()) as f64,
    );

    // opt
    let opt = Optimizer::new(db);
    for select in workload
        .entries
        .iter()
        .filter_map(|e| e.select.as_ref())
        .take(CAP)
    {
        let (_, us, _) = measure(|| opt.optimize(&base, select));
        acc.add("opt.optimize_us_base", us);
        let (plan, us, allocs) = measure(|| opt.optimize(&optimal, select));
        acc.add("opt.optimize_us_optimal", us);
        acc.add("opt.allocs_per_call", allocs);
        let (us, _) = repeat(CAP, || {
            reprice_plan(plan.cost, &plan.index_usages, &optimal)
        });
        acc.add("opt.reprice_us", us);
    }

    // physical
    acc.add(
        "physical.config_clone_us",
        repeat(CAP, || optimal.clone()).0,
    );
    acc.add(
        "physical.signature_us",
        repeat(CAP, || optimal.signature128()).0,
    );
    acc.add("physical.size_us", repeat(CAP, || optimal.size_bytes(db)).0);

    // core.transform
    let (all, us, _) = measure(|| transform::candidates(&optimal, &base));
    acc.add("core.transform.candidates_us", us);
    acc.add("core.transform.candidates_n", all.len() as f64);
    let (removals, us, _) = measure(|| transform::removal_candidates(&optimal, &base));
    acc.add("core.transform.removal_candidates_us", us);
    // The §3.5 pre-pass applies removals; the loop applies the rest.
    // Probe both kinds, removals first.
    let mut applied = Vec::new();
    for t in removals.iter().chain(&all).take(CAP) {
        let (a, us, allocs) = measure(|| transform::apply(t, &optimal, db, &opt));
        acc.add("core.transform.apply_us", us);
        acc.add("core.transform.apply_allocs", allocs);
        applied.extend(a);
    }

    // core.eval, cold: every entry is a real optimizer call.
    let (prev, us, _) = measure(|| evaluate_full(db, &opt, &optimal, &workload));
    acc.add("core.eval.full_ms", us / 1e3);

    // core.bound
    let view_costs = ViewBuildCosts::new();
    for a in &applied {
        let (_, us, allocs) = measure(|| {
            cost_upper_bound_restricted(
                db,
                &opt.opts.cost,
                &workload,
                &prev,
                &optimal,
                a,
                &view_costs,
            )
        });
        acc.add("core.bound.bound_us", us);
        acc.add("core.bound.allocs_per_call", allocs);
    }

    // core.eval through the session's cache tiers.
    let cache = CostCache::new();
    let relevance = RelevanceTable::build(db, &workload);
    let ctx = EvalCtx {
        threads: 1,
        cache: Some(&cache),
        relevance: Some(&relevance),
        derived: true,
        flat: true,
        ..EvalCtx::default()
    };
    evaluate_full_ctx(db, &opt, &optimal, &workload, ctx);
    let (_, us, _) = measure(|| evaluate_full_ctx(db, &opt, &optimal, &workload, ctx));
    acc.add("core.eval.full_cached_us", us);
    for a in &applied {
        let (_, us, _) = measure(|| {
            evaluate_incremental_ctx(
                db,
                &opt,
                &a.config,
                &workload,
                &prev,
                &a.removed_indexes,
                &a.removed_views,
                None,
                ctx,
            )
        });
        acc.add("core.eval.incremental_us", us);
    }

    Ok(())
}

/// `core.checkpoint`: the session with and without a sink at the
/// daemon's cadence; the first body the sink sees is the sample.
/// Callers probe the first op only: restoring one checkpoint takes
/// seconds (measured: 0.75 s for 270 kB, 3.5 s for 510 kB), so probing
/// every op would triple the traced run.
pub fn checkpoint_layers(
    db: &Database,
    workload: &Workload,
    options: &TunerOptions,
    acc: &mut Acc,
) -> Result<(), String> {
    let body: RefCell<Option<String>> = RefCell::new(None);
    let sink = |_done: usize, text: &str| {
        body.borrow_mut().get_or_insert_with(|| text.to_string());
    };
    let (with_sink, with_us, _) = measure(|| {
        tune_session(
            db,
            workload,
            options,
            SessionCtl {
                checkpoint_every: 5,
                checkpoint_sink: Some(&sink),
                ..SessionCtl::default()
            },
        )
    });
    with_sink.map_err(|e| e.to_string())?;
    let (_, without_us, _) = measure(|| tune_session(db, workload, options, SessionCtl::default()));
    acc.add(
        "core.checkpoint.session_overhead_pct",
        100.0 * (with_us - without_us) / without_us,
    );
    if let Some(body) = body.into_inner() {
        acc.add("core.checkpoint.bytes", body.len() as f64);
        let (restored, us, _) = measure(|| Checkpoint::from_json_str(&body));
        acc.add("core.checkpoint.restore_us", us);
        let restored = restored.map_err(|e| e.to_string())?;
        acc.add(
            "core.checkpoint.serialize_us",
            measure(|| restored.to_json_string()).1,
        );
    }
    Ok(())
}

/// The cross-session store as the daemon and the online loop use it:
/// price `workload` under `config` twice through one store (the second
/// pricing is what a warm epoch or a second tenant pays), then probe
/// the resident keys directly.
pub fn shared_store(db: &Database, workload: &Workload, config: &Configuration, acc: &mut Acc) {
    let store = SharedInvocationStore::new(DEFAULT_SHARED_CAP, 1);
    window_costs(db, workload, config, 1, Some(&store));
    let (_, us, _) = measure(|| window_costs(db, workload, config, 1, Some(&store)));
    acc.add("core.online.window_price_ms", us / 1e3);

    let hex = |entry: &Json, key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .and_then(|s| u128::from_str_radix(s, 16).ok())
    };
    let dump = pdt_trace::json::parse(&store.to_warm_json()).unwrap_or(Json::Null);
    let keys: Vec<_> = dump
        .get("entries")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|e| Some((hex(e, "schema")?, hex(e, "query")?, hex(e, "sig")?)))
        .take(CAP)
        .collect();
    for key in keys {
        acc.add("core.shared.probe_us", repeat(CAP, || store.lookup(key)).0);
    }
    let stats = store.stats();
    acc.add("core.shared.entries", stats.entries as f64);
    acc.add(
        "core.shared.hit_ratio",
        hit_ratio(stats.hits + stats.plan_hits, stats.misses),
    );
}

pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses) as f64
}
