//! One run of one workload: set-up, a warm-up pass, timed passes with
//! output checks, and (with `--trace`) one traced pass plus the layer
//! probes. Prints every metric and writes the run's envelope.

use crate::metrics::{Layers, END_TO_END, PER_LAYER};
use crate::probes::{hit_ratio, Acc};
use crate::spans::{self_times, Recorder};
use crate::stats::{median, percentile, quartiles};
use crate::workloads::{self, Bench, OpOutcome, TraceTotals};
use pdt_trace::json::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seconds of timed passes per run unless `--seconds` says otherwise;
/// `BENCHMARK.json` repeats it as `run_seconds`.
pub const DEFAULT_SECONDS: u64 = 10;
/// Timed passes never number fewer than this, so that p90 of the op
/// latencies has its ten samples beyond it (7 x 15 ops = 105).
pub const MIN_PASSES: usize = 7;
/// Set-ups per run; `setup_s` is their median.
const SET_UPS: usize = 3;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where the envelope goes; defaults into the work directory.
    pub out: Option<PathBuf>,
}

/// Everything the run writes lands here, inside the checkout.
pub const WORK_DIR: &str = "target/pdt-benchmark";

/// Process CPU seconds (user + system, all threads, exited ones
/// included) from `/proc/self/stat`, in the kernel's 100 Hz ticks.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, the 12th and 13th from here.
    let ticks: u64 = stat
        .rsplit(')')
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's commit, read without starting a process; `unknown`
/// outside a git checkout.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}")).unwrap_or_default(),
        None => head,
    };
    match rev.trim() {
        "" => "unknown".to_string(),
        rev => rev.to_string(),
    }
}

struct Pass {
    wall_s: f64,
    cpu_s: f64,
    optimizer_calls: u64,
    outcomes: Vec<OpOutcome>,
}

fn measured_pass(
    bench: &mut dyn Bench,
    rec: &mut Recorder,
    totals: Option<&mut TraceTotals>,
) -> Pass {
    let cpu = process_cpu_s();
    let calls = pdt_opt::invocation_count();
    let start = Instant::now();
    let outcomes = bench.pass(rec, totals);
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu,
        optimizer_calls: pdt_opt::invocation_count() - calls,
        outcomes,
    }
}

/// One reported number with the spread of the samples behind it.
struct Reported {
    value: f64,
    q1: f64,
    q3: f64,
}

impl Reported {
    fn median_of(samples: &[f64]) -> Reported {
        let (q1, q3) = quartiles(samples);
        Reported {
            value: median(samples),
            q1,
            q3,
        }
    }

    fn exact(value: f64) -> Reported {
        Reported {
            value,
            q1: value,
            q3: value,
        }
    }
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

fn metrics_json<'a>(rows: impl Iterator<Item = (&'a str, &'a str, f64)>) -> Json {
    Json::Obj(
        rows.map(|(name, unit, value)| {
            let fields = vec![
                ("value".to_string(), Json::Num(value)),
                ("unit".to_string(), Json::Str(unit.to_string())),
            ];
            (name.to_string(), Json::Obj(fields))
        })
        .collect(),
    )
}

/// Per-layer numbers of the traced pass that come from the program's
/// own roll-ups and from the harness's spans.
fn traced_layers(
    layers: &mut Layers,
    totals: &TraceTotals,
    rec: &Recorder,
    traced_wall_s: f64,
    untraced_wall_s: f64,
) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let phase = |name: &str| ms(totals.phase_ns.get(name).copied().unwrap_or(0));
    let hot = |name: &str| totals.hot.get(name).copied().unwrap_or_default();
    let counter = |name: &str| totals.counters.get(name).copied().unwrap_or(0);

    layers.set("core.search.setup_ms", phase("setup"));
    layers.set("core.search.prepass_ms", phase("prepass"));
    layers.set("core.search.loop_ms", phase("search"));
    layers.set("core.search.candidates_ms", ms(hot("candidates").nanos));
    layers.set("core.search.pricing_ms", ms(hot("pricing").nanos));
    layers.set("core.search.eval_ms", ms(hot("eval").nanos));
    layers.set("core.search.skyline_ms", ms(hot("skyline").nanos));
    // Named: the set-up span and the four hot sections (which sit
    // inside the pre-pass and loop spans).
    let named: u64 = totals.phase_ns.get("setup").copied().unwrap_or(0)
        + totals.hot.values().map(|h| h.nanos).sum::<u64>();
    layers.set(
        "core.search.unattributed_pct",
        100.0 * (totals.session_us - named as f64 / 1e3) / totals.session_us,
    );
    layers.set(
        "core.search.iterations",
        counter("search.iterations") as f64,
    );
    layers.set(
        "core.search.logical_calls",
        counter("optimizer.calls") as f64,
    );
    layers.set(
        "core.search.allocs",
        totals.hot.values().map(|h| h.allocs).sum::<u64>() as f64,
    );
    layers.set(
        "core.search.alloc_mb",
        totals.hot.values().map(|h| h.alloc_bytes).sum::<u64>() as f64 / 1e6,
    );

    layers.set(
        "core.cache.hit_ratio",
        hit_ratio(counter("cache.hits"), counter("cache.misses")),
    );
    layers.set(
        "core.cache.plan_hit_ratio",
        hit_ratio(counter("plan_cache.hits"), counter("plan_cache.misses")),
    );
    layers.set(
        "core.cache.calls_avoided",
        counter("optimizer.calls_avoided") as f64,
    );
    let generated = counter("candidates.generated");
    layers.set(
        "core.incremental.amplification",
        (generated + counter("candidates.reused")) as f64 / generated as f64,
    );
    layers.set(
        "core.incremental.memo_hit_ratio",
        hit_ratio(counter("bound.memo.hits"), counter("bound.memo.misses")),
    );

    layers.set(
        "trace.overhead_pct",
        100.0 * (traced_wall_s - untraced_wall_s) / untraced_wall_s,
    );
    layers.set("trace.events", totals.events as f64);
    layers.set("trace.jsonl_mb", totals.jsonl_bytes as f64 / 1e6);
    layers.set("trace.to_jsonl_ms", totals.to_jsonl_us / 1e3);

    // serve_fleet
    let span_ms = |name: &str| -> Vec<f64> {
        rec.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.end_ns - s.start_ns))
            .collect()
    };
    let submits = span_ms("serve.submit");
    if !submits.is_empty() {
        layers.set("serve.submit_ack_ms_p50", median(&submits));
        layers.set("serve.ping_rtt_ms_p50", median(&totals.ping_ms));
        layers.set("serve.rejected", totals.rejected as f64);
    }
    if let Some(stats) = &totals.daemon_stats {
        let stat = |name: &str| stats.get(name).and_then(Json::as_i64).unwrap_or(0) as u64;
        layers.set("core.shared.entries", stat("shared_entries") as f64);
        layers.set(
            "core.shared.hit_ratio",
            hit_ratio(
                stat("shared_hits") + stat("shared_plan_hits"),
                stat("shared_misses"),
            ),
        );
    }

    // replay_drift
    layers.set("core.online.retunes", totals.retunes as f64);
    layers.set("core.online.warm_serves", totals.warm_serves as f64);
    layers.set(
        "core.online.invocations_per_retune",
        totals.replay_invocations as f64 / totals.retunes as f64,
    );
}

/// What recording one span costs, in nanoseconds.
fn span_cost_ns() -> f64 {
    const N: usize = 100_000;
    let mut rec = Recorder::new(true);
    let start = Instant::now();
    for _ in 0..N {
        rec.span("calibrate", None, |_| ());
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

fn print_self_times(rec: &Recorder, traced_wall_s: f64) {
    println!("layer self time, traced pass:");
    println!(
        "  {:<20} {:>7} {:>12} {:>12} {:>8}",
        "span", "count", "total_ms", "self_ms", "self_%"
    );
    for (name, t) in self_times(rec.spans()) {
        println!(
            "  {:<20} {:>7} {:>12.3} {:>12.3} {:>8.2}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / 1e7 / traced_wall_s,
        );
    }
}

/// Run the benchmark; `Ok(true)` when every output check held.
pub fn run(args: &RunArgs, process_start: Instant) -> Result<bool, String> {
    let work_dir = Path::new(WORK_DIR);
    std::fs::create_dir_all(work_dir).map_err(|e| format!("{WORK_DIR}: {e}"))?;

    // Set-up, several times over; the first is on the clock from
    // process start, as a user's is.
    let mut setup_s = Vec::with_capacity(SET_UPS);
    let mut bench = None;
    for nth in 0..SET_UPS {
        let start = if nth == 0 {
            process_start
        } else {
            Instant::now()
        };
        bench = Some(workloads::set_up(&args.workload, args.seed, work_dir)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("SET_UPS is at least one");
    let bench = bench.as_mut();

    let mut off = Recorder::new(false);
    let warmup = measured_pass(bench, &mut off, None);

    let mut passes: Vec<Pass> = Vec::new();
    let mut fingerprints: Vec<Option<u128>> = Vec::new();
    let mut improvements: Vec<f64> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut measured_s = 0.0;
    while passes.len() < MIN_PASSES || measured_s < args.seconds as f64 {
        let pass = measured_pass(bench, &mut off, None);
        measured_s += pass.wall_s;
        // Output checks, outside the timed region: the first pass's
        // recommendations are re-priced, later ones must equal them.
        let first = passes.is_empty();
        for (op, outcome) in pass.outcomes.iter().enumerate() {
            attempted += 1;
            let fingerprint = outcome
                .result
                .as_ref()
                .ok()
                .map(|r| r.config.signature128());
            let verdict = match &outcome.result {
                Err(e) => Err(e.clone()),
                Ok(r) if first => bench.check(op, r).map(|pct| improvements.push(pct)),
                Ok(_) if fingerprints[op] != fingerprint => {
                    Err("recommendation differs from the first pass's".to_string())
                }
                Ok(_) => Ok(()),
            };
            if first {
                fingerprints.push(fingerprint);
            }
            if let Err(e) = verdict {
                failed += 1;
                failures.push(format!("pass {} op {op}: {e}", passes.len() + 1));
            }
        }
        passes.push(pass);
    }
    let calls = passes[0].optimizer_calls;
    if let Some(odd) = passes.iter().position(|p| p.optimizer_calls != calls) {
        failures.push(format!(
            "optimizer_calls is {calls} on pass 1 but {} on pass {}",
            passes[odd].optimizer_calls,
            odd + 1
        ));
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.outcomes.iter().map(|o| o.latency_ms))
        .collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    let pass_p50s: Vec<f64> = passes
        .iter()
        .map(|p| median(&p.outcomes.iter().map(|o| o.latency_ms).collect::<Vec<_>>()))
        .collect();
    let mean_improvement = improvements.iter().sum::<f64>() / improvements.len().max(1) as f64;
    let failed_share = failed as f64 / attempted as f64;
    let p90 = percentile(&latencies, 90.0)?;
    let reported = [
        Reported::median_of(&setup_s),
        Reported::median_of(&walls),
        Reported::median_of(&cpus),
        // Spread across passes, like the per-pass metrics: the ops of
        // one pass differ by design, which is not noise.
        Reported {
            value: median(&latencies),
            ..Reported::median_of(&pass_p50s)
        },
        Reported::exact(p90),
        Reported::exact(calls as f64),
    ];

    // ---- traced pass and layer probes -------------------------------
    let mut layers = Layers::default();
    if args.trace {
        let mut rec = Recorder::new(true);
        let mut totals = TraceTotals::default();
        let traced = rec.span("pass", None, |rec| {
            measured_pass(bench, rec, Some(&mut totals))
        });
        let pass_spans = rec.spans().len();
        let mut acc = Acc::default();
        rec.span("probes", None, |_| {
            bench.probe(&mut acc, &mut totals, &traced.outcomes)
        })?;
        acc.write_means(&mut layers);
        let traced_wall_s = traced.wall_s - totals.probe_us / 1e6;
        traced_layers(&mut layers, &totals, &rec, traced_wall_s, median(&walls));
        layers.set(
            "harness.span_overhead_pct",
            pass_spans as f64 * span_cost_ns() / 1e7 / traced.wall_s,
        );
        layers.set("harness.warmup_s", warmup.wall_s);
        layers.set("process.peak_rss_mb", peak_rss_mb());
        layers.set("latency.op_ms_p90", p90);
        layers.set("quality.improvement_pct", mean_improvement);

        let spans_path = work_dir.join("spans.jsonl");
        std::fs::write(&spans_path, rec.to_jsonl())
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        print_self_times(&rec, traced.wall_s);
        println!("spans written to {}", spans_path.display());
    }

    // ---- report -----------------------------------------------------
    let correct = failures.is_empty();
    for f in &failures {
        eprintln!("pdt-benchmark: check failed: {f}");
    }
    for (m, r) in END_TO_END.iter().zip(&reported) {
        println!("{} {} {}", m.name, r.value, m.unit);
    }
    println!("improvement_pct {mean_improvement} %");
    println!("failed_share {failed_share} ratio");
    if args.trace {
        for m in &PER_LAYER {
            println!("{} {} {}", m.name, layers.get(m.name), m.unit);
        }
    }

    let end_to_end = Json::Obj(
        END_TO_END
            .iter()
            .zip(&reported)
            .map(|(m, r)| {
                let fields = vec![
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                    ("better".to_string(), Json::Str(m.better.label().into())),
                    ("bound".to_string(), Json::Num(m.bound)),
                    ("median".to_string(), Json::Num(r.value)),
                    ("q1".to_string(), Json::Num(r.q1)),
                    ("q3".to_string(), Json::Num(r.q3)),
                ];
                (m.name.to_string(), Json::Obj(fields))
            })
            .collect(),
    );
    let per_layer = Json::Obj(
        PER_LAYER
            .iter()
            .map(|m| {
                let fields = vec![
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                    ("better".to_string(), Json::Str(m.better.label().into())),
                    ("value".to_string(), Json::Num(layers.get(m.name))),
                ];
                (m.name.to_string(), Json::Obj(fields))
            })
            .collect(),
    );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let envelope = Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("git_rev".into(), Json::Str(git_rev())),
        ("nproc".into(), Json::Int(nproc as i64)),
        ("seed".into(), Json::Int(args.seed as i64)),
        ("passes".into(), Json::Int(passes.len() as i64)),
        ("samples".into(), Json::Int(latencies.len() as i64)),
        ("attempted".into(), Json::Int(attempted as i64)),
        ("failed".into(), Json::Int(failed as i64)),
        ("failed_share".into(), Json::Num(failed_share)),
        ("correct".into(), Json::Bool(correct)),
        ("improvement_pct".into(), Json::Num(mean_improvement)),
        ("end_to_end".into(), end_to_end),
        (
            "raw".into(),
            Json::Obj(vec![
                ("setup_s".into(), nums(&setup_s)),
                ("pass_wall_s".into(), nums(&walls)),
                ("pass_cpu_s".into(), nums(&cpus)),
                ("op_improvement_pct".into(), nums(&improvements)),
                (
                    "pass_op_ms".into(),
                    Json::Arr(
                        passes
                            .iter()
                            .map(|p| {
                                nums(&p.outcomes.iter().map(|o| o.latency_ms).collect::<Vec<_>>())
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "per_layer".into(),
            if args.trace { per_layer } else { Json::Null },
        ),
    ]);
    let out = args.out.clone().unwrap_or_else(|| {
        work_dir.join(format!(
            "{}.seed{}.trace{}.json",
            args.workload, args.seed, args.trace as u8
        ))
    });
    std::fs::write(&out, envelope.to_string() + "\n")
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("envelope written to {}", out.display());

    // The driver's line: the last of standard output.
    let metrics = if args.trace {
        metrics_json(
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, layers.get(m.name))),
        )
    } else {
        metrics_json(
            END_TO_END
                .iter()
                .zip(&reported)
                .filter(|(m, _)| m.driver_bounded)
                .map(|(m, r)| (m.name, m.unit, r.value)),
        )
    };
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Int(attempted as i64)),
            ("failed".into(), Json::Int(failed as i64)),
            ("metrics".into(), metrics),
        ])
    );
    Ok(correct)
}
