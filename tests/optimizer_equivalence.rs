//! Byte-level pins on `pdt-opt`'s plan search and its §2 walk.
//!
//! Three FNV-1a golden digests. The first two were recorded on the
//! engine *before* the plan search was rebuilt around choice records,
//! so a rewrite of the join DP or of access-path selection is correct
//! iff they do not move:
//!
//! * the **plan digest** folds `(cost bits, rows bits, Debug of the
//!   index usages, explain text)` of every SELECT of the TPC-H corpus,
//!   the DS1/DS2 star workloads (views on) and six BENCH seeds, each
//!   under the base configuration, the §2 optimal configuration and a
//!   seeded chain of random relaxations of it;
//! * the **request digest** folds the request stream of the
//!   instrumented pass over the same corpora: the `TracingSink` JSONL
//!   events, `CountingSink` totals under the base and the optimal
//!   configuration, and the optimal configuration's `signature128`.
//!
//! The third, the **walk digest**, folds every request the §2 walk
//! (`observe_with_sink`) issues over the corpora, under three start
//! configurations, through the DP and the greedy order, with and
//! without a sink answering. It was recorded while a planning search
//! under a sink still issued the same requests, request for request.
//!
//! The plan loop also prepares each statement once per corpus and runs
//! that one `PreparedSelect` under every configuration:
//! `optimize_prepared` must give a fresh `optimize`'s bytes, and
//! `what_if` its cost, rows and usages.

use pdtune::catalog::ColumnId;
use pdtune::catalog::Database;
use pdtune::expr::BoundSelect;
use pdtune::opt::optimizer::simulate_view;
use pdtune::opt::{
    CountingSink, IndexRequest, Op, Optimizer, OptimizerOptions, PhysPlan, QueryBlock, RequestSink,
    ViewRequest,
};
use pdtune::physical::{Configuration, Index};
use pdtune::sql::Statement;
use pdtune::trace::Tracer;
use pdtune::tuner::instrument::{
    gather_optimal_configuration, gather_optimal_configuration_traced, OptimalSink,
};
use pdtune::tuner::{transform, Workload};
use pdtune::workloads::bench::{bench_database, bench_workload, BenchParams};
use pdtune::workloads::star::{star_database, star_workload, StarParams};
use pdtune::workloads::tpch;

/// FNV-1a (64-bit), hand-rolled so the digest depends on the bytes
/// alone — not on `DefaultHasher`'s unspecified algorithm.
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        state ^= u64::from(*b);
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// SplitMix64: a seeded stream that does not depend on any crate.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Corpus {
    name: String,
    db: Database,
    statements: Vec<Statement>,
    with_views: bool,
}

fn corpora() -> Vec<Corpus> {
    let mut out = Vec::new();
    for with_views in [true, false] {
        out.push(Corpus {
            name: format!("tpch views={with_views}"),
            db: tpch::tpch_database(0.02),
            statements: tpch::tpch_workload().statements,
            with_views,
        });
    }
    for (p, seed) in [(StarParams::ds1(), 3u64), (StarParams::ds2(), 8)] {
        out.push(Corpus {
            name: format!("{} seed {seed}", p.name),
            db: star_database(&p),
            statements: star_workload(&p, seed, 8).statements,
            with_views: true,
        });
    }
    for seed in 0..6u64 {
        let db = bench_database(&BenchParams::default());
        let statements = bench_workload(&db, seed, 10).statements;
        out.push(Corpus {
            name: format!("bench seed {seed}"),
            db,
            statements,
            with_views: true,
        });
    }
    out
}

/// The optimal configuration followed by `RELAXATIONS` seeded random
/// relaxations of it, each applied on top of the previous one (so the
/// chain walks from "everything" towards the base configuration and
/// passes through merged, split, prefixed and promoted indexes and
/// merged views on the way).
const RELAXATIONS: usize = 24;

fn relaxation_chain(
    db: &Database,
    opt: &Optimizer<'_>,
    optimal: &Configuration,
    base: &Configuration,
    seed: u64,
) -> Vec<Configuration> {
    let mut rng = seed ^ 0x0E0F_1A7E;
    let mut chain = Vec::with_capacity(RELAXATIONS);
    let mut current = optimal.clone();
    let mut attempts = 0;
    while chain.len() < RELAXATIONS && attempts < 8 * RELAXATIONS {
        attempts += 1;
        let cands = transform::candidates(&current, base);
        if cands.is_empty() {
            break;
        }
        let t = &cands[(splitmix(&mut rng) % cands.len() as u64) as usize];
        if let Some(applied) = transform::apply(t, &current, db, opt) {
            current = applied.config;
            chain.push(current.clone());
        }
    }
    chain
}

/// Two hand-built configurations for the plan shapes the §2 optimal
/// configuration never leaves room for (its covering indexes and
/// whole-query views win everything):
///
/// * `narrow` — the base configuration plus one single-column index per
///   sargable column of the workload, so seeks need rid lookups and two
///   selective predicates on one table can meet in a rid intersection;
/// * `subset_views` — the index-only optimal configuration plus, for
///   every query over three or more tables, a view over the two tables
///   of its first join predicate, which can only be read *below* a
///   join.
fn hand_built(
    db: &Database,
    opt: &Optimizer<'_>,
    w: &Workload,
    base: &Configuration,
) -> [Configuration; 2] {
    let mut narrow = base.clone();
    let (mut subset_views, _) = gather_optimal_configuration(db, w, false);
    for q in selects(w) {
        let block = QueryBlock::from_bound(db, q);
        for r in &block.classified.ranges {
            narrow.add_index(Index::new(r.column.table, [r.column], []));
        }
        if let (true, Some(j)) = (block.tables.len() >= 3, block.classified.joins.first()) {
            let def = block.spjg_for_subset(&[j.left.table, j.right.table].into());
            let vid = simulate_view(opt, &mut subset_views, def);
            subset_views.add_index(Index::clustered(vid, [ColumnId::new(vid, 0)]));
        }
    }
    [narrow, subset_views]
}

/// Which plan shapes the corpus reached (so the digest cannot quietly
/// stop covering a branch of the search).
#[derive(Default)]
struct Coverage {
    hash_joins: usize,
    index_nljs: usize,
    rid_intersections: usize,
    rid_lookups: usize,
    sorts: usize,
    view_reads_below_a_join: usize,
    whole_query_view_reads: usize,
}

impl Coverage {
    fn note(&mut self, plan: &PhysPlan) {
        let mut joins = 0;
        plan.root.walk(&mut |n| match n.op {
            Op::HashJoin => {
                joins += 1;
                self.hash_joins += 1;
            }
            Op::NestedLoopJoin => {
                joins += 1;
                self.index_nljs += 1;
            }
            Op::RidIntersect => self.rid_intersections += 1,
            Op::RidLookup => self.rid_lookups += 1,
            Op::Sort { .. } => self.sorts += 1,
            _ => {}
        });
        if plan.index_usages.iter().any(|u| u.index.table.is_view()) {
            if joins > 0 {
                self.view_reads_below_a_join += 1;
            } else {
                self.whole_query_view_reads += 1;
            }
        }
    }
}

fn fold_plan(mut digest: u64, plan: &PhysPlan) -> u64 {
    digest = fnv1a(digest, &plan.cost.to_bits().to_le_bytes());
    digest = fnv1a(digest, &plan.rows.to_bits().to_le_bytes());
    digest = fnv1a(digest, format!("{:?}", plan.index_usages).as_bytes());
    fnv1a(digest, plan.explain().as_bytes())
}

fn selects(w: &Workload) -> impl Iterator<Item = &BoundSelect> {
    w.entries.iter().filter_map(|e| e.select.as_ref())
}

#[test]
fn plan_bytes_golden_digest() {
    let mut digest = FNV_OFFSET;
    let mut plans = 0usize;
    let mut seen = Coverage::default();
    for (ci, corpus) in corpora().iter().enumerate() {
        let db = &corpus.db;
        let w = Workload::bind(db, &corpus.statements).expect("corpus binds");
        let opt = Optimizer::new(db);
        let base = Configuration::base(db);
        let (optimal, _) = gather_optimal_configuration(db, &w, corpus.with_views);
        let chain = relaxation_chain(db, &opt, &optimal, &base, ci as u64);
        assert!(
            chain.len() >= 20,
            "{}: only {} relaxations applied",
            corpus.name,
            chain.len()
        );
        let extra = hand_built(db, &opt, &w, &base);
        let prepared: Vec<_> = selects(&w).map(|q| opt.prepare(q)).collect();
        digest = fnv1a(digest, corpus.name.as_bytes());
        for config in [&base, &optimal].into_iter().chain(&extra).chain(&chain) {
            for (q, p) in selects(&w).zip(&prepared) {
                let plan = opt.optimize(config, q);
                digest = fold_plan(digest, &plan);
                seen.note(&plan);
                plans += 1;

                // One preparation serves every configuration.
                let again = opt.optimize_prepared(config, p);
                assert_eq!(
                    fold_plan(FNV_OFFSET, &again),
                    fold_plan(FNV_OFFSET, &plan),
                    "{}: a reused prepared statement moved the plan",
                    corpus.name
                );
                let what_if = opt.what_if(config, p);
                assert_eq!(
                    (what_if.cost.to_bits(), what_if.rows.to_bits()),
                    (plan.cost.to_bits(), plan.rows.to_bits())
                );
                assert_eq!(what_if.index_usages, plan.index_usages);
            }
        }

        // The greedy join order (FROM lists above `max_dp_tables`).
        let greedy = Optimizer::with_options(
            db,
            OptimizerOptions {
                max_dp_tables: 2,
                ..OptimizerOptions::default()
            },
        );
        for config in [&base, &optimal, &extra[1]] {
            for q in selects(&w) {
                digest = fold_plan(digest, &greedy.optimize(config, q));
                plans += 1;
            }
        }
    }
    assert!(plans > 2000, "corpus shrank: {plans} plans");
    assert!(
        seen.hash_joins > 0
            && seen.index_nljs > 0
            && seen.rid_intersections > 0
            && seen.rid_lookups > 0
            && seen.sorts > 0
            && seen.view_reads_below_a_join > 0
            && seen.whole_query_view_reads > 0,
        "a plan shape is no longer reached: hash {} nlj {} intersect {} lookup {} sort {} \
         subset-view {} whole-view {}",
        seen.hash_joins,
        seen.index_nljs,
        seen.rid_intersections,
        seen.rid_lookups,
        seen.sorts,
        seen.view_reads_below_a_join,
        seen.whole_query_view_reads
    );
    assert_eq!(
        digest, GOLDEN_PLAN_DIGEST,
        "optimizer output moved: {digest:#018x} over {plans} plans"
    );
}

#[test]
fn request_stream_golden_digest() {
    let mut digest = FNV_OFFSET;
    for corpus in corpora() {
        let db = &corpus.db;
        let w = Workload::bind(db, &corpus.statements).expect("corpus binds");
        let tracer = Tracer::new();
        let (optimal, sink) =
            gather_optimal_configuration_traced(db, &w, corpus.with_views, Some(&tracer));
        digest = fnv1a(digest, corpus.name.as_bytes());
        digest = fnv1a(digest, tracer.to_jsonl().as_bytes());
        for n in [
            sink.index_requests,
            sink.view_requests,
            sink.created_indexes,
            sink.created_views,
        ] {
            digest = fnv1a(digest, &(n as u64).to_le_bytes());
        }
        digest = fnv1a(digest, &optimal.signature128().to_le_bytes());

        // Table 1's counts: requests per query under a fixed
        // configuration.
        let opt = Optimizer::new(db);
        for config in [Configuration::base(db), optimal] {
            let mut counts = CountingSink::default();
            for q in selects(&w) {
                let mut working = config.clone();
                opt.observe_with_sink(&mut working, q, &mut counts);
                digest = fnv1a(digest, &(counts.index_requests as u64).to_le_bytes());
                digest = fnv1a(digest, &(counts.view_requests as u64).to_le_bytes());
            }
        }
    }
    assert_eq!(
        digest, GOLDEN_REQUEST_DIGEST,
        "the instrumented pass's request stream moved: {digest:#018x}"
    );
}

/// The request counts of Table 1 for the two widest TPC-H blocks, under
/// the base and the §2 optimal configuration: the walk issues every
/// request the enumeration makes, one per `(mask, inner, join method)`
/// — exactly the parent engine's numbers.
#[test]
fn counting_sink_sees_every_request_of_the_enumeration() {
    let db = tpch::tpch_database(0.02);
    let w = Workload::bind(&db, &tpch::tpch_workload().statements).unwrap();
    let (optimal, _) = gather_optimal_configuration(&db, &w, true);
    let opt = Optimizer::new(&db);
    let queries: Vec<&BoundSelect> = selects(&w).collect();
    let mut got = Vec::new();
    for config in [Configuration::base(&db), optimal] {
        for qi in [4, 7] {
            // Q5 and Q8, the six-table blocks.
            let mut sink = CountingSink::default();
            opt.observe_with_sink(&mut config.clone(), queries[qi], &mut sink);
            got.push((
                queries[qi].tables.len(),
                sink.index_requests,
                sink.view_requests,
            ));
        }
    }
    assert_eq!(got, PARENT_REQUEST_COUNTS);
}

/// Logs every request it receives — an index request's `bit_key`, a
/// view request's `Debug` — with the configuration's `signature128`
/// once the request is answered: by the wrapped `OptimalSink`, or by
/// nobody when it runs bare.
struct RecordingSink {
    inner: Option<OptimalSink>,
    log: Vec<(char, u64)>,
    /// Index requests over a view: the requests of the view matches.
    view_index_requests: usize,
}

impl RecordingSink {
    fn new(inner: Option<OptimalSink>) -> RecordingSink {
        RecordingSink {
            inner,
            log: Vec::new(),
            view_index_requests: 0,
        }
    }

    fn record(&mut self, kind: char, request: &[u8], config: &Configuration) {
        let digest = fnv1a(FNV_OFFSET, request);
        let digest = fnv1a(digest, &config.signature128().to_le_bytes());
        self.log.push((kind, digest));
    }
}

impl RequestSink for RecordingSink {
    fn on_index_request(&mut self, req: &IndexRequest, db: &Database, config: &mut Configuration) {
        if let Some(inner) = &mut self.inner {
            inner.on_index_request(req, db, config);
        }
        if req.table.is_view() {
            self.view_index_requests += 1;
        }
        let key: Vec<u8> = req.bit_key().iter().flat_map(|w| w.to_le_bytes()).collect();
        self.record('i', &key, config);
    }

    fn on_view_request(&mut self, req: &ViewRequest, db: &Database, config: &mut Configuration) {
        if let Some(inner) = &mut self.inner {
            inner.on_view_request(req, db, config);
        }
        self.record('v', format!("{req:?}").as_bytes(), config);
    }
}

/// The §2 pass walks the prepared statement's requests instead of
/// planning: `observe_with_sink` must issue exactly the requests a
/// planning search under a sink issued, in its order, and leave the
/// configuration after each answer where that search left it — over
/// every corpus, under the base, the optimal and the subset-view
/// configuration, with an `OptimalSink` answering and bare, through the
/// DP and the greedy order (one-table blocks included). The planning
/// search's stream is kept as `GOLDEN_WALK_DIGEST`.
#[test]
fn the_request_walk_issues_what_the_planning_search_issues() {
    let (mut requests, mut view_index_requests, mut single_table) = (0, 0, 0);
    let mut digest = FNV_OFFSET;
    for corpus in corpora() {
        let db = &corpus.db;
        let w = Workload::bind(db, &corpus.statements).expect("corpus binds");
        let opt = Optimizer::new(db);
        let greedy = Optimizer::with_options(
            db,
            OptimizerOptions {
                max_dp_tables: 2,
                ..OptimizerOptions::default()
            },
        );
        let base = Configuration::base(db);
        let (optimal, _) = gather_optimal_configuration(db, &w, corpus.with_views);
        let [_, subset_views] = hand_built(db, &opt, &w, &base);
        single_table += selects(&w).filter(|q| q.tables.len() == 1).count();
        for (o, order) in [(&opt, "dp"), (&greedy, "greedy")] {
            for (config, name) in [
                (&base, "base"),
                (&optimal, "optimal"),
                (&subset_views, "subset"),
            ] {
                for answering in [true, false] {
                    let mut working = config.clone();
                    let inner = answering.then(|| OptimalSink::new(corpus.with_views));
                    let mut walked = RecordingSink::new(inner);
                    for q in selects(&w) {
                        o.observe_with_sink(&mut working, q, &mut walked);
                    }
                    let pass = format!("{} {order} {name} answering={answering}", corpus.name);
                    digest = fnv1a(digest, pass.as_bytes());
                    for (kind, entry) in &walked.log {
                        digest = fnv1a(digest, &[*kind as u8]);
                        digest = fnv1a(digest, &entry.to_le_bytes());
                    }
                    digest = fnv1a(digest, &working.signature128().to_le_bytes());
                    requests += walked.log.len();
                    view_index_requests += walked.view_index_requests;
                }
            }
        }
    }
    assert!(single_table > 0, "no one-table block in the corpora");
    assert!(view_index_requests > 0, "no view was ever matched");
    assert!(requests > 20_000, "corpus shrank: {requests} requests");
    assert_eq!(
        digest, GOLDEN_WALK_DIGEST,
        "the walked request stream moved: {digest:#018x} over {requests} requests"
    );
}

// Recorded on the parent engine (commit 49645a7, rustc 1.95.0), debug
// == release.
const GOLDEN_PLAN_DIGEST: u64 = 0x55E0_F9C5_E647_19D8;
const GOLDEN_REQUEST_DIGEST: u64 = 0xB40B_971A_F657_FCDB;
/// Every walked log of `the_request_walk_issues_what_the_planning_search_issues`,
/// recorded at commit a7c2089 while the walk still matched the planning
/// search request for request.
const GOLDEN_WALK_DIGEST: u64 = 0x5466_462C_F8FE_84BA;
/// `(tables, index requests, view requests)` for Q5 and Q8 under the
/// base, then the optimal configuration.
const PARENT_REQUEST_COUNTS: [(usize, usize, usize); 4] =
    [(6, 320, 57), (6, 320, 57), (6, 321, 57), (6, 321, 57)];
