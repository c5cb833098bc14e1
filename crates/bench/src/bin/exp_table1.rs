//! Table 1 — "Index and view requests for a typical TPC-H workload."
//!
//! Counts, per TPC-H query, the index and view requests the optimizer
//! issues during instrumented optimization and the structures the
//! tuner simulates in response.

use pdt_bench::json_struct;
use pdt_bench::{render_table, write_json};
use pdt_opt::Optimizer;
use pdt_physical::Configuration;
use pdt_tuner::instrument::OptimalSink;
use pdt_tuner::Workload;
use pdt_workloads::tpch;

struct Row {
    query: usize,
    index_requests: usize,
    view_requests: usize,
    simulated_indexes: usize,
    simulated_views: usize,
}
json_struct!(Row {
    query,
    index_requests,
    view_requests,
    simulated_indexes,
    simulated_views
});

fn main() {
    let sf = 0.1;
    let db = tpch::tpch_database(sf);
    let spec = tpch::tpch_workload();
    let workload = Workload::bind(&db, &spec.statements).expect("tpch binds");
    let opt = Optimizer::new(&db);

    let mut rows = Vec::new();
    let mut total = Row {
        query: 0,
        index_requests: 0,
        view_requests: 0,
        simulated_indexes: 0,
        simulated_views: 0,
    };
    for (i, entry) in workload.entries.iter().enumerate() {
        let Some(q) = &entry.select else { continue };
        let mut config = Configuration::base(&db);
        let mut sink = OptimalSink::new(true);
        opt.observe_with_sink(&mut config, q, &mut sink);
        let row = Row {
            query: i + 1,
            index_requests: sink.index_requests,
            view_requests: sink.view_requests,
            simulated_indexes: sink.created_indexes,
            simulated_views: sink.created_views,
        };
        total.index_requests += row.index_requests;
        total.view_requests += row.view_requests;
        total.simulated_indexes += row.simulated_indexes;
        total.simulated_views += row.simulated_views;
        rows.push(row);
    }

    println!("Table 1: index and view requests for the 22-query TPC-H workload (SF {sf})\n");
    let mut table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("Q{}", r.query),
                r.index_requests.to_string(),
                r.view_requests.to_string(),
                r.simulated_indexes.to_string(),
                r.simulated_views.to_string(),
            ]
        })
        .collect();
    table_rows.push(vec![
        "TOTAL".into(),
        total.index_requests.to_string(),
        total.view_requests.to_string(),
        total.simulated_indexes.to_string(),
        total.simulated_views.to_string(),
    ]);
    println!(
        "{}",
        render_table(
            &[
                "query",
                "index requests",
                "view requests",
                "simulated indexes",
                "simulated views",
            ],
            &table_rows,
        )
    );
    println!(
        "The number of simulated structures ({} indexes, {} views) stays small\n\
         relative to the requests analyzed ({} + {}), as the paper reports.",
        total.simulated_indexes, total.simulated_views, total.index_requests, total.view_requests
    );
    write_json("table1", &rows);
}
