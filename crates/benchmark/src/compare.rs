//! `pdt-benchmark compare <base.json>... -- <new.json>...`: judge one
//! set of run envelopes against another, one row per workload and
//! end-to-end metric, by the bounds the benchmark fixed.

use crate::metrics::{Better, EndToEnd, END_TO_END, IMPROVEMENT_BOUND_POINTS};
use crate::stats::{median, quartiles};
use pdt_trace::json::{parse, Json};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    /// A side's own quartiles lie further apart than the bound, so a
    /// move of the size the bound guards against cannot be told from
    /// noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's runs of one workload and metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    /// Each run's median.
    pub runs: Vec<f64>,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    /// Several runs are summarised across runs; a single run brings
    /// the quartiles of its own passes.
    fn new(runs: Vec<f64>, own_quartiles: (f64, f64)) -> Side {
        let (q1, q3) = if runs.len() > 1 {
            quartiles(&runs)
        } else {
            own_quartiles
        };
        Side {
            median: median(&runs),
            runs,
            q1,
            q3,
        }
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1).abs() / self.median.abs()
    }
}

/// How much worse `new` is than `base`, as a share of `base`
/// (negative when better).
fn worsening(m: &EndToEnd, base: f64, new: f64) -> f64 {
    match m.better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

pub fn verdict(m: &EndToEnd, base: &Side, new: &Side) -> Verdict {
    if base.spread() > m.bound || new.spread() > m.bound {
        // Too noisy to resolve the bound, unless the sides' runs (more
        // than one a side, or the rule is empty) do not even overlap in
        // the good direction.
        let disjoint = base.runs.len() > 1
            && new.runs.len() > 1
            && new
                .runs
                .iter()
                .all(|n| base.runs.iter().all(|b| worsening(m, *b, *n) < 0.0));
        return if disjoint {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = worsening(m, base.median, new.median);
    if worse_by > m.bound {
        Verdict::Worse
    } else if worse_by < -m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// What `compare` reads from one envelope.
struct Run {
    workload: String,
    failed_share: f64,
    improvement_pct: f64,
    /// metric -> (median, q1, q3)
    metrics: BTreeMap<String, (f64, f64, f64)>,
}

fn read_run(text: &str) -> Result<Run, String> {
    let doc = parse(text)?;
    let num = |v: &Json, key: &str| {
        v.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("envelope lacks a numeric `{key}`"))
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in doc
        .get("end_to_end")
        .and_then(Json::as_obj)
        .ok_or("envelope lacks `end_to_end`")?
    {
        metrics.insert(
            name.clone(),
            (num(m, "median")?, num(m, "q1")?, num(m, "q3")?),
        );
    }
    Ok(Run {
        workload: doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("envelope lacks `workload`")?
            .to_string(),
        failed_share: num(&doc, "failed_share")?,
        improvement_pct: num(&doc, "improvement_pct")?,
        metrics,
    })
}

/// workload -> runs
fn by_workload(texts: &[String]) -> Result<BTreeMap<String, Vec<Run>>, String> {
    let mut out: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    for text in texts {
        let run = read_run(text)?;
        out.entry(run.workload.clone()).or_default().push(run);
    }
    Ok(out)
}

fn side(runs: &[Run], metric: &str) -> Option<Side> {
    let values: Vec<_> = runs.iter().filter_map(|r| r.metrics.get(metric)).collect();
    let &&(_, q1, q3) = values.first()?;
    Some(Side::new(values.iter().map(|v| v.0).collect(), (q1, q3)))
}

/// The comparison table, and whether the new side passes: no `worse`
/// row, which includes a drop in `improvement_pct` beyond
/// [`IMPROVEMENT_BOUND_POINTS`] and any rise in `failed_share`.
pub fn compare(base: &[String], new: &[String]) -> Result<(String, bool), String> {
    let (base, new) = (by_workload(base)?, by_workload(new)?);
    let mut table = format!(
        "{:<14} {:<16} {:>12} {:>25} {:>12} {:>25} {:>9}  verdict\n",
        "workload", "metric", "base", "[q1, q3]", "new", "[q1, q3]", "new/base"
    );
    let mut pass = true;
    for (workload, base_runs) in &base {
        let Some(new_runs) = new.get(workload) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(b), Some(n)) = (side(base_runs, m.name), side(new_runs, m.name)) else {
                continue;
            };
            let v = verdict(m, &b, &n);
            pass &= v != Verdict::Worse;
            table += &format!(
                "{:<14} {:<16} {:>12.6} {:>25} {:>12.6} {:>25} {:>9.4}  {}\n",
                workload,
                m.name,
                b.median,
                format!("[{:.6}, {:.6}]", b.q1, b.q3),
                n.median,
                format!("[{:.6}, {:.6}]", n.q1, n.q3),
                n.median / b.median,
                v.label()
            );
        }
        // Exact at a fixed seed, so judged in points, not by a spread.
        let quality =
            |runs: &[Run]| median(&runs.iter().map(|r| r.improvement_pct).collect::<Vec<_>>());
        let (b, n) = (quality(base_runs), quality(new_runs));
        let moved = if n < b - IMPROVEMENT_BOUND_POINTS {
            Verdict::Worse
        } else if n > b + IMPROVEMENT_BOUND_POINTS {
            Verdict::Better
        } else {
            Verdict::Same
        };
        let worst = |runs: &[Run]| runs.iter().map(|r| r.failed_share).fold(0.0, f64::max);
        let (fb, fn_) = (worst(base_runs), worst(new_runs));
        let failing = if fn_ > fb {
            Verdict::Worse
        } else {
            Verdict::Same
        };
        for (name, b, n, v) in [
            ("improvement_pct", b, n, moved),
            ("failed_share", fb, fn_, failing),
        ] {
            pass &= v != Verdict::Worse;
            table += &format!(
                "{workload:<14} {name:<16} {b:>12.6} {:>25} {n:>12.6} {:>25} {:>9}  {}\n",
                "",
                "",
                "",
                v.label()
            );
        }
    }
    Ok((table, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    fn side_of(runs: &[f64]) -> Side {
        Side::new(runs.to_vec(), (runs[0], runs[0]))
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let wall = end_to_end("wall_s").unwrap(); // lower is better, 25 %
        let steady = side_of(&[1.00, 1.01, 0.99, 1.00]);
        assert_eq!(
            verdict(wall, &steady, &side_of(&[1.15, 1.14, 1.16])),
            Verdict::Same
        );
        assert_eq!(
            verdict(wall, &steady, &side_of(&[1.30, 1.31, 1.29])),
            Verdict::Worse
        );
        assert_eq!(
            verdict(wall, &steady, &side_of(&[0.70, 0.71, 0.69])),
            Verdict::Better
        );

        let higher = EndToEnd {
            better: Better::Higher,
            ..*wall
        };
        let base = side_of(&[50.0]);
        assert_eq!(verdict(&higher, &base, &side_of(&[30.0])), Verdict::Worse);
        assert_eq!(verdict(&higher, &base, &side_of(&[70.0])), Verdict::Better);
        assert_eq!(verdict(&higher, &base, &side_of(&[50.0])), Verdict::Same);
    }

    #[test]
    fn a_side_noisier_than_the_bound_is_unresolved_unless_disjoint() {
        let wall = end_to_end("wall_s").unwrap();
        let noisy = side_of(&[1.0, 1.6, 0.6, 1.4, 0.8]);
        assert_eq!(
            verdict(wall, &noisy, &side_of(&[1.0, 1.0])),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(wall, &side_of(&[1.0, 1.0]), &noisy),
            Verdict::Unresolved
        );
        // Every new run beats every base run: noise cannot explain it.
        assert_eq!(
            verdict(wall, &noisy, &side_of(&[0.4, 0.5])),
            Verdict::Better
        );
    }

    fn envelope(workload: &str, wall: (f64, f64, f64), failed_share: f64) -> String {
        envelope_of_quality(workload, wall, failed_share, 12.5)
    }

    fn envelope_of_quality(
        workload: &str,
        wall: (f64, f64, f64),
        failed_share: f64,
        improvement_pct: f64,
    ) -> String {
        format!(
            r#"{{"workload":"{workload}","failed_share":{failed_share:?},
                "improvement_pct":{improvement_pct:?},"end_to_end":{{
                "wall_s":{{"unit":"s","median":{:?},"q1":{:?},"q3":{:?}}},
                "optimizer_calls":{{"unit":"count/pass","median":100.0,"q1":100.0,"q3":100.0}}}}}}"#,
            wall.0, wall.1, wall.2
        )
    }

    #[test]
    fn compare_passes_equal_sets_and_fails_regressions() {
        let base = [envelope("relax_deep", (1.0, 0.99, 1.01), 0.0)];
        let (table, pass) = compare(&base, &base).unwrap();
        assert!(pass, "{table}");
        assert!(table.contains("relax_deep     wall_s"));
        assert!(table.contains("optimizer_calls"));

        let slow = [envelope("relax_deep", (1.5, 1.49, 1.51), 0.0)];
        let (table, pass) = compare(&base, &slow).unwrap();
        assert!(!pass && table.contains("worse"), "{table}");

        // A single run brings its own quartiles: too wide, unresolved.
        let wide = [envelope("relax_deep", (1.5, 1.0, 2.0), 0.0)];
        let (table, pass) = compare(&base, &wide).unwrap();
        assert!(pass && table.contains("unresolved"), "{table}");

        let failing = [envelope("relax_deep", (1.0, 0.99, 1.01), 0.1)];
        let (_, pass) = compare(&base, &failing).unwrap();
        assert!(!pass, "a rise in failed_share must fail the comparison");

        // Quality is held to 0.05 points, not to a share of itself.
        let quality = |pct| {
            [envelope_of_quality(
                "relax_deep",
                (1.0, 0.99, 1.01),
                0.0,
                pct,
            )]
        };
        assert!(compare(&base, &quality(12.46)).unwrap().1);
        assert!(!compare(&base, &quality(12.4)).unwrap().1);
        assert!(compare(&base, &quality(14.0)).unwrap().0.contains("better"));
    }

    #[test]
    fn several_runs_a_side_are_summarised_across_runs() {
        let base = [
            envelope("relax_deep", (1.0, 0.5, 1.5), 0.0),
            envelope("relax_deep", (1.02, 0.5, 1.5), 0.0),
            envelope("relax_deep", (0.98, 0.5, 1.5), 0.0),
        ];
        // The runs' own (wide) quartiles no longer matter.
        let (table, pass) = compare(&base, &base).unwrap();
        assert!(pass && !table.contains("unresolved"), "{table}");
        assert!(compare(&["{".to_string()], &base).is_err());
    }
}
