//! `reproduce` — regenerate every table and figure of the Nebula paper.
//!
//! ```text
//! cargo run -p nebula-bench --release --bin reproduce -- [--fast] <experiment>...
//! ```
//!
//! `reproduce help` lists the experiments (the `EXPERIMENTS` table);
//! `all`, or no name at all, runs every one of them in table order. An
//! unknown name is an error reported before any experiment runs.
//!
//! `--fast` shrinks the datasets ~10× (shapes preserved) for quick runs.
//!
//! `--metrics[=DIR]` turns on the telemetry subsystem and writes one JSON
//! snapshot per experiment (work counters, stage latency histograms,
//! recent pipeline events) to `DIR/<experiment>.json` (default `metrics/`).
//!
//! `--traces[=DIR]` turns on end-to-end tracing and writes the span trees
//! retained at the end of each experiment (full JSON, durations included)
//! to `DIR/<experiment>.trace.json` (default `traces/`).

use nebula_bench::{
    ablation, degradation, durability, fig11, fig12, fig13, fig14, fig15, overload, paging,
    pipeline, profile, recovery, repair, replication, tracing, Scale, Setup,
};

/// Every experiment, in `all` order, with its `help` line. The `all`
/// list, the `help` text and name validation all read this table.
const EXPERIMENTS: &[(&str, &str)] = &[
    ("fig11a", "query-generation time per phase (Figure 11a)"),
    ("fig11b", "number of generated keyword queries (Figure 11b)"),
    ("fig11c", "false positives / negatives of generated queries (Figure 11c)"),
    ("fig12a", "keyword-query execution time (Figure 12a)"),
    ("fig12b", "keyword-query produced tuples (Figure 12b)"),
    ("fig13", "multi-query shared execution (Figure 13)"),
    ("fig14a", "focal-spreading execution time (Figure 14a)"),
    ("fig14b", "focal-spreading produced tuples (Figure 14b)"),
    ("fig15a", "assessment criteria, auto-adjusted bounds (Figure 15a)"),
    ("fig15b", "assessment criteria, no expert involvement (Figure 15b)"),
    ("naive-assess", "naive-baseline assessment (section 8.2)"),
    ("profile", "Figure 7 hop profile + K selection"),
    ("pipeline", "end-to-end batch pipeline with stage attribution"),
    ("degradation", "batch ingest under budgets and faults"),
    ("durability", "WAL append overhead + recovery vs log length"),
    ("overload", "concurrent ingest under arrival pressure"),
    ("replication", "WAL shipping under transport faults"),
    ("repair", "reconvergence cost vs divergence depth"),
    ("recovery", "backup cost + restore time vs archive depth"),
    ("paging", "paged storage vs RAM across pool sizes"),
    ("tracing", "trace overhead + critical-path attribution"),
    ("ablation-acg", "ACG focal-based confidence adjustment"),
    ("ablation-learn", "learned ConceptRefs vs curated"),
    ("ablation-querygen", "query-generation features"),
    ("ablation-stability", "ACG stability gate"),
];

/// What the positional arguments ask for.
#[derive(Debug, PartialEq)]
enum Selection {
    /// Print the experiment table.
    Help,
    /// Run these experiments, in order.
    Run(Vec<&'static str>),
}

/// Resolve the positional arguments against [`EXPERIMENTS`]. `help`
/// wins; `all` (or no name) selects every experiment. Any other name
/// must be in the table, or the whole selection is rejected.
fn select(names: &[&str]) -> Result<Selection, String> {
    let lookup = |name: &str| EXPERIMENTS.iter().find(|(e, _)| *e == name).map(|(e, _)| *e);
    let unknown: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| !matches!(*n, "help" | "all") && lookup(n).is_none())
        .collect();
    if !unknown.is_empty() {
        return Err(format!("unknown experiment(s): {} (try `help`)", unknown.join(", ")));
    }
    if names.contains(&"help") {
        return Ok(Selection::Help);
    }
    if names.is_empty() || names.contains(&"all") {
        return Ok(Selection::Run(EXPERIMENTS.iter().map(|(e, _)| *e).collect()));
    }
    Ok(Selection::Run(names.iter().filter_map(|n| lookup(n)).collect()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let scale = if fast { Scale::Fast } else { Scale::Full };
    let metrics_dir: Option<std::path::PathBuf> = args.iter().find_map(|a| {
        a.strip_prefix("--metrics").map(|rest| match rest.strip_prefix('=') {
            Some(dir) if !dir.is_empty() => dir.into(),
            _ => std::path::PathBuf::from("metrics"),
        })
    });
    if metrics_dir.is_some() {
        nebula_obs::set_enabled(true);
    }
    let traces_dir: Option<std::path::PathBuf> = args.iter().find_map(|a| {
        a.strip_prefix("--traces").map(|rest| match rest.strip_prefix('=') {
            Some(dir) if !dir.is_empty() => dir.into(),
            _ => std::path::PathBuf::from("traces"),
        })
    });
    if traces_dir.is_some() {
        nebula_obs::trace::set_enabled(true);
    }
    let names: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();
    let chosen = match select(&names) {
        Ok(Selection::Run(chosen)) => chosen,
        Ok(Selection::Help) => {
            println!("experiments:");
            for (name, what) in EXPERIMENTS {
                println!("  {name:<20} {what}");
            }
            println!("  {:<20} everything above", "all");
            return;
        }
        Err(e) => {
            eprintln!("[reproduce] {e}");
            std::process::exit(2);
        }
    };

    eprintln!("[reproduce] scale = {scale:?}");

    // Lazy per-dataset setups (only built when an experiment needs them).
    let mut large: Option<Setup> = None;
    let mut small_mid: Option<(Setup, Setup)> = None;
    let mut bounds_cache: Option<nebula_core::VerificationBounds> = None;

    macro_rules! get_large {
        () => {{
            if large.is_none() {
                eprintln!("[reproduce] generating D_large ...");
                large = Some(Setup::large(scale));
            }
            large.as_ref().unwrap()
        }};
    }

    for exp in chosen {
        // Per-experiment metrics: diff against the counters accumulated so
        // far, so each sidecar reports only its own experiment's work.
        let baseline = metrics_dir.as_ref().map(|_| nebula_obs::snapshot());
        if traces_dir.is_some() {
            // Fresh ring per experiment so each sidecar carries only its
            // own span trees; the experiment may toggle tracing itself
            // (the `tracing` experiment does), so re-arm it here.
            nebula_obs::trace::set_enabled(true);
            nebula_obs::trace::reset();
        }
        match exp {
            "fig11a" | "fig11b" | "fig11c" => {
                let setup = get_large!();
                let cells = fig11::run(setup);
                match exp {
                    "fig11a" => fig11::table_a(&cells).print(),
                    "fig11b" => fig11::table_b(&cells).print(),
                    _ => fig11::table_c(&cells).print(),
                }
            }
            "fig12a" | "fig12b" => {
                if small_mid.is_none() {
                    eprintln!("[reproduce] generating D_small and D_mid ...");
                    small_mid = Some((Setup::small(scale), Setup::mid(scale)));
                }
                let mut cells = Vec::new();
                {
                    let (small, mid) = small_mid.as_ref().unwrap();
                    cells.extend(fig12::run_dataset(small));
                    cells.extend(fig12::run_dataset(mid));
                }
                cells.extend(fig12::run_dataset(get_large!()));
                if exp == "fig12a" {
                    fig12::table_a(&cells).print();
                } else {
                    fig12::table_b(&cells).print();
                }
            }
            "fig13" => {
                let setup = get_large!();
                fig13::table(&fig13::run_dataset(setup)).print();
            }
            "fig14a" | "fig14b" => {
                let setup = get_large!();
                let cells = fig14::run_dataset(setup, 100);
                if exp == "fig14a" {
                    fig14::table_a(&cells).print();
                } else {
                    fig14::table_b(&cells).print();
                }
            }
            "fig15a" | "fig15b" | "naive-assess" | "ablation-acg" | "ablation-learn" => {
                let setup = get_large!();
                if bounds_cache.is_none() {
                    eprintln!("[reproduce] tuning bounds via BoundsSetting() ...");
                    let training = if fast { 30 } else { 90 };
                    let (bounds, report) = fig15::tune_bounds(setup, training);
                    eprintln!(
                        "[reproduce] bounds = ({:.2}, {:.2}); training avg F_N={:.2} F_P={:.2} M_F={:.1}",
                        bounds.lower, bounds.upper, report.f_n, report.f_p, report.m_f
                    );
                    bounds_cache = Some(bounds);
                }
                let bounds = bounds_cache.as_ref().unwrap();
                match exp {
                    "fig15a" => {
                        let cells = fig15::run_with_bounds(setup, bounds);
                        fig15::table(
                            "Figure 15(a): assessment criteria, auto-adjusted bounds",
                            bounds,
                            &cells,
                        )
                        .print();
                    }
                    "fig15b" => {
                        let extreme = nebula_core::VerificationBounds::new(0.5, 0.5);
                        let cells = fig15::run_with_bounds(setup, &extreme);
                        fig15::table(
                            "Figure 15(b): extreme case — no expert involvement",
                            &extreme,
                            &cells,
                        )
                        .print();
                    }
                    "naive-assess" => {
                        let (report, tuples) = fig15::naive_assessment(setup, bounds);
                        fig15::naive_table(&report, tuples).print();
                    }
                    "ablation-acg" => {
                        ablation::acg_ablation(setup, bounds).print();
                    }
                    _ => {
                        ablation::learn_ablation(setup, bounds).print();
                    }
                }
            }
            "pipeline" => {
                eprintln!("[reproduce] generating D_small ...");
                let setup = Setup::small(scale);
                let report = pipeline::run(&setup, 100);
                pipeline::table(setup.name, 100, &report).print();
            }
            "degradation" => {
                eprintln!("[reproduce] generating D_small ...");
                let setup = Setup::small(scale);
                degradation::table(&degradation::run(&setup, 100)).print();
            }
            "durability" => {
                eprintln!("[reproduce] generating D_small ...");
                let setup = Setup::small(scale);
                let (cells, recovery) = durability::run(&setup, 100);
                durability::table(&cells).print();
                durability::recovery_table(&recovery).print();
            }
            "overload" => {
                eprintln!("[reproduce] generating D_small ...");
                let setup = Setup::small(scale);
                overload::table(&overload::run(&setup, if fast { 40 } else { 96 })).print();
            }
            "replication" => {
                eprintln!("[reproduce] generating D_small ...");
                let setup = Setup::small(scale);
                replication::table(&replication::run(&setup, if fast { 30 } else { 80 })).print();
            }
            "repair" => {
                repair::table(&repair::run(if fast { 48 } else { 160 })).print();
            }
            "recovery" => {
                recovery::table(&recovery::run(if fast { 2_000 } else { 8_000 })).print();
            }
            "paging" => {
                paging::table(&paging::run(if fast { 200 } else { 800 })).print();
            }
            "tracing" => {
                eprintln!("[reproduce] generating D_small ...");
                let setup = Setup::small(scale);
                let overhead = tracing::run_overhead(&setup, if fast { 2 } else { 5 });
                tracing::overhead_table(&overhead).print();
                let cells = tracing::run_attribution(&setup, if fast { 24 } else { 64 });
                tracing::attribution_table(&cells).print();
            }
            "profile" => {
                let setup = get_large!();
                let p = profile::build_profile(setup, if fast { 30 } else { 120 });
                profile::table(&p).print();
                profile::k_selection_table(&p).print();
            }
            "ablation-querygen" => {
                ablation::querygen_ablation(get_large!()).print();
            }
            "ablation-stability" => {
                ablation::stability_ablation(get_large!()).print();
            }
            other => unreachable!("`{other}` is in EXPERIMENTS but has no runner"),
        }
        if let (Some(dir), Some(base)) = (&metrics_dir, baseline) {
            let diff = nebula_obs::snapshot().diff(&base);
            if let Err(e) = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(dir.join(format!("{exp}.json")), diff.render_json()))
            {
                eprintln!("[reproduce] failed to write metrics sidecar for {exp}: {e}");
            } else {
                eprintln!(
                    "[reproduce] metrics sidecar → {}",
                    dir.join(format!("{exp}.json")).display()
                );
            }
        }
        if let Some(dir) = &traces_dir {
            let traces = nebula_obs::trace::traces();
            let json = nebula_obs::trace::render_traces_json(&traces, true);
            let path = dir.join(format!("{exp}.trace.json"));
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json))
            {
                eprintln!("[reproduce] failed to write trace sidecar for {exp}: {e}");
            } else {
                eprintln!(
                    "[reproduce] trace sidecar → {} ({} trace(s))",
                    path.display(),
                    traces.len()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_rejects_unknown_names_and_accepts_every_table_entry() {
        assert!(select(&["bogus"]).is_err());
        assert!(select(&["fig13", "fig99"]).is_err(), "one bad name rejects the whole run");
        assert!(select(&["help", "bogus"]).is_err());
        for (name, _) in EXPERIMENTS {
            assert_eq!(select(&[name]), Ok(Selection::Run(vec![*name])), "{name}");
        }
        let all: Vec<&str> = EXPERIMENTS.iter().map(|(e, _)| *e).collect();
        assert_eq!(select(&[]), Ok(Selection::Run(all.clone())));
        assert_eq!(select(&["all"]), Ok(Selection::Run(all)));
        assert_eq!(select(&["help"]), Ok(Selection::Help));
    }
}
