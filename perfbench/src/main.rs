//! Host-time benchmark of the nvmgc simulator.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--plan-seed <n>] [--seconds <s>]
//!           [--trace 0|1] [--results <dir>] [--record <file.jsonl>]
//! perfbench compare <base.jsonl> <change.jsonl> [--bench BENCHMARK.json]
//! ```
//!
//! A run sets up eleven times, then runs whole passes of the workload's
//! cells until `--seconds` have been measured (at least one pass), and
//! checks every cell's row. With `--trace 1` it runs one untraced and one
//! traced pass and reports the per-layer split instead. The last line of
//! standard output is the result object; `perfbench/README.md` lists the
//! metrics.

mod cells;
mod json;
mod stats;
mod traced;

use cells::{load_references, Cell, CellOut, References, Seeds, Workload};
use nvmgc_bench::{run_forked_cells, WorkCounters};
use nvmgc_workloads::run_app;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;

struct Args {
    workload: Workload,
    seeds: Seeds,
    seconds: f64,
    trace: bool,
    results: PathBuf,
    record: Option<PathBuf>,
}

fn parse_seed(flag: &str, s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("{flag} {s:?} is not an unsigned integer"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seeds = Seeds::COMMITTED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut results = PathBuf::from("results");
    let mut record = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(v).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => seeds.workload = parse_seed(flag, value()?)?,
            "--plan-seed" => seeds.plan = parse_seed(flag, value()?)?,
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {v:?} is not a non-negative number"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} must be 0 or 1")),
                }
            }
            "--results" => results = PathBuf::from(value()?),
            "--record" => record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seeds,
        seconds,
        trace,
        results,
        record,
    })
}

/// One untraced pass: the grid through the program's own runner.
struct Pass {
    wall_s: f64,
    outs: Vec<CellOut>,
    counters: WorkCounters,
}

fn run_pass(w: Workload, cells: &[Cell]) -> Pass {
    let start = Instant::now();
    let (outs, forks) = if w.forked() {
        // What `run_fault_grid` / `run_scenario_grid` do, at any seed.
        let jobs: Vec<_> = cells
            .iter()
            .map(|c| {
                let cell = c.clone();
                (c.label.clone(), c.cfg.clone(), move |res| {
                    cells::fold(&cell, res)
                })
            })
            .collect();
        let (outs, _, forks) = run_forked_cells(jobs);
        (outs, Some(forks))
    } else {
        let outs = cells
            .iter()
            .map(|c| cells::fold(c, run_app(&c.cfg)))
            .collect();
        (outs, None)
    };
    let wall_s = start.elapsed().as_secs_f64();
    let mut counters = WorkCounters::default();
    for o in &outs {
        counters.add(&o.counters);
    }
    if let Some(f) = forks {
        counters.snapshot_forks = f.snapshot_forks;
        counters.warmup_steps_saved = f.warmup_steps_saved;
    }
    Pass {
        wall_s,
        outs,
        counters,
    }
}

/// Checks a pass's cells against the references and the first pass.
/// Returns `(attempted, failed)` and prints each failure.
fn check_pass(
    args: &Args,
    refs: &References,
    cells: &[Cell],
    pass: &Pass,
    first: Option<&Pass>,
) -> (u64, u64) {
    let w = args.workload;
    let mut failed = 0u64;
    for (i, (cell, out)) in cells.iter().zip(&pass.outs).enumerate() {
        let verdict = match (&out.row, &out.error) {
            (_, Some(e)) => Err(format!("run failed: {e}")),
            (Some(row), None) => refs
                .check(w, args.seeds, cell, row)
                .and_then(|()| match first {
                    Some(f) if f.outs[i] != *out => {
                        Err("differs from the run's first pass".to_owned())
                    }
                    _ => Ok(()),
                }),
            (None, None) => Err("no row".to_owned()),
        };
        if let Err(e) = verdict {
            failed += 1;
            println!("FAIL {}: {e}", cell.label);
        }
    }
    let mut attempted = cells.len() as u64;
    if let (Workload::FaultDurable, Seeds::COMMITTED, Some(expected)) =
        (w, args.seeds, refs.counters.as_ref())
    {
        // The grid's summed work counters must match the committed record.
        attempted += 1;
        let now = pass.counters.named();
        let differs: Vec<String> = now
            .iter()
            .filter(|(k, v)| !expected.iter().any(|(ek, ev)| ek == k && ev == v))
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        if !differs.is_empty() {
            failed += 1;
            println!(
                "FAIL work counters differ from sim_throughput.json: {}",
                differs.join(", ")
            );
        }
    }
    (attempted, failed)
}

/// The process's peak resident set, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Commit, host and parallelism of this run, as JSON members.
fn provenance(argv: &[String]) -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let host = std::fs::read_to_string("/etc/machine-id")
        .or_else(|_| std::fs::read_to_string("/proc/sys/kernel/hostname"))
        .map(|s| s.trim().chars().take(12).collect::<String>())
        .unwrap_or_else(|_| "unknown".to_owned());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "\"commit\": {}, \"command\": {}, \"nvmgc_jobs\": {}, \"nproc\": {nproc}, \"host\": {}",
        quote(&commit),
        quote(&argv.join(" ")),
        quote(&std::env::var("NVMGC_JOBS").unwrap_or_default()),
        quote(&host)
    )
}

fn quote(s: &str) -> String {
    serde_json::to_string(&s.to_owned()).expect("strings serialize")
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

fn run(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    let w = args.workload;
    // One worker, the committed seeds, and no diagnostic output: the
    // program's environment knobs are pinned before any cell runs.
    std::env::set_var("NVMGC_JOBS", "1");
    for knob in ["NVMGC_SEED", "NVMGC_COLD", "NVMGC_CELL_TIMES", "NVMGC_FAST"] {
        std::env::remove_var(knob);
    }

    // Set-up: build the cells and load the reference rows, several times.
    let mut setup_samples = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let cells = w.cells(args.seeds);
        let refs = load_references(w, &args.results)?;
        setup_samples.push(t.elapsed().as_secs_f64());
        prepared = Some((cells, refs));
    }
    let (cells, refs) = prepared.expect("at least one set-up");

    let measure = Instant::now();
    let first = run_pass(w, &cells);
    // Read before any further pass, so the figure does not depend on how
    // many passes the host's speed allows.
    let peak_rss = peak_rss_mib();
    let (mut attempted, mut failed) = check_pass(&args, &refs, &cells, &first, None);
    let mut walls = vec![first.wall_s];
    if !args.trace {
        while measure.elapsed().as_secs_f64() < args.seconds {
            let pass = run_pass(w, &cells);
            let (a, f) = check_pass(&args, &refs, &cells, &pass, Some(&first));
            attempted += a;
            failed += f;
            walls.push(pass.wall_s);
        }
    }

    let wall_s = stats::median(&walls);
    let sim_ns = first.counters.simulated_ns;
    let mut metrics: Vec<(&str, f64, &str)> = vec![
        ("wall_s", wall_s, "s"),
        (
            "sim_ns_per_host_s",
            stats::sim_ns_per_host_s(sim_ns, wall_s),
            "ns/s",
        ),
        ("setup_s", stats::median(&setup_samples), "s"),
        ("peak_rss_mib", peak_rss, "MiB"),
        (
            "fail_share",
            stats::fail_share(failed, attempted),
            "fraction",
        ),
    ];
    println!(
        "{}: workload seed {:#x}, plan seed {:#x}, {} cells, {} pass(es), NVMGC_JOBS=1",
        w.name(),
        args.seeds.workload,
        args.seeds.plan,
        cells.len(),
        walls.len()
    );
    for (name, v, unit) in &metrics {
        println!("  {name:<20} {v:>16.6} {unit}");
    }
    // fail_share is printed, and carried by `attempted`/`failed`; the
    // result's metrics are the ones BENCHMARK.json names, none of them 0.
    metrics.retain(|(name, ..)| *name != "fail_share");

    let mut correct = failed == 0;
    if args.trace {
        let t = traced::run_traced(&cells, w.forked());
        let mut mismatched = 0u64;
        for ((cell, out), fp) in cells.iter().zip(&first.outs).zip(&t.fingerprints) {
            let same = match (fp, &out.error) {
                (Ok(fp), None) => *fp == out.fingerprint,
                (Err(_), Some(_)) => true,
                _ => false,
            };
            if !same {
                mismatched += 1;
                println!(
                    "FAIL traced run of {} differs from the untraced run",
                    cell.label
                );
            }
        }
        println!(
            "  equivalence guard: {} of {} cells reproduced exactly",
            cells.len() as u64 - mismatched,
            cells.len()
        );
        correct &= mismatched == 0;
        metrics = t.metrics;
        metrics.push(("trace_overhead_s", t.wall_s - first.wall_s, "s"));
        for (name, v, unit) in &metrics {
            println!("  {name:<34} {v:>18.6} {unit}");
        }
    }

    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"plan_seed\": {}, \"trace\": {}, \"passes\": {}, {}, \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        quote(w.name()),
        args.seeds.workload,
        args.seeds.plan,
        args.trace,
        walls.len(),
        provenance(argv),
        metrics_json(&metrics)
    );
    println!("record {record}");
    if let Some(path) = &args.record {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        writeln!(f, "{record}").map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    );
    Ok(correct)
}

/// `compare`: medians, quartiles, win share and verdict per workload and
/// metric over two sets of recorded runs.
fn compare(argv: &[String]) -> Result<(), String> {
    let mut files = Vec::new();
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = PathBuf::from(it.next().ok_or("--bench needs a value")?);
        } else {
            files.push(PathBuf::from(a));
        }
    }
    let [base, change] = files.as_slice() else {
        return Err("compare takes two record files".to_owned());
    };
    let read = |p: &Path| -> Result<json::Value, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let spec = read(&bench)?;
    let records = |p: &Path| -> Result<Vec<json::Value>, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| json::parse(l).map_err(|e| format!("{}: {e}", p.display())))
            .collect()
    };
    let (base, change) = (records(base)?, records(change)?);
    let values = |set: &[json::Value], w: &str, m: &str| -> Vec<f64> {
        set.iter()
            .filter(|r| r.get("workload").and_then(json::Value::as_str) == Some(w))
            .filter_map(|r| r.get("metrics")?.get(m)?.get("value")?.as_f64())
            .collect()
    };
    let mut metrics: Vec<(String, stats::Better, Option<f64>)> = Vec::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        for m in spec
            .get(section)
            .and_then(json::Value::as_array)
            .unwrap_or(&[])
        {
            let name = m.get("name").and_then(json::Value::as_str).unwrap_or("");
            let better = match m.get("better").and_then(json::Value::as_str) {
                Some("higher") => stats::Better::Higher,
                _ => stats::Better::Lower,
            };
            let bound = if bounded {
                m.get("bound").and_then(json::Value::as_f64)
            } else {
                None
            };
            metrics.push((name.to_owned(), better, bound));
        }
    }
    println!(
        "{:<17} {:<34} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}  {:>5}  verdict",
        "workload",
        "metric",
        "runs",
        "base q1",
        "base med",
        "base q3",
        "chg q1",
        "chg med",
        "chg q3",
        "wins"
    );
    for w in Workload::ALL {
        for (m, better, bound) in &metrics {
            let (b, c) = (values(&base, w.name(), m), values(&change, w.name(), m));
            if b.is_empty() || c.is_empty() {
                continue;
            }
            let r = stats::compare(&b, &c, *better, *bound);
            let q = [
                r.base.0, r.base.1, r.base.2, r.change.0, r.change.1, r.change.2,
            ]
            .map(|v| format!("{v:>12.5e}"));
            println!(
                "{:<17} {:<34} {:>5} {}  {:>5.2}  {}",
                w.name(),
                m,
                b.len().min(c.len()),
                q.join(" "),
                r.win_share,
                r.verdict
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("compare") {
        compare(&argv[1..]).map(|()| true)
    } else {
        run(&argv)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
