//! The three workloads: their cells, the rows those cells produce, and
//! the committed reference rows the rows are checked against.
//!
//! `run_fault_grid` and `run_scenario_grid` take no seeds, so the cell
//! lists here are the grids' own (`fault_matrix_cells(true)`,
//! `scenario_matrix_cells(false)`) with the seeds substituted, run through
//! `run_forked_cells` exactly as those functions do. The row folds mirror
//! the private ones in `nvmgc_bench::grids`: a test pins the fault fold to
//! the program's own `run_fault_cell`, and at the committed seeds every
//! row of either fold must equal its committed row.

use crate::json::{self, Value};
use nvmgc_bench::{
    fault_matrix_cells, fault_matrix_config, scenario_matrix_cells, scenario_matrix_config,
    sized_config, FaultCell, FaultRow, ScenarioCell, ScenarioRow, WorkCounters, PAPER_THREADS,
};
use nvmgc_core::fault::Severity;
use nvmgc_core::GcConfig;
use nvmgc_heap::DevicePlacement;
use nvmgc_workloads::{all_apps, run_scenario, AppRunConfig, AppRunResult, RunError};
use serde::Serialize;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::Path;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The FAST fault-matrix grid: every durability layer runs.
    FaultDurable,
    /// The full latency-scenario grid: trace, client plane, PS/semispace.
    ServerScenarios,
    /// Cold Figure 5 cells without faults: the layer-bypass workload.
    AppsNofault,
}

/// The fault-plan (and client-arrival) seed of the committed fault and
/// scenario rows.
pub const GRID_SEED: u64 = 0xB0A7;
/// The held-out fault-plan seed with committed full-scale fault rows.
pub const HELD_OUT_SEED: u64 = 0xC0FFEE;
/// The workload seed (the mutator's RNG, `NVMGC_SEED`) of every committed
/// row.
pub const APP_SEED: u64 = 0x5EED;

/// The two seeds a cell depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// The workload seed: the mutator's object-graph RNG.
    pub workload: u64,
    /// The fault-plan seed, which also seeds the client arrivals (unused
    /// by `apps_nofault`, which injects no faults).
    pub plan: u64,
}

impl Seeds {
    /// The seeds of the committed rows.
    pub const COMMITTED: Seeds = Seeds {
        workload: APP_SEED,
        plan: GRID_SEED,
    };
}

/// The `apps_nofault` roster: different demography (clustering, actors,
/// classification, recommendation). Page-rank is left out: its three
/// paper-sized cells alone take ~30 s of host time, and `fault_durable`
/// already runs it.
pub const APPS: [&str; 4] = ["kmeans", "akka-uct", "naive-bayes", "movie-lens"];

/// Figure 5 columns run per app: `(row field, collector, placement)`.
fn app_columns() -> [(&'static str, GcConfig, DevicePlacement); 3] {
    let t = PAPER_THREADS;
    [
        (
            "all_ms",
            GcConfig::plus_all(t, 0),
            DevicePlacement::all_nvm(),
        ),
        (
            "vanilla_ms",
            GcConfig::vanilla(t),
            DevicePlacement::all_nvm(),
        ),
        (
            "vanilla_dram_ms",
            GcConfig::vanilla(t),
            DevicePlacement::all_dram(),
        ),
    ]
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FaultDurable,
        Workload::ServerScenarios,
        Workload::AppsNofault,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FaultDurable => "fault_durable",
            Workload::ServerScenarios => "server_scenarios",
            Workload::AppsNofault => "apps_nofault",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether every row at `seeds` has a committed reference row.
    pub fn has_references(self, seeds: Seeds) -> bool {
        seeds.workload == APP_SEED
            && match self {
                Workload::FaultDurable => [GRID_SEED, HELD_OUT_SEED].contains(&seeds.plan),
                Workload::ServerScenarios => seeds.plan == GRID_SEED,
                Workload::AppsNofault => true,
            }
    }

    /// Whether the workload forks its cells from warm snapshots.
    pub fn forked(self) -> bool {
        self != Workload::AppsNofault
    }

    /// The committed results file holding this workload's rows.
    fn reference_file(self) -> &'static str {
        match self {
            Workload::FaultDurable => "fault_matrix.json",
            Workload::ServerScenarios => "scenario_matrix.json",
            Workload::AppsNofault => "fig05_gc_time.json",
        }
    }

    /// The workload's cells at `seeds`, in grid declaration order.
    pub fn cells(self, seeds: Seeds) -> Vec<Cell> {
        match self {
            Workload::FaultDurable => fault_matrix_cells(true)
                .into_iter()
                .map(|mut c| {
                    c.seed = seeds.plan;
                    let mut cfg = fault_matrix_config(&c);
                    cfg.seed = seeds.workload;
                    Cell {
                        label: format!("{} workload-seed={:#x}", c.label(), seeds.workload),
                        cfg,
                        kind: CellKind::Fault(c),
                    }
                })
                .collect(),
            Workload::ServerScenarios => scenario_matrix_cells(false)
                .into_iter()
                .map(|mut c| {
                    c.seed = seeds.plan;
                    let mut cfg = scenario_matrix_config(&c);
                    cfg.seed = seeds.workload;
                    Cell {
                        label: format!("{} workload-seed={:#x}", c.label(), seeds.workload),
                        cfg,
                        kind: CellKind::Scenario(c),
                    }
                })
                .collect(),
            Workload::AppsNofault => {
                let roster = all_apps();
                let mut cells = Vec::new();
                for name in APPS {
                    let spec = roster
                        .iter()
                        .find(|s| s.name == name)
                        .expect("apps_nofault roster names Figure 5 apps");
                    for (column, gc, placement) in app_columns() {
                        let mut cfg = sized_config(spec.clone(), gc);
                        cfg.heap.placement = placement;
                        cfg.seed = seeds.workload;
                        cells.push(Cell {
                            label: format!(
                                "app={name} column={column} workload-seed={:#x}",
                                seeds.workload
                            ),
                            cfg,
                            kind: CellKind::App { app: name, column },
                        });
                    }
                }
                cells
            }
        }
    }
}

/// What a cell is, for folding its run into a row.
#[derive(Clone)]
pub enum CellKind {
    Fault(FaultCell),
    Scenario(ScenarioCell),
    App {
        app: &'static str,
        column: &'static str,
    },
}

/// One simulated run of a workload.
#[derive(Clone)]
pub struct Cell {
    pub label: String,
    pub cfg: AppRunConfig,
    pub kind: CellKind,
}

/// What a finished cell leaves behind: its row (serialized), its
/// simulated outputs' fingerprint, and its work counters.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOut {
    /// `None` when the run returned a `RunError` (carried in `error`).
    pub row: Option<Value>,
    pub error: Option<String>,
    /// Hash of `total_ns`, `final_digest`, `pause_spans`, `mem_stats` and
    /// every cycle's `GcStats`: equal fingerprints mean equal simulations.
    pub fingerprint: u64,
    pub counters: WorkCounters,
}

/// The equivalence fingerprint of a run's simulated outputs. `Debug`
/// renders every field (floats round-trip exactly), so two runs hash
/// alike exactly when all of these agree.
pub fn fingerprint(
    total_ns: u64,
    digest: &impl std::fmt::Debug,
    pause_spans: &impl std::fmt::Debug,
    mem_stats: &impl std::fmt::Debug,
    cycles: &impl std::fmt::Debug,
) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{total_ns}|{digest:?}|{pause_spans:?}|{mem_stats:?}|{cycles:?}").hash(&mut h);
    h.finish()
}

fn to_value<T: Serialize>(row: &T) -> Value {
    let text = serde_json::to_string(row).expect("rows serialize");
    json::parse(&text).expect("serde_json writes valid JSON")
}

/// One `apps_nofault` row: the GC time of one Figure 5 column.
#[derive(Serialize)]
struct AppRow {
    app: String,
    column: String,
    gc_ms: f64,
}

/// Folds a finished (or failed) run into its cell's output.
pub fn fold(cell: &Cell, result: Result<AppRunResult, RunError>) -> CellOut {
    let res = match result {
        Ok(res) => res,
        Err(e) => {
            // The fault grid reports errors as rows too; a benchmark cell
            // that errors has failed either way.
            return CellOut {
                row: None,
                error: Some(e.to_string()),
                fingerprint: 0,
                counters: WorkCounters::default(),
            };
        }
    };
    let mut counters = WorkCounters::from_run(&res);
    let fp = fingerprint(
        res.total_ns,
        &res.final_digest,
        &res.pause_spans,
        &res.mem_stats,
        &res.cycles,
    );
    let row = match &cell.kind {
        CellKind::Fault(c) => to_value(&fault_row(c, &res)),
        CellKind::Scenario(c) => {
            let (row, requests, cohorts) = scenario_row(c, &res);
            counters.client_requests = requests;
            counters.client_cohorts = cohorts;
            to_value(&row)
        }
        CellKind::App { app, column } => to_value(&AppRow {
            app: (*app).to_owned(),
            column: (*column).to_owned(),
            gc_ms: res.gc_seconds() * 1e3,
        }),
    };
    CellOut {
        row: Some(row),
        error: None,
        fingerprint: fp,
        counters,
    }
}

/// The fault-matrix row of a completed run (`ok` rows only: an errored
/// cell never reaches here).
pub fn fault_row(cell: &FaultCell, res: &AppRunResult) -> FaultRow {
    let sum = |f: &dyn Fn(&nvmgc_core::GcStats) -> u64| res.cycles.iter().map(f).sum::<u64>();
    let mode = |durable: bool| if durable { "durable" } else { "volatile" }.to_owned();
    FaultRow {
        app: cell.app.to_owned(),
        config: cell.config_name.to_owned(),
        map_mode: mode(cell.gc.durable_map_active()),
        severity: cell.severity.name().to_owned(),
        plan_seed: cell.seed,
        outcome: "ok".to_owned(),
        ok: true,
        corruption: false,
        cycles: res.gc.cycles(),
        digest_checks: res.digest_checks,
        gc_fault_events: sum(&|c| c.fault_events.total()),
        power_failure_checks: sum(&|c| c.fault_events.power_failure_checks),
        discarded_lines: sum(&|c| c.fault_events.discarded_lines),
        torn_lines: sum(&|c| c.fault_events.torn_lines),
        recovered_cycles: sum(&|c| c.recovered_cycles),
        resumed_evacuations: sum(&|c| c.resumed_evacuations),
        replayed_map_entries: sum(&|c| c.replayed_map_entries),
        alloc_mode: mode(cell.gc.durable_alloc_active()),
        alloc_reconciled: sum(&|c| c.alloc_reconciled),
        alloc_rebuilt: sum(&|c| c.alloc_rebuilt_regions),
        alloc_fences: sum(&|c| c.alloc_fences),
        total_ns: res.total_ns,
        total_pause_ns: res.gc.total_pause_ns(),
    }
}

/// The scenario-matrix row of a completed server run, with the client
/// plane's request and cohort counts.
pub fn scenario_row(cell: &ScenarioCell, res: &AppRunResult) -> (ScenarioRow, u64, u64) {
    let spec = cell.scenario_spec();
    let sc = run_scenario(&spec, &res.pause_spans, &res.trace, res.total_ns);
    let q = sc.quantiles_ms();
    let row = ScenarioRow {
        scenario: cell.scenario.label().to_owned(),
        config: cell.config_name.to_owned(),
        severity: cell.severity.name().to_owned(),
        seed: cell.seed,
        outcome: "ok".to_owned(),
        ok: true,
        clients: spec.clients,
        requests: sc.requests,
        batches: sc.batches,
        horizon_ns: res.total_ns,
        gc_cycles: res.gc.cycles(),
        total_pause_ns: res.gc.total_pause_ns(),
        max_pause_ns: res.gc.max_pause_ns(),
        slo_ns: spec.slo_ns,
        p50_ms: q.p50_ms,
        p99_ms: q.p99_ms,
        p999_ms: q.p999_ms,
        p9999_ms: q.p9999_ms,
        max_ms: q.max_ms,
        histogram: sc.histogram.encode(),
        gc_attributed_windows: sc.gc_attributed_windows(),
        violating_requests: sc.violating_requests(),
        violations: sc.violations,
    };
    (row, sc.requests, sc.batches)
}

/// The committed rows a workload's cells are checked against.
pub struct References {
    /// Rows keyed by the cell's identifying fields.
    rows: HashMap<String, Value>,
    /// `fault_durable` only: the summed work counters of the FAST fault
    /// grid at the grid seed, from `sim_throughput.json`.
    pub counters: Option<Vec<(String, u64)>>,
}

/// Fields that identify a row of each committed file.
fn row_key(w: Workload, row: &Value) -> Option<String> {
    let s = |k: &str| -> Option<String> {
        match row.get(k)? {
            Value::Str(s) => Some(s.clone()),
            Value::Num(n) => Some(n.clone()),
            _ => None,
        }
    };
    Some(match w {
        Workload::FaultDurable => format!(
            "{}|{}|{}|{}",
            s("app")?,
            s("config")?,
            s("severity")?,
            s("plan_seed")?
        ),
        Workload::ServerScenarios => format!(
            "{}|{}|{}|{}",
            s("scenario")?,
            s("config")?,
            s("severity")?,
            s("seed")?
        ),
        Workload::AppsNofault => s("app")?,
    })
}

/// Reads and indexes the committed rows of `w` from `results_dir`.
pub fn load_references(w: Workload, results_dir: &Path) -> Result<References, String> {
    let read = |name: &str| -> Result<Value, String> {
        let path = results_dir.join(name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let doc = read(w.reference_file())?;
    let data = doc
        .get("data")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{} has no data array", w.reference_file()))?;
    let mut rows = HashMap::new();
    for row in data {
        let key = row_key(w, row)
            .ok_or_else(|| format!("{} has a row without its key fields", w.reference_file()))?;
        rows.insert(key, row.clone());
    }
    let counters = if w == Workload::FaultDurable {
        let doc = read("sim_throughput.json")?;
        let data = doc.get("data");
        let harness = data.and_then(|d| d.get("harness")).and_then(Value::as_str);
        let cells = data.and_then(|d| d.get("cells")).and_then(Value::as_u64);
        match (harness, cells, data.and_then(|d| d.get("counters"))) {
            // The committed record is the FAST fault grid's.
            (Some("fault_matrix"), Some(16), Some(Value::Obj(members))) => Some(
                members
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_u64().unwrap_or(u64::MAX)))
                    .collect(),
            ),
            _ => None,
        }
    } else {
        None
    };
    Ok(References { rows, counters })
}

impl References {
    /// Checks one cell's row. At seeds with references the row must equal
    /// the committed row. At another fault-plan seed with the committed
    /// workload seed, a fault cell at severity `off` still has an empty
    /// fault plan, so its row must equal the committed one apart from the
    /// seed field. Other rows have nothing to be compared with.
    pub fn check(&self, w: Workload, seeds: Seeds, cell: &Cell, row: &Value) -> Result<(), String> {
        let off_fault_cell =
            matches!(&cell.kind, CellKind::Fault(c) if c.severity == Severity::Off);
        let (expected, actual) = if w.has_references(seeds) {
            (self.lookup(w, row)?, row.clone())
        } else if off_fault_cell && seeds.workload == APP_SEED {
            let with_seed =
                |r: &Value, s: u64| set_member(r, "plan_seed", Value::Num(s.to_string()));
            let at_grid_seed = with_seed(row, GRID_SEED);
            (self.lookup(w, &at_grid_seed)?, at_grid_seed)
        } else {
            return Ok(());
        };
        let expected = match (&cell.kind, expected) {
            (CellKind::App { app, column }, full) => {
                // A Figure 5 row holds all columns; compare this cell's.
                let v = full
                    .get(column)
                    .ok_or_else(|| format!("reference row of {app} lacks {column}"))?;
                let mut members = vec![
                    ("app".to_owned(), Value::Str((*app).to_owned())),
                    ("column".to_owned(), Value::Str((*column).to_owned())),
                ];
                members.push(("gc_ms".to_owned(), v.clone()));
                Value::Obj(members)
            }
            (_, full) => full,
        };
        if expected == actual {
            Ok(())
        } else {
            Err(format!(
                "row differs from the committed row: {}",
                first_difference(&expected, &actual)
            ))
        }
    }

    fn lookup(&self, w: Workload, row: &Value) -> Result<Value, String> {
        let key = row_key(w, row).ok_or("row lacks its key fields")?;
        self.rows
            .get(&key)
            .cloned()
            .ok_or_else(|| format!("no committed row for {key}"))
    }
}

fn set_member(v: &Value, key: &str, new: Value) -> Value {
    match v {
        Value::Obj(members) => Value::Obj(
            members
                .iter()
                .map(|(k, old)| (k.clone(), if k == key { new.clone() } else { old.clone() }))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// The first member (in `expected`'s order) whose value differs.
fn first_difference(expected: &Value, actual: &Value) -> String {
    if let (Value::Obj(e), Value::Obj(_)) = (expected, actual) {
        for (k, ev) in e {
            match actual.get(k) {
                Some(av) if av == ev => {}
                Some(av) => return format!("{k}: committed {ev:?}, now {av:?}"),
                None => return format!("{k}: missing"),
            }
        }
        return "extra members".to_owned();
    }
    format!("committed {expected:?}, now {actual:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmgc_workloads::run_app;

    fn results_dir() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../results")
    }

    #[test]
    fn default_seed_cells_are_the_grids_cells() {
        let fault = Workload::FaultDurable.cells(Seeds::COMMITTED);
        let grid = fault_matrix_cells(true);
        assert_eq!(fault.len(), grid.len());
        for (c, g) in fault.iter().zip(&grid) {
            assert!(c.label.starts_with(&g.label()), "{}", c.label);
            assert_eq!(
                format!("{:?}", c.cfg),
                format!("{:?}", fault_matrix_config(g))
            );
        }
        let scen = Workload::ServerScenarios.cells(Seeds::COMMITTED);
        let grid = scenario_matrix_cells(false);
        assert_eq!(scen.len(), grid.len());
        for (c, g) in scen.iter().zip(&grid) {
            assert!(c.label.starts_with(&g.label()), "{}", c.label);
            assert_eq!(
                format!("{:?}", c.cfg),
                format!("{:?}", scenario_matrix_config(g))
            );
        }
        assert_eq!(Workload::AppsNofault.cells(Seeds::COMMITTED).len(), 12);
    }

    #[test]
    fn every_default_seed_cell_has_a_reference_row() {
        let obj = |members: Vec<(&str, Value)>| {
            Value::Obj(
                members
                    .into_iter()
                    .map(|(k, v)| (k.to_owned(), v))
                    .collect(),
            )
        };
        let s = |v: &str| Value::Str(v.to_owned());
        let n = |v: u64| Value::Num(v.to_string());
        for w in Workload::ALL {
            let refs = load_references(w, &results_dir()).expect("references load");
            for cell in w.cells(Seeds::COMMITTED) {
                let key_row = match &cell.kind {
                    CellKind::Fault(c) => obj(vec![
                        ("app", s(c.app)),
                        ("config", s(c.config_name)),
                        ("severity", s(c.severity.name())),
                        ("plan_seed", n(c.seed)),
                    ]),
                    CellKind::Scenario(c) => obj(vec![
                        ("scenario", s(c.scenario.label())),
                        ("config", s(c.config_name)),
                        ("severity", s(c.severity.name())),
                        ("seed", n(c.seed)),
                    ]),
                    CellKind::App { app, .. } => obj(vec![("app", s(app))]),
                };
                refs.lookup(w, &key_row)
                    .unwrap_or_else(|e| panic!("{}: {e}", cell.label));
            }
        }
    }

    #[test]
    fn fold_matches_program_and_reference_on_one_cell() {
        // The cheapest cell with a committed row: a vanilla fault cell
        // without faults. The benchmark's fold must agree with the
        // program's own row function, and both with the committed row.
        let w = Workload::FaultDurable;
        let cell = w
            .cells(Seeds::COMMITTED)
            .into_iter()
            .find(|c| matches!(&c.kind, CellKind::Fault(f) if f.config_name == "vanilla" && f.severity == Severity::Off))
            .expect("grid has vanilla/off");
        let CellKind::Fault(fc) = &cell.kind else {
            unreachable!()
        };
        let out = fold(&cell, run_app(&cell.cfg));
        let (program_row, program_counters) = nvmgc_bench::run_fault_cell(fc);
        assert_eq!(out.row, Some(to_value(&program_row)));
        assert_eq!(out.counters, program_counters);
        let refs = load_references(w, &results_dir()).expect("references load");
        refs.check(
            w,
            Seeds::COMMITTED,
            &cell,
            out.row.as_ref().expect("ok row"),
        )
        .expect("matches the committed row");
        // At another plan seed the off cell is still checked, seed aside.
        let seven = Seeds {
            plan: 7,
            ..Seeds::COMMITTED
        };
        let mut other = cell.clone();
        if let CellKind::Fault(f) = &mut other.kind {
            f.seed = 7;
        }
        let row = out.row.as_ref().expect("ok row");
        let shifted = set_member(row, "plan_seed", Value::Num("7".into()));
        refs.check(w, seven, &other, &shifted)
            .expect("off rows are plan-seed independent");
        let broken = set_member(&shifted, "total_ns", Value::Num("1".into()));
        assert!(refs.check(w, seven, &other, &broken).is_err());
    }
}
