//! The traced pass: drives each cell's run through the simulator's
//! public calls and records a span around every call into a layer.
//!
//! The loop below is `nvmgc_workloads::runner`'s `SimSnapshot::capture`
//! (for cold cells) and `finish_run`, restated so that each call can be
//! timed from outside the program. Every cell's fingerprint must equal the
//! untraced run's, or the per-layer numbers would describe a different
//! program; `main` exits nonzero when one differs.

use crate::cells::{fingerprint, Cell, CellKind};
use crate::stats;
use nvmgc_core::fault::GcFault;
use nvmgc_core::stats::PauseSpan;
use nvmgc_core::{G1Collector, GcError, GcStats};
use nvmgc_heap::verify::verify_heap;
use nvmgc_heap::Heap;
use nvmgc_memsim::{DeviceId, MemConfig, MemStats, MemorySystem, PhaseKind, TraceCat};
use nvmgc_workloads::mutator::MutatorStep;
use nvmgc_workloads::runner::GcTrigger;
use nvmgc_workloads::{run_scenario, AppRunConfig, Mutator, SimSnapshot};
use std::collections::HashMap;
use std::time::Instant;

/// The layers a span can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// The pass and cell spans: the benchmark's own loop.
    Other,
    Setup,
    Mutator,
    Collector,
    Recovery,
    Verifier,
    SnapshotCapture,
    SnapshotRestore,
    Trace,
    Client,
}

const LAYERS: usize = Layer::Client as usize + 1;

/// Spans kept in memory for the pass and reduced at the end.
struct Tracer {
    origin: Instant,
    /// `(layer, parent, start s, end s)`, parents before children.
    spans: Vec<(Layer, Option<usize>, f64, f64)>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, layer: Layer) {
        let t = self.origin.elapsed().as_secs_f64();
        self.spans.push((layer, self.open.last().copied(), t, t));
        self.open.push(self.spans.len() - 1);
    }

    fn end(&mut self) {
        let i = self.open.pop().expect("end matches a begin");
        self.spans[i].3 = self.origin.elapsed().as_secs_f64();
    }

    /// Summed self time per layer, indexed by `Layer as usize`.
    fn layer_self_times(&self) -> [f64; LAYERS] {
        let shape: Vec<(Option<usize>, f64)> =
            self.spans.iter().map(|&(_, p, s, e)| (p, e - s)).collect();
        let own = stats::self_times(&shape);
        let mut out = [0.0; LAYERS];
        for (&(layer, ..), t) in self.spans.iter().zip(own) {
            out[layer as usize] += t;
        }
        out
    }
}

/// Memory-model counters over an interval.
#[derive(Debug, Clone, Copy, Default)]
struct MemDelta {
    ops: u64,
    bus_grants: u64,
    llc_hits: u64,
    llc_misses: u64,
    llc_installs: u64,
    prefetch_issued: u64,
    prefetch_useful: u64,
    bulk_grant_splits: u64,
    nvm_read_bytes: u64,
    nvm_write_bytes: u64,
    dram_bytes: u64,
}

impl MemDelta {
    fn between(a: &MemStats, b: &MemStats) -> MemDelta {
        let nvm = DeviceId::Nvm.index();
        let dram = DeviceId::Dram.index();
        let ops = |s: &MemStats| s.reads.iter().sum::<u64>() + s.writes.iter().sum::<u64>();
        MemDelta {
            ops: ops(b) - ops(a),
            bus_grants: b.bus_grants - a.bus_grants,
            llc_hits: b.llc_hits - a.llc_hits,
            llc_misses: b.llc_misses - a.llc_misses,
            llc_installs: b.llc_installs - a.llc_installs,
            prefetch_issued: b.prefetch_issued - a.prefetch_issued,
            prefetch_useful: b.prefetch_useful - a.prefetch_useful,
            bulk_grant_splits: b.bulk_grant_splits - a.bulk_grant_splits,
            nvm_read_bytes: b.read_bytes[nvm] - a.read_bytes[nvm],
            nvm_write_bytes: b.write_bytes[nvm] - a.write_bytes[nvm],
            dram_bytes: (b.read_bytes[dram] + b.write_bytes[dram])
                - (a.read_bytes[dram] + a.write_bytes[dram]),
        }
    }

    fn add(&mut self, o: &MemDelta) {
        self.ops += o.ops;
        self.bus_grants += o.bus_grants;
        self.llc_hits += o.llc_hits;
        self.llc_misses += o.llc_misses;
        self.llc_installs += o.llc_installs;
        self.prefetch_issued += o.prefetch_issued;
        self.prefetch_useful += o.prefetch_useful;
        self.bulk_grant_splits += o.bulk_grant_splits;
        self.nvm_read_bytes += o.nvm_read_bytes;
        self.nvm_write_bytes += o.nvm_write_bytes;
        self.dram_bytes += o.dram_bytes;
    }
}

/// Durability-ledger line counts summed over devices.
#[derive(Debug, Clone, Copy, Default)]
struct PersistDelta {
    stores: u64,
    nt_stores: u64,
    drained_lines: u64,
}

impl PersistDelta {
    fn now(mem: &MemorySystem) -> PersistDelta {
        let mut p = PersistDelta::default();
        for dev in [DeviceId::Dram, DeviceId::Nvm] {
            if let Some(l) = mem.persist_ledger(dev) {
                let s = l.stats();
                p.stores += s.stores;
                p.nt_stores += s.nt_stores;
                p.drained_lines += s.drained_lines;
            }
        }
        p
    }

    fn add_between(&mut self, a: &PersistDelta, b: &PersistDelta) {
        self.stores += b.stores - a.stores;
        self.nt_stores += b.nt_stores - a.nt_stores;
        self.drained_lines += b.drained_lines - a.drained_lines;
    }
}

/// Work counts per layer over the traced pass.
#[derive(Debug, Default)]
struct Counts {
    mutator_calls: u64,
    mutator_allocs: u64,
    mem_mutator: MemDelta,
    mem_collector: MemDelta,
    mem_total: MemDelta,
    cycles: u64,
    copied_objects: u64,
    slots: u64,
    engine_steps: u64,
    steals: u64,
    hm_hits: u64,
    hm_ops: u64,
    wc_overflow: u64,
    wc_copied: u64,
    recovery_calls: u64,
    resumed: u64,
    replayed: u64,
    oracle_checks: u64,
    verifier_calls: u64,
    verifier_final_calls: u64,
    verifier_objects: u64,
    persist: PersistDelta,
    alloc_fences: u64,
    forks: u64,
    warmup_saved: u64,
    trace_events: u64,
    client_requests: u64,
    client_cohorts: u64,
}

/// The result of one traced pass.
pub struct TracedPass {
    /// Host time from the first cell's start to the last cell's end.
    pub wall_s: f64,
    /// Per cell, in declaration order: the fingerprint, or the error.
    pub fingerprints: Vec<Result<u64, String>>,
    /// Every per-layer metric, by name.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// The memory configuration a run uses (`runner::effective_mem_config`):
/// power-failure faults switch the durability ledger on, seeded by the
/// fault plan.
fn effective_mem_config(cfg: &AppRunConfig) -> MemConfig {
    let mut mem_cfg = cfg.mem.clone();
    if cfg
        .gc
        .fault
        .gc
        .events
        .iter()
        .any(|e| matches!(e, GcFault::PowerFailure { .. }))
    {
        mem_cfg.persist.enabled = true;
        mem_cfg.persist.seed = cfg.gc.fault.seed;
    }
    mem_cfg
}

type Warm = (Heap, MemorySystem, Mutator, MutatorStep);

struct TracedRun {
    tr: Tracer,
    c: Counts,
}

impl TracedRun {
    /// Runs `f` as a span of `layer` and attributes the memory-model and
    /// durability-ledger deltas it causes to that layer.
    fn timed<T>(
        &mut self,
        layer: Layer,
        mem: &mut MemorySystem,
        f: impl FnOnce(&mut MemorySystem) -> T,
    ) -> T {
        let (m0, p0) = (mem.stats(), PersistDelta::now(mem));
        self.tr.begin(layer);
        let out = f(mem);
        self.tr.end();
        let d = MemDelta::between(&m0, &mem.stats());
        match layer {
            Layer::Mutator => self.c.mem_mutator.add(&d),
            Layer::Collector => self.c.mem_collector.add(&d),
            _ => {}
        }
        self.c.mem_total.add(&d);
        self.c.persist.add_between(&p0, &PersistDelta::now(mem));
        out
    }

    /// Cold warmup, exactly as `SimSnapshot::capture` runs it.
    fn cold_warmup(&mut self, cfg: &AppRunConfig) -> Result<Warm, String> {
        let threads = cfg.gc.threads.max(1);
        self.tr.begin(Layer::Setup);
        let mut heap = Heap::new(cfg.heap.clone(), cfg.spec.build_classes());
        let mut mem = MemorySystem::new(effective_mem_config(cfg));
        mem.set_threads(threads + 1);
        mem.trace_mut().set_enabled(cfg.trace);
        mem.set_fault_plan(&cfg.gc.fault.mem);
        mem.sampler_mut().set_enabled(cfg.sample_series);
        let mut mutator = Mutator::new(cfg.spec.clone(), cfg.seed, threads, cfg.young_bytes());
        let setup = mutator.setup(&mut heap, &mut mem);
        self.tr.end();
        let (m_setup, p_setup) = (mem.stats(), PersistDelta::now(&mem));
        self.c
            .mem_total
            .add(&MemDelta::between(&MemStats::default(), &m_setup));
        self.c
            .persist
            .add_between(&PersistDelta::default(), &p_setup);
        setup.map_err(|e| format!("setup: {e}"))?;
        let phase_start = mutator.clock;
        let first = self.mutator_run(&mut heap, &mut mem, &mut mutator)?;
        let gc_start = mutator.clock;
        mem.sampler_mut()
            .mark_phase(phase_start, gc_start, PhaseKind::Mutator);
        mem.trace_mut().span(
            "mutator",
            TraceCat::Mutator,
            threads as u32,
            phase_start,
            gc_start,
            0,
        );
        Ok((heap, mem, mutator, first))
    }

    fn mutator_run(
        &mut self,
        heap: &mut Heap,
        mem: &mut MemorySystem,
        mutator: &mut Mutator,
    ) -> Result<MutatorStep, String> {
        let allocs0 = mutator.allocated_objects();
        let step = self.timed(Layer::Mutator, mem, |mem| mutator.run(heap, mem));
        self.c.mutator_calls += 1;
        self.c.mutator_allocs += mutator.allocated_objects() - allocs0;
        step.map_err(|e| format!("mutator: {e}"))
    }

    fn verify(
        &mut self,
        heap: &Heap,
        roots: &[nvmgc_heap::Addr],
        final_call: bool,
    ) -> Result<nvmgc_heap::verify::GraphDigest, String> {
        self.tr.begin(Layer::Verifier);
        let d = verify_heap(heap, roots);
        self.tr.end();
        if final_call {
            self.c.verifier_final_calls += 1;
        } else {
            self.c.verifier_calls += 1;
        }
        let d = d.map_err(|e| format!("verify: {e:?}"))?;
        self.c.verifier_objects += d.objects;
        Ok(d)
    }

    /// Completes a run from its warm state, as `runner::finish_run` does,
    /// and returns the cell's fingerprint.
    fn finish(&mut self, cell: &Cell, warm: Warm) -> Result<u64, String> {
        let cfg = &cell.cfg;
        assert!(!cfg.keep_gc_log, "benchmark cells keep no GC log");
        let (mut heap, mut mem, mut mutator, first_step) = warm;
        let verify_runs = !cfg.gc.fault.is_empty();
        let threads = cfg.gc.threads.max(1);
        let mut gc = G1Collector::new(cfg.gc.clone());
        let mut cycles: Vec<GcStats> = Vec::new();
        let mut pause_spans: Vec<PauseSpan> = Vec::new();
        let mut phase_start = mutator.clock;
        const FUTILE_GC_LIMIT: usize = 8;
        let mut futile_cycles = 0usize;
        let mut bytes_at_last_gc = u64::MAX;
        let mut pending_step = Some(first_step);
        loop {
            let step = match pending_step.take() {
                Some(step) => step,
                None => {
                    let step = self.mutator_run(&mut heap, &mut mem, &mut mutator)?;
                    let gc_start = mutator.clock;
                    mem.sampler_mut()
                        .mark_phase(phase_start, gc_start, PhaseKind::Mutator);
                    mem.trace_mut().span(
                        "mutator",
                        TraceCat::Mutator,
                        threads as u32,
                        phase_start,
                        gc_start,
                        cycles.len() as u64,
                    );
                    step
                }
            };
            let gc_start = mutator.clock;
            if matches!(step, MutatorStep::Done) {
                break;
            }
            if mutator.allocated_bytes() == bytes_at_last_gc {
                futile_cycles += 1;
                if futile_cycles >= FUTILE_GC_LIMIT {
                    return Err("heap exhausted".to_owned());
                }
            } else {
                futile_cycles = 0;
                bytes_at_last_gc = mutator.allocated_bytes();
            }
            let old_frac =
                (heap.old().len() + heap.humongous().len()) as f64 / cfg.heap.heap_regions as f64;
            let mixed = matches!(cfg.trigger, GcTrigger::Adaptive { ihop } if old_frac > ihop);
            let before = if verify_runs {
                Some(self.verify(&heap, &mutator.roots, false)?)
            } else {
                None
            };
            let roots = &mut mutator.roots;
            let mut attempt = self.timed(Layer::Collector, &mut mem, |mem| {
                if mixed {
                    gc.collect_mixed(&mut heap, mem, roots, gc_start)
                } else {
                    gc.collect(&mut heap, mem, roots, gc_start)
                }
            });
            let outcome = loop {
                match attempt {
                    Err(GcError::PowerCrash(crash)) => {
                        let roots = &mut mutator.roots;
                        attempt = self.timed(Layer::Recovery, &mut mem, |mem| {
                            gc.recover_from_crash(&mut heap, mem, roots, *crash)
                        });
                        self.c.recovery_calls += 1;
                    }
                    other => break other,
                }
            }
            .map_err(|e| format!("collection: {e}"))?;
            if let Some(before) = before {
                let after = self.verify(&heap, &mutator.roots, false)?;
                if after != before {
                    return Err("graph digest changed across the collection".to_owned());
                }
            }
            pause_spans.push(PauseSpan {
                start_ns: gc_start,
                end_ns: outcome.end_ns,
                mixed,
                recovered: outcome.stats.recovered_cycles > 0,
            });
            cycles.push(outcome.stats);
            mutator.on_gc_complete(outcome.end_ns);
            phase_start = outcome.end_ns;
        }
        let total_ns = mutator.clock;
        if gc.run_stats.total_pause_ns() > total_ns {
            return Err("pause time exceeds total time".to_owned());
        }
        let digest = self.verify(&heap, &mutator.roots, true)?;
        let mem_stats = mem.stats();
        self.tr.begin(Layer::Trace);
        let trace = mem.trace_mut().take_sorted();
        self.tr.end();
        self.c.trace_events += trace.len() as u64;
        if let CellKind::Scenario(sc) = &cell.kind {
            let spec = sc.scenario_spec();
            self.tr.begin(Layer::Client);
            let res = run_scenario(&spec, &pause_spans, &trace, total_ns);
            self.tr.end();
            self.c.client_requests += res.requests;
            self.c.client_cohorts += res.batches;
        }
        for s in &cycles {
            self.c.cycles += 1;
            self.c.copied_objects += s.copied_objects;
            self.c.slots += s.slots_processed;
            self.c.engine_steps += s.engine_steps;
            self.c.steals += s.steals;
            self.c.oracle_checks += s.fault_events.power_failure_checks;
            self.c.resumed += s.resumed_evacuations;
            self.c.replayed += s.replayed_map_entries;
            self.c.alloc_fences += s.alloc_fences;
            if cfg.gc.header_map_active() {
                self.c.hm_hits += s.hm_hits;
                self.c.hm_ops += s.hm_hits + s.hm_installs + s.hm_full;
            }
            if cfg.gc.write_cache.enabled {
                self.c.wc_overflow += s.cache_overflow_copies;
                self.c.wc_copied += s.copied_objects;
            }
        }
        Ok(fingerprint(
            total_ns,
            &digest,
            &pause_spans,
            &mem_stats,
            &cycles,
        ))
    }
}

/// Runs `cells` traced. Forked workloads group cells by warm key, as
/// `run_forked_cells` does: one `SimSnapshot::capture` per group of two
/// or more, one `restore` per member; singletons and cold workloads run
/// their own warmup (the `setup` layer).
pub fn run_traced(cells: &[Cell], forked: bool) -> TracedPass {
    let mut d = TracedRun {
        tr: Tracer::new(),
        c: Counts::default(),
    };
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: HashMap<String, usize> = HashMap::new();
    for (i, cell) in cells.iter().enumerate() {
        let key = if forked {
            SimSnapshot::warm_key_for(&cell.cfg)
        } else {
            format!("cold-{i}")
        };
        let g = *group_of.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }
    let mut fingerprints: Vec<Result<u64, String>> = vec![Err("not run".to_owned()); cells.len()];
    let start = Instant::now();
    d.tr.begin(Layer::Other);
    for members in groups {
        let snap = if members.len() > 1 {
            d.tr.begin(Layer::SnapshotCapture);
            let snap = SimSnapshot::capture(&cells[members[0]].cfg);
            d.tr.end();
            snap.ok()
        } else {
            None
        };
        if let Some(s) = &snap {
            d.c.warmup_saved += (members.len() as u64 - 1) * s.warmup_allocated_objects();
        }
        let forks_before = d.c.forks;
        for &i in &members {
            d.tr.begin(Layer::Other);
            let warm = match &snap {
                Some(s) => {
                    d.tr.begin(Layer::SnapshotRestore);
                    let w = s.restore();
                    d.tr.end();
                    if d.c.forks == forks_before {
                        // The shared warmup's memory traffic, counted once.
                        d.c.mem_total
                            .add(&MemDelta::between(&MemStats::default(), &w.1.stats()));
                        d.c.persist
                            .add_between(&PersistDelta::default(), &PersistDelta::now(&w.1));
                    }
                    d.c.forks += 1;
                    Ok(w)
                }
                None => d.cold_warmup(&cells[i].cfg),
            };
            fingerprints[i] = warm.and_then(|w| d.finish(&cells[i], w));
            d.tr.end();
        }
    }
    d.tr.end();
    let wall_s = start.elapsed().as_secs_f64();
    let metrics = layer_metrics(&d, wall_s);
    TracedPass {
        wall_s,
        fingerprints,
        metrics,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn layer_metrics(d: &TracedRun, wall_s: f64) -> Vec<(&'static str, f64, &'static str)> {
    let own = d.tr.layer_self_times();
    let t = |l: Layer| own[l as usize];
    let c = &d.c;
    let n = |v: u64| v as f64;
    let mut m = vec![
        ("setup.host_s", t(Layer::Setup), "s"),
        ("mutator.host_s", t(Layer::Mutator), "s"),
        ("mutator.calls", n(c.mutator_calls), "count"),
        ("mutator.allocs", n(c.mutator_allocs), "count"),
        ("mutator.memops", n(c.mem_mutator.ops), "count"),
        (
            "mutator.host_ns_per_memop",
            ratio(t(Layer::Mutator) * 1e9, n(c.mem_mutator.ops)),
            "ns",
        ),
        ("collector.host_s", t(Layer::Collector), "s"),
        ("collector.cycles", n(c.cycles), "count"),
        ("collector.copied_objects", n(c.copied_objects), "count"),
        ("collector.slots_processed", n(c.slots), "count"),
        ("collector.memops", n(c.mem_collector.ops), "count"),
        (
            "collector.host_ns_per_slot",
            ratio(t(Layer::Collector) * 1e9, n(c.slots)),
            "ns",
        ),
        ("engine.steps", n(c.engine_steps), "count"),
        ("engine.steals", n(c.steals), "count"),
        (
            "engine.host_ns_per_step",
            ratio(t(Layer::Collector) * 1e9, n(c.engine_steps)),
            "ns",
        ),
        (
            "header_map.hit_ratio",
            ratio(n(c.hm_hits), n(c.hm_ops)),
            "ratio",
        ),
        (
            "write_cache.overflow_ratio",
            ratio(n(c.wc_overflow), n(c.wc_copied)),
            "ratio",
        ),
        ("recovery.host_s", t(Layer::Recovery), "s"),
        ("recovery.calls", n(c.recovery_calls), "count"),
        ("recovery.resumed_evacuations", n(c.resumed), "count"),
        ("recovery.replayed_map_entries", n(c.replayed), "count"),
        ("oracle.checks", n(c.oracle_checks), "count"),
        ("verifier.host_s", t(Layer::Verifier), "s"),
        ("verifier.calls", n(c.verifier_calls), "count"),
        ("verifier.final_calls", n(c.verifier_final_calls), "count"),
        ("verifier.objects", n(c.verifier_objects), "count"),
        (
            "verifier.host_ns_per_object",
            ratio(t(Layer::Verifier) * 1e9, n(c.verifier_objects)),
            "ns",
        ),
    ];
    let mt = &c.mem_total;
    m.extend([
        ("memsim.bus_grants", n(mt.bus_grants), "count"),
        ("memsim.llc_hits", n(mt.llc_hits), "count"),
        ("memsim.llc_misses", n(mt.llc_misses), "count"),
        (
            "memsim.llc_hit_ratio",
            ratio(n(mt.llc_hits), n(mt.llc_hits + mt.llc_misses)),
            "ratio",
        ),
        ("memsim.llc_installs", n(mt.llc_installs), "count"),
        (
            "memsim.prefetch_useful_ratio",
            ratio(n(mt.prefetch_useful), n(mt.prefetch_issued)),
            "ratio",
        ),
        ("memsim.bulk_grant_splits", n(mt.bulk_grant_splits), "count"),
        ("memsim.nvm_read_bytes", n(mt.nvm_read_bytes), "B"),
        ("memsim.nvm_write_bytes", n(mt.nvm_write_bytes), "B"),
        ("memsim.dram_bytes", n(mt.dram_bytes), "B"),
    ]);
    for (prefix, md) in [("mutator", &c.mem_mutator), ("collector", &c.mem_collector)] {
        let name = |stat: &str| -> &'static str {
            Box::leak(format!("memsim.{prefix}.{stat}").into_boxed_str())
        };
        m.extend([
            (name("bus_grants"), n(md.bus_grants), "count"),
            (
                name("llc_hit_ratio"),
                ratio(n(md.llc_hits), n(md.llc_hits + md.llc_misses)),
                "ratio",
            ),
            (name("llc_installs"), n(md.llc_installs), "count"),
            (name("nvm_read_bytes"), n(md.nvm_read_bytes), "B"),
            (name("nvm_write_bytes"), n(md.nvm_write_bytes), "B"),
            (name("dram_bytes"), n(md.dram_bytes), "B"),
        ]);
    }
    m.extend([
        ("persist.stores", n(c.persist.stores), "count"),
        ("persist.nt_stores", n(c.persist.nt_stores), "count"),
        ("persist.drained_lines", n(c.persist.drained_lines), "count"),
        ("persist.alloc_fences", n(c.alloc_fences), "count"),
        ("snapshot.capture_s", t(Layer::SnapshotCapture), "s"),
        ("snapshot.restore_s", t(Layer::SnapshotRestore), "s"),
        ("snapshot.forks", n(c.forks), "count"),
        ("snapshot.warmup_allocs_saved", n(c.warmup_saved), "count"),
        ("trace.host_s", t(Layer::Trace), "s"),
        ("trace.events", n(c.trace_events), "count"),
        ("client.host_s", t(Layer::Client), "s"),
        ("client.requests", n(c.client_requests), "count"),
        ("client.cohorts", n(c.client_cohorts), "count"),
        (
            "client.requests_per_cohort",
            ratio(n(c.client_requests), n(c.client_cohorts)),
            "ratio",
        ),
        ("other.host_s", t(Layer::Other), "s"),
        ("traced.wall_s", wall_s, "s"),
    ]);
    m
}
