//! The three workloads. A run repeats whole *rounds* of one workload;
//! every round does identical work for a given seed, so a run's
//! simulated statistics come from its first round and its host times
//! from all of them. Each round times its set-up (worlds, traces,
//! hierarchies, devices) apart from its timed phase (the calls into the
//! program), both on the process CPU clock.

use crate::checks::{self, DurableState};
use crate::clock::cpu_timed;
use crate::probe::{mix64, Dev, Probe, Probed, System, TimedWorld};
use crate::spans::span;
use compresso_cache_sim::{Backend, Core, CoreParams, Hierarchy, TraceOp};
use compresso_compression::Line;
use compresso_core::{
    parse_journal, Codec, CompressoConfig, CompressoDevice, DeviceStats, LcpDevice,
};
use compresso_workloads::{benchmark, BenchmarkProfile, DataWorld, Evolution, TraceGenerator};
use std::rc::Rc;
use std::time::Instant;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FillGrid,
    WritebackChurn,
    CrashRecovery,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fill-grid" => Some(Workload::FillGrid),
            "writeback-churn" => Some(Workload::WritebackChurn),
            "crash-recovery" => Some(Workload::CrashRecovery),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FillGrid => "fill-grid",
            Workload::WritebackChurn => "writeback-churn",
            Workload::CrashRecovery => "crash-recovery",
        }
    }
}

/// How much work one round does.
#[derive(Debug, Clone)]
pub struct Scale {
    /// fill-grid: benchmarks, and core memory ops per trace.
    pub grid_benches: &'static [&'static str],
    pub grid_ops: usize,
    /// writeback-churn and crash-recovery: benchmarks, aged pages,
    /// epochs, fill-sweep pages.
    pub churn_benches: &'static [&'static str],
    pub churn_pages: usize,
    pub churn_epochs: usize,
    pub churn_sweep: u64,
    /// Fetched lines kept for the round-trip check and kernel probes.
    pub sample_cap: usize,
}

impl Scale {
    /// The scale the benchmark runs at.
    pub fn full() -> Self {
        Self {
            grid_benches: &["perlbench", "gcc", "soplex", "lbm", "povray", "mcf"],
            grid_ops: 5000,
            churn_benches: &["gcc", "soplex", "mcf"],
            churn_pages: 96,
            churn_epochs: 4,
            churn_sweep: 1800,
            sample_cap: 4096,
        }
    }

    /// A fraction of a second per round, for the benchmark's own tests.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            grid_benches: &["gcc", "mcf"],
            grid_ops: 600,
            churn_benches: &["gcc"],
            churn_pages: 24,
            churn_epochs: 3,
            churn_sweep: 1700,
            sample_cap: 256,
        }
    }
}

/// Simulated statistics and work counts of one round (identical in
/// every round of a run).
#[derive(Debug, Clone, Default)]
pub struct Sim {
    /// Per benchmark: uncompressed cycles over Compresso cycles.
    pub speedups: Vec<f64>,
    /// Per benchmark: Compresso's compression ratio.
    pub ratios: Vec<f64>,
    /// Compresso counters summed over the round's benchmarks.
    pub compresso: DeviceStats,
    /// LCP and LCP+Align counters summed over the round.
    pub lcp: DeviceStats,
    /// Size-kernel calls and memo hits over every device.
    pub size_calls: u64,
    pub size_memo_hits: u64,
    pub dram_reads: u64,
    pub dram_writes: u64,
    pub dram_row_hits: u64,
    pub l3_misses: u64,
    pub l3_writebacks: u64,
    pub line_data_calls: u64,
    pub journal_records: u64,
    pub journal_bytes: u64,
}

/// What one round did and measured.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    /// CPU seconds of the timed phase, and its wall-clock seconds
    /// (reported on standard error only).
    pub measured_s: f64,
    pub measured_wall_s: f64,
    pub mem_ops: u64,
    /// Operations: cells run and recoveries made.
    pub attempted: u64,
    /// LCP/LCP+Align cells whose DRAM-access accounting does not
    /// conserve (a known program fault, counted, not fatal).
    pub failed: u64,
    /// Failed output checks (make the run incorrect).
    pub errors: Vec<String>,
    /// Why each failed operation failed (first round only).
    pub failures: Vec<String>,
    pub sim: Sim,
    /// CPU seconds of each `CompressoDevice::recover` / `recover_lcp`.
    pub recover_s: Vec<f64>,
    pub lcp_recover_s: Vec<f64>,
    /// Inputs for the standalone layer probes (first round only).
    pub sample: Vec<Line>,
    pub journal: Option<Vec<u8>>,
}

/// The benchmark's profile with its seed derived from the run seed, so
/// a seed changes every line and trace choice but not the benchmark's
/// shape.
pub fn seeded_profile(name: &str, seed: u64) -> BenchmarkProfile {
    let mut p = benchmark(name).expect("paper benchmark");
    p.seed = mix64(p.seed ^ mix64(seed));
    p
}

/// Runs one round of `workload`. `first` adds the checks that need the
/// full device state (they are the same for every round).
pub fn run_round(workload: Workload, seed: u64, scale: &Scale, first: bool) -> Round {
    let mut round = Round::default();
    let probe = Probe::new(seed, if first { scale.sample_cap } else { 0 });
    match workload {
        Workload::FillGrid => fill_grid(&mut round, &probe, seed, scale, first),
        Workload::WritebackChurn => {
            churn(&mut round, &probe, seed, scale, first, false);
            coverage_gate(&mut round, workload);
        }
        Workload::CrashRecovery => {
            churn(&mut round, &probe, seed, scale, first, true);
            coverage_gate(&mut round, workload);
        }
    }
    round.sim.line_data_calls = probe.calls.get();
    if first {
        round.sample = probe.sample.take();
        if let Err(e) = checks::round_trip(&round.sample, &Codec::bpc()) {
            round.errors.push(e);
        }
    }
    round
}

fn coverage_gate(round: &mut Round, workload: Workload) {
    if let Err(e) = checks::coverage(workload.name(), &round.sim.compresso, &round.sim.lcp) {
        round.errors.push(e);
    }
}

/// Simulated cycles of one benchmark's uncompressed and Compresso cells.
#[derive(Default)]
struct Cycles {
    uncompressed: u64,
    compresso: u64,
}

impl Cycles {
    fn note(&mut self, system: System, cycles: u64) {
        match system {
            System::Uncompressed => self.uncompressed = cycles,
            System::Compresso => self.compresso = cycles,
            System::Lcp | System::LcpAlign => {}
        }
    }

    fn speedup(&self) -> f64 {
        self.uncompressed as f64 / self.compresso as f64
    }
}

/// Runs `f` as part of the round's timed phase; returns its CPU seconds.
fn timed<T>(round: &mut Round, f: impl FnOnce() -> T) -> (f64, T) {
    let wall = Instant::now();
    let (t, out) = cpu_timed(f);
    round.measured_s += t;
    round.measured_wall_s += wall.elapsed().as_secs_f64();
    (t, out)
}

/// Builds a cell's device, its probe and its copy of the world.
fn build_cell(system: System, world: &DataWorld, probe: &Rc<Probe>, journaled: bool) -> Probed {
    let (device_world, mirror) = {
        let _s = span("workloads.world_build");
        (world.clone(), world.clone())
    };
    let dev = Dev::build(
        system,
        TimedWorld::new(device_world, probe, system),
        journaled,
    );
    Probed::new(system, dev, mirror)
}

/// Checks and statistics common to every cell; returns its counters.
fn finish_cell(round: &mut Round, cell: &str, probed: &Probed, first: bool) -> DeviceStats {
    let d = probed.dev.as_device();
    let stats = d.device_stats();
    let dram = d.dram_stats();
    round.attempted += 1;
    if let Err(e) = checks::conservation(cell, &stats, &dram) {
        if probed.system.is_lcp() {
            round.failed += 1;
            if first {
                round.failures.push(e);
            }
        } else {
            round.errors.push(e);
        }
    }
    if first {
        if let Some(dev) = probed.dev.compresso() {
            if let Err(e) =
                checks::compresso_state(cell, dev, &probed.mirror, &probed.touched_pages())
            {
                round.errors.push(e);
            }
        }
    }
    let sim = &mut round.sim;
    sim.size_calls += stats.size_calls;
    sim.size_memo_hits += stats.size_memo_hits;
    sim.dram_reads += dram.reads;
    sim.dram_writes += dram.writes;
    sim.dram_row_hits += dram.row_hits;
    match probed.system {
        System::Compresso => {
            add_stats(&mut sim.compresso, &stats);
            sim.ratios.push(d.compression_ratio());
        }
        System::Lcp | System::LcpAlign => add_stats(&mut sim.lcp, &stats),
        System::Uncompressed => {}
    }
    stats
}

fn add_stats(acc: &mut DeviceStats, s: &DeviceStats) {
    acc.demand_fills += s.demand_fills;
    acc.demand_writebacks += s.demand_writebacks;
    acc.data_accesses += s.data_accesses;
    acc.split_access_extra += s.split_access_extra;
    acc.overflow_extra += s.overflow_extra;
    acc.repack_extra += s.repack_extra;
    acc.metadata_accesses += s.metadata_accesses;
    acc.mcache_hits += s.mcache_hits;
    acc.mcache_misses += s.mcache_misses;
    acc.line_overflows += s.line_overflows;
    acc.page_overflows += s.page_overflows;
    acc.ir_expansions += s.ir_expansions;
    acc.repacks += s.repacks;
}

/// fill-grid: every benchmark's trace through `Core`, the paper's
/// hierarchy and each of the four systems.
fn fill_grid(round: &mut Round, probe: &Rc<Probe>, seed: u64, scale: &Scale, first: bool) {
    for name in scale.grid_benches {
        let (t, (world, trace)) = cpu_timed(|| {
            let profile = seeded_profile(name, seed);
            let world = {
                let _s = span("workloads.world_build");
                DataWorld::new(&profile)
            };
            let trace = {
                let _s = span("workloads.trace_gen");
                TraceGenerator::new(&profile).generate(&world, scale.grid_ops)
            };
            (world, trace)
        });
        round.setup_s += t;
        let mem_ops = trace
            .iter()
            .filter(|op| !matches!(op, TraceOp::Compute(_)))
            .count() as u64;
        let mut cycles = Cycles::default();
        for system in System::ALL {
            let (t, (mut probed, mut core, mut hierarchy)) = cpu_timed(|| {
                let probed = build_cell(system, &world, probe, false);
                (
                    probed,
                    Core::new(CoreParams::paper_default()),
                    Hierarchy::single_core(),
                )
            });
            round.setup_s += t;
            let (_, c) = timed(round, || {
                let _s = span("cache-sim.run");
                core.run(trace.iter().copied(), &mut hierarchy, &mut probed)
            });
            cycles.note(system, c);
            round.mem_ops += mem_ops;

            let cell = format!("fill-grid/{name}/{}", system.label());
            let stats = finish_cell(round, &cell, &probed, first);
            let l3_misses = core.stats().memory_accesses;
            if let Err(e) = checks::demand_fills(&cell, stats.demand_fills, l3_misses, probed.fills)
            {
                round.errors.push(e);
            }
            round.sim.l3_misses += l3_misses;
            round.sim.l3_writebacks += hierarchy.l3_stats().writebacks;
        }
        round.sim.speedups.push(cycles.speedup());
    }
}

/// The churn schedule of one benchmark: `epochs` passes that write back
/// every line of the aged pages, each followed by a fill sweep over the
/// first `sweep` pages, one seeded line per page, wide enough to stream
/// the metadata cache. `true` marks a writeback.
///
/// The aged pages are a seeded pick among the pages whose data evolves
/// with writes, stratified: half of them improve (their lines compress
/// better once rewritten, which drives underflows and repacking) and
/// half degrade (which drives line and page overflows), so a seed
/// changes which pages age but not the mix of behaviours.
pub fn churn_schedule(
    world: &DataWorld,
    seed: u64,
    pages: usize,
    epochs: usize,
    sweep: u64,
) -> Vec<(bool, u64)> {
    let footprint = world.page_count() as u64;
    let pick = |evolution: Evolution, n: usize| {
        let mut group: Vec<u64> = (0..footprint)
            .filter(|&p| world.evolution_of(p * 4096) == evolution)
            .collect();
        group.sort_by_key(|&p| mix64(p ^ seed));
        group.truncate(n);
        group
    };
    let mut aged = pick(Evolution::Improving, pages / 2);
    aged.extend(pick(Evolution::Degrading, pages - aged.len()));
    aged.sort_unstable();
    let mut ops = Vec::with_capacity(epochs * (aged.len() * 64 + sweep as usize));
    for epoch in 0..epochs as u64 {
        for &page in &aged {
            for line in 0..64 {
                ops.push((true, page * 4096 + line * 64));
            }
        }
        for page in 0..sweep.min(footprint) {
            let line = mix64(seed ^ (epoch << 40) ^ page) % 64;
            ops.push((false, page * 4096 + line * 64));
        }
    }
    ops
}

/// writeback-churn, and with `journaled` crash-recovery: the churn
/// schedule straight into the devices; for crash-recovery the devices
/// journal, and each journal is then recovered from cold boot.
fn churn(
    round: &mut Round,
    probe: &Rc<Probe>,
    seed: u64,
    scale: &Scale,
    first: bool,
    journaled: bool,
) {
    let (workload, systems): (_, &[System]) = if journaled {
        (
            Workload::CrashRecovery,
            &[System::Uncompressed, System::Lcp, System::Compresso],
        )
    } else {
        (Workload::WritebackChurn, &System::ALL)
    };
    for name in scale.churn_benches {
        let (t, (world, schedule)) = cpu_timed(|| {
            let profile = seeded_profile(name, seed);
            let world = {
                let _s = span("workloads.world_build");
                DataWorld::new(&profile)
            };
            let schedule = {
                let _s = span("workloads.trace_gen");
                churn_schedule(
                    &world,
                    seed,
                    scale.churn_pages,
                    scale.churn_epochs,
                    scale.churn_sweep,
                )
            };
            (world, schedule)
        });
        round.setup_s += t;
        let mut cycles = Cycles::default();
        for &system in systems {
            let (t, mut probed) = cpu_timed(|| build_cell(system, &world, probe, journaled));
            round.setup_s += t;
            let (_, now) = timed(round, || {
                let mut now = 0u64;
                for &(write, addr) in &schedule {
                    now = if write {
                        probed.writeback(now, addr)
                    } else {
                        probed.fill(now, addr)
                    }
                    .max(now);
                }
                now
            });
            round.mem_ops += schedule.len() as u64;
            cycles.note(system, now);

            let cell = format!("{}/{name}/{}", workload.name(), system.label());
            finish_cell(round, &cell, &probed, first);
            if journaled {
                recover(round, &cell, &probed, first);
            }
        }
        round.sim.speedups.push(cycles.speedup());
    }
}

/// Cold-boot recovery of a journaled cell from its whole journal (a
/// crash right after the last commit), timed on the CPU clock and
/// checked against the state before the crash.
fn recover(round: &mut Round, cell: &str, probed: &Probed, first: bool) {
    let Some(bytes) = probed.dev.journal_bytes() else {
        return;
    };
    if first {
        round.sim.journal_records += parse_journal(bytes).0.len() as u64;
        round.sim.journal_bytes += bytes.len() as u64;
    }
    let (t, world) = cpu_timed(|| Box::new(probed.mirror.clone()));
    round.setup_s += t;
    round.attempted += 1;
    let check = match &probed.dev {
        Dev::Compresso(before) => {
            let (t, (dev, report)) = timed(round, || {
                let _s = span("recovery.recover");
                CompressoDevice::recover(CompressoConfig::durable(), world, bytes)
            });
            round.recover_s.push(t);
            let (before, after) = (
                DurableState::of_compresso(before),
                DurableState::of_compresso(&dev),
            );
            checks::recovery(cell, &report, &before, &after)
        }
        before => {
            let (t, (dev, report)) = timed(round, || {
                let _s = span("recovery.lcp_recover");
                LcpDevice::recover_lcp(world, bytes)
            });
            round.lcp_recover_s.push(t);
            let (before, after) = (
                DurableState::of_device(before.as_device()),
                DurableState::of_device(&dev),
            );
            checks::recovery(cell, &report, &before, &after)
        }
    };
    if let Err(e) = check {
        round.errors.push(e);
    }
    if first && probed.system == System::Compresso && round.journal.is_none() {
        round.journal = Some(bytes.to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_round(workload: Workload) -> Round {
        let round = run_round(workload, 7, &Scale::tiny(), true);
        assert!(round.errors.is_empty(), "{:?}", round.errors);
        assert!(round.mem_ops > 0 && round.measured_s > 0.0);
        round
    }

    #[test]
    fn tiny_fill_grid_round_passes_its_checks() {
        let round = tiny_round(Workload::FillGrid);
        let benches = Scale::tiny().grid_benches.len() as u64;
        assert_eq!(round.attempted, 4 * benches);
        // Only the LCP and LCP+Align cells may break conservation.
        assert!(round.failed <= 2 * benches);
        assert!(round.sim.l3_misses > 0);
        assert!(!round.sample.is_empty());
    }

    #[test]
    fn tiny_writeback_churn_round_passes_its_checks() {
        let round = tiny_round(Workload::WritebackChurn);
        assert!(round.sim.compresso.repacks > 0);
        assert!(round.sim.lcp.page_overflows > 0);
    }

    #[test]
    fn tiny_crash_recovery_round_passes_its_checks() {
        let round = tiny_round(Workload::CrashRecovery);
        let benches = Scale::tiny().churn_benches.len();
        assert_eq!(round.recover_s.len(), benches);
        assert_eq!(round.lcp_recover_s.len(), benches);
        assert!(round.sim.journal_records > 0);
        assert!(round.journal.is_some());
    }

    #[test]
    fn rounds_repeat_the_same_simulation() {
        let scale = Scale::tiny();
        let a = run_round(Workload::WritebackChurn, 3, &scale, false);
        let b = run_round(Workload::WritebackChurn, 3, &scale, false);
        assert_eq!(a.sim.compresso, b.sim.compresso);
        assert_eq!(a.sim.speedups, b.sim.speedups);
        assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
        let c = run_round(Workload::WritebackChurn, 4, &scale, false);
        assert_ne!(a.sim.compresso, c.sim.compresso);
    }
}
