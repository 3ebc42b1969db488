//! Host-time benchmark of the Compresso reproduction.
//!
//! ```text
//! compresso-perfbench --workload <fill-grid|writeback-churn|crash-recovery>
//!                     --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! Repeats whole rounds of the workload until the timed phases have used
//! `--seconds` of process CPU time, checks the program's outputs, and
//! prints one JSON object as its last line: `correct`, `attempted`,
//! `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). See README.md.

mod checks;
mod clock;
mod probe;
mod rounds;
mod spans;

use clock::{cpu_timed, geomean, median, peak_rss_mb};
use compresso_compression::Line;
use compresso_core::{parse_journal, ChunkAllocator, Codec, ShadowModel};
use rounds::{run_round, Round, Scale, Workload};
use std::fmt::Write as _;

/// MPA capacity of every device (`CompressoConfig::compresso()`).
const DEVICE_CAPACITY: u64 = 8 << 30;
/// Repetitions of each standalone layer probe (the median is reported).
const PROBE_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload_name = get("--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(workload_name)
        .ok_or_else(|| format!("unknown workload {workload_name:?}"))?;
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        spans_dir: get("--spans-dir").map(Into::into),
    })
}

/// Rounds of one phase (untraced or traced) and their sums.
#[derive(Default)]
struct Phase {
    rounds: usize,
    setup_s: Vec<f64>,
    measured_s: f64,
    mem_ops: u64,
}

impl Phase {
    fn cpu_per_op(&self) -> f64 {
        self.measured_s / self.mem_ops.max(1) as f64
    }
}

/// Everything a run gathers across its phases.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    first: Option<Round>,
    recover_s: Vec<f64>,
    lcp_recover_s: Vec<f64>,
}

impl Run {
    /// Runs rounds until the phase's timed CPU time reaches `budget`.
    fn phase(&mut self, args: &Args, scale: &Scale, budget: f64) -> Phase {
        let mut phase = Phase::default();
        while phase.rounds == 0 || phase.measured_s < budget {
            let mut round = run_round(args.workload, args.seed, scale, self.first.is_none());
            phase.rounds += 1;
            eprintln!(
                "round {:3}: set-up {:.4} s, timed {:.4} s, {} ops, {:.0}/s CPU, {:.0}/s wall",
                phase.rounds,
                round.setup_s,
                round.measured_s,
                round.mem_ops,
                round.mem_ops as f64 / round.measured_s,
                round.mem_ops as f64 / round.measured_wall_s,
            );
            phase.setup_s.push(round.setup_s);
            phase.measured_s += round.measured_s;
            phase.mem_ops += round.mem_ops;
            self.attempted += round.attempted;
            self.failed += round.failed;
            self.errors.append(&mut round.errors);
            self.recover_s.extend_from_slice(&round.recover_s);
            self.lcp_recover_s.extend_from_slice(&round.lcp_recover_s);
            if self.first.is_none() {
                self.first = Some(round);
            }
        }
        phase
    }
}

/// Metrics in output order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(run: &Run, phase: &Phase) -> Metrics {
    let sim = &run.first.as_ref().expect("a round ran").sim;
    let c = &sim.compresso;
    let gross_extra =
        c.split_access_extra + c.overflow_extra + c.repack_extra + c.metadata_accesses;
    let demand = c.demand_fills + c.demand_writebacks;
    vec![
        (
            "mem_ops_per_s",
            phase.mem_ops as f64 / phase.measured_s,
            "1/s",
        ),
        ("setup_s", median(&phase.setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("compresso_speedup", geomean(&sim.speedups), "ratio"),
        ("compresso_ratio", geomean(&sim.ratios), "ratio"),
        (
            "extra_dram_access_pct",
            100.0 * gross_extra as f64 / demand.max(1) as f64,
            "%",
        ),
    ]
}

/// Median CPU nanoseconds per line of `codec`'s size kernel over `lines`.
fn kernel_ns_per_line(codec: Codec, lines: &[Line]) -> f64 {
    if lines.is_empty() {
        return 0.0;
    }
    let passes: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let (t, _) = cpu_timed(|| {
                for line in lines {
                    std::hint::black_box(codec.compressed_size(std::hint::black_box(line)));
                }
            });
            t * 1e9 / lines.len() as f64
        })
        .collect();
    median(&passes)
}

/// Median CPU milliseconds of `f` over [`PROBE_REPS`] calls; what `f`
/// returns is dropped outside the timing.
fn probe_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let (t, out) = cpu_timed(&mut f);
            drop(out);
            t * 1e3
        })
        .collect();
    median(&times)
}

fn per_layer(run: &Run, untraced: &Phase, traced: &Phase) -> Metrics {
    let first = run.first.as_ref().expect("a round ran");
    let sim = &first.sim;
    let rounds = traced.rounds as f64;
    let total_s = |name: &str| spans::totals(name).total_ns as f64 * 1e-9 / rounds;
    let self_s = |name: &str| spans::totals(name).self_ns as f64 * 1e-9 / rounds;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let c = &sim.compresso;

    // Standalone probes, outside every timed phase.
    let bpc_ns = kernel_ns_per_line(Codec::bpc(), &first.sample);
    let bdi_ns = kernel_ns_per_line(Codec::bdi(), &first.sample);
    let alloc_new_ms = probe_ms(|| ChunkAllocator::new(DEVICE_CAPACITY));
    let (parse_replay_ms, rebuild_ms) = match &first.journal {
        Some(bytes) => {
            let (records, _) = parse_journal(bytes);
            let (shadow, _) = ShadowModel::replay(&records);
            let owned: Vec<u32> = shadow.owners().keys().map(|&a| (a / 512) as u32).collect();
            (
                probe_ms(|| ShadowModel::replay(&parse_journal(bytes).0)),
                probe_ms(|| ChunkAllocator::rebuild(DEVICE_CAPACITY, &owned)),
            )
        }
        None => (0.0, 0.0),
    };
    let overhead = 100.0 * (traced.cpu_per_op() / untraced.cpu_per_op() - 1.0);

    vec![
        (
            "workloads.world_build_s",
            total_s("workloads.world_build"),
            "s",
        ),
        ("workloads.trace_gen_s", total_s("workloads.trace_gen"), "s"),
        (
            "workloads.line_data_calls",
            sim.line_data_calls as f64,
            "count",
        ),
        ("workloads.line_data_s", total_s("workloads.line_data"), "s"),
        ("cache-sim.self_s", self_s("cache-sim.run"), "s"),
        ("cache-sim.l3_misses", sim.l3_misses as f64, "count"),
        ("cache-sim.l3_writebacks", sim.l3_writebacks as f64, "count"),
        ("compression.size_calls", sim.size_calls as f64, "count"),
        (
            "compression.memo_hit_ratio",
            ratio(sim.size_memo_hits, sim.size_calls),
            "ratio",
        ),
        (
            "compression.size_kernel_s",
            total_s("compresso.size_kernel")
                + total_s("lcp.size_kernel")
                + total_s("lcp-align.size_kernel"),
            "s",
        ),
        ("compression.bpc_ns_per_line", bpc_ns, "ns"),
        ("compression.bdi_ns_per_line", bdi_ns, "ns"),
        (
            "compresso.self_s",
            (self_s("compresso.call") - total_s("compresso.size_kernel")).max(0.0),
            "s",
        ),
        (
            "compresso.device_build_s",
            total_s("compresso.device_build"),
            "s",
        ),
        ("compresso.demand_fills", c.demand_fills as f64, "count"),
        (
            "compresso.demand_writebacks",
            c.demand_writebacks as f64,
            "count",
        ),
        ("compresso.line_overflows", c.line_overflows as f64, "count"),
        ("compresso.page_overflows", c.page_overflows as f64, "count"),
        ("compresso.ir_expansions", c.ir_expansions as f64, "count"),
        ("compresso.repacks", c.repacks as f64, "count"),
        (
            "compresso.mcache_hit_ratio",
            ratio(c.mcache_hits, c.mcache_hits + c.mcache_misses),
            "ratio",
        ),
        ("lcp.page_overflows", sim.lcp.page_overflows as f64, "count"),
        (
            "lcp.self_s",
            (self_s("lcp.call") + self_s("lcp-align.call")
                - total_s("lcp.size_kernel")
                - total_s("lcp-align.size_kernel"))
            .max(0.0),
            "s",
        ),
        ("mem-sim.reads", sim.dram_reads as f64, "count"),
        ("mem-sim.writes", sim.dram_writes as f64, "count"),
        (
            "mem-sim.row_hit_ratio",
            ratio(sim.dram_row_hits, sim.dram_reads + sim.dram_writes),
            "ratio",
        ),
        ("journal.records", sim.journal_records as f64, "count"),
        ("journal.bytes", sim.journal_bytes as f64, "B"),
        ("journal.parse_replay_ms", parse_replay_ms, "ms"),
        ("alloc.new_ms", alloc_new_ms, "ms"),
        ("alloc.rebuild_ms", rebuild_ms, "ms"),
        ("recovery.recover_ms", median(&run.recover_s) * 1e3, "ms"),
        (
            "recovery.lcp_recover_ms",
            median(&run.lcp_recover_s) * 1e3,
            "ms",
        ),
        ("trace.overhead_pct", overhead, "%"),
    ]
}

fn result_json(run: &Run, metrics: &Metrics) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.errors.is_empty(),
        run.attempted,
        run.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("compresso-perfbench: {e}");
            std::process::exit(2);
        }
    };
    clock::pin_malloc_thresholds();
    let scale = Scale::full();
    let mut run = Run::default();
    let metrics = if args.trace {
        // Half the budget untraced, half traced: the overhead compares
        // CPU time per operation between the two.
        let untraced = run.phase(&args, &scale, args.seconds / 2.0);
        spans::reset();
        spans::set_enabled(true);
        let traced = run.phase(&args, &scale, args.seconds / 2.0);
        spans::set_enabled(false);
        if let Some(dir) = &args.spans_dir {
            let path = dir.join(format!(
                "spans-{}-{}.jsonl",
                args.workload.name(),
                args.seed
            ));
            if let Err(e) = spans::write_jsonl(&path) {
                eprintln!("compresso-perfbench: writing {}: {e}", path.display());
            }
        }
        per_layer(&run, &untraced, &traced)
    } else {
        let phase = run.phase(&args, &scale, args.seconds);
        end_to_end(&run, &phase)
    };
    if let Some(first) = &run.first {
        for f in &first.failures {
            eprintln!("failed operation (counted, every round): {f}");
        }
    }
    for e in run.errors.iter().take(20) {
        eprintln!("check failed: {e}");
    }
    println!("{}", result_json(&run, &metrics));
}
