//! Chaos suite: seeded fault schedules replayed against every device
//! configuration. The devices must never panic, must keep their stats
//! self-consistent, and must reproduce identical stats for an identical
//! seed (the whole point of a deterministic [`FaultPlan`]).

use compresso_cache_sim::Backend;
use compresso_core::{
    CompressoConfig, CompressoDevice, DeviceStats, FaultPlan, FaultStats, LcpDevice, MemoryDevice,
    PageAllocation,
};
use compresso_workloads::{benchmark, DataWorld, PAGE_BYTES};
use proptest::prelude::*;

fn world(name: &str) -> DataWorld {
    DataWorld::new(&benchmark(name).expect("paper benchmark"))
}

/// A demand stream with enough writes to trigger overflows, underflows,
/// repacks and re-plans alongside the injected faults.
fn drive_chaos<B: Backend>(device: &mut B, pages: u64, rounds: u64) {
    let mut t = 0;
    for round in 0..rounds {
        for page in 0..pages {
            for line in 0..64u64 {
                let addr = page * PAGE_BYTES + line * 64;
                t = device.fill(t, addr).max(t);
                if (line + round) % 3 == 0 {
                    t = device.writeback(t, addr).max(t);
                }
            }
        }
    }
}

/// The four Compresso configurations the chaos schedule replays against.
fn compresso_configs() -> Vec<(&'static str, CompressoConfig)> {
    let mut variable = CompressoConfig::compresso();
    variable.allocation = PageAllocation::Variable4;
    vec![
        ("compresso", CompressoConfig::compresso()),
        ("compresso-variable4", variable),
        (
            "unoptimized-chunks",
            CompressoConfig::unoptimized(PageAllocation::Chunks512),
        ),
        (
            "unoptimized-variable4",
            CompressoConfig::unoptimized(PageAllocation::Variable4),
        ),
    ]
}

fn run_compresso(cfg: CompressoConfig, seed: u64, bench: &str) -> (DeviceStats, FaultStats) {
    let mut d = CompressoDevice::new(cfg, world(bench));
    d.inject_faults(FaultPlan::aggressive(seed));
    drive_chaos(&mut d, 48, 3);
    (d.device_stats(), *d.fault_stats().expect("plan attached"))
}

fn run_lcp(align: bool, seed: u64, bench: &str) -> (DeviceStats, FaultStats) {
    let mut d = if align {
        LcpDevice::lcp_align(world(bench))
    } else {
        LcpDevice::lcp(world(bench))
    };
    d.inject_faults(FaultPlan::aggressive(seed));
    drive_chaos(&mut d, 48, 3);
    (d.device_stats(), *d.fault_stats().expect("plan attached"))
}

/// Every injected fault the plan drew must be acknowledged by the device,
/// and the degradation counters must stay within what was injected.
fn assert_consistent(label: &str, dev: &DeviceStats, faults: &FaultStats) {
    let drawn = faults.bit_flips
        + faults.decode_failures
        + faults.alloc_refusals
        + faults.eviction_storms
        + faults.rot_flips
        + faults.crashes;
    assert_eq!(
        dev.corruption_undetected, 0,
        "{label}: the entry CRC must catch every injected metadata fault"
    );
    assert_eq!(
        dev.injected_faults, drawn,
        "{label}: device must account for every drawn fault (device {}, plan {drawn})",
        dev.injected_faults
    );
    assert!(
        dev.corruption_fallbacks <= faults.bit_flips + faults.decode_failures + faults.rot_flips,
        "{label}: fallbacks cannot exceed metadata faults"
    );
    assert_eq!(
        dev.eviction_storms, faults.eviction_storms,
        "{label}: storm counters agree"
    );
    assert!(
        dev.alloc_retries + dev.alloc_failures <= faults.alloc_refusals,
        "{label}: retries+failures cannot exceed refusals"
    );
    if dev.corruption_fallbacks > 0 {
        assert!(
            dev.fault_extra > 0 || dev.corruption_fallbacks <= dev.injected_faults,
            "{label}: fallbacks either move data or are metadata-only"
        );
    }
    assert!(
        dev.total_accesses() >= dev.data_accesses + dev.fault_extra,
        "{label}: totals include fault traffic"
    );
}

#[test]
fn compresso_survives_aggressive_faults_in_every_configuration() {
    for (label, cfg) in compresso_configs() {
        let (dev, faults) = run_compresso(cfg, 0xC0FFEE, "soplex");
        assert!(
            faults.distinct_kinds() >= 4,
            "{label}: want >=4 distinct fault kinds, got {} ({faults:?})",
            faults.distinct_kinds()
        );
        assert!(
            dev.corruption_fallbacks > 0,
            "{label}: corruption must surface ({dev:?})"
        );
        assert!(dev.eviction_storms > 0, "{label}: storms must surface");
        assert_consistent(label, &dev, &faults);
    }
}

#[test]
fn lcp_survives_aggressive_faults() {
    for (label, align) in [("lcp", false), ("lcp+align", true)] {
        let (dev, faults) = run_lcp(align, 0xBEEF, "soplex");
        assert!(
            faults.distinct_kinds() >= 4,
            "{label}: want >=4 distinct fault kinds, got {} ({faults:?})",
            faults.distinct_kinds()
        );
        assert!(
            dev.corruption_fallbacks > 0,
            "{label}: corruption must surface"
        );
        assert_consistent(label, &dev, &faults);
    }
}

#[test]
fn same_seed_reproduces_identical_stats() {
    for (label, cfg) in compresso_configs() {
        let a = run_compresso(cfg.clone(), 42, "gcc");
        let b = run_compresso(cfg, 42, "gcc");
        assert_eq!(a, b, "{label}: same seed must reproduce identical stats");
    }
    let a = run_lcp(true, 42, "gcc");
    let b = run_lcp(true, 42, "gcc");
    assert_eq!(a, b, "lcp+align: same seed must reproduce identical stats");
}

#[test]
fn different_seeds_change_the_schedule() {
    let (_, a) = run_compresso(CompressoConfig::compresso(), 1, "gcc");
    let (_, b) = run_compresso(CompressoConfig::compresso(), 2, "gcc");
    assert_ne!(a, b, "distinct seeds should draw distinct schedules");
}

#[test]
fn faulted_device_still_compresses() {
    // Degradation is graceful: fallbacks cost ratio, not correctness.
    let mut d = CompressoDevice::new(CompressoConfig::compresso(), world("zeusmp"));
    d.inject_faults(FaultPlan::aggressive(7));
    drive_chaos(&mut d, 64, 2);
    let ratio = d.compression_ratio();
    assert!(
        ratio > 1.0,
        "zeusmp keeps compressing under faults, got {ratio:.2}"
    );
    assert!(d.device_stats().corruption_fallbacks > 0);
}

#[test]
fn journaled_chaos_crashes_and_recovers() {
    // The full stack at once: aggressive faults, durable-metadata rot,
    // and an armed mid-run crash on a journaled device — then a cold
    // boot from the torn journal and more chaos on the recovered device.
    let mut d = CompressoDevice::new(CompressoConfig::durable(), world("soplex"));
    d.inject_faults(FaultPlan::aggressive(0xD15EA5E).with_crash_at(400));
    drive_chaos(&mut d, 48, 3);
    assert!(d.is_crashed(), "the armed crash must fire mid-schedule");
    let dev = d.device_stats();
    let faults = *d.fault_stats().expect("plan attached");
    assert_eq!(faults.crashes, 1);
    assert_consistent("journaled-chaos", &dev, &faults);

    let (mut recovered, report) = CompressoDevice::recover(
        CompressoConfig::durable(),
        Box::new(world("soplex")),
        d.journal_bytes().expect("journaling on"),
    );
    assert!(
        report.is_clean(),
        "journaled-chaos: recovery violations {:?}",
        report.violations
    );
    assert!(report.torn, "the armed crash tears the final record");
    assert!(report.pages_rebuilt > 0);

    drive_chaos(&mut recovered, 48, 1);
    assert!(!recovered.is_crashed());
    assert!(recovered.compression_ratio() >= 1.0);
    assert_eq!(recovered.device_stats().corruption_undetected, 0);
}

#[test]
fn durable_rot_surfaces_and_lines_are_sized_once_per_write() {
    // Every durable-rot bit flip or metadata fault must surface through
    // the entry CRC, with the line-size table answering every re-scan.
    let mut d = CompressoDevice::new(CompressoConfig::durable(), world("soplex"));
    d.inject_faults(FaultPlan::aggressive(0x5EED_0FD0));
    drive_chaos(&mut d, 48, 3);
    let dev = d.device_stats();
    let faults = *d.fault_stats().expect("plan attached");
    assert!(
        faults.rot_flips > 0,
        "schedule must exercise durable rot ({faults:?})"
    );
    assert!(
        dev.corruption_detected > 0,
        "rot must surface as detected corruption ({dev:?})"
    );
    assert_eq!(
        dev.corruption_undetected, 0,
        "no metadata fault may be silently accepted"
    );
    // Sizing accounting: the kernel runs once per line of each touched
    // page and once per writeback; every other lookup (repack,
    // recompression) is answered by the table.
    let touched_pages = d.touched_ospa_bytes() / PAGE_BYTES;
    assert!(dev.size_memo_hits > 0, "re-scans must read the table");
    assert_eq!(
        dev.size_calls - dev.size_memo_hits,
        64 * touched_pages + dev.demand_writebacks,
        "a line is sized on first touch and on each write only ({dev:?})"
    );
    assert_consistent("durable-rot", &dev, &faults);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any seed, any configuration: no panics, consistent stats.
    #[test]
    fn chaos_schedules_never_panic(seed in 0u64..1_000_000, cfg_idx in 0usize..4, align_bit in 0u8..2) {
        let lcp_align = align_bit == 1;
        let (label, cfg) = compresso_configs().swap_remove(cfg_idx);
        let mut d = CompressoDevice::new(cfg, world("mcf"));
        d.inject_faults(FaultPlan::aggressive(seed));
        drive_chaos(&mut d, 24, 2);
        let dev = d.device_stats();
        let faults = *d.fault_stats().expect("plan attached");
        assert_consistent(label, &dev, &faults);

        let mut l = if lcp_align { LcpDevice::lcp_align(world("mcf")) } else { LcpDevice::lcp(world("mcf")) };
        l.inject_faults(FaultPlan::aggressive(seed));
        drive_chaos(&mut l, 24, 2);
        let dev = l.device_stats();
        let faults = *l.fault_stats().expect("plan attached");
        assert_consistent("lcp", &dev, &faults);
    }
}
