//! Output checks, computed apart from the program: each recomputes an
//! expected value from the benchmark's own inputs (the data world it
//! built, the calls it made) or from a second public route, and
//! compares it with what the program reports. Every check returns a
//! message naming the cell and the two sides when they disagree.

use compresso_compression::{decompress_any, is_zero_line, BinSet, CompressedLine, Line, Scratch};
use compresso_core::{
    metadata_codec::PACKED_BYTES, Codec, CompressoDevice, DeviceStats, MemoryDevice, RecoveryReport,
};
use compresso_mem_sim::MemStats;
use compresso_workloads::DataWorld;
use std::collections::BTreeMap;

pub type Check = Result<(), String>;

/// Every DRAM access a device accounts for in [`DeviceStats`] must be
/// one the DRAM model performed: `total_accesses == reads + writes`.
pub fn conservation(cell: &str, stats: &DeviceStats, dram: &MemStats) -> Check {
    let accounted = stats.total_accesses();
    let performed = dram.reads + dram.writes;
    if accounted == performed {
        Ok(())
    } else {
        Err(format!(
            "{cell}: device accounts {accounted} DRAM accesses, DRAM model performed \
             {performed} ({} reads + {} writes)",
            dram.reads, dram.writes
        ))
    }
}

/// Each L3 miss is exactly one demand fill: the core's memory-level
/// accesses, the fills the backend wrapper forwarded and the device's
/// own `demand_fills` must agree.
pub fn demand_fills(cell: &str, device_fills: u64, l3_misses: u64, forwarded: u64) -> Check {
    if device_fills == l3_misses && forwarded == l3_misses {
        Ok(())
    } else {
        Err(format!(
            "{cell}: device demand_fills {device_fills}, core L3 misses {l3_misses}, \
             fills forwarded {forwarded}"
        ))
    }
}

/// Ideal LinePack bytes of one page: the sum of its lines'
/// `BinSet::aligned4()` bins, sized from `world` by the public codec.
pub fn ideal_page_bytes(world: &DataWorld, codec: &Codec, page: u64) -> u64 {
    let bins = BinSet::aligned4();
    (0..64u64)
        .map(|l| {
            let data = world.line_data(page * 4096 + l * 64);
            let size = if is_zero_line(&data) {
                0
            } else {
                codec.compressed_size(&data)
            };
            bins.quantize(size).bytes as u64
        })
        .sum()
}

/// Per touched page: `(page, allocated bytes, ideal LinePack bytes)`.
pub type PageAlloc = (u64, Option<u32>, u64);

/// No page holds its lines in fewer bytes than their bins need, and
/// the device ratio is at most the ideal LinePack ratio.
pub fn linepack_bound(cell: &str, pages: &[PageAlloc], device_ratio: f64) -> Check {
    let mut ideal_total = 0u64;
    for &(page, allocated, ideal) in pages {
        let Some(allocated) = allocated else {
            return Err(format!("{cell}: touched page {page} has no allocation"));
        };
        if (allocated as u64) < ideal {
            return Err(format!(
                "{cell}: page {page} allocates {allocated} B below its lines' bins {ideal} B"
            ));
        }
        ideal_total += ideal + 64;
    }
    let ideal_ratio = pages.len() as f64 * 4096.0 / ideal_total.max(1) as f64;
    if device_ratio > ideal_ratio * (1.0 + 1e-12) {
        return Err(format!(
            "{cell}: device ratio {device_ratio} above ideal LinePack ratio {ideal_ratio}"
        ));
    }
    Ok(())
}

/// The allocator's used bytes equal the per-page allocations summed over
/// the touched pages, which is `mpa_used_bytes` minus one 64 B metadata
/// entry per page.
pub fn alloc_balance(cell: &str, alloc_used: u64, pages: &[PageAlloc], mpa_used: u64) -> Check {
    let allocated: u64 = pages.iter().map(|p| p.1.unwrap_or(0) as u64).sum();
    let entries = pages.len() as u64 * 64;
    if alloc_used == allocated && mpa_used == allocated + entries {
        Ok(())
    } else {
        Err(format!(
            "{cell}: allocator uses {alloc_used} B, pages hold {allocated} B, \
             mpa_used {mpa_used} B for {} pages",
            pages.len()
        ))
    }
}

/// Both Compresso state checks for one cell, from the device's public
/// view and the benchmark's own world copy.
pub fn compresso_state(
    cell: &str,
    dev: &CompressoDevice,
    mirror: &DataWorld,
    touched: &[u64],
) -> Check {
    let codec = Codec::bpc();
    let pages: Vec<PageAlloc> = touched
        .iter()
        .map(|&p| {
            (
                p,
                dev.page_allocated_bytes(p),
                ideal_page_bytes(mirror, &codec, p),
            )
        })
        .collect();
    if dev.touched_ospa_bytes() != touched.len() as u64 * 4096 {
        return Err(format!(
            "{cell}: device reports {} touched bytes, calls touched {} pages",
            dev.touched_ospa_bytes(),
            touched.len()
        ));
    }
    linepack_bound(cell, &pages, dev.compression_ratio())?;
    let alloc_used = dev
        .metrics()
        .snapshot()
        .gauge("alloc.used_bytes")
        .ok_or_else(|| format!("{cell}: no alloc.used_bytes gauge"))?;
    alloc_balance(cell, alloc_used as u64, &pages, dev.mpa_used_bytes())
}

/// Fetched lines round-trip through the full encoder and
/// `decompress_any`, and the encoder's size equals the size kernel's.
pub fn round_trip(lines: &[Line], codec: &Codec) -> Check {
    let mut scratch = Scratch::new();
    round_trip_with(
        lines,
        |l| codec.compress_into(l, &mut scratch).to_owned(),
        |l| codec.compressed_size(l),
    )
}

fn round_trip_with(
    lines: &[Line],
    mut encode: impl FnMut(&Line) -> CompressedLine,
    size: impl Fn(&Line) -> usize,
) -> Check {
    for (i, line) in lines.iter().enumerate() {
        let encoded = encode(line);
        if decompress_any(&encoded) != *line {
            return Err(format!(
                "sample line {i}: decompress(compress(line)) != line"
            ));
        }
        let kernel = size(line);
        if encoded.size_bytes() != kernel {
            return Err(format!(
                "sample line {i}: encoder size {} B, size kernel {kernel} B",
                encoded.size_bytes()
            ));
        }
    }
    Ok(())
}

/// What recovery must reproduce: the committed page entries and block
/// ownership (Compresso only), MPA use and touched bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableState {
    pub pages: BTreeMap<u64, [u8; PACKED_BYTES]>,
    pub owners: BTreeMap<u64, (u64, u32)>,
    pub mpa_used: u64,
    pub touched: u64,
}

impl DurableState {
    pub fn of_compresso(dev: &CompressoDevice) -> Self {
        Self {
            pages: dev.pages_snapshot(),
            owners: dev.owners_snapshot(),
            mpa_used: dev.mpa_used_bytes(),
            touched: dev.touched_ospa_bytes(),
        }
    }

    pub fn of_device(dev: &dyn MemoryDevice) -> Self {
        Self {
            pages: BTreeMap::new(),
            owners: BTreeMap::new(),
            mpa_used: dev.mpa_used_bytes(),
            touched: dev.touched_ospa_bytes(),
        }
    }
}

/// A recovery is clean and rebuilds exactly the state before the crash.
pub fn recovery(
    cell: &str,
    report: &RecoveryReport,
    before: &DurableState,
    after: &DurableState,
) -> Check {
    if !report.is_clean() {
        return Err(format!(
            "{cell}: recovery reported {} violations, first: {}",
            report.violations.len(),
            report.violations[0]
        ));
    }
    if before.pages != after.pages {
        return Err(format!(
            "{cell}: recovered {} page entries, {} before the crash (or contents differ)",
            after.pages.len(),
            before.pages.len()
        ));
    }
    if before.owners != after.owners {
        return Err(format!("{cell}: recovered block ownership differs"));
    }
    if (before.mpa_used, before.touched) != (after.mpa_used, after.touched) {
        return Err(format!(
            "{cell}: recovered mpa_used/touched {}/{} B, before {}/{} B",
            after.mpa_used, after.touched, before.mpa_used, before.touched
        ));
    }
    Ok(())
}

/// The churn traffic must reach the paths the paper is about: repacks,
/// inflation-room expansions and line overflows on Compresso, page
/// overflows on LCP.
pub fn coverage(workload: &str, compresso: &DeviceStats, lcp: &DeviceStats) -> Check {
    let zero: Vec<&str> = [
        ("Compresso repacks", compresso.repacks),
        ("Compresso ir_expansions", compresso.ir_expansions),
        ("Compresso line_overflows", compresso.line_overflows),
        ("LCP page_overflows", lcp.page_overflows),
    ]
    .iter()
    .filter(|(_, v)| *v == 0)
    .map(|(n, _)| *n)
    .collect();
    if zero.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{workload}: no {} in the round",
            zero.join(", no ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Dev, Probe, Probed, System, TimedWorld};
    use compresso_cache_sim::Backend;
    use compresso_core::{CompressoConfig, LcpDevice};
    use compresso_workloads::benchmark;

    fn gcc_world() -> DataWorld {
        DataWorld::new(&benchmark("gcc").unwrap())
    }

    /// A small Compresso cell driven through the probe: fills then
    /// writebacks over a few pages.
    fn small_cell(journaled: bool) -> Probed {
        let world = gcc_world();
        let probe = Probe::new(1, 64);
        let dev = Dev::build(
            System::Compresso,
            TimedWorld::new(world.clone(), &probe, System::Compresso),
            journaled,
        );
        let mut cell = Probed::new(System::Compresso, dev, world);
        let mut t = 0;
        for page in 0..24u64 {
            for line in 0..64u64 {
                t = cell.fill(t, page * 4096 + line * 64).max(t);
            }
        }
        for round in 0..3u64 {
            for page in 0..24u64 {
                for line in (round..64).step_by(3) {
                    t = cell.writeback(t, page * 4096 + line * 64).max(t);
                }
            }
        }
        cell
    }

    #[test]
    fn conservation_fails_on_a_mutated_snapshot() {
        let cell = small_cell(false);
        let d = cell.dev.as_device();
        let (stats, dram) = (d.device_stats(), d.dram_stats());
        conservation("c", &stats, &dram).unwrap();
        let mut more = stats;
        more.overflow_extra += 1;
        assert!(conservation("c", &more, &dram).is_err());
        let mut fewer = dram;
        fewer.writes -= 1;
        assert!(conservation("c", &stats, &fewer).is_err());
    }

    #[test]
    fn demand_fill_check_fails_on_a_miscount() {
        demand_fills("c", 10, 10, 10).unwrap();
        assert!(demand_fills("c", 11, 10, 10).is_err());
        assert!(demand_fills("c", 10, 10, 9).is_err());
    }

    #[test]
    fn compresso_state_checks_pass_and_fail_on_shrunk_pages() {
        let cell = small_cell(false);
        let dev = cell.dev.compresso().unwrap();
        let touched = cell.touched_pages();
        compresso_state("c", dev, &cell.mirror, &touched).unwrap();

        let codec = Codec::bpc();
        let mut pages: Vec<PageAlloc> = touched
            .iter()
            .map(|&p| {
                let ideal = ideal_page_bytes(&cell.mirror, &codec, p);
                (p, dev.page_allocated_bytes(p), ideal)
            })
            .collect();
        let ratio = dev.compression_ratio();
        linepack_bound("c", &pages, ratio).unwrap();
        // A page allocation shrunk below its lines' bins.
        let victim = pages.iter().position(|p| p.2 > 0).expect("a non-zero page");
        let shrunk = pages[victim].2 as u32 - 8;
        let original = pages[victim].1;
        pages[victim].1 = Some(shrunk);
        assert!(linepack_bound("c", &pages, ratio).is_err());
        pages[victim].1 = original;
        // A ratio above the ideal LinePack ratio.
        assert!(linepack_bound("c", &pages, 64.0).is_err());
        // An allocator that disagrees with the pages by one chunk.
        let used = dev.mpa_used_bytes() - 64 * pages.len() as u64;
        alloc_balance("c", used, &pages, dev.mpa_used_bytes()).unwrap();
        assert!(alloc_balance("c", used + 512, &pages, dev.mpa_used_bytes()).is_err());
        // A touched page the device does not hold, and a touched set
        // that disagrees with the device's own count.
        let mut extra = pages.clone();
        extra.push((1 << 30, None, 0));
        assert!(linepack_bound("c", &extra, ratio).is_err());
        let fewer = &touched[1..];
        assert!(compresso_state("c", dev, &cell.mirror, fewer).is_err());
    }

    #[test]
    fn round_trip_fails_on_a_wrong_size_or_encoding() {
        let world = gcc_world();
        let lines: Vec<Line> = (0..256u64).map(|i| world.line_data(i * 64)).collect();
        round_trip(&lines, &Codec::bpc()).unwrap();
        round_trip(&lines, &Codec::bdi()).unwrap();
        let codec = Codec::bpc();
        let mut scratch = Scratch::new();
        let mut encode = |l: &Line| codec.compress_into(l, &mut scratch).to_owned();
        // A size kernel one byte off.
        assert!(round_trip_with(&lines, &mut encode, |l| codec.compressed_size(l) + 1).is_err());
        // An encoder that drops one bit of the line.
        let flipped = |l: &Line| {
            let mut m = *l;
            m[0] ^= 1;
            m
        };
        let mut scratch = Scratch::new();
        assert!(round_trip_with(
            &lines,
            |l| codec.compress_into(&flipped(l), &mut scratch).to_owned(),
            |l| codec.compressed_size(l),
        )
        .is_err());
    }

    #[test]
    fn recovery_check_fails_on_a_truncated_journal() {
        let cell = small_cell(true);
        let dev = cell.dev.compresso().unwrap();
        let before = DurableState::of_compresso(dev);
        let bytes = dev.journal_bytes().unwrap().to_vec();
        let world = || Box::new(cell.mirror.clone());
        let (whole, report) = CompressoDevice::recover(CompressoConfig::durable(), world(), &bytes);
        recovery("c", &report, &before, &DurableState::of_compresso(&whole)).unwrap();

        let (cut, report) = CompressoDevice::recover(
            CompressoConfig::durable(),
            world(),
            &bytes[..bytes.len() / 2],
        );
        assert!(recovery("c", &report, &before, &DurableState::of_compresso(&cut)).is_err());

        let mut dirty = report.clone();
        dirty.violations.push("injected".into());
        assert!(recovery("c", &dirty, &before, &before).is_err());
    }

    #[test]
    fn lcp_recovery_check_fails_on_a_truncated_journal() {
        let world = gcc_world();
        let probe = Probe::new(1, 0);
        let dev = Dev::build(
            System::Lcp,
            TimedWorld::new(world.clone(), &probe, System::Lcp),
            true,
        );
        let mut cell = Probed::new(System::Lcp, dev, world);
        let mut t = 0;
        for page in 0..16u64 {
            for line in 0..64u64 {
                t = cell.writeback(t, page * 4096 + line * 64).max(t);
            }
        }
        let before = DurableState::of_device(cell.dev.as_device());
        let bytes = cell.dev.journal_bytes().unwrap().to_vec();
        let (whole, report) = LcpDevice::recover_lcp(Box::new(cell.mirror.clone()), &bytes);
        recovery("c", &report, &before, &DurableState::of_device(&whole)).unwrap();
        let (cut, report) =
            LcpDevice::recover_lcp(Box::new(cell.mirror.clone()), &bytes[..bytes.len() / 3]);
        assert!(recovery("c", &report, &before, &DurableState::of_device(&cut)).is_err());
    }

    #[test]
    fn coverage_fails_when_a_path_stays_idle() {
        let mut c = DeviceStats {
            repacks: 1,
            ir_expansions: 1,
            line_overflows: 1,
            ..Default::default()
        };
        let lcp = DeviceStats {
            page_overflows: 1,
            ..Default::default()
        };
        coverage("w", &c, &lcp).unwrap();
        c.repacks = 0;
        assert!(coverage("w", &c, &lcp).is_err());
        c.repacks = 1;
        assert!(coverage("w", &c, &DeviceStats::default()).is_err());
    }
}
