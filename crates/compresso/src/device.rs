//! The memory-device abstraction, the uncompressed baseline, and the
//! line sizing shared by the compressed devices: [`size_line`] runs the
//! size kernel on one line, [`resize_written_line`] keeps a page's
//! [`LineSizes`] entry current on writeback, and [`page_line_sizes`]
//! answers a page's sizes from its entry.

use crate::compresso::Codec;
use crate::metadata::{LINES_PER_PAGE, PAGE_BYTES};
use crate::stats::{DeviceEvents, DeviceStats};
use compresso_cache_sim::Backend;
use compresso_mem_sim::{MainMemory, MemConfig, MemStats};
use compresso_telemetry::Registry;
use compresso_workloads::LineSource;
use std::collections::HashMap;

/// The true compressed size in bytes of every line of every sized page,
/// keyed by OSPA page — the per-line size codes a Compresso metadata
/// entry keeps, held apart from the page's allocated or inflated layout.
///
/// A line's bytes change only in its device's own `writeback`, which
/// stores the re-sized line, so an entry always equals a fresh sizing of
/// the page from the world. A page has no entry until it is first sized:
/// on first touch, or — for a page rebuilt by cold-boot recovery, which
/// has no data — on first need.
pub(crate) type LineSizes = HashMap<u64, [u8; LINES_PER_PAGE]>;

/// Compressed size in bytes of the line at `line_addr` (0 for an
/// all-zero line): one run of the codec's allocation-free size kernel.
pub(crate) fn size_line(
    codec: Codec,
    world: &dyn LineSource,
    line_addr: u64,
    events: &DeviceEvents,
) -> u8 {
    events.size_calls.add(1);
    let data = world.line_data(line_addr);
    if compresso_compression::is_zero_line(&data) {
        0
    } else {
        codec.compressed_size(&data) as u8
    }
}

/// Re-sizes the just-written line at `line_addr`, storing the new size
/// in its page's entry. A page without an entry is left without one.
pub(crate) fn resize_written_line(
    table: &mut LineSizes,
    codec: Codec,
    world: &dyn LineSource,
    line_addr: u64,
    events: &DeviceEvents,
) -> u8 {
    let size = size_line(codec, world, line_addr, events);
    if let Some(sizes) = table.get_mut(&(line_addr / PAGE_BYTES as u64)) {
        sizes[(line_addr % PAGE_BYTES as u64 / 64) as usize] = size;
    }
    size
}

/// The true sizes of `page`'s 64 lines: read from `table` when the page
/// has an entry, otherwise sized from `world` and stored.
pub(crate) fn page_line_sizes(
    table: &mut LineSizes,
    codec: Codec,
    world: &dyn LineSource,
    page: u64,
    events: &DeviceEvents,
) -> [u8; LINES_PER_PAGE] {
    if let Some(&sizes) = table.get(&page) {
        events.size_calls.add(LINES_PER_PAGE as u64);
        events.size_memo_hits.add(LINES_PER_PAGE as u64);
        return sizes;
    }
    let mut sizes = [0u8; LINES_PER_PAGE];
    for (line, size) in sizes.iter_mut().enumerate() {
        let addr = page * PAGE_BYTES as u64 + line as u64 * 64;
        *size = size_line(codec, world, addr, events);
    }
    table.insert(page, sizes);
    sizes
}

/// A main-memory device: the uncompressed baseline, Compresso, or an LCP
/// variant. All devices speak OSPA line addresses on the LLC side and
/// perform MPA DRAM accesses internally.
pub trait MemoryDevice: Backend {
    /// Device name for reports ("uncompressed", "Compresso", "LCP", …).
    fn device_name(&self) -> &'static str;

    /// Snapshot of the compression/data-movement event counters.
    fn device_stats(&self) -> DeviceStats;

    /// Snapshot of the DRAM-level counters (row hits, activations, …)
    /// for energy.
    fn dram_stats(&self) -> MemStats;

    /// The metrics registry every subsystem of this device registers
    /// into (device events, DRAM controller, metadata cache, …).
    fn metrics(&self) -> &Registry;

    /// Current compression ratio: touched OSPA bytes over MPA bytes used
    /// (data + metadata). 1.0 for the uncompressed baseline.
    fn compression_ratio(&self) -> f64;

    /// MPA bytes currently in use (data + metadata).
    fn mpa_used_bytes(&self) -> u64;

    /// OSPA bytes touched so far.
    fn touched_ospa_bytes(&self) -> u64;
}

/// The uncompressed baseline: OSPA is MPA; every fill and writeback is
/// exactly one DRAM burst.
#[derive(Debug)]
pub struct UncompressedDevice {
    mem: MainMemory,
    stats: DeviceEvents,
    registry: Registry,
    touched_pages: std::collections::HashSet<u64>,
}

impl UncompressedDevice {
    /// Creates the baseline over the paper's DDR4-2666 channel.
    pub fn new() -> Self {
        Self::with_config(MemConfig::ddr4_2666())
    }

    /// Creates the baseline over an explicit DRAM configuration.
    pub fn with_config(config: MemConfig) -> Self {
        let registry = Registry::new();
        let stats = DeviceEvents::new();
        let mem = MainMemory::new(config);
        stats.register_metrics(&registry, "uncompressed");
        mem.register_metrics(&registry, "dram");
        Self {
            mem,
            stats,
            registry,
            touched_pages: std::collections::HashSet::new(),
        }
    }
}

impl Default for UncompressedDevice {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for UncompressedDevice {
    fn fill(&mut self, now: u64, line_addr: u64) -> u64 {
        self.stats.demand_fills += 1;
        self.stats.data_accesses += 1;
        self.touched_pages.insert(line_addr / 4096);
        self.mem.read(now, line_addr).complete_at
    }

    fn writeback(&mut self, now: u64, line_addr: u64) -> u64 {
        self.stats.demand_writebacks += 1;
        self.stats.data_accesses += 1;
        self.touched_pages.insert(line_addr / 4096);
        self.mem.write(now, line_addr).complete_at
    }
}

impl MemoryDevice for UncompressedDevice {
    fn device_name(&self) -> &'static str {
        "uncompressed"
    }

    fn device_stats(&self) -> DeviceStats {
        self.stats.snapshot()
    }

    fn dram_stats(&self) -> MemStats {
        self.mem.stats()
    }

    fn metrics(&self) -> &Registry {
        &self.registry
    }

    fn compression_ratio(&self) -> f64 {
        1.0
    }

    fn mpa_used_bytes(&self) -> u64 {
        self.touched_ospa_bytes()
    }

    fn touched_ospa_bytes(&self) -> u64 {
        self.touched_pages.len() as u64 * 4096
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_counts_one_access_per_demand() {
        let mut d = UncompressedDevice::new();
        let t1 = d.fill(0, 0x1000);
        assert!(t1 > 0);
        let t2 = d.writeback(t1, 0x2000);
        assert!(t2 >= t1);
        assert_eq!(d.device_stats().demand_fills, 1);
        assert_eq!(d.device_stats().demand_writebacks, 1);
        assert_eq!(d.device_stats().total_accesses(), 2);
        assert_eq!(d.device_stats().relative_extra_accesses(), 0.0);
    }

    #[test]
    fn baseline_ratio_is_one() {
        let mut d = UncompressedDevice::new();
        d.fill(0, 0);
        d.fill(0, 4096);
        assert_eq!(d.compression_ratio(), 1.0);
        assert_eq!(d.touched_ospa_bytes(), 8192);
        assert_eq!(d.mpa_used_bytes(), 8192);
    }
}
