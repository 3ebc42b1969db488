//! Observation points the benchmark puts around the program's public
//! interfaces: a [`LineSource`] wrapper the devices fetch line data
//! through, and a [`Backend`] wrapper every fill and writeback passes.
//! Neither changes what the program computes.

use crate::spans::span;
use compresso_cache_sim::Backend;
use compresso_compression::{is_zero_line, Line};
use compresso_core::{
    Codec, CompressoConfig, CompressoDevice, LcpDevice, MemoryDevice, UncompressedDevice,
};
use compresso_workloads::{DataWorld, LineSource};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// SplitMix64 finalizer: the benchmark's only hash.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fetches one in this many (by address hash) join the round-trip
/// sample.
const SAMPLE_ONE_IN: u64 = 64;

/// What the line-source wrapper saw, shared by every device of a round.
#[derive(Debug)]
pub struct Probe {
    codec: Codec,
    salt: u64,
    sample_cap: usize,
    /// `line_data` calls.
    pub calls: Cell<u64>,
    /// A seeded sample of fetched lines (by address hash, capped).
    pub sample: RefCell<Vec<Line>>,
}

impl Probe {
    pub fn new(salt: u64, sample_cap: usize) -> Rc<Self> {
        Rc::new(Self {
            codec: Codec::bpc(),
            salt,
            sample_cap,
            calls: Cell::new(0),
            sample: RefCell::new(Vec::new()),
        })
    }
}

/// A [`DataWorld`] as the devices see it. Counts and samples every
/// fetch; while tracing, times the synthesis (`workloads.line_data`)
/// and runs the device's size kernel once more on the fetched line
/// (`<system>.size_kernel`), since the kernel call inside the device
/// cannot be timed from outside.
#[derive(Debug)]
pub struct TimedWorld {
    inner: DataWorld,
    probe: Rc<Probe>,
    kernel_span: &'static str,
}

impl TimedWorld {
    /// Wraps the world of one `system` cell.
    pub fn new(inner: DataWorld, probe: &Rc<Probe>, system: System) -> Self {
        Self {
            inner,
            probe: Rc::clone(probe),
            kernel_span: system.kernel_span(),
        }
    }
}

impl LineSource for TimedWorld {
    fn line_data(&self, line_addr: u64) -> Line {
        let p = &self.probe;
        p.calls.set(p.calls.get() + 1);
        let data = {
            let _s = span("workloads.line_data");
            self.inner.line_data(line_addr)
        };
        if crate::spans::enabled() && !is_zero_line(&data) {
            let _s = span(self.kernel_span);
            std::hint::black_box(p.codec.compressed_size(std::hint::black_box(&data)));
        }
        if mix64(line_addr ^ p.salt).is_multiple_of(SAMPLE_ONE_IN) {
            let mut sample = p.sample.borrow_mut();
            if sample.len() < p.sample_cap {
                sample.push(data);
            }
        }
        data
    }

    fn on_writeback(&mut self, line_addr: u64) {
        self.inner.on_writeback(line_addr);
    }

    fn generation(&self, line_addr: u64) -> u64 {
        self.inner.generation(line_addr)
    }
}

/// The four evaluated memory systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    Uncompressed,
    Lcp,
    LcpAlign,
    Compresso,
}

impl System {
    pub const ALL: [System; 4] = [
        System::Uncompressed,
        System::Lcp,
        System::LcpAlign,
        System::Compresso,
    ];

    pub fn label(self) -> &'static str {
        match self {
            System::Uncompressed => "uncompressed",
            System::Lcp => "LCP",
            System::LcpAlign => "LCP+Align",
            System::Compresso => "Compresso",
        }
    }

    /// Span name of this system's fill/writeback calls.
    fn call_span(self) -> &'static str {
        match self {
            System::Uncompressed => "uncompressed.call",
            System::Lcp => "lcp.call",
            System::LcpAlign => "lcp-align.call",
            System::Compresso => "compresso.call",
        }
    }

    /// Span name of the size kernel run again on this system's fetches.
    fn kernel_span(self) -> &'static str {
        match self {
            System::Uncompressed => "uncompressed.size_kernel",
            System::Lcp => "lcp.size_kernel",
            System::LcpAlign => "lcp-align.size_kernel",
            System::Compresso => "compresso.size_kernel",
        }
    }

    pub fn is_lcp(self) -> bool {
        matches!(self, System::Lcp | System::LcpAlign)
    }
}

/// A built device of one of the four systems. One lives per cell, so
/// the variants' size difference costs nothing.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Dev {
    Uncompressed(UncompressedDevice),
    Lcp(LcpDevice),
    Compresso(CompressoDevice),
}

impl Dev {
    /// Builds `system` over `world`; `journaled` turns on the
    /// write-ahead journal (Compresso's durable preset, LCP's journaling).
    pub fn build(system: System, world: TimedWorld, journaled: bool) -> Self {
        match system {
            System::Uncompressed => Dev::Uncompressed(UncompressedDevice::new()),
            System::Lcp | System::LcpAlign => {
                let mut d = if system == System::Lcp {
                    LcpDevice::lcp(world)
                } else {
                    LcpDevice::lcp_align(world)
                };
                if journaled {
                    d.enable_journaling();
                }
                Dev::Lcp(d)
            }
            System::Compresso => {
                let _s = span("compresso.device_build");
                let cfg = if journaled {
                    CompressoConfig::durable()
                } else {
                    CompressoConfig::compresso()
                };
                Dev::Compresso(CompressoDevice::new(cfg, world))
            }
        }
    }

    pub fn as_device(&self) -> &dyn MemoryDevice {
        match self {
            Dev::Uncompressed(d) => d,
            Dev::Lcp(d) => d,
            Dev::Compresso(d) => d,
        }
    }

    fn as_backend(&mut self) -> &mut dyn Backend {
        match self {
            Dev::Uncompressed(d) => d,
            Dev::Lcp(d) => d,
            Dev::Compresso(d) => d,
        }
    }

    pub fn compresso(&self) -> Option<&CompressoDevice> {
        match self {
            Dev::Compresso(d) => Some(d),
            _ => None,
        }
    }

    /// Raw journal bytes, if the device journals.
    pub fn journal_bytes(&self) -> Option<&[u8]> {
        match self {
            Dev::Uncompressed(_) => None,
            Dev::Lcp(d) => d.journal_bytes(),
            Dev::Compresso(d) => d.journal_bytes(),
        }
    }
}

/// The [`Backend`] every fill and writeback of a cell passes through:
/// counts the fills, spans every call while tracing, records the pages they
/// touch, and keeps an independent copy of the data world in step with
/// the writebacks (for the output checks).
#[derive(Debug)]
pub struct Probed {
    pub system: System,
    pub dev: Dev,
    pub fills: u64,
    /// Line addresses of every call, in order (for the touched-page set).
    pub addrs: Vec<u64>,
    /// The world as the writebacks left it, kept by the benchmark.
    pub mirror: DataWorld,
}

impl Probed {
    pub fn new(system: System, dev: Dev, mirror: DataWorld) -> Self {
        Self {
            system,
            dev,
            fills: 0,
            addrs: Vec::new(),
            mirror,
        }
    }

    /// Sorted, distinct OSPA pages the calls touched.
    pub fn touched_pages(&self) -> Vec<u64> {
        let mut pages: Vec<u64> = self.addrs.iter().map(|a| a / 4096).collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }
}

impl Backend for Probed {
    fn fill(&mut self, now: u64, line_addr: u64) -> u64 {
        self.fills += 1;
        self.addrs.push(line_addr);
        let _s = span(self.system.call_span());
        self.dev.as_backend().fill(now, line_addr)
    }

    fn writeback(&mut self, now: u64, line_addr: u64) -> u64 {
        self.addrs.push(line_addr);
        self.mirror.on_writeback(line_addr);
        let _s = span(self.system.call_span());
        self.dev.as_backend().writeback(now, line_addr)
    }
}
