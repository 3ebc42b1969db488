//! In-memory span recorder for the traced run.
//!
//! A span is `(id, parent, name, start, end)` around one layer call.
//! While tracing is off, [`span`] costs one thread-local flag read. While
//! it is on, every closed span adds its time to a per-name total and
//! a per-name *self* total (its time minus that of its direct
//! children), and the first [`RECORD_CAP`] spans are kept whole so they
//! can be written out at the end of the run. Span times come from the
//! monotonic clock: the CPU clock is a system call, too slow to read
//! around every line fetch.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// Whole spans kept for the written trace; later spans only feed the
/// per-name totals.
const RECORD_CAP: usize = 200_000;

/// One closed span.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over every closed span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

struct Tracer {
    origin: Instant,
    next_id: u64,
    stack: Vec<Open>,
    records: Vec<Span>,
    dropped: u64,
    totals: Vec<(&'static str, Totals)>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            records: Vec::new(),
            dropped: 0,
            totals: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            name,
            start_ns,
            child_ns: 0,
        });
    }

    fn close(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span closed without opening");
        let total = end_ns - open.start_ns;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += total;
            p.id
        });
        let slot = match self.totals.iter().position(|(n, _)| *n == open.name) {
            Some(i) => i,
            None => {
                self.totals.push((open.name, Totals::default()));
                self.totals.len() - 1
            }
        };
        let t = &mut self.totals[slot].1;
        t.count += 1;
        t.total_ns += total;
        t.self_ns += total.saturating_sub(open.child_ns);
        if self.records.len() < RECORD_CAP {
            self.records.push(Span {
                id: open.id,
                parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// Guard returned by [`span`]; closes the span when dropped.
#[must_use = "a span closes when its guard is dropped"]
pub struct Guard(bool);

impl Drop for Guard {
    fn drop(&mut self) {
        if self.0 {
            TRACER.with(|t| t.borrow_mut().close());
        }
    }
}

/// Opens a span named `name` under the innermost open span (a no-op
/// unless tracing is on).
#[inline]
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(false);
    }
    TRACER.with(|t| t.borrow_mut().open(name));
    Guard(true)
}

/// Whether spans are being recorded on this thread.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Turns recording on or off for this thread. Only switch with no span
/// open.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Discards every recorded span and total.
pub fn reset() {
    TRACER.with(|t| *t.borrow_mut() = Tracer::new());
}

/// Totals for `name` (zero if it never closed).
pub fn totals(name: &str) -> Totals {
    TRACER.with(|t| {
        t.borrow()
            .totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(Totals::default, |(_, v)| *v)
    })
}

/// Writes the kept spans as JSON lines (`id`, `parent`, `name`,
/// `start_ns`, `end_ns`), then one line per name with its totals and a
/// final line counting the spans not kept.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    let text = TRACER.with(|t| {
        let t = t.borrow();
        let mut out = String::new();
        for s in &t.records {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        for (name, v) in &t.totals {
            let _ = writeln!(
                out,
                "{{\"totals\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                v.count, v.total_ns, v.self_ns
            );
        }
        let _ = writeln!(
            out,
            "{{\"kept\":{},\"dropped\":{}}}",
            t.records.len(),
            t.dropped
        );
        out
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(n: u64) {
        let mut x = 0u64;
        for i in 0..n {
            x = std::hint::black_box(x.wrapping_add(i));
        }
    }

    #[test]
    fn self_time_excludes_children() {
        reset();
        set_enabled(true);
        {
            let _outer = span("test.outer");
            spin(200_000);
            for _ in 0..3 {
                let _inner = span("test.inner");
                spin(200_000);
            }
        }
        set_enabled(false);
        let outer = totals("test.outer");
        let inner = totals("test.inner");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 3);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        let _ = span("test.off");
        assert_eq!(totals("test.off").count, 0);
        reset();
    }
}
