//! Wall-clock spans recorded by the benchmark around each public call.
//!
//! A span has a name, a start, an end and a parent. Spans nest strictly
//! (one thread, calls made one after another), are kept in memory, and
//! are written out once the run ends. A span's self time is its duration
//! minus the durations of its children, so the self times of every span
//! sum to the root span's duration.

use std::io::Write;
use std::time::Instant;

/// Parent of the root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary this span covers.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Spans::begin`]; pass it back to [`Spans::end`].
#[must_use]
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// The span recorder. When off, `begin`/`end` do nothing.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    t0: Instant,
    list: Vec<Span>,
    stack: Vec<u32>,
}

impl Spans {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Spans { on, t0: Instant::now(), list: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switch recording; only legal between top-level calls of a phase
    /// (no span opened while on may still be open).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let id = self.list.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.list.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.stack.push(id);
        Open(id)
    }

    /// Close `open`, which must be the innermost open span.
    #[inline]
    pub fn end(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.list[open.0 as usize].end_ns = self.now_ns();
    }

    /// Record `f` as one span.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Every closed span, in opening order.
    pub fn list(&self) -> &[Span] {
        &self.list
    }

    /// Durations (ns) of the spans named `name`, in opening order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.list.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
    }

    /// Self time (ns) of every span, by index.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.list)
    }

    /// Self time summed by span name, sorted by name.
    pub fn self_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut by: std::collections::BTreeMap<&'static str, u64> = Default::default();
        for (s, t) in self.list.iter().zip(self.self_times()) {
            *by.entry(s.name).or_default() += t;
        }
        by.into_iter().collect()
    }

    /// Write every span as one tab-separated line:
    /// `id parent name start_ns end_ns` (parent `-` for a root).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.list.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { "-".to_string() } else { s.parent.to_string() };
            writeln!(w, "{i}\t{parent}\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

/// Self time of each span: its duration minus its children's durations.
pub fn self_times(list: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = list.iter().map(Span::dur_ns).collect();
    for s in list {
        if s.parent != NO_PARENT {
            own[s.parent as usize] -= s.dur_ns();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut sp = Spans::new(true);
        let root = sp.begin("run");
        for _ in 0..3 {
            let a = sp.begin("a");
            sp.time("b", || std::hint::black_box((0..1000u64).sum::<u64>()));
            sp.end(a);
        }
        sp.end(root);
        let total: u64 = sp.self_times().iter().sum();
        assert_eq!(total, sp.list()[0].dur_ns());
        let off = Spans::new(false);
        assert!(off.list().is_empty());
    }
}
