//! Spans recorded by the benchmark around its calls into each layer,
//! and the self-time arithmetic the per-layer ledger is built from.
//!
//! A span has a name, a start and end on the run's clock (ns since the
//! run began), an optional parent and the id of the op it belongs to.
//! Spans stay in memory until the run ends and are then written out.
//!
//! Two kinds of parent/child link occur. A child timed while its
//! parent was open lies inside the parent's interval. A child
//! *replayed* for the same op after the parent returned (the engine
//! call behind a `service.handle`, or the `service.handle` behind a
//! wire round trip) is placed on the parent's timeline back to back
//! from the parent's start, by [`Trace::child_at`]. Either way a span's
//! self time is its duration minus the union of its children's
//! intervals.

use std::io::{self, Write as _};
use std::path::Path;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index in the trace.
    pub id: u32,
    /// The span this one is attributed to.
    pub parent: Option<u32>,
    /// The op this span belongs to.
    pub op: u64,
    /// Layer and call, e.g. `service.handle`.
    pub name: &'static str,
    /// Start, ns on the run's clock.
    pub start: u64,
    /// End, ns on the run's clock.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Total length covered by a set of half-open intervals, overlaps
/// counted once.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A parent's duration minus the union of its children's intervals,
/// each clipped to the parent.
pub fn self_time(parent: &Span, children: &[Span]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| s < e)
        .collect();
    parent.duration() - union_len(&mut clipped)
}

/// An in-memory span store with a parent → children index.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    children: Vec<Vec<u32>>,
    /// Per span, how much of its timeline replayed children fill.
    placed: Vec<u64>,
}

impl Trace {
    /// Records a span with the given interval.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u32>,
        start: u64,
        end: u64,
    ) -> u32 {
        assert!(start <= end, "span {name} ends before it starts");
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start,
            end,
        });
        self.children.push(Vec::new());
        self.placed.push(0);
        if let Some(p) = parent {
            self.children[p as usize].push(id);
        }
        id
    }

    /// Records a child of op `op` replayed for `parent`: `len` ns
    /// long, placed right after the parent's previously placed
    /// children.
    pub fn child_at(&mut self, name: &'static str, op: u64, parent: u32, len: u64) -> u32 {
        let start = self.spans[parent as usize].start + self.placed[parent as usize];
        self.placed[parent as usize] += len;
        self.record(name, op, Some(parent), start, start + len)
    }

    /// All spans, in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of one span.
    pub fn self_time_of(&self, id: u32) -> u64 {
        let kids: Vec<Span> = self.children[id as usize]
            .iter()
            .map(|&c| self.spans[c as usize])
            .collect();
        self_time(&self.spans[id as usize], &kids)
    }

    /// Durations of every span with this name, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 / 1e3)
            .collect()
    }

    /// Self times of every span with this name, in µs.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.self_time_of(s.id) as f64 / 1e3)
            .collect()
    }

    /// Total duration of the spans with these names, in seconds.
    pub fn busy_s(&self, names: &[&str]) -> f64 {
        self.spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .fold(0.0, |acc, s| acc + s.duration() as f64 / 1e9)
    }

    /// Writes the spans as tab-separated lines:
    /// `id parent op name start_ns end_ns` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                s.id, s.op, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span {
            id: 0,
            parent: None,
            op: 0,
            name: "t",
            start,
            end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(0, 10)]), 10);
        assert_eq!(union_len(&mut [(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(&mut [(20, 30), (0, 10)]), 20);
        assert_eq!(union_len(&mut [(0, 10), (10, 20)]), 20);
        assert_eq!(union_len(&mut [(0, 30), (5, 10), (12, 14)]), 30);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(100, 200);
        // Disjoint children.
        assert_eq!(self_time(&parent, &[span(110, 120), span(150, 170)]), 70);
        // Overlapping children are counted once, not twice.
        assert_eq!(self_time(&parent, &[span(110, 150), span(140, 160)]), 50);
        // A child nested in another child adds nothing.
        assert_eq!(self_time(&parent, &[span(110, 190), span(120, 130)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_time(&parent, &[span(50, 120), span(190, 260)]), 70);
        assert_eq!(self_time(&parent, &[span(0, 50)]), 100);
        // Children covering it all leave nothing.
        assert_eq!(self_time(&parent, &[span(100, 200), span(90, 210)]), 0);
        assert_eq!(self_time(&parent, &[]), 100);
    }

    #[test]
    fn replayed_children_are_placed_back_to_back() {
        let mut t = Trace::default();
        let p = t.record("service.handle", 7, None, 1_000, 1_100);
        let a = t.child_at("dynamic.edit", 7, p, 30);
        let b = t.child_at("dynamic.snapshot", 7, p, 20);
        assert_eq!(
            (t.spans()[a as usize].start, t.spans()[a as usize].end),
            (1_000, 1_030)
        );
        assert_eq!(
            (t.spans()[b as usize].start, t.spans()[b as usize].end),
            (1_030, 1_050)
        );
        assert_eq!(t.spans()[b as usize].op, 7);
        assert_eq!(t.self_time_of(p), 50);
        // A replay longer than its parent leaves no negative self time.
        t.child_at("wal.append", 7, p, 500);
        assert_eq!(t.self_time_of(p), 0);
        // Nested recorded children use their real intervals.
        let q = t.record("root", 8, None, 0, 100);
        t.record("kid", 8, Some(q), 10, 60);
        t.record("kid", 8, Some(q), 40, 80);
        assert_eq!(t.self_time_of(q), 30);
        assert_eq!(t.durations_us("kid"), vec![0.05, 0.04]);
    }
}
