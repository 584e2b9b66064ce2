//! In-memory spans for the traced run. Each span records its name, start,
//! end, parent and op id; spans stay in memory and are written out once,
//! when the run ends.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to (spans of one op share it).
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. When disabled, opening and closing a span costs one
/// branch and records nothing.
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span as a child of the innermost open one. Returns its index
    /// for [`Spans::close`], or `None` when recording is off.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Some(idx)
    }

    pub fn close(&mut self, token: Option<usize>) {
        if let Some(idx) = token {
            self.spans[idx].end_ns = self.now_ns();
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// Write every span as one tab-separated line (index, op, parent,
    /// name, start, end, self time; times in ns), at most `limit` lines.
    pub fn write_tsv(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        let own = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "idx\top\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns, own[i]
            )?;
        }
        if self.spans.len() > limit {
            writeln!(out, "# {} more spans not written", self.spans.len() - limit)?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Overlapping children are merged first, and
/// children are clipped to the parent, so time is never subtracted twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("launch", 10, 60, Some(0)),
            span("interp", 20, 50, Some(1)),
            span("download", 70, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 60, 70, Some(0)),
            span("d", 90, 120, Some(0)),
        ];
        // Covered: [10, 70) merged plus [90, 100) clipped = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn child_covering_parent_leaves_zero_self_time() {
        let spans = vec![span("op", 5, 10, None), span("all", 0, 20, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![0, 20]);
    }

    #[test]
    fn recorder_links_parents_and_skips_when_disabled() {
        let mut s = Spans::new(true);
        s.set_op(3);
        let outer = s.open("outer");
        let inner = s.open("inner");
        s.close(inner);
        s.close(outer);
        s.set_enabled(false);
        let off = s.open("ignored");
        s.close(off);
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[1].op, 3);
        assert!(s.spans()[0].end_ns >= s.spans()[1].end_ns);
        assert_eq!(s.durations_s("inner").len(), 1);
    }
}
