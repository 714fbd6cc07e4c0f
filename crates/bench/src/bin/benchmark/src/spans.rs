//! In-memory spans recorded by the benchmark around calls into each
//! layer, and the self-time computation over them.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` indexes the span that caused it within
/// the same span list; spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Span recorder for one thread. A disabled recorder records nothing,
/// which is how the end-to-end pass runs.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, enabled: bool) -> Recorder {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost
    /// open span. The span closes whatever `f` returns.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, re-basing parent indexes.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    for list in lists {
        let base = all.len();
        all.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let start = s.start_ns.max(spans[p].start_ns);
            let end = s.end_ns.min(spans[p].end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// One JSON line per span, self time included.
pub fn to_jsonl(workload: &str, pass: &str, spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (id, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"pass\":\"{pass}\",\"id\":{id},\"parent\":{parent},\
             \"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.op, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            op: 1,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("op", 0, 100, None),
            span("parse", 10, 20, Some(0)),
            span("exec", 20, 70, Some(0)),
            span("scan", 25, 60, Some(2)),
            // Overlaps `exec` by 10 and sticks 20 out of the parent.
            span("encode", 60, 120, Some(0)),
        ];
        // op: 100 - cover([10,20] ∪ [20,70] ∪ [60,100]) = 100 - 90.
        assert_eq!(self_times(&spans), vec![10, 10, 15, 35, 60]);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut rec = Recorder::new(Instant::now(), true);
        rec.scope("op", 7, |r| {
            r.scope("a", 7, |_| ());
            r.scope("b", 7, |r| r.scope("c", 7, |_| ()));
        });
        let spans = rec.into_spans();
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.op == 7));

        let mut off = Recorder::new(Instant::now(), false);
        assert_eq!(off.scope("op", 1, |_| 5), 5);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span("x", 0, 1, None), span("y", 0, 1, Some(0))];
        let b = vec![span("z", 0, 1, None), span("w", 0, 1, Some(0))];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(to_jsonl("w", "wire", &all).lines().count(), 4);
    }
}
