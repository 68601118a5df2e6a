//! Spans recorded by the benchmark's own loops around the calls into each
//! layer, kept in memory during a trial and written out after it.

use std::io::{BufWriter, Write};
use std::path::Path;

/// One timed interval. `id` is unique per worker and starts at 1; `parent`
/// is the `id` of the enclosing span on the same worker, 0 for a request.
/// All spans of one request share `request`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub worker: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span's duration minus the part of its interval that its children
/// cover. Children may nest, touch or overlap; each nanosecond is
/// subtracted once, and parts of a child outside the parent do not count.
pub fn self_time(span: &Span, children: &[Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(start, end)| start < end)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.duration() - covered
}

/// Self time of every span of one worker, in the order given. Relies on a
/// span's `id` being its position in `spans` plus one, which is how
/// [`crate::recorder::Recorder`] numbers them.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<Span>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != 0 {
            children[span.parent as usize - 1].push(*span);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| self_time(span, kids))
        .collect()
}

/// Writes one JSON object per span, one per line.
pub fn write_jsonl(path: &Path, workers: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for span in workers.iter().flatten() {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"request\":{},\"worker\":{}}}",
            span.name, span.start_ns, span.end_ns, span.id, span.parent, span.request, span.worker
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            id,
            parent,
            request: 1,
            worker: 0,
        }
    }

    #[test]
    fn adjacent_children_leave_the_gaps() {
        let parent = span(1, 0, 100, 200);
        let kids = [
            span(2, 1, 110, 130),
            span(3, 1, 130, 150),
            span(4, 1, 160, 190),
        ];
        // Uncovered: 100..110, 150..160, 190..200.
        assert_eq!(self_time(&parent, &kids), 30);
        assert_eq!(self_time(&parent, &[]), 100);
    }

    #[test]
    fn overlapping_and_outlying_children_count_once() {
        let parent = span(1, 0, 100, 200);
        let kids = [
            span(2, 1, 90, 120),  // starts before the parent
            span(3, 1, 110, 140), // overlaps the first
            span(4, 1, 115, 125), // inside the overlap
            span(5, 1, 195, 260), // runs past the end
            span(6, 1, 300, 400), // wholly outside
        ];
        // Covered: 100..140 and 195..200.
        assert_eq!(self_time(&parent, &kids), 100 - 45);
    }

    #[test]
    fn nested_children_are_charged_to_their_own_parent() {
        // request ⊃ op ⊃ inner: the request loses only what `op` covers,
        // `op` loses what `inner` covers.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 90),
            span(3, 2, 20, 50),
            span(4, 0, 100, 150),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 30, 50]);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        // Under the package's ignored output directory, not the system's.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-spans");
        let path = dir.join("t.jsonl");
        write_jsonl(&path, &[vec![span(1, 0, 5, 9)], vec![span(1, 0, 6, 8)]]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"name\":\"s\",\"start_ns\":5,\"end_ns\":9,\"id\":1,\"parent\":0,\"request\":1,\"worker\":0}"
        );
    }
}
