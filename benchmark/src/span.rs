//! In-memory spans recorded by the benchmark's own code around each call
//! into a layer: `{name, start_ns, end_ns, parent, op}`, written out as
//! JSON when the traced run ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// `parent` of a span nothing caused.
pub const ROOT: u32 = u32::MAX;

/// One timed interval. `op` is shared by all spans of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the recorder's name table.
    pub name: u16,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// The operation this span belongs to.
    pub op: u32,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans into a buffer sized before the measured region, so
/// recording never allocates while an op is being timed.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// The instant span times count from (shared with code that stamps
    /// its own times, like the per-scenario wrapper).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The id of `name` in the name table, added on first use.
    pub fn intern(&mut self, name: &str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u16;
        }
        self.names.push(name.to_string());
        u16::try_from(self.names.len() - 1).expect("fewer than 65536 span names")
    }

    /// The name behind an id.
    pub fn name(&self, id: u16) -> &str {
        &self.names[id as usize]
    }

    /// Appends a finished span and returns its index.
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span starting now; [`close`](Recorder::close) ends it.
    pub fn open(&mut self, name: u16, parent: u32, op: u32) -> u32 {
        let now = self.now();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        })
    }

    /// Ends an open span now and returns the end time.
    pub fn close(&mut self, index: u32) -> u64 {
        let now = self.now();
        self.spans[index as usize].end_ns = now;
        now
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover (overlapping children count
    /// once, and a child is clipped to its parent's interval).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<u32> = (0..self.spans.len() as u32)
            .filter(|&i| self.spans[i as usize].parent != ROOT)
            .collect();
        children.sort_by_key(|&i| {
            let s = &self.spans[i as usize];
            (s.parent, s.start_ns)
        });
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        // Sweep each parent's children in start order, counting only the
        // part of a child that lies beyond what earlier children covered.
        let mut current_parent = ROOT;
        let mut covered_to = 0;
        for i in children {
            let child = self.spans[i as usize];
            let parent = self.spans[child.parent as usize];
            if child.parent != current_parent {
                current_parent = child.parent;
                covered_to = parent.start_ns;
            }
            let start = child.start_ns.max(covered_to);
            let end = child.end_ns.min(parent.end_ns);
            if end > start {
                own[child.parent as usize] -= end - start;
                covered_to = end;
            }
        }
        own
    }

    /// Writes `{"spans": [{name, start_ns, end_ns, parent, op}, ...]}`;
    /// `parent` is an index into the array, or `null`.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            // Span names are fixed strings and scenario names such as
            // `unsupportive_ring[period=2,c=1]`: nothing JSON escapes but
            // the two characters handled here.
            let name = self.name(s.name).replace('\\', "\\\\").replace('"', "\\\"");
            write!(
                out,
                "\n{{\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.start_ns, s.end_ns
            )?;
            if s.parent == ROOT {
                out.write_all(b"null")?;
            } else {
                write!(out, "{}", s.parent)?;
            }
            write!(out, ",\"op\":{}}}", s.op)?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: u16, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let mut rec = Recorder::with_capacity(8);
        let n = rec.intern("x");
        let root = rec.push(span(n, 0, 100, ROOT)); // 0
        let a = rec.push(span(n, 10, 40, root)); // 1: covers 30
        rec.push(span(n, 30, 50, root)); // 2: overlaps a, adds 10
        rec.push(span(n, 90, 120, root)); // 3: clipped to the parent, adds 10
        rec.push(span(n, 15, 25, a)); // 4: grandchild, charged to a only
        rec.push(span(n, 200, 260, ROOT)); // 5: childless
        assert_eq!(rec.self_times(), vec![50, 20, 20, 30, 10, 60]);
    }

    #[test]
    fn a_child_recorded_before_an_earlier_sibling_still_counts_once() {
        let mut rec = Recorder::with_capacity(4);
        let n = rec.intern("x");
        let root = rec.push(span(n, 0, 10, ROOT));
        rec.push(span(n, 6, 9, root));
        rec.push(span(n, 1, 7, root));
        assert_eq!(rec.self_times()[0], 2);
    }

    #[test]
    fn the_trace_file_is_json_with_the_five_span_fields() {
        let mut rec = Recorder::with_capacity(2);
        let op = rec.intern("op");
        let run = rec.intern("scenario.run/odd\"name[p=2,c=0.25]");
        let root = rec.push(span(op, 5, 50, ROOT));
        rec.push(Span {
            op: 7,
            ..span(run, 10, 20, root)
        });
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).expect("out/ can be made");
        let path = dir.join(format!("test_trace_{}.json", std::process::id()));
        rec.write_json(&path).expect("the file is written");
        let text = std::fs::read_to_string(&path).expect("the file is read back");
        std::fs::remove_file(&path).expect("the file is removed");

        let doc = ga_scenario::json::Json::parse(&text).expect("valid JSON");
        let spans = doc.get("spans").and_then(|s| s.as_arr()).expect("spans");
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[0].render(),
            r#"{"name":"op","start_ns":5,"end_ns":50,"parent":null,"op":0}"#
        );
        let child = &spans[1];
        assert_eq!(
            child.get("name").and_then(|n| n.as_str()),
            Some("scenario.run/odd\"name[p=2,c=0.25]")
        );
        assert_eq!(child.get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(child.get("op").and_then(|p| p.as_u64()), Some(7));
    }

    #[test]
    fn names_are_interned_once() {
        let mut rec = Recorder::with_capacity(0);
        let a = rec.intern("a");
        assert_eq!(rec.intern("b"), a + 1);
        assert_eq!(rec.intern("a"), a);
        assert_eq!(rec.name(a), "a");
    }
}
