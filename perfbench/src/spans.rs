//! In-memory span recorder: the benchmark's only timing instrument.
//!
//! Every measurement brackets a call into a crate's public API with
//! [`Spans::open`] / [`Spans::close`]. With recording off (end-to-end runs)
//! a span is just a stopwatch; with recording on (the traced run) each span
//! is kept with its name, job id, parent, start and end, and the whole set
//! is written out as JSON lines when the benchmark ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    job: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An open span: close it with [`Spans::close`].
#[must_use]
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

pub struct Spans {
    epoch: Instant,
    recording: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(recording: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            recording,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Start a span named `name` for job `job`; its parent is the innermost
    /// span still open.
    pub fn open(&mut self, name: &'static str, job: u32) -> Open {
        let start = Instant::now();
        let idx = self.recording.then(|| {
            self.spans.push(Span {
                name,
                job,
                parent: self.stack.last().copied(),
                start_ns: self.ns_since_epoch(start),
                end_ns: 0,
            });
            let idx = self.spans.len() - 1;
            self.stack.push(idx);
            idx
        });
        Open { idx, start }
    }

    /// End a span, returning its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            self.spans[idx].end_ns = self.ns_since_epoch(end);
            if let Some(pos) = self.stack.iter().rposition(|&i| i == idx) {
                self.stack.truncate(pos);
            }
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Record a span whose bounds were measured elsewhere (a sweep worker
    /// reports each job's wall time after the fact).
    pub fn record(&mut self, name: &'static str, job: u32, start: Instant, secs: f64) {
        if self.recording {
            let start_ns = self.ns_since_epoch(start);
            self.spans.push(Span {
                name,
                job,
                parent: self.stack.last().copied(),
                start_ns,
                end_ns: start_ns + (secs * 1e9) as u64,
            });
        }
    }

    /// Summed duration of every recorded span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Write every recorded span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.job, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }
}
