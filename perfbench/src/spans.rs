//! In-memory spans recorded by the benchmark around its calls into
//! each layer. A disabled tracer reads no clocks and stores nothing,
//! so untraced runs pay only a branch.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `parent == 0` marks a root.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` under `parent`; `f`
    /// receives the new span's id so its own calls can nest under it.
    pub fn span<T>(&self, name: &str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span store poisoned")
            .push(SpanRec {
                id,
                parent,
                name: name.to_owned(),
                start_ns,
                end_ns,
            });
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Total duration of every span named `name`, seconds.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::secs)
            .sum()
    }

    /// Self time per span id: its duration minus the union of the
    /// intervals its children cover.
    pub fn self_secs(&self) -> BTreeMap<u64, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        spans
            .iter()
            .map(|s| {
                let mut covered = 0;
                let mut reach = s.start_ns;
                let mut kids = children.get(&s.id).cloned().unwrap_or_default();
                kids.sort_unstable();
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.id, (s.end_ns - s.start_ns - covered) as f64 / 1e9)
            })
            .collect()
    }

    /// Writes every span as one JSON line: name, start, end, parent
    /// and self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let self_secs = self.self_secs();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_s\":{}}}",
                s.id,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns,
                self_secs.get(&s.id).copied().unwrap_or(0.0)
            )?;
        }
        out.flush()
    }
}
