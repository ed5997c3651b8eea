//! The benchmark's span recorder.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer: name, start, end, parent and op id.  They stay in memory and are
//! written out when the run ends.  A disabled tracer records nothing and
//! reads no clock.
//!
//! Two kinds of root span exist.  An *op* root covers one op as the user
//! sees it.  A *shadow* root holds the re-execution of the public
//! functions a single call is made of (the verifier's phases, the stages of
//! `check_certificate`, a served request replayed on the engine); it carries
//! the op's id but lies outside the op's interval, so it never inflates the
//! op's latency.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same span list.
    pub parent: Option<usize>,
    pub op: u64,
    pub shadow: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, enabled: false, spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_span(&mut self, name: &'static str, shadow: bool) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start, end: start, parent, op: self.op, shadow });
        self.open.push(self.spans.len() - 1);
    }

    /// Opens the root span of op `op`.
    pub fn begin_op(&mut self, op: u64, name: &'static str) {
        self.op = op;
        self.open_span(name, false);
    }

    /// Opens the shadow root of op `op`.
    pub fn begin_shadow(&mut self, op: u64, name: &'static str) {
        self.op = op;
        self.open_span(name, true);
    }

    /// Opens a child span of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let shadow = self.open.last().is_some_and(|&at| self.spans[at].shadow);
        self.open_span(name, shadow);
    }

    /// Closes the innermost open span (a root too).
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let at = self.open.pop().expect("exit without a matching enter");
        self.spans[at].end = end;
    }

    /// The instant span times count from, for threads that time their own
    /// work and hand it to [`Tracer::record`].
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Adds a closed child span of the innermost open span, timed by
    /// another thread (in nanoseconds since the epoch).
    pub fn record(&mut self, name: &'static str, start: u64, end: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        let shadow = parent.is_some_and(|at| self.spans[at].shadow);
        self.spans.push(Span { name, start, end, parent, op: self.op, shadow });
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let value = f();
        self.exit();
        value
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans left open");
        self.spans
    }
}

/// Concatenates per-thread span lists, shifting parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut merged = Vec::new();
    for list in lists {
        let offset = merged.len();
        merged.extend(list.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }
    merged
}

/// Self time of every span: its duration minus the time covered by its
/// children (negative only when a child escapes its parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (index, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(index);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut intervals: Vec<(u64, u64)> =
                kids.iter().map(|&k| (spans[k].start, spans[k].end)).collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() as i64 - covered as i64
        })
        .collect()
}

/// Checks that the span tree is well formed: every child lies inside its
/// parent and shares its op id, every op id has exactly one op root, every
/// shadow root lies outside its op's interval, and no self time is
/// negative.
pub fn check_well_formed(spans: &[Span]) -> Result<(), String> {
    let mut op_roots: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for span in spans {
        if span.end < span.start {
            return Err(format!("span `{}` of op {} ends before it starts", span.name, span.op));
        }
        if span.parent.is_none()
            && !span.shadow
            && op_roots.insert(span.op, (span.start, span.end)).is_some()
        {
            return Err(format!("op id {} has more than one op root", span.op));
        }
    }
    for (index, span) in spans.iter().enumerate() {
        match span.parent {
            Some(parent) => {
                let outer = spans
                    .get(parent)
                    .filter(|_| parent < index)
                    .ok_or_else(|| format!("span `{}` has a dangling parent", span.name))?;
                if outer.op != span.op || outer.shadow != span.shadow {
                    return Err(format!("span `{}` crosses ops or shadow roots", span.name));
                }
                if span.start < outer.start || span.end > outer.end {
                    return Err(format!(
                        "span `{}` of op {} lies outside its parent `{}`",
                        span.name, span.op, outer.name
                    ));
                }
            }
            None if span.shadow => {
                let (start, end) = op_roots.get(&span.op).ok_or_else(|| {
                    format!("shadow `{}` names unknown op {}", span.name, span.op)
                })?;
                if span.start < *end && span.end > *start {
                    return Err(format!("shadow `{}` overlaps op {}", span.name, span.op));
                }
            }
            None => {}
        }
    }
    if let Some((index, _)) = self_times_ns(spans).iter().enumerate().find(|(_, &t)| t < 0) {
        return Err(format!("span `{}` has a negative self time", spans[index].name));
    }
    Ok(())
}

/// Sum of self time per span name, in ms.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut totals = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *totals.entry(span.name).or_insert(0.0) += self_ns as f64 / 1e6;
    }
    totals
}

/// Per op id, the duration of each named span, in ms (summed when a name
/// repeats within an op).
pub fn durations_by_op(spans: &[Span]) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
    let mut ops: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for span in spans {
        *ops.entry(span.op).or_default().entry(span.name).or_insert(0.0) +=
            span.duration_ns() as f64 / 1e6;
    }
    ops
}

/// Renders the spans as JSON lines of `[op, parent, name, start_ns, end_ns,
/// shadow]`, preceded by a header object.
pub fn render(header: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 * spans.len() + header.len() + 64);
    out.push_str(header);
    out.push('\n');
    for span in spans {
        let parent = span.parent.map_or(-1, |p| p as i64);
        let _ = writeln!(
            out,
            "[{}, {parent}, \"{}\", {}, {}, {}]",
            span.op, span.name, span.start, span.end, span.shadow
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
        Span { name, start, end, parent, op, shadow: false }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, None, 1),
            span("a", 10, 40, Some(0), 1),
            span("b", 30, 60, Some(0), 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 30, 30]);
        assert!(check_well_formed(&spans).is_ok());
    }

    #[test]
    fn malformed_trees_are_refused() {
        let escaping = vec![span("op", 0, 10, None, 1), span("a", 5, 20, Some(0), 1)];
        assert!(check_well_formed(&escaping).is_err());
        let twice = vec![span("op", 0, 10, None, 1), span("op", 20, 30, None, 1)];
        assert!(check_well_formed(&twice).is_err());
        let mut shadow = span("shadow", 5, 8, None, 1);
        shadow.shadow = true;
        assert!(check_well_formed(&[span("op", 0, 10, None, 1), shadow]).is_err());
    }

    #[test]
    fn disabled_tracers_record_nothing() {
        let mut tracer = Tracer::new(Instant::now());
        tracer.begin_op(1, "op");
        tracer.time("a", || ());
        tracer.exit();
        assert!(tracer.into_spans().is_empty());
    }
}
