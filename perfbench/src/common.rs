//! Shared pieces of the benchmark: the seeded generator, percentiles, the
//! process CPU and memory probes, and the per-run outcome every workload
//! returns.

use std::time::Instant;

use crate::trace::Span;

/// SplitMix64: a small, seedable generator.  Every input a workload draws
/// comes from one of these, keyed by the run seed and a stream name, so the
/// same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a run seed.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        for byte in stream.bytes() {
            state = (state ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `count` distinct indices from `0..n`.
    pub fn distinct(&mut self, n: usize, count: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        self.shuffle(&mut all);
        all.truncate(count);
        all
    }
}

/// Expands per-kind counts into one round of op kinds in seeded order.
/// Every round holds each kind exactly `count` times, so two seeds differ
/// in order and drawn inputs but never in the mix.
pub fn shuffled_round<K: Copy>(mix: &[(K, usize)], rng: &mut Rng) -> Vec<K> {
    let mut round: Vec<K> =
        mix.iter().flat_map(|&(kind, count)| std::iter::repeat_n(kind, count)).collect();
    rng.shuffle(&mut round);
    round
}

/// Nearest-rank percentile of a sample (`pct` in 0..=100).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// User plus system CPU time of the whole process (every thread, live or
/// exited), in seconds, from `/proc/self/stat`.
pub fn process_cpu_seconds() -> f64 {
    // Kernel clock ticks per second as exposed to user space (USER_HZ).
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; the fields after it do not.
    let Some(after) = stat.rfind(')').map(|at| &stat[at + 2..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks = |index: usize| fields.get(index - 3).and_then(|f| f.parse::<f64>().ok());
    match (ticks(14), ticks(15)) {
        (Some(user), Some(system)) => (user + system) / TICKS_PER_SECOND,
        _ => 0.0,
    }
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The revision of the checkout the benchmark runs in, read from `.git`
/// without spawning a process; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(revision) = read(&format!(".git/{reference}")) {
        return revision.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (revision, name) = line.split_once(' ')?;
                (name == reference).then(|| revision.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The calibration loop's time on an undisturbed host, in ms.
const CALIBRATION_REFERENCE_MS: f64 = 0.3;

/// A fixed loop of small string allocations, in ms.
fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut total = 0usize;
    for i in 0..200 {
        let words: Vec<String> = (0..20).map(|k| format!("{i}-{k}")).collect();
        total += words.iter().map(String::len).sum::<usize>();
    }
    std::hint::black_box(total);
    ms_since(start)
}

/// A set-up time in seconds, scaled to the host speed right after it: the
/// reference over the median of three calibration loops.  A set-up lasts
/// milliseconds, and its raw median over a run took one of two levels per
/// process (2.5 or 3.9 ms for `certify-roundtrip`), which the loop shares.
/// The loop is the benchmark's own, so work moved into set-up still shows.
pub fn calibrated_s(elapsed: std::time::Duration) -> f64 {
    let mut samples = [calibration_ms(), calibration_ms(), calibration_ms()];
    samples.sort_by(f64::total_cmp);
    elapsed.as_secs_f64() * CALIBRATION_REFERENCE_MS / samples[1]
}

/// One completed op of a workload.
pub struct OpSample {
    /// Latency on the benchmark's own clock, in ms.
    pub latency_ms: f64,
    /// Whether the op's outputs matched the known answer.
    pub ok: bool,
    /// Whether the op ran in a traced round.
    pub traced: bool,
    /// When the op completed, in seconds since the measured phase began.
    pub done_s: f64,
    /// Which input of the round the op ran, where every round repeats the
    /// same inputs.
    pub input: Option<usize>,
}

/// The clock of a measured phase.  Marks record round boundaries (for
/// `serve-mixed`, only the end) with the time and the process CPU time.
pub struct Clock {
    start: Instant,
    cpu_start: f64,
    marks: Vec<Mark>,
}

#[derive(Clone, Copy)]
pub struct Mark {
    pub at_s: f64,
    pub cpu_s: f64,
}

impl Clock {
    pub fn start() -> Clock {
        let cpu_start = process_cpu_seconds();
        Clock { start: Instant::now(), cpu_start, marks: vec![Mark { at_s: 0.0, cpu_s: 0.0 }] }
    }

    pub fn started(&self) -> Instant {
        self.start
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Records a round boundary.
    pub fn mark(&mut self) {
        let at_s = self.elapsed_s();
        self.marks.push(Mark { at_s, cpu_s: process_cpu_seconds() - self.cpu_start });
    }

    pub fn into_marks(self) -> Vec<Mark> {
        self.marks
    }
}

/// The end-to-end figures of a run, before set-up and memory.
pub struct Figures {
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub cpu_ms_per_op: f64,
}

/// The figures over the whole measured phase: ops with the right answer
/// per second, latency percentiles over every op, and process CPU per op.
pub fn whole_run(ops: &[OpSample], marks: &[Mark]) -> Figures {
    let (first, last) = (marks[0], marks[marks.len() - 1]);
    let latencies: Vec<f64> = ops.iter().map(|op| op.latency_ms).collect();
    let succeeded = ops.iter().filter(|op| op.ok).count();
    Figures {
        ops_per_s: succeeded as f64 / (last.at_s - first.at_s),
        p50_ms: percentile(&latencies, 50.0),
        p90_ms: percentile(&latencies, 90.0),
        cpu_ms_per_op: (last.cpu_s - first.cpu_s) * 1e3 / ops.len().max(1) as f64,
    }
}

/// The figures of a workload whose rounds repeat the same inputs, from the
/// least disturbed runs (other tenants of the host only ever slow an op
/// down): each input's fastest run, then p50 and p90 over inputs.  With one
/// closed-loop client, throughput is the inverse of the mean of those
/// latencies.  CPU is the least process CPU per op of any round.  Failed
/// ops do not count; `None` when no op of a repeating workload succeeded.
pub fn fastest_per_input(ops: &[OpSample], marks: &[Mark]) -> Option<Figures> {
    let mut fastest: std::collections::BTreeMap<usize, f64> = Default::default();
    for op in ops.iter().filter(|op| op.ok) {
        let best = fastest.entry(op.input?).or_insert(f64::INFINITY);
        *best = best.min(op.latency_ms);
    }
    if fastest.is_empty() {
        return None;
    }
    let latencies: Vec<f64> = fastest.into_values().collect();
    let cpu_ms_per_op = marks
        .windows(2)
        .filter_map(|round| {
            let (from, to) = (round[0], round[1]);
            let count =
                ops.iter().filter(|op| op.done_s >= from.at_s && op.done_s < to.at_s).count();
            (count > 0).then(|| (to.cpu_s - from.cpu_s) * 1e3 / count as f64)
        })
        .fold(f64::INFINITY, f64::min);
    Some(Figures {
        ops_per_s: 1e3 / mean(&latencies),
        p50_ms: percentile(&latencies, 50.0),
        p90_ms: percentile(&latencies, 90.0),
        cpu_ms_per_op,
    })
}

/// Inputs every workload runs with.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Perturb the workload's expected answers, so every op should fail the
    /// oracle (the self-test of the correctness check).
    pub wrong_answer: bool,
}

impl RunConfig {
    /// Whether round `index` is traced.  A traced run alternates traced and
    /// untraced rounds, starting traced, so the difference between the two
    /// halves is the tracing overhead measured under the same conditions.
    pub fn traces_round(&self, index: usize) -> bool {
        self.trace && index.is_multiple_of(2)
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Wall time of each set-up, in seconds, scaled by [`calibrated_s`];
    /// the first includes process statics such as the compiled rule library.
    pub setup_s: Vec<f64>,
    pub ops: Vec<OpSample>,
    /// Round boundaries of the measured phase, starting at 0.
    pub marks: Vec<Mark>,
    /// Per-layer metrics of the traced rounds: name, value, unit.
    pub layers: Vec<(String, f64, &'static str)>,
    /// Two-qubit gate counts of the compiled outputs, where the workload
    /// compiles.
    pub output_2q: Vec<f64>,
    /// Client threads (and connections) driving the load.
    pub clients: usize,
    /// Names of the inputs the workload draws from.
    pub pool: Vec<String>,
    /// Inputs deliberately left out, with the reason.
    pub excluded: Vec<(String, String)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Runs `set_up` `count` times, timing each run, and returns the last
    /// result.
    pub fn set_ups<T>(&mut self, count: usize, mut set_up: impl FnMut() -> T) -> T {
        let mut state = None;
        for _ in 0..count {
            let start = Instant::now();
            state = Some(set_up());
            self.setup_s.push(calibrated_s(start.elapsed()));
        }
        state.expect("at least one set-up")
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push((name.into(), value, unit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(latency_ms: f64, done_s: f64, input: usize) -> OpSample {
        OpSample { latency_ms, ok: true, traced: false, done_s, input: Some(input) }
    }

    fn marks(at: &[(f64, f64)]) -> Vec<Mark> {
        at.iter().map(|&(at_s, cpu_s)| Mark { at_s, cpu_s }).collect()
    }

    #[test]
    fn each_input_counts_its_fastest_run_and_cpu_its_least_round() {
        // Two rounds of inputs 0 and 1; the second round ran input 0 faster
        // and used less CPU per op.
        let ops = [op(30.0, 0.5, 0), op(40.0, 1.0, 1), op(20.0, 1.5, 0), op(50.0, 1.9, 1)];
        let figures =
            fastest_per_input(&ops, &marks(&[(0.0, 0.0), (1.2, 0.1), (2.0, 0.16)])).unwrap();
        assert_eq!(figures.p50_ms, 20.0);
        assert_eq!(figures.p90_ms, 40.0);
        assert_eq!(figures.ops_per_s, 1e3 / 30.0);
        assert!((figures.cpu_ms_per_op - 30.0).abs() < 1e-9);
        let unrepeated = OpSample { input: None, ..op(1.0, 0.1, 0) };
        assert!(fastest_per_input(&[unrepeated], &marks(&[(0.0, 0.0), (1.0, 1.0)])).is_none());
    }

    #[test]
    fn the_whole_run_counts_only_right_answers_as_throughput() {
        let mut ops: Vec<OpSample> =
            (0..20).map(|i| op(1.0 + i as f64, i as f64 * 0.1, 0)).collect();
        ops[3].ok = false;
        let figures = whole_run(&ops, &marks(&[(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)]));
        assert_eq!(figures.ops_per_s, 19.0 / 2.0);
        assert_eq!(figures.p50_ms, 10.0);
        assert_eq!(figures.p90_ms, 18.0);
        assert_eq!(figures.cpu_ms_per_op, 50.0);
    }
}
