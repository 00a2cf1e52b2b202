//! Load loops, failure accounting and the report every workload fills.

use crate::trace::Tracer;
use crate::util::{median, percentile, quantile, Digest};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Load threads: never more than the cores this process may run on, and
/// never more than two, so the generator does not compete with what it
/// measures on the two-core sandbox the bounds were fixed on. A process
/// pinned to one core (see `pinned` in `main.rs`) gets one.
pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// What an invocation asked for.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Documents ÷ 20 — for the smoke test only, never for recorded numbers.
    pub quick: bool,
    /// Scratch directory inside the checkout (data dirs, trace files).
    pub out_dir: std::path::PathBuf,
}

impl Ctx {
    pub fn nodes(&self, full: usize) -> usize {
        if self.quick {
            (full / 20).max(400)
        } else {
            full
        }
    }

    /// How often set-up is repeated, at least.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.quick {
            2
        } else {
            full
        }
    }

    /// Seconds a short set-up goes on repeating for (see `timed_setup`).
    pub fn setup_fill_s(&self) -> f64 {
        if self.quick {
            0.0
        } else {
            1.0
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Read = 0,
    Batch = 1,
    Update = 2,
}

impl Kind {
    /// Name of the whole-op span of an op of this kind.
    pub fn root_span(self) -> &'static str {
        match self {
            Kind::Read => "op.read",
            Kind::Batch => "op.batch",
            Kind::Update => "op.update",
        }
    }
}

pub const KINDS: [(Kind, &str); 3] = [
    (Kind::Read, "read"),
    (Kind::Batch, "batch"),
    (Kind::Update, "update"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// `Busy` / `Overloaded`: refused before execution. A failure.
    Refused,
    /// The expected opaque `UpdateDenied`. Not a failure.
    Denied,
    /// Any other engine or remote error. A failure.
    Error,
    /// Broken framing or a dead connection. A failure.
    Protocol,
    /// The answer differs from the oracle's. A failure.
    Mismatch,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub refused: u64,
    pub denied: u64,
    pub error: u64,
    pub protocol: u64,
    pub mismatch: u64,
}

impl Tally {
    pub fn count(&mut self, status: Status) {
        self.attempted += 1;
        match status {
            Status::Ok => self.ok += 1,
            Status::Refused => self.refused += 1,
            Status::Denied => self.denied += 1,
            Status::Error => self.error += 1,
            Status::Protocol => self.protocol += 1,
            Status::Mismatch => self.mismatch += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.refused + self.error + self.protocol + self.mismatch
    }

    fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.refused += o.refused;
        self.denied += o.denied;
        self.error += o.error;
        self.protocol += o.protocol;
        self.mismatch += o.mismatch;
    }
}

/// What one op reports back to the load loop.
pub struct OpResult {
    pub kind: Kind,
    pub status: Status,
    /// Time of the façade call alone (staged replays excluded).
    pub start: Instant,
    pub end: Instant,
}

/// One op as the load loop saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When the op started (closed loop) or was due (open loop), in
    /// nanoseconds since its loop began.
    pub start_ns: u64,
    /// Saturates at about 4.3 s.
    pub latency_ns: u32,
    pub kind: Kind,
    pub status: Status,
}

/// Samples one thread keeps at most. A thread that produces more keeps
/// every second, fourth, … op from then on (the counts stay exact), so
/// the memory the benchmark itself needs stops growing with the speed of
/// what it measures — or a faster server would read as a fatter one in
/// `peak_rss_mb`.
pub const SAMPLE_CAP: usize = 1 << 17;

/// Everything one load thread observed.
pub struct Observed {
    /// Every `stride`-th op, in order.
    pub samples: Vec<Sample>,
    /// How many ops each kept sample stands for.
    pub stride: u64,
    /// Exact counts per [`Kind`], whatever the stride.
    tally: [Tally; 3],
    /// Open loop only: how late each request was actually sent (ns).
    pub send_lag: Vec<u64>,
}

impl Default for Observed {
    fn default() -> Self {
        Observed {
            samples: Vec::new(),
            stride: 1,
            tally: [Tally::default(); 3],
            send_lag: Vec::new(),
        }
    }
}

impl Observed {
    fn record(&mut self, start_ns: u64, kind: Kind, status: Status, latency_ns: u64) {
        let tally = &mut self.tally[kind as usize];
        tally.count(status);
        if !(self.attempted() - 1).is_multiple_of(self.stride) {
            return;
        }
        self.samples.push(Sample {
            start_ns,
            latency_ns: latency_ns.min(u64::from(u32::MAX)) as u32,
            kind,
            status,
        });
        if self.samples.len() >= SAMPLE_CAP {
            self.thin(self.stride * 2);
        }
    }

    /// Keeps every `stride / self.stride`-th sample.
    fn thin(&mut self, stride: u64) {
        let step = (stride / self.stride) as usize;
        let mut n = 0;
        self.samples.retain(|_| {
            n += 1;
            (n - 1) % step == 0
        });
        self.stride = stride;
    }

    pub fn merge(&mut self, mut o: Observed) {
        // One stride for all: thin the finer side down to the coarser.
        let stride = self.stride.max(o.stride);
        self.thin(stride);
        o.thin(stride);
        self.samples.append(&mut o.samples);
        for (mine, theirs) in self.tally.iter_mut().zip(&o.tally) {
            mine.add(theirs);
        }
        self.send_lag.append(&mut o.send_lag);
    }

    pub fn tally(&self, kind: Kind) -> Tally {
        self.tally[kind as usize]
    }

    pub fn attempted(&self) -> u64 {
        self.tally.iter().map(|t| t.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.tally.iter().map(Tally::failed).sum()
    }

    /// Ops of the given kinds that completed OK.
    pub fn ok(&self, kinds: &[Kind]) -> u64 {
        kinds.iter().map(|kind| self.tally(*kind).ok).sum()
    }

    /// Latencies (ns) of the sampled OK ops of the given kinds.
    pub fn latencies(&self, kinds: &[Kind]) -> Vec<u64> {
        self.samples
            .iter()
            .filter(|s| s.status == Status::Ok && kinds.contains(&s.kind))
            .map(|s| u64::from(s.latency_ns))
            .collect()
    }
}

/// Single queries and batches together: the read population.
pub const READS: [Kind; 2] = [Kind::Read, Kind::Batch];

/// Latency limits behind `within_limit_frac`, nanoseconds.
#[derive(Clone, Copy)]
pub struct Limits {
    pub read_ns: u64,
    pub write_ns: u64,
}

impl Limits {
    pub const fn ms(read: u64, write: u64) -> Limits {
        Limits {
            read_ns: read * 1_000_000,
            write_ns: write * 1_000_000,
        }
    }

    fn of(&self, kind: Kind) -> u64 {
        match kind {
            Kind::Read | Kind::Batch => self.read_ns,
            Kind::Update => self.write_ns,
        }
    }
}

/// Share of the run spent untraced before the traced part starts, so a
/// traced run can report its own overhead.
const UNTRACED_SHARE: f64 = 0.3;

/// A closed loop on this thread: the next op starts when the previous one
/// returned. `op(i, tracer)` runs op number `i`; with a tracer it also
/// replays the op staged by hand. Returns the untraced and the traced
/// observations (the second stays empty without `tracer`).
pub fn closed_loop(
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    mut op: impl FnMut(u64, Option<&mut Tracer>) -> OpResult,
) -> (Observed, Observed) {
    let begin = Instant::now();
    let end = begin + Duration::from_secs_f64(seconds);
    let traced_from = match tracer {
        Some(_) => begin + Duration::from_secs_f64(seconds * UNTRACED_SHARE),
        None => end,
    };
    let (mut plain, mut traced) = (Observed::default(), Observed::default());
    let mut i = 0u64;
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        let tracing = now >= traced_from;
        let r = op(i, if tracing { tracer.as_deref_mut() } else { None });
        let latency = r.end.saturating_duration_since(r.start).as_nanos() as u64;
        let started = r.start.saturating_duration_since(begin).as_nanos() as u64;
        let into = if tracing { &mut traced } else { &mut plain };
        into.record(started, r.kind, r.status, latency);
        if tracing {
            if let Some(t) = tracer.as_deref_mut() {
                t.root(r.kind.root_span(), i, r.start, r.end);
                t.finish_request();
            }
        }
        i += 1;
    }
    (plain, traced)
}

/// Time as the open loop sees it, so the loop can be tested on a
/// synthetic schedule.
pub trait Clock {
    /// Nanoseconds since the loop's origin.
    fn now(&self) -> u64;
    fn sleep_until(&self, t_ns: u64);
}

pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Spins, yielding the processor to whoever else wants it. A
    /// sleeping generator lets the processor halt between requests, and
    /// what waking a halted virtual processor costs (timer slack, the
    /// host scheduling it back in) is several times a point query and
    /// moves with the host's load — the request median would measure
    /// that. Yielding keeps the server's threads ahead of the generator.
    fn sleep_until(&self, t_ns: u64) {
        while self.now() < t_ns {
            std::thread::yield_now();
        }
    }
}

/// An open loop on one connection: request `i` is *due* at
/// `i * interval_ns` whatever happened to the requests before it. A
/// blocking connection that is still busy sends late; latency counts from
/// the due time, so a stall is charged to every request it delays, and
/// `send_lag` records how late each send was. `op` says when, by the
/// clock, its answer arrived (what a traced op does after that delays the
/// next send but is not part of its own latency).
pub fn open_loop<C: Clock>(
    clock: &C,
    interval_ns: u64,
    until_ns: u64,
    mut op: impl FnMut(u64) -> (Kind, Status, u64),
) -> Observed {
    let mut seen = Observed::default();
    for i in 0.. {
        let due = i * interval_ns;
        if due >= until_ns {
            break;
        }
        clock.sleep_until(due);
        seen.send_lag.push(clock.now().saturating_sub(due));
        let (kind, status, answered) = op(i);
        seen.record(due, kind, status, answered.saturating_sub(due));
    }
    seen
}

/// Repetitions of set-up at most, however short it is.
const SETUP_REPS_MAX: usize = 400;

/// Runs `setup` at least `reps` times and on until `fill_s` seconds have
/// gone into it (a set-up of a few milliseconds repeats a few hundred
/// times, so its time is as steady as that of a long one), keeps the
/// last product and returns the first quartile of the wall times in
/// seconds: like every time here it only ever reads too long (a busy
/// neighbour for the second or two that set-up has), and under such
/// bursts the median of the repetitions moved by a quarter between runs
/// where the first quartile stays put.
pub fn timed_setup<T>(reps: usize, fill_s: f64, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    let begin = Instant::now();
    while times.len() < reps.max(1)
        || (times.len() < SETUP_REPS_MAX && begin.elapsed().as_secs_f64() < fill_s)
    {
        drop(last.take()); // one live product at a time: peaks must not add up
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one repetition"),
        quantile(&mut times, 0.25),
    )
}

/// What a workload hands back.
pub struct Report {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
}

/// How a workload's samples turn into end-to-end metrics.
#[derive(Clone, Copy)]
pub struct Shape {
    /// The kinds `throughput_ops_s` counts.
    pub primary: &'static [Kind],
    /// What one primary op stands for (eight queries per batch, say).
    pub per_op: f64,
    pub limits: Limits,
    /// An open loop offers a fixed rate, so its throughput is not the
    /// quiet slice's (every slice holds the requests that were due in
    /// it) but all OK primary ops ÷ the time the last of them took to
    /// complete: the offered rate unless the server falls behind.
    pub open: bool,
}

/// Slices a run is cut into.
pub const SLICES: u64 = 20;

/// Which slice speaks for the run, as a quantile over the slices counted
/// from the quiet end: 0, the quietest one. The sandbox is a virtual
/// machine on a shared host; when a neighbour is busy its processors run
/// a third to a half slower, for seconds or for most of a run — nothing
/// the guest can see or subtract. Such noise only ever adds time, so the
/// quietest slice is what the code costs, and it is the only statistic
/// that repeats when a run has one quiet second in it: under a neighbour
/// that took the processors half of the time the quietest slice of the
/// same code repeated within 4 to 10 % and the quartile slice within 14
/// to 35 %; on a quiet host both repeat within 3 %. What it cannot show is a stall that recurs less
/// often than once a slice: `within_limit_frac` and the whole-run
/// percentiles in the printed lines are there for that.
pub const QUIET: f64 = 0.0;

/// The steady estimators of one run of `run_ns`: every statistic is taken
/// per slice of wall time, and the slice at the [`QUIET`] end reports —
/// the highest throughput, the lowest p50, the lowest p95, each over the
/// slices. A slice speaks for the latencies only if it holds at least
/// half as many reads as the median slice, so that a slice in which the
/// readers were starved cannot report the two fast reads it saw.
///
/// * throughput — OK primary ops per second of the slice, an op that
///   straddles a boundary counting towards each slice by the share of its
///   time spent there (so a slow loop's rate is not rounded to whole ops);
/// * read latency — nearest-rank p50 and p95 of the OK reads that started
///   (or were due) in the slice.
///
/// The within-limit share is taken over the whole run instead — of
/// everything attempted, the share answered OK within the limit — so a
/// stall that the quiet slices would hide still shows there.
pub struct Sliced {
    pub throughput_ops_s: f64,
    pub read_p50_us: f64,
    pub read_p95_us: f64,
    pub within_limit_frac: f64,
}

pub fn sliced(seen: &Observed, run_ns: u64, shape: &Shape) -> Sliced {
    let samples = &seen.samples;
    let width = (run_ns / SLICES).max(1);
    let slice_of = |t: u64| (t / width).min(SLICES - 1) as usize;
    let n = SLICES as usize;
    let mut work = vec![0.0f64; n];
    let mut reads: Vec<Vec<u64>> = vec![Vec::new(); n];
    let (mut within, mut last_end) = (0u64, 0u64);
    for s in samples {
        let at = slice_of(s.start_ns);
        if s.status != Status::Ok {
            continue;
        }
        let latency_ns = u64::from(s.latency_ns);
        within += u64::from(latency_ns <= shape.limits.of(s.kind));
        if READS.contains(&s.kind) {
            reads[at].push(latency_ns);
        }
        if shape.primary.contains(&s.kind) {
            let (from, to) = (s.start_ns, s.start_ns + latency_ns.max(1));
            last_end = last_end.max(to);
            for (slice, share) in work.iter_mut().enumerate().skip(at) {
                let (lo, hi) = (slice as u64 * width, (slice as u64 + 1) * width);
                if lo >= to {
                    break;
                }
                let overlap = to.min(hi).saturating_sub(from.max(lo));
                // Each kept sample stands for `stride` ops like it.
                *share += seen.stride as f64 * overlap as f64 / (to - from) as f64;
            }
        }
    }
    let mut rates: Vec<f64> = work
        .iter()
        .map(|ops| ops * shape.per_op / (width as f64 / 1e9))
        .collect();
    let mut counts: Vec<f64> = reads.iter().map(|slice| slice.len() as f64).collect();
    let enough = (median(&mut counts) / 2.0).max(1.0) as usize;
    let (mut p50s, mut p95s) = (Vec::new(), Vec::new());
    for slice in reads.iter_mut().filter(|slice| slice.len() >= enough) {
        slice.sort_unstable();
        p50s.push(percentile(slice, 50.0) as f64 / 1e3);
        p95s.push(percentile(slice, 95.0) as f64 / 1e3);
    }
    let throughput_ops_s = if shape.open {
        seen.ok(shape.primary) as f64 * shape.per_op / (last_end.max(1) as f64 / 1e9)
    } else {
        quantile(&mut rates, 1.0 - QUIET)
    };
    Sliced {
        throughput_ops_s,
        read_p50_us: quantile(&mut p50s, QUIET),
        read_p95_us: quantile(&mut p95s, QUIET),
        within_limit_frac: within as f64 / samples.len().max(1) as f64,
    }
}

/// The end-to-end set of an untraced run.
pub fn end_to_end(
    setup_s: f64,
    seen: &Observed,
    run_ns: u64,
    shape: &Shape,
) -> BTreeMap<&'static str, f64> {
    let steady = sliced(seen, run_ns, shape);
    BTreeMap::from([
        ("setup_s", setup_s),
        ("throughput_ops_s", steady.throughput_ops_s),
        ("query_p50_us", steady.read_p50_us),
        ("query_p95_us", steady.read_p95_us),
        ("within_limit_frac", steady.within_limit_frac),
        ("peak_rss_mb", crate::util::peak_rss_mb()),
    ])
}

/// The per-kind accounting lines every workload prints.
pub fn tally_lines(seen: &Observed) -> Vec<String> {
    let mut lines = Vec::new();
    for (kind, name) in KINDS {
        let t = seen.tally(kind);
        if t.attempted == 0 {
            continue;
        }
        lines.push(format!(
            "  {name}: attempted={} ok={} refused={} denied={} error={} protocol_error={} mismatch={}",
            t.attempted, t.ok, t.refused, t.denied, t.error, t.protocol, t.mismatch
        ));
        lines.push(Digest::of(&mut seen.latencies(&[kind])).line(&format!("{name} latency")));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when the loop sleeps or an op "runs".
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now(&self) -> u64 {
            self.0.get()
        }

        fn sleep_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_it_delays() {
        // Due every 10; request 1 stalls for 35, everything else takes 2.
        let clock = FakeClock(Cell::new(0));
        let seen = open_loop(&clock, 10, 60, |i| {
            clock.0.set(clock.0.get() + if i == 1 { 35 } else { 2 });
            (Kind::Read, Status::Ok, clock.now())
        });
        // 0: 0..2. 1: 10..45. 2 (due 20) waits until 45, ends 47 -> 27.
        // 3 (due 30): 47..49 -> 19. 4 (due 40): 49..51 -> 11. 5: 51..53 -> 3.
        assert_eq!(seen.latencies(&READS), vec![2, 35, 27, 19, 11, 3]);
        assert_eq!(seen.send_lag, vec![0, 0, 25, 17, 9, 1]);
        // Closed-loop timing would have seen 2 for all but the stalled one.
        let due: Vec<u64> = seen.samples.iter().map(|s| s.start_ns).collect();
        assert_eq!(due, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn refused_and_failed_ops_miss_the_limit_and_count_as_failed() {
        let clock = FakeClock(Cell::new(0));
        let seen = open_loop(&clock, 10, 40, |i| {
            let status = match i {
                1 => Status::Refused,
                2 => Status::Denied,
                3 => Status::Mismatch,
                _ => Status::Ok,
            };
            (Kind::Update, status, clock.now())
        });
        assert_eq!(seen.attempted(), 4);
        assert_eq!(seen.ok(&[Kind::Update]), 1);
        assert_eq!(seen.failed(), 2); // the expected denial is not a failure
        let shape = Shape {
            primary: &[Kind::Update],
            per_op: 1.0,
            limits: Limits::ms(1, 1),
            open: false,
        };
        // Of four attempted, only the OK one is within the limit.
        let steady = sliced(&seen, 40, &shape);
        assert_eq!(steady.within_limit_frac, 0.25);
    }

    const READ_SHAPE: Shape = Shape {
        primary: &[Kind::Read],
        per_op: 1.0,
        limits: Limits::ms(50, 250),
        open: false,
    };

    /// Back-to-back reads of `latency(now)` ns until `run_ns`.
    fn back_to_back(run_ns: u64, latency: impl Fn(u64) -> u64) -> Observed {
        let (mut seen, mut now) = (Observed::default(), 0);
        while now < run_ns {
            let latency_ns = latency(now);
            seen.record(now, Kind::Read, Status::Ok, latency_ns);
            now += latency_ns;
        }
        seen
    }

    #[test]
    fn the_quietest_slice_ignores_bursts_of_noise() {
        let run_ns = 20_000_000;
        let quiet = sliced(&back_to_back(run_ns, |_| 1_000), run_ns, &READ_SHAPE);
        assert!((quiet.throughput_ops_s - 1e6).abs() < 1.0);
        assert_eq!(quiet.read_p50_us, 1.0);
        // All but two of the twenty slices run three times slower.
        let noisy = back_to_back(run_ns, |now| {
            if (3_000_000..5_000_000).contains(&now) {
                1_000
            } else {
                3_000
            }
        });
        let steady = sliced(&noisy, run_ns, &READ_SHAPE);
        assert!((steady.throughput_ops_s - 1e6).abs() < 1.0);
        assert_eq!((steady.read_p50_us, steady.read_p95_us), (1.0, 1.0));
        assert_eq!(steady.within_limit_frac, 1.0);
    }

    #[test]
    fn a_slice_with_few_reads_does_not_speak_for_the_latencies() {
        // Reads of 10 µs, but for a lone 1 µs read in a slice otherwise
        // taken up by one long stall.
        let run_ns = 20_000_000;
        let seen = back_to_back(run_ns, |now| match now {
            5_000_000 => 1_000,
            5_001_000 => 999_000,
            _ => 10_000,
        });
        let steady = sliced(&seen, run_ns, &READ_SHAPE);
        assert_eq!((steady.read_p50_us, steady.read_p95_us), (10.0, 10.0));
    }

    #[test]
    fn a_fast_thread_keeps_a_bounded_sample_and_exact_counts() {
        // Three times the cap of 1 µs reads: thinned twice, to every fourth.
        let ops = 3 * SAMPLE_CAP as u64;
        let run_ns = ops * 1_000;
        let mut seen = back_to_back(run_ns, |_| 1_000);
        assert_eq!(seen.attempted(), ops);
        assert_eq!(seen.stride, 4);
        assert!(seen.samples.len() < SAMPLE_CAP);
        assert!(seen
            .samples
            .windows(2)
            .all(|w| w[1].start_ns - w[0].start_ns == 4_000));
        // The thinned sample still reports the rate of all the ops …
        let steady = sliced(&seen, run_ns, &READ_SHAPE);
        assert!((steady.throughput_ops_s / 1e6 - 1.0).abs() < 1e-3);
        // … and merging brings a finer thread down to the same stride.
        seen.merge(back_to_back(1_000_000, |_| 1_000));
        assert_eq!(seen.stride, 4);
        assert_eq!(seen.attempted(), ops + 1_000);
        assert_eq!(seen.ok(&READS), ops + 1_000);
    }

    #[test]
    fn sliced_throughput_counts_straddling_ops_by_share() {
        // Ops of 0.7 slices each: no slice holds a whole number of them,
        // yet every full slice reports the same rate.
        let run_ns = 20_000_000;
        let steady = sliced(&back_to_back(run_ns, |_| 700_000), run_ns, &READ_SHAPE);
        assert!((steady.throughput_ops_s - 1e9 / 700_000.0).abs() < 1e-6);
    }

    #[test]
    fn timed_setup_keeps_the_last_product() {
        let mut n = 0;
        let (last, secs) = timed_setup(3, 0.0, || {
            n += 1;
            n
        });
        assert_eq!(last, 3);
        assert!(secs >= 0.0);
    }
}
