//! The measurement pass every workload shares. A pass is a number of
//! rounds; each round starts a fresh cluster (timed: that is the set-up figure),
//! warms it open-loop, measures an open-loop segment, then a closed-loop
//! saturation burst, checks every slate against the reference, and shuts
//! the cluster down. Every round replays the same events, so every round
//! must end in the same slates.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use muppet_runtime::engine::{Engine, EngineStats};
use muppet_slatestore::StoreCluster;

use crate::clock::{now_ns, process_cpu_ns, thread_cpu_ns};
use crate::openloop::{self, latency_ns, Completions, Schedule};
use crate::stats::{percentile, ratio};
use crate::trace::{self, Span};

/// Extra clusters each round starts and stops unused, only to time the
/// set-up again: `setup_s` is the median over all of them.
const SPARE_SETUPS: usize = 2;
/// One live `read_slate` follows every this many open-loop events.
const READ_EVERY: usize = 16;
/// How long a round may take to complete after its last submit before its
/// stragglers count as never completed.
const COMPLETION_TIMEOUT: Duration = Duration::from_secs(30);

/// A started cluster: every node's engine, plus the store it writes to.
pub struct Cluster {
    /// Node engines; submits and reads go to node 0.
    pub nodes: Vec<Engine>,
    /// The attached slate store, if any.
    pub store: Option<Arc<StoreCluster>>,
    /// Scratch directory the store and WAL live in, removed on shutdown.
    pub dir: Option<std::path::PathBuf>,
}

impl Cluster {
    /// The node external events and reads go to.
    pub fn intake(&self) -> &Engine {
        &self.nodes[0]
    }

    /// Stop every node and remove the cluster's files.
    pub fn shutdown(self) {
        for node in self.nodes {
            node.shutdown();
        }
        drop(self.store);
        if let Some(dir) = self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One workload as the harness drives it. Events are numbered in
/// submission order; an *item* is what one open-loop generator step
/// submits (one event, or a frame of `frame()` events).
pub trait Workload: Sync {
    /// Operator names, in span-kind order.
    fn op_names(&self) -> &'static [&'static str];
    /// Operator invocations on one external event's path to completion.
    fn path_ops(&self) -> f64;
    /// Events per open-loop item.
    fn frame(&self) -> usize;
    /// Events per submit call in the saturation burst.
    fn burst_frame(&self) -> usize;
    /// True when the cluster's nodes talk over TCP.
    fn has_wire(&self) -> bool;
    /// Start a cluster whose completing operator stamps into `done`.
    fn start(&self, done: Arc<Completions>) -> Cluster;
    /// Submit events `events` to the cluster in one call.
    fn submit(&self, cluster: &Cluster, events: Range<usize>);
    /// One live read of the slate event `event` updates; false if the
    /// engine answered with something unreadable.
    fn read(&self, cluster: &Cluster, event: usize) -> bool;
    /// Compare the cluster's slates with the reference run over all the
    /// workload's events; returns the keys that differ.
    fn mismatches(&self, cluster: &Cluster) -> u64;
}

/// Sizes of one round.
#[derive(Clone, Copy, Debug)]
pub struct RoundPlan {
    /// Open-loop rate, external events per second.
    pub rate: f64,
    /// Open-loop events offered before the measured segment, while caches
    /// fill and threads settle.
    pub warmup_events: usize,
    /// Measured open-loop events.
    pub open_events: usize,
    /// Saturation events.
    pub sat_events: usize,
    /// Record spans.
    pub traced: bool,
}

impl RoundPlan {
    /// Events of the warm-up, the open-loop segment and the burst, rounded
    /// down to whole open-loop items of `frame` events and burst submits
    /// of `burst`.
    fn events(&self, frame: usize, burst: usize) -> [usize; 3] {
        [
            self.warmup_events / frame * frame,
            self.open_events / frame * frame,
            self.sat_events / burst * burst,
        ]
    }

    /// Events a round submits.
    pub fn round_events(&self, frame: usize, burst: usize) -> usize {
        self.events(frame, burst).iter().sum()
    }
}

/// Everything one pass measured.
pub struct PassResult {
    /// Set-up durations (s), `1 + SPARE_SETUPS` per round.
    pub setup_s: Vec<f64>,
    /// The measured rounds.
    pub rounds: Vec<Round>,
    /// The events of a round's measured open-loop segment.
    pub open_range: Range<usize>,
    /// Events submitted.
    pub attempted: u64,
    /// Lost, dropped, dead-lettered, never-completed events plus
    /// mismatching keys.
    pub failed: u64,
    /// Layer counters, summed over nodes and rounds.
    pub counters: Counters,
    /// Registry stage sums over the measured open-loop segments.
    pub open_stages: StageSums,
    /// Spans (traced passes only).
    pub spans: Vec<Span>,
}

/// What one round measured.
pub struct Round {
    /// Open-loop latencies, due time to completion (ns, sorted).
    pub latencies: Vec<u64>,
    /// Open-loop `read_slate` durations (ns, sorted).
    pub reads: Vec<u64>,
    /// Generator lags (ns, sorted).
    pub lags: Vec<u64>,
    /// Process CPU per open-loop event, generator thread excluded (µs).
    pub cpu_us_per_event: f64,
    /// Saturation burst throughput (events/s).
    pub throughput_eps: f64,
    /// Process CPU per burst event, generator thread excluded (µs).
    pub sat_cpu_us_per_event: f64,
}

macro_rules! counters {
    (sum: $($sum:ident),*; peak: $($peak:ident),*) => {
        /// Raw layer counters, summed over the cluster's nodes (and, for a
        /// pass, over its rounds; the peaks keep the largest).
        #[derive(Clone, Copy, Default, Debug)]
        pub struct Counters {
            $(pub $sum: u64,)*
            $(pub $peak: u64,)*
        }

        impl Counters {
            fn absorb(&mut self, other: &Counters) {
                $(self.$sum += other.$sum;)*
                $(self.$peak = self.$peak.max(other.$peak);)*
            }
        }
    };
}

counters! {
    sum: submitted, throttle_waits, lost, dropped, dead_letters, never_completed, mismatches,
        wal_records, wal_fsyncs, slate_parses, slate_serializations, cache_hits, cache_misses,
        cache_evictions, cache_store_loads, miss_coalesced, flush_batches, flush_writes,
        flush_failures, store_round_trips, store_writes, store_write_batches, store_reads,
        store_memtable_flushes, store_compactions, store_wal_syncs, store_bytes_written,
        net_frames_sent, net_batches_sent, net_batched_events, net_queue_full_waits,
        net_send_failures, combined_events;
    peak: queue_high_water, store_disk_bytes, net_backlog_peak
}

/// Sums and counts of the registry histograms the attribution uses. The
/// stage spans are sampled (1 in `latency_sample_n` events), so their
/// means are exact for the sample, unlike the bucketed percentiles.
#[derive(Clone, Copy, Default, Debug)]
pub struct StageSums {
    pub queue_wait_sum_us: f64,
    pub queue_wait_count: f64,
    pub fanout_sum_us: f64,
    pub fanout_count: f64,
    pub drain_sum: f64,
    pub drain_count: f64,
}

impl StageSums {
    fn read(nodes: &[Engine]) -> StageSums {
        let snap: Vec<(String, f64)> = nodes.iter().flat_map(|n| n.registry().snapshot()).collect();
        let get = |name: &str| snap.iter().filter(|(n, _)| n == name).map(|(_, v)| v).sum();
        StageSums {
            queue_wait_sum_us: get("muppet_stage_latency_us{stage=queue_wait}_sum"),
            queue_wait_count: get("muppet_stage_latency_us{stage=queue_wait}_count"),
            fanout_sum_us: get("muppet_stage_latency_us{stage=fanout}_sum"),
            fanout_count: get("muppet_stage_latency_us{stage=fanout}_count"),
            drain_sum: get("muppet_drain_batch_events_sum"),
            drain_count: get("muppet_drain_batch_events_count"),
        }
    }

    /// Add another set of sums.
    fn add(&mut self, other: StageSums) {
        self.add_delta(StageSums::default(), other);
    }

    /// Add what accumulated between `from` and `to`.
    fn add_delta(&mut self, from: StageSums, to: StageSums) {
        self.queue_wait_sum_us += to.queue_wait_sum_us - from.queue_wait_sum_us;
        self.queue_wait_count += to.queue_wait_count - from.queue_wait_count;
        self.fanout_sum_us += to.fanout_sum_us - from.fanout_sum_us;
        self.fanout_count += to.fanout_count - from.fanout_count;
        self.drain_sum += to.drain_sum - from.drain_sum;
        self.drain_count += to.drain_count - from.drain_count;
    }
}

fn collect_counters(cluster: &Cluster) -> Counters {
    let stats: Vec<EngineStats> = cluster.nodes.iter().map(Engine::stats).collect();
    let sum = |f: &dyn Fn(&EngineStats) -> u64| stats.iter().map(f).sum::<u64>();
    let mut c = Counters {
        submitted: sum(&|s| s.submitted),
        throttle_waits: sum(&|s| s.throttle_waits),
        lost: sum(&|s| s.lost_machine_failure + s.lost_in_queues),
        dropped: sum(&|s| s.dropped_overflow),
        cache_hits: sum(&|s| s.cache.hits),
        cache_misses: sum(&|s| s.cache.misses),
        cache_evictions: sum(&|s| s.cache.evictions),
        cache_store_loads: sum(&|s| s.cache.store_loads),
        miss_coalesced: sum(&|s| s.store.miss_coalesced),
        flush_batches: sum(&|s| s.store.flush_batches),
        flush_writes: sum(&|s| s.cache.flush_writes),
        flush_failures: sum(&|s| s.cache.flush_failures),
        store_round_trips: sum(&|s| s.store.store_round_trips),
        net_frames_sent: sum(&|s| s.net.frames_sent),
        net_batches_sent: sum(&|s| s.net.batches_sent),
        net_batched_events: sum(&|s| s.net.batched_events_sent),
        net_queue_full_waits: sum(&|s| s.net.queue_full_waits),
        net_send_failures: sum(&|s| s.net.send_failures),
        combined_events: sum(&|s| s.combined_events),
        queue_high_water: cluster.nodes.iter().map(Engine::max_queue_high_water).max().unwrap_or(0)
            as u64,
        ..Counters::default()
    };
    for node in &cluster.nodes {
        if let Some((records, fsyncs)) = node.ingest_wal_stats() {
            c.wal_records += records;
            c.wal_fsyncs += fsyncs;
        }
        c.dead_letters += node
            .registry()
            .snapshot()
            .iter()
            .filter(|(name, _)| name == "muppet_dead_letters_total")
            .map(|(_, v)| *v as u64)
            .sum::<u64>();
    }
    if let Some(store) = &cluster.store {
        let s = store.stats();
        c.store_writes = s.writes_ok;
        c.store_write_batches = s.write_batches;
        c.store_reads = s.reads_ok;
        c.store_memtable_flushes = s.node.flushes;
        c.store_compactions = s.node.compactions;
        c.store_wal_syncs = store.wal_sync_count();
        c.store_bytes_written = store.io_stats().write_bytes;
        c.store_disk_bytes = store.disk_bytes();
    }
    c
}

/// Peak of the nodes' summed outbound wire backlog, sampled until `stop`.
fn watch_backlog(nodes: &[Engine], stop: &AtomicBool) -> u64 {
    let mut peak = 0;
    while !stop.load(Ordering::Relaxed) {
        peak = peak.max(nodes.iter().map(|n| n.stats().net.outbound_backlog).sum());
        std::thread::sleep(Duration::from_millis(5));
    }
    peak
}

/// Run `rounds` rounds of `plan`. Each round runs its generator on a
/// fresh thread, as it runs the engine on fresh threads, so no thread's
/// history carries from one round into the next.
pub fn run_pass(w: &dyn Workload, plan: &RoundPlan, rounds: usize) -> PassResult {
    let [warm, open, _] = plan.events(w.frame(), w.burst_frame());
    let mut pass = PassResult {
        setup_s: Vec::with_capacity(rounds * (1 + SPARE_SETUPS)),
        rounds: Vec::with_capacity(rounds),
        open_range: warm..warm + open,
        attempted: 0,
        failed: 0,
        counters: Counters::default(),
        open_stages: StageSums::default(),
        spans: Vec::new(),
    };
    for _ in 0..rounds {
        let r = std::thread::scope(|s| s.spawn(|| run_round(w, plan)).join())
            .expect("round generator panicked");
        pass.setup_s.extend(r.setup_s);
        pass.counters.absorb(&r.counters);
        pass.open_stages.add(r.open_stages);
        pass.rounds.push(r.round);
        pass.attempted += r.events as u64;
    }
    let c = &pass.counters;
    pass.failed = c.lost + c.dropped + c.dead_letters + c.never_completed + c.mismatches;
    pass.spans = trace::take_all();
    pass
}

/// What one round hands back to its pass.
struct RoundResult {
    setup_s: Vec<f64>,
    round: Round,
    counters: Counters,
    open_stages: StageSums,
    events: usize,
}

/// Time the set-ups, run one round on the last cluster, check and stop it.
fn run_round(w: &dyn Workload, plan: &RoundPlan) -> RoundResult {
    let [warm, open, sat] = plan.events(w.frame(), w.burst_frame());
    let events = warm + open + sat;
    crate::clock::precise_sleeps();
    let mut setup_s = Vec::with_capacity(1 + SPARE_SETUPS);
    for _ in 0..SPARE_SETUPS {
        let t0 = now_ns();
        let spare = w.start(Arc::new(Completions::new(0)));
        setup_s.push((now_ns() - t0) as f64 / 1e9);
        spare.shutdown();
    }
    let done = Arc::new(Completions::new(events));
    let t0 = now_ns();
    let cluster = w.start(Arc::clone(&done));
    setup_s.push((now_ns() - t0) as f64 / 1e9);

    let (parses0, sers0) = muppet_core::slate::repr_counters();
    trace::set_enabled(plan.traced);
    let stop = AtomicBool::new(false);
    let mut open_stages = StageSums::default();
    let (round, backlog_peak) = std::thread::scope(|s| {
        let watch = plan.traced && w.has_wire();
        let watcher = watch.then(|| s.spawn(|| watch_backlog(&cluster.nodes, &stop)));
        open_segment(w, &cluster, plan, 0..warm, &done);
        let before = StageSums::read(&cluster.nodes);
        let mut round = open_segment(w, &cluster, plan, warm..warm + open, &done);
        open_stages.add_delta(before, StageSums::read(&cluster.nodes));
        (round.throughput_eps, round.sat_cpu_us_per_event) =
            saturate(w, &cluster, warm + open..events, &done);
        stop.store(true, Ordering::Relaxed);
        (round, watcher.map_or(0, |h| h.join().expect("backlog watcher")))
    });
    trace::set_enabled(false);
    let (parses1, sers1) = muppet_core::slate::repr_counters();

    let mut counters = collect_counters(&cluster);
    counters.net_backlog_peak = backlog_peak;
    counters.slate_parses = parses1 - parses0;
    counters.slate_serializations = sers1 - sers0;
    counters.never_completed = (events - done.completed()) as u64;
    counters.mismatches = w.mismatches(&cluster);
    cluster.shutdown();
    RoundResult { setup_s, round, counters, open_stages, events }
}

/// Offer events `events` open-loop at the plan's rate, one item of
/// `frame()` events at a time, and wait for them.
fn open_segment(
    w: &dyn Workload,
    cluster: &Cluster,
    plan: &RoundPlan,
    events: Range<usize>,
    done: &Completions,
) -> Round {
    let frame = w.frame();
    let schedule = Schedule::per_sec(plan.rate / frame as f64);
    let item_events = |k: usize| events.start + k * frame..events.start + (k + 1) * frame;
    let mut reads = Vec::with_capacity(events.len() / READ_EVERY + 1);
    let (cpu0, gen0) = (process_cpu_ns(), thread_cpu_ns());
    let start = now_ns() + 1_000_000;
    let mut lags = openloop::drive(start, schedule, events.len() / frame, |k| {
        let item = item_events(k);
        let t0 = now_ns();
        w.submit(cluster, item.clone());
        let t1 = now_ns();
        trace::record(trace::SUBMIT, item.start as u64, t0, t1);
        for event in item.filter(|e| e % READ_EVERY == 0) {
            let t2 = now_ns();
            let ok = w.read(cluster, event);
            let t3 = now_ns();
            trace::record(trace::READ, event as u64, t2, t3);
            if ok {
                reads.push(t3 - t2);
            }
        }
    });
    done.wait_all(events.clone(), COMPLETION_TIMEOUT);
    let cpu_ns = (process_cpu_ns() - cpu0) - (thread_cpu_ns() - gen0);
    let due = |i: usize| start + schedule.offset_ns((i - events.start) / frame);
    let mut latencies: Vec<u64> =
        events.clone().map(|i| latency_ns(done.done_ns(i), due(i))).collect();
    latencies.sort_unstable();
    reads.sort_unstable();
    lags.sort_unstable();
    Round {
        latencies,
        reads,
        lags,
        cpu_us_per_event: ratio(cpu_ns as f64 / 1e3, events.len() as f64),
        throughput_eps: 0.0,
        sat_cpu_us_per_event: 0.0,
    }
}

/// Submit events `events`, `burst_frame()` per call, as fast as the
/// cluster accepts them. Returns events per second from the first submit
/// to the last completion, and the process CPU per event (µs) with the
/// generator thread's own left out.
fn saturate(
    w: &dyn Workload,
    cluster: &Cluster,
    events: Range<usize>,
    done: &Completions,
) -> (f64, f64) {
    let burst = w.burst_frame();
    let (cpu0, gen0) = (process_cpu_ns(), thread_cpu_ns());
    let start = now_ns();
    for first in events.clone().step_by(burst) {
        let t0 = now_ns();
        w.submit(cluster, first..first + burst);
        trace::record(trace::SUBMIT, first as u64, t0, now_ns());
    }
    done.wait_all(events.clone(), COMPLETION_TIMEOUT);
    let cpu_ns = (process_cpu_ns() - cpu0) - (thread_cpu_ns() - gen0);
    let end = done.last_done_ns(events.clone());
    let n = events.len() as f64;
    (ratio(n, end.saturating_sub(start) as f64 / 1e9), ratio(cpu_ns as f64 / 1e3, n))
}

/// `p`-th percentile of sorted nanoseconds, in µs.
pub fn pct_us(sorted_ns: &[u64], p: f64) -> f64 {
    percentile(sorted_ns, p).map_or(0.0, |ns| ns as f64 / 1e3)
}
