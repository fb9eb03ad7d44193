//! Open-loop load and latency bookkeeping.
//!
//! The generator sends item `i` (one event, or one frame of events) when
//! it falls due at `start + i * period`, whatever the system is doing, and
//! every event's latency runs from its due time — so a stall in the
//! generator or the engine shows in the latency of everything queued
//! behind it. How late the generator itself ran is recorded as its lag.
//!
//! Completion is stamped from inside the operator wrappers, in one of two
//! ways:
//! * by root: the runtime stamps every output `input ts + 1`, so an
//!   operator at depth `d` sees `root_ts + d`; with root timestamps spaced
//!   wider than the pipeline is deep, [`RootMap`] recovers the root index;
//! * by count ([`CountCompletion`]): for unit counters, the `j`-th event of
//!   key `k` is complete once `k`'s applied count reaches `j`, which stays
//!   true when the engine folds a run of events into one delivery.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crate::clock::now_ns;

/// A fixed-rate schedule: item `i` is due `i * period` after the start.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    period_ns: f64,
}

impl Schedule {
    /// `items_per_sec` items per second.
    pub fn per_sec(items_per_sec: f64) -> Schedule {
        assert!(items_per_sec > 0.0, "rate must be positive");
        Schedule { period_ns: 1e9 / items_per_sec }
    }

    /// Offset of item `i`'s due time from the schedule start.
    pub fn offset_ns(&self, i: usize) -> u64 {
        (i as f64 * self.period_ns).round() as u64
    }
}

/// Below this much time to go, the generator yields instead of sleeping.
const SPIN_NS: u64 = 20_000;

/// Block until the shared clock reads `due_ns`: sleep while the target is
/// far away, then yield the CPU until it arrives.
pub fn wait_until(due_ns: u64) {
    loop {
        let now = now_ns();
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(left - SPIN_NS / 2));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Send `n` items on `schedule` from `start_ns`, calling `send(i)` once
/// each item is due. Returns each item's lag: how late `send` started.
pub fn drive(start_ns: u64, schedule: Schedule, n: usize, mut send: impl FnMut(usize)) -> Vec<u64> {
    let mut lags = Vec::with_capacity(n);
    for i in 0..n {
        let due = start_ns + schedule.offset_ns(i);
        wait_until(due);
        lags.push(now_ns() - due);
        send(i);
    }
    lags
}

/// Per-event completion stamps on the shared clock (0 = not yet).
pub struct Completions {
    done: Vec<AtomicU64>,
    completed: AtomicUsize,
}

impl Completions {
    /// Room for `n` events, none complete.
    pub fn new(n: usize) -> Completions {
        Completions {
            done: (0..n).map(|_| AtomicU64::new(0)).collect(),
            completed: AtomicUsize::new(0),
        }
    }

    /// Stamp event `i` complete at `t_ns` (the first stamp wins).
    pub fn mark(&self, i: usize, t_ns: u64) {
        if let Some(slot) = self.done.get(i) {
            if slot.compare_exchange(0, t_ns.max(1), Ordering::Relaxed, Ordering::Relaxed).is_ok() {
                self.completed.fetch_add(1, Ordering::Release);
            }
        }
    }

    /// Completion time of event `i`, if it completed.
    pub fn done_ns(&self, i: usize) -> Option<u64> {
        match self.done[i].load(Ordering::Relaxed) {
            0 => None,
            t => Some(t),
        }
    }

    /// Events stamped so far.
    pub fn completed(&self) -> usize {
        self.completed.load(Ordering::Acquire)
    }

    /// Wait until events `range` are all complete or `timeout` passes;
    /// true when they all completed.
    pub fn wait_all(&self, range: std::ops::Range<usize>, timeout: Duration) -> bool {
        let deadline = now_ns() + timeout.as_nanos() as u64;
        let mut next = range.start;
        loop {
            while next < range.end && self.done_ns(next).is_some() {
                next += 1;
            }
            if next == range.end {
                return true;
            }
            if now_ns() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Latest completion stamp among events `range` (0 if none).
    pub fn last_done_ns(&self, range: std::ops::Range<usize>) -> u64 {
        range.filter_map(|i| self.done_ns(i)).max().unwrap_or(0)
    }
}

/// Latency of one event from its due time; `u64::MAX` when it never
/// completed, so it sorts above every limit.
pub fn latency_ns(done: Option<u64>, due_ns: u64) -> u64 {
    done.map_or(u64::MAX, |t| t.saturating_sub(due_ns))
}

/// Recovers a root event's index from the timestamp an operator sees.
/// Root `i` carries timestamp `base + i * gap`; an operator at depth `d`
/// of the pipeline sees that plus `d`, which maps back uniquely while
/// every depth stays below `gap`.
#[derive(Clone, Copy, Debug)]
pub struct RootMap {
    base: u64,
    gap: u64,
}

impl RootMap {
    /// Roots spaced `gap` apart from `base`, for a pipeline whose deepest
    /// operator runs at depth `max_depth`.
    pub fn new(base: u64, gap: u64, max_depth: u64) -> RootMap {
        assert!(gap > max_depth, "root spacing {gap} collides with pipeline depth {max_depth}");
        RootMap { base, gap }
    }

    /// The root index behind timestamp `ts`.
    pub fn root(&self, ts: u64) -> usize {
        (ts.saturating_sub(self.base) / self.gap) as usize
    }
}

/// Count-based completion for unit counters: for every key, the indices of
/// its events in submission order (a CSR layout over key ranks).
pub struct CountCompletion {
    offsets: Vec<u32>,
    events: Vec<u32>,
}

impl CountCompletion {
    /// `ranks[i]` is the key rank of event `i`, below `n_keys`.
    pub fn new(ranks: &[u32], n_keys: usize) -> CountCompletion {
        let mut offsets = vec![0u32; n_keys + 1];
        for &r in ranks {
            offsets[r as usize + 1] += 1;
        }
        for k in 0..n_keys {
            offsets[k + 1] += offsets[k];
        }
        let mut fill = offsets.clone();
        let mut events = vec![0u32; ranks.len()];
        for (i, &r) in ranks.iter().enumerate() {
            events[fill[r as usize] as usize] = i as u32;
            fill[r as usize] += 1;
        }
        CountCompletion { offsets, events }
    }

    /// Events of key `rank` whose ordinal (1-based) lies in
    /// `before + 1 ..= after`: those a count moving from `before` to
    /// `after` has just completed.
    pub fn covered(&self, rank: usize, before: u64, after: u64) -> &[u32] {
        let (lo, hi) = (self.offsets[rank] as usize, self.offsets[rank + 1] as usize);
        let from = (lo + before as usize).min(hi);
        let to = (lo + after as usize).min(hi);
        &self.events[from..to.max(from)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;

    #[test]
    fn schedule_spaces_items_evenly() {
        let s = Schedule::per_sec(1000.0);
        assert_eq!(s.offset_ns(0), 0);
        assert_eq!(s.offset_ns(1), 1_000_000);
        assert_eq!(s.offset_ns(2500), 2_500_000_000);
    }

    #[test]
    fn a_generator_stall_shows_in_lag_and_in_later_latencies() {
        // 1,000 items at 20k/s (50 µs apart, 50 ms in all); item 50's send
        // stalls 20 ms. Processing is instant (completion = end of send),
        // so any latency is queueing behind the stall, timed from the due
        // time.
        const STALL: u64 = 20_000_000;
        let n = 1_000;
        let schedule = Schedule::per_sec(20_000.0);
        let done = Completions::new(n);
        let start = now_ns() + 1_000_000;
        let lags = drive(start, schedule, n, |i| {
            if i == 50 {
                std::thread::sleep(Duration::from_nanos(STALL));
            }
            done.mark(i, now_ns());
        });
        let lat: Vec<u64> =
            (0..n).map(|i| latency_ns(done.done_ns(i), start + schedule.offset_ns(i))).collect();
        // The stalled item itself completes 20 ms late ...
        assert!(lat[50] >= STALL, "stalled item latency {}", lat[50]);
        // ... and the items due during the stall are sent late: their lag
        // and latency both carry the rest of the stall.
        for i in 51..60 {
            let behind = STALL - (i as u64 - 50) * 50_000;
            assert!(lags[i] >= behind, "item {i} lag {} < {behind}", lags[i]);
            assert!(lat[i] >= behind, "item {i} latency {} < {behind}", lat[i]);
        }
        let mut sorted = lags.clone();
        sorted.sort_unstable();
        assert!(percentile(&sorted, 100.0).unwrap() >= STALL - 50_000);
        // Items due after the stall had drained catch up again.
        assert!(lags[n - 1] < STALL / 2, "generator never caught up: {}", lags[n - 1]);
    }

    #[test]
    fn never_completed_events_have_unbounded_latency() {
        let done = Completions::new(3);
        done.mark(0, 500);
        done.mark(0, 900); // first stamp wins
        assert_eq!(done.done_ns(0), Some(500));
        assert_eq!(done.completed(), 1);
        assert_eq!(latency_ns(done.done_ns(0), 200), 300);
        assert_eq!(latency_ns(done.done_ns(1), 200), u64::MAX);
        assert!(!done.wait_all(0..3, Duration::from_millis(2)));
        assert!(done.wait_all(0..1, Duration::from_millis(2)));
    }

    #[test]
    fn timestamps_map_back_to_roots_at_every_depth() {
        // Roots 25 ms apart (the benchmark's tweet spacing); the pipeline
        // M1 -> U1 -> U2 sees root_ts, root_ts + 1, root_ts + 2.
        let map = RootMap::new(0, 25_000, 2);
        for root in [0usize, 1, 7, 123_456] {
            let ts = root as u64 * 25_000;
            for depth in 0..=2 {
                assert_eq!(map.root(ts + depth), root);
            }
        }
        // The tightest legal spacing still separates neighbours.
        let tight = RootMap::new(10, 3, 2);
        let seen: Vec<usize> = (10..22).map(|ts| tight.root(ts)).collect();
        assert_eq!(seen, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn spacing_no_wider_than_the_pipeline_is_rejected() {
        RootMap::new(0, 2, 2);
    }

    #[test]
    fn folded_deliveries_complete_every_absorbed_event() {
        // Key 0 gets events 0, 2, 3, 5; key 1 gets 1 and 4.
        let cc = CountCompletion::new(&[0, 1, 0, 0, 1, 0], 2);
        let done = Completions::new(6);
        let mut count = [0u64; 2];
        let mut deliver = |key: usize, folded: u64, t: u64| {
            let before = count[key];
            count[key] += folded;
            for &i in cc.covered(key, before, count[key]) {
                done.mark(i as usize, t);
            }
        };
        // A run of three key-0 events folded into one delivery at t=10.
        deliver(0, 3, 10);
        assert_eq!([0, 2, 3].map(|i| done.done_ns(i)), [Some(10); 3]);
        assert_eq!(done.done_ns(5), None);
        deliver(1, 1, 20);
        assert_eq!(done.done_ns(1), Some(20));
        assert_eq!(done.done_ns(4), None);
        deliver(1, 1, 30);
        deliver(0, 1, 40);
        assert_eq!(done.done_ns(4), Some(30));
        assert_eq!(done.done_ns(5), Some(40));
        assert_eq!(done.completed(), 6);
        // A count past the key's last event completes nothing extra.
        assert!(cc.covered(0, 4, 9).is_empty());
    }
}
