//! `zipf_durable`: unit counters over a Zipf(1.0) key universe far larger
//! than the slate cache, with a combiner, an on-disk store, and the ingest
//! WAL in group-commit mode. Submits arrive in fixed frames through
//! `submit_many`, so each frame is one WAL group commit.

use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

use muppet_apps::split_counter::CombiningCounter;
use muppet_core::event::{Event, Key};
use muppet_core::reference::ReferenceExecutor;
use muppet_core::workflow::Workflow;
use muppet_runtime::engine::{Engine, EngineConfig, OperatorSet};
use muppet_runtime::overflow::OverflowPolicy;
use muppet_slatestore::{StoreCluster, StoreConfig};
use muppet_workloads::{zipf_events, ZIPF_STREAM};

use crate::harness::{Cluster, Workload};
use crate::openloop::{Completions, CountCompletion, RootMap};
use crate::ops::{zipf_rank, Done, TimedUpdater};

const COUNTER: &str = "zipf-counter";
/// Key universe and skew.
pub const KEYS: usize = 200_000;
const SKEW: f64 = 1.0;
const MACHINES: usize = 2;
/// Slates cached per machine. A round touches tens of thousands of
/// distinct keys, several times what the two caches hold, so the tail
/// keys keep missing and evicting while the head stays resident.
const CACHE_SLATES: usize = 5_000;
/// Events per `submit_many` frame, as a bulk source fetches them; each
/// frame is one ingest-WAL group commit (one fsync). Smaller frames make
/// the figures follow the disk's fsync latency, which on a shared
/// machine swings from run to run.
pub const FRAME: usize = 2048;
/// Per-worker queue capacity: deep enough that the workers keep busy on
/// queued events while the source waits for a frame's fsync, and that a
/// whole saturation burst fits the cluster's queue budget. With 16k-event
/// queues the source throttled mid-burst, and its timed throttle waits
/// made a round's throughput swing between two modes 1.7x apart.
const QUEUE_CAPACITY: usize = 1 << 16;
/// Events per `submit_many` in the saturation burst. With a single
/// source, one frame's fsync stalls the next frame's submit, so small
/// frames would measure the disk's fsync latency, not the engine.
pub const BURST_FRAME: usize = 4 * FRAME;

fn workflow() -> Workflow {
    let mut b = Workflow::builder("zipf-durable");
    b.external_stream(ZIPF_STREAM);
    b.updater(COUNTER, &[ZIPF_STREAM]);
    b.build().expect("static workflow is valid")
}

/// The seeded Zipf stream, its per-key event lists and reference counts.
pub struct ZipfDurable {
    events: Vec<Event>,
    counts: Arc<CountCompletion>,
    /// Reference count per key rank (0 = key never seen).
    expected: Vec<u64>,
    work_dir: PathBuf,
}

impl ZipfDurable {
    /// `events` seeded events and their reference counts; store and WAL
    /// files go under `work_dir`. Returns the workload and the reference
    /// run's duration (s).
    pub fn new(seed: u64, events: usize, work_dir: PathBuf) -> (ZipfDurable, f64) {
        let events = zipf_events(KEYS, SKEW, events, seed);
        let ranks: Vec<u32> = events
            .iter()
            .map(|e| zipf_rank(&e.key).expect("zipf keys are k<rank>") as u32)
            .collect();
        let wf = workflow();
        let t0 = crate::clock::now_ns();
        let mut exec = ReferenceExecutor::new(&wf);
        exec.register_updater(CombiningCounter::named(COUNTER));
        exec.push_external_batch(ZIPF_STREAM, events.iter().cloned());
        exec.run_to_completion().expect("reference run");
        let mut expected = vec![0u64; KEYS];
        for (key, slate) in exec.slates_of(COUNTER) {
            expected[zipf_rank(key).expect("zipf keys are k<rank>")] = slate.counter();
        }
        let ref_s = (crate::clock::now_ns() - t0) as f64 / 1e9;
        let counts = Arc::new(CountCompletion::new(&ranks, KEYS));
        (ZipfDurable { events, counts, expected, work_dir }, ref_s)
    }
}

impl Workload for ZipfDurable {
    fn op_names(&self) -> &'static [&'static str] {
        &[COUNTER]
    }

    fn path_ops(&self) -> f64 {
        1.0
    }

    fn frame(&self) -> usize {
        FRAME
    }

    fn burst_frame(&self) -> usize {
        BURST_FRAME
    }

    fn has_wire(&self) -> bool {
        false
    }

    fn start(&self, done: Arc<Completions>) -> Cluster {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = self.work_dir.join(format!("zipf-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create store directory");
        // One replica: with the default three, the store's writes shared the
        // disk with the WAL's fsyncs and throughput followed the disk.
        let store_cfg = StoreConfig { nodes: 1, replication: 1, ..StoreConfig::default() };
        let store = Arc::new(StoreCluster::open(dir.join("store"), store_cfg).expect("open store"));
        let cfg = EngineConfig {
            machines: MACHINES,
            workers_per_machine: 1,
            slate_cache_capacity: CACHE_SLATES,
            queue_capacity: QUEUE_CAPACITY,
            overflow: OverflowPolicy::SourceThrottle,
            combine: true,
            ingest_wal: Some(dir.join("ingest.wal")),
            ingest_sync_each: false,
            ..EngineConfig::default()
        };
        let ops = OperatorSet::new().updater(TimedUpdater::new(
            CombiningCounter::named(COUNTER),
            0,
            RootMap::new(1, 1, 0),
            Done::ByCount(done, Arc::clone(&self.counts)),
        ));
        let engine =
            Engine::start(workflow(), ops, cfg, Some(Arc::clone(&store))).expect("start engine");
        Cluster { nodes: vec![engine], store: Some(store), dir: Some(dir) }
    }

    fn submit(&self, cluster: &Cluster, events: Range<usize>) {
        cluster.intake().submit_many(self.events[events].to_vec()).expect("submit_many");
    }

    fn read(&self, cluster: &Cluster, event: usize) -> bool {
        match cluster.intake().read_slate(COUNTER, &self.events[event].key) {
            Some(bytes) => std::str::from_utf8(&bytes).is_ok_and(|s| s.parse::<u64>().is_ok()),
            None => true, // the key's first event may still be in flight
        }
    }

    fn mismatches(&self, cluster: &Cluster) -> u64 {
        let mut bad = 0;
        for (rank, &want) in self.expected.iter().enumerate() {
            if want == 0 {
                continue;
            }
            let got = cluster.intake().read_slate(COUNTER, &Key::from(format!("k{rank}")));
            let got = got.and_then(|b| String::from_utf8(b).ok()?.parse::<u64>().ok());
            if got != Some(want) {
                bad += 1;
            }
        }
        bad
    }
}
