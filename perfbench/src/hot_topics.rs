//! `hot_topics_local` and `hot_topics_tcp`: Figure 1(c)'s M1 → U1 → U2
//! pipeline with JSON slates, on three in-process machines or on three
//! TCP loopback nodes in this process. The events and operators are the
//! same in both, so the difference between the two is the wire.

use std::ops::Range;
use std::sync::Arc;

use muppet_apps::hot_topics::{
    self, topic_minute_key, HotDetector, MinuteCounter, TopicMapper, HOT_DETECTOR, MINUTE_COUNTER,
    TOPIC_MAPPER, TWEET_STREAM,
};
use muppet_core::event::{Event, Key};
use muppet_core::json::Json;
use muppet_core::reference::ReferenceExecutor;
use muppet_core::time::minute_of_day;
use muppet_net::topology::Topology;
use muppet_runtime::engine::{Engine, EngineConfig, OperatorSet, TransportKind};
use muppet_runtime::overflow::OverflowPolicy;
use muppet_workloads::{ArrivalProcess, TweetGenerator};

use crate::harness::{Cluster, Workload};
use crate::openloop::{Completions, RootMap};
use crate::ops::{Done, TimedMapper, TimedUpdater};

const MACHINES: usize = 3;
/// Users the tweet generator draws authors from.
const USERS: usize = 2_000;
/// Virtual tweet rate: one tweet every 25 ms of event time, so a round's
/// tweets span tens of virtual minutes (hundreds of ⟨topic, minute⟩
/// keys). The constant spacing keeps every root timestamp (and its `+1`,
/// `+2` descendants) unique.
const VIRTUAL_RATE: f64 = 40.0;
const SPACING_US: u64 = 25_000;
/// U2's hotness threshold (Example 5).
const THRESHOLD: f64 = 3.0;

/// One hot_topics workload with its seeded tweets and reference slates.
pub struct HotTopics {
    tcp: bool,
    events: Vec<Event>,
    /// The U1 key each tweet updates (live reads target these).
    read_keys: Vec<Key>,
    /// Reference slates per updater, in the order of [`UPDATERS`].
    expected: Vec<Vec<(Key, Vec<u8>)>>,
}

/// The updaters whose final slates are checked.
const UPDATERS: [&str; 2] = [MINUTE_COUNTER, HOT_DETECTOR];

fn reference(events: &[Event]) -> Vec<Vec<(Key, Vec<u8>)>> {
    let wf = hot_topics::workflow();
    let mut exec = ReferenceExecutor::new(&wf);
    exec.register_mapper(TopicMapper::new());
    exec.register_updater(MinuteCounter::new());
    exec.register_updater(HotDetector::new(THRESHOLD));
    exec.push_external_batch(TWEET_STREAM, events.iter().cloned());
    exec.run_to_completion().expect("reference run");
    UPDATERS
        .iter()
        .map(|u| {
            exec.slates_of(u).into_iter().map(|(k, s)| (k.clone(), s.bytes().to_vec())).collect()
        })
        .collect()
}

impl HotTopics {
    /// `events` seeded tweets and their reference slates. Returns the
    /// workload and the reference run's duration (s).
    pub fn new(tcp: bool, seed: u64, events: usize) -> (HotTopics, f64) {
        let events = TweetGenerator::new(seed, USERS, VIRTUAL_RATE)
            .with_arrivals(ArrivalProcess::Constant { events_per_sec: VIRTUAL_RATE })
            .take(TWEET_STREAM, events);
        let read_keys = events
            .iter()
            .map(|e| {
                let v = Json::from_payload(&e.value).expect("generated tweets are JSON");
                let topic = v.get("topics").and_then(Json::as_arr).and_then(|t| t[0].as_str());
                topic_minute_key(topic.expect("every tweet has a topic"), minute_of_day(e.ts))
            })
            .collect();
        let t0 = crate::clock::now_ns();
        let expected = reference(&events);
        let ref_s = (crate::clock::now_ns() - t0) as f64 / 1e9;
        (HotTopics { tcp, events, read_keys, expected }, ref_s)
    }

    fn ops(&self, done: &Arc<Completions>) -> OperatorSet {
        let roots = RootMap::new(0, SPACING_US, 2);
        OperatorSet::new()
            .mapper(TimedMapper::new(TopicMapper::new(), 0, roots))
            .updater(TimedUpdater::new(MinuteCounter::new(), 1, roots, Done::Nothing))
            .updater(TimedUpdater::new(
                HotDetector::new(THRESHOLD),
                2,
                roots,
                Done::ByRoot(Arc::clone(done)),
            ))
    }

    fn config() -> EngineConfig {
        EngineConfig {
            machines: MACHINES,
            workers_per_machine: 1,
            overflow: OverflowPolicy::SourceThrottle,
            ..EngineConfig::default()
        }
    }
}

impl Workload for HotTopics {
    fn op_names(&self) -> &'static [&'static str] {
        &[TOPIC_MAPPER, MINUTE_COUNTER, HOT_DETECTOR]
    }

    fn path_ops(&self) -> f64 {
        3.0
    }

    fn frame(&self) -> usize {
        1
    }

    fn burst_frame(&self) -> usize {
        1
    }

    fn has_wire(&self) -> bool {
        self.tcp
    }

    fn start(&self, done: Arc<Completions>) -> Cluster {
        let nodes = if self.tcp {
            let topology = Topology::loopback_ephemeral(MACHINES, false).expect("reserve ports");
            (0..MACHINES)
                .map(|local| {
                    let cfg = EngineConfig {
                        transport: TransportKind::Tcp { topology: topology.clone(), local },
                        ..Self::config()
                    };
                    Engine::start(hot_topics::workflow(), self.ops(&done), cfg, None)
                        .expect("start tcp node")
                })
                .collect()
        } else {
            vec![Engine::start(hot_topics::workflow(), self.ops(&done), Self::config(), None)
                .expect("start engine")]
        };
        Cluster { nodes, store: None, dir: None }
    }

    fn submit(&self, cluster: &Cluster, events: Range<usize>) {
        for event in &self.events[events] {
            cluster.intake().submit(event.clone()).expect("submit");
        }
    }

    fn read(&self, cluster: &Cluster, event: usize) -> bool {
        match cluster.intake().read_slate(MINUTE_COUNTER, &self.read_keys[event]) {
            Some(bytes) => Json::parse_bytes(&bytes).is_ok(),
            None => true, // the tweet may still be in flight
        }
    }

    fn mismatches(&self, cluster: &Cluster) -> u64 {
        let mut bad = 0;
        for (updater, slates) in UPDATERS.iter().zip(&self.expected) {
            for (key, want) in slates {
                if cluster.intake().read_slate(updater, key).as_deref() != Some(want.as_slice()) {
                    bad += 1;
                }
            }
        }
        bad
    }
}
