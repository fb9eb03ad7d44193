//! Operator wrappers: each delegates to the real `muppet-apps` operator
//! and adds the benchmark's bookkeeping around the call — a span when
//! tracing is on, and for the last updater of a pipeline the completion
//! stamp the latency figures are computed from.

use std::sync::Arc;

use muppet_core::event::{Event, Key};
use muppet_core::operator::{Emitter, Mapper, Updater};
use muppet_core::slate::Slate;

use crate::clock::now_ns;
use crate::openloop::{Completions, CountCompletion, RootMap};
use crate::trace;

/// How an updater's invocation completes root events.
pub enum Done {
    /// It does not: a later operator does.
    Nothing,
    /// It completes the root its timestamp maps to.
    ByRoot(Arc<Completions>),
    /// It is a unit counter keyed `k<rank>`: a count moving from `a` to
    /// `b` completes the key's events `a+1 ..= b`.
    ByCount(Arc<Completions>, Arc<CountCompletion>),
}

/// A mapper recorded as span kind `OP_BASE + op`.
pub struct TimedMapper<M> {
    inner: M,
    kind: u16,
    roots: RootMap,
}

impl<M: Mapper> TimedMapper<M> {
    /// Wrap `inner` as operator number `op` of the workload.
    pub fn new(inner: M, op: u16, roots: RootMap) -> Self {
        TimedMapper { inner, kind: trace::OP_BASE + op, roots }
    }
}

impl<M: Mapper> Mapper for TimedMapper<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn map(&self, ctx: &mut dyn Emitter, event: &Event) {
        if !trace::enabled() {
            return self.inner.map(ctx, event);
        }
        let t0 = now_ns();
        self.inner.map(ctx, event);
        trace::record(self.kind, self.roots.root(event.ts) as u64, t0, now_ns());
    }
}

/// An updater recorded as span kind `OP_BASE + op`, stamping completions
/// as `done` says.
pub struct TimedUpdater<U> {
    inner: U,
    kind: u16,
    roots: RootMap,
    done: Done,
}

impl<U: Updater> TimedUpdater<U> {
    /// Wrap `inner` as operator number `op` of the workload.
    pub fn new(inner: U, op: u16, roots: RootMap, done: Done) -> Self {
        TimedUpdater { inner, kind: trace::OP_BASE + op, roots, done }
    }
}

/// The rank of a Zipf key `k<rank>`.
pub fn zipf_rank(key: &Key) -> Option<usize> {
    std::str::from_utf8(key.as_bytes().strip_prefix(b"k")?).ok()?.parse().ok()
}

impl<U: Updater> Updater for TimedUpdater<U> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn update(&self, ctx: &mut dyn Emitter, event: &Event, slate: &mut Slate) {
        let t0 = now_ns();
        let before = match self.done {
            Done::ByCount(..) => slate.counter(),
            _ => 0,
        };
        self.inner.update(ctx, event, slate);
        let t1 = now_ns();
        match &self.done {
            Done::Nothing => {}
            Done::ByRoot(done) => done.mark(self.roots.root(event.ts), t1),
            Done::ByCount(done, counts) => {
                if let Some(rank) = zipf_rank(&event.key) {
                    for &i in counts.covered(rank, before, slate.counter()) {
                        done.mark(i as usize, t1);
                    }
                }
            }
        }
        trace::record(self.kind, self.roots.root(event.ts) as u64, t0, t1);
    }

    fn slate_ttl_secs(&self) -> Option<u64> {
        self.inner.slate_ttl_secs()
    }

    fn combine(&self, acc: &[u8], next: &[u8]) -> Option<Vec<u8>> {
        self.inner.combine(acc, next)
    }

    fn combines(&self) -> bool {
        self.inner.combines()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_apps::split_counter::CombiningCounter;
    use muppet_core::operator::VecEmitter;

    #[test]
    fn zipf_keys_parse_to_ranks() {
        assert_eq!(zipf_rank(&Key::from("k0")), Some(0));
        assert_eq!(zipf_rank(&Key::from("k199999")), Some(199_999));
        assert_eq!(zipf_rank(&Key::from("x1")), None);
        assert_eq!(zipf_rank(&Key::from("k")), None);
    }

    #[test]
    fn a_folded_counter_delivery_completes_each_absorbed_event() {
        // Events 0..4 all hit key k2; the engine folds events 1..=3 into
        // one delivery carrying "3".
        let done = Arc::new(Completions::new(4));
        let counts = Arc::new(CountCompletion::new(&[2, 2, 2, 2], 3));
        let up = TimedUpdater::new(
            CombiningCounter::named("c"),
            0,
            RootMap::new(1, 1, 0),
            Done::ByCount(Arc::clone(&done), counts),
        );
        assert!(up.combines(), "the wrapper keeps the combiner declaration");
        let mut slate = Slate::empty();
        let mut em = VecEmitter::new();
        up.update(&mut em, &Event::new("s", 1, Key::from("k2"), &b"1"[..]), &mut slate);
        assert!(done.done_ns(0).is_some());
        assert_eq!(done.completed(), 1);
        up.update(&mut em, &Event::new("s", 2, Key::from("k2"), &b"3"[..]), &mut slate);
        assert_eq!(done.completed(), 4);
        assert_eq!(slate.counter(), 4);
    }
}
