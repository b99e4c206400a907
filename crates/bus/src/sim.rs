//! Deterministic sharded discrete-event simulation kernel.
//!
//! The single-machine experiments advance one sequential [`SimTime`]
//! world. Cluster-scale experiments (E13–E16) want many nodes, each with
//! its own NI/IOMMU/OS state, and ideally many host threads — without
//! giving up bit-exact reproducibility. This module is the kernel that
//! makes that safe, in the shape of the satacc-style
//! `SimComponent`/`SimRunner`/`ChannelBuilder` architecture:
//!
//! * a **shard** ([`SimComponent`]) owns a disjoint slice of simulation
//!   state and a local event queue;
//! * all cross-shard traffic travels over explicit [`SimChannel`]s whose
//!   messages carry an *arrival* stamp at least one link latency in the
//!   future ([`Stamped`]);
//! * a [`SimRunner`] advances the shards in lock-stepped rounds —
//!   sequentially (the oracle) or on one host thread per shard
//!   ([`RunnerKind::Parallel`]).
//!
//! # The conservative-lookahead determinism argument
//!
//! Every round the runner computes the global minimum next event time
//! `next` over all shards and sets the round's **horizon** to
//! `next + lookahead`, where `lookahead` is the minimum channel latency.
//! Each shard then processes exactly its events with `at < horizon`, in
//! `(at, src, seq)` order. Any message such processing emits is stamped
//! `arrival ≥ t + lookahead` for some event time `t ≥ next`, hence
//! `arrival ≥ horizon`: no message generated during a round can land
//! *inside* that round. Barriers separate the send phase of round *k*
//! from the drain phase of round *k + 1*, so every shard sees exactly
//! the same message set at the same point of simulated time regardless
//! of host thread scheduling — the parallel runner is observably
//! identical to the sequential one, which `tests/sharded_determinism.rs`
//! verifies differentially.

use crate::SimTime;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

/// Index of a shard within a runner's shard vector.
pub type ShardId = usize;

/// A message in flight on a [`SimChannel`], carrying the deterministic
/// ordering key `(at, src, seq)`: arrival time, sending shard, and the
/// sender's monotonic emission counter. Receivers that process their
/// merged inboxes in this key order behave identically no matter how
/// shards are scheduled onto host threads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stamped<T> {
    /// Simulated arrival time at the receiving shard.
    pub at: SimTime,
    /// The sending shard.
    pub src: ShardId,
    /// Per-sender monotonic sequence number (ties on `at` break by
    /// `(src, seq)`, which is stable across runs and shard layouts).
    pub seq: u64,
    /// The message itself.
    pub payload: T,
}

impl<T> Stamped<T> {
    /// The total ordering key receivers must process in.
    pub fn key(&self) -> (SimTime, ShardId, u64) {
        (self.at, self.src, self.seq)
    }
}

/// One direction of a cross-shard link: a latency-stamping FIFO. Built
/// by [`ChannelBuilder`]; the sender half lives with the producing
/// shard, the receiver half with the consuming shard.
pub type SimChannel<T> = (SimSender<T>, SimReceiver<T>);

/// Constructs the channels of a sharded simulation with one uniform
/// minimum latency — which doubles as the runner's conservative
/// lookahead.
#[derive(Clone, Debug)]
pub struct ChannelBuilder {
    latency: SimTime,
}

impl ChannelBuilder {
    /// A builder whose channels stamp arrivals at least `latency` in
    /// the future.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero: with zero lookahead a message could
    /// arrive inside the round that sent it and the conservative
    /// barrier argument collapses.
    pub fn new(latency: SimTime) -> Self {
        assert!(latency > SimTime::ZERO, "channel latency must be positive for lookahead");
        ChannelBuilder { latency }
    }

    /// The uniform channel latency — the lookahead a [`SimRunner`] over
    /// these channels must use.
    pub fn lookahead(&self) -> SimTime {
        self.latency
    }

    /// A new channel whose sender half belongs to shard `src`.
    pub fn channel<T>(&self, src: ShardId) -> SimChannel<T> {
        let queue = Arc::new(Mutex::new(VecDeque::new()));
        (
            SimSender { queue: Arc::clone(&queue), src, latency: self.latency, seq: 0 },
            SimReceiver { queue },
        )
    }
}

/// The producing half of a [`SimChannel`].
#[derive(Debug)]
pub struct SimSender<T> {
    queue: Arc<Mutex<VecDeque<Stamped<T>>>>,
    src: ShardId,
    latency: SimTime,
    seq: u64,
}

impl<T> SimSender<T> {
    /// Sends `payload` at local time `now`; it arrives one channel
    /// latency later. Returns the arrival stamp.
    pub fn send(&mut self, now: SimTime, payload: T) -> SimTime {
        self.send_arriving(now, now + self.latency, payload)
    }

    /// Sends `payload` with an explicit `arrival` stamp (a transfer
    /// whose wire time exceeds the base latency). Returns `arrival`.
    ///
    /// # Panics
    ///
    /// Panics if `arrival < now + latency` — that would violate the
    /// lookahead contract the parallel runner's correctness rests on.
    pub fn send_arriving(&mut self, now: SimTime, arrival: SimTime, payload: T) -> SimTime {
        assert!(
            arrival >= now + self.latency,
            "lookahead violation: arrival {arrival} < now {now} + latency {}",
            self.latency
        );
        let stamped = Stamped { at: arrival, src: self.src, seq: self.seq, payload };
        self.seq += 1;
        lock(&self.queue).push_back(stamped);
        arrival
    }

    /// The shard this sender belongs to.
    pub fn src(&self) -> ShardId {
        self.src
    }

    /// The channel's base latency.
    pub fn latency(&self) -> SimTime {
        self.latency
    }
}

/// The consuming half of a [`SimChannel`].
#[derive(Debug)]
pub struct SimReceiver<T> {
    queue: Arc<Mutex<VecDeque<Stamped<T>>>>,
}

impl<T> SimReceiver<T> {
    /// Moves every queued message into `out` (in send order, which for
    /// one channel is also `(at, seq)` order — senders' clocks only move
    /// forward).
    pub fn drain_into(&mut self, out: &mut Vec<Stamped<T>>) {
        let mut q = lock(&self.queue);
        out.extend(q.drain(..));
    }

    /// Whether no message is queued.
    pub fn is_empty(&self) -> bool {
        lock(&self.queue).is_empty()
    }
}

/// One shard of a sharded simulation: a disjoint slice of world state
/// plus its local event queue and channel endpoints.
///
/// The runner's contract, which implementations must honour for the
/// determinism guarantee to hold:
///
/// * [`drain`](Self::drain) merges everything queued on the shard's
///   receivers into its local event queue;
/// * [`next_time`](Self::next_time) reports the earliest pending local
///   event (drained messages included);
/// * [`advance`](Self::advance) processes exactly the events with
///   `at < horizon`, in `(at, src, seq)` order, and stamps every
///   message it sends with `arrival ≥ event time + lookahead`
///   (enforced by [`SimSender`]).
pub trait SimComponent: Send {
    /// Pull all queued channel messages into the local event queue.
    fn drain(&mut self);

    /// Earliest pending local event, if any.
    fn next_time(&self) -> Option<SimTime>;

    /// Process every local event strictly before `horizon`; returns the
    /// number of events processed.
    fn advance(&mut self, horizon: SimTime) -> u64;
}

/// How a [`SimRunner`] advances its shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunnerKind {
    /// One host thread walks the shards in index order every round —
    /// the oracle the parallel runner is differentially tested against.
    Sequential,
    /// One host thread per shard, synchronised by two barriers per
    /// round (slot-publish and advance). Deterministic by the
    /// conservative-lookahead argument in the module docs.
    Parallel,
}

/// What a [`SimRunner::run`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Barrier rounds executed.
    pub rounds: u64,
    /// Simulation events processed across all shards.
    pub events: u64,
}

/// Advances a set of [`SimComponent`] shards to global quiescence.
#[derive(Clone, Copy, Debug)]
pub struct SimRunner {
    kind: RunnerKind,
    lookahead: SimTime,
}

impl SimRunner {
    /// A runner of the given kind with the given conservative lookahead
    /// (the minimum latency of any channel between the shards — use
    /// [`ChannelBuilder::lookahead`]).
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is zero.
    pub fn new(kind: RunnerKind, lookahead: SimTime) -> Self {
        assert!(lookahead > SimTime::ZERO, "runner lookahead must be positive");
        SimRunner { kind, lookahead }
    }

    /// The runner's kind.
    pub fn kind(&self) -> RunnerKind {
        self.kind
    }

    /// Runs the shards until no shard has a pending event and no
    /// message is in flight.
    pub fn run<C: SimComponent>(&self, shards: &mut [C]) -> RunReport {
        match self.kind {
            RunnerKind::Sequential => self.run_sequential(shards),
            RunnerKind::Parallel => self.run_parallel(shards),
        }
    }

    fn run_sequential<C: SimComponent>(&self, shards: &mut [C]) -> RunReport {
        let mut report = RunReport::default();
        loop {
            for s in shards.iter_mut() {
                s.drain();
            }
            let Some(next) = shards.iter().filter_map(SimComponent::next_time).min() else {
                return report;
            };
            let horizon = next + self.lookahead;
            for s in shards.iter_mut() {
                report.events += s.advance(horizon);
            }
            report.rounds += 1;
        }
    }

    fn run_parallel<C: SimComponent>(&self, shards: &mut [C]) -> RunReport {
        let n = shards.len();
        if n == 0 {
            return RunReport::default();
        }
        let barrier = Barrier::new(n);
        // One published next-event slot per shard. Writes happen between
        // the two barriers of a round, reads after the second — the next
        // round's writes cannot start until every reader passed its
        // advance phase and re-entered the first barrier.
        let slots: Vec<Mutex<Option<SimTime>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let events = AtomicU64::new(0);
        let rounds = AtomicU64::new(0);
        let lookahead = self.lookahead;
        std::thread::scope(|scope| {
            for (i, shard) in shards.iter_mut().enumerate() {
                let barrier = &barrier;
                let slots = &slots;
                let events = &events;
                let rounds = &rounds;
                scope.spawn(move || {
                    loop {
                        // (a) every shard finished the previous round's
                        // sends — safe to drain.
                        barrier.wait();
                        shard.drain();
                        *lock(&slots[i]) = shard.next_time();
                        // (b) every slot is published — safe to read.
                        barrier.wait();
                        let next = slots.iter().filter_map(|s| *lock(s)).min();
                        // All threads compute the same minimum from the
                        // same stable slots, so they break together.
                        let Some(next) = next else { break };
                        let horizon = next + lookahead;
                        let done = shard.advance(horizon);
                        events.fetch_add(done, Ordering::Relaxed);
                        if i == 0 {
                            rounds.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        RunReport { rounds: rounds.into_inner(), events: events.into_inner() }
    }
}

/// Locks `mutex`.
///
/// # Panics
///
/// Panics if another thread panicked holding the lock: a shard thread's
/// panic already fails the whole run when the runner's scope joins it.
#[allow(clippy::expect_used, reason = "lock poisoning re-raises a shard thread's panic")]
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("lock poisoned by a panicked shard thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    /// A ping-pong token passer: shard i forwards a counter token to
    /// (i + 1) % n until the hop budget is spent, logging every receipt.
    struct TokenShard {
        id: ShardId,
        rx: Vec<SimReceiver<u64>>,
        tx: SimSender<u64>,
        queue: BinaryHeap<std::cmp::Reverse<(SimTime, ShardId, u64, u64)>>,
        scratch: Vec<Stamped<u64>>,
        log: Vec<(SimTime, ShardId, u64)>,
    }

    impl SimComponent for TokenShard {
        fn drain(&mut self) {
            for r in &mut self.rx {
                r.drain_into(&mut self.scratch);
            }
            for m in self.scratch.drain(..) {
                self.queue.push(std::cmp::Reverse((m.at, m.src, m.seq, m.payload)));
            }
        }

        fn next_time(&self) -> Option<SimTime> {
            self.queue.peek().map(|std::cmp::Reverse((at, ..))| *at)
        }

        fn advance(&mut self, horizon: SimTime) -> u64 {
            let mut done = 0;
            while let Some(std::cmp::Reverse((at, src, _seq, hops))) = self.queue.peek().copied() {
                if at >= horizon {
                    break;
                }
                self.queue.pop();
                self.log.push((at, src, hops));
                if hops > 0 {
                    self.tx.send(at, hops - 1);
                }
                done += 1;
            }
            done
        }
    }

    fn build_ring(n: usize, hops: u64) -> Vec<TokenShard> {
        let builder = ChannelBuilder::new(SimTime::from_us(3));
        let mut senders = Vec::new();
        let mut receivers: Vec<Vec<SimReceiver<u64>>> = (0..n).map(|_| Vec::new()).collect();
        for i in 0..n {
            let (tx, rx) = builder.channel(i);
            senders.push(Some(tx));
            receivers[(i + 1) % n].push(rx);
        }
        let mut shards: Vec<TokenShard> = (0..n)
            .zip(receivers)
            .map(|(id, rx)| TokenShard {
                id,
                rx,
                tx: senders[id].take().unwrap(),
                queue: BinaryHeap::new(),
                scratch: Vec::new(),
                log: Vec::new(),
            })
            .collect();
        // Seed the token as a message shard 0 "already sent" to shard 1.
        shards[0].tx.send(SimTime::ZERO, hops);
        shards
    }

    fn merged_log(shards: &[TokenShard]) -> Vec<(SimTime, ShardId, ShardId, u64)> {
        let mut all: Vec<_> = shards
            .iter()
            .flat_map(|s| s.log.iter().map(move |&(at, src, hops)| (at, src, s.id, hops)))
            .collect();
        all.sort();
        all
    }

    #[test]
    fn sequential_ring_delivers_every_hop_in_order() {
        let mut shards = build_ring(4, 10);
        let report = SimRunner::new(RunnerKind::Sequential, SimTime::from_us(3)).run(&mut shards);
        assert_eq!(report.events, 11, "initial token + 10 forwarded hops");
        let log = merged_log(&shards);
        assert_eq!(log.len(), 11);
        // Hop k arrives at (k + 1) * latency with a strictly descending
        // hop budget.
        for (k, &(at, _, _, hops)) in log.iter().enumerate() {
            assert_eq!(at, SimTime::from_us(3 * (k as u64 + 1)));
            assert_eq!(hops, 10 - k as u64);
        }
    }

    #[test]
    fn parallel_runner_matches_sequential_oracle() {
        for n in [1usize, 2, 4, 8] {
            let mut seq = build_ring(n, 23);
            let seq_report =
                SimRunner::new(RunnerKind::Sequential, SimTime::from_us(3)).run(&mut seq);
            let mut par = build_ring(n, 23);
            let par_report =
                SimRunner::new(RunnerKind::Parallel, SimTime::from_us(3)).run(&mut par);
            assert_eq!(seq_report.events, par_report.events, "{n} shards");
            assert_eq!(merged_log(&seq), merged_log(&par), "{n} shards");
        }
    }

    #[test]
    fn stamps_are_monotonic_per_sender_and_seq_increments() {
        let builder = ChannelBuilder::new(SimTime::from_us(5));
        let (mut tx, mut rx) = builder.channel::<u8>(2);
        tx.send(SimTime::ZERO, 1);
        tx.send_arriving(SimTime::ZERO, SimTime::from_us(9), 2);
        tx.send(SimTime::from_us(10), 3);
        let mut got = Vec::new();
        rx.drain_into(&mut got);
        assert!(rx.is_empty());
        let keys: Vec<_> = got.iter().map(Stamped::key).collect();
        assert_eq!(
            keys,
            vec![
                (SimTime::from_us(5), 2, 0),
                (SimTime::from_us(9), 2, 1),
                (SimTime::from_us(15), 2, 2),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn arrival_under_latency_is_rejected() {
        let builder = ChannelBuilder::new(SimTime::from_us(5));
        let (mut tx, _rx) = builder.channel::<u8>(0);
        tx.send_arriving(SimTime::from_us(10), SimTime::from_us(12), 1);
    }

    #[test]
    #[should_panic(expected = "latency must be positive")]
    fn zero_latency_channels_are_rejected() {
        let _ = ChannelBuilder::new(SimTime::ZERO);
    }

    #[test]
    fn empty_and_quiescent_worlds_terminate_immediately() {
        let mut none: Vec<TokenShard> = Vec::new();
        let r = SimRunner::new(RunnerKind::Parallel, SimTime::from_us(1)).run(&mut none);
        assert_eq!(r, RunReport::default());
        let mut idle = build_ring(2, 0);
        // Consume the seed token (hops = 0 forwards nothing)…
        SimRunner::new(RunnerKind::Sequential, SimTime::from_us(3)).run(&mut idle);
        // …then a second run finds a quiescent world.
        let r = SimRunner::new(RunnerKind::Sequential, SimTime::from_us(3)).run(&mut idle);
        assert_eq!(r, RunReport::default());
    }
}
