//! The router→shard handoff: requests cross in *blocks*, batches are cut
//! on the shard's side, and one lock covers every lane of a run.
//!
//! A per-request bounded channel wakes the parked router on every
//! batch's first `recv` — it refills one batch's worth of slots and
//! parks again, one cross-core futex wake per `max_batch` requests. A
//! block gives the queue hysteresis: the router accumulates a shard's
//! subsequence locally and hands it over [`block_size`] requests at a
//! time into a lane that holds one block besides the one the shard is
//! cutting, so it parks (and is woken) once per block however small the
//! batches are. Emptied blocks travel back to the router, so steady-state
//! routing allocates nothing.
//!
//! **Backpressure.** A full lane makes the router wait — at most
//! `3 * block_size + max_batch` requests per shard are in flight. Under a
//! cooperative mode that alone would deadlock: the shard behind the full
//! lane may be parked at a sync barrier that only releases once the
//! router has fed its *peers*. So a shard blocked in
//! [`BlockReceiver::fill`] on an empty lane is marked *starved*, and a
//! cooperative run's router waits on a full lane only while no lane is
//! starved; if one is, the block is queued past the capacity and routing
//! continues until that shard is fed. A waiting router therefore means
//! every live shard either holds a block or is between fills: some shard
//! advances, or all of them reach the barrier and it releases — and a
//! shard turning starved wakes the router. What a lane holds beyond its
//! capacity is the routing imbalance that accumulated while a peer
//! starved, not the rest of the stream. The router is woken only when it
//! is waiting: for room on the lane it waits on, for a peer turning
//! starved, or for that lane's receiver being dropped.
//!
//! Batch boundaries do not depend on any of this: [`BlockReceiver::fill`]
//! carries a partial batch across block boundaries, so batches stay
//! fixed `max_batch`-chunks of the shard's subsequence, the last one
//! partial.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use sibyl_trace::IoRequest;

/// The router→shard queue capacity of every run, in requests: blocks of
/// `block_size(QUEUE_CAPACITY)` = 512 cross to a shard, and at most
/// `3 × 512 + max_batch` requests per shard are in flight. Only this
/// crate's tests drive other capacities.
pub(crate) const QUEUE_CAPACITY: usize = 1024;

/// Requests per block: half of `queue_capacity`.
pub(crate) fn block_size(queue_capacity: usize) -> usize {
    (queue_capacity / 2).max(1)
}

/// Blocks a lane holds, besides the one its shard is cutting, before the
/// router has to wait: one keeps the shard fed while the router is
/// blocked behind a peer.
const LANE_BLOCKS: usize = 1;

/// The receiving shard is gone (its thread panicked and dropped the
/// [`BlockReceiver`]).
#[derive(Debug)]
pub(crate) struct ShardGone;

type Block = Vec<IoRequest>;

/// One shard's side of the shared state.
#[derive(Debug, Default)]
struct Lane {
    queue: VecDeque<Block>,
    /// The shard is blocked in `fill` on an empty queue. Set by the
    /// shard; cleared by whoever ends the wait (a block or the hang-up).
    starved: bool,
    /// The sender was dropped: no more blocks will come.
    closed: bool,
    /// The receiver was dropped: nobody will take a block.
    gone: bool,
}

#[derive(Debug)]
struct State {
    lanes: Vec<Lane>,
    /// The lane the router is blocked handing a block to, if it is.
    router_waits_on: Option<usize>,
    /// Emptied blocks on their way back to the router (at most one per
    /// lane, which is what steady-state routing needs).
    spare: Vec<Block>,
}

/// What every lane of one run shares.
#[derive(Debug)]
struct Handoff {
    state: Mutex<State>,
    router: Condvar,
    /// One per lane: a starved shard waits on its own.
    shards: Vec<Condvar>,
    /// Cooperative run: a full lane yields to a starved peer.
    yield_to_starved: bool,
}

impl Handoff {
    /// Recovers rather than propagates poison: no critical section below
    /// calls anything that can panic between two writes, so a poisoned
    /// lock still holds a consistent state — and the receiver's `Drop`,
    /// which runs on an unwinding shard thread, must not double-panic.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Router half: accumulates one shard's requests into a block.
#[derive(Debug)]
pub(crate) struct BlockSender {
    handoff: Arc<Handoff>,
    lane: usize,
    block: Block,
    size: usize,
}

/// Shard half: the block being cut into batches and how far it is cut.
#[derive(Debug)]
pub(crate) struct BlockReceiver {
    handoff: Arc<Handoff>,
    lane: usize,
    block: Block,
    next: usize,
}

/// The handoff for one run: a sender and a receiver per shard. With
/// `yield_to_starved` (a cooperative run) a full lane makes the router
/// wait only while no lane is starved; without it, always.
pub(crate) fn block_queues(
    queue_capacity: usize,
    shards: usize,
    yield_to_starved: bool,
) -> Vec<(BlockSender, BlockReceiver)> {
    let size = block_size(queue_capacity);
    let handoff = Arc::new(Handoff {
        state: Mutex::new(State {
            lanes: (0..shards).map(|_| Lane::default()).collect(),
            router_waits_on: None,
            spare: Vec::with_capacity(shards),
        }),
        router: Condvar::new(),
        shards: (0..shards).map(|_| Condvar::new()).collect(),
        yield_to_starved,
    });
    (0..shards)
        .map(|lane| {
            let sender = BlockSender {
                handoff: Arc::clone(&handoff),
                lane,
                block: Vec::with_capacity(size),
                size,
            };
            let receiver = BlockReceiver {
                handoff: Arc::clone(&handoff),
                lane,
                block: Vec::new(),
                next: 0,
            };
            (sender, receiver)
        })
        .collect()
}

impl BlockSender {
    /// Appends a request, handing the block over once it is full.
    pub(crate) fn push(&mut self, req: IoRequest) -> Result<(), ShardGone> {
        self.block.push(req);
        if self.block.len() == self.size {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Hands over whatever has accumulated (end of stream). Dropping the
    /// sender afterwards closes the lane.
    pub(crate) fn flush(&mut self) -> Result<(), ShardGone> {
        if self.block.is_empty() {
            return Ok(());
        }
        let handoff = &*self.handoff;
        let mut state = handoff.lock();
        loop {
            let lane = &state.lanes[self.lane];
            if lane.gone {
                state.router_waits_on = None;
                return Err(ShardGone);
            }
            // A full lane is never itself starved, so a starved lane here
            // is a peer.
            let yields = handoff.yield_to_starved && state.lanes.iter().any(|l| l.starved);
            if lane.queue.len() < LANE_BLOCKS || yields {
                break;
            }
            state.router_waits_on = Some(self.lane);
            // sibyl-lint: allow(guard-across-blocking) -- condvar protocol: wait() atomically releases the guard while blocked and reacquires it on wake
            let woken = handoff.router.wait(state);
            state = woken.unwrap_or_else(PoisonError::into_inner);
        }
        state.router_waits_on = None;
        let next = state.spare.pop().unwrap_or_default();
        let block = std::mem::replace(&mut self.block, next);
        let lane = &mut state.lanes[self.lane];
        lane.queue.push_back(block);
        let wake = std::mem::take(&mut lane.starved);
        drop(state);
        if wake {
            handoff.shards[self.lane].notify_one();
        }
        self.block.reserve_exact(self.size);
        Ok(())
    }
}

impl Drop for BlockSender {
    /// Closes the lane: its shard drains what is queued and `fill`
    /// returns `false`.
    fn drop(&mut self) {
        let mut state = self.handoff.lock();
        let lane = &mut state.lanes[self.lane];
        lane.closed = true;
        let wake = std::mem::take(&mut lane.starved);
        drop(state);
        if wake {
            self.handoff.shards[self.lane].notify_one();
        }
    }
}

impl BlockReceiver {
    /// Fill stage: blocks until `max_batch` requests have arrived or the
    /// router hung up, so batch boundaries are fixed chunks of the
    /// shard's subsequence whatever the thread schedule or block size.
    /// Returns `false` once the lane is closed and drained (the batch may
    /// still hold a final partial chunk).
    pub(crate) fn fill(&mut self, max_batch: usize, batch: &mut Vec<IoRequest>) -> bool {
        batch.clear();
        loop {
            let rest = &self.block[self.next..];
            let take = rest.len().min(max_batch - batch.len());
            batch.extend_from_slice(&rest[..take]);
            self.next += take;
            if batch.len() == max_batch {
                return true;
            }
            if !self.next_block() {
                return false;
            }
        }
    }

    /// Swaps the emptied block for the lane's next one, waiting — starved
    /// — while there is none. Returns `false` once the lane is closed and
    /// drained.
    fn next_block(&mut self) -> bool {
        let handoff = &*self.handoff;
        let mut state = handoff.lock();
        let block = loop {
            let lane = &mut state.lanes[self.lane];
            if let Some(block) = lane.queue.pop_front() {
                break block;
            }
            if lane.closed {
                return false;
            }
            if !lane.starved {
                lane.starved = true;
                if handoff.yield_to_starved && state.router_waits_on.is_some() {
                    handoff.router.notify_one();
                }
            }
            // sibyl-lint: allow(guard-across-blocking) -- condvar protocol: wait() atomically releases the guard while blocked and reacquires it on wake
            let woken = handoff.shards[self.lane].wait(state);
            state = woken.unwrap_or_else(PoisonError::into_inner);
        };
        let wake = state.router_waits_on == Some(self.lane)
            && state.lanes[self.lane].queue.len() < LANE_BLOCKS;
        let mut emptied = std::mem::replace(&mut self.block, block);
        self.next = 0;
        if emptied.capacity() > 0 && state.spare.len() < state.lanes.len() {
            emptied.clear();
            state.spare.push(emptied);
        }
        drop(state);
        if wake {
            handoff.router.notify_one();
        }
        true
    }
}

impl Drop for BlockReceiver {
    /// Marks the lane gone, so a router blocked on it (or pushing to it
    /// later) sees [`ShardGone`] instead of waiting forever.
    fn drop(&mut self) {
        let mut state = self.handoff.lock();
        let lane = &mut state.lanes[self.lane];
        lane.gone = true;
        let backlog = std::mem::take(&mut lane.queue);
        let wake = state.router_waits_on == Some(self.lane);
        drop(state);
        if wake {
            self.handoff.router.notify_one();
        }
        drop(backlog);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::watchdog::within_timeout;
    use sibyl_trace::IoOp;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// The documented bound (`serve_stream`, `QUEUE_CAPACITY`)
    /// on what a bounded queue holds between the router's `push` and the
    /// shard's serve stage: the block the router is filling (or is blocked
    /// handing over), the queued block, the block the shard is cutting,
    /// and the batch it cut last.
    fn in_flight_bound(queue_capacity: usize, max_batch: usize) -> usize {
        3 * block_size(queue_capacity) + max_batch
    }

    fn req(i: usize) -> IoRequest {
        IoRequest::new(i as u64, i as u64, 1, IoOp::Read)
    }

    /// A one-lane handoff. With no peer to yield to, a cooperative one
    /// (`bounded_queue == false`) behaves exactly like an independent one.
    fn block_queue(queue_capacity: usize, bounded_queue: bool) -> (BlockSender, BlockReceiver) {
        let mut lanes = block_queues(queue_capacity, 1, !bounded_queue);
        lanes.pop().unwrap()
    }

    /// Yields until `attempted` reaches `stuck_at`, gives the producer
    /// every chance to run on, and asserts it stayed there.
    fn assert_stuck_at(attempted: &AtomicUsize, stuck_at: usize) {
        while attempted.load(Ordering::SeqCst) < stuck_at {
            std::thread::yield_now();
        }
        for _ in 0..200 {
            std::thread::yield_now();
        }
        let ahead = attempted.load(Ordering::SeqCst);
        assert_eq!(ahead, stuck_at, "producer ran past a full lane");
    }

    /// The router of a two-lane cooperative handoff on a second thread:
    /// request `i` goes to lane `route[i]`, counted before it is pushed.
    fn route(
        route: Vec<usize>,
        attempted: Arc<AtomicUsize>,
        capacity: usize,
    ) -> (
        std::thread::JoinHandle<Result<(), ShardGone>>,
        BlockReceiver,
        BlockReceiver,
    ) {
        let mut lanes = block_queues(capacity, 2, true);
        let (tx1, rx1) = lanes.pop().unwrap();
        let (tx0, rx0) = lanes.pop().unwrap();
        let router = std::thread::spawn(move || {
            let mut senders = [tx0, tx1];
            for (i, &lane) in route.iter().enumerate() {
                attempted.fetch_add(1, Ordering::SeqCst);
                senders[lane].push(req(i))?;
            }
            senders.iter_mut().try_for_each(BlockSender::flush)
        });
        (router, rx0, rx1)
    }

    /// Pushes `0..n` from a second thread, counting each push *before* it
    /// is attempted, so `attempted` is every request that has entered the
    /// queue plus at most the one the producer is blocked handing over.
    fn produce(
        mut tx: BlockSender,
        n: usize,
        attempted: Arc<AtomicUsize>,
    ) -> std::thread::JoinHandle<Result<(), ShardGone>> {
        std::thread::spawn(move || {
            for i in 0..n {
                attempted.fetch_add(1, Ordering::SeqCst);
                tx.push(req(i))?;
            }
            tx.flush()
        })
    }

    #[test]
    fn batches_are_fixed_chunks_whatever_the_block_size() {
        let n = 1_003;
        for bounded_queue in [true, false] {
            for capacity in [1, 2, 5, 16, 1024] {
                for max_batch in [1, 7, 16] {
                    let (tx, mut rx) = block_queue(capacity, bounded_queue);
                    let producer = produce(tx, n, Arc::default());
                    let batches = within_timeout(move || {
                        let (mut batch, mut batches) = (Vec::new(), Vec::new());
                        let mut open = true;
                        while open {
                            open = rx.fill(max_batch, &mut batch);
                            batches.push(batch.clone());
                        }
                        batches
                    });
                    producer.join().unwrap().unwrap();
                    let served: Vec<IoRequest> = batches.concat();
                    assert_eq!(served, (0..n).map(req).collect::<Vec<_>>());
                    // Every batch before the hang-up is full; the one that
                    // saw it holds the remainder (possibly nothing).
                    let (last, full) = batches.split_last().unwrap();
                    assert!(full.iter().all(|b| b.len() == max_batch));
                    assert_eq!(last.len(), n % max_batch, "{capacity} x {max_batch}");
                }
            }
        }
    }

    /// Stalls a consumer of `n` requests before every `fill` and checks
    /// that the producer gets exactly as far as the queue has room for,
    /// and no further than the documented bound. Returns the most
    /// requests in flight at any stall.
    fn stall_before_every_batch(capacity: usize, max_batch: usize, n: usize) -> usize {
        let block = block_size(capacity);
        let attempted = Arc::new(AtomicUsize::new(0));
        let (tx, mut rx) = block_queue(capacity, true);
        let producer = produce(tx, n, Arc::clone(&attempted));
        let most = within_timeout(move || {
            let mut batch = Vec::new();
            let (mut consumed, mut most) = (0usize, 0usize);
            let mut open = true;
            while open {
                // Stalled here, the consumer has taken the blocks its
                // `consumed` requests came from; the producer queues one
                // more and blocks handing over the next.
                let stuck_at = n.min((consumed.div_ceil(block) + 2) * block);
                assert_stuck_at(&attempted, stuck_at);
                let in_flight = stuck_at - consumed + batch.len();
                assert!(in_flight <= in_flight_bound(capacity, max_batch));
                most = most.max(in_flight);
                open = rx.fill(max_batch, &mut batch);
                consumed += batch.len();
            }
            assert_eq!(consumed, n);
            most
        });
        producer.join().unwrap().unwrap();
        most
    }

    #[test]
    fn a_stalled_consumer_blocks_the_producer_within_the_bound() {
        stall_before_every_batch(8, 3, 101);
    }

    #[test]
    fn a_stalled_shard_holds_the_router_to_three_blocks_of_512_and_a_batch() {
        // The production lane. Batches of 100 straddle the 512-request
        // blocks, so at some stall the shard holds a batch cut mostly
        // from a block it has already released, and the bound's
        // `max_batch` term is reached in part.
        assert_eq!(block_size(QUEUE_CAPACITY), 512);
        let most = stall_before_every_batch(QUEUE_CAPACITY, 100, 6_000);
        assert!(most <= 3 * 512 + 100);
        assert!(most > 3 * 512, "most in flight: {most}");
    }

    #[test]
    fn a_blocked_producer_sees_its_consumer_die() {
        let capacity = 8;
        let attempted = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = block_queue(capacity, true);
        let producer = produce(tx, 1_000, Arc::clone(&attempted));
        within_timeout(move || {
            while attempted.load(Ordering::SeqCst) < 2 * block_size(capacity) {
                std::thread::yield_now();
            }
            drop(rx);
            assert!(producer.join().unwrap().is_err());
        });
    }

    #[test]
    fn a_parked_consumer_does_not_keep_the_router_from_a_starved_peer() {
        // Lane 0's consumer takes one batch and parks (holds its block,
        // stays out of `fill`), as a shard at a sync barrier does; lane
        // 1's sits in `fill`, starved. The stream leads with five blocks
        // for lane 0 — four more than it has room for — before lane 1's
        // first.
        let (capacity, tail) = (8, 40);
        let block = block_size(capacity);
        let mut stream = vec![0; 5 * block];
        stream.extend(vec![1; block]);
        stream.extend(vec![0; tail * block]);
        let n = stream.len();
        let attempted = Arc::new(AtomicUsize::new(0));
        let (router, mut parked, mut starved) = route(stream, Arc::clone(&attempted), capacity);
        within_timeout(move || {
            let mut batch = Vec::new();
            assert!(parked.fill(block, &mut batch));
            let fed = std::thread::spawn(move || {
                let mut batch = Vec::new();
                assert!(starved.fill(block, &mut batch));
                (starved, batch)
            });
            // The router went past lane 0's capacity to feed lane 1 ...
            let (mut starved, first) = fed.join().unwrap();
            assert_eq!(first, (5 * block..6 * block).map(req).collect::<Vec<_>>());
            // ... and, with nobody starved any more, no further than the
            // next block for lane 0: what lane 0 holds past its capacity
            // is what stood between lane 1 and its block, not the tail.
            assert_stuck_at(&attempted, 7 * block);
            let mut consumed = batch.len() + first.len();
            while parked.fill(block, &mut batch) {
                consumed += batch.len();
            }
            consumed += batch.len();
            assert!(!starved.fill(block, &mut batch) && batch.is_empty());
            assert_eq!(consumed, n);
        });
        router.join().unwrap().unwrap();
    }

    #[test]
    fn with_nobody_starved_a_cooperative_handoff_keeps_the_bound() {
        // `a_stalled_consumer_blocks_the_producer_within_the_bound` on
        // lane 0 of a cooperative handoff whose other consumer is parked
        // on the stream's first block: same stall points, same bound.
        let (capacity, max_batch, n) = (8, 3, 101);
        let block = block_size(capacity);
        let mut stream = vec![1; block];
        stream.extend(vec![0; n]);
        let attempted = Arc::new(AtomicUsize::new(0));
        let (router, mut rx, mut parked) = route(stream, Arc::clone(&attempted), capacity);
        within_timeout(move || {
            let mut held = Vec::new();
            assert!(parked.fill(block, &mut held));
            let mut batch = Vec::new();
            let mut consumed = 0usize;
            let mut open = true;
            while open {
                let stuck_at = n.min((consumed.div_ceil(block) + 2) * block);
                assert_stuck_at(&attempted, block + stuck_at);
                let in_flight = stuck_at - consumed + batch.len();
                assert!(in_flight <= in_flight_bound(capacity, max_batch));
                open = rx.fill(max_batch, &mut batch);
                consumed += batch.len();
            }
            assert_eq!(consumed, n);
            assert!(!parked.fill(block, &mut held) && held.is_empty());
        });
        router.join().unwrap().unwrap();
    }

    #[test]
    fn dropping_a_receiver_wakes_the_router_waiting_on_its_lane() {
        // Cooperative, the peer parked: the router blocks handing lane 0
        // its third block and must come back with `ShardGone`.
        let capacity = 8;
        let block = block_size(capacity);
        let mut stream = vec![1; block];
        stream.extend(vec![0; 1_000]);
        let attempted = Arc::new(AtomicUsize::new(0));
        let (router, rx, mut parked) = route(stream, Arc::clone(&attempted), capacity);
        within_timeout(move || {
            let mut held = Vec::new();
            assert!(parked.fill(block, &mut held));
            assert_stuck_at(&attempted, block + 2 * block);
            drop(rx);
            assert!(router.join().unwrap().is_err());
            assert_eq!(attempted.load(Ordering::SeqCst), 3 * block);
        });
    }

    #[test]
    fn dropping_the_senders_lets_a_starved_shard_drain_and_finish() {
        let capacity = 8;
        let mut lanes = block_queues(capacity, 2, true);
        let (mut tx, mut rx) = lanes.pop().unwrap();
        let (idle_tx, mut idle_rx) = lanes.pop().unwrap();
        // Less than a block: nothing crosses until the flush.
        for i in 0..3 {
            tx.push(req(i)).unwrap();
        }
        within_timeout(move || {
            let idle = std::thread::spawn(move || {
                let mut batch = Vec::new();
                let open = idle_rx.fill(2, &mut batch);
                (open, batch)
            });
            let fed = std::thread::spawn(move || {
                let (mut batch, mut served) = (Vec::new(), Vec::new());
                while rx.fill(2, &mut batch) {
                    served.extend_from_slice(&batch);
                }
                served.extend_from_slice(&batch);
                served
            });
            tx.flush().unwrap();
            drop((tx, idle_tx));
            assert_eq!(idle.join().unwrap(), (false, Vec::new()));
            assert_eq!(fed.join().unwrap(), (0..3).map(req).collect::<Vec<_>>());
        });
    }
}
