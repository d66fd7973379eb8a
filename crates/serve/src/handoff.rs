//! The router→shard queue: requests cross in *blocks*, batches are cut
//! on the shard's side.
//!
//! A per-request bounded channel wakes the parked router on every
//! batch's first `recv` — it refills one batch's worth of slots and
//! parks again, one cross-core futex wake per `max_batch` requests. A
//! block gives the queue hysteresis: the router accumulates a shard's
//! subsequence locally and hands it over [`block_size`] requests at a
//! time through a one-block channel, so it parks (and is woken) once per
//! block however small the batches are.
//!
//! Batch boundaries do not depend on the block size: [`BlockReceiver::fill`]
//! carries a partial batch across block boundaries, so batches stay
//! fixed `max_batch`-chunks of the shard's subsequence, the last one
//! partial.

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use sibyl_trace::IoRequest;

/// Requests per block: half of `queue_capacity`.
pub(crate) fn block_size(queue_capacity: usize) -> usize {
    (queue_capacity / 2).max(1)
}

/// The receiving shard is gone (its thread panicked and dropped the
/// [`BlockReceiver`]).
#[derive(Debug)]
pub(crate) struct ShardGone;

/// Router half: accumulates one shard's requests into a block.
#[derive(Debug)]
pub(crate) struct BlockSender {
    tx: Sender<Vec<IoRequest>>,
    block: Vec<IoRequest>,
    size: usize,
}

/// Shard half: the block being cut into batches and how far it is cut.
#[derive(Debug)]
pub(crate) struct BlockReceiver {
    rx: Receiver<Vec<IoRequest>>,
    block: Vec<IoRequest>,
    next: usize,
}

/// A block queue for one shard. A bounded queue holds one block besides
/// the one the shard is cutting — it keeps the shard fed while the router
/// is blocked behind a peer — and makes the next handover wait
/// (backpressure); an unbounded queue never blocks the router — what a
/// cooperative run needs, where the shard may be parked at a sync barrier
/// that only releases once the router has fed its *peers*.
pub(crate) fn block_queue(
    queue_capacity: usize,
    bounded_queue: bool,
) -> (BlockSender, BlockReceiver) {
    let size = block_size(queue_capacity);
    let (tx, rx) = if bounded_queue {
        bounded(1)
    } else {
        unbounded()
    };
    let sender = BlockSender {
        tx,
        block: Vec::with_capacity(size),
        size,
    };
    let receiver = BlockReceiver {
        rx,
        block: Vec::new(),
        next: 0,
    };
    (sender, receiver)
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
    /// sender afterwards closes the queue.
    pub(crate) fn flush(&mut self) -> Result<(), ShardGone> {
        if self.block.is_empty() {
            return Ok(());
        }
        let block = std::mem::replace(&mut self.block, Vec::with_capacity(self.size));
        self.tx.send(block).map_err(|_| ShardGone)
    }
}

impl BlockReceiver {
    /// Fill stage: blocks until `max_batch` requests have arrived or the
    /// router hung up, so batch boundaries are fixed chunks of the
    /// shard's subsequence whatever the thread schedule or block size.
    /// Returns `false` once the queue is closed (the batch may still
    /// hold a final partial chunk).
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
            match self.rx.recv() {
                Ok(block) => {
                    self.block = block;
                    self.next = 0;
                }
                Err(_) => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::within_timeout;
    use sibyl_trace::IoOp;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// The documented bound (`serve_stream`, `ServeConfig::queue_capacity`)
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

    #[test]
    fn a_stalled_consumer_blocks_the_producer_within_the_bound() {
        let (capacity, max_batch, n) = (8, 3, 101);
        let block = block_size(capacity);
        let attempted = Arc::new(AtomicUsize::new(0));
        let (tx, mut rx) = block_queue(capacity, true);
        let producer = produce(tx, n, Arc::clone(&attempted));
        within_timeout(move || {
            let mut batch = Vec::new();
            let mut consumed = 0usize;
            let mut open = true;
            while open {
                // Stalled here, the consumer has taken the blocks its
                // `consumed` requests came from; the producer queues one
                // more and blocks handing over the next.
                let stuck_at = n.min((consumed.div_ceil(block) + 2) * block);
                while attempted.load(Ordering::SeqCst) < stuck_at {
                    std::thread::yield_now();
                }
                // It must stay there: give it every chance to run on.
                for _ in 0..200 {
                    std::thread::yield_now();
                }
                let ahead = attempted.load(Ordering::SeqCst);
                assert_eq!(ahead, stuck_at, "producer ran past a full queue");
                let in_flight = ahead - consumed + batch.len();
                assert!(in_flight <= in_flight_bound(capacity, max_batch));
                open = rx.fill(max_batch, &mut batch);
                consumed += batch.len();
            }
            assert_eq!(consumed, n);
        });
        producer.join().unwrap().unwrap();
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
}
