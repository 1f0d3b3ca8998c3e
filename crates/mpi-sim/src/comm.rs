//! The per-rank communicator: point-to-point messaging and collectives.
//!
//! Collectives are implemented as genuine message exchanges — binomial trees
//! for broadcast and reduce, a dissemination pattern for barrier, a flat
//! funnel for gather — matching the message complexity of a classic MPI
//! implementation rather than cheating through shared memory. All ranks must
//! call collectives in the same order (SPMD discipline), which is exactly the
//! contract MPI imposes.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use crossbeam::channel::{Receiver, Sender};

use crate::envelope::Envelope;
use crate::error::{CommError, CommResult};
use crate::mesh::Endpoints;

/// Bit marking a tag as belonging to a collective operation, keeping the
/// collective tag space disjoint from user point-to-point tags.
const COLL_BIT: u64 = 1 << 63;

/// Kind codes mixed into collective tags so different collectives can never
/// match each other's messages even if user code interleaves them.
#[derive(Clone, Copy)]
enum CollKind {
    Barrier = 0,
    Bcast = 1,
    Gather = 2,
    Reduce = 3,
}

/// Snapshot of a rank's message traffic, for communication-complexity
/// assertions and instrumentation (the paper's §4.4 reasons about how the
/// collective sections grow with the process count; these counters let tests
/// pin the tree message counts down exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MessageStats {
    /// Point-to-point messages sent by this rank (collectives included).
    pub sent: u64,
    /// Point-to-point messages received by this rank (collectives included).
    pub received: u64,
    /// Collective operations started by this rank.
    pub collectives: u64,
}

/// A rank's handle to the universe: its identity plus its mesh endpoints.
///
/// `Communicator` is deliberately `!Sync`: each rank owns exactly one and uses
/// it from its own thread, as with `MPI_COMM_WORLD` in a rank process.
pub struct Communicator {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Envelope>>,
    receivers: Vec<Receiver<Envelope>>,
    /// Out-of-order buffer: messages that arrived from `src` while we were
    /// waiting for a different tag.
    pending: Vec<RefCell<VecDeque<Envelope>>>,
    /// Collective sequence number; identical across ranks by SPMD discipline.
    coll_seq: Cell<u64>,
    /// Traffic counters (see [`MessageStats`]).
    sent: Cell<u64>,
    received: Cell<u64>,
    collectives: Cell<u64>,
}

impl Communicator {
    pub(crate) fn new(rank: usize, endpoints: Endpoints) -> Self {
        let size = endpoints.senders.len();
        Communicator {
            rank,
            size,
            senders: endpoints.senders,
            receivers: endpoints.receivers,
            pending: (0..size).map(|_| RefCell::new(VecDeque::new())).collect(),
            coll_seq: Cell::new(0),
            sent: Cell::new(0),
            received: Cell::new(0),
            collectives: Cell::new(0),
        }
    }

    /// This rank's id, in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the universe.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// True for the SPRINT master (rank 0).
    #[inline]
    pub fn is_master(&self) -> bool {
        self.rank == crate::MASTER
    }

    /// Snapshot of this rank's traffic counters.
    pub fn message_stats(&self) -> MessageStats {
        MessageStats {
            sent: self.sent.get(),
            received: self.received.get(),
            collectives: self.collectives.get(),
        }
    }

    fn check_rank(&self, rank: usize) -> CommResult<()> {
        if rank >= self.size {
            Err(CommError::InvalidRank {
                rank,
                size: self.size,
            })
        } else {
            Ok(())
        }
    }

    /// Send `value` to rank `dst` with a user `tag` (must not set the top bit).
    pub fn send<T: Send + 'static>(&self, dst: usize, tag: u64, value: T) -> CommResult<()> {
        assert_eq!(
            tag & COLL_BIT,
            0,
            "user tags must not set the collective bit"
        );
        self.send_tagged(dst, tag, value)
    }

    fn send_tagged<T: Send + 'static>(&self, dst: usize, tag: u64, value: T) -> CommResult<()> {
        self.check_rank(dst)?;
        self.sent.set(self.sent.get() + 1);
        self.senders[dst]
            .send(Envelope::new(tag, value))
            .map_err(|_| CommError::Disconnected { peer: dst })
    }

    /// Receive a `T` from rank `src` with the given user `tag`, blocking until
    /// it arrives. Messages from `src` with other tags are buffered.
    pub fn recv<T: 'static>(&self, src: usize, tag: u64) -> CommResult<T> {
        assert_eq!(
            tag & COLL_BIT,
            0,
            "user tags must not set the collective bit"
        );
        self.recv_tagged(src, tag)
    }

    fn recv_tagged<T: 'static>(&self, src: usize, tag: u64) -> CommResult<T> {
        self.check_rank(src)?;
        // First look through messages that already arrived out of order.
        {
            let mut pend = self.pending[src].borrow_mut();
            if let Some(pos) = pend.iter().position(|e| e.tag == tag) {
                let env = pend.remove(pos).expect("position just found");
                self.received.set(self.received.get() + 1);
                return env.open::<T>().map_err(|env| {
                    // Put it back so state is not corrupted by the error.
                    self.pending[src].borrow_mut().push_front(env);
                    CommError::TypeMismatch { src, tag }
                });
            }
        }
        loop {
            let env = self.receivers[src]
                .recv()
                .map_err(|_| CommError::Disconnected { peer: src })?;
            if env.tag == tag {
                self.received.set(self.received.get() + 1);
                return env.open::<T>().map_err(|env| {
                    self.pending[src].borrow_mut().push_front(env);
                    CommError::TypeMismatch { src, tag }
                });
            }
            self.pending[src].borrow_mut().push_back(env);
        }
    }

    fn next_coll_tag(&self, kind: CollKind) -> u64 {
        self.collectives.set(self.collectives.get() + 1);
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        COLL_BIT | (seq << 3) | kind as u64
    }

    /// Dissemination barrier: `ceil(log2 p)` rounds of shifted token passing.
    /// No rank exits before every rank has entered.
    pub fn barrier(&self) -> CommResult<()> {
        let tag = self.next_coll_tag(CollKind::Barrier);
        let mut dist = 1usize;
        while dist < self.size {
            let to = (self.rank + dist) % self.size;
            let from = (self.rank + self.size - dist % self.size) % self.size;
            self.send_tagged(to, tag | (dist as u64) << 32, ())?;
            self.recv_tagged::<()>(from, tag | (dist as u64) << 32)?;
            dist <<= 1;
        }
        Ok(())
    }

    /// Binomial-tree broadcast from `root`. The root passes `Some(value)`,
    /// everyone else `None`; all ranks return the value.
    pub fn bcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> CommResult<T> {
        self.check_rank(root)?;
        let tag = self.next_coll_tag(CollKind::Bcast);
        let vr = (self.rank + self.size - root) % self.size; // virtual rank, root at 0
        let value = if vr == 0 {
            value.expect("broadcast root must supply a value")
        } else {
            // Parent: clear the highest set bit of the virtual rank.
            let msb = usize::BITS - 1 - vr.leading_zeros();
            let parent_vr = vr & !(1usize << msb);
            let parent = (parent_vr + root) % self.size;
            self.recv_tagged::<T>(parent, tag)?
        };
        // Children: vr | 2^k for 2^k > vr (any k when vr == 0), child < size.
        let first_k = if vr == 0 {
            0
        } else {
            (usize::BITS - vr.leading_zeros()) as usize
        };
        for k in first_k..usize::BITS as usize {
            let child_vr = vr | (1usize << k);
            if child_vr == vr || child_vr >= self.size {
                if child_vr >= self.size {
                    break;
                }
                continue;
            }
            let child = (child_vr + root) % self.size;
            self.send_tagged(child, tag, value.clone())?;
        }
        Ok(value)
    }

    /// Flat gather: every rank sends `value` to `root`, which returns the
    /// vector ordered by rank; non-roots return `None`.
    pub fn gather<T: Send + 'static>(&self, root: usize, value: T) -> CommResult<Option<Vec<T>>> {
        self.check_rank(root)?;
        let tag = self.next_coll_tag(CollKind::Gather);
        if self.rank == root {
            let mut out: Vec<Option<T>> = (0..self.size).map(|_| None).collect();
            out[root] = Some(value);
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = Some(self.recv_tagged::<T>(src, tag)?);
                }
            }
            Ok(Some(out.into_iter().map(Option::unwrap).collect()))
        } else {
            self.send_tagged(root, tag, value)?;
            Ok(None)
        }
    }

    /// Binomial-tree reduction to `root` with combining operator `op`.
    /// Partial results are combined in a fixed tree order, so integer
    /// reductions are exact and deterministic; floating-point reductions are
    /// deterministic for a given rank count but may differ from serial
    /// left-to-right order.
    pub fn reduce<T, F>(&self, root: usize, value: T, op: F) -> CommResult<Option<T>>
    where
        T: Send + 'static,
        F: Fn(T, T) -> T,
    {
        self.check_rank(root)?;
        let tag = self.next_coll_tag(CollKind::Reduce);
        let vr = (self.rank + self.size - root) % self.size;
        let mut acc = Some(value);
        let mut mask = 1usize;
        while mask < self.size {
            if vr & mask != 0 {
                // Send partial to the subtree parent and drop out.
                let dst_vr = vr & !mask;
                let dst = (dst_vr + root) % self.size;
                self.send_tagged(dst, tag, acc.take().expect("partial present"))?;
                break;
            }
            let src_vr = vr | mask;
            if src_vr < self.size {
                let src = (src_vr + root) % self.size;
                let other = self.recv_tagged::<T>(src, tag)?;
                let cur = acc.take().expect("partial present");
                acc = Some(op(cur, other));
            }
            mask <<= 1;
        }
        if self.rank == root {
            Ok(Some(acc.expect("root keeps the result")))
        } else {
            Ok(None)
        }
    }

    /// Reduce to `root`, then broadcast the result to everyone.
    pub fn allreduce<T, F>(&self, value: T, op: F) -> CommResult<T>
    where
        T: Clone + Send + 'static,
        F: Fn(T, T) -> T,
    {
        let reduced = self.reduce(crate::MASTER, value, op)?;
        self.bcast(crate::MASTER, reduced)
    }

    /// Element-wise sum-reduce of equal-length `u64` vectors to `root`.
    /// This is the collective `pmaxT` uses to combine per-rank permutation
    /// counts (paper §3.2 Step 5); integer summation makes it exact.
    pub fn reduce_sum_u64(&self, root: usize, value: Vec<u64>) -> CommResult<Option<Vec<u64>>> {
        self.reduce(root, value, |mut a, b| {
            assert_eq!(a.len(), b.len(), "count vectors must have equal length");
            for (x, y) in a.iter_mut().zip(&b) {
                *x += *y;
            }
            a
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::Universe;

    #[test]
    fn point_to_point_ring() {
        let out = Universe::run(5, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 10, c.rank() as u64).unwrap();
            c.recv::<u64>(prev, 10).unwrap()
        })
        .unwrap();
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn tags_demultiplex_out_of_order() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, "first".to_string()).unwrap();
                c.send(1, 2, "second".to_string()).unwrap();
                String::new()
            } else {
                // Receive in reverse tag order; tag-1 message is buffered.
                let b = c.recv::<String>(0, 2).unwrap();
                let a = c.recv::<String>(0, 1).unwrap();
                format!("{a}/{b}")
            }
        })
        .unwrap();
        assert_eq!(out[1], "first/second");
    }

    #[test]
    fn bcast_from_every_root_and_size() {
        for size in 1..=9 {
            for root in 0..size {
                let out = Universe::run(size, move |c| {
                    let v = if c.rank() == root {
                        Some(vec![root as u32, 99])
                    } else {
                        None
                    };
                    c.bcast(root, v).unwrap()
                })
                .unwrap();
                for v in out {
                    assert_eq!(v, vec![root as u32, 99]);
                }
            }
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        for size in 1..=8 {
            let out = Universe::run(size, |c| c.gather(0, c.rank() as u32 * 3).unwrap()).unwrap();
            let at_root = out[0].as_ref().unwrap();
            let expect: Vec<u32> = (0..size as u32).map(|r| r * 3).collect();
            assert_eq!(at_root, &expect);
            for o in &out[1..] {
                assert!(o.is_none());
            }
        }
    }

    #[test]
    fn gather_to_nonzero_root() {
        let out = Universe::run(4, |c| c.gather(2, c.rank()).unwrap()).unwrap();
        assert_eq!(out[2].as_ref().unwrap(), &vec![0, 1, 2, 3]);
        assert!(out[0].is_none() && out[1].is_none() && out[3].is_none());
    }

    #[test]
    fn reduce_sums_exactly() {
        for size in 1..=9 {
            let out = Universe::run(size, |c| {
                c.reduce(0, (c.rank() + 1) as u64, |a, b| a + b).unwrap()
            })
            .unwrap();
            let n = size as u64;
            assert_eq!(out[0], Some(n * (n + 1) / 2));
        }
    }

    #[test]
    fn reduce_vector_counts() {
        let out = Universe::run(4, |c| {
            let v = vec![c.rank() as u64; 3];
            c.reduce_sum_u64(0, v).unwrap()
        })
        .unwrap();
        assert_eq!(out[0], Some(vec![6, 6, 6]));
    }

    #[test]
    fn allreduce_delivers_everywhere() {
        let out = Universe::run(6, |c| c.allreduce(1u64, |a, b| a + b).unwrap()).unwrap();
        assert!(out.iter().all(|&v| v == 6));
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let before = Arc::new(AtomicUsize::new(0));
        let violations = Arc::new(AtomicUsize::new(0));
        let b2 = Arc::clone(&before);
        let v2 = Arc::clone(&violations);
        Universe::run(8, move |c| {
            b2.fetch_add(1, Ordering::SeqCst);
            c.barrier().unwrap();
            // After the barrier, every rank must have passed the increment.
            if b2.load(Ordering::SeqCst) != c.size() {
                v2.fetch_add(1, Ordering::SeqCst);
            }
        })
        .unwrap();
        assert_eq!(violations.load(std::sync::atomic::Ordering::SeqCst), 0);
        assert_eq!(before.load(std::sync::atomic::Ordering::SeqCst), 8);
    }

    #[test]
    fn successive_collectives_do_not_cross_talk() {
        let out = Universe::run(3, |c| {
            let a = c
                .bcast(0, if c.is_master() { Some(1u8) } else { None })
                .unwrap();
            let b = c
                .bcast(1, if c.rank() == 1 { Some(2u8) } else { None })
                .unwrap();
            let s = c.allreduce(1u32, |x, y| x + y).unwrap();
            (a, b, s)
        })
        .unwrap();
        assert!(out.iter().all(|&(a, b, s)| a == 1 && b == 2 && s == 3));
    }

    #[test]
    fn type_mismatch_reported() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 4, 1u32).unwrap();
                true
            } else {
                c.recv::<String>(0, 4).is_err()
            }
        })
        .unwrap();
        assert!(out[1]);
    }

    #[test]
    fn invalid_rank_rejected() {
        let out = Universe::run(2, |c| c.send(5, 1, ()).is_err()).unwrap();
        assert!(out[0] && out[1]);
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        let out = Universe::run(1, |c| {
            c.barrier().unwrap();
            let b = c.bcast(0, Some(7u8)).unwrap();
            let g = c.gather(0, 9u8).unwrap().unwrap();
            let r = c.reduce(0, 5u8, |a, b| a + b).unwrap().unwrap();
            (b, g, r)
        })
        .unwrap();
        assert_eq!(out[0], (7, vec![9], 5));
    }
}

#[cfg(test)]
mod stats_tests {
    use crate::Universe;

    /// Total sends across the universe for one collective call.
    fn total_sent(size: usize, op: impl Fn(&crate::Communicator) + Send + Sync + 'static) -> u64 {
        Universe::run(size, move |c| {
            op(c);
            c.message_stats()
        })
        .unwrap()
        .iter()
        .map(|s| s.sent)
        .sum()
    }

    #[test]
    fn bcast_uses_exactly_p_minus_1_messages() {
        for size in [1usize, 2, 3, 5, 8, 13] {
            let sent = total_sent(size, |c| {
                let v = if c.is_master() { Some(7u8) } else { None };
                c.bcast(0, v).unwrap();
            });
            assert_eq!(sent, size as u64 - 1, "size={size}");
        }
    }

    #[test]
    fn gather_uses_exactly_p_minus_1_messages() {
        for size in [1usize, 2, 4, 7] {
            let sent = total_sent(size, |c| {
                c.gather(0, c.rank()).unwrap();
            });
            assert_eq!(sent, size as u64 - 1, "size={size}");
        }
    }

    #[test]
    fn reduce_uses_exactly_p_minus_1_messages() {
        for size in [1usize, 2, 4, 6, 9] {
            let sent = total_sent(size, |c| {
                c.reduce(0, 1u64, |a, b| a + b).unwrap();
            });
            assert_eq!(sent, size as u64 - 1, "size={size}");
        }
    }

    #[test]
    fn barrier_uses_p_times_ceil_log2_p_messages() {
        for size in [2usize, 3, 4, 8, 11] {
            let rounds = (usize::BITS - (size - 1).leading_zeros()) as u64;
            let sent = total_sent(size, |c| {
                c.barrier().unwrap();
            });
            assert_eq!(sent, size as u64 * rounds, "size={size}");
        }
    }

    #[test]
    fn sent_equals_received_after_quiesce() {
        let stats = Universe::run(6, |c| {
            c.allreduce(c.rank() as u64, |a, b| a + b).unwrap();
            c.barrier().unwrap();
            c.message_stats()
        })
        .unwrap();
        let sent: u64 = stats.iter().map(|s| s.sent).sum();
        let recv: u64 = stats.iter().map(|s| s.received).sum();
        assert_eq!(sent, recv, "no message lost or unconsumed");
        assert!(stats.iter().all(|s| s.collectives == 3)); // reduce+bcast+barrier
    }

    #[test]
    fn counters_start_at_zero() {
        let stats = Universe::run(2, |c| c.message_stats()).unwrap();
        for s in stats {
            assert_eq!(s, crate::comm::MessageStats::default());
        }
    }
}
