//! Single-producer / single-consumer message queue (§5.2, §A.2).
//!
//! The queue is a circular array of fixed-size slots. The producer keeps the
//! tail index locally, the consumer keeps the head index locally; the only
//! shared state is the per-slot control record and payload, which minimizes
//! cache coherence traffic. This mirrors the shared-memory queue layout of
//! the original SimBricks implementation; here the "shared memory segment" is
//! a heap allocation shared between two threads via `Arc`.
//!
//! ## Layout
//!
//! Slots are dense 128-byte control records (control byte plus timestamp
//! and length header, see [`crate::slot`]), so a SYNC message or a timestamp
//! peek touches one cache line. Payloads live out of line in one zeroed
//! arena of `len × MAX_PAYLOAD` bytes: slot `i`'s payload is the region at
//! `i × MAX_PAYLOAD`. The arena comes from `alloc_zeroed`, so the OS faults
//! its pages in only when a data message first lands in them; a channel that
//! only ever carries SYNCs costs its `len × 128` control bytes. Capacity is
//! still counted in slots, each taking up to [`MAX_PAYLOAD`] bytes.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::pktbuf::{BufPool, PktBuf};
use crate::slot::{MsgType, OwnedMsg, Slot, MAX_PAYLOAD};
use crate::time::SimTime;

/// Default number of slots per unidirectional queue.
pub const DEFAULT_QUEUE_LEN: usize = 64;

struct Shared {
    slots: Box<[Slot]>,
    /// Payload arena, `slots.len() × MAX_PAYLOAD` bytes. Only ever accessed
    /// through raw pointers into one slot's region, by whichever side owns
    /// that slot's control byte.
    payload: *mut u8,
    /// Set when the producer is dropped, letting the consumer distinguish
    /// "no message yet" from "peer is gone".
    producer_closed: AtomicBool,
    /// Set when the consumer is dropped.
    consumer_closed: AtomicBool,
}

// SAFETY: the arena pointer is owned by `Shared` (freed in `Drop`), and each
// slot's payload region is accessed only by the side that owns the slot's
// control byte, handed over with release/acquire ordering (§A.2).
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

impl Shared {
    /// Arena layout for `slots` slots. Byte alignment keeps the system
    /// allocator on its `calloc` path, which maps fresh zero pages instead
    /// of writing them.
    fn arena_layout(slots: usize) -> Layout {
        Layout::array::<u8>(slots * MAX_PAYLOAD).expect("payload arena size overflows")
    }

    /// Start of slot `i`'s payload region. Dereferencing it is sound only
    /// for `i < slots.len()`, by the side that owns slot `i`.
    #[inline]
    fn payload_ptr(&self, i: usize) -> *mut u8 {
        debug_assert!(i < self.slots.len());
        self.payload.wrapping_add(i * MAX_PAYLOAD)
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        // SAFETY: `payload` came from `alloc_zeroed` with this same layout
        // and both endpoints (the only users) are gone.
        unsafe { dealloc(self.payload, Self::arena_layout(self.slots.len())) }
    }
}

/// Create a new SPSC queue with `len` slots, returning its two endpoints.
pub fn queue(len: usize) -> (Producer, Consumer) {
    assert!(len >= 2, "queue needs at least two slots");
    let slots: Vec<Slot> = (0..len).map(|_| Slot::new()).collect();
    let layout = Shared::arena_layout(len);
    // SAFETY: `layout` has non-zero size (`len >= 2`).
    let payload = unsafe { alloc_zeroed(layout) };
    if payload.is_null() {
        handle_alloc_error(layout);
    }
    let shared = Arc::new(Shared {
        slots: slots.into_boxed_slice(),
        payload,
        producer_closed: AtomicBool::new(false),
        consumer_closed: AtomicBool::new(false),
    });
    (
        Producer {
            shared: shared.clone(),
            tail: 0,
            sent: 0,
        },
        Consumer {
            shared,
            head: 0,
            received: 0,
            pool: BufPool::new(),
        },
    )
}

/// Error returned when the queue is full or the peer has disappeared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The next slot is still owned by the consumer (queue full).
    Full,
    /// The payload exceeds [`MAX_PAYLOAD`].
    TooLarge,
    /// The consumer endpoint was dropped.
    Disconnected,
}

/// Producer endpoint of an SPSC queue.
pub struct Producer {
    shared: Arc<Shared>,
    tail: usize,
    sent: u64,
}

impl Producer {
    /// Attempt to enqueue one message. Non-blocking: returns
    /// [`SendError::Full`] if the next slot is not yet free.
    pub fn try_send(
        &mut self,
        timestamp: SimTime,
        ty: MsgType,
        payload: &[u8],
    ) -> Result<(), SendError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(SendError::TooLarge);
        }
        if self.shared.consumer_closed.load(Ordering::Relaxed) {
            return Err(SendError::Disconnected);
        }
        let slot = &self.shared.slots[self.tail];
        if !slot.producer_owned() {
            return Err(SendError::Full);
        }
        // SAFETY: we own the slot (checked above with acquire ordering) and
        // are the only producer, so its header and its `MAX_PAYLOAD`-byte
        // arena region are ours until `publish` hands them over with release
        // ordering. `self.tail` just indexed `slots`, so the region lies in
        // the arena, and `payload.len() <= MAX_PAYLOAD` keeps the copy
        // inside it.
        unsafe {
            let hdr = &mut *slot.header.get();
            hdr.timestamp = timestamp.as_ps();
            hdr.len = payload.len() as u32;
            std::ptr::copy_nonoverlapping(
                payload.as_ptr(),
                self.shared.payload_ptr(self.tail),
                payload.len(),
            );
        }
        slot.publish(ty);
        self.tail += 1;
        if self.tail == self.shared.slots.len() {
            self.tail = 0;
        }
        self.sent += 1;
        Ok(())
    }

    /// Number of messages successfully enqueued so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Whether there is room for at least one more message.
    pub fn can_send(&self) -> bool {
        self.shared.slots[self.tail].producer_owned()
    }

    /// Queue capacity in slots.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// True once the consumer endpoint has been dropped.
    pub fn peer_closed(&self) -> bool {
        self.shared.consumer_closed.load(Ordering::Relaxed)
    }
}

impl Drop for Producer {
    fn drop(&mut self) {
        self.shared.producer_closed.store(true, Ordering::Release);
    }
}

/// Consumer endpoint of an SPSC queue.
pub struct Consumer {
    shared: Arc<Shared>,
    head: usize,
    received: u64,
    /// Arena for received payloads; replaced by the owning kernel's pool via
    /// [`Consumer::set_pool`] so pool counters aggregate per component.
    pool: BufPool,
}

impl Consumer {
    /// Install the buffer pool that received payloads are allocated from.
    pub fn set_pool(&mut self, pool: BufPool) {
        self.pool = pool;
    }

    /// The buffer pool received payloads are allocated from.
    pub fn pool(&self) -> &BufPool {
        &self.pool
    }

    /// Attempt to dequeue one message, copying it out of the slot into a
    /// pooled buffer (empty payloads — SYNC messages — are allocation-free).
    pub fn try_recv(&mut self) -> Option<OwnedMsg> {
        let slot = &self.shared.slots[self.head];
        if !slot.consumer_owned() {
            return None;
        }
        // SAFETY: the consumer owns the slot (acquire load above pairs with
        // the producer's release `publish`), so the header and the arena
        // region are fully written and the producer will not touch them
        // until `release`.
        let hdr = unsafe { *slot.header.get() };
        let len = hdr.len as usize;
        assert!(len <= MAX_PAYLOAD, "slot length {len} exceeds MAX_PAYLOAD");
        let data = if len == 0 {
            PktBuf::empty()
        } else {
            // SAFETY: as above, the region is ours and initialized (the
            // arena is zeroed and the producer wrote the first `len` bytes).
            // `self.head` just indexed `slots`, so the region lies in the
            // arena, and `len <= MAX_PAYLOAD` keeps the slice inside it.
            let payload =
                unsafe { std::slice::from_raw_parts(self.shared.payload_ptr(self.head), len) };
            self.pool.copy_from_slice(payload)
        };
        let msg = OwnedMsg::new(SimTime::from_ps(hdr.timestamp), slot.msg_type(), data);
        slot.release();
        self.head += 1;
        if self.head == self.shared.slots.len() {
            self.head = 0;
        }
        self.received += 1;
        Some(msg)
    }

    /// Peek at the timestamp of the next message without consuming it.
    pub fn peek_timestamp(&self) -> Option<SimTime> {
        let slot = &self.shared.slots[self.head];
        if !slot.consumer_owned() {
            return None;
        }
        // SAFETY: the consumer owns the slot (acquire load above), so the
        // header is fully written and stable until `release`.
        let ts = unsafe { (*slot.header.get()).timestamp };
        Some(SimTime::from_ps(ts))
    }

    /// Number of messages dequeued so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// True once the producer endpoint has been dropped and no message is
    /// pending.
    pub fn is_drained(&self) -> bool {
        self.shared.producer_closed.load(Ordering::Acquire)
            && !self.shared.slots[self.head].consumer_owned()
    }

    /// True once the producer endpoint has been dropped.
    pub fn peer_closed(&self) -> bool {
        self.shared.producer_closed.load(Ordering::Acquire)
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        self.shared.consumer_closed.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_roundtrip() {
        let (mut p, mut c) = queue(4);
        assert!(c.try_recv().is_none());
        p.try_send(SimTime::from_ns(1), 3, b"hello").unwrap();
        let m = c.try_recv().unwrap();
        assert_eq!(m.timestamp, SimTime::from_ns(1));
        assert_eq!(m.ty, 3);
        assert_eq!(m.data, b"hello");
        assert!(c.try_recv().is_none());
    }

    #[test]
    fn queue_fills_up_and_drains() {
        let (mut p, mut c) = queue(4);
        for i in 0..4u64 {
            p.try_send(SimTime::from_ns(i), 1, &[i as u8]).unwrap();
        }
        assert_eq!(p.try_send(SimTime::from_ns(9), 1, &[]), Err(SendError::Full));
        assert!(!p.can_send());
        for i in 0..4u64 {
            let m = c.try_recv().unwrap();
            assert_eq!(m.data, vec![i as u8]);
        }
        assert!(p.can_send());
        p.try_send(SimTime::from_ns(10), 1, &[42]).unwrap();
        assert_eq!(c.try_recv().unwrap().data, vec![42]);
    }

    #[test]
    fn wraparound_preserves_fifo_order() {
        let (mut p, mut c) = queue(3);
        let mut next_send = 0u64;
        let mut next_recv = 0u64;
        for _round in 0..50 {
            while p
                .try_send(SimTime::from_ns(next_send), 2, &next_send.to_le_bytes())
                .is_ok()
            {
                next_send += 1;
            }
            while let Some(m) = c.try_recv() {
                assert_eq!(m.data, next_recv.to_le_bytes());
                assert_eq!(m.timestamp, SimTime::from_ns(next_recv));
                next_recv += 1;
            }
        }
        assert_eq!(next_send, next_recv);
        assert!(next_send >= 100);
    }

    #[test]
    fn oversized_payload_rejected() {
        let (mut p, _c) = queue(2);
        let big = vec![0u8; MAX_PAYLOAD + 1];
        assert_eq!(
            p.try_send(SimTime::ZERO, 1, &big),
            Err(SendError::TooLarge)
        );
        let exact = vec![0u8; MAX_PAYLOAD];
        assert!(p.try_send(SimTime::ZERO, 1, &exact).is_ok());
    }

    /// Full-size payloads in every slot, through two wraps: each region is
    /// checked byte for byte, so overlapping neighbours (or a last region
    /// running past the arena) would corrupt a pattern.
    #[test]
    fn full_payload_regions_do_not_overlap() {
        let pattern = |seq: u64| -> Vec<u8> {
            (0..MAX_PAYLOAD)
                .map(|i| (seq as u8).wrapping_mul(37) ^ (i as u8) ^ ((i >> 8) as u8))
                .collect()
        };
        let (mut p, mut c) = queue(4);
        let mut seq = 0u64;
        for _round in 0..3 {
            let first = seq;
            while p.try_send(SimTime::from_ps(seq), 1, &pattern(seq)).is_ok() {
                seq += 1;
            }
            assert_eq!(seq - first, 4, "every slot takes a full payload");
            for want in first..seq {
                let m = c.try_recv().unwrap();
                assert_eq!(m.timestamp, SimTime::from_ps(want));
                assert!(m.data[..] == pattern(want)[..], "payload {want} corrupted");
            }
            assert!(c.try_recv().is_none());
        }
    }

    #[test]
    fn peek_timestamp_does_not_consume() {
        let (mut p, mut c) = queue(4);
        assert!(c.peek_timestamp().is_none());
        p.try_send(SimTime::from_ns(77), 1, &[]).unwrap();
        assert_eq!(c.peek_timestamp(), Some(SimTime::from_ns(77)));
        assert_eq!(c.peek_timestamp(), Some(SimTime::from_ns(77)));
        assert!(c.try_recv().is_some());
        assert!(c.peek_timestamp().is_none());
    }

    #[test]
    fn disconnect_detection() {
        let (p, c) = queue(4);
        assert!(!c.peer_closed());
        drop(p);
        assert!(c.peer_closed());
        assert!(c.is_drained());

        let (mut p, c) = queue(4);
        drop(c);
        assert_eq!(
            p.try_send(SimTime::ZERO, 1, &[]),
            Err(SendError::Disconnected)
        );
    }

    #[test]
    fn drained_only_after_pending_consumed() {
        let (mut p, mut c) = queue(4);
        p.try_send(SimTime::ZERO, 1, &[1]).unwrap();
        drop(p);
        assert!(!c.is_drained());
        c.try_recv().unwrap();
        assert!(c.is_drained());
    }

    #[test]
    fn cross_thread_transfer() {
        let (mut p, mut c) = queue(8);
        let n = 10_000u64;
        let handle = std::thread::spawn(move || {
            let mut sent = 0u64;
            while sent < n {
                if p
                    .try_send(SimTime::from_ps(sent), 5, &sent.to_le_bytes())
                    .is_ok()
                {
                    sent += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
        let mut expect = 0u64;
        while expect < n {
            match c.try_recv() {
                Some(m) => {
                    assert_eq!(m.data, expect.to_le_bytes());
                    expect += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        handle.join().unwrap();
    }
}
