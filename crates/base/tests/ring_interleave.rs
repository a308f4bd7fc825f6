//! Concurrency validation for the SPSC ring control-byte protocol (§A.2):
//!
//! 1. An *exhaustive* enumeration of every producer/consumer operation
//!    interleaving on tiny rings, checked against a sequential oracle. At
//!    operation granularity this covers every reachable ownership-handoff
//!    state of the protocol (each `try_send`/`try_recv` is one atomic
//!    acquire/release exchange on the slot's control byte, so op-level
//!    interleaving is exactly slot-state interleaving).
//! 2. Two genuinely concurrent stress tests (real threads, seeded
//!    pseudo-random pacing) that double as the ThreadSanitizer targets for
//!    the nightly TSan CI job: any missing release/acquire edge on the
//!    control byte shows up as a data race on the slot header or on the
//!    slot's payload-arena region.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use simbricks_base::spsc::{queue, SendError};
use simbricks_base::{SimTime, MAX_PAYLOAD};

/// Deterministic pacing for the stress tests (never `thread_rng`: the test
/// itself must be reproducible).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Message body for sequence `seq`: empty (SYNC-like) through 256 B, except
/// that every 97th sequence fills its slot's whole payload region
/// (`MAX_PAYLOAD`, alternating with `MAX_PAYLOAD - 1`), so both ends of each
/// arena region are written and read across threads.
fn payload_for(seq: u64) -> Vec<u8> {
    let len = if seq.is_multiple_of(97) {
        MAX_PAYLOAD - (seq / 97 % 2) as usize
    } else {
        (seq % 257) as usize
    };
    (0..len)
        .map(|i| (seq as u8).wrapping_mul(31).wrapping_add(i as u8) ^ (i >> 8) as u8)
        .collect()
}

/// Enumerate every interleaving of `ops` producer attempts and `ops`
/// consumer attempts on a `cap`-slot ring, as bitmask schedules (bit set =
/// producer's turn). A `VecDeque` oracle predicts exactly which operations
/// succeed and what the consumer observes.
#[test]
fn exhaustive_op_interleavings_match_sequential_oracle() {
    // The queue constructor requires at least two slots.
    for cap in [2usize, 3, 4] {
        let ops = 6u32;
        let total_bits = 2 * ops;
        let mut schedules = 0u64;
        for schedule in 0u32..(1 << total_bits) {
            if schedule.count_ones() != ops {
                continue; // exactly `ops` producer turns
            }
            schedules += 1;
            let (mut tx, mut rx) = queue(cap);
            let mut oracle: VecDeque<u64> = VecDeque::new();
            let mut next_seq = 0u64;
            for bit in 0..total_bits {
                if schedule >> bit & 1 == 1 {
                    // Producer's turn.
                    let seq = next_seq;
                    let body = payload_for(seq);
                    let r = tx.try_send(SimTime::from_ps(seq), (seq % 100 + 1) as u8, &body);
                    if oracle.len() < cap {
                        assert_eq!(r, Ok(()), "cap={cap} sched={schedule:b} seq={seq}");
                        oracle.push_back(seq);
                        next_seq += 1;
                    } else {
                        assert_eq!(r, Err(SendError::Full), "cap={cap} sched={schedule:b}");
                    }
                } else {
                    // Consumer's turn.
                    match rx.try_recv() {
                        Some(m) => {
                            let want = oracle.pop_front().expect("recv from empty ring");
                            assert_eq!(m.timestamp, SimTime::from_ps(want));
                            assert_eq!(m.ty, (want % 100 + 1) as u8);
                            assert_eq!(&m.data[..], &payload_for(want)[..]);
                        }
                        None => assert!(oracle.is_empty(), "message lost: {oracle:?}"),
                    }
                }
            }
            // Drain: everything the oracle still holds must come out in order.
            while let Some(want) = oracle.pop_front() {
                let m = rx.try_recv().expect("drain");
                assert_eq!(m.timestamp, SimTime::from_ps(want));
            }
            assert!(rx.try_recv().is_none());
        }
        assert_eq!(schedules, 924, "C(12,6) schedules per capacity");
    }
}

/// Real-thread stress: one producer thread, one consumer thread, every
/// message checked for sequence, timestamp, type, and payload integrity.
/// The seeded pacing varies batch sizes so the ring oscillates between
/// empty, partially full, and full (both wrap-around edges).
fn stress(cap: usize, n_msgs: u64, seed: u64) {
    let (mut tx, mut rx) = queue(cap);
    let failed = Arc::new(AtomicBool::new(false));
    let failed_p = failed.clone();

    let producer = std::thread::spawn(move || {
        let mut rng = Lcg(seed);
        let mut seq = 0u64;
        while seq < n_msgs {
            let body = payload_for(seq);
            match tx.try_send(SimTime::from_ps(seq), (seq % 100 + 1) as u8, &body) {
                Ok(()) => seq += 1,
                Err(SendError::Full) => {
                    for _ in 0..rng.next() % 64 {
                        std::hint::spin_loop();
                    }
                }
                Err(e) => {
                    eprintln!("producer error: {e:?}");
                    failed_p.store(true, Ordering::Relaxed);
                    return;
                }
            }
            if rng.next() % 16 == 0 {
                std::thread::yield_now();
            }
        }
    });

    let mut rng = Lcg(seed ^ 0x5eed);
    let mut expect = 0u64;
    while expect < n_msgs {
        match rx.try_recv() {
            Some(m) => {
                assert_eq!(m.timestamp, SimTime::from_ps(expect), "sequence hole");
                assert_eq!(m.ty, (expect % 100 + 1) as u8);
                assert_eq!(&m.data[..], &payload_for(expect)[..], "payload torn at {expect}");
                expect += 1;
            }
            None => {
                assert!(!failed.load(Ordering::Relaxed), "producer died");
                for _ in 0..rng.next() % 64 {
                    std::hint::spin_loop();
                }
                if rng.next() % 16 == 0 {
                    std::thread::yield_now();
                }
            }
        }
    }
    producer.join().unwrap();
    assert!(rx.try_recv().is_none(), "spurious trailing message");
}

#[test]
fn two_thread_stress_default_ring() {
    stress(64, 50_000, 0xC0FFEE);
}

/// Capacity-2 ring: maximum contention on the ownership handoff — the
/// producer and consumer fight over the same two control bytes the whole
/// run, so every release/acquire edge is exercised millions of times.
#[test]
fn two_thread_stress_tiny_ring_wraparound() {
    stress(2, 50_000, 0xBEEF);
}
