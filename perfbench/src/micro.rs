//! Per-layer microbenchmarks: ns per operation of each layer's public
//! functions, at a workload's message size. Together with the run's
//! operation counts they form the cost ledger (paper §7.3).

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use simbricks::base::{
    channel_pair, BufPool, ChannelParams, EventQueue, Kernel, Model, OwnedMsg, PktBuf, StepOutcome,
    SyncPort, MSG_SYNC,
};
use simbricks::eth::MSG_ETH_PACKET;
use simbricks::netsim::{SwitchBm, SwitchConfig};
use simbricks::netstack::gro;
use simbricks::pcie::msg::DevToHost;
use simbricks::proto::{checksum, Ecn, FrameBuilder, Ipv4Addr, MacAddr, TcpFlags, TcpHeader};
use simbricks::runner::proxy::ShutdownSignal;
use simbricks::runner::shm;
use simbricks::SimTime;

use crate::sys::median;

/// Repetitions of each microbenchmark; the median is reported.
const REPS: usize = 5;

/// Run `f` (which performs `ops` operations) `REPS` times; median ns/op.
fn per_op(ops: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches, pools and lazily built state
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + 7) as u8).collect()
}

/// Channel send (slot copy in) + recv (into a pooled buffer) + drop.
pub fn channel_send_recv(len: usize) -> f64 {
    const BATCH: usize = 32;
    const N: usize = 20_000;
    let (mut tx, mut rx) = channel_pair(ChannelParams::default_sync().with_queue_len(BATCH));
    rx.set_pool(BufPool::new());
    let data = payload(len);
    let mut t = 0u64;
    per_op(N, || {
        for _ in 0..N / BATCH {
            for _ in 0..BATCH {
                t += 1;
                tx.send_raw(SimTime::from_ps(t), 5, &data)
                    .expect("ring holds a batch");
            }
            for _ in 0..BATCH {
                let m = rx.recv_raw().expect("sent");
                std::hint::black_box(&m);
            }
        }
    })
}

/// Pooled copy + drop (alloc, memcpy, freelist recycle).
pub fn pktbuf_copy(len: usize) -> f64 {
    const N: usize = 50_000;
    let pool = BufPool::new();
    let data = payload(len);
    per_op(N, || {
        for _ in 0..N {
            std::hint::black_box(pool.copy_from_slice(&data));
        }
    })
}

/// Buffer clone + drop (refcount bump, no bytes moved).
pub fn pktbuf_clone(len: usize) -> f64 {
    const N: usize = 200_000;
    let b: PktBuf = BufPool::new().copy_from_slice(&payload(len));
    per_op(N, || {
        for _ in 0..N {
            std::hint::black_box(b.clone());
        }
    })
}

/// Timing-wheel schedule + pop with 64 timers pending, as a busy component
/// keeps them.
pub fn event_schedule_pop() -> f64 {
    const N: usize = 100_000;
    const PENDING: u64 = 64;
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut now = SimTime::ZERO;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..PENDING {
        q.schedule(SimTime::from_ns(100 + i * 37), i);
    }
    per_op(N, || {
        for _ in 0..N {
            let t = q.next_time().expect("timers pending");
            now = now.max(t);
            let (_, tok) = q.pop_due(now).expect("due");
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.schedule(now + SimTime::from_ns(50 + x % 5_000), tok);
        }
    })
}

/// One promise: `send_promise` on one port, `poll` + `horizon` on its peer.
pub fn sync_promise() -> f64 {
    const N: usize = 50_000;
    let (a, b) = channel_pair(ChannelParams::default_sync());
    let (mut tx, mut rx) = (SyncPort::new(a), SyncPort::new(b));
    let lat = tx.latency();
    let mut now = SimTime::ZERO;
    per_op(N, || {
        for _ in 0..N {
            now += SimTime::from_ns(10);
            tx.send_promise(now, now + lat, false);
            rx.poll();
            std::hint::black_box(rx.horizon());
        }
    })
}

fn tcp_frames(seg_payload: usize, count: usize, seq0: u32) -> Vec<Vec<u8>> {
    let data = payload(seg_payload);
    (0..count)
        .map(|i| {
            let hdr = TcpHeader {
                src_port: 4000,
                dst_port: 5001,
                seq: seq0.wrapping_add((i * seg_payload) as u32),
                ack: 1,
                flags: TcpFlags::ACK,
                window: 1000,
                mss: None,
                wscale: None,
            };
            FrameBuilder::tcp(
                MacAddr::from_index(1),
                MacAddr::from_index(2),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                Ecn::Ect0,
                &hdr,
                &data,
            )
        })
        .collect()
}

/// GRO pass over in-order segments of one flow, per wire segment.
pub fn gro_per_seg(frame_len: usize) -> f64 {
    const SEGS: usize = 16;
    const ROUNDS: usize = 500;
    let seg_payload = frame_len.saturating_sub(54).max(64);
    let frames = tcp_frames(seg_payload, SEGS, 1000);
    let pool = BufPool::new();
    per_op(SEGS * ROUNDS, || {
        for _ in 0..ROUNDS {
            let wire: Vec<PktBuf> = frames.iter().map(|f| pool.copy_from_slice(f)).collect();
            std::hint::black_box(gro::coalesce(&pool, wire));
        }
    })
}

/// Internet checksum, normalized to ns per KiB.
pub fn checksum_per_kb(len: usize) -> f64 {
    const N: usize = 20_000;
    let data = payload(len);
    per_op(N, || {
        for _ in 0..N {
            std::hint::black_box(checksum::checksum(std::hint::black_box(&data)));
        }
    }) * 1024.0
        / len as f64
}

/// `SwitchBm::on_msg` plus egress through a standalone kernel: frames between
/// two learned hosts, driven by peer promises, drained after each burst.
pub fn switch_forward(frame_len: usize) -> f64 {
    const BURST: usize = 64;
    const ROUNDS: usize = 100;
    let mut k = Kernel::new("switch", SimTime::MAX);
    let mut peers = Vec::new();
    for _ in 0..2 {
        // A long sync interval keeps the kernel's own promise traffic out of
        // the per-frame cost.
        let params = ChannelParams::default_sync()
            .with_queue_len(4 * BURST)
            .with_sync_interval(SimTime::from_ms(1));
        let (a, b) = channel_pair(params);
        k.add_port(a);
        peers.push(b);
    }
    let mut sw = SwitchBm::new(SwitchConfig {
        ports: 2,
        ..Default::default()
    });
    sw.init(&mut k);
    let frame = |src: u64, dst: u64| {
        simbricks::proto::EthHeader::new(
            MacAddr::from_index(dst),
            MacAddr::from_index(src),
            simbricks::proto::EtherType::Other(0x1234),
        )
        .build_frame(&payload(frame_len.saturating_sub(14)))
    };
    let (f01, f10) = (frame(1, 2), frame(2, 1));
    let mut t = SimTime::ZERO;
    let gap = simbricks::base::transmission_time(frame_len + 24, 10_000_000_000);
    let mut run =
        |k: &mut Kernel, sw: &mut SwitchBm, peers: &mut Vec<simbricks::base::ChannelEnd>| {
            for _ in 0..BURST {
                t += gap;
                peers[0]
                    .send_raw(t, MSG_ETH_PACKET, &f01)
                    .expect("queue sized");
            }
            t += SimTime::from_us(10);
            for p in peers.iter_mut() {
                p.send_raw(t, MSG_SYNC, &[]).expect("queue sized");
            }
            while let StepOutcome::Progressed = k.step(sw, 256) {}
            for p in peers.iter_mut() {
                while let Some(m) = p.recv_raw() {
                    std::hint::black_box(&m);
                }
            }
        };
    // Teach the switch both MACs so the measured frames are unicast.
    peers[1]
        .send_raw(SimTime::from_ps(1), MSG_ETH_PACKET, &f10)
        .expect("queue sized");
    run(&mut k, &mut sw, &mut peers);
    per_op(BURST * ROUNDS, || {
        for _ in 0..ROUNDS {
            run(&mut k, &mut sw, &mut peers);
        }
    })
}

/// PCIe DMA-write envelope: pooled encode plus zero-copy decode.
pub fn pcie_dma_envelope(len: usize) -> f64 {
    const N: usize = 50_000;
    let pool = BufPool::new();
    let data = payload(len);
    per_op(N, || {
        for i in 0..N as u64 {
            let (ty, buf) = DevToHost::encode_dma_write_pooled(&pool, i, 0x1000 + i, &data);
            std::hint::black_box(DevToHost::decode_buf(ty, &buf).expect("round trip"));
        }
    })
}

/// Messages per forwarding batch in the transport benches (the small batches
/// the forwarders form on synchronized workloads).
const XPORT_BATCH: usize = 4;

/// Shared-memory ring transport: push + pop through the mapped region.
pub fn shm_per_msg(len: usize) -> f64 {
    const N: usize = 40_000;
    let path = std::env::temp_dir().join(format!("perfbench-{}.shm", std::process::id()));
    let params = ChannelParams::default_sync().with_queue_len(XPORT_BATCH * 2);
    let shutdown = ShutdownSignal::default();
    let mut a = shm::create_region(&path, "micro", params).expect("create shm region");
    let mut b = shm::attach_region(
        &path,
        "micro",
        params,
        Instant::now() + Duration::from_secs(5),
        &shutdown,
    )
    .expect("attach shm region");
    let msg = OwnedMsg::new(SimTime::from_ns(1), MSG_ETH_PACKET, payload(len));
    let ns = per_op(N, || {
        for _ in 0..N / XPORT_BATCH {
            for _ in 0..XPORT_BATCH {
                a.push(&msg).expect("ring holds a batch");
            }
            for _ in 0..XPORT_BATCH {
                std::hint::black_box(b.pop().expect("pushed"));
            }
        }
    });
    drop((a, b));
    let _ = std::fs::remove_file(&path);
    ns
}

/// Loopback TCP transport: serialize + write + read + parse.
pub fn tcp_per_msg(len: usize) -> f64 {
    const N: usize = 20_000;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let mut tx = std::net::TcpStream::connect(addr).expect("connect loopback");
    let (mut rx, _) = listener.accept().expect("accept");
    tx.set_nodelay(true).ok();
    let msg = OwnedMsg::new(SimTime::from_ns(1), MSG_ETH_PACKET, payload(len));
    let mut buf = Vec::new();
    let mut rbuf = Vec::new();
    per_op(N, || {
        for _ in 0..N / XPORT_BATCH {
            buf.clear();
            for _ in 0..XPORT_BATCH {
                buf.extend_from_slice(&msg.to_wire());
            }
            tx.write_all(&buf).expect("write");
            rbuf.resize(buf.len(), 0);
            rx.read_exact(&mut rbuf).expect("read");
            let mut off = 0;
            while let Some((m, used)) = OwnedMsg::from_wire(&rbuf[off..]) {
                std::hint::black_box(m);
                off += used;
            }
        }
    })
}

/// All microbenchmarks at one frame size, by metric name.
pub fn suite(frame_len: usize) -> Vec<(&'static str, f64)> {
    vec![
        ("channel.send_recv_ns", channel_send_recv(frame_len)),
        ("channel.sync_ns", channel_send_recv(0)),
        ("pktbuf.copy_ns", pktbuf_copy(frame_len)),
        ("pktbuf.clone_ns", pktbuf_clone(frame_len)),
        ("event.schedule_pop_ns", event_schedule_pop()),
        ("sync.promise_ns", sync_promise()),
        ("netstack.gro_ns_per_seg", gro_per_seg(frame_len)),
        ("proto.checksum_ns_per_kb", checksum_per_kb(frame_len)),
        ("switch.forward_ns", switch_forward(frame_len)),
        ("pcie.dma_envelope_ns", pcie_dma_envelope(frame_len)),
        ("shm.ns_per_msg", shm_per_msg(frame_len)),
        ("tcp.ns_per_msg", tcp_per_msg(frame_len)),
    ]
}
