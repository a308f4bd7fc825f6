//! §7.4.2: overhead of distributed simulation — the same two-host netperf
//! configuration run with a direct (local) Ethernet channel, with the link
//! bridged by the sockets proxy pair, with the RDMA-style proxy pair, and
//! with the shared-memory ring transport (the paper's co-located fast path).
//! Proxies must not change simulated results of synchronized runs and should
//! not become a wall-clock bottleneck.
//!
//! `--json PATH` additionally measures the raw **per-message cross-partition
//! overhead** of the tcp and shm media (single-threaded, no simulators: the
//! serialize/syscall/deserialize cost per forwarded message, batched the way
//! the forwarders batch) and writes a machine-readable baseline. The shm
//! transport is expected to be >= 2x cheaper per message than tcp — that gap
//! is why `--transport auto` picks shared memory for co-located partitions.

// Benchmarks measure real wall-clock throughput by design.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use std::io::{Read, Write};
use std::time::Instant;

use simbricks::apps::{NetperfClient, NetperfServer};
use simbricks::base::{ChannelParams, OwnedMsg};
use simbricks::hostsim::{HostConfig, HostKind, HostModel, NicModelKind};
use simbricks::netsim::{SwitchBm, SwitchConfig};
use simbricks::runner::{host_component, nic_model, proxy_pair, Execution, Experiment, ProxyKind};
use simbricks::SimTime;

enum Transport {
    Direct,
    Proxy(ProxyKind),
}

fn run(transport: Transport) -> (f64, f64, f64, String) {
    let stream = SimTime::from_ms(10);
    let rr = SimTime::from_ms(5);
    let mut exp = Experiment::new("proxy-overhead", stream + rr + SimTime::from_ms(5));
    let server_cfg = HostConfig::new(HostKind::QemuTiming, 0).with_nic(NicModelKind::I40e);
    let client_cfg = HostConfig::new(HostKind::QemuTiming, 1).with_nic(NicModelKind::I40e);
    let server_app = Box::new(NetperfServer::new(5201, 5202));
    let client_app = Box::new(NetperfClient::new(server_cfg.ip, 5201, 5202, stream, rr));

    // Server host + NIC; its Ethernet link to the switch is the one that
    // would cross physical machines in a distributed run.
    let (srv_pcie_host, srv_pcie_nic) = simbricks::base::channel_pair(exp.pcie_params());
    let (srv_eth_nic, srv_eth_switch, handle) = match transport {
        Transport::Direct => {
            let (a, b) = simbricks::base::channel_pair(exp.eth_params());
            (a, b, None)
        }
        Transport::Proxy(kind) => {
            let (a, b, h) = proxy_pair(kind, exp.eth_params()).expect("proxy setup");
            (a, b, Some(h))
        }
    };
    exp.add(
        "server.host",
        host_component(server_cfg, server_app),
        vec![srv_pcie_host],
    );
    exp.add(
        "server.nic",
        nic_model(server_cfg.nic, false),
        vec![srv_pcie_nic, srv_eth_nic],
    );

    let (cli_pcie_host, cli_pcie_nic) = simbricks::base::channel_pair(exp.pcie_params());
    let (cli_eth_nic, cli_eth_switch) = simbricks::base::channel_pair(exp.eth_params());
    let client_id = exp.add(
        "client.host",
        host_component(client_cfg, client_app),
        vec![cli_pcie_host],
    );
    exp.add(
        "client.nic",
        nic_model(client_cfg.nic, false),
        vec![cli_pcie_nic, cli_eth_nic],
    );
    exp.add(
        "switch",
        Box::new(SwitchBm::new(SwitchConfig {
            ports: 2,
            ..Default::default()
        })),
        vec![srv_eth_switch, cli_eth_switch],
    );

    // The proxy forwarding threads run alongside the sequential executor,
    // as in a real distributed run. Promises crossing a proxy arrive on the
    // forwarders' schedule, so "all components blocked" is transient, not a
    // deadlock.
    if handle.is_some() {
        exp.set_external_inputs();
    }
    let r = exp.run(Execution::Sequential);
    let client: &HostModel = r.model(client_id).unwrap();
    let report = client.app_report();
    let tput = report
        .split_whitespace()
        .find_map(|t| t.strip_prefix("tput=").and_then(|v| v.strip_suffix("Gbps")).and_then(|v| v.parse().ok()))
        .unwrap_or(0.0);
    let lat = report
        .split_whitespace()
        .find_map(|t| t.strip_prefix("rr_latency=").and_then(|v| v.strip_suffix("us")).and_then(|v| v.parse().ok()))
        .unwrap_or(0.0);
    let proxy_line = handle
        .map(|h| {
            let s = h.stats();
            format!(
                "forwarded={} batches={} mean_batch={:.1} wire_bytes={}",
                s.forwarded,
                s.batches,
                s.mean_batch(),
                s.bytes
            )
        })
        .unwrap_or_else(|| "-".into());
    (tput, lat, r.wall_seconds(), proxy_line)
}

/// Number of messages for the per-message medium microbenchmark.
const MICRO_MSGS: usize = 200_000;
/// Messages per forwarding batch (matches the small adaptive batches the
/// forwarders actually form on this workload, mean_batch ~1-2).
const MICRO_BATCH: usize = 4;
/// Payload of one benchmark message (a typical small simulation message:
/// a PCIe doorbell / completion or an Ethernet descriptor, not a frame).
const MICRO_PAYLOAD: usize = 32;

/// Per-message cost of the TCP medium: serialize + write + read + parse over
/// a loopback socket pair, single-threaded, in forwarder-sized batches.
fn micro_tcp_ns() -> f64 {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let mut tx = std::net::TcpStream::connect(addr).expect("connect");
    let (mut rx, _) = listener.accept().expect("accept");
    tx.set_nodelay(true).ok();
    rx.set_nodelay(true).ok();
    let msg = OwnedMsg::new(SimTime::from_ns(1), 5, vec![0xabu8; MICRO_PAYLOAD]);
    let wire = msg.to_wire();
    let mut batch = Vec::with_capacity(wire.len() * MICRO_BATCH);
    for _ in 0..MICRO_BATCH {
        batch.extend_from_slice(&wire);
    }
    let mut buf = vec![0u8; batch.len()];
    let start = Instant::now();
    let mut sent = 0usize;
    while sent < MICRO_MSGS {
        tx.write_all(&batch).expect("write");
        rx.read_exact(&mut buf).expect("read");
        let mut consumed = 0;
        while let Some((m, used)) = OwnedMsg::from_wire(&buf[consumed..]) {
            assert_eq!(m.data.len(), MICRO_PAYLOAD);
            consumed += used;
        }
        sent += MICRO_BATCH;
    }
    start.elapsed().as_nanos() as f64 / sent as f64
}

/// Per-message cost of the shm medium: push + pop through the mmap ring,
/// single-threaded, in the same batch sizes. No serialization, no syscalls.
fn micro_shm_ns() -> f64 {
    let path = std::env::temp_dir().join(format!("simbricks-sec742-{}.shm", std::process::id()));
    let params = ChannelParams::default_sync().with_queue_len(MICRO_BATCH * 2);
    let shutdown = simbricks::runner::proxy::ShutdownSignal::default();
    let mut a = simbricks::runner::shm::create_region(&path, "micro", params).expect("create");
    let mut b = simbricks::runner::shm::attach_region(
        &path,
        "micro",
        params,
        Instant::now() + std::time::Duration::from_secs(5),
        &shutdown,
    )
    .expect("attach");
    let msg = OwnedMsg::new(SimTime::from_ns(1), 5, vec![0xabu8; MICRO_PAYLOAD]);
    let start = Instant::now();
    let mut sent = 0usize;
    while sent < MICRO_MSGS {
        for _ in 0..MICRO_BATCH {
            a.push(&msg).expect("ring sized for a full batch");
        }
        for _ in 0..MICRO_BATCH {
            let m = b.pop().expect("well-formed slot").expect("all pushed");
            assert_eq!(m.data.len(), MICRO_PAYLOAD);
        }
        sent += MICRO_BATCH;
    }
    start.elapsed().as_nanos() as f64 / sent as f64
}

struct Row {
    name: &'static str,
    tput: f64,
    lat: f64,
    wall: f64,
    proxies: String,
}

fn main() {
    let mut json_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                if i + 1 >= args.len() {
                    eprintln!("--json requires a path");
                    std::process::exit(2);
                }
                i += 1;
                json_path = Some(args[i].clone());
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    println!("# Section 7.4.2: local vs proxied Ethernet link (synchronized netperf)");
    println!(
        "{:<18} {:>12} {:>13} {:>10}   proxy counters",
        "transport", "tput[Gbps]", "latency[us]", "wall[s]"
    );
    let mut rows = Vec::new();
    for (name, transport) in [
        ("direct channel", Transport::Direct),
        ("sockets proxy", Transport::Proxy(ProxyKind::Tcp)),
        ("rdma-style proxy", Transport::Proxy(ProxyKind::Rdma)),
        ("shm rings", Transport::Proxy(ProxyKind::Shm)),
    ] {
        if matches!(transport, Transport::Proxy(ProxyKind::Shm))
            && !simbricks::runner::shm_supported()
        {
            println!("{:<18} unsupported on this platform", name);
            continue;
        }
        let (tput, lat, wall, proxies) = run(transport);
        println!(
            "{:<18} {:>12.3} {:>13.1} {:>10.2}   {}",
            name, tput, lat, wall, proxies
        );
        rows.push(Row { name, tput, lat, wall, proxies });
    }

    if let Some(path) = json_path {
        let tcp_ns = micro_tcp_ns();
        let shm_ns = if simbricks::runner::shm_supported() {
            micro_shm_ns()
        } else {
            f64::NAN
        };
        let ratio = tcp_ns / shm_ns;
        println!("\n# per-message cross-partition overhead ({MICRO_MSGS} msgs, batch {MICRO_BATCH}, {MICRO_PAYLOAD} B payload)");
        println!("tcp: {tcp_ns:.0} ns/msg   shm: {shm_ns:.0} ns/msg   tcp/shm: {ratio:.1}x");
        if ratio.is_nan() || ratio < 2.0 {
            eprintln!("WARNING: expected shm to be >= 2x cheaper per message than tcp, measured {ratio:.2}x");
        }
        let mut out = String::from("{\n");
        out.push_str("  \"figure\": \"sec742_proxy_overhead\",\n");
        out.push_str("  \"workload\": \"2-host synchronized netperf, server eth link bridged per transport\",\n");
        out.push_str(&format!(
            "  \"machine_cores\": {},\n",
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        ));
        out.push_str("  \"per_message_overhead\": {\n");
        out.push_str(&format!("    \"messages\": {MICRO_MSGS},\n"));
        out.push_str(&format!("    \"batch\": {MICRO_BATCH},\n"));
        out.push_str(&format!("    \"payload_bytes\": {MICRO_PAYLOAD},\n"));
        out.push_str(&format!("    \"tcp_ns_per_msg\": {tcp_ns:.1},\n"));
        out.push_str(&format!("    \"shm_ns_per_msg\": {shm_ns:.1},\n"));
        out.push_str(&format!("    \"tcp_over_shm\": {ratio:.2}\n"));
        out.push_str("  },\n");
        out.push_str("  \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"transport\": \"{}\", \"tput_gbps\": {:.3}, \"rr_latency_us\": {:.1}, \
                 \"wall_s\": {:.3}, \"proxy\": \"{}\"}}{}\n",
                r.name,
                r.tput,
                r.lat,
                r.wall,
                r.proxies,
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write(&path, out).expect("write --json file");
        eprintln!("wrote {path}");
    }
}
