//! The four benchmark workloads: their scenario documents, executors, the
//! simulated outputs each run is checked on, and the pinned values those
//! checks compare against.

use simbricks::base::{EventLog, KernelStats};
use simbricks::hostsim::{HostKind, HostModel};
use simbricks::netsim::SwitchBm;
use simbricks::runner::RunResult;
use simbricks::scenario::{Lowered, Scenario};
use simbricks::{Execution, SimTime};
use simbricks_bench::{scen, FatTree};

use crate::decor::Timed;
use crate::sys::fnv_words;

/// Epoch of the per-component fingerprint accumulators.
pub const FP_EPOCH: SimTime = SimTime::from_ms(1);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Runner {
    /// `Experiment::run` in this process with the given executor.
    Local(Execution),
    /// `run_distributed` over two worker processes joined by shm rings.
    DistShm,
}

pub struct Workload {
    pub name: &'static str,
    pub runner: Runner,
    /// Typical wire frame size on the data path (bytes), the message size
    /// the per-layer microbenchmarks run at for this workload.
    pub frame_bytes: usize,
    /// Values every run must reproduce.
    pub pins: Pins,
}

/// Pinned simulated outputs of one workload (identical for every seed: no
/// workload has a seed-driven random stream — no impairments, and the only
/// AQM is DCTCP's deterministic threshold marking).
pub struct Pins {
    pub fingerprint: u64,
    pub syncs_sent: u64,
    pub msgs_delivered: u64,
    /// Named application and switch outputs, checked where the models are
    /// in-process (a distributed run only ships statistics and logs; its
    /// fingerprint equality with the in-process run covers the rest).
    pub outputs: &'static [(&'static str, u64)],
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "scaleup21_sharded",
        runner: Runner::Local(Execution::Sharded { workers: 2 }),
        frame_bytes: 842,
        pins: Pins {
            fingerprint: 0xa011_bef6_e295_2c5f,
            syncs_sent: 1_174_531,
            msgs_delivered: 18_004,
            outputs: &[
                ("rx_bytes", 640_000),
                ("switch_forwarded", 820),
                ("switch_ecn_marked", 0),
                ("switch_dropped", 0),
            ],
        },
    },
    Workload {
        name: "fattree128_hier",
        runner: Runner::Local(Execution::Sequential),
        frame_bytes: 842,
        pins: Pins {
            fingerprint: 0xd1f2_ab35_8485_f5d0,
            syncs_sent: 1_995_949,
            msgs_delivered: 47_044,
            outputs: &[
                ("rx_bytes", 409_600),
                ("switch_forwarded", 2_720),
                ("switch_ecn_marked", 0),
                ("switch_dropped", 0),
            ],
        },
    },
    Workload {
        name: "incast_tcp",
        runner: Runner::Local(Execution::Sequential),
        frame_bytes: 4014,
        pins: Pins {
            fingerprint: 0xd065_59b3_5e88_c951,
            syncs_sent: 123_700,
            msgs_delivered: 14_829,
            outputs: &[
                ("rx_bytes", 2_002_608),
                ("switch_forwarded", 1_073),
                ("switch_ecn_marked", 339),
                ("switch_dropped", 0),
            ],
        },
    },
    Workload {
        name: "memcache16_dist_shm",
        runner: Runner::DistShm,
        frame_bytes: 160,
        pins: Pins {
            fingerprint: 0x86d6_3445_6887_814f,
            syncs_sent: 916_924,
            msgs_delivered: 117_967,
            outputs: &[
                ("memaslap_completed", 2_629),
                ("memaslap_latency_tenths_us", 2_427),
                ("switch_forwarded", 10_714),
                ("switch_ecn_marked", 0),
                ("switch_dropped", 0),
            ],
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Virtual duration of the fig. 7 scale-up workload.
const SCALEUP_DURATION: SimTime = SimTime::from_ms(5);
/// Virtual duration of the fat-tree workload.
const FATTREE_DURATION: SimTime = SimTime::from_ms(2);

/// Set `seed = <seed>` in the `[scenario]` section of a document, replacing
/// any seed it already carries.
fn with_seed(text: &str, seed: u64) -> String {
    let mut out = String::with_capacity(text.len() + 32);
    let mut in_scenario = false;
    for line in text.lines() {
        let t = line.trim_start();
        if t.starts_with('[') {
            in_scenario = t == "[scenario]";
        }
        if in_scenario && t.starts_with("seed") && t[4..].trim_start().starts_with('=') {
            continue;
        }
        out.push_str(line);
        out.push('\n');
        if t == "[scenario]" {
            out.push_str(&format!("seed = {seed}\n"));
        }
    }
    out
}

/// The fat-tree of `fat_tree_stats` written as a scenario document: in every
/// edge group host 0 serves UDP, host 1 streams 50 Mbit/s of 800 B datagrams
/// to the same-position server one pod over, and the remaining hosts idle.
/// Declaration order matches the hand-assembled build (hosts, then their
/// edge switch; aggregation switches; the core).
fn fattree_toml(ft: &FatTree, duration: SimTime) -> String {
    use std::fmt::Write as _;
    let epp = ft.edges_per_pod();
    let total_edges = ft.k * epp;
    let hpe = ft.hosts_per_edge;
    let mut t = String::new();
    let _ = write!(
        t,
        "[scenario]\nname = \"fat-tree\"\nduration = \"{}ps\"\nend_margin = \"2ms\"\n\
         log = true\nhier_sync = true\n",
        duration.as_ps()
    );
    for e in 0..total_edges {
        for h in 0..hpe {
            let idx = e * hpe + h;
            let _ = write!(
                t,
                "\n[[host]]\nname = \"e{e}h{h}\"\nkind = \"gem5_timing\"\nindex = {idx}\n\n[host.app]\n"
            );
            if h == 1 {
                let peer = (e + epp) % total_edges;
                let _ = write!(
                    t,
                    "type = \"iperf_udp_client\"\nserver = \"e{peer}h0\"\nport = 9000\n\
                     rate = 50000000\npayload = 800\n"
                );
            } else {
                let port = if h == 0 { 9000 } else { 9001 };
                let _ = write!(t, "type = \"iperf_udp_server\"\nport = {port}\n");
            }
            let _ = write!(
                t,
                "\n[[link]]\nname = \"e{e}h{h}-eth\"\na = \"e{e}h{h}\"\nb = \"edge{e}\"\n"
            );
        }
        let _ = write!(
            t,
            "\n[[switch]]\nname = \"edge{e}\"\n\n[[link]]\nname = \"edge{e}-up\"\na = \"edge{e}\"\n\
             b = \"agg{}\"\nlatency = \"{}ps\"\n",
            e / epp,
            ft.edge_up_latency.as_ps()
        );
    }
    for pod in 0..ft.k {
        let _ = write!(
            t,
            "\n[[switch]]\nname = \"agg{pod}\"\n\n[[link]]\nname = \"agg{pod}-up\"\na = \"agg{pod}\"\n\
             b = \"core\"\nlatency = \"{}ps\"\n",
            ft.core_up_latency.as_ps()
        );
    }
    t.push_str("\n[[switch]]\nname = \"core\"\n");
    t
}

/// The scenario document a workload runs for `seed`.
pub fn scenario_text(w: &Workload, seed: u64) -> Result<String, String> {
    let text = match w.name {
        "scaleup21_sharded" => scen::udp_scaleup_toml(
            21,
            HostKind::Gem5Timing,
            SCALEUP_DURATION,
            1,
            true,
            false,
            false,
        ),
        "fattree128_hier" => fattree_toml(&FatTree::for_hosts(128), FATTREE_DURATION),
        "incast_tcp" => std::fs::read_to_string("scenarios/aqm_incast.toml")
            .map_err(|e| format!("read scenarios/aqm_incast.toml: {e}"))?,
        "memcache16_dist_shm" => {
            scen::memcache_racks_toml(2, 8, HostKind::Gem5Timing, 2, true, false)
        }
        other => return Err(format!("unknown workload {other}")),
    };
    // TOML integers are signed 64-bit.
    Ok(with_seed(&text, seed & (i64::MAX as u64)))
}

/// Combined fingerprint of a run: every component's recorded-entry count
/// and per-epoch log fingerprints, in component order. Identical for a
/// fingerprint-only log and a materialized log of the same entries, so an
/// in-process run and a distributed run (which ships materialized logs)
/// compare directly.
pub fn combined_fingerprint(logs: &[EventLog], end: SimTime) -> u64 {
    let epochs = (end.as_ps() / FP_EPOCH.as_ps()) as usize + 1;
    fnv_words(logs.iter().flat_map(|l| {
        let fps = l
            .epoch_fingerprints(FP_EPOCH, epochs)
            .expect("logs share the benchmark's fingerprint epoch");
        std::iter::once(l.recorded()).chain(fps)
    }))
}

/// Virtual end time of a scenario (duration plus end margin).
pub fn end_time(spec: &Scenario) -> SimTime {
    spec.duration.saturating_add(spec.end_margin)
}

/// What one run produced, in the form the checks compare.
#[derive(Clone, Debug, Default)]
pub struct Observed {
    pub fingerprint: u64,
    pub stats: KernelStats,
    /// Named outputs (empty for a distributed run).
    pub outputs: Vec<(&'static str, u64)>,
    /// Host-stack counters summed over hosts (in-process runs only).
    pub gro_merged: u64,
    pub rx_frames: u64,
    pub tx_frames: u64,
}

fn report_field(report: &str, key: &str) -> Option<f64> {
    report.split_whitespace().find_map(|t| {
        let v = t.strip_prefix(key)?.strip_prefix('=')?;
        let digits: String = v
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        digits.parse().ok()
    })
}

fn model_ref<T: 'static>(r: &RunResult, id: usize) -> Option<&T> {
    r.model::<T>(id)
        .or_else(|| r.model::<Timed>(id).and_then(|t| t.inner::<T>()))
}

/// Read the run's outputs: app reports of every host, counters of every
/// switch, and the combined log fingerprint.
pub fn observe_local(r: &RunResult, low: &Lowered, end: SimTime) -> Observed {
    let mut rx_bytes = 0u64;
    let mut completed = 0u64;
    let mut latency_tenths_us = 0u64;
    let mut obs = Observed {
        fingerprint: combined_fingerprint(&r.logs, end),
        stats: r.total_stats(),
        ..Default::default()
    };
    for (_, id) in &low.hosts {
        let host: &HostModel = model_ref(r, *id).expect("host component is a HostModel");
        let s = host.stats();
        obs.gro_merged += s.gro_merged;
        obs.rx_frames += s.rx_frames;
        obs.tx_frames += s.tx_frames;
        let rep = host.app_report();
        if rep.starts_with("iperf-server") {
            rx_bytes += report_field(&rep, "rx_bytes").unwrap_or(0.0) as u64;
        } else if rep.starts_with("iperf-udp-server") {
            rx_bytes += report_field(&rep, "bytes").unwrap_or(0.0) as u64;
        } else if rep.starts_with("memaslap") {
            completed += report_field(&rep, "completed").unwrap_or(0.0) as u64;
            latency_tenths_us +=
                (report_field(&rep, "latency").unwrap_or(0.0) * 10.0).round() as u64;
        }
    }
    let (mut fwd, mut ecn, mut drop) = (0u64, 0u64, 0u64);
    for (_, id) in &low.switches {
        let sw: &SwitchBm = model_ref(r, *id).expect("switch component is a SwitchBm");
        let s = sw.stats();
        fwd += s.forwarded;
        ecn += s.ecn_marked;
        drop += s.dropped + s.aqm_dropped;
    }
    obs.outputs = vec![
        ("rx_bytes", rx_bytes),
        ("memaslap_completed", completed),
        ("memaslap_latency_tenths_us", latency_tenths_us),
        ("switch_forwarded", fwd),
        ("switch_ecn_marked", ecn),
        ("switch_dropped", drop),
    ];
    obs
}

/// Compare a run against the workload's pins; `Err` names every mismatch.
pub fn check(w: &Workload, obs: &Observed) -> Result<(), String> {
    let p = &w.pins;
    let mut bad = Vec::new();
    if obs.fingerprint != p.fingerprint {
        bad.push(format!(
            "fingerprint {:#018x} != pinned {:#018x}",
            obs.fingerprint, p.fingerprint
        ));
    }
    if obs.stats.syncs_sent != p.syncs_sent {
        bad.push(format!(
            "syncs_sent {} != pinned {}",
            obs.stats.syncs_sent, p.syncs_sent
        ));
    }
    if obs.stats.msgs_delivered != p.msgs_delivered {
        bad.push(format!(
            "msgs_delivered {} != pinned {}",
            obs.stats.msgs_delivered, p.msgs_delivered
        ));
    }
    if !obs.outputs.is_empty() {
        for (name, want) in p.outputs {
            let got = obs.outputs.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            if got != Some(*want) {
                bad.push(format!("{name} {got:?} != pinned {want}"));
            }
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

/// Rust source for the pins of an observed run (used to refresh the table
/// above with `--pin`).
pub fn pins_source(obs: &Observed) -> String {
    let outs: Vec<String> = obs
        .outputs
        .iter()
        .map(|(n, v)| format!("(\"{n}\", {v})"))
        .collect();
    format!(
        "Pins {{ fingerprint: {:#018x}, syncs_sent: {}, msgs_delivered: {}, outputs: &[{}] }}",
        obs.fingerprint,
        obs.stats.syncs_sent,
        obs.stats.msgs_delivered,
        outs.join(", ")
    )
}
