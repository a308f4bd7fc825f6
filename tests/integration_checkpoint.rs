//! Deterministic checkpoint/restore, proven by a bit-identity matrix.
//!
//! A checkpoint taken mid-run must be invisible: the checkpointing run's own
//! continuation AND a later run restored from the file must both produce
//! event logs bit-identical (fingerprint *and* every entry) to an
//! uninterrupted run. Checkpoints are checkpoint-ring entries: a ring whose
//! period is the checkpoint time yields exactly one entry on these 6 ms
//! runs. The matrix covers
//!
//! * executors: sequential, sharded with 1/2/4 workers, and true 2-process
//!   distributed runs over both channel transports (tcp, shm);
//! * workloads: netperf (TCP stream + RR) and memcached/memaslap (UDP KV).

use std::path::{Path, PathBuf};

use simbricks::apps::{MemaslapClient, MemcachedServer, NetperfClient, NetperfServer};
use simbricks::base::{EventLog, SnapError};
use simbricks::hostsim::{Application, HostConfig, HostKind};
use simbricks::netsim::{SwitchBm, SwitchConfig};
use simbricks::netstack::SocketAddr;
use simbricks::runner::dist::{self, DistOptions, PartitionBuilder};
use simbricks::runner::{attach_host_nic, ring_entry_path, Execution, Experiment, TransportKind};
use simbricks::SimTime;

/// Virtual end of every experiment in this matrix.
fn end_time() -> SimTime {
    SimTime::from_ms(6)
}

/// Checkpoint in the middle of the measured region.
fn ckpt_time() -> SimTime {
    SimTime::from_ms(3)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Netperf,
    Memcache,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Netperf => "netperf",
            Workload::Memcache => "memcache",
        }
    }

    fn apps(self, server_cfg: &HostConfig) -> (Box<dyn Application>, Box<dyn Application>) {
        match self {
            Workload::Netperf => (
                Box::new(NetperfServer::new(5201, 5202)),
                Box::new(NetperfClient::new(
                    server_cfg.ip,
                    5201,
                    5202,
                    SimTime::from_ms(2),
                    SimTime::from_ms(2),
                )),
            ),
            Workload::Memcache => (
                Box::new(MemcachedServer::new()),
                Box::new(MemaslapClient::new(
                    vec![SocketAddr::new(
                        server_cfg.ip,
                        simbricks::apps::memcache::MEMCACHE_PORT,
                    )],
                    2,
                    64,
                    SimTime::from_ms(4),
                )),
            ),
        }
    }
}

/// Two gem5-like hosts (server + client) through the behavioural switch.
fn build(workload: Workload) -> Experiment {
    let mut exp =
        Experiment::new(format!("ckpt-{}", workload.name()), end_time()).with_logging();
    let server_cfg = HostConfig::new(HostKind::Gem5Timing, 0);
    let client_cfg = HostConfig::new(HostKind::Gem5Timing, 1);
    let (server_app, client_app) = workload.apps(&server_cfg);
    let (_s, _, s_eth) = attach_host_nic(&mut exp, "server", server_cfg, server_app, false);
    let (_c, _, c_eth) = attach_host_nic(&mut exp, "client", client_cfg, client_app, false);
    exp.add(
        "switch",
        Box::new(SwitchBm::new(SwitchConfig { ports: 2, ..Default::default() })),
        vec![s_eth, c_eth],
    );
    exp
}

/// Assert two merged logs are bit-identical: fingerprint AND full entries
/// (the first diverging entry is reported for debuggability).
fn assert_logs_identical(got: &EventLog, want: &EventLog, label: &str) {
    assert_eq!(got.len(), want.len(), "event count differs ({label})");
    for (i, (g, w)) in got.entries().iter().zip(want.entries()).enumerate() {
        assert_eq!(g, w, "first diverging entry at index {i} ({label})");
    }
    assert_eq!(got.fingerprint(), want.fingerprint(), "fingerprint ({label})");
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("simbricks-ckpt-{}-{tag}", std::process::id()))
}

/// Run `exp` under `exec` while recording a one-entry checkpoint ring (the
/// period is the checkpoint time) into `dir`; returns the run's merged log
/// and the path of the entry.
fn run_checkpointing(mut exp: Experiment, exec: Execution, dir: &Path) -> (EventLog, PathBuf) {
    exp.set_checkpoint_ring(ckpt_time(), 1);
    exp.set_ring_dir(dir.to_path_buf());
    let r = exp.run(exec);
    assert_eq!(r.ring.len(), 1, "a single checkpoint captured");
    let entry = ring_entry_path(dir, ckpt_time());
    assert!(entry.is_file(), "checkpoint written to {}", entry.display());
    (r.merged_log(), entry)
}

/// The in-process matrix: {sequential, sharded×{1,2,4}} × {netperf, memcache}.
/// For every combination, (a) a run that checkpoints mid-way and continues
/// and (b) a fresh run restored from that checkpoint both reproduce the
/// uninterrupted baseline log bit for bit.
#[test]
fn checkpoint_restore_matrix_in_process() {
    for workload in [Workload::Netperf, Workload::Memcache] {
        let baseline = build(workload).run(Execution::Sequential).merged_log();
        assert!(
            baseline.len() > 100,
            "baseline log actually contains events ({})",
            baseline.len()
        );
        let execs = [
            ("seq", Execution::Sequential),
            ("sharded1", Execution::Sharded { workers: 1 }),
            ("sharded2", Execution::Sharded { workers: 2 }),
            ("sharded4", Execution::Sharded { workers: 4 }),
        ];
        for (ename, exec) in execs {
            let label = format!("{}/{ename}", workload.name());
            let dir = tmp_path(&format!("{}-{ename}", workload.name()));

            // (a) Checkpoint mid-run, continue to the end: the pause must be
            // invisible in the continuation.
            let (log, path) = run_checkpointing(build(workload), exec, &dir);
            assert_logs_identical(&log, &baseline, &format!("{label} ckpt-run"));

            // (b) Restore from the file into a freshly built experiment and
            // run the continuation under the same executor.
            let mut exp = build(workload);
            let at = exp.restore(&path).expect("restore");
            assert_eq!(at, ckpt_time());
            let r2 = exp.run(exec);
            assert_logs_identical(&r2.merged_log(), &baseline, &format!("{label} restored"));

            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Restoring with mismatched topology or workload fails loudly, and a
/// restored experiment reports the application results of the full run.
#[test]
fn restore_rejects_wrong_experiment() {
    let dir = tmp_path("wrong-exp");
    let (_, path) = run_checkpointing(build(Workload::Netperf), Execution::Sequential, &dir);
    // Different experiment (name differs): clear error, not UB.
    let mut other = build(Workload::Memcache);
    match other.restore(&path) {
        Err(SnapError::Corrupt(msg)) => {
            assert!(msg.contains("name mismatch"), "got: {msg}")
        }
        other => panic!("expected Corrupt(name mismatch), got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Distributed matrix: the same workloads split into two partitions (server +
// switch in p0, client in p1) running as two worker OS processes, for both
// channel transports. Workers stream their partition's ring snapshots over
// the control protocol; the orchestrator merges them into whole-experiment
// ring entries, and a restore splits an entry back per partition.
// ---------------------------------------------------------------------------

/// Dist-aware build shared by the in-process baseline, discovery, and the
/// worker processes (which re-enter this test binary).
fn dist_build(scenario: &str, pb: &mut PartitionBuilder) {
    let workload = if scenario.contains("wl=memcache") {
        Workload::Memcache
    } else {
        Workload::Netperf
    };
    pb.init(
        Experiment::new(format!("ckpt-{}", workload.name()), end_time()).with_logging(),
    );
    let eth_params = pb.exp().eth_params();
    let server_cfg = HostConfig::new(HostKind::Gem5Timing, 0);
    let client_cfg = HostConfig::new(HostKind::Gem5Timing, 1);
    let (server_app, client_app) = workload.apps(&server_cfg);
    let (_s, _, s_eth) = pb.attach_host_nic("p0", "server", server_cfg, server_app, false);
    let (cli_eth_nic, cli_eth_sw) = pb.channel("client-eth", "p1", "p0", eth_params);
    pb.attach_host_nic_on("p1", "client", client_cfg, client_app, false, cli_eth_nic);
    pb.add(
        "p0",
        "switch",
        Box::new(SwitchBm::new(SwitchConfig { ports: 2, ..Default::default() })),
        vec![s_eth, cli_eth_sw],
    );
}

/// Hidden worker entry (see `integration_determinism.rs` for the pattern):
/// spawned worker processes re-enter this test binary here; `maybe_worker`
/// detects the control-socket environment and takes over.
#[test]
#[ignore = "internal: entry point for dist-test worker subprocesses"]
fn ckpt_dist_worker_entry() {
    dist::maybe_worker(&dist_build);
}

fn dist_opts(scenario: &str) -> DistOptions {
    DistOptions::new(vec!["p0".into(), "p1".into()], scenario).with_worker_args(vec![
        "ckpt_dist_worker_entry".into(),
        "--exact".into(),
        "--include-ignored".into(),
        "--nocapture".into(),
    ])
}

fn dist_matrix_for(transport: TransportKind) {
    for workload in [Workload::Netperf, Workload::Memcache] {
        let scenario = format!("wl={}", workload.name());
        let baseline =
            dist::run_local(&scenario, &dist_build, Execution::Sequential).merged_log();
        assert!(baseline.len() > 100, "baseline has events");
        let dir = tmp_path(&format!("dist-{}-{}", workload.name(), transport.to_arg()));

        // Checkpointing 2-process run: a one-entry ring merged from both
        // partitions' snapshots; continuation bit-identical.
        let d1 = dist::run_distributed(
            &dist_opts(&scenario)
                .with_transport(transport)
                .with_checkpoint_ring(ckpt_time(), 1, dir.clone()),
            &dist_build,
        )
        .expect("distributed checkpoint run");
        assert_logs_identical(
            &d1.merged_log(),
            &baseline,
            &format!("dist-{}-{} ckpt-run", workload.name(), transport.to_arg()),
        );
        assert!(
            ring_entry_path(&dir, ckpt_time()).is_file(),
            "merged ring entry written"
        );

        // Restored 2-process run: resumes from the ring entry, split per
        // partition, and reproduces the remainder bit for bit.
        let d2 = dist::run_distributed(
            &dist_opts(&scenario)
                .with_transport(transport)
                .with_restore(dir.clone()),
            &dist_build,
        )
        .expect("distributed restore run");
        assert_logs_identical(
            &d2.merged_log(),
            &baseline,
            &format!("dist-{}-{} restored", workload.name(), transport.to_arg()),
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// dist×tcp leg of the matrix (both workloads).
#[test]
fn checkpoint_restore_matrix_dist_tcp() {
    dist_matrix_for(TransportKind::Tcp);
}

/// dist×shm leg of the matrix (both workloads; skipped on platforms without
/// shared-memory support).
#[test]
fn checkpoint_restore_matrix_dist_shm() {
    if !simbricks::runner::shm_supported() {
        eprintln!("shm transport unsupported on this platform; skipping");
        return;
    }
    dist_matrix_for(TransportKind::Shm);
}

/// A distributed restore from a ring directory whose newest entry is
/// corrupt falls back to the next older entry, records the rejection, and
/// still reproduces the uninterrupted run. The ring is recorded by a local
/// run, so this also restores a whole-experiment container split per
/// partition.
#[test]
fn dist_restore_skips_a_corrupt_newest_ring_entry() {
    let scenario = "wl=netperf";
    let baseline = dist::run_local(scenario, &dist_build, Execution::Sequential).merged_log();
    let dir = tmp_path("dist-restore-fallback");
    let period = SimTime::from_ms(1);
    let mut pb = PartitionBuilder::new_local();
    dist_build(scenario, &mut pb);
    let mut exp = pb.into_experiment().with_checkpoint_ring(period, 0);
    exp.set_ring_dir(dir.clone());
    let _ = exp.run(Execution::Sequential);

    let newest = ring_entry_path(&dir, SimTime::from_ms(5));
    let mut bytes = std::fs::read(&newest).expect("newest ring entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&newest, &bytes).expect("corrupt newest entry");

    let d = dist::run_distributed(&dist_opts(scenario).with_restore(dir.clone()), &dist_build)
        .expect("distributed restore run");
    assert_logs_identical(
        &d.merged_log(),
        &baseline,
        "dist restore past a corrupt entry",
    );
    let rejected = &d.recovery.rejected_entries;
    assert_eq!(
        rejected.len(),
        1,
        "exactly the corrupt entry is rejected: {rejected:?}"
    );
    let name = newest.file_name().unwrap().to_str().unwrap();
    assert!(
        rejected[0].contains(name),
        "rejection names {name}: {rejected:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
