//! The repository benchmark: end-to-end host cost of four paper workloads,
//! plus a traced per-layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Workloads (each takes `--seed` as its
//! `scenario.seed`):
//!
//! * `scaleup21_sharded` — Fig. 7: 21 gem5-timing hosts and one switch,
//!   1 Gbps aggregate paced UDP, flat sync, sharded executor (2 workers).
//!   Stresses the sharded executor and sync; bypasses TCP and proxies.
//! * `fattree128_hier` — the k=8, 128-host fat-tree under hierarchical sync,
//!   sequential executor. Stresses hier-sync bookkeeping, the timing wheel,
//!   set-up and memory at scale; bypasses the sharded executor.
//! * `incast_tcp` — `scenarios/aqm_incast.toml`: three DCTCP senders into
//!   one sink through ECN marking, sequential. Stresses netstack, GRO,
//!   checksums, PCIe DMA, jumbo buffers and the switch queue; barely sync.
//! * `memcache16_dist_shm` — Fig. 8: two racks of eight memcached/memaslap
//!   hosts as two worker processes over shm. The only workload crossing
//!   the shm transport, the proxy, and the dist control protocol. Not listed
//!   in `BENCHMARK.json`: with two workers and their spinning forwarders on
//!   two cores, its run-to-run spread (IQR of medians 12-20% of the median)
//!   is too wide for the regression bound.
//!
//! `--trace 0` repeats the workload, each run in a fresh child process, for
//! `--seconds` seconds and reports the median of each metric (host time):
//!
//! * `wall_s` — the `Experiment::run` call; for the distributed workload
//!   `DistResult::wall`, from GO to the last worker's result.
//! * `cpu_s` — user+system CPU seconds of the process over that call,
//!   including the reaped worker processes of a distributed run.
//! * `setup_s` — scenario text to a runnable experiment (parse, lower,
//!   fingerprint-only logging); for the distributed workload the parse plus
//!   the rest of the `run_distributed` call: spawn, handshake, the wait for
//!   GO, and teardown.
//! * `peak_rss_mb` — peak resident memory of the run's process (of the
//!   largest worker, if bigger).
//!
//! `--trace 1` reports the per-layer metrics: exact counts from the run's
//! statistics, spans around public calls, model-handler time from a
//! decorated run, per-layer microbenchmarks, the cost ledger, and a
//! sensitivity self-check. `--workload all` runs every workload timed, then
//! every workload traced. Every run is checked against pinned outputs; the
//! last line of standard output is the JSON result.

// The benchmark measures real wall-clock time by design.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

mod decor;
mod micro;
mod sys;
mod workloads;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use simbricks::runner::{run_distributed, DistOptions, Execution, PartitionBuilder, TransportKind};
use simbricks::scenario::{build_from_toml, lower, Scenario};

use decor::{assemble, class_times, Assembly, Class};
use sys::{cpu_seconds, median, peak_rss_mb, quantile, since, supported_percentile};
use workloads::{
    check, combined_fingerprint, end_time, observe_local, scenario_text, Observed, Runner,
    Workload, FP_EPOCH,
};

/// Fewest timed runs a `--trace 0` invocation makes, however long they take.
const MIN_RUNS: usize = 5;
/// A single run taking longer than this counts as failed (timed out).
const RUN_TIMEOUT: Duration = Duration::from_secs(120);
/// The `wall_s` regression bound, as a share of the median (mirrors
/// `BENCHMARK.json`). The sensitivity check injects twice this share of the
/// run's wall time into the switches and must see `wall_s` rise beyond it.
const WALL_BOUND: f64 = 0.25;
/// A traced invocation with no complete round by this time gives up.
const TRACE_DEADLINE_S: f64 = 120.0;
/// Directory (under the working directory) for shm regions and sockets.
const TMP_DIR: &str = ".perfbench_tmp";

struct Args {
    /// The workload to run; `None` (`--workload all`) runs every workload
    /// timed, then every workload traced.
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: perform exactly one timed run and report it.
    one_run: bool,
    /// Print the pinned-values table entry for the workload.
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--one-run" | "--pin" => flags.push(argv[i].as_str()),
            k @ ("--workload" | "--seed" | "--seconds" | "--trace") => {
                let v = argv.get(i + 1).ok_or(format!("{k} needs a value"))?;
                kv.insert(k, v);
                i += 1;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    let name = *kv.get("--workload").ok_or("--workload is required")?;
    let workload = match name {
        "all" => None,
        _ => Some(workloads::find(name).ok_or_else(|| {
            let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name} (known: all, {})", names.join(", "))
        })?),
    };
    let num = |k: &str, d: &str| -> Result<String, String> {
        Ok(kv.get(k).copied().unwrap_or(d).to_string())
    };
    Ok(Args {
        workload,
        seed: num("--seed", "1")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: num("--seconds", "10")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: num("--trace", "0")? == "1",
        one_run: flags.contains(&"--one-run"),
        pin: flags.contains(&"--pin"),
    })
}

fn main() {
    // Distributed workers re-execute this binary; rebuild their partition.
    simbricks::runner::maybe_worker(&build_from_toml);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Keep shm regions and other scratch files inside the working directory.
    // Child processes inherit the variable; only the top process owns the
    // directory.
    let own_tmp = !args.one_run;
    let tmp = std::env::current_dir()
        .expect("working directory")
        .join(TMP_DIR)
        .join(std::process::id().to_string());
    if own_tmp {
        std::fs::create_dir_all(&tmp).expect("create scratch directory");
        std::env::set_var("TMPDIR", &tmp);
    }
    let code = match run(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    if own_tmp {
        let _ = std::fs::remove_dir_all(&tmp);
        let _ = std::fs::remove_dir(tmp.parent().expect("scratch parent"));
    }
    std::process::exit(code);
}

fn run(args: &Args) -> Result<(), String> {
    let Some(w) = args.workload else {
        // All timed runs first: a timed run's peak RSS includes the spawning
        // process's (see `sys::peak_rss_mb`), so this process must not have
        // simulated anything yet.
        for w in workloads::WORKLOADS {
            timed(args, w)?;
        }
        for w in workloads::WORKLOADS {
            traced(args, w)?;
        }
        return Ok(());
    };
    if args.pin {
        let (obs, _) = local_run(w, args.seed, Execution::Sequential)?;
        println!("{}: {}", w.name, workloads::pins_source(&obs));
        return Ok(());
    }
    if args.one_run {
        let r = one_run(w, args.seed)?;
        println!(
            "PERFBENCH_RUN wall={:e} cpu={:e} setup={:e} rss={:e} ok={} detail={}",
            r.wall,
            r.cpu,
            r.setup,
            r.rss,
            r.check.is_ok() as u8,
            r.check.err().unwrap_or_default()
        );
        return Ok(());
    }
    if args.trace {
        traced(args, w)
    } else {
        timed(args, w)
    }
}

// ---------------------------------------------------------------------------
// Timed runs (--trace 0)
// ---------------------------------------------------------------------------

struct RunSample {
    wall: f64,
    cpu: f64,
    setup: f64,
    rss: f64,
    check: Result<(), String>,
}

/// One timed run of the workload in this process.
fn one_run(w: &Workload, seed: u64) -> Result<RunSample, String> {
    match w.runner {
        Runner::Local(exec) => {
            let (obs, spans) = local_run(w, seed, exec)?;
            Ok(RunSample {
                wall: spans.run,
                cpu: spans.run_cpu,
                setup: spans.parse + spans.lower,
                rss: peak_rss_mb(),
                check: check(w, &obs),
            })
        }
        Runner::DistShm => {
            let text = scenario_text(w, seed)?;
            let t0 = Instant::now();
            let spec = Scenario::from_toml_str(&text).map_err(|e| e.to_string())?;
            let parse = since(t0);
            let (d, total, cpu) = dist_run(&spec, &text)?;
            let wall = d.wall.as_secs_f64();
            let obs = Observed {
                fingerprint: combined_fingerprint(&d.logs, end_time(&spec)),
                stats: d.total_stats(),
                ..Default::default()
            };
            Ok(RunSample {
                wall,
                cpu,
                setup: parse + (total - wall),
                rss: peak_rss_mb(),
                check: check(w, &obs),
            })
        }
    }
}

/// A distributed run over shm: the result, the whole call's wall seconds,
/// and the CPU seconds of this process plus its reaped workers.
fn dist_run(
    spec: &Scenario,
    text: &str,
) -> Result<(simbricks::runner::DistResult, f64, f64), String> {
    let opts = DistOptions::new(spec.partitions(), text)
        .with_transport(TransportKind::Shm)
        .with_exec(Execution::Sequential);
    let c0 = cpu_seconds();
    let t = Instant::now();
    let d = run_distributed(&opts, &build_from_toml).map_err(|e| format!("dist run: {e}"))?;
    let total = since(t);
    Ok((d, total, cpu_seconds() - c0))
}

/// Run the workload once in a child process; `Err` when it crashed, timed
/// out, or printed no result.
fn child_run(args: &Args, w: &Workload) -> Result<RunSample, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(["--one-run", "--workload", w.name, "--seed"])
        .arg(args.seed.to_string())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
            .find(|l| l.starts_with("PERFBENCH_RUN "))
    });
    let deadline = Instant::now() + RUN_TIMEOUT;
    let status = loop {
        if let Some(s) = child.try_wait().map_err(|e| e.to_string())? {
            break s;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err("run timed out".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let line = reader.join().map_err(|_| "reader panicked")?;
    let line = match (status.success(), line) {
        (true, Some(l)) => l,
        (_, _) => return Err(format!("run failed ({status})")),
    };
    // The free-text detail is the rest of the line.
    let (line, detail) = line.split_once(" detail=").unwrap_or((&line, ""));
    let field = |k: &str| -> Option<&str> {
        line.split_whitespace()
            .find_map(|t| t.strip_prefix(k)?.strip_prefix('='))
    };
    let num = |k: &str| -> Result<f64, String> {
        field(k)
            .and_then(|v| v.parse().ok())
            .ok_or(format!("bad run line: {line}"))
    };
    Ok(RunSample {
        wall: num("wall")?,
        cpu: num("cpu")?,
        setup: num("setup")?,
        rss: num("rss")?,
        check: if field("ok") == Some("1") {
            Ok(())
        } else {
            Err(detail.to_string())
        },
    })
}

/// Host facts every result record carries.
fn provenance(args: &Args, w: &Workload, runs: usize) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rev = if std::path::Path::new(".git").exists() {
        Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    } else {
        None
    };
    format!(
        "\"workload\": \"{}\", \"rev\": \"{}\", \"src_digest\": \"{:016x}\", \"nproc\": {nproc}, \
         \"seed\": {}, \"runs\": {runs}",
        w.name,
        rev.unwrap_or_else(|| "unknown".into()),
        source_digest(),
        args.seed
    )
}

/// FNV digest of every `.rs` and `.toml` file under `crates/` and
/// `perfbench/` (paths and contents, in path order): identifies the code
/// measured when the checkout carries no git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("perfbench"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    simbricks::base::fnv1a(&bytes)
}

fn timed(args: &Args, w: &Workload) -> Result<(), String> {
    let start = Instant::now();
    let mut samples: Vec<RunSample> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0usize;
    while attempted < MIN_RUNS || since(start) < args.seconds {
        attempted += 1;
        match child_run(args, w) {
            Ok(s) => {
                if let Err(e) = &s.check {
                    failures.push(e.clone());
                }
                samples.push(s);
            }
            Err(e) => failures.push(e),
        }
    }
    if samples.is_empty() {
        return Err(format!("no run completed: {}", failures.join(" | ")));
    }
    for f in &failures {
        eprintln!("perfbench: failed run: {f}");
    }
    let metrics: [(&str, &str, Vec<f64>); 4] = [
        ("wall_s", "s", samples.iter().map(|s| s.wall).collect()),
        ("cpu_s", "s", samples.iter().map(|s| s.cpu).collect()),
        ("setup_s", "s", samples.iter().map(|s| s.setup).collect()),
        ("peak_rss_mb", "MB", samples.iter().map(|s| s.rss).collect()),
    ];
    let n = samples.len();
    let pct = supported_percentile(n);
    println!(
        "# {} seed={} runs={attempted} failed={}",
        w.name,
        args.seed,
        failures.len()
    );
    println!(
        "# {:<12} {:>12} {:>12} {:>12} {:>12}  unit  n",
        "metric",
        "median",
        pct.map_or("max".to_string(), |p| format!("p{p}")),
        "q1",
        "q3"
    );
    let mut record = Vec::new();
    let mut out = Vec::new();
    for (name, unit, v) in &metrics {
        let med = median(v);
        let (tail_name, tail) = match pct {
            Some(p) => (format!("p{p}"), quantile(v, p as f64 / 100.0)),
            None => ("max".to_string(), quantile(v, 1.0)),
        };
        let (q1, q3) = (quantile(v, 0.25), quantile(v, 0.75));
        println!("  {name:<12} {med:>12.6} {tail:>12.6} {q1:>12.6} {q3:>12.6}  {unit:<4}  {n}");
        record.push(format!(
            "\"{name}\": {{\"median\": {med}, \"{tail_name}\": {tail}, \"q1\": {q1}, \"q3\": {q3}, \
             \"unit\": \"{unit}\", \"n\": {n}}}"
        ));
        out.push(format!(
            "\"{name}\": {{\"value\": {med}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "record {{{}, {}}}",
        provenance(args, w, attempted),
        record.join(", ")
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        failures.len(),
        out.join(", ")
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1)
// ---------------------------------------------------------------------------

/// Spans around the public calls of an untraced in-process run.
struct Spans {
    parse: f64,
    lower: f64,
    run: f64,
    /// CPU seconds of the process during `run`.
    run_cpu: f64,
    teardown: f64,
}

/// The plain (undecorated) in-process run on `exec`, with spans around its
/// calls. A distributed workload runs all partitions in this process.
fn local_run(w: &Workload, seed: u64, exec: Execution) -> Result<(Observed, Spans), String> {
    let text = scenario_text(w, seed)?;
    let t = Instant::now();
    let spec = Scenario::from_toml_str(&text).map_err(|e| e.to_string())?;
    let parse = since(t);
    let t = Instant::now();
    let mut pb = PartitionBuilder::new_local();
    let low = lower(&spec, &mut pb);
    let mut exp = pb.into_experiment();
    exp.convert_logs_fingerprint_only(FP_EPOCH);
    let lower_s = since(t);
    let c = cpu_seconds();
    let t = Instant::now();
    let r = exp.run(exec);
    let run = since(t);
    let run_cpu = cpu_seconds() - c;
    let obs = observe_local(&r, &low, end_time(&spec));
    let t = Instant::now();
    drop(r);
    let teardown = since(t);
    let spans = Spans {
        parse,
        lower: lower_s,
        run,
        run_cpu,
        teardown,
    };
    Ok((obs, spans))
}

/// The executor an in-process run of the workload uses (a distributed
/// workload runs all its partitions sequentially).
fn local_exec(w: &Workload) -> Execution {
    match w.runner {
        Runner::Local(e) => e,
        Runner::DistShm => Execution::Sequential,
    }
}

struct Decorated {
    obs: Observed,
    wall: f64,
    classes: BTreeMap<Class, (f64, u64)>,
    proxy_forwarded: u64,
    proxy_batches: u64,
}

/// The decorated run: every model wrapped in the timing decorator, an
/// optional busy delay in every switch `on_msg`, and optionally every
/// cross-partition link carried by an in-process shm proxy.
fn decorated(
    w: &Workload,
    seed: u64,
    switch_delay_ns: u64,
    proxy: bool,
) -> Result<Decorated, String> {
    let text = scenario_text(w, seed)?;
    let spec = Scenario::from_toml_str(&text).map_err(|e| e.to_string())?;
    let exec = local_exec(w);
    let how = Assembly {
        switch_delay_ns,
        proxy_cross_links: proxy,
    };
    let (mut exp, low, proxies) = assemble(&spec, &how);
    exp.convert_logs_fingerprint_only(FP_EPOCH);
    let t = Instant::now();
    let r = exp.run(exec);
    let wall = since(t);
    let obs = observe_local(&r, &low, end_time(&spec));
    let classes = class_times(&r);
    drop(r);
    let (mut proxy_forwarded, mut proxy_batches) = (0, 0);
    for h in proxies {
        let s = h.shutdown();
        proxy_forwarded += s.forwarded;
        proxy_batches += s.batches;
    }
    Ok(Decorated {
        obs,
        wall,
        classes,
        proxy_forwarded,
        proxy_batches,
    })
}

/// Run `f`, turning a panic (a failed run) into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err("run panicked".into()))
}

fn class_s(d: &Decorated, c: Class) -> f64 {
    d.classes.get(&c).map_or(0.0, |x| x.0)
}

fn traced(args: &Args, w: &Workload) -> Result<(), String> {
    let start = Instant::now();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0usize;
    let mut note = |attempted: &mut usize, what: &str, r: Result<(), String>| {
        *attempted += 1;
        if let Err(e) = r {
            failures.push(format!("{what}: {e}"));
        }
    };

    // Interleaved rounds of (untraced, decorated, delayed) runs, so slow
    // drift of the host hits all three alike. The delayed run adds a fixed
    // busy wait to every switch on_msg, sized from the first round so the
    // switch layer gains twice the wall_s bound's share of the untraced wall.
    let mut untraced = Vec::new();
    let mut decor = Vec::new();
    let mut slow = Vec::new();
    let mut delay_ns = None;
    while slow.len() < 2 || since(start) < args.seconds * 0.8 {
        if since(start) > TRACE_DEADLINE_S {
            return Err(format!(
                "no complete traced round: {}",
                failures.join(" | ")
            ));
        }
        let round = guarded(|| {
            let (obs, spans) = local_run(w, args.seed, local_exec(w))?;
            let d = decorated(w, args.seed, 0, false)?;
            let delay = delay_ns.unwrap_or_else(|| {
                let msgs = d.classes.get(&Class::Switch).map_or(0, |x| x.1);
                (2.0 * WALL_BOUND * spans.run * 1e9 / msgs.max(1) as f64).round() as u64
            });
            let sd = decorated(w, args.seed, delay, false)?;
            Ok((obs, spans, d, delay, sd))
        });
        let (obs, spans, d, delay, sd) = match round {
            Ok(r) => r,
            Err(e) => {
                note(&mut attempted, "traced round", Err(e));
                continue;
            }
        };
        delay_ns = Some(delay);
        note(&mut attempted, "untraced run", check(w, &obs));
        let same = d.obs.fingerprint == obs.fingerprint
            && d.obs.stats.syncs_sent == obs.stats.syncs_sent
            && d.obs.stats.syncs_suppressed == obs.stats.syncs_suppressed
            && d.obs.stats.syncs_coalesced == obs.stats.syncs_coalesced;
        note(
            &mut attempted,
            "decorated run",
            if same {
                Ok(())
            } else {
                Err("fingerprint or sync counts differ from the untraced run".into())
            },
        );
        note(
            &mut attempted,
            "delayed run",
            if sd.obs.fingerprint == obs.fingerprint {
                Ok(())
            } else {
                Err("fingerprint changed".into())
            },
        );
        untraced.push((obs, spans));
        decor.push(d);
        slow.push(sd);
    }
    let delay_ns = delay_ns.unwrap_or(0);
    let obs = untraced[0].0.clone();
    let med = |f: &dyn Fn(usize) -> f64, n: usize| median(&(0..n).map(f).collect::<Vec<_>>());
    let nu = untraced.len();
    let run_s = med(&|i| untraced[i].1.run, nu);
    let traced_wall = med(&|i| decor[i].wall, nu);
    let class_med = |c: Class| med(&|i| class_s(&decor[i], c), nu);
    let switch_msgs = decor[0].classes.get(&Class::Switch).map_or(0, |x| x.1);
    let ns = slow.len();
    let slow_wall = med(&|i| slow[i].wall, ns);
    let slow_switch = med(&|i| class_s(&slow[i], Class::Switch), ns);
    let injected_s = delay_ns as f64 * 1e-9 * switch_msgs as f64;
    let switch_gain = slow_switch - class_med(Class::Switch);
    let attributed_share = if injected_s > 0.0 {
        switch_gain / injected_s
    } else {
        0.0
    };
    let other_gain: f64 = [Class::Host, Class::Nic]
        .iter()
        .map(|&c| med(&|i| class_s(&slow[i], c), ns) - class_med(c))
        .sum();
    let wall_rise = slow_wall / traced_wall - 1.0;
    let sens_pass = injected_s > 0.0
        && (0.8..1.25).contains(&attributed_share)
        && other_gain.abs() < 0.5 * switch_gain
        && wall_rise > WALL_BOUND;

    // Distributed workload: one decorated in-process run with the
    // cross-partition links on shm proxies (the proxy layer's counts), and
    // one real distributed run (the control-plane span and the
    // cross-process fingerprint check).
    let mut dist_control = 0.0;
    let (mut proxy_forwarded, mut proxy_batches) = (0, 0);
    if w.runner == Runner::DistShm {
        let proxied = guarded(|| decorated(w, args.seed, 0, true)).and_then(|p| {
            (proxy_forwarded, proxy_batches) = (p.proxy_forwarded, p.proxy_batches);
            if p.obs.fingerprint == obs.fingerprint {
                Ok(())
            } else {
                Err("fingerprint changed".into())
            }
        });
        note(&mut attempted, "proxied run", proxied);
        let dist = guarded(|| {
            let text = scenario_text(w, args.seed)?;
            let spec = Scenario::from_toml_str(&text).map_err(|e| e.to_string())?;
            let (d, total, _) = dist_run(&spec, &text)?;
            dist_control = total - d.wall.as_secs_f64();
            let fp = combined_fingerprint(&d.logs, end_time(&spec));
            if fp == obs.fingerprint && d.total_stats().syncs_sent == obs.stats.syncs_sent {
                Ok(())
            } else {
                Err("distributed run differs from the in-process run".into())
            }
        });
        note(&mut attempted, "distributed run", dist);
    }

    let micro = micro::suite(w.frame_bytes);
    let m = |name: &str| micro.iter().find(|(n, _)| *n == name).map_or(0.0, |x| x.1);
    let s = &obs.stats;
    let frames = (obs.rx_frames + obs.tx_frames) as f64;
    let out_of = |name: &str| {
        obs.outputs
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |x| x.1)
    };
    let ledger_terms = [
        (
            "channel",
            m("channel.send_recv_ns") * s.data_sent as f64
                + m("channel.sync_ns") * s.syncs_sent as f64,
        ),
        (
            "pktbuf",
            m("pktbuf.copy_ns") * (s.pool_hits + s.pool_misses + s.pool_fallbacks) as f64,
        ),
        ("event", m("event.schedule_pop_ns") * s.timers_fired as f64),
        (
            "sync",
            m("sync.promise_ns") * (s.syncs_sent + s.syncs_suppressed) as f64,
        ),
        ("gro", m("netstack.gro_ns_per_seg") * obs.rx_frames as f64),
        (
            "checksum",
            m("proto.checksum_ns_per_kb") * frames * w.frame_bytes as f64 / 1024.0,
        ),
        (
            "switch",
            m("switch.forward_ns") * out_of("switch_forwarded") as f64,
        ),
        ("pcie", m("pcie.dma_envelope_ns") * frames),
        ("shm", m("shm.ns_per_msg") * proxy_forwarded as f64),
    ];
    let predicted_s: f64 = ledger_terms.iter().map(|(_, ns)| ns * 1e-9).sum();
    let model_sum: f64 = Class::ALL.iter().map(|&c| class_med(c)).sum();

    let mut metrics: Vec<(String, f64, &str)> = vec![
        ("sync.syncs_sent".into(), s.syncs_sent as f64, "count"),
        (
            "sync.syncs_suppressed".into(),
            s.syncs_suppressed as f64,
            "count",
        ),
        (
            "sync.syncs_coalesced".into(),
            s.syncs_coalesced as f64,
            "count",
        ),
        (
            "sync.per_delivered".into(),
            s.syncs_sent as f64 / s.msgs_delivered.max(1) as f64,
            "ratio",
        ),
        (
            "kernel.msgs_delivered".into(),
            s.msgs_delivered as f64,
            "count",
        ),
        ("kernel.timers_fired".into(), s.timers_fired as f64, "count"),
        ("kernel.advances".into(), s.advances as f64, "count"),
        (
            "kernel.blocked_polls_per_advance".into(),
            s.blocked_polls as f64 / s.advances.max(1) as f64,
            "ratio",
        ),
        ("pktbuf.pool_hits".into(), s.pool_hits as f64, "count"),
        ("pktbuf.pool_misses".into(), s.pool_misses as f64, "count"),
        (
            "pktbuf.pool_fallbacks".into(),
            s.pool_fallbacks as f64,
            "count",
        ),
        ("pktbuf.hit_rate".into(), s.pool_hit_rate(), "ratio"),
        (
            "switch.forwarded".into(),
            out_of("switch_forwarded") as f64,
            "count",
        ),
        (
            "switch.ecn_marked".into(),
            out_of("switch_ecn_marked") as f64,
            "count",
        ),
        (
            "switch.dropped".into(),
            out_of("switch_dropped") as f64,
            "count",
        ),
        ("host.gro_merged".into(), obs.gro_merged as f64, "count"),
        ("host.rx_frames".into(), obs.rx_frames as f64, "count"),
        (
            "scenario.parse_s".into(),
            med(&|i| untraced[i].1.parse, nu),
            "s",
        ),
        (
            "scenario.lower_s".into(),
            med(&|i| untraced[i].1.lower, nu),
            "s",
        ),
        ("runner.run_s".into(), run_s, "s"),
        (
            "runner.teardown_s".into(),
            med(&|i| untraced[i].1.teardown, nu),
            "s",
        ),
    ];
    if w.runner == Runner::DistShm {
        // Only the distributed workload crosses these layers; elsewhere
        // they would read a constant zero.
        metrics.push(("proxy.forwarded".into(), proxy_forwarded as f64, "count"));
        metrics.push(("proxy.batches".into(), proxy_batches as f64, "count"));
        metrics.push(("dist.control_s".into(), dist_control, "s"));
    }
    for c in Class::ALL {
        metrics.push((c.metric().into(), class_med(c), "s"));
    }
    metrics.push(("runtime_s".into(), traced_wall - model_sum, "s"));
    metrics.push(("trace.overhead_s".into(), traced_wall - run_s, "s"));
    for (name, v) in &micro {
        metrics.push(((*name).into(), *v, "ns"));
    }
    metrics.push(("ledger.predicted_s".into(), predicted_s, "s"));
    metrics.push((
        "ledger.residual_share".into(),
        1.0 - predicted_s / run_s,
        "ratio",
    ));
    metrics.push(("sensitivity.injected_s".into(), injected_s, "s"));
    metrics.push((
        "sensitivity.switch_attributed_share".into(),
        attributed_share,
        "ratio",
    ));
    metrics.push(("sensitivity.wall_rise_share".into(), wall_rise, "ratio"));
    metrics.push(("sensitivity.pass".into(), sens_pass as u8 as f64, "bool"));
    if !sens_pass {
        eprintln!(
            "perfbench: sensitivity check not met: injected {injected_s:.4}s, switch gained \
             {switch_gain:.4}s, other models {other_gain:.4}s, wall rose {:.1}%",
            wall_rise * 100.0
        );
    }

    println!(
        "# {} traced seed={} rounds={nu} checks={attempted} failed={}",
        w.name,
        args.seed,
        failures.len()
    );
    for (name, v, unit) in &metrics {
        println!("  {name:<36} {v:>16.6} {unit}");
    }
    println!("# ledger terms (s):");
    for (name, ns) in &ledger_terms {
        println!("  {name:<10} {:>12.6}", ns * 1e-9);
    }
    for f in &failures {
        eprintln!("perfbench: failed check: {f}");
    }
    let json: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "record {{{}, \"traced\": true}}",
        provenance(args, w, attempted)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        failures.len(),
        json.join(", ")
    );
    Ok(())
}
