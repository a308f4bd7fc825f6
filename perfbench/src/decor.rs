//! The traced run's model-handler decorator and the assembly that installs
//! it.
//!
//! [`Timed`] wraps any component model and adds the wall time spent inside
//! its handlers to a per-instance counter. It forwards every [`Model`]
//! method — including the sync-lookahead declarations and snapshot/restore —
//! so the decorated experiment synchronizes exactly like the plain one; the
//! benchmark checks that its fingerprint and sync counts are identical.
//!
//! [`assemble`] builds a scenario with [`Experiment::add`], mirroring
//! `simbricks::scenario::lower` (same declaration-order walk, channel
//! creation order, port numbering, and seeds), but with every model wrapped.

use std::any::Any;
use std::collections::BTreeMap;
use std::time::Instant;

use simbricks::apps::memcache::MEMCACHE_PORT;
use simbricks::apps::{
    IperfTcpClient, IperfTcpServer, IperfUdpClient, IperfUdpServer, MemaslapClient,
    MemcachedServer, NetperfClient, NetperfServer,
};
use simbricks::base::snap::{SnapReader, SnapResult, SnapWriter};
use simbricks::base::{
    channel_pair, fnv1a_str, mix_seed, ChannelEnd, ChannelParams, Kernel, Model, OwnedMsg, PortId,
    SyncLookahead,
};
use simbricks::hostsim::{Application, HostConfig};
use simbricks::netsim::{SwitchBm, SwitchConfig};
use simbricks::netstack::SocketAddr;
use simbricks::runner::experiment::AnyModel;
use simbricks::runner::{
    host_component, nic_model, proxy_pair, Experiment, ProxyHandle, ProxyKind,
};
use simbricks::scenario::{AppSpec, Lowered, Node, Scenario};
use simbricks::SimTime;

/// Component class a decorated model is accounted under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Host,
    Nic,
    Switch,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Host, Class::Nic, Class::Switch];

    pub fn metric(self) -> &'static str {
        match self {
            Class::Host => "model.host_s",
            Class::Nic => "model.nic_s",
            Class::Switch => "model.switch_s",
        }
    }
}

/// Handler-timing decorator (see the module docs).
pub struct Timed {
    inner: Box<dyn AnyModel>,
    pub class: Class,
    /// Wall nanoseconds spent inside the wrapped handlers.
    pub busy_ns: u64,
    /// `on_msg` invocations (the handler the injected delay applies to).
    pub msgs: u64,
    /// Extra busy-wait added to every `on_msg`, inside the timed region
    /// (the sensitivity check's injected slowdown).
    delay_ns: u64,
}

impl Timed {
    pub fn new(class: Class, inner: Box<dyn AnyModel>, delay_ns: u64) -> Self {
        Timed {
            inner,
            class,
            busy_ns: 0,
            msgs: 0,
            delay_ns,
        }
    }

    /// The wrapped model, downcast to its concrete type.
    pub fn inner<T: 'static>(&self) -> Option<&T> {
        let any: &dyn Any = self.inner.as_any();
        any.downcast_ref()
    }

    #[inline]
    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn Model) -> R) -> R {
        let t = Instant::now();
        let r = f(self.inner.as_model());
        self.busy_ns += t.elapsed().as_nanos() as u64;
        r
    }
}

fn spin(ns: u64) {
    let t = Instant::now();
    while (t.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

impl Model for Timed {
    fn init(&mut self, k: &mut Kernel) {
        self.timed(|m| m.init(k));
    }

    fn on_msg(&mut self, k: &mut Kernel, port: PortId, msg: OwnedMsg) {
        let delay = self.delay_ns;
        self.msgs += 1;
        self.timed(|m| {
            m.on_msg(k, port, msg);
            if delay > 0 {
                spin(delay);
            }
        });
    }

    fn on_timer(&mut self, k: &mut Kernel, token: u64) {
        self.timed(|m| m.on_timer(k, token));
    }

    fn finish(&mut self, k: &mut Kernel) {
        self.timed(|m| m.finish(k));
    }

    fn sync_lookahead(&self) -> Option<SyncLookahead> {
        self.inner.as_model_ref().sync_lookahead()
    }

    fn sync_lookahead_on(&self, port: PortId) -> Option<SyncLookahead> {
        self.inner.as_model_ref().sync_lookahead_on(port)
    }

    fn snapshot(&self, w: &mut SnapWriter) -> SnapResult<()> {
        self.inner.as_model_ref().snapshot(w)
    }

    fn restore(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.inner.as_model().restore(r)
    }
}

/// How [`assemble`] decorates models and bridges cross-partition links.
pub struct Assembly {
    /// Per-`on_msg` busy-wait injected into every switch.
    pub switch_delay_ns: u64,
    /// Carry links between different partitions over an in-process shm
    /// proxy pair (the transport a distributed run uses), instead of a
    /// plain channel.
    pub proxy_cross_links: bool,
}

fn build_app(spec: &Scenario, app: &AppSpec) -> Box<dyn Application> {
    let dur = |d: Option<SimTime>| d.unwrap_or(spec.duration);
    let ip_of = |name: &str| host_config(spec, name).ip;
    match app {
        AppSpec::IperfTcpServer { port } => Box::new(IperfTcpServer::new(*port)),
        AppSpec::IperfTcpClient {
            server,
            port,
            duration,
        } => Box::new(IperfTcpClient::new(ip_of(server), *port, dur(*duration))),
        AppSpec::IperfUdpServer { port } => Box::new(IperfUdpServer::new(*port)),
        AppSpec::IperfUdpClient {
            server,
            port,
            rate_bps,
            payload,
            duration,
        } => Box::new(IperfUdpClient::new(
            SocketAddr::new(ip_of(server), *port),
            *rate_bps,
            *payload,
            dur(*duration),
        )),
        AppSpec::NetperfServer {
            stream_port,
            rr_port,
        } => Box::new(NetperfServer::new(*stream_port, *rr_port)),
        AppSpec::NetperfClient {
            server,
            stream_port,
            rr_port,
            stream_duration,
            rr_duration,
        } => {
            let half = SimTime::from_ps(spec.duration.as_ps() / 2);
            Box::new(NetperfClient::new(
                ip_of(server),
                *stream_port,
                *rr_port,
                stream_duration.unwrap_or(half),
                rr_duration.unwrap_or(half),
            ))
        }
        AppSpec::MemcachedServer => Box::new(MemcachedServer::new()),
        AppSpec::MemaslapClient {
            servers,
            concurrency,
            value_size,
            duration,
        } => {
            let addrs = servers
                .iter()
                .map(|s| SocketAddr::new(ip_of(s), MEMCACHE_PORT))
                .collect();
            Box::new(MemaslapClient::new(
                addrs,
                *concurrency,
                *value_size,
                dur(*duration),
            ))
        }
    }
}

fn host_config(spec: &Scenario, name: &str) -> HostConfig {
    let h = spec.host(name).expect("validated: host exists");
    let mut cfg = HostConfig::new(h.kind, h.index);
    cfg.nic = h.nic;
    if let Some(cc) = h.congestion {
        cfg.congestion = cc;
    }
    if let Some(mtu) = h.mtu {
        cfg.mtu = mtu;
    }
    cfg
}

fn link_params(spec: &Scenario, base: ChannelParams, li: usize) -> ChannelParams {
    let link = &spec.links[li];
    let mut p = base;
    if let Some(l) = link.latency {
        p = p.with_latency(l).with_sync_interval(p.sync_interval.min(l));
    }
    if let Some(imp) = &link.impairment {
        p = p.with_impairment(imp.build(mix_seed(spec.seed, fnv1a_str(&link.name))));
    }
    p
}

/// Assemble `spec` with every model wrapped in [`Timed`]. Returns the
/// experiment, the name → component-id map, and the handles of any shm
/// proxies carrying cross-partition links.
pub fn assemble(spec: &Scenario, how: &Assembly) -> (Experiment, Lowered, Vec<ProxyHandle>) {
    let mut exp = Experiment::new(&spec.name, spec.duration.saturating_add(spec.end_margin));
    if spec.log {
        exp = exp.with_logging();
    }
    if !spec.synchronized {
        exp = exp.unsynchronized();
    }
    if let Some(l) = spec.link_latency {
        exp = exp.with_link_latency(l);
    }
    if let Some(l) = spec.pcie_latency {
        exp = exp.with_pcie_latency(l);
    }
    if let Some(i) = spec.sync_interval {
        exp = exp.with_sync_interval(i);
    }
    if let Some(a) = spec.adaptive_sync {
        exp = exp.with_adaptive_sync(a);
    }
    if spec.hier_sync {
        exp = exp.with_hier_sync();
    }
    if spec.global_barrier {
        exp = exp.with_global_barrier();
    }

    let mut low = Lowered::default();
    let mut proxies = Vec::new();
    let mut pending: BTreeMap<usize, ChannelEnd> = BTreeMap::new();
    let mut take_end = |exp: &Experiment, li: usize, side: u8| -> ChannelEnd {
        if let Some(end) = pending.remove(&li) {
            return end;
        }
        let params = link_params(spec, exp.eth_params(), li);
        let link = &spec.links[li];
        let (a, b) = if how.proxy_cross_links && spec.link_crosses_partitions(link) {
            let (a, b, h) = proxy_pair(ProxyKind::Shm, params).expect("shm proxy pair");
            proxies.push(h);
            (a, b)
        } else {
            channel_pair(params)
        };
        let (mine, far) = if side == 0 { (a, b) } else { (b, a) };
        pending.insert(li, far);
        mine
    };
    let wrap = |class: Class, m: Box<dyn AnyModel>, delay: u64| -> Box<dyn AnyModel> {
        Box::new(Timed::new(class, m, delay))
    };

    for node in &spec.nodes {
        match node {
            Node::Host(h) => {
                let (li, side) = spec.links_of(&h.name)[0];
                let eth = take_end(&exp, li, side);
                let cfg = host_config(spec, &h.name);
                let app = build_app(spec, &h.app);
                let (pcie_host, pcie_nic) = channel_pair(exp.pcie_params());
                let hid = exp.add(
                    format!("{}.host", h.name),
                    wrap(Class::Host, host_component(cfg, app), 0),
                    vec![pcie_host],
                );
                exp.add(
                    format!("{}.nic", h.name),
                    wrap(Class::Nic, nic_model(cfg.nic, h.rtl_nic), 0),
                    vec![pcie_nic, eth],
                );
                low.hosts.push((h.name.clone(), hid));
            }
            Node::Switch(s) => {
                let links = spec.links_of(&s.name);
                let ends: Vec<ChannelEnd> = links
                    .iter()
                    .map(|&(li, side)| take_end(&exp, li, side))
                    .collect();
                let mut cfg = SwitchConfig {
                    ports: ends.len(),
                    seed: mix_seed(spec.seed, fnv1a_str(&s.name)),
                    ..Default::default()
                };
                if let Some(b) = s.bandwidth_bps {
                    cfg.bandwidth_bps = b;
                }
                if let Some(q) = s.queue_capacity {
                    cfg.queue_capacity = q;
                }
                if let Some(a) = s.aqm {
                    cfg.aqm = Some(a.to_aqm());
                }
                let mut sw = SwitchBm::new(cfg);
                for (port, (li, _)) in links.iter().enumerate() {
                    if let Some(a) = spec.links[*li].aqm {
                        sw.set_port_aqm(port, a.to_aqm());
                    }
                }
                let id = exp.add(
                    s.name.clone(),
                    wrap(Class::Switch, Box::new(sw), how.switch_delay_ns),
                    ends,
                );
                low.switches.push((s.name.clone(), id));
            }
        }
    }
    assert!(pending.is_empty(), "every channel end attached");
    if !proxies.is_empty() {
        // Promises crossing a proxy arrive on its forwarding threads'
        // schedule: "all components blocked" is transient, not a deadlock.
        exp.set_external_inputs();
    }
    (exp, low, proxies)
}

/// Per-class handler seconds and `on_msg` counts of a decorated run.
pub fn class_times(r: &simbricks::runner::RunResult) -> BTreeMap<Class, (f64, u64)> {
    let mut out = BTreeMap::new();
    for id in 0..r.component_names.len() {
        if let Some(t) = r.model::<Timed>(id) {
            let e = out.entry(t.class).or_insert((0.0, 0u64));
            e.0 += t.busy_ns as f64 * 1e-9;
            e.1 += t.msgs;
        }
    }
    out
}
