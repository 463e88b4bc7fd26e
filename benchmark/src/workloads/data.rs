//! The two FIB-seeded data-path workloads.
//!
//! * `tree_1m_data` — the paper's §5.3 tree, "20 hops deep with a fanout of
//!   two": 2²⁰ accounting sinks under a binary tree of `EcmpRouter`s whose
//!   FIBs are pre-seeded with `install_static_route`. One source packet per
//!   window (a *wave*). Memory-bound: cohort expansion, the wheel, the FIB
//!   and `packets::classify` do the work; routing and control do none.
//! * `star_100k_data` — one `EcmpRouter`, 100 000 sinks on one LAN, 50
//!   packets per window. The same data path used the other way: one FIB
//!   lookup and one wheel push per 100 000 deliveries, cache-resident.
//!
//! Operation = one delivery at a subscriber. A *fault window* on these
//! static-FIB workloads is one link flap with no traffic in flight, run to
//! quiescence: it costs exactly the engine's topology-transition sweep over
//! every agent, and the waves after it must still reach every sink.

use super::{Cfg, Counters, Digest, Outcome, SetupSplit, WindowClock, Workload};
use crate::agents::{AccountingSink, Blaster};
use crate::hostctl::{self, PeakRss};
use crate::layers;
use crate::spans::{self, install, Layer};
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use express_wire::fib::FibEntry;
use netsim::time::SimTime;
use netsim::topogen;
use netsim::topology::{LinkSpec, Topology};
use netsim::{LinkId, NodeId, ProfConfig, Sim};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Octets of channel payload per packet.
const PAYLOAD_LEN: usize = 100;

/// No probes, no queries: nothing but the forwarding fast path runs.
fn quiet_cfg() -> RouterConfig {
    RouterConfig {
        neighbor_probe: None,
        boot_query: false,
        ..RouterConfig::default()
    }
}

/// Shape-specific constants of a data workload.
struct Shape {
    packets_per_window: u64,
    /// Simulated ms one window needs to drain after its last packet.
    drain_ms: u64,
}

/// A built data workload: the simulation and what the windows need.
pub struct DataWorld {
    sim: Sim,
    shape: Shape,
    src: NodeId,
    routers: Vec<NodeId>,
    subscribers: u64,
    /// Links a fault window may flap.
    fault_links: Vec<LinkId>,
    rng: StdRng,
    split: SetupSplit,
    /// Host seconds of the warm-up window.
    first_window_s: f64,
    traced: bool,
}

/// The simulated counters a digest section is made of.
const COUNTERS: [&str; 7] = [
    "events",
    "deliveries",
    "express.data_fwd",
    "links.data_pkts",
    "links.data_bytes",
    "links.ctl_pkts",
    "links.drops",
];
const EVENTS: usize = 0;
const DELIVERIES: usize = 1;
const DATA_FWD: usize = 2;
const LINK_DATA_PKTS: usize = 3;

impl DataWorld {
    fn counters(&self) -> Counters<7> {
        let t = self.sim.stats().total();
        Counters([
            self.sim.events_processed(),
            self.sim.stats().named("sink.data_rx"),
            self.sim.stats().named("express.data_fwd"),
            t.data_packets,
            t.data_bytes,
            t.control_packets,
            t.drops,
        ])
    }

    /// One data window: the source's packets at a 1 ms cadence, then drain.
    /// Returns host seconds; deliveries are read off the counters.
    fn data_window(&mut self) -> f64 {
        let t = self.sim.now().0 / 1000 + 1;
        for i in 0..self.shape.packets_per_window {
            self.sim
                .schedule_timer_at(self.src, SimTime((t + i) * 1000), 0);
        }
        let end = SimTime((t + self.shape.packets_per_window + self.shape.drain_ms) * 1000);
        if self.traced {
            spans::window_begin("data");
        }
        let t0 = Instant::now();
        self.sim.run_until(end);
        let s = t0.elapsed().as_secs_f64();
        if self.traced {
            spans::window_end();
        }
        s
    }

    /// One fault window: a seeded link goes down, comes back 1 ms later,
    /// and the simulation runs to quiescence. Returns host seconds.
    fn fault_window(&mut self) -> f64 {
        let link = self.fault_links[self.rng.random_range(0..self.fault_links.len())];
        let t = self.sim.now().0 / 1000 + 1;
        self.sim
            .schedule_link_change(SimTime(t * 1000), link, false);
        self.sim
            .schedule_link_change(SimTime((t + 1) * 1000), link, true);
        // The per-layer totals are about the data windows; the sweep over
        // every agent that a flap causes stays out of them.
        spans::pause(true);
        let t0 = Instant::now();
        self.sim.run_until(SimTime((t + 2) * 1000));
        let s = t0.elapsed().as_secs_f64();
        spans::pause(false);
        s
    }

    fn expected_per_window(&self) -> u64 {
        self.subscribers * self.shape.packets_per_window
    }

    /// Sum of every router's FIB counters: (forwarded, drops).
    fn fib_totals(&mut self) -> (u64, u64) {
        let mut fwd = 0;
        let mut drops = 0;
        for i in 0..self.routers.len() {
            let r = self.routers[i];
            let c = self
                .sim
                .agent_as::<EcmpRouter>(r)
                .expect("router agent")
                .fib()
                .counters();
            fwd += c.forwarded;
            drops += c.no_entry_drops + c.rpf_drops;
        }
        (fwd, drops)
    }
}

impl DataWorld {
    /// Close the agent-install timer, `start()`, and run the warm-up window
    /// (the first window touches every agent and queue page once).
    fn start_and_warm(mut self, t_install: Instant, allocs0: u64) -> DataWorld {
        self.split.install_s = t_install.elapsed().as_secs_f64();
        let t0 = Instant::now();
        self.sim.start();
        self.split.start_s = t0.elapsed().as_secs_f64();
        self.split.allocs = hostctl::allocs() - allocs0;
        self.first_window_s = self.data_window();
        self
    }
}

/// The fault windows' link choice is the one seeded input of a data workload
/// besides its channel number.
fn fault_rng(cfg: &Cfg) -> StdRng {
    StdRng::seed_from_u64(cfg.seed ^ 0xFA17)
}

fn channel_for(topo: &Topology, src: NodeId, seed: u64) -> Channel {
    // The seed picks the channel number; the topology of a data workload
    // is fixed by its definition.
    Channel::new(topo.ip(src), 1 + (seed % 1000) as u32).expect("valid channel number")
}

fn setup_tree(cfg: &Cfg, traced: bool, depth: usize) -> DataWorld {
    let allocs0 = hostctl::allocs();
    let t0 = Instant::now();
    let g = topogen::kary_tree(2, depth, LinkSpec::default());
    let mut split = SetupSplit {
        nodes: g.topo.node_count(),
        topology_s: t0.elapsed().as_secs_f64(),
        ..SetupSplit::default()
    };
    let src = g.hosts[0];
    let chan = channel_for(&g.topo, src, cfg.seed);
    let fault_links: Vec<LinkId> = g.hosts[1..]
        .iter()
        .map(|&h| g.topo.links_of(h)[0])
        .collect();
    let (routers, hosts) = (g.routers, g.hosts);
    let t0 = Instant::now();
    let mut sim = Sim::new(g.topo, cfg.seed);
    split.sim_new_s = t0.elapsed().as_secs_f64();
    let t_install = Instant::now();
    for &r in &routers {
        let mut router = EcmpRouter::new(quiet_cfg());
        let ifaces = sim.topology().iface_count(r) as u32;
        let mask = ((1u32 << ifaces) - 1) & !1;
        if mask != 0 {
            router.install_static_route(FibEntry::new(chan, 0, mask).expect("valid FIB entry"));
        }
        install(&mut sim, r, router, Layer::Router, traced);
    }
    for &h in &hosts[1..] {
        install(&mut sim, h, AccountingSink::default(), Layer::Sink, traced);
    }
    install(
        &mut sim,
        src,
        Blaster::new(chan, PAYLOAD_LEN),
        Layer::Source,
        traced,
    );
    let shape = Shape {
        packets_per_window: 1,
        drain_ms: depth as u64 + 5,
    };
    let subscribers = hosts.len() as u64 - 1;
    DataWorld {
        sim,
        shape,
        src,
        routers,
        subscribers,
        fault_links,
        rng: fault_rng(cfg),
        split,
        first_window_s: 0.0,
        traced,
    }
    .start_and_warm(t_install, allocs0)
}

fn setup_star(cfg: &Cfg, traced: bool, n: usize) -> DataWorld {
    let allocs0 = hostctl::allocs();
    let t0 = Instant::now();
    let mut t = Topology::new();
    let hub = t.add_router();
    let src = t.add_host();
    let uplink = t
        .connect(src, hub, LinkSpec::default())
        .expect("fresh nodes connect");
    let mut members = vec![hub];
    for _ in 0..n {
        members.push(t.add_host());
    }
    t.add_lan(&members, LinkSpec::lan())
        .expect("LAN of fresh hosts");
    let mut split = SetupSplit {
        nodes: t.node_count(),
        topology_s: t0.elapsed().as_secs_f64(),
        ..SetupSplit::default()
    };
    let chan = channel_for(&t, src, cfg.seed);
    let t0 = Instant::now();
    let mut sim = Sim::new(t, cfg.seed);
    split.sim_new_s = t0.elapsed().as_secs_f64();
    let t_install = Instant::now();
    let mut router = EcmpRouter::new(quiet_cfg());
    router.install_static_route(FibEntry::new(chan, 0, 1 << 1).expect("valid FIB entry"));
    install(&mut sim, hub, router, Layer::Router, traced);
    for &s in &members[1..] {
        install(&mut sim, s, AccountingSink::default(), Layer::Sink, traced);
    }
    install(
        &mut sim,
        src,
        Blaster::new(chan, PAYLOAD_LEN),
        Layer::Source,
        traced,
    );
    let shape = Shape {
        packets_per_window: 50,
        drain_ms: 5,
    };
    DataWorld {
        sim,
        shape,
        src,
        routers: vec![hub],
        subscribers: n as u64,
        fault_links: vec![uplink],
        rng: fault_rng(cfg),
        split,
        first_window_s: 0.0,
        traced,
    }
    .start_and_warm(t_install, allocs0)
}

/// Data windows per round. Each round opens with one fault window, so the
/// two kinds of window sample the same stretch of host time and every flap
/// is followed by waves that must still reach every sink.
const DATA_PER_ROUND: usize = 2;

impl DataWorld {
    fn setup_digest(&self) -> Digest {
        let mut d = Digest::default();
        d.put("nodes", self.sim.topology().node_count() as u64);
        d.put("links", self.sim.topology().link_count() as u64);
        d.put("subscribers", self.subscribers);
        self.counters().put(&mut d, "setup", &COUNTERS);
        d.put("setup.peak_queue_depth", self.sim.peak_queue_depth() as u64);
        d
    }

    /// One checked data window: its rate goes to `out`, its counter deltas
    /// to `acc`. `edge` is the counter reading at the last window edge and
    /// is moved to this one (a reading sums the stats of every link, so
    /// each edge is read once). Returns host seconds.
    fn checked_data_window(
        &mut self,
        out: &mut Outcome,
        acc: &mut Counters<7>,
        edge: &mut Counters<7>,
    ) -> f64 {
        let expected = self.expected_per_window();
        let before = *edge;
        let s = self.data_window();
        let after = self.counters();
        *edge = after;
        let got = after.0[DELIVERIES] - before.0[DELIVERIES];
        out.ops_attempted += expected;
        if got != expected {
            let n = out.ops_rates.len() + 1;
            out.fail(
                got.abs_diff(expected),
                format!("data window {n}: {got} deliveries, expected {expected}"),
            );
        }
        out.ops_rates.push(got as f64 / s);
        acc.add_delta(&before, &after);
        s
    }

    fn measure(&mut self, cfg: &Cfg, budget_s: f64, rss: &mut PeakRss, out: &mut Outcome) {
        // Rounds of one fault window and DATA_PER_ROUND data windows: the
        // pinned ones first, whose statistics make up the digest, then more
        // while the budget lasts.
        let pinned_rounds = cfg.min_windows(10);
        out.digest = self.setup_digest();
        let fib0 = if self.traced {
            self.fib_totals()
        } else {
            (0, 0)
        };
        let allocs0 = hostctl::allocs();
        let (mut data, mut fault) = (Counters::ZERO, Counters::ZERO);
        let (mut wall_s, mut fault_allocs) = (0.0, 0);
        let mut clock = WindowClock::new(budget_s, pinned_rounds);
        let mut edge = self.counters();
        while clock.grant() {
            let a0 = hostctl::allocs();
            out.fault_ms.push(self.fault_window() * 1e3);
            let after = self.counters();
            fault.add_delta(&edge, &after);
            edge = after;
            fault_allocs += hostctl::allocs() - a0;
            for _ in 0..DATA_PER_ROUND {
                wall_s += self.checked_data_window(out, &mut data, &mut edge);
            }
            rss.sample();
            if clock.done() == pinned_rounds {
                data.put(
                    &mut out.digest,
                    &format!("data[{}]", pinned_rounds * DATA_PER_ROUND),
                    &COUNTERS,
                );
                fault.put(
                    &mut out.digest,
                    &format!("fault[{pinned_rounds}]"),
                    &COUNTERS,
                );
                out.digest
                    .put("peak_queue_depth", self.sim.peak_queue_depth() as u64);
                rss.pin();
            }
        }
        let data_allocs = hostctl::allocs() - allocs0 - fault_allocs;
        let data_spans_ns = spans::est_non_engine_ns();
        let (router_t, sink_t) = (spans::totals(Layer::Router), spans::totals(Layer::Sink));

        if !self.traced {
            return;
        }
        let ops = data.0[DELIVERIES].max(1) as f64;
        let events = data.0[EVENTS].max(1) as f64;
        let ns_per_op = wall_s * 1e9 / ops;
        let (fib_fwd, fib_drops) = {
            let (f, d) = self.fib_totals();
            (f - fib0.0, d - fib0.1)
        };
        out.layer("engine.self_share", 1.0 - data_spans_ns / (wall_s * 1e9));
        out.layer("engine.events_per_op", events / ops);
        out.layer(
            "engine.peak_queue_depth",
            self.sim.peak_queue_depth() as f64,
        );
        out.layer("engine.allocs_per_event", data_allocs as f64 / events);
        out.layer("fib.forwarded", fib_fwd as f64 / ops);
        out.layer("fib.drops", fib_drops as f64);
        out.layer("router.on_packet_ns", router_t.mean_ns());
        out.layer("router.calls", router_t.calls as f64 / ops);
        out.layer("router.data_fwd", data.0[DATA_FWD] as f64 / ops);
        out.layer("sink.on_packet_ns", sink_t.mean_ns());
        out.layer(
            "setup.first_wave_over_steady",
            self.first_window_s / (wall_s / out.ops_rates.len() as f64),
        );

        // Exact per-class counts and wheel gauges from the engine's own
        // profiler, over two extra windows (it changes the dispatch path,
        // so it never runs during the timed ones).
        self.sim
            .enable_prof(ProfConfig::default().gauge_every(1024));
        let d0 = self.sim.stats().named("sink.data_rx");
        let prof_s = self.data_window() + self.data_window();
        let prof_ops = (self.sim.stats().named("sink.data_rx") - d0).max(1) as f64;
        if let Some(p) = self.sim.take_prof() {
            layers::prof_layers(&p.report(), prof_ops, prof_s, out);
        }

        // The ledger: isolated op costs × exact multiplicities per delivery.
        let pkt: netsim::Payload = express::packets::channel_data(
            channel_for(self.sim.topology(), self.src, cfg.seed),
            PAYLOAD_LEN,
            express::packets::DEFAULT_TTL,
        )
        .into();
        let costs =
            layers::isolated_costs(&pkt, self.sim.topology().link_count().min(1 << 16), out);
        let classify_per_op = (router_t.packet_calls + sink_t.packet_calls) as f64 / ops;
        let link_tx_per_op = data.0[LINK_DATA_PKTS] as f64 / ops;
        let bumps_per_op = 3.0 + data.0[DATA_FWD] as f64 / ops;
        let explained = costs.classify_ns * classify_per_op
            + costs.fib_hit_ns * fib_fwd as f64 / ops
            + costs.wheel_ns * link_tx_per_op
            + costs.count_id_ns * bumps_per_op;
        out.layer("budget.explained_share", explained / ns_per_op);
        out.layer("budget.residual_share", 1.0 - explained / ns_per_op);
    }
}

/// `tree_1m_data`.
pub struct Tree(DataWorld);
/// `star_100k_data`.
pub struct Star(DataWorld);

macro_rules! data_workload {
    ($ty:ident, $name:literal, $setup:expr, $full:literal, $check:literal) => {
        impl Workload for $ty {
            const NAME: &'static str = $name;
            fn setup(cfg: &Cfg, traced: bool) -> Self {
                $ty($setup(cfg, traced))
            }
            fn split(&self) -> SetupSplit {
                self.0.split
            }
            fn setup_digest(&self) -> Digest {
                self.0.setup_digest()
            }
            fn measure(&mut self, cfg: &Cfg, budget_s: f64, rss: &mut PeakRss, out: &mut Outcome) {
                self.0.measure(cfg, budget_s, rss, out)
            }
            fn expected(cfg: &Cfg) -> Option<&'static str> {
                Some(if cfg.check {
                    include_str!($check)
                } else {
                    include_str!($full)
                })
            }
        }
    };
}

data_workload!(
    Tree,
    "tree_1m_data",
    |cfg: &Cfg, traced| setup_tree(cfg, traced, if cfg.check { 10 } else { 20 }),
    "../../expected/tree_1m_data.full.digest",
    "../../expected/tree_1m_data.check.digest"
);
data_workload!(
    Star,
    "star_100k_data",
    |cfg: &Cfg, traced| setup_star(cfg, traced, if cfg.check { 2_000 } else { 100_000 }),
    "../../expected/star_100k_data.full.digest",
    "../../expected/star_100k_data.check.digest"
);
