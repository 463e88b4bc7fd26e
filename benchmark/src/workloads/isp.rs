//! `isp_churn_faults` — full ECMP on an ISP-like random graph, no channel
//! data.
//!
//! ~1 000 `EcmpRouter`s in a seeded `random_connected` graph, ~4 000
//! `ExpressHost`s, 256 channels over 16 sources. This is the paper's §5.3
//! event-processing measurement (subscribe/unsubscribe through real
//! routers) plus the fault regime a systematic fault search would run
//! thousands of times: the engine's eager per-event path, the router's
//! control logic, ECMP parse/emit, the transport and unicast routing do the
//! work, and the cohort data path does none.
//!
//! * **Phase A, churn windows.** Every subscriber host joins a seeded random
//!   channel; one source issues a `CountQuery` whose answer must equal
//!   membership truth, and the queried channel's FIBs must reach exactly
//!   its members; then every host leaves and every FIB must be empty again.
//!   Operation = one membership change fully propagated.
//! * **Phase B, fault windows.** With every host subscribed, one on-tree
//!   router–router link flaps (down, up one simulated second later) and the
//!   network runs to quiescence; every channel's FIBs must again reach
//!   exactly its members. Only *bridges* are flapped — partition and heal.
//!   A flap of a link that lies on a cycle re-homes subtrees sideways, and
//!   the router's re-homing then loses members for good (a new parent that
//!   still lists the sender as its own upstream drops the join); a workload
//!   must not fail operations, so that case is left to the fault-search
//!   item on the roadmap rather than timed here.

use super::{
    next_ms, run_to_ms, schedule_count_query, take_count_answer, Cfg, Counters, Digest, Outcome,
    SetupSplit, WindowClock, Workload, DEFAULT_SEED, QUIESCE_MS, SETTLE_MS,
};
use crate::hostctl::{self, PeakRss};
use crate::layers;
use crate::spans::{self, install, Layer};
use express::host::{ExpressHost, HostAction};
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use netsim::routing::Routing;
use netsim::time::SimTime;
use netsim::topogen;
use netsim::topology::{LinkSpec, NodeKind};
use netsim::{LinkId, NodeId, ProfConfig, Sim};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

struct Size {
    routers: usize,
    extra_edges: usize,
    hosts: usize,
    sources: usize,
    channels_per_source: usize,
    /// A round is `churn_per_round` churn windows, then — with every host
    /// joined — `faults_per_round` fault windows, so the two kinds of
    /// window sample the same stretch of host time. `rounds` of them are
    /// pinned; more follow while the budget lasts.
    rounds: usize,
    churn_per_round: usize,
    faults_per_round: usize,
}

fn size(cfg: &Cfg) -> Size {
    if cfg.check {
        Size {
            routers: 60,
            extra_edges: 24,
            hosts: 200,
            sources: 4,
            channels_per_source: 4,
            rounds: 3,
            churn_per_round: 1,
            faults_per_round: 1,
        }
    } else {
        Size {
            routers: 1000,
            extra_edges: 400,
            hosts: 4000,
            sources: 16,
            channels_per_source: 16,
            rounds: 6,
            churn_per_round: 5,
            faults_per_round: 2,
        }
    }
}

pub struct Isp {
    sim: Sim,
    routers: Vec<NodeId>,
    sources: Vec<NodeId>,
    subscribers: Vec<NodeId>,
    channels: Vec<Channel>,
    /// Current channel of each subscriber (index into `channels`).
    membership: Vec<Option<usize>>,
    rng: StdRng,
    split: SetupSplit,
    traced: bool,
    /// CountQuery answers, in order, for the digest.
    answers: Vec<u64>,
}

/// The simulated counters a digest section is made of.
const COUNTERS: [&str; 10] = [
    "events",
    "ecmp.count_tx",
    "ecmp.count_rx",
    "host.ecmp_tx",
    "ecmp.rehome",
    "links.ctl_pkts",
    "links.ctl_bytes",
    "links.drops",
    "routing.computes",
    "routing.queries",
];
const EVENTS: usize = 0;
const COUNT_TX: usize = 1;
const COUNT_RX: usize = 2;
const REHOMES: usize = 4;
const CTL_PKTS: usize = 5;
const COMPUTES: usize = 8;
const QUERIES: usize = 9;

impl Isp {
    fn counters(&self) -> Counters<10> {
        let s = self.sim.stats();
        let t = s.total();
        Counters([
            self.sim.events_processed(),
            s.named("ecmp.count_tx"),
            s.named("ecmp.count_rx"),
            s.named("host.ecmp_tx"),
            s.named("ecmp.rehome"),
            t.control_packets,
            t.control_bytes,
            t.drops,
            self.sim.routing().compute_count(),
            self.sim.routing().query_count(),
        ])
    }

    fn now_ms(&self) -> u64 {
        next_ms(&self.sim)
    }

    /// Run to `until_ms` inside the current window's timer.
    fn run_ms(&mut self, until_ms: u64) -> f64 {
        run_to_ms(&mut self.sim, until_ms)
    }

    /// Every subscriber joins a seeded random channel, staggered over the
    /// first 100 simulated ms from `t_ms`.
    fn schedule_joins(&mut self, t_ms: u64) {
        let n = self.subscribers.len() as u64;
        for i in 0..self.subscribers.len() {
            let c = self.rng.random_range(0..self.channels.len());
            self.membership[i] = Some(c);
            let at = SimTime(t_ms * 1000 + i as u64 * 100_000 / n);
            let action = HostAction::Subscribe {
                channel: self.channels[c],
                key: None,
            };
            ExpressHost::schedule(&mut self.sim, self.subscribers[i], at, action);
        }
    }

    fn schedule_leaves(&mut self, t_ms: u64) {
        let n = self.subscribers.len() as u64;
        for i in 0..self.subscribers.len() {
            if let Some(c) = self.membership[i].take() {
                let at = SimTime(t_ms * 1000 + i as u64 * 100_000 / n);
                let action = HostAction::Unsubscribe {
                    channel: self.channels[c],
                };
                ExpressHost::schedule(&mut self.sim, self.subscribers[i], at, action);
            }
        }
    }

    /// Schedule a membership burst (joins or leaves) now and run until it
    /// has settled, untimed: the transition between churn and fault windows.
    fn settle_with(&mut self, schedule: fn(&mut Self, u64)) {
        let t = self.now_ms();
        schedule(self, t);
        self.run_ms(t + 100 + SETTLE_MS);
    }

    fn members_of(&self, c: usize) -> Vec<NodeId> {
        let mut m: Vec<NodeId> = self
            .membership
            .iter()
            .zip(&self.subscribers)
            .filter(|(ch, _)| **ch == Some(c))
            .map(|(_, &h)| h)
            .collect();
        m.sort();
        m
    }

    fn source_of(&self, c: usize) -> NodeId {
        self.sources[c / (self.channels.len() / self.sources.len())]
    }

    /// Follow channel `c`'s FIB entries from the source's first-hop router
    /// down to hosts. Returns the hosts reached (sorted) or why the walk is
    /// not a tree.
    fn fib_walk(&mut self, c: usize) -> Result<Vec<NodeId>, String> {
        let chan = self.channels[c];
        let src = self.source_of(c);
        let first = self.sim.topology().neighbors(src)[0].1;
        let mut reached = Vec::new();
        let mut seen = vec![first];
        let mut stack = vec![first];
        while let Some(r) = stack.pop() {
            let mask = match self
                .sim
                .agent_as::<EcmpRouter>(r)
                .expect("router agent")
                .fib()
                .get(chan)
            {
                Some(e) => e.oif_mask(),
                None => continue,
            };
            for (iface, n) in self.sim.topology().neighbors(r) {
                if mask & (1 << iface.0) == 0 {
                    continue;
                }
                if seen.contains(&n) {
                    return Err(format!("{chan}: FIB walk reaches node {} twice", n.0));
                }
                seen.push(n);
                match self.sim.topology().kind(n) {
                    NodeKind::Host => reached.push(n),
                    NodeKind::Router => stack.push(n),
                }
            }
        }
        reached.sort();
        Ok(reached)
    }

    /// FIBs of channel `c` must reach exactly its members. Returns failed
    /// checks (0 or 1).
    fn check_channel(&mut self, c: usize, out: &mut Outcome, when: &str) -> u64 {
        let want = self.members_of(c);
        match self.fib_walk(c) {
            Ok(got) if got == want => 0,
            Ok(got) => {
                out.fail(
                    1,
                    format!(
                        "{when}: {} FIBs reach {} hosts, membership has {}",
                        self.channels[c],
                        got.len(),
                        want.len()
                    ),
                );
                1
            }
            Err(e) => {
                out.fail(1, format!("{when}: {e}"));
                1
            }
        }
    }

    fn total_fib_entries(&mut self) -> usize {
        let mut n = 0;
        for i in 0..self.routers.len() {
            let r = self.routers[i];
            n += self
                .sim
                .agent_as::<EcmpRouter>(r)
                .expect("router agent")
                .fib()
                .len();
        }
        n
    }

    /// One churn window. Returns (host seconds, membership changes).
    fn churn_window(&mut self, out: &mut Outcome, window: usize) -> (f64, u64) {
        let t = self.now_ms();
        let changes = 2 * self.subscribers.len() as u64;
        out.ops_attempted += changes;
        if self.traced {
            spans::window_begin("churn");
        }
        self.schedule_joins(t);
        let mut wall = self.run_ms(t + 100 + SETTLE_MS);

        // One source counts one of its channels.
        let c = self.rng.random_range(0..self.channels.len());
        let src = self.source_of(c);
        schedule_count_query(&mut self.sim, src, self.channels[c]);
        let tq = self.now_ms();
        wall += self.run_ms(tq + SETTLE_MS);

        // Checks at mid-window sit outside the timed segments.
        let truth = self.members_of(c).len() as u64;
        let answer = take_count_answer(&mut self.sim, src);
        out.ops_attempted += 1;
        match answer {
            Some(a) if a == truth => {}
            other => out.fail(1, format!("churn window {window}: CountQuery on {} answered {other:?}, membership is {truth}", self.channels[c])),
        }
        self.answers.push(answer.unwrap_or(u64::MAX));
        out.ops_attempted += 1;
        self.check_channel(c, out, &format!("churn window {window}, joined"));

        let tl = self.now_ms();
        self.schedule_leaves(tl);
        wall += self.run_ms(tl + 100 + SETTLE_MS);
        if self.traced {
            spans::window_end();
        }
        let left = self.total_fib_entries();
        if left != 0 {
            out.fail(
                left as u64,
                format!("churn window {window}: {left} FIB entries left after every host left"),
            );
        }
        (wall, changes)
    }

    /// A router–router *bridge* on the path from a seeded member of a seeded
    /// channel to its source: on that channel's tree by construction.
    fn pick_on_tree_link(&mut self) -> LinkId {
        loop {
            let i = self.rng.random_range(0..self.subscribers.len());
            let Some(c) = self.membership[i] else {
                continue;
            };
            let (from, to) = (self.subscribers[i], self.source_of(c));
            let (topo, routing) = self.sim.routing_mut();
            let Some(path) = routing.path(topo, from, to) else {
                continue;
            };
            // path = host, r1, …, rk, source: router–router hops are 1..k.
            let hops: Vec<(NodeId, NodeId)> = path[1..path.len() - 1]
                .windows(2)
                .map(|w| (w[0], w[1]))
                .collect();
            if hops.is_empty() {
                continue;
            }
            let (a, b) = hops[self.rng.random_range(0..hops.len())];
            let topo = self.sim.topology();
            let link = topo
                .links_of(a)
                .into_iter()
                .find(|&l| topo.link_endpoints(l).iter().any(|&(n, _)| n == b))
                .expect("adjacent routers share a link");
            // Bridges only (see the module docs): with the link gone, its
            // two ends must be disconnected.
            let mut cut = topo.clone();
            cut.set_link_up(link, false);
            if Routing::new().distance(&cut, a, b).is_none() {
                return link;
            }
        }
    }

    /// One fault window. Returns host seconds.
    fn fault_window(&mut self, out: &mut Outcome, window: usize) -> f64 {
        let link = self.pick_on_tree_link();
        let t = self.now_ms();
        self.sim
            .schedule_link_change(SimTime(t * 1000), link, false);
        self.sim
            .schedule_link_change(SimTime((t + 1000) * 1000), link, true);
        // Quiescence: the cut-off side orphans itself on the way down, the
        // back-off re-join (0.5 s, 1 s, …) and the 2 s hysteresis run out
        // after the link is back, then the re-join Counts settle.
        let wall = self.run_ms(t + 1000 + QUIESCE_MS);
        out.ops_attempted += self.channels.len() as u64;
        for c in 0..self.channels.len() {
            self.check_channel(c, out, &format!("fault window {window}"));
        }
        wall
    }
}

fn build(cfg: &Cfg, traced: bool) -> Isp {
    let sz = size(cfg);
    let allocs0 = hostctl::allocs();
    let t0 = Instant::now();
    let g = topogen::random_connected(
        sz.routers,
        sz.extra_edges,
        sz.hosts,
        LinkSpec::default(),
        cfg.seed,
    );
    let mut split = SetupSplit {
        nodes: g.topo.node_count(),
        topology_s: t0.elapsed().as_secs_f64(),
        ..SetupSplit::default()
    };
    let sources: Vec<NodeId> = g.hosts[..sz.sources].to_vec();
    let subscribers: Vec<NodeId> = g.hosts[sz.sources..].to_vec();
    let mut channels = Vec::new();
    for &s in &sources {
        for c in 0..sz.channels_per_source {
            channels.push(Channel::new(g.topo.ip(s), c as u32 + 1).expect("valid channel number"));
        }
    }
    let routers = g.routers;
    let hosts = g.hosts;
    let t0 = Instant::now();
    let mut sim = Sim::new(g.topo, cfg.seed);
    split.sim_new_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    // Probes off: the §5.3 ledger charges Count/CountQuery traffic only.
    let rcfg = RouterConfig {
        neighbor_probe: None,
        ..RouterConfig::default()
    };
    for &r in &routers {
        install(&mut sim, r, EcmpRouter::new(rcfg), Layer::Router, traced);
    }
    for &h in &hosts {
        install(&mut sim, h, ExpressHost::new(), Layer::Host, traced);
    }
    split.install_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    sim.start();
    split.start_s = t0.elapsed().as_secs_f64();
    let membership = vec![None; subscribers.len()];
    let mut w = Isp {
        sim,
        routers,
        sources,
        subscribers,
        channels,
        membership,
        rng: StdRng::seed_from_u64(cfg.seed ^ 0x15B),
        split,
        traced,
        answers: Vec::new(),
    };
    // Warm-up: one churn window computes every origin's routes once.
    let mut scratch = Outcome::default();
    w.churn_window(&mut scratch, 0);
    assert_eq!(
        scratch.ops_failed, 0,
        "warm-up churn window failed its checks: {:?}",
        scratch.failures
    );
    w.split.allocs = hostctl::allocs() - allocs0;
    w
}

impl Workload for Isp {
    const NAME: &'static str = "isp_churn_faults";

    fn setup(cfg: &Cfg, traced: bool) -> Self {
        build(cfg, traced)
    }

    fn split(&self) -> SetupSplit {
        self.split
    }

    fn setup_digest(&self) -> Digest {
        let mut d = Digest::default();
        d.put("nodes", self.sim.topology().node_count() as u64);
        d.put("links", self.sim.topology().link_count() as u64);
        d.put("channels", self.channels.len() as u64);
        self.counters().put(&mut d, "setup", &COUNTERS);
        d.put("setup.count_query_answer", self.answers[0]);
        d.put("setup.peak_queue_depth", self.sim.peak_queue_depth() as u64);
        d
    }

    fn measure(&mut self, cfg: &Cfg, budget_s: f64, rss: &mut PeakRss, out: &mut Outcome) {
        out.digest = self.setup_digest();
        let sz = size(cfg);
        let (mut churn, mut fault) = (Counters::ZERO, Counters::ZERO);
        let (mut wall_churn, mut changes, mut allocs_churn) = (0.0, 0u64, 0u64);
        let first_answer = self.answers.len();
        let mut clock = WindowClock::new(budget_s, sz.rounds);
        while clock.grant() {
            for _ in 0..sz.churn_per_round {
                let (before, a0) = (self.counters(), hostctl::allocs());
                let (s, n) = self.churn_window(out, out.ops_rates.len() + 1);
                churn.add_delta(&before, &self.counters());
                allocs_churn += hostctl::allocs() - a0;
                out.ops_rates.push(n as f64 / s);
                wall_churn += s;
                changes += n;
            }
            // The per-layer totals are about the churn windows: joins,
            // leaves and fault windows in between stay out of them.
            spans::pause(true);
            self.settle_with(Self::schedule_joins);
            for _ in 0..sz.faults_per_round {
                let before = self.counters();
                let s = self.fault_window(out, out.fault_ms.len() + 1);
                fault.add_delta(&before, &self.counters());
                out.fault_ms.push(s * 1e3);
            }
            self.settle_with(Self::schedule_leaves);
            spans::pause(false);
            rss.sample();
            if clock.done() == sz.rounds {
                // The pinned rounds end here: their sums are the digest.
                let (nc, nf) = (out.ops_rates.len(), out.fault_ms.len());
                churn.put(&mut out.digest, &format!("churn[{nc}]"), &COUNTERS);
                for (i, a) in self.answers[first_answer..].iter().enumerate() {
                    out.digest
                        .put(format!("churn[{nc}].count_query_answer.{i}"), *a);
                }
                fault.put(&mut out.digest, &format!("fault[{nf}]"), &COUNTERS);
                out.digest
                    .put("peak_queue_depth", self.sim.peak_queue_depth() as u64);
                out.layer(
                    "ctrl_msgs_per_change",
                    churn.0[COUNT_TX] as f64 / changes.max(1) as f64,
                );
                rss.pin();
            }
        }
        let faults = out.fault_ms.len() as f64;

        if !self.traced {
            return;
        }
        let ops = changes.max(1) as f64;
        let events = churn.0[EVENTS].max(1) as f64;
        let wall_ns = wall_churn * 1e9;
        let ns_per_op = wall_ns / ops;
        let (router_t, host_t) = (spans::totals(Layer::Router), spans::totals(Layer::Host));
        out.layer(
            "engine.self_share",
            1.0 - spans::est_non_engine_ns() / wall_ns,
        );
        out.layer("engine.events_per_op", events / ops);
        out.layer(
            "engine.peak_queue_depth",
            self.sim.peak_queue_depth() as f64,
        );
        out.layer("engine.allocs_per_event", allocs_churn as f64 / events);
        out.layer("router.on_packet_ns", router_t.mean_ns());
        out.layer("router.calls", router_t.calls as f64 / ops);
        out.layer("router.count_rx", churn.0[COUNT_RX] as f64 / ops);
        out.layer("router.count_tx", churn.0[COUNT_TX] as f64 / ops);
        out.layer("router.rehomes", fault.0[REHOMES] as f64 / faults);
        out.layer("host.on_packet_ns", host_t.mean_ns());
        out.layer("host.calls", host_t.calls as f64 / ops);
        let (computes, queries) = (
            churn.0[COMPUTES] + fault.0[COMPUTES],
            churn.0[QUERIES] + fault.0[QUERIES],
        );
        out.layer("routing.computes", computes as f64);
        out.layer("routing.queries", queries as f64);
        out.layer(
            "routing.hit_ratio",
            1.0 - computes as f64 / queries.max(1) as f64,
        );
        out.layer(
            "routing.computes_per_fault",
            fault.0[COMPUTES] as f64 / faults,
        );
        let compute_us =
            layers::routing_compute_us(self.sim.topology(), &self.routers, self.sources[0]);
        out.layer("routing.compute_us", compute_us);

        // Per-class counts and wheel gauges over two more churn windows.
        self.sim
            .enable_prof(ProfConfig::default().gauge_every(1024));
        let mut scratch = Outcome::default();
        let (s1, c1) = self.churn_window(&mut scratch, 0);
        let (s2, c2) = self.churn_window(&mut scratch, 0);
        if let Some(p) = self.sim.take_prof() {
            layers::prof_layers(&p.report(), (c1 + c2) as f64, s1 + s2, out);
        }

        // The ledger, per membership change.
        let pkt: netsim::Payload =
            express::packets::channel_data(self.channels[0], 100, express::packets::DEFAULT_TTL)
                .into();
        let costs = layers::isolated_costs(&pkt, self.sim.topology().link_count(), out);
        let rx_per_op = (router_t.packet_calls + host_t.packet_calls) as f64 / ops;
        let tx_per_op = churn.0[CTL_PKTS] as f64 / ops;
        let computes_per_op = churn.0[COMPUTES] as f64 / ops;
        let explained = (costs.classify_ns + costs.ecmp_parse_ns) * rx_per_op
            + costs.ecmp_emit_ns * tx_per_op
            + costs.wheel_ns * (events / ops)
            + compute_us * 1e3 * computes_per_op;
        out.layer("budget.explained_share", explained / ns_per_op);
        out.layer("budget.residual_share", 1.0 - explained / ns_per_op);
    }

    fn expected(cfg: &Cfg) -> Option<&'static str> {
        // The graph itself is seeded, so only the default seed is pinned;
        // every other seed relies on the set-up passes agreeing.
        (cfg.seed == DEFAULT_SEED).then_some(if cfg.check {
            include_str!("../../expected/isp_churn_faults.check.digest")
        } else {
            include_str!("../../expected/isp_churn_faults.full.digest")
        })
    }
}
