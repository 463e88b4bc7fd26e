//! setup_rss — what each step of standing up the §5.3 tree leaves resident:
//! the growth of the process's `VmRSS` over the topology, `Sim::new`, the
//! routers, the sinks and the first packet's wave, on `kary_tree(2, 20)`
//! with every router FIB-seeded the way the benchmark's `tree_1m_data`
//! seeds it.
//!
//! ```text
//! setup_rss        one pass, one line per step (MiB); reads /proc/self/status
//! ```
//!
//! The sinks here count into one `u64` (a 16 B pool row); the benchmark's
//! accounting sinks have 24 B rows, so its sink step reads 8 MiB more.

use express::packets;
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use express_wire::fib::FibEntry;
use netsim::engine::{Reliability, Tx};
use netsim::stats::TrafficClass;
use netsim::time::SimTime;
use netsim::topogen;
use netsim::topology::LinkSpec;
use netsim::{Agent, Ctx, IfaceId, Payload, Sim};

/// Sends its one channel-data packet out interface 0 on a timer.
struct Source {
    pkt: Payload,
}

impl Agent for Source {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send_shared(IfaceId(0), self.pkt.clone(), TrafficClass::Data, Reliability::Datagram, Tx::AllOnLink);
    }
}

/// Counts what it receives, in its row.
#[derive(Default)]
struct Sink {
    got: u64,
}

impl Agent for Sink {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _bytes: &Payload, _class: TrafficClass) {
        self.got += 1;
    }
}

/// The process's resident set, MiB.
fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status (Linux only)");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("a VmRSS line");
    let kb: f64 = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("VmRSS in kB");
    kb / 1024.0
}

fn main() {
    const DEPTH: usize = 20;
    let mut last = rss_mib();
    let mut step = |name: &str| {
        let now = rss_mib();
        println!("{name:<12} {:>7.1} MiB   (resident {now:.1})", now - last);
        last = now;
    };
    let g = topogen::kary_tree(2, DEPTH, LinkSpec::default());
    step("topology");
    let (src, sinks) = (g.hosts[0], &g.hosts[1..]);
    let chan = Channel::new(g.topo.ip(src), 1).expect("valid channel");
    let mut sim = Sim::new(g.topo, 1);
    step("Sim::new");
    let cfg = RouterConfig { neighbor_probe: None, boot_query: false, ..RouterConfig::default() };
    for &r in &g.routers {
        let mut router = EcmpRouter::new(cfg);
        let ifaces = sim.topology().iface_count(r) as u32;
        router.install_static_route(FibEntry::new(chan, 0, ((1u32 << ifaces) - 1) & !1).expect("valid FIB entry"));
        sim.set_agent(r, Box::new(router));
    }
    step("routers");
    for &s in sinks {
        sim.set_agent(s, Box::<Sink>::default());
    }
    sim.set_agent(src, Box::new(Source { pkt: packets::channel_data(chan, 100, 64).into() }));
    step("sinks");
    sim.schedule_timer_at(src, SimTime(1_000), 0);
    sim.run();
    step("first wave");
    let got: u64 = sinks.iter().map(|&s| sim.agent_as::<Sink>(s).expect("a sink").got).sum();
    assert_eq!(got, sinks.len() as u64, "every sink got the packet");
}
