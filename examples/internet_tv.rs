//! Internet TV: the paper's motivating "sports-tv.net" application (§1).
//!
//! A content provider runs an authenticated channel (only paying viewers
//! hold the key), streams video, polls the audience with an
//! application-defined vote, and — crucially — a third party who blasts
//! traffic at the same group address is counted-and-dropped at its first
//! hop, never reaching a single viewer (§1 problem 3 / §3.4).
//!
//! Run with: `cargo run --example internet_tv`

use express::host::{ExpressHost, HostAction, HostEvent};
use express::router::EcmpRouter;
use express_wire::addr::Channel;
use express_wire::ecmp::CountId;
use netsim::time::{SimDuration, SimTime};
use netsim::topogen;
use netsim::topology::LinkSpec;
use netsim::NodeKind;

const SUBSCRIPTION_KEY: u64 = 0x5EA5_0000_1234_5678;

fn at_ms(ms: u64) -> SimTime {
    SimTime(ms * 1000)
}

fn main() {
    // An ISP-like network: 4 transit routers, stubs, and LAN-attached
    // viewers.
    let g = topogen::transit_stub(4, 2, 3, LinkSpec::wan(2), LinkSpec::default());
    let mut sim = netsim::Sim::new(g.topo.clone(), 2026);
    for node in g.topo.node_ids() {
        match g.topo.kind(node) {
            NodeKind::Router => sim.set_agent(node, Box::new(EcmpRouter::new(Default::default()))),
            NodeKind::Host => sim.set_agent(node, Box::new(ExpressHost::new())),
        }
    }

    let station = g.hosts[0];
    let viewers = &g.hosts[1..20];
    let pirate = g.hosts[20];

    let station_ip = sim.topology().ip(station);
    let channel = Channel::new(station_ip, 100).unwrap();
    println!("sports-tv.net broadcasting on {channel}");

    // The station restricts the channel: channelKey(channel, K) (§2.1).
    ExpressHost::schedule(
        &mut sim,
        station,
        at_ms(1),
        HostAction::InstallKey { channel, key: SUBSCRIPTION_KEY },
    );

    // Paying viewers subscribe with the key; one freeloader tries without.
    for &v in viewers {
        ExpressHost::schedule(
            &mut sim,
            v,
            at_ms(10),
            HostAction::Subscribe { channel, key: Some(SUBSCRIPTION_KEY) },
        );
    }
    ExpressHost::schedule(&mut sim, pirate, at_ms(10), HostAction::Subscribe { channel, key: Some(0xBAD) });

    // The game: 4 Mb/s MPEG-2 ≈ 350 × 1400-byte packets/s; we send a
    // 1-second highlight at 1/10 scale.
    for i in 0..35 {
        ExpressHost::schedule(
            &mut sim,
            station,
            at_ms(1_000 + i * 30),
            HostAction::SendData { channel, payload_len: 1400 },
        );
    }

    // The touchdown moment: the pirate blasts its own stream at the same
    // group address E.
    let pirate_ip = sim.topology().ip(pirate);
    let rogue_channel = Channel::new(pirate_ip, 100).unwrap(); // same E!
    for i in 0..35 {
        ExpressHost::schedule(
            &mut sim,
            pirate,
            at_ms(1_000 + i * 30),
            HostAction::SendData { channel: rogue_channel, payload_len: 1400 },
        );
    }

    // Half-time poll (§2.2.1): "replay that? 1=yes". Viewers vote.
    let poll_id = CountId(CountId::APPLICATION_BASE + 1);
    for (i, &v) in viewers.iter().enumerate() {
        ExpressHost::schedule(
            &mut sim,
            v,
            at_ms(2_500),
            HostAction::SetAppValue { count_id: poll_id, value: u64::from(i % 3 != 0) },
        );
    }
    ExpressHost::schedule(
        &mut sim,
        station,
        at_ms(3_000),
        HostAction::CountQuery { channel, count_id: poll_id, timeout: SimDuration::from_secs(10) },
    );
    // And the subscriber count the ISP bills by (§2.2.3).
    ExpressHost::schedule(
        &mut sim,
        station,
        at_ms(3_000),
        HostAction::CountQuery {
            channel,
            count_id: CountId::SUBSCRIBERS,
            timeout: SimDuration::from_secs(10),
        },
    );

    sim.run_until(at_ms(30_000));

    // Results.
    let delivered: usize = viewers
        .iter()
        .map(|&v| sim.agent_as::<ExpressHost>(v).unwrap().data_received(channel))
        .sum();
    println!("video packets delivered to paying viewers: {delivered} (19 viewers x 35 packets)");

    let pirate_host = sim.agent_as::<ExpressHost>(pirate).unwrap();
    let denied = pirate_host
        .events
        .iter()
        .any(|e| matches!(e, HostEvent::SubscriptionResult { ok: false, .. }));
    println!("freeloader's keyless subscription denied: {denied}");

    let rogue_delivered: usize = viewers
        .iter()
        .map(|&v| sim.agent_as::<ExpressHost>(v).unwrap().data_received(rogue_channel))
        .sum();
    let rogue_dropped: u64 = g
        .routers
        .iter()
        .map(|&r| sim.agent_as::<EcmpRouter>(r).unwrap().counters().data_no_entry)
        .sum();
    println!("pirate packets reaching any viewer: {rogue_delivered}");
    println!("pirate packets counted-and-dropped at the first hop: {rogue_dropped}");

    let station_host = sim.agent_as::<ExpressHost>(station).unwrap();
    for (_, _, id, count) in station_host.count_results() {
        if id == poll_id {
            println!("half-time poll result: {count} of 19 voted to replay");
        } else if id == CountId::SUBSCRIBERS {
            println!("subscriber count (what the ISP bills by): {count}");
        }
    }
}
