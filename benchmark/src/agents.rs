//! The benchmark's own traffic agents for the FIB-seeded data workloads: a
//! source that sends one pre-built packet per timer fire, and a receiver
//! doing per-channel delivery accounting (the §5.3 charging story at the
//! edge). They mirror the agents `bench_scale` uses, which are private to
//! that binary.

use express::packets;
use express_wire::addr::Channel;
use netsim::engine::{Reliability, Tx};
use netsim::stats::TrafficClass;
use netsim::{Agent, CounterId, Ctx, HotPacketFn, IfaceId, Payload};
use std::any::Any;

/// Sends one shared pre-built channel-data packet out interface 0 per timer
/// fire — by refcount bump, so the source adds no steady-state allocations.
pub struct Blaster {
    pkt: Payload,
}

impl Blaster {
    /// A source for `chan` sending `payload_len`-octet packets.
    pub fn new(chan: Channel, payload_len: usize) -> Self {
        Blaster {
            pkt: packets::channel_data(chan, payload_len, packets::DEFAULT_TTL).into(),
        }
    }
}

impl Agent for Blaster {
    fn kind_name(&self) -> &'static str {
        "blaster"
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send_shared(
            IfaceId(0),
            self.pkt.clone(),
            TrafficClass::Data,
            Reliability::Datagram,
            Tx::AllOnLink,
        );
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A receiver bumping three interned counters per delivery: total packets,
/// per-channel packets, per-channel octets.
#[derive(Default)]
pub struct AccountingSink {
    data_rx: Option<CounterId>,
    chan_ids: Option<(Channel, CounterId, CounterId)>,
}

impl Agent for AccountingSink {
    fn kind_name(&self) -> &'static str {
        "accounting_sink"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.data_rx = Some(ctx.counter("sink.data_rx"));
    }
    fn hot_packet_fn(&self) -> Option<HotPacketFn> {
        Some(netsim::hot_packet_stub::<Self>())
    }
    fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        _iface: IfaceId,
        bytes: &Payload,
        _class: TrafficClass,
    ) {
        let me = ctx.my_ip();
        if let Ok(packets::Classified::ChannelData { channel, header }) =
            packets::classify(bytes, me)
        {
            match self.data_rx {
                Some(id) => ctx.count_id(id, 1),
                None => ctx.count("sink.data_rx", 1),
            }
            let (pkts, octets) = match self.chan_ids {
                Some((c, p, b)) if c == channel => (p, b),
                _ => {
                    let p = ctx.channel_counter("sink.rx_pkts", channel);
                    let b = ctx.channel_counter("sink.rx_bytes", channel);
                    self.chan_ids = Some((channel, p, b));
                    (p, b)
                }
            };
            ctx.count_id(pkts, 1);
            ctx.count_id(octets, header.payload_len as u64);
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
