//! Generic counting aggregation (paper §3.1), as pure protocol logic.
//!
//! When a router forwards a `CountQuery` downstream it "creates a record
//! for this query for each downstream neighbor on the specified channel,
//! decrements the timeout value by a small multiple of the measured
//! round-trip time to its upstream neighbor and forwards the request...
//! Once Counts are received from all neighbors, or after the timeout
//! specified in the original query, the counts are summed and the total is
//! sent upstream." [`PendingCount`] is that record set; the router agent
//! drives it from packets and timers.

use crate::table::{InlineSet, Keyed};
use express_wire::addr::Ipv4Addr;
use netsim::time::SimDuration;

/// Where the aggregated result should go when this node finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyTo {
    /// Send a `Count` to the upstream neighbor that forwarded the query.
    Upstream(Ipv4Addr),
    /// Deliver locally — this node initiated the query (a source host, or a
    /// router doing §3.1's router-initiated network-layer counting).
    Local,
}

/// One awaited neighbor and the value received from it (`None` until its
/// Count arrives).
#[derive(Debug, Clone, Copy)]
struct Awaited {
    neighbor: Ipv4Addr,
    value: Option<u64>,
}

impl Keyed for Awaited {
    type Key = Ipv4Addr;

    fn key(&self) -> Ipv4Addr {
        self.neighbor
    }
}

/// Aggregation state for one outstanding (channel, countId) query at one
/// node.
#[derive(Debug, Clone)]
pub struct PendingCount {
    /// Neighbors the query went to, by address.
    awaiting: InlineSet<Awaited>,
    /// This node's own contribution (e.g. local subscriber count, or 1 per
    /// downstream link for the `links` count).
    local_contribution: u64,
    /// Where to send the total.
    pub reply_to: ReplyTo,
    /// Monotone instance id so stale timers for a replaced query are
    /// ignored (lazy cancellation).
    pub generation: u64,
}

impl PendingCount {
    /// Create a record awaiting the given downstream neighbors.
    pub fn new(
        neighbors: impl IntoIterator<Item = Ipv4Addr>,
        local_contribution: u64,
        reply_to: ReplyTo,
        generation: u64,
    ) -> Self {
        let mut awaiting = InlineSet::new();
        for neighbor in neighbors {
            awaiting.insert(Awaited { neighbor, value: None });
        }
        PendingCount {
            awaiting,
            local_contribution,
            reply_to,
            generation,
        }
    }

    /// Record a Count from `neighbor`; returns `false` if the neighbor was
    /// not expected (late, duplicate from an unknown party).
    /// A duplicate from an expected neighbor overwrites (last wins).
    pub fn record(&mut self, neighbor: Ipv4Addr, value: u64) -> bool {
        match self.awaiting.get_mut(neighbor) {
            Some(awaited) => {
                awaited.value = Some(value);
                true
            }
            None => false,
        }
    }

    /// Have all awaited neighbors answered?
    pub fn complete(&self) -> bool {
        self.awaiting.iter().all(|a| a.value.is_some())
    }

    /// The (possibly partial) total: local contribution plus every received
    /// value. This is what goes upstream on completion *or* deadline —
    /// "a router that fails to get a response from one of its children
    /// times out and sends a partial reply to its parent".
    pub fn total(&self) -> u64 {
        self.local_contribution + self.awaiting.iter().filter_map(|a| a.value).sum::<u64>()
    }
}

/// The per-hop timeout decrement of §3.1: shrink the remaining budget by a
/// small multiple of the upstream RTT so children time out before parents.
/// Never goes below a floor that still lets the immediate hop answer.
pub fn decrement_timeout(remaining: SimDuration, hop_decrement: SimDuration) -> SimDuration {
    const FLOOR: SimDuration = SimDuration::from_millis(10);
    let dec = remaining.saturating_sub(hop_decrement);
    if dec < FLOOR {
        FLOOR
    } else {
        dec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    #[test]
    fn aggregates_when_all_answer() {
        let mut p = PendingCount::new([ip(1), ip(2)], 5, ReplyTo::Local, 0);
        assert!(!p.complete());
        assert!(p.record(ip(1), 10));
        assert!(!p.complete());
        assert!(p.record(ip(2), 20));
        assert!(p.complete());
        assert_eq!(p.total(), 35);
    }

    #[test]
    fn partial_total_on_timeout() {
        let mut p = PendingCount::new([ip(1), ip(2), ip(3)], 0, ReplyTo::Upstream(ip(9)), 1);
        p.record(ip(2), 7);
        // Deadline fires with one of three answers: partial reply is 7.
        assert_eq!(p.total(), 7);
        assert!(!p.complete());
    }

    #[test]
    fn unexpected_neighbor_rejected() {
        let mut p = PendingCount::new([ip(1)], 0, ReplyTo::Local, 0);
        assert!(!p.record(ip(99), 1));
        assert_eq!(p.total(), 0);
    }

    #[test]
    fn duplicate_overwrites() {
        let mut p = PendingCount::new([ip(1)], 0, ReplyTo::Local, 0);
        p.record(ip(1), 3);
        p.record(ip(1), 4);
        assert_eq!(p.total(), 4);
        assert!(p.complete());
    }

    #[test]
    fn no_neighbors_is_immediately_complete() {
        let p = PendingCount::new([], 11, ReplyTo::Local, 0);
        assert!(p.complete());
        assert_eq!(p.total(), 11);
    }

    #[test]
    fn timeout_decrement_has_floor() {
        let d = decrement_timeout(SimDuration::from_millis(100), SimDuration::from_millis(30));
        assert_eq!(d, SimDuration::from_millis(70));
        let d = decrement_timeout(SimDuration::from_millis(15), SimDuration::from_millis(30));
        assert_eq!(d, SimDuration::from_millis(10));
    }
}
