//! Shared scenario builders for the figure/table binaries: EXPRESS
//! networks, subscriber workloads, the §6 proactive counting scenario,
//! and small table-printing helpers.

use express::host::{ExpressHost, HostAction};
use express::proactive::ErrorToleranceCurve;
use express::router::{EcmpRouter, RouterConfig};
use express_wire::addr::Channel;
use express_wire::ecmp::CountId;
use netsim::id::NodeId;
use netsim::time::{SimDuration, SimTime};
use netsim::topogen::GenTopo;
use netsim::{NodeKind, Sim};

/// Attach ECMP routers and EXPRESS hosts to a generated topology.
///
/// Neighbor-discovery probes are disabled: the paper's §5.3 accounting
/// charges Count/CountQuery traffic only (PIM Hellos are likewise not
/// charged to the baselines), so experiment harnesses keep liveness probes
/// out of the control-message ledgers. Tests that exercise discovery
/// enable it explicitly.
pub fn express_sim(g: &GenTopo, seed: u64) -> Sim {
    express_sim_cfg(
        g,
        seed,
        RouterConfig {
            neighbor_probe: None,
            ..Default::default()
        },
    )
}

/// Like [`express_sim`] with a custom router configuration.
pub fn express_sim_cfg(g: &GenTopo, seed: u64, cfg: RouterConfig) -> Sim {
    let mut sim = Sim::new(g.topo.clone(), seed);
    for node in g.topo.node_ids() {
        match g.topo.kind(node) {
            NodeKind::Router => sim.set_agent(node, Box::new(EcmpRouter::new(cfg))),
            NodeKind::Host => sim.set_agent(node, Box::new(ExpressHost::new())),
        }
    }
    sim
}

/// Milliseconds → absolute sim time.
pub fn at_ms(ms: u64) -> SimTime {
    SimTime(ms * 1000)
}

/// Seconds → absolute sim time.
pub fn at_s(s: f64) -> SimTime {
    SimTime((s * 1e6) as u64)
}

/// Subscribe every host in `subs` to `chan` at `at`.
pub fn subscribe_all(sim: &mut Sim, subs: &[NodeId], chan: Channel, at: SimTime) {
    for &h in subs {
        ExpressHost::schedule(sim, h, at, HostAction::Subscribe { channel: chan, key: None });
    }
}

/// Sum of FIB entries across `routers`.
pub fn total_fib_entries(sim: &mut Sim, routers: &[NodeId]) -> usize {
    routers
        .iter()
        .map(|&r| sim.agent_as::<EcmpRouter>(r).unwrap().fib().len())
        .sum()
}

/// The §6 / Figure 8 workload: subscription times for ~250 subscribers —
/// "an initial burst of subscriptions at time 0, followed by slow
/// subscriptions until time 200, a burst of subscriptions at time 200,
/// then no activity until time 300, when all hosts unsubscribe quickly."
///
/// Returns `(subscribe_times, unsubscribe_times)` aligned with the hosts
/// passed in (seconds).
pub fn fig8_schedule(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n >= 10);
    let burst1 = n * 2 / 5; // 40% at t≈0
    let slow = n / 5; // 20% trickling in (10, 195)
    let burst2 = n - burst1 - slow; // 40% at t≈200
    let mut subs = Vec::with_capacity(n);
    for i in 0..burst1 {
        subs.push(0.05 + i as f64 * 5.0 / burst1 as f64);
    }
    for i in 0..slow {
        subs.push(10.0 + i as f64 * 185.0 / slow as f64);
    }
    for i in 0..burst2 {
        subs.push(200.0 + i as f64 * 5.0 / burst2 as f64);
    }
    let unsubs: Vec<f64> = (0..n).map(|i| 300.0 + i as f64 * 5.0 / n as f64).collect();
    (subs, unsubs)
}

/// Result of one Figure-8 run.
pub struct Fig8Run {
    /// (t, actual subscriber count) step series from the workload.
    pub actual: Vec<(f64, u64)>,
    /// (t, estimated size at the root/source) series.
    pub estimated: Vec<(f64, u64)>,
    /// (t, cumulative Count messages delivered to the source) series.
    pub messages: Vec<(f64, u64)>,
}

/// Run the Figure-8 proactive-counting scenario with the given curve on a
/// 4-ary tree of depth `depth` (the paper notes tree depth drives
/// convergence time; depth 4 ⇒ 256 leaf routers).
pub fn fig8_run(n_subs: usize, alpha: f64, tau_secs: f64, depth: usize, seed: u64) -> Fig8Run {
    let g = netsim::topogen::kary_tree(4, depth, netsim::topology::LinkSpec::default());
    assert!(
        g.hosts.len() > n_subs,
        "need {n_subs} leaf hosts, have {}",
        g.hosts.len() - 1
    );
    let mut sim = express_sim(&g, seed);
    let src = g.hosts[0];
    let chan = Channel::new(sim.topology().ip(src), 1).unwrap();

    ExpressHost::schedule(
        &mut sim,
        src,
        SimTime(1),
        HostAction::EnableProactive {
            channel: chan,
            count_id: CountId::SUBSCRIBERS,
            curve: ErrorToleranceCurve::new(alpha, tau_secs),
        },
    );

    let (subs, unsubs) = fig8_schedule(n_subs);
    let mut actual_events: Vec<(f64, i64)> = Vec::new();
    for (i, (&ts, &tu)) in subs.iter().zip(&unsubs).enumerate() {
        let h = g.hosts[1 + i];
        ExpressHost::schedule(&mut sim, h, at_s(ts), HostAction::Subscribe { channel: chan, key: None });
        ExpressHost::schedule(&mut sim, h, at_s(tu), HostAction::Unsubscribe { channel: chan });
        actual_events.push((ts, 1));
        actual_events.push((tu, -1));
    }
    actual_events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let mut actual = Vec::with_capacity(actual_events.len());
    let mut count = 0i64;
    for (t, d) in actual_events {
        count += d;
        actual.push((t, count as u64));
    }

    // Run well past unsubscription + tau so the final zero propagates.
    sim.run_until(at_s(300.0 + 2.0 * tau_secs + 40.0));

    let host = sim.agent_as::<ExpressHost>(src).unwrap();
    let series = host.estimate_series(chan);
    let estimated: Vec<(f64, u64)> = series.iter().map(|(t, c)| (t.secs_f64(), *c)).collect();
    let messages: Vec<(f64, u64)> = series
        .iter()
        .enumerate()
        .map(|(i, (t, _))| (t.secs_f64(), (i + 1) as u64))
        .collect();
    Fig8Run {
        actual,
        estimated,
        messages,
    }
}

/// The value of a step series at time `t`.
pub fn series_at(series: &[(f64, u64)], t: f64) -> u64 {
    series
        .iter()
        .take_while(|(st, _)| *st <= t)
        .last()
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// One chart series: legend name, plot glyph, and the step series itself.
pub type ChartSeries<'a> = (&'a str, char, &'a [(f64, u64)]);

/// Render a step series as a rough ASCII chart: `height` rows, one column
/// per `t_step` seconds over [0, t_max]. Multiple series share the frame,
/// each drawn with its own glyph.
pub fn ascii_chart(series: &[ChartSeries<'_>], t_max: f64, t_step: f64, height: usize) {
    let cols = (t_max / t_step) as usize + 1;
    let y_max = series
        .iter()
        .flat_map(|(_, _, s)| s.iter().map(|(_, v)| *v))
        .max()
        .unwrap_or(1)
        .max(1);
    let mut grid = vec![vec![' '; cols]; height];
    for (_, glyph, s) in series {
        for (c, t) in (0..cols).map(|c| (c, c as f64 * t_step)) {
            let v = series_at(s, t);
            let r = ((v as f64 / y_max as f64) * (height - 1) as f64).round() as usize;
            let row = height - 1 - r.min(height - 1);
            grid[row][c] = *glyph;
        }
    }
    println!("  {y_max:>5} +{}", "-".repeat(cols));
    for (i, row) in grid.iter().enumerate() {
        let label = if i == height - 1 { "0".to_string() } else { String::new() };
        println!("  {label:>5} |{}", row.iter().collect::<String>());
    }
    println!("        0{}{}s", " ".repeat(cols.saturating_sub(5)), t_max as u64);
    for (name, glyph, _) in series {
        println!("        {glyph} = {name}");
    }
}

/// Format a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Print a table header + separator.
pub fn header(names: &[&str], widths: &[usize]) {
    println!(
        "{}",
        row(&names.iter().map(|s| s.to_string()).collect::<Vec<_>>(), widths)
    );
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
}

/// The §5.3-style core-router churn measurement setup.
pub struct ChurnSetup {
    /// The simulation, fully scheduled (not yet run).
    pub sim: Sim,
    /// The single core router every event traverses.
    pub core: NodeId,
    /// When the last event fires.
    pub end: SimTime,
}

/// Build the §5.3 measurement: a core router with `n_neighbors` neighbor
/// subtrees "continuously sending subscribe and unsubscribe events" across
/// `n_channels` channels sourced beyond the core, spread over a 10 s
/// simulated window.
pub fn churn_setup(n_neighbors: usize, n_channels: usize, seed: u64) -> ChurnSetup {
    use netsim::topology::{LinkSpec, Topology};
    let mut t = Topology::new();
    let core = t.add_router();
    let src_router = t.add_router();
    t.connect(core, src_router, LinkSpec::default()).unwrap();
    let src = t.add_host();
    t.connect(src, src_router, LinkSpec::default()).unwrap();
    let mut routers = vec![core, src_router];
    let mut hosts = Vec::new();
    for _ in 0..n_neighbors {
        let edge = t.add_router();
        t.connect(core, edge, LinkSpec::default()).unwrap();
        routers.push(edge);
        let h = t.add_host();
        t.connect(h, edge, LinkSpec::default()).unwrap();
        hosts.push(h);
    }
    let g = GenTopo {
        topo: t,
        routers,
        hosts: vec![src],
    };
    let mut sim = express_sim(&g, seed);
    for &h in &hosts {
        sim.set_agent(h, Box::new(ExpressHost::new()));
    }
    let src_ip = sim.topology().ip(src);
    let window_us = 10_000_000u64;
    let n_events = (n_channels * 2).max(1);
    let step = (window_us / n_events as u64).max(1);
    let mut at = SimTime(1000);
    for c in 0..n_channels {
        let chan = Channel::new(src_ip, c as u32).unwrap();
        let h = hosts[c % hosts.len()];
        ExpressHost::schedule(&mut sim, h, at, HostAction::Subscribe { channel: chan, key: None });
        at += SimDuration::from_micros(step);
        ExpressHost::schedule(&mut sim, h, at, HostAction::Unsubscribe { channel: chan });
        at += SimDuration::from_micros(step);
    }
    ChurnSetup {
        sim,
        core,
        end: at + SimDuration::from_secs(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_schedule_shape() {
        let (subs, unsubs) = fig8_schedule(250);
        assert_eq!(subs.len(), 250);
        assert_eq!(unsubs.len(), 250);
        // Bursts land where the paper's scenario puts them.
        assert!(subs.iter().filter(|t| **t <= 5.0).count() >= 90);
        assert!(subs.iter().filter(|t| (200.0..=205.0).contains(*t)).count() >= 90);
        assert!(unsubs.iter().all(|t| (300.0..=305.0).contains(t)));
    }

    #[test]
    fn series_lookup() {
        let s = vec![(0.0, 1), (10.0, 5), (20.0, 2)];
        assert_eq!(series_at(&s, -1.0), 0);
        assert_eq!(series_at(&s, 5.0), 1);
        assert_eq!(series_at(&s, 15.0), 5);
        assert_eq!(series_at(&s, 100.0), 2);
    }

    #[test]
    fn churn_setup_runs_and_processes_all_events() {
        let mut c = churn_setup(8, 50, 3);
        let end = c.end;
        c.sim.run_until(end);
        let core = c.sim.agent_as::<EcmpRouter>(c.core).unwrap();
        // Every subscribe and unsubscribe crossed the core.
        assert_eq!(core.counters().subscribes, 50);
        assert_eq!(core.counters().unsubscribes, 50);
        assert_eq!(core.fib().len(), 0, "all channels torn down");
    }
}
