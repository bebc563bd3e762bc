//! Network-coupled biological simulation — the full Appendix A system.
//!
//! The fitness problem in [`crate::problem`] integrates the biological
//! process at the target station using the forcings the hydrological
//! process already routed there (the paper's experimental setup: "as we
//! focus on modeling the biological process, we use a static hydrological
//! process"). This module implements the *full* coupled system the appendix
//! describes: each station carries its own `(B_Phy, B_Zoo)` state; every
//! day, upstream water bodies arrive after their travel delay, are merged
//! with the locally retained water by flow weight (biomass included), and
//! the biological process then advances the merged water body one step
//! using the station's local forcings.
//!
//! This is the component a downstream user needs to predict water quality
//! at *every* station simultaneously, or to study how a bloom propagates
//! down the main channel.

use crate::problem::euler_step;
use gmr_expr::{CompiledSystem, Expr, Tier};
use gmr_hydro::data::{RiverDataset, Split};
use gmr_hydro::network::RiverNetwork;
use gmr_hydro::NUM_VARS;

/// Options for the coupled simulation.
#[derive(Debug, Clone, Copy)]
pub struct NetworkSimOptions {
    /// Initial `(B_Phy, B_Zoo)` at every station.
    pub init: (f64, f64),
    /// Euler step (days).
    pub dt: f64,
    /// Upper clamp on both states.
    pub state_cap: f64,
}

impl Default for NetworkSimOptions {
    fn default() -> Self {
        NetworkSimOptions {
            init: (8.0, 1.2),
            dt: 1.0,
            state_cap: 1e9,
        }
    }
}

/// Result of a coupled run: per-station biomass series.
#[derive(Debug, Clone)]
pub struct NetworkSimResult {
    /// `bphy[station][day]`.
    pub bphy: Vec<Vec<f64>>,
    /// `bzoo[station][day]`.
    pub bzoo: Vec<Vec<f64>>,
}

impl NetworkSimResult {
    /// Predicted phytoplankton at one station.
    pub fn phytoplankton(&self, station: usize) -> &[f64] {
        &self.bphy[station]
    }
}

/// One station's input series for [`simulate_network_compiled`]: the
/// forcing rows the equations read and the flow series the routing
/// weights come from. Both are *absolute* series — the simulated window
/// is selected by the `start`/`days` arguments, and flows are indexed by
/// absolute day so lagged upstream reads can reach before the window.
#[derive(Debug, Clone, Copy)]
pub struct StationSeries<'a> {
    /// Forcing rows, `vars[abs_day]` (Table IV layout).
    pub vars: &'a [[f64; NUM_VARS]],
    /// Daily flow, `flow[abs_day]`.
    pub flow: &'a [f64],
}

/// Simulate a two-equation biological system over every station of the
/// dataset's network for the given split, with flow-weighted biomass
/// routing between stations (Appendix A).
///
/// The equations see each station's own forcing rows; biomass mixes at
/// confluences exactly like the water bodies that carry it.
pub fn simulate_network(
    ds: &RiverDataset,
    split: Split,
    eqs: &[Expr; 2],
    opts: NetworkSimOptions,
) -> NetworkSimResult {
    // One optimized system shared by every station, checked against the
    // forcing/state arities up front (an out-of-range index is a compile
    // error here, not a silent zero mid-simulation).
    let sys = {
        let _sp = gmr_obsv::span_fine!("vm.compile", 2);
        CompiledSystem::compile_checked(eqs, NUM_VARS, 2, Tier::Threaded)
            .expect("network equations reference indices outside the name table")
    };
    let series: Vec<StationSeries<'_>> = ds
        .stations
        .iter()
        .map(|st| StationSeries {
            vars: &st.vars,
            flow: &st.flow,
        })
        .collect();
    simulate_network_compiled(&ds.network, &series, split.start, split.len(), &sys, opts)
}

/// [`simulate_network`] with the forcings and compiled system supplied by
/// the caller instead of a [`RiverDataset`] — the entry point the serving
/// stack uses, where the system is compiled once per artifact and the
/// forcing tables arrive over the wire (or are hosted server-side). Given
/// the same series a dataset would provide, trajectories are bit-identical
/// to [`simulate_network`].
pub fn simulate_network_compiled(
    net: &RiverNetwork,
    stations: &[StationSeries<'_>],
    start: usize,
    days: usize,
    sys: &CompiledSystem,
    opts: NetworkSimOptions,
) -> NetworkSimResult {
    let n = net.len();
    assert_eq!(stations.len(), n, "one series per station");
    for (s, st) in stations.iter().enumerate() {
        assert!(
            st.vars.len() >= start + days && st.flow.len() >= start + days,
            "station {s} series shorter than start+days"
        );
    }
    let _sp = gmr_obsv::span!("netsim.simulate", days as u64);
    // One register-VM session per station over that station's forcing rows
    // — each station gets its own columnar prefix sweep and scratch
    // registers.
    let mut sessions: Vec<_> = (0..n)
        .map(|s| sys.session(&stations[s].vars[start..start + days]))
        .collect();
    let mut deriv = [0.0f64; 2];

    // Per-station integration time, accumulated across the day loop and
    // emitted as one `netsim.station` span per station at the end — the
    // day-major loop visits each station `days` times, so scoped spans
    // would be per-step volume. Fine detail only: the inner-loop clock
    // reads are exactly the cost coarse runs must not pay.
    let timing = gmr_obsv::enabled() && gmr_obsv::span::detail() == gmr_obsv::Detail::Fine;
    let sim_start_us = gmr_obsv::now_us();
    let mut station_ns = vec![0u64; if timing { n } else { 0 }];

    let mut bphy = vec![Vec::with_capacity(days); n];
    let mut bzoo = vec![Vec::with_capacity(days); n];
    // Current state per station.
    let mut cur: Vec<(f64, f64)> = vec![opts.init; n];

    for day in 0..days {
        let abs_day = start + day;
        // Snapshot of yesterday's states for lagged upstream reads.
        for &sid in net.topo_order() {
            let s = sid.0;
            // Merge retained local water with lagged upstream arrivals,
            // weighting biomass by flow exactly like the water bodies.
            let station = net.station(sid);
            let has_upstream = net.upstream_of(sid).count() > 0;
            let (mut p, mut z) = cur[s];
            if has_upstream {
                let prev_flow = if abs_day > 0 {
                    stations[s].flow[abs_day - 1]
                } else {
                    stations[s].flow[abs_day]
                };
                let mut total_w = station.retention * prev_flow + 1e-9;
                let mut acc_p = total_w * p;
                let mut acc_z = total_w * z;
                for e in net.upstream_of(sid) {
                    let a = e.from.0;
                    let lag = day.saturating_sub(e.delay_days);
                    let (up_p, up_z) = if lag < bphy[a].len() {
                        (bphy[a][lag], bzoo[a][lag])
                    } else {
                        opts.init
                    };
                    let lag_abs = abs_day.saturating_sub(e.delay_days);
                    let w =
                        (1.0 - net.station(e.from).retention) * stations[a].flow[lag_abs].max(0.0);
                    acc_p += w * up_p;
                    acc_z += w * up_z;
                    total_w += w;
                }
                p = acc_p / total_w;
                z = acc_z / total_w;
            }
            // One Euler day with this station's local forcings.
            let t_step = timing.then(std::time::Instant::now);
            let state = [p, z];
            sessions[s].step(day, &state, &mut deriv);
            let [p1, z1] = euler_step(state, deriv, opts.dt, opts.state_cap);
            if let Some(t) = t_step {
                station_ns[s] += t.elapsed().as_nanos() as u64;
            }
            bphy[s].push(p1);
            bzoo[s].push(z1);
            cur[s] = (p1, z1);
        }
    }
    for (s, ns) in station_ns.iter().enumerate() {
        gmr_obsv::span::record_external("netsim.station", sim_start_us, ns / 1_000, Some(s as u64));
    }
    NetworkSimResult { bphy, bzoo }
}

/// RMSE of the network simulation against observed chlorophyll at every
/// *measuring* station; returns `(station_name, rmse)` pairs.
pub fn network_rmse(
    ds: &RiverDataset,
    split: Split,
    result: &NetworkSimResult,
) -> Vec<(String, f64)> {
    ds.network
        .stations()
        .filter(|(_, st)| st.kind == gmr_hydro::network::StationKind::Measuring)
        .map(|(sid, st)| {
            let observed = &ds.stations[sid.0].chla[split.start..split.end];
            let rmse = gmr_hydro::rmse(&result.bphy[sid.0], observed);
            (st.name.clone(), rmse)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manual::manual_system;
    use gmr_expr::BinOp;
    use gmr_hydro::{generate, SyntheticConfig};

    fn dataset() -> RiverDataset {
        generate(&SyntheticConfig {
            start_year: 1996,
            end_year: 1997,
            train_end_year: 1996,
            ..Default::default()
        })
    }

    #[test]
    fn shapes_cover_every_station_and_day() {
        let ds = dataset();
        let res = simulate_network(
            &ds,
            ds.train,
            &manual_system(),
            NetworkSimOptions::default(),
        );
        assert_eq!(res.bphy.len(), ds.network.len());
        for s in 0..ds.network.len() {
            assert_eq!(res.bphy[s].len(), ds.train.len());
            assert_eq!(res.bzoo[s].len(), ds.train.len());
        }
    }

    #[test]
    fn states_bounded_everywhere() {
        let ds = dataset();
        let opts = NetworkSimOptions::default();
        let res = simulate_network(&ds, ds.train, &manual_system(), opts);
        for series in res.bphy.iter().chain(res.bzoo.iter()) {
            for &v in series {
                assert!(v.is_finite());
                assert!((0.0..=opts.state_cap).contains(&v));
            }
        }
    }

    #[test]
    fn zero_dynamics_holds_initial_state_at_headwaters() {
        // dB/dt = 0 at a headwater (no upstream mixing): state frozen.
        let ds = dataset();
        let frozen = [Expr::Num(0.0), Expr::Num(0.0)];
        let opts = NetworkSimOptions::default();
        let res = simulate_network(&ds, ds.train, &frozen, opts);
        let s6 = ds.network.by_name("S6").unwrap().0;
        assert!(res.bphy[s6].iter().all(|&v| v == opts.init.0));
        // And therefore everywhere: all stations start at the same state,
        // and flow-weighted averages of equal values are that value.
        let s1 = ds.network.by_name("S1").unwrap().0;
        for &v in &res.bphy[s1] {
            assert!((v - opts.init.0).abs() < 1e-9);
        }
    }

    #[test]
    fn upstream_biomass_propagates_downstream() {
        // Growth only at the headwater tributary T1 (via a variable that is
        // uniform anyway, we instead grow everywhere but kill at S1's own
        // local step: simpler — use growth proportional to BPhy: biomass
        // rises everywhere; downstream stations receive *mixed* upstream
        // levels, so S1 should deviate from a pure local integration).
        let ds = dataset();
        let grow = [
            Expr::bin(BinOp::Mul, Expr::Num(0.02), Expr::State(0)),
            Expr::Num(0.0),
        ];
        let opts = NetworkSimOptions::default();
        let res = simulate_network(&ds, ds.train, &grow, opts);
        // Pure local integration at a headwater: p_t = p0 * 1.02^t.
        let s6 = ds.network.by_name("S6").unwrap().0;
        let t = 50;
        let expect = opts.init.0 * 1.02f64.powi(t as i32 + 1);
        assert!((res.bphy[s6][t] - expect).abs() / expect < 1e-9);
        // S1 mixes upstream water of *lower* biomass (arrived with a lag,
        // hence fewer growth steps): its level lags the pure local curve.
        let s1 = ds.network.by_name("S1").unwrap().0;
        assert!(res.bphy[s1][t] < expect);
        assert!(res.bphy[s1][t] > opts.init.0);
    }

    #[test]
    fn compiled_entry_point_is_bit_identical_to_dataset_wrapper() {
        let ds = dataset();
        let eqs = manual_system();
        let opts = NetworkSimOptions::default();
        let want = simulate_network(&ds, ds.test, &eqs, opts);
        let sys = CompiledSystem::compile_checked(&eqs, NUM_VARS, 2, Tier::Threaded).unwrap();
        let series: Vec<StationSeries<'_>> = ds
            .stations
            .iter()
            .map(|st| StationSeries {
                vars: &st.vars,
                flow: &st.flow,
            })
            .collect();
        let got = simulate_network_compiled(
            &ds.network,
            &series,
            ds.test.start,
            ds.test.len(),
            &sys,
            opts,
        );
        for s in 0..ds.network.len() {
            assert_eq!(want.bphy[s], got.bphy[s], "bphy differs at station {s}");
            assert_eq!(want.bzoo[s], got.bzoo[s], "bzoo differs at station {s}");
        }
    }

    /// A confluence with zero flow everywhere (total inflow 0) must not
    /// divide by zero: the `1e-9` retention floor keeps the merge a no-op
    /// on the local state, and trajectories stay finite.
    #[test]
    fn zero_total_inflow_at_confluence_stays_finite() {
        let mut ds = dataset();
        for st in &mut ds.stations {
            st.flow.fill(0.0);
        }
        let opts = NetworkSimOptions::default();
        let res = simulate_network(&ds, ds.train, &manual_system(), opts);
        for series in res.bphy.iter().chain(res.bzoo.iter()) {
            for &v in series {
                assert!(v.is_finite());
                assert!((0.0..=opts.state_cap).contains(&v));
            }
        }
        // With zero inflow weight, the confluence VS1 behaves like an
        // isolated station: frozen dynamics hold its initial state.
        let frozen = [Expr::Num(0.0), Expr::Num(0.0)];
        let res = simulate_network(&ds, ds.train, &frozen, opts);
        let vs1 = ds.network.by_name("VS1").unwrap().0;
        assert!(res.bphy[vs1].iter().all(|&v| v == opts.init.0));
    }

    /// A virtual station with a single upstream parent is a pass-through
    /// merge (its own retention share plus one inflow), not a confluence:
    /// with zero local retention weight its biomass must track the lagged
    /// parent value exactly.
    #[test]
    fn single_parent_virtual_station_passes_biomass_through() {
        use gmr_hydro::network::{Edge, Station, StationId, StationKind};
        let net = RiverNetwork::new(
            vec![
                Station {
                    name: "UP".into(),
                    kind: StationKind::Measuring,
                    retention: 0.0,
                },
                Station {
                    name: "MID".into(),
                    kind: StationKind::Virtual,
                    retention: 0.0,
                },
            ],
            vec![Edge {
                from: StationId(0),
                to: StationId(1),
                distance_km: 10.0,
                delay_days: 1,
            }],
        )
        .unwrap();
        let days = 40;
        let vars = vec![[0.0; NUM_VARS]; days];
        let flow = vec![100.0; days];
        let series = vec![
            StationSeries {
                vars: &vars,
                flow: &flow,
            };
            2
        ];
        // Grow only via BPhy so the two stations diverge over time.
        let grow = [
            Expr::bin(BinOp::Mul, Expr::Num(0.05), Expr::State(0)),
            Expr::Num(0.0),
        ];
        let sys = CompiledSystem::compile_checked(&grow, NUM_VARS, 2, Tier::Threaded).unwrap();
        let opts = NetworkSimOptions::default();
        let res = simulate_network_compiled(&net, &series, 0, days, &sys, opts);
        // MID's merged pre-step state is its lagged parent (retention share
        // is only the 1e-9 floor), so after the shared local growth step:
        // mid[t] = up[t-1] * 1.05 = up[t] exactly (same growth factor).
        for t in 1..days {
            let expect = res.bphy[0][t - 1] * 1.05;
            let got = res.bphy[1][t];
            assert!(
                (got - expect).abs() < 1e-12 * expect.max(1.0),
                "t={t}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn network_rmse_reports_measuring_stations_only() {
        let ds = dataset();
        let res = simulate_network(&ds, ds.test, &manual_system(), NetworkSimOptions::default());
        let scores = network_rmse(&ds, ds.test, &res);
        assert_eq!(scores.len(), 9); // S1–S6, T1–T3
        assert!(scores.iter().all(|(name, _)| !name.starts_with("VS")));
        assert!(scores.iter().all(|(_, r)| *r > 0.0));
    }
}
